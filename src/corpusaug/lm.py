"""Smoothed trigram language model and the replacement-context ratio test.

Smoothing is interpolated absolute discounting with a fixed discount D: at
each level the observed count loses D of its mass, and the freed mass is
spread over the next-lower level, ending in a unigram distribution with a
floor count for the unknown token. Every conditional distribution then sums
to one exactly, which the tests exploit.

Sentences are padded with two begin markers and two end markers so that any
token span, however close to a boundary, owns a full set of overlapping
trigram windows.

The model is held as integer token ids: ``BOS``, ``EOS``, ``UNK``, then the
sorted vocabulary. With ``V`` ids, bigram keys are ``h*V + w`` and trigram
keys ``(h1*V + h2)*V + w``, stored as sorted int64 arrays beside their
counts. For orders 2 and 3 the model also keeps three arrays per history
(``_Histories``): the sorted histories, their summed continuation counts and
their numbers of distinct continuations. Building a model, trained or
loaded, makes no dict of n-grams.

All probabilities come from one array scorer: counts are found with
``np.searchsorted`` and each level of the interpolation is computed per
element. ``trigram_prob`` scores one trigram, and the ARPA export scores
every stored n-gram, through it. Each equals a model keyed by token strings
bit for bit.

Windows are scored from an ``IdStream``: sentences mapped to ids once and
laid end to end, each between its two begin and two end markers.
``stream_scores`` gathers the windows of many (sentence, span) pairs from
it, spliced with an insertion or not, scores all their trigrams in one pass
and takes each window's product left to right. ``train_lm`` counts n-grams
over the same stream.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .cachefile import decode_tokens, encode_tokens, narrow, read_arrays, write_arrays
from .embeddings import NumericError

log = logging.getLogger(__name__)

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
RESERVED = (BOS, EOS, UNK)
BOS_ID, EOS_ID, UNK_ID = range(len(RESERVED))

DEFAULT_DISCOUNT = 0.75
DEFAULT_MIN_COUNT = 1

# First bytes of a cached model; the format number changes with the layout.
LM_MAGIC = b"corpusaug-lm 1\n"

Span = Tuple[int, int]


class ArpaFormatError(ValueError):
    """Malformed ARPA n-gram file."""


class LmFormatError(ValueError):
    """Truncated or malformed cached language model."""


def _check_id_count(size: int) -> None:
    if size ** 3 > np.iinfo(np.int64).max:
        raise ValueError(f"{size} token ids overflow the int64 trigram keys")


def _check_ngrams(order: int, keys: np.ndarray, counts: np.ndarray, size: int) -> None:
    name = f"{order}-gram"
    if keys.shape != counts.shape:
        raise ValueError(f"{name} keys and counts differ in length")
    if keys.size == 0:
        return
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError(f"{name} keys are not strictly increasing")
    if keys[0] < 0 or keys[-1] >= size ** order:
        raise ValueError(f"{name} key out of range [0, {size ** order})")
    if np.any(counts <= 0):
        raise ValueError(f"{name} count not positive")


class _Histories(NamedTuple):
    """The histories of one order that predict something, sorted, with the
    summed count of their continuations and the number of distinct ones."""

    keys: np.ndarray
    follow: np.ndarray
    n1plus: np.ndarray


def _continuations(keys: np.ndarray, counts: np.ndarray, size: int) -> _Histories:
    """Per history: summed count and number of distinct continuations.

    Begin markers are contexts only: n-grams whose final token is BOS carry
    no prediction mass, so they are left out (the count tables keep them).
    """
    keep = keys % size != BOS_ID
    keys, counts = keys[keep], counts[keep]
    if keys.size == 0:
        return _Histories(keys, counts, counts)
    history = keys // size  # sorted, because the keys are
    starts = np.flatnonzero(np.concatenate(([True], history[1:] != history[:-1])))
    follow = np.add.reduceat(counts, starts)
    n1plus = np.diff(np.append(starts, keys.size))
    return _Histories(history[starts], follow, n1plus)


def _find(keys: np.ndarray, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per query, an index into the sorted, non-empty ``keys`` and whether
    the key there equals the query."""
    # Searching all keys but the last gives an index that is always valid.
    at = np.searchsorted(keys[:-1], query)
    return at, keys[at] == query


class TrigramModel:
    """Positional n-gram counts over token ids plus derived prediction tables.

    ``unigram_counts`` has one entry per id; the bigram and trigram tables are
    sorted key arrays with parallel count arrays. Counts are positional over
    padded sentences, so every n-gram count is bounded by its prefix's count.
    For orders 2 and 3 the model keeps the ``_Histories`` arrays that the
    probabilities interpolate with. No table is a dict: every probability
    is looked up with ``np.searchsorted``. Only the string-keyed
    ``unigrams``/``bigrams``/``trigrams``/``vocab`` views build dicts, on
    first use; scoring never needs them.
    """

    def __init__(
        self,
        vocab: Sequence[str],
        unigram_counts: np.ndarray,
        bigram_keys: np.ndarray,
        bigram_counts: np.ndarray,
        trigram_keys: np.ndarray,
        trigram_counts: np.ndarray,
        discount: float = DEFAULT_DISCOUNT,
        min_count: int = DEFAULT_MIN_COUNT,
    ) -> None:
        if not 0.0 < discount < 1.0:
            raise ValueError(f"discount must be in (0, 1), got {discount}")
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        tokens = RESERVED + tuple(vocab)
        size = len(tokens)
        _check_id_count(size)
        if any(a >= b for a, b in zip(vocab, vocab[1:])):
            raise ValueError("vocabulary is not strictly sorted")
        ids = {token: i for i, token in enumerate(tokens)}
        if len(ids) != size:
            raise ValueError("vocabulary contains a reserved marker")
        unigram_counts, bigram_keys, bigram_counts, trigram_keys, trigram_counts = (
            np.asarray(a, dtype=np.int64)
            for a in (unigram_counts, bigram_keys, bigram_counts, trigram_keys, trigram_counts)
        )
        if unigram_counts.shape != (size,):
            raise ValueError(f"expected {size} unigram counts, got {unigram_counts.size}")
        if np.any(np.delete(unigram_counts, UNK_ID) <= 0) or unigram_counts[UNK_ID] < 0:
            raise ValueError("unigram count not positive")
        _check_ngrams(2, bigram_keys, bigram_counts, size)
        _check_ngrams(3, trigram_keys, trigram_counts, size)

        self.tokens = tokens
        self.ids = ids
        self.discount = discount
        self.min_count = min_count
        self.unigram_counts = unigram_counts
        self.bigram_keys, self.bigram_counts = bigram_keys, bigram_counts
        self.trigram_keys, self.trigram_counts = trigram_keys, trigram_counts

        self._histories2 = _continuations(bigram_keys, bigram_counts, size)
        self._histories3 = _continuations(trigram_keys, trigram_counts, size)
        # Unigram backoff distribution over the predictable alphabet
        # (vocab + EOS + UNK; BOS is never predicted). UNK gets a floor
        # count of 1 so unknown words keep positive probability.
        uni_pred = unigram_counts.copy()
        uni_pred[BOS_ID] = 0
        uni_pred[UNK_ID] = max(uni_pred[UNK_ID], 1)
        self._uni_pred = uni_pred
        self._uni_total = int(uni_pred.sum())

    # -- string views -------------------------------------------------------

    def _decode(self, keys: np.ndarray, counts: np.ndarray, order: int) -> Dict[tuple, int]:
        size, tokens = len(self.tokens), self.tokens
        columns = []
        for _ in range(order):
            keys, last = np.divmod(keys, size)
            columns.append([tokens[i] for i in last.tolist()])
        return dict(zip(zip(*reversed(columns)), counts.tolist()))

    @cached_property
    def vocab(self) -> frozenset:
        return frozenset(self.tokens[len(RESERVED):])

    @cached_property
    def unigrams(self) -> Dict[str, int]:
        return {t: c for t, c in zip(self.tokens, self.unigram_counts.tolist()) if c > 0}

    @cached_property
    def bigrams(self) -> Dict[Tuple[str, str], int]:
        return self._decode(self.bigram_keys, self.bigram_counts, 2)

    @cached_property
    def trigrams(self) -> Dict[Tuple[str, str, str], int]:
        return self._decode(self.trigram_keys, self.trigram_counts, 3)

    # -- token normalization ------------------------------------------------

    def alphabet(self) -> List[str]:
        """Predictable tokens: vocabulary plus EOS and UNK."""
        return list(self.tokens[len(RESERVED):]) + [EOS, UNK]

    # -- probabilities over id arrays ---------------------------------------

    def _interpolate(self, histories: _Histories, keys: np.ndarray, counts: np.ndarray,
                     history: np.ndarray, w: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """One level of the discounted interpolation, per element:
        ``max(c - D, 0)/follow + (D*n1plus/follow)*lower``, in that order of
        operations. A history with no continuation backs off to ``lower``;
        dividing its unused branch by 1 keeps it finite."""
        if histories.keys.size == 0:
            return lower
        at, seen = _find(histories.keys, history)
        follow = np.where(seen, histories.follow[at], 1)
        # A history with a continuation has an n-gram, so ``keys`` is not empty.
        where, found = _find(keys, history * len(self.tokens) + w)
        count = np.where(found, counts[where], 0)
        discounted = np.maximum(count - self.discount, 0.0) / follow
        interp = self.discount * histories.n1plus[at] / follow
        return np.where(seen, discounted + interp * lower, lower)

    def _unigram_probs(self, w: np.ndarray) -> np.ndarray:
        return self._uni_pred[w] / self._uni_total

    def _bigram_probs(self, h: np.ndarray, w: np.ndarray) -> np.ndarray:
        """P(w | h) per element of two id arrays."""
        return self._interpolate(
            self._histories2, self.bigram_keys, self.bigram_counts, h, w, self._unigram_probs(w)
        )

    def _probs(self, h1: np.ndarray, h2: np.ndarray, w: np.ndarray) -> np.ndarray:
        """P(w | h1, h2) per element of three id arrays."""
        history = h1 * len(self.tokens) + h2
        return self._interpolate(
            self._histories3, self.trigram_keys, self.trigram_counts, history, w,
            self._bigram_probs(h2, w),
        )

    def _backoff(self, histories: _Histories, history: np.ndarray) -> np.ndarray:
        """Per history, the leftover mass ``D*n1plus/follow``; 1.0 for a
        history with no continuation."""
        if histories.keys.size == 0:
            return np.ones(history.shape)
        at, seen = _find(histories.keys, history)
        follow = np.where(seen, histories.follow[at], 1)
        return np.where(seen, self.discount * histories.n1plus[at] / follow, 1.0)

    # -- string-level probabilities -----------------------------------------

    def trigram_prob(self, w1: str, w2: str, w3: str) -> float:
        """P(w3 | w1, w2) after mapping out-of-vocabulary tokens to UNK.

        Always in (0, 1]; for any history the values sum to one over the
        predictable alphabet.
        """
        ids = self.ids
        w = ids.get(w3, UNK_ID)
        query = (
            np.array([i], dtype=np.int64)
            for i in (ids.get(w1, UNK_ID), ids.get(w2, UNK_ID), UNK_ID if w == BOS_ID else w)
        )
        return float(self._probs(*query)[0])

    def backoff_weights(self) -> Tuple[Dict[str, float], Dict[Tuple[str, str], float]]:
        """Leftover-mass weights per history, as used by the ARPA export."""
        unigrams = self.alphabet() + [BOS]
        history = np.array([self.ids[w] for w in unigrams], dtype=np.int64)
        uni_bow = dict(zip(unigrams, self._backoff(self._histories2, history).tolist()))
        # A bigram key h1*V + h2 is also the id of the trigram history (h1, h2).
        bi_bow = dict(zip(self.bigrams, self._backoff(self._histories3, self.bigram_keys).tolist()))
        return uni_bow, bi_bow


def train_lm(
    mono: Sequence[Sequence[str]],
    min_count: int = DEFAULT_MIN_COUNT,
    discount: float = DEFAULT_DISCOUNT,
) -> TrigramModel:
    """Count padded n-grams over a monolingual corpus, one token sequence
    per sentence.

    Tokens rarer than ``min_count``, and corpus tokens equal to a reserved
    marker, are replaced by UNK before counting.
    """
    if not mono:
        raise ValueError("monolingual corpus must be non-empty")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    raw = Counter(itertools.chain.from_iterable(mono))
    vocab = sorted(t for t, c in raw.items() if c >= min_count and t not in RESERVED)
    size = len(RESERVED) + len(vocab)
    _check_id_count(size)
    lookup = {t: i for i, t in enumerate(vocab, start=len(RESERVED))}
    ids = IdStream.build(lookup, mono).ids
    # The padded sentences are laid end to end; a window that crosses from
    # one sentence into the next is the only place EOS is followed by BOS.
    crossing = (ids[:-1] == EOS_ID) & (ids[1:] == BOS_ID)
    bigrams = ids[:-1] * size + ids[1:]
    trigrams = bigrams[:-1] * size + ids[2:]
    bigram_keys, bigram_counts = np.unique(bigrams[~crossing], return_counts=True)
    trigram_keys, trigram_counts = np.unique(
        trigrams[~(crossing[:-1] | crossing[1:])], return_counts=True
    )
    return TrigramModel(
        vocab,
        np.bincount(ids, minlength=size),
        bigram_keys,
        bigram_counts,
        trigram_keys,
        trigram_counts,
        discount=discount,
        min_count=min_count,
    )


# The two positions after a span, which end a window.
_AFTER_SPAN = np.array([1, 2])


class IdStream(NamedTuple):
    """Sentences as one stream of token ids: each sentence's ids between two
    ``BOS`` and two ``EOS``, the sentences end to end. Token ``j`` of
    sentence ``i`` is at ``ids[offsets[i] + j]``."""

    ids: np.ndarray
    offsets: np.ndarray

    @classmethod
    def build(cls, lookup: Mapping[str, int], sentences: Sequence[Sequence[str]]) -> "IdStream":
        """The stream of ``sentences``, each token mapped by ``lookup`` and
        every token it lacks mapped to ``UNK``."""
        lengths = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
        tokens = itertools.chain.from_iterable(sentences)
        flat = np.fromiter(map(lookup.get, tokens, itertools.repeat(UNK_ID)),
                           dtype=np.int64, count=int(lengths.sum()))
        padded = lengths + 4
        offsets = np.cumsum(padded) - padded + 2
        ids = np.full(len(flat) + 4 * len(sentences), EOS_ID, dtype=np.int64)
        ids[offsets - 2] = ids[offsets - 1] = BOS_ID
        # Sentence i's tokens sit 4*i + 2 places after their flat positions.
        ids[np.arange(len(flat)) + np.repeat(4 * np.arange(len(sentences)) + 2, lengths)] = flat
        return cls(ids, offsets)


def stream_scores(
    model: TrigramModel, stream: IdStream, windows: np.ndarray, unspliced: int,
    insert: Sequence[str],
) -> np.ndarray:
    """The score of each window in ``windows``, as one float64 array: the
    first ``unspliced`` as the sentence has them, the others with the span
    replaced by ``insert``. ``windows`` holds one ``(sentence, start, end)``
    row per window, the span inclusive and in unpadded indices, of the
    sentences of ``stream``, which must be mapped to the model's ids.

    A window's score is the product of the probabilities of the padded
    trigrams that overlap its span: its ids run from two before the span to
    two after it, which the stream's pads supply at either end of a sentence.
    The windows are gathered from the stream into one id matrix, each padded
    on the right to the longest, and their trigrams, padding left out, are
    scored by one ``TrigramModel._probs`` call. Each window's probabilities
    are then multiplied column by column, left to right from 1.0, a padding
    column counting as 1.0: the same IEEE product as a loop of
    ``score *= p``.
    """
    ids, offsets = stream
    sentence, start, end = windows.T
    first = offsets[sentence] + start
    lengths = end - start + 5
    lengths[unspliced:] = len(insert) + 4
    width = int(lengths.max(initial=len(insert) + 4))
    # A row of the last sentence runs past the stream's end only on its padding.
    contexts = ids.take(first[:, None] + np.arange(-2, width - 2), mode="clip")
    spliced = contexts[unspliced:]
    spliced[:, 2 : len(insert) + 2] = [model.ids.get(token, UNK_ID) for token in insert]
    spliced[:, len(insert) + 2 : len(insert) + 4] = ids.take(
        (first + end - start)[unspliced:, None] + _AFTER_SPAN
    )
    trigram = np.arange(width - 2) < (lengths - 2)[:, None]
    predicted = contexts[:, 2:][trigram]
    probs = np.ones(trigram.shape)
    probs[trigram] = model._probs(
        contexts[:, :-2][trigram], contexts[:, 1:-1][trigram],
        np.where(predicted == BOS_ID, UNK_ID, predicted),
    )
    scores = probs[:, 0].copy()  # 1.0 * p is p
    for column in probs.T[1:]:
        scores *= column
    return scores


def lm_ratio_accept(scores: Tuple[float, float], threshold: float) -> Tuple[bool, float]:
    """Context-ratio acceptance test for a replacement.

    ``scores`` are the (original, synthetic) window scores, as
    ``stream_scores`` gives them. The ratio is the synthetic score over the
    original score; the replacement is accepted when the ratio is at least
    ``threshold``. Both verdict and ratio are returned for provenance.
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    original_score, synthetic_score = scores
    if not original_score > 0.0:
        raise NumericError(
            "the LM score of an original window underflowed to 0 (lm_discount is too close to 0)"
        )
    ratio = synthetic_score / original_score
    return ratio >= threshold, ratio


# -- ARPA interchange -------------------------------------------------------


@dataclass
class ArpaScorer:
    """Backoff n-gram scorer loaded from an ARPA file."""

    order: int
    logprobs: Dict[Tuple[str, ...], float]
    backoffs: Dict[Tuple[str, ...], float]
    unigram_vocab: frozenset

    def _map(self, token: str) -> str:
        if token in self.unigram_vocab:
            return token
        return UNK if UNK in self.unigram_vocab else token

    def _logp(self, ngram: Tuple[str, ...]) -> float:
        if ngram in self.logprobs:
            return self.logprobs[ngram]
        if len(ngram) == 1:
            return -99.0
        bow = self.backoffs.get(ngram[:-1], 0.0)
        return bow + self._logp(ngram[1:])

    def trigram_prob(self, w1: str, w2: str, w3: str) -> float:
        ngram = (self._map(w1), self._map(w2), self._map(w3))
        return 10.0 ** self._logp(ngram)


def export_arpa(model: TrigramModel, path: str | Path) -> None:
    """Write the model in ARPA form (log10 probabilities, backoff weights).

    Observed n-grams carry their full interpolated probability; backoff
    weights carry the discounted leftover mass, so a scorer importing the
    file reproduces the model's probabilities up to print rounding. Tokens
    that are contexts only (the begin marker) get the conventional -99 stand-in.
    """
    ids, size = model.ids, len(model.tokens)
    uni_bow, bi_bow = model.backoff_weights()
    unigrams = sorted(set(model.alphabet()) | {BOS})
    p1 = model._unigram_probs(np.array([ids[w] for w in unigrams], dtype=np.int64)).tolist()
    uni_entries: List[Tuple[str, float, float]] = []
    for w, p in zip(unigrams, p1):
        logp = -99.0 if w == BOS else math.log10(p)
        uni_entries.append((w, logp, math.log10(uni_bow[w]) if uni_bow[w] > 0 else 0.0))
    keys = model.bigram_keys
    p2 = dict(zip(model.bigrams, model._bigram_probs(keys // size, keys % size).tolist()))
    bi_entries: List[Tuple[Tuple[str, str], float, float]] = []
    for pair in sorted(p2):
        logp = -99.0 if pair[1] == BOS else math.log10(p2[pair])
        bow = bi_bow[pair]
        bi_entries.append((pair, logp, math.log10(bow) if bow > 0 else 0.0))
    keys = model.trigram_keys
    p3 = model._probs(keys // (size * size), keys // size % size, keys % size).tolist()
    tri_entries = sorted(
        (triple, math.log10(p)) for triple, p in zip(model.trigrams, p3)
    )

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\\data\\\n")
        fh.write(f"ngram 1={len(uni_entries)}\n")
        fh.write(f"ngram 2={len(bi_entries)}\n")
        fh.write(f"ngram 3={len(tri_entries)}\n")
        fh.write("\n\\1-grams:\n")
        for w, logp, bow in uni_entries:
            fh.write(f"{logp:.6f}\t{w}\t{bow:.6f}\n")
        fh.write("\n\\2-grams:\n")
        for (w1, w2), logp, bow in bi_entries:
            fh.write(f"{logp:.6f}\t{w1} {w2}\t{bow:.6f}\n")
        fh.write("\n\\3-grams:\n")
        for (w1, w2, w3), logp in tri_entries:
            fh.write(f"{logp:.6f}\t{w1} {w2} {w3}\n")
        fh.write("\n\\end\\\n")


def import_arpa(path: str | Path) -> ArpaScorer:
    """Parse an ARPA n-gram file into a backoff scorer.

    Section headers, declared n-gram counts, and the closing marker are
    validated; violations raise :class:`ArpaFormatError` with the line
    number.
    """
    p = Path(path)
    declared: Dict[int, int] = {}
    logprobs: Dict[Tuple[str, ...], float] = {}
    backoffs: Dict[Tuple[str, ...], float] = {}
    seen: Dict[int, int] = {}
    state = "preamble"
    current_order = 0
    ended = False
    with open(p, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            if text == "\\data\\":
                state = "data"
                continue
            if text == "\\end\\":
                ended = True
                break
            if text.startswith("\\") and text.endswith("-grams:"):
                try:
                    current_order = int(text[1:-7])
                except ValueError:
                    raise ArpaFormatError(f"{p}:{lineno}: bad section header {text!r}")
                if current_order not in declared:
                    raise ArpaFormatError(
                        f"{p}:{lineno}: section for undeclared order {current_order}"
                    )
                state = "ngrams"
                continue
            if state == "data":
                if not text.startswith("ngram "):
                    raise ArpaFormatError(f"{p}:{lineno}: expected ngram count line")
                spec = text[len("ngram "):]
                if "=" not in spec:
                    raise ArpaFormatError(f"{p}:{lineno}: bad count line {text!r}")
                order_s, count_s = spec.split("=", 1)
                try:
                    declared[int(order_s)] = int(count_s)
                except ValueError:
                    raise ArpaFormatError(f"{p}:{lineno}: bad count line {text!r}")
                continue
            if state == "ngrams":
                parts = text.split()
                if len(parts) < current_order + 1:
                    raise ArpaFormatError(
                        f"{p}:{lineno}: entry too short for order {current_order}"
                    )
                try:
                    logp = float(parts[0])
                except ValueError:
                    raise ArpaFormatError(f"{p}:{lineno}: bad log-probability {parts[0]!r}")
                ngram = tuple(parts[1 : 1 + current_order])
                logprobs[ngram] = logp
                if len(parts) > current_order + 1:
                    try:
                        backoffs[ngram] = float(parts[1 + current_order])
                    except ValueError:
                        raise ArpaFormatError(
                            f"{p}:{lineno}: bad backoff weight {parts[-1]!r}"
                        )
                seen[current_order] = seen.get(current_order, 0) + 1
                continue
            raise ArpaFormatError(f"{p}:{lineno}: unexpected line before \\data\\")
    if not declared:
        raise ArpaFormatError(f"{p}: missing \\data\\ section")
    if not ended:
        raise ArpaFormatError(f"{p}: missing \\end\\ marker")
    for order, count in declared.items():
        if seen.get(order, 0) != count:
            raise ArpaFormatError(
                f"{p}: declared {count} {order}-grams, found {seen.get(order, 0)}"
            )
    unigram_vocab = frozenset(ng[0] for ng in logprobs if len(ng) == 1)
    return ArpaScorer(
        order=max(declared),
        logprobs=logprobs,
        backoffs=backoffs,
        unigram_vocab=unigram_vocab,
    )


# -- internal persistence ---------------------------------------------------


def save_lm(model: TrigramModel, path: str | Path) -> None:
    """Write the model as ``LM_MAGIC`` followed by eight ``.npy`` arrays.

    In order: the discount, the minimum count, the vocabulary as UTF-8 with
    each token ended by a newline, the unigram counts, then keys and counts
    of the bigrams and of the trigrams. Integer arrays are stored unsigned in
    the narrowest type that holds them. Equal models give equal bytes.
    """
    write_arrays(path, LM_MAGIC, (
        np.array([model.discount], dtype="<f8"),
        np.array([model.min_count], dtype="<i8"),
        encode_tokens(model.tokens[len(RESERVED):]),
        narrow(model.unigram_counts),
        narrow(model.bigram_keys),
        narrow(model.bigram_counts),
        narrow(model.trigram_keys),
        narrow(model.trigram_counts),
    ))


def _read_lm(path: Path) -> TrigramModel:
    discount, min_count, vocab, *tables = read_arrays(path, LM_MAGIC, 8)
    if discount.shape != (1,) or discount.dtype.kind != "f":
        raise ValueError("bad discount array")
    if min_count.shape != (1,) or min_count.dtype.kind not in "iu":
        raise ValueError("bad min_count array")
    if any(a.ndim != 1 or a.dtype.kind not in "iu" for a in tables):
        raise ValueError("bad array type or shape")
    return TrigramModel(
        decode_tokens(vocab), *tables, discount=float(discount[0]), min_count=int(min_count[0])
    )


def load_lm(path: str | Path) -> TrigramModel:
    """Read a model written by :func:`save_lm`.

    A truncated or malformed file raises :class:`LmFormatError` naming the
    path: wrong magic, a missing array, key and count arrays of different
    lengths, keys unsorted or out of ``[0, V**k)``, or non-positive counts.
    """
    p = Path(path)
    try:
        return _read_lm(p)
    except ValueError as exc:
        raise LmFormatError(f"{p}: {exc}") from exc
