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
counts. The probabilities are computed from the same Python integers, with
the same float operations in the same order, as a model keyed by token
strings, so they are equal to it bit for bit.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .cachefile import decode_tokens, encode_tokens, narrow, read_arrays, write_arrays
from .corpus_io import Sentence

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


def _continuations(
    keys: np.ndarray, counts: np.ndarray, size: int
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per history: summed count and number of distinct continuations.

    Begin markers are contexts only: n-grams whose final token is BOS carry
    no prediction mass, so they are left out (the count tables keep them).
    """
    keep = keys % size != BOS_ID
    keys, counts = keys[keep], counts[keep]
    if keys.size == 0:
        return {}, {}
    history = keys // size  # sorted, because the keys are
    starts = np.flatnonzero(np.concatenate(([True], history[1:] != history[:-1])))
    follow = np.add.reduceat(counts, starts)
    types = np.diff(np.append(starts, keys.size))
    histories = history[starts].tolist()
    return dict(zip(histories, follow.tolist())), dict(zip(histories, types.tolist()))


class TrigramModel:
    """Positional n-gram counts over token ids plus derived prediction tables.

    ``unigram_counts`` has one entry per id; the bigram and trigram tables are
    sorted key arrays with parallel count arrays. Counts are positional over
    padded sentences, so every n-gram count is bounded by its prefix's count.
    The string-keyed ``unigrams``/``bigrams``/``trigrams``/``vocab`` views are
    built on first use; scoring never needs them.
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

        self._bigram = dict(zip(bigram_keys.tolist(), bigram_counts.tolist()))
        self._trigram = dict(zip(trigram_keys.tolist(), trigram_counts.tolist()))
        self._follow2, self._n1plus2 = _continuations(bigram_keys, bigram_counts, size)
        self._follow3, self._n1plus3 = _continuations(trigram_keys, trigram_counts, size)
        # Unigram backoff distribution over the predictable alphabet
        # (vocab + EOS + UNK; BOS is never predicted). UNK gets a floor
        # count of 1 so unknown words keep positive probability.
        uni_pred = unigram_counts.tolist()
        uni_pred[BOS_ID] = 0
        uni_pred[UNK_ID] = max(uni_pred[UNK_ID], 1)
        self._uni_pred = uni_pred
        self._uni_total = sum(uni_pred)

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

    def map_history(self, token: str) -> str:
        return token if token in self.ids else UNK

    def map_predicted(self, token: str) -> str:
        return token if token in self.ids and token != BOS else UNK

    # -- probabilities over ids ---------------------------------------------

    def _p1(self, w: int) -> float:
        return self._uni_pred[w] / self._uni_total

    def _p2(self, h: int, w: int) -> float:
        follow = self._follow2.get(h, 0)
        if follow == 0:
            return self._p1(w)
        count = self._bigram.get(h * len(self.tokens) + w, 0)
        discounted = max(count - self.discount, 0.0) / follow
        interp = self.discount * self._n1plus2[h] / follow
        return discounted + interp * self._p1(w)

    def _p3(self, h1: int, h2: int, w: int) -> float:
        history = h1 * len(self.tokens) + h2
        follow = self._follow3.get(history, 0)
        if follow == 0:
            return self._p2(h2, w)
        count = self._trigram.get(history * len(self.tokens) + w, 0)
        discounted = max(count - self.discount, 0.0) / follow
        interp = self.discount * self._n1plus3[history] / follow
        return discounted + interp * self._p2(h2, w)

    def trigram_prob(self, w1: str, w2: str, w3: str) -> float:
        """P(w3 | w1, w2) after mapping out-of-vocabulary tokens to UNK.

        Always in (0, 1]; for any history the values sum to one over the
        predictable alphabet.
        """
        ids = self.ids
        w = ids.get(w3, UNK_ID)
        return self._p3(ids.get(w1, UNK_ID), ids.get(w2, UNK_ID), UNK_ID if w == BOS_ID else w)

    def backoff_weights(self) -> Tuple[Dict[str, float], Dict[Tuple[str, str], float]]:
        """Leftover-mass weights per history, as used by the ARPA export."""
        ids, size = self.ids, len(self.tokens)
        uni_bow = {}
        for w in self.alphabet() + [BOS]:
            follow = self._follow2.get(ids[w], 0)
            uni_bow[w] = self.discount * self._n1plus2[ids[w]] / follow if follow else 1.0
        bi_bow = {}
        for pair in self.bigrams:
            history = ids[pair[0]] * size + ids[pair[1]]
            follow = self._follow3.get(history, 0)
            bi_bow[pair] = self.discount * self._n1plus3[history] / follow if follow else 1.0
        return uni_bow, bi_bow


def train_lm(
    mono: Sequence[Sentence],
    min_count: int = DEFAULT_MIN_COUNT,
    discount: float = DEFAULT_DISCOUNT,
) -> TrigramModel:
    """Count padded n-grams over a monolingual corpus.

    Tokens rarer than ``min_count``, and corpus tokens equal to a reserved
    marker, are replaced by UNK before counting.
    """
    if not mono:
        raise ValueError("monolingual corpus must be non-empty")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    raw = Counter(itertools.chain.from_iterable(sent.tokens for sent in mono))
    vocab = sorted(t for t, c in raw.items() if c >= min_count and t not in RESERVED)
    size = len(RESERVED) + len(vocab)
    _check_id_count(size)
    lookup = {t: i for i, t in enumerate(vocab, start=len(RESERVED))}
    stream: List[int] = []
    for sent in mono:
        stream += (BOS_ID, BOS_ID)
        stream += [lookup.get(t, UNK_ID) for t in sent.tokens]
        stream += (EOS_ID, EOS_ID)
    ids = np.array(stream, dtype=np.int64)
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


@dataclass(frozen=True)
class ContextWindow:
    """A padded sentence plus the padded coordinates of a replaced span."""

    padded: Tuple[str, ...]
    span_start: int
    span_end: int

    @classmethod
    def build(cls, tokens: Sequence[str], span: Span) -> "ContextWindow":
        start, end = span
        if not (0 <= start <= end < len(tokens)):
            raise ValueError(f"span {span} out of range for {len(tokens)} tokens")
        padded = (BOS, BOS) + tuple(tokens) + (EOS, EOS)
        return cls(padded, start + 2, end + 2)

    def trigram_positions(self) -> range:
        """Indices of every padded trigram whose 3-token window overlaps the span.

        The two pads on each side keep ``span_start - 2`` and ``span_end``
        inside the padded sentence's trigram indices.
        """
        return range(self.span_start - 2, self.span_end + 1)

    def trigrams(self) -> List[Tuple[str, str, str]]:
        return [
            (self.padded[i], self.padded[i + 1], self.padded[i + 2])
            for i in self.trigram_positions()
        ]


def window_score(model, tokens: Sequence[str], span: Span) -> float:
    """Product of trigram probabilities over the windows overlapping ``span``.

    ``model`` is anything with a ``trigram_prob(w1, w2, w3)`` method (the
    internal model or an imported ARPA scorer). Span indices are inclusive
    and refer to the unpadded tokens.
    """
    window = ContextWindow.build(tokens, span)
    score = 1.0
    for w1, w2, w3 in window.trigrams():
        score *= model.trigram_prob(w1, w2, w3)
    return score


def lm_ratio_accept(
    model,
    original: Tuple[Sequence[str], Span],
    synthetic: Tuple[Sequence[str], Span],
    threshold: float,
) -> Tuple[bool, float]:
    """Context-ratio acceptance test for a replacement.

    The ratio is the synthetic window score over the original window score;
    the replacement is accepted when the ratio is at least ``threshold``.
    Both verdict and ratio are returned for provenance.
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    original_score = window_score(model, original[0], original[1])
    # Smoothing keeps every probability positive, so this cannot trip on
    # well-formed models.
    assert original_score > 0.0, "original window score must be positive"
    ratio = window_score(model, synthetic[0], synthetic[1]) / original_score
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
    ids = model.ids
    uni_bow, bi_bow = model.backoff_weights()
    uni_entries: List[Tuple[str, float, float]] = []
    for w in sorted(set(model.alphabet()) | {BOS}):
        logp = -99.0 if w == BOS else math.log10(model._p1(ids[w]))
        uni_entries.append((w, logp, math.log10(uni_bow[w]) if uni_bow[w] > 0 else 0.0))
    bi_entries: List[Tuple[Tuple[str, str], float, float]] = []
    for pair in sorted(model.bigrams):
        w1, w2 = pair
        logp = -99.0 if w2 == BOS else math.log10(model._p2(ids[w1], ids[w2]))
        bow = bi_bow[pair]
        bi_entries.append((pair, logp, math.log10(bow) if bow > 0 else 0.0))
    tri_entries: List[Tuple[Tuple[str, str, str], float]] = []
    for triple in sorted(model.trigrams):
        w1, w2, w3 = triple
        tri_entries.append((triple, math.log10(model._p3(ids[w1], ids[w2], ids[w3]))))

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
