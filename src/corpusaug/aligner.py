"""Lexical translation model (IBM Model 1) and Viterbi word alignment.

The model learns t(target | source) probabilities by expectation-
maximization over the parallel corpus, with a NULL token on the
conditioning side absorbing unexplained words. It is used to locate the
target-side word or phrase corresponding to a source position.

Only t(target | source) is trained, the one direction that locating a
target span needs: the source side is the conditioning side throughout.

A table is held as the arrays its cache file stores: two sorted
vocabularies, then one sorted int64 key and one probability per entry.
Training, saving, loading and Viterbi alignment build no dict of rows;
probabilities are found with ``np.searchsorted``. The cache stores each
probability as the value its 12-significant-digit text parses back to.
"""

from __future__ import annotations

import itertools
import logging
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cachefile import (
    decode_tokens, encode_tokens, narrow, read_arrays, rint_clear, write_arrays,
)
from .corpus_io import ParallelCorpus, RareWord, Sentence
from .lm import _find

log = logging.getLogger(__name__)

NULL_TOKEN = "<NULL>"

DEFAULT_ITERATIONS = 10
DEFAULT_MAX_SPAN = 5

REASON_UNALIGNED = "unaligned"
REASON_SPAN_TOO_LONG = "span_too_long"

# First bytes of a cached table; the format number changes with the layout.
ALIGNER_MAGIC = b"\x93corpusaug-aligner 2\n"


class PharaohFormatError(ValueError):
    """Malformed alignment interchange text or cached translation table."""


class TranslationTable:
    """t(generated | conditioning) as sorted arrays.

    ``cond_vocab`` (with :data:`NULL_TOKEN`) and ``gen_vocab`` are strictly
    sorted and keep only tokens that have an entry; ``cond_index`` and
    ``gen_index`` give a token's id. Entry ``i`` has the strictly increasing
    key ``cond_id * stride + gen_id`` and the probability ``probs[i]``. With
    ``stride = len(gen_vocab) + 1``, the ids -1 and ``len(gen_vocab)`` of
    unseen tokens are in no key. Only the ``t`` view builds a dict of rows.
    """

    def __init__(self, cond_vocab: Sequence[str], gen_vocab: Sequence[str],
                 cond_ids: np.ndarray, gen_ids: np.ndarray, probs: np.ndarray,
                 log_likelihoods: Sequence[float] = ()) -> None:
        if not len(cond_ids) == len(gen_ids) == len(probs):
            raise ValueError(f"array lengths differ: {len(cond_ids)}, {len(gen_ids)}, {len(probs)}")
        probs = np.asarray(probs, dtype=np.float64)
        kept = []
        for ids, vocab in ((cond_ids, cond_vocab), (gen_ids, gen_vocab)):
            ids = np.asarray(ids, dtype=np.int64)
            if any(a >= b for a, b in zip(vocab, vocab[1:])):
                raise ValueError("vocabulary is not strictly sorted")
            if len(ids) and (ids.min() < 0 or ids.max() >= len(vocab)):
                raise ValueError("token id out of range")
            # Tokens without an entry are dropped; renumbering keeps the order.
            used = np.bincount(ids, minlength=len(vocab)) > 0
            kept.append((tuple(itertools.compress(vocab, used.tolist())), np.cumsum(used)[ids] - 1))
        (cond_vocab, cond_ids), (gen_vocab, gen_ids) = kept
        self.stride = len(gen_vocab) + 1
        self.keys = cond_ids * self.stride + gen_ids
        if np.any(self.keys[1:] <= self.keys[:-1]):
            raise ValueError("entries not strictly increasing by (conditioning, generated) id")
        if not np.all(np.isfinite(probs)):
            raise ValueError("non-finite probability")
        self.cond_vocab, self.gen_vocab, self.probs = cond_vocab, gen_vocab, probs
        self.cond_index = {token: i for i, token in enumerate(cond_vocab)}
        self.gen_index = {token: i for i, token in enumerate(gen_vocab)}
        self.log_likelihoods = tuple(log_likelihoods)

    @cached_property
    def t(self) -> Dict[str, Dict[str, float]]:
        """t[conditioning_token][generated_token] -> probability."""
        entries = zip(self.keys.tolist(), self.probs.tolist())
        return {self.cond_vocab[e]: {self.gen_vocab[key % self.stride]: p for key, p in row}
                for e, row in itertools.groupby(entries, lambda entry: entry[0] // self.stride)}

    def lookup(self, cond_ids: np.ndarray, gen_ids: np.ndarray) -> np.ndarray:
        """Each id pair's probability (the ids broadcast); 0 where no entry."""
        query = cond_ids * self.stride + gen_ids
        if not len(self.keys):
            return np.zeros(np.shape(query))
        at, found = _find(self.keys, query)
        return np.where(found, self.probs[at], 0.0)

    def prob(self, generated: str, conditioning: str) -> float:
        return float(self.lookup(self.cond_index.get(conditioning, -1),
                                 self.gen_index.get(generated, len(self.gen_vocab))))


@dataclass(frozen=True)
class SentenceAlignment:
    """(source_index, target_index) links; NULL-aligned sources are absent."""

    links: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_targets(cls, targets: Sequence[int]) -> "SentenceAlignment":
        """The links of one sentence's slice of ``viterbi_align``'s array."""
        return cls(tuple((i, j) for i, j in enumerate(targets) if j >= 0))


def train_ibm1(corpus: ParallelCorpus, iterations: int = DEFAULT_ITERATIONS) -> TranslationTable:
    """Train the lexical table t(target | source) by EM.

    Probabilities start uniform over co-occurring pairs. Every (generated,
    conditioning) token pair of every sentence pair is one link in a flat
    array, laid out pair by pair, generated token outer and conditioning
    token inner, NULL first; each link points at its (e, f) key, whose ids
    are the tokens' ranks in the sorted vocabularies. An
    iteration is then a few numpy passes over that array. ``np.bincount``
    adds its weights in input order, so each denominator, count and total
    is summed in the same order as a per-sentence dict loop would sum it,
    and the table and log-likelihoods equal that loop's bit for bit. The
    recorded per-iteration corpus log-likelihood (length-normalized) is
    non-decreasing.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if len(corpus) == 0:
        raise ValueError("cannot train on an empty corpus")

    cond_vocab = sorted({NULL_TOKEN}.union(*(s.tokens for s in corpus.source)))
    gen_vocab = sorted(set().union(*(s.tokens for s in corpus.target)))
    cond_index = {e: i for i, e in enumerate(cond_vocab)}
    gen_index = {f: i for i, f in enumerate(gen_vocab)}
    pair_ids = []
    for cond, gen in corpus.pairs():
        cond_ids = [cond_index[e] for e in (NULL_TOKEN, *cond.tokens)]
        gen_ids = [gen_index[f] for f in gen.tokens]
        pair_ids.append(
            (np.array(cond_ids, dtype=np.int64), np.array(gen_ids, dtype=np.int64))
        )
    n_gen = len(gen_vocab)
    n_cond = len(cond_vocab)

    # One row of links per generated token: e·|F| + f, conditioning side inner.
    codes = np.concatenate(
        [(c * n_gen)[None, :] + g[:, None] for c, g in pair_ids], axis=None
    )
    cond_len = np.array([len(c) for c, _ in pair_ids], dtype=np.int64)
    seg_pair = np.repeat(np.arange(len(pair_ids)), [len(g) for _, g in pair_ids])
    n_seg = len(seg_pair)
    seg = np.repeat(np.arange(n_seg), cond_len[seg_pair])
    seg_log_len = np.array([math.log(n) for n in cond_len.tolist()])[seg_pair]
    keys, link = np.unique(codes, return_inverse=True)
    key_e = keys // n_gen
    t = 1.0 / np.bincount(key_e, minlength=n_cond)[key_e]
    # Keys still in their row of the table; a dropped key reads t = 0.
    present = np.ones(len(keys), dtype=bool)

    logliks: List[float] = []
    for _ in range(iterations):
        p = t[link]
        denom = np.bincount(seg, weights=p, minlength=n_seg)
        # math.log, not np.log, whose last bit may differ; summed per pair in
        # token order, then over pairs, as the per-sentence loop sums.
        logs = np.fromiter(map(math.log, denom.tolist()), np.float64, n_seg)
        seg_ll = logs - seg_log_len
        loglik = 0.0
        for pair_ll in np.bincount(
            seg_pair, weights=seg_ll, minlength=len(pair_ids)
        ).tolist():
            loglik += pair_ll
        logliks.append(loglik)

        hit = p > 0.0
        hit_key = link[hit]
        value = p[hit] / denom[seg[hit]]
        counts = np.bincount(hit_key, weights=value, minlength=len(keys))
        totals = np.bincount(key_e[hit_key], weights=value, minlength=n_cond)
        # A row with no positive total keeps its previous probabilities;
        # any other row is exactly the keys that received a contribution.
        renew = (totals > 0.0)[key_e]
        contributed = np.zeros(len(keys), dtype=bool)
        contributed[hit_key] = True
        present = np.where(renew, contributed, present)
        t = np.where(renew, counts / np.where(renew, totals[key_e], 1.0), t)
        log.debug("EM iteration %d: log-likelihood %.6f", len(logliks), loglik)

    cond_ids, gen_ids = np.divmod(keys[present], n_gen)
    return TranslationTable(cond_vocab, gen_vocab, cond_ids, gen_ids, t[present], logliks)


def viterbi_align(
    pairs: Sequence[Tuple[Sentence, Sentence]], table: TranslationTable
) -> np.ndarray:
    """Best-link alignment of sentence pairs (one target choice per source).

    Returns one flat intp array over the source tokens of ``pairs``, pair
    after pair: the target index each token links to, or -1. Each source
    token picks the target position maximizing t(target|source), ties going
    to the lowest index. The link stands only if its probability is positive
    and at least the NULL token's probability for the same target word;
    otherwise the source word stays unaligned. Source tokens unseen in
    training align to NULL with a warning.

    Every (source token, target token) cell of every pair is one entry of a
    flat array, source token outer, and all of them are looked up in one
    ``TranslationTable.lookup`` call; the maxima are one ``reduceat``.
    """
    index, gen_index, unseen = table.cond_index, table.gen_index, len(table.gen_vocab)
    sources = [source.tokens for source, _ in pairs]
    targets = [target.tokens for _, target in pairs]
    for unseen_token in (e for e in itertools.chain.from_iterable(sources) if e not in index):
        log.warning("source token %r absent from translation table", unseen_token)
    src_lengths = np.fromiter(map(len, sources), dtype=np.intp, count=len(pairs))
    tgt_lengths = np.fromiter(map(len, targets), dtype=np.intp, count=len(pairs))
    # An unseen source token gets the id -1, which is in no key.
    cond = np.fromiter(map(index.get, itertools.chain.from_iterable(sources), itertools.repeat(-1)),
                       dtype=np.int64, count=int(src_lengths.sum()))
    gen = np.fromiter(map(gen_index.get, itertools.chain.from_iterable(targets),
                          itertools.repeat(unseen)), dtype=np.int64, count=int(tgt_lengths.sum()))
    tgt_starts = np.cumsum(tgt_lengths) - tgt_lengths
    # Per source token: its pair's target length and first target token.
    width = np.repeat(tgt_lengths, src_lengths)
    first = np.repeat(tgt_starts, src_lengths)
    links = np.full(len(cond), -1, dtype=np.intp)
    rows = np.flatnonzero(width)  # a source token of a pair with no target has no link
    if not len(rows):
        return links
    width, first = width[rows], first[rows]
    cell_starts = np.cumsum(width) - width
    cells = gen[np.repeat(first - cell_starts, width) + np.arange(int(width.sum()))]
    grid = table.lookup(np.repeat(cond[rows], width), cells)
    best_p = np.maximum.reduceat(grid, cell_starts)
    # The first cell of each row that holds its maximum.
    hits = np.flatnonzero(grid == np.repeat(best_p, width))
    best = hits[np.searchsorted(hits, cell_starts)] - cell_starts
    null_p = table.lookup(index.get(NULL_TOKEN, -1), gen[first + best])
    keep = (best_p > 0.0) & (best_p >= null_p)
    links[rows[keep]] = best[keep]
    return links


def target_span(
    alignment: SentenceAlignment, source_index: int, max_span: int = DEFAULT_MAX_SPAN
) -> Union[Tuple[int, int], str]:
    """The inclusive ``(start, end)`` target index range linked to one
    source position, or why there is none: ``unaligned`` when no link
    leaves the position, ``span_too_long`` when the range would exceed
    ``max_span`` tokens.
    """
    targets = [j for i, j in alignment.links if i == source_index]
    if not targets:
        return REASON_UNALIGNED
    start, end = min(targets), max(targets)
    if end - start >= max_span:
        return REASON_SPAN_TOO_LONG
    return start, end


def translate_rare_word(
    rare: RareWord,
    corpus: ParallelCorpus,
    alignments: Sequence[SentenceAlignment],
    max_span: int = DEFAULT_MAX_SPAN,
) -> Tuple[Optional[Tuple[str, ...]], Optional[str]]:
    """Target tokens aligned to the rare word in its first host sentence.

    ``alignments[i]`` is the Viterbi alignment of corpus pair ``i``.
    Returns ``(tokens, None)`` on success, else ``(None, reason)`` with
    reason ``unaligned`` or ``span_too_long``.
    """
    if not rare.host_sentence_ids:
        raise ValueError(f"rare word {rare.surface!r} has no host sentences")
    host_id = min(rare.host_sentence_ids)
    source = corpus.source[host_id]
    target = corpus.target[host_id]
    try:
        position = source.tokens.index(rare.surface)
    except ValueError as exc:
        raise ValueError(
            f"rare word {rare.surface!r} not found in host sentence {host_id}"
        ) from exc
    span = target_span(alignments[host_id], position, max_span)
    if isinstance(span, str):
        return None, span
    return target.tokens[span[0] : span[1] + 1], None


_PHARAOH_PAIR = re.compile(r"^(\d+)-(\d+)$")


def export_pharaoh(alignment: SentenceAlignment) -> str:
    """Render links as space-separated ``i-j`` pairs sorted by (i, j)."""
    return " ".join(f"{i}-{j}" for i, j in sorted(alignment.links))


def import_pharaoh(line: str) -> SentenceAlignment:
    """Parse an ``i-j`` pair line; the empty string is an empty alignment."""
    links: List[Tuple[int, int]] = []
    for token in line.split():
        match = _PHARAOH_PAIR.match(token)
        if not match:
            raise PharaohFormatError(f"malformed alignment token: {token!r}")
        links.append((int(match.group(1)), int(match.group(2))))
    return SentenceAlignment(tuple(sorted(links)))


def save_translation_table(table: TranslationTable, path: str | Path) -> None:
    """Cache the table as ``ALIGNER_MAGIC`` followed by five ``.npy`` arrays:
    the two vocabularies (each as newline-ended UTF-8), then each entry's
    conditioning id, generated id and probability, stored as
    ``float(f"{p:.12g}")`` (:func:`round_12g`), in key order. Equal tables
    give equal bytes.
    """
    cond_ids, gen_ids = np.divmod(table.keys, table.stride)
    write_arrays(path, ALIGNER_MAGIC, (
        encode_tokens(table.cond_vocab), encode_tokens(table.gen_vocab),
        narrow(cond_ids), narrow(gen_ids), round_12g(table.probs).astype("<f8"),
    ))


# 10**k, exact in float64 for every k up to 22.
_POWERS_OF_TEN = np.array([float(10**k) for k in range(23)])


def round_12g(values: np.ndarray) -> np.ndarray:
    """``float(f"{p:.12g}")`` of each value, bit for bit, in one array pass.

    With ``k = 11 - floor(log10|p|)``, the 12 significant digits of ``p`` are
    the integer ``n = rint(|p| * 10**k)`` when ``|p| * 10**k`` is at least
    1e11, ``n`` is below 1e12 and :func:`rint_clear` finds no tie. For
    ``0 <= k <= 22`` both ``n`` and ``10**k`` are exact, so ``n / 10**k`` is
    the correctly rounded value of the digits, which is what parsing the text
    gives. Every other value is formatted as text: zero, a subnormal, a
    magnitude below 1e-11 or at least 1e12, a near-tie, or a ``k`` that
    ``log10`` put one off near a power of ten.
    """
    values = np.asarray(values, dtype=np.float64)
    magnitude = np.abs(values)
    with np.errstate(divide="ignore"):  # log10(0) is -inf
        k = 11.0 - np.floor(np.log10(magnitude))
    usable = (k >= 0.0) & (k <= 22.0)
    power = _POWERS_OF_TEN[np.where(usable, k, 0.0).astype(np.intp)]
    scaled = magnitude * power
    rounded, clear = rint_clear(scaled)
    exact = usable & clear & (scaled >= 1e11) & (rounded < 1e12)
    out = np.copysign(rounded / power, values)
    formatted = np.flatnonzero(~exact)
    out[formatted] = [float(f"{p:.12g}") for p in values[formatted].tolist()]
    return out


def load_translation_table(path: str | Path) -> TranslationTable:
    """Read a table written by :func:`save_translation_table`.

    A truncated or malformed file raises :class:`PharaohFormatError` naming
    the path: wrong magic, a missing array, trailing bytes, a wrong dtype or
    shape, arrays of different lengths, ids out of range or out of order,
    non-finite probabilities, or a vocabulary that is not UTF-8 or not
    sorted.
    """
    p = Path(path)
    try:
        cond, gen, cond_ids, gen_ids, probs = read_arrays(p, ALIGNER_MAGIC, 5)
        if any(a.ndim != 1 or a.dtype.kind != "u" for a in (cond_ids, gen_ids)):
            raise ValueError("bad id array type or shape")
        if probs.ndim != 1 or probs.dtype != np.float64:
            raise ValueError("bad probability array type or shape")
        return TranslationTable(decode_tokens(cond), decode_tokens(gen), cond_ids, gen_ids, probs)
    except ValueError as exc:
        raise PharaohFormatError(f"{p}: {exc}") from exc
