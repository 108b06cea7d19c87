"""Lexical translation model (IBM Model 1) and Viterbi word alignment.

The model learns t(target | source) probabilities by expectation-
maximization over the parallel corpus, with a NULL token on the
conditioning side absorbing unexplained words. It is used to locate the
target-side word or phrase corresponding to a source position.

Only t(target | source) is trained, the one direction that locating a
target span needs: the source side is the conditioning side throughout.

The trained table is cached in a binary file: both vocabularies, sorted,
then one (conditioning id, generated id, probability) row per entry in
sorted order. Each probability is stored as the value its 12-significant-
digit text form parses back to, so the loaded table holds the values, and
the key order, of a table read back from sorted text rows.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cachefile import decode_tokens, encode_tokens, narrow, read_arrays, write_arrays
from .corpus_io import ParallelCorpus, RareWord, Sentence

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


@dataclass
class TranslationTable:
    """t[conditioning_token][generated_token] -> probability.

    The conditioning vocabulary includes :data:`NULL_TOKEN`. Per-iteration
    corpus log-likelihoods are kept for convergence reporting.
    """

    t: Dict[str, Dict[str, float]]
    log_likelihoods: Tuple[float, ...] = ()

    def prob(self, generated: str, conditioning: str) -> float:
        return self.t.get(conditioning, {}).get(generated, 0.0)


@dataclass(frozen=True)
class SentenceAlignment:
    """(source_index, target_index) links; NULL-aligned sources are absent."""

    links: Tuple[Tuple[int, int], ...]


def train_ibm1(corpus: ParallelCorpus, iterations: int = DEFAULT_ITERATIONS) -> TranslationTable:
    """Train the lexical table t(target | source) by EM.

    Probabilities start uniform over co-occurring pairs. Every (generated,
    conditioning) token pair of every sentence pair is one link in a flat
    array, laid out pair by pair, generated token outer and conditioning
    token inner, NULL first; each link points at its (e, f) key. An
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

    cond_vocab: Dict[str, int] = {NULL_TOKEN: 0}
    gen_vocab: Dict[str, int] = {}
    pair_ids = []
    for cond, gen in corpus.pairs():
        cond_ids = [0] + [cond_vocab.setdefault(e, len(cond_vocab)) for e in cond.tokens]
        gen_ids = [gen_vocab.setdefault(f, len(gen_vocab)) for f in gen.tokens]
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

    # Keys are sorted e-major, so each conditioning token's row is one slice.
    row_e = key_e[present]
    gen_tokens = np.array(list(gen_vocab), dtype=object)
    gen_names = gen_tokens[keys[present] % n_gen].tolist()
    probs = t[present].tolist()
    bounds = np.searchsorted(row_e, np.arange(n_cond + 1)).tolist()
    table = {
        e: dict(zip(gen_names[lo:hi], probs[lo:hi]))
        for e, lo, hi in zip(cond_vocab, bounds, bounds[1:])
    }
    return TranslationTable(t=table, log_likelihoods=tuple(logliks))


def viterbi_align(
    pair: Tuple[Sentence, Sentence], table: TranslationTable
) -> SentenceAlignment:
    """Best-link alignment of one sentence pair (one target choice per source).

    Each source token picks the target position maximizing t(target|source),
    ties going to the lowest index. The link stands only if its probability
    is positive and at least the NULL token's probability for the same
    target word; otherwise the source word stays unaligned. Source tokens
    unseen in training align to NULL with a warning.
    """
    source, target = pair
    null_row = table.t.get(NULL_TOKEN, {})
    links: List[Tuple[int, int]] = []
    for i, e in enumerate(source.tokens):
        row = table.t.get(e)
        if row is None:
            log.warning("source token %r absent from translation table", e)
            continue
        best_j = -1
        best_p = 0.0
        for j, f in enumerate(target.tokens):
            p = row.get(f, 0.0)
            if p > best_p:
                best_p = p
                best_j = j
        if best_j < 0:
            continue
        if best_p >= null_row.get(target.tokens[best_j], 0.0):
            links.append((i, best_j))
    return SentenceAlignment(tuple(links))


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
    """Cache the table as ``ALIGNER_MAGIC`` followed by five ``.npy`` arrays.

    In order: the sorted conditioning and generated vocabularies (each as
    newline-ended UTF-8), then the conditioning id, generated id and
    probability of every entry, sorted by (conditioning, generated) token. Each probability is stored as ``float(f"{p:.12g}")``.
    Equal tables give equal bytes.
    """
    cond = sorted(e for e, row in table.t.items() if row)
    gen = sorted({f for row in table.t.values() for f in row})
    gen_ids = {f: i for i, f in enumerate(gen)}
    e_ids: List[int] = []
    f_ids: List[int] = []
    probs: List[float] = []
    for e_id, e in enumerate(cond):
        row = table.t[e]
        for f in sorted(row):
            e_ids.append(e_id)
            f_ids.append(gen_ids[f])
            probs.append(float(f"{row[f]:.12g}"))
    write_arrays(path, ALIGNER_MAGIC, (
        encode_tokens(cond),
        encode_tokens(gen),
        narrow(np.array(e_ids, dtype=np.int64)),
        narrow(np.array(f_ids, dtype=np.int64)),
        np.array(probs, dtype="<f8"),
    ))


def _read_table(path: Path) -> TranslationTable:
    cond, gen, e_ids, f_ids, probs = read_arrays(path, ALIGNER_MAGIC, 5)
    cond, gen = decode_tokens(cond), decode_tokens(gen)
    if any(a.ndim != 1 or a.dtype.kind != "u" for a in (e_ids, f_ids)):
        raise ValueError("bad id array type or shape")
    if probs.ndim != 1 or probs.dtype != np.float64:
        raise ValueError("bad probability array type or shape")
    if not len(e_ids) == len(f_ids) == len(probs):
        raise ValueError(f"array lengths differ: {len(e_ids)}, {len(f_ids)}, {len(probs)}")
    if len(e_ids) and (int(e_ids.max()) >= len(cond) or int(f_ids.max()) >= len(gen)):
        raise ValueError("token id out of range")
    keys = e_ids.astype(np.int64) * len(gen) + f_ids.astype(np.int64)
    if np.any(keys[1:] <= keys[:-1]):
        raise ValueError("entries not strictly increasing by (conditioning, generated) id")
    if not np.all(np.isfinite(probs)):
        raise ValueError("non-finite probability")
    gen_names = [gen[i] for i in f_ids.tolist()]
    values = probs.tolist()
    bounds = np.searchsorted(e_ids, np.arange(len(cond) + 1)).tolist()
    t = {
        e: dict(zip(gen_names[lo:hi], values[lo:hi]))
        for e, lo, hi in zip(cond, bounds, bounds[1:])
        if hi > lo
    }
    return TranslationTable(t=t)


def load_translation_table(path: str | Path) -> TranslationTable:
    """Read a table written by :func:`save_translation_table`.

    A truncated or malformed file raises :class:`PharaohFormatError` naming
    the path: wrong magic, a missing array, trailing bytes, a wrong dtype or
    shape, arrays of different lengths, ids out of range or out of order,
    non-finite probabilities, or a vocabulary that is not UTF-8.
    """
    p = Path(path)
    try:
        return _read_table(p)
    except ValueError as exc:
        raise PharaohFormatError(f"{p}: {exc}") from exc
