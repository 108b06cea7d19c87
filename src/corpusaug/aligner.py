"""Lexical translation model (IBM Model 1) and Viterbi word alignment.

The model learns t(target | source) probabilities by expectation-
maximization over the parallel corpus, with a NULL token on the
conditioning side absorbing unexplained words. It is used to locate the
target-side word or phrase corresponding to a source position.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .corpus_io import ParallelCorpus, RareWord, Sentence

log = logging.getLogger(__name__)

NULL_TOKEN = "<NULL>"

DIRECTION_TGT_GIVEN_SRC = "tgt_given_src"
DIRECTION_SRC_GIVEN_TGT = "src_given_tgt"
DIRECTIONS = (DIRECTION_TGT_GIVEN_SRC, DIRECTION_SRC_GIVEN_TGT)

DEFAULT_ITERATIONS = 10
DEFAULT_MAX_SPAN = 5

REASON_UNALIGNED = "unaligned"
REASON_SPAN_TOO_LONG = "span_too_long"


class PharaohFormatError(ValueError):
    """Malformed alignment interchange text."""


@dataclass
class TranslationTable:
    """t[conditioning_token][generated_token] -> probability.

    The conditioning vocabulary includes :data:`NULL_TOKEN`. Per-iteration
    corpus log-likelihoods are kept for convergence reporting.
    """

    t: Dict[str, Dict[str, float]]
    direction: str = DIRECTION_TGT_GIVEN_SRC
    log_likelihoods: Tuple[float, ...] = ()

    def prob(self, generated: str, conditioning: str) -> float:
        return self.t.get(conditioning, {}).get(generated, 0.0)


@dataclass(frozen=True)
class SentenceAlignment:
    """(source_index, target_index) links; NULL-aligned sources are absent."""

    links: Tuple[Tuple[int, int], ...]

    def targets_of(self, source_index: int) -> List[int]:
        return [j for i, j in self.links if i == source_index]


@dataclass(frozen=True)
class TargetSpan:
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end}]")

    def length(self) -> int:
        return self.end - self.start + 1


def train_ibm1(
    corpus: ParallelCorpus,
    iterations: int = DEFAULT_ITERATIONS,
    direction: str = DIRECTION_TGT_GIVEN_SRC,
) -> TranslationTable:
    """Train the lexical table by EM.

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
    if direction not in DIRECTIONS:
        raise ValueError(f"unknown direction: {direction!r}")
    if len(corpus) == 0:
        raise ValueError("cannot train on an empty corpus")

    cond_vocab: Dict[str, int] = {NULL_TOKEN: 0}
    gen_vocab: Dict[str, int] = {}
    pair_ids = []
    for s, g in corpus.pairs():
        cond, gen = (s, g) if direction == DIRECTION_TGT_GIVEN_SRC else (g, s)
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
    return TranslationTable(t=table, direction=direction, log_likelihoods=tuple(logliks))


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
    if table.direction != DIRECTION_TGT_GIVEN_SRC:
        raise ValueError(
            "viterbi_align needs a table conditioned on the source side "
            f"(direction {DIRECTION_TGT_GIVEN_SRC!r}), got {table.direction!r}"
        )
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
) -> Optional[TargetSpan]:
    """Target index range linked to one source position.

    None when the position is unaligned or the span would exceed
    ``max_span`` tokens.
    """
    targets = alignment.targets_of(source_index)
    if not targets:
        return None
    span = TargetSpan(min(targets), max(targets))
    if span.length() > max_span:
        return None
    return span


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
    alignment = alignments[host_id]
    if not alignment.targets_of(position):
        return None, REASON_UNALIGNED
    span = target_span(alignment, position, max_span)
    if span is None:
        return None, REASON_SPAN_TOO_LONG
    return target.tokens[span.start : span.end + 1], None


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
    """Persist as ``target<TAB>source<TAB>probability`` rows.

    Rows are sorted by (source, target) and probabilities printed with 12
    significant digits for stable diffs.
    """
    rows = []
    for e, row in table.t.items():
        for f, p in row.items():
            rows.append((e, f, p))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#direction\t{table.direction}\n")
        for e, f, p in rows:
            fh.write(f"{f}\t{e}\t{p:.12g}\n")


def load_translation_table(path: str | Path) -> TranslationTable:
    t: Dict[str, Dict[str, float]] = {}
    direction = DIRECTION_TGT_GIVEN_SRC
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#direction\t"):
                direction = line.split("\t", 1)[1]
                continue
            columns = line.split("\t")
            if len(columns) != 3:
                raise PharaohFormatError(
                    f"{path}:{lineno}: expected 3 columns, got {len(columns)}"
                )
            f, e, p = columns
            try:
                t.setdefault(e, {})[f] = float(p)
            except ValueError:
                raise PharaohFormatError(
                    f"{path}:{lineno}: probability is not a number: {p!r}"
                ) from None
    return TranslationTable(t=t, direction=direction)
