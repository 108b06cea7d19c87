"""Replacement-based augmentation: candidate selection, gating, synthesis.

For each item (a rare word with its aligned translation, or a bilingual
dictionary entry) the pipeline walks candidate sentences in a deterministic
order, picks the most similar in-sentence word, applies the enabled
similarity / syntactic / language-model gates, and splices both sides of the
pair. Every attempt, accepted or not, yields a provenance record.

Both kinds of item share one code path. ``RunInputs`` holds what a run reads,
with the word index built once and the Viterbi links of each pair made in
the first batch that reads it. ``resolve_rare_word`` and
``resolve_dictionary_entry`` turn an item into an ``_Item``, what it inserts
on each side, or into the record of its item-level rejection;
``augment_rare_words`` and ``augment_dictionary`` add each item's candidate
sentences, and ``_run_items`` runs ``_process_items``, the one place that
evaluates the gates, once over all of them. ``verify`` replays a run
through the same calls, which are deterministic, so the records it gets
must equal the recorded ones exactly, their scores to the last bit.

``_process_items`` runs the items in rounds, and each gate runs as one
array pass over all the candidates a round holds: the in-sentence word
search, the syntactic table and the source LM windows over the chunks of
candidates the round takes, then one batch of Viterbi alignments and the
target LM windows over the candidates that the items' walks read for sure.
The word search pre-ranks every eligible corpus type against
every query in one matrix product; the types at the positions within
``PRERANK_WINDOW`` of their sentence's best are re-scored with ``cosine``'s
exact arithmetic in one paired ``np.vecdot``, and the lowest index with the
highest exact score wins. Picks and recorded scores are those of a
per-token ``cosine`` loop, so outputs do not depend on the vectorization or
on the batch. The LM gates gather their windows from the corpus sides
mapped once per run to LM ids. Each item's walk then makes its records in
candidate order and takes each LM verdict it reaches from
``lm_ratio_accept``, up to the cut at its ``max_per_item``-th accept.

The gates before the target span run as array masks over a round's
candidates: no candidate word, ``word_sim`` below its minimum, and the
syntactic verdict, read from a per-run table of one ``syntactic_ok`` call
per distinct pair of annotations. A candidate rejected there never becomes
a ``ReplacementRecord``: ``ItemOutcome`` keeps it as an entry of its arrays,
and only the candidates that reach the target-span gate get records.

This module is the one that knows the ``provenance.jsonl`` line format: a
record's fields in sorted order as ``json.JSONEncoder(ensure_ascii=False)``
writes them. ``provenance_lines`` gives the file's text one item at a time;
``write_provenance`` writes it, and ``verify`` compares a finished run's
file with it. An item's early rejections are formatted straight from the
outcome's arrays, one f-string per line and byte for byte what the encoder
gives, and merged in candidate order with the encoder's lines of its other
rejected records, so the file is the same as when every attempt was a
record.
``read_provenance`` serves only a file that differs from that text, to name
what differs. It returns only the accepted records: a line that
``_REJECTED_LINE`` fully matches is a rejected record as the writer formats
it and is skipped unparsed, and every other line is parsed in full.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import operator
import re
import sys
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from . import agreement, lm
from .agreement import AnnotatedLexicon, TokenAnnotation
from .aligner import (
    REASON_SPAN_TOO_LONG,
    REASON_UNALIGNED,
    SentenceAlignment,
    TranslationTable,
    translate_rare_word,
    viterbi_align,
)
from .corpus_io import (
    CorpusFormatError,
    DictionaryEntry,
    ParallelCorpus,
    RareWord,
    Sentence,
    Vocabulary,
    build_vocabulary,
)
from .embeddings import (
    EmbeddingTable,
    VectorRows,
    WordIndex,
    best_word_in_sentence,
    sentence_embedding,
    top_k_sentences,
)
from .lm import UNK_ID, IdStream, Span, TrigramModel, lm_ratio_accept, stream_scores

log = logging.getLogger(__name__)

ITEM_RARE_WORD = "rare_word"
ITEM_DICTIONARY = "dictionary"

REASON_NO_CANDIDATE_WORD = "no_candidate_word"
REASON_WORD_SIM = "word_sim"
REASON_UNANNOTATED = "unannotated"
REASON_POS = "pos"
REASON_MORPH = "morph"
REASON_LM_SRC = "lm_src"
REASON_LM_TGT = "lm_tgt"
REASON_COVERAGE = "coverage"
REASON_IN_VOCABULARY = "in_vocabulary"
REASON_DUPLICATE = "duplicate"

REJECTION_REASONS = frozenset(
    {
        REASON_UNALIGNED,
        REASON_SPAN_TOO_LONG,
        REASON_NO_CANDIDATE_WORD,
        REASON_WORD_SIM,
        REASON_UNANNOTATED,
        REASON_POS,
        REASON_MORPH,
        REASON_LM_SRC,
        REASON_LM_TGT,
        REASON_COVERAGE,
        REASON_IN_VOCABULARY,
        REASON_DUPLICATE,
    }
)

SCOPE_OOV_ONLY = "oov_only"
SCOPE_ALL = "all"

DEFAULT_SOFT_CAP = 12000


class ConfigError(ValueError):
    """Invalid augmentation configuration."""


@dataclass
class AugmentationConfig:
    """Gate toggles and thresholds for one augmentation run.

    Defaults follow the reference operating point: rare-word threshold 1,
    similarity-order exponent -0.15 for the source embeddings,
    language-model ratio threshold 0.6.
    """

    t_r: int = 1
    alpha_src: float = -0.15
    use_sent_sim: bool = False
    sent_k: int = 10
    use_word_sim: bool = True
    word_sim_min: float = 0.5
    use_pos: bool = False
    use_morph: bool = False
    lm_threshold: float = 0.6
    max_per_item: int = 3
    max_span: int = 5
    src_lang_role: str = agreement.ROLE_MORPH_RICH
    soft_cap: int = DEFAULT_SOFT_CAP

    def syntactic_mode(self) -> str:
        if self.use_pos and self.use_morph:
            return agreement.MODE_POS_MORPH
        if self.use_pos:
            return agreement.MODE_POS
        return agreement.MODE_OFF

    def validate(self, dict_mode: bool = False) -> None:
        if self.t_r < 1:
            raise ConfigError(f"t_r must be >= 1, got {self.t_r}")
        if self.sent_k < 1:
            raise ConfigError(f"sent_k must be >= 1, got {self.sent_k}")
        if not -1.0 <= self.word_sim_min <= 1.0:
            raise ConfigError(f"word_sim_min must be in [-1, 1], got {self.word_sim_min}")
        if not 0.0 < self.lm_threshold < math.inf:
            raise ConfigError(
                f"lm_threshold must be positive and finite, got {self.lm_threshold}"
            )
        if self.max_per_item < 1:
            raise ConfigError(f"max_per_item must be >= 1, got {self.max_per_item}")
        if self.max_span < 1:
            raise ConfigError(f"max_span must be >= 1, got {self.max_span}")
        if self.soft_cap < 0:
            raise ConfigError(f"soft_cap must be >= 0, got {self.soft_cap}")
        if self.src_lang_role not in agreement.ROLES:
            raise ConfigError(f"unknown src_lang_role: {self.src_lang_role!r}")
        if self.use_morph and not self.use_pos:
            raise ConfigError("use_morph requires use_pos")
        if dict_mode and self.use_sent_sim:
            raise ConfigError(
                "sentence-similarity filtering is not applicable in dictionary "
                "mode: all sentences are candidates"
            )


@dataclass
class ReplacementRecord:
    """Full provenance of one replacement attempt.

    Gate scores are recorded as far as processing got; fields for gates
    never reached stay None. ``reason`` is one of the closed rejection
    codes when ``accepted`` is False.
    """

    item_kind: str
    item_surface: Tuple[str, ...]
    base_sentence_id: Optional[int] = None
    accepted: bool = False
    reason: Optional[str] = None
    source_span: Optional[Tuple[int, int]] = None
    source_inserted: Optional[Tuple[str, ...]] = None
    target_span: Optional[Tuple[int, int]] = None
    target_inserted: Optional[Tuple[str, ...]] = None
    word_sim: Optional[float] = None
    sent_sim: Optional[float] = None
    syntactic_ok: Optional[bool] = None
    lm_ratio_src: Optional[float] = None
    lm_ratio_tgt: Optional[float] = None

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReplacementRecord":
        """The record of a JSON object's fields. Raises TypeError for
        anything but a dict, or for a key that is not a field."""
        if not isinstance(data, dict):
            raise TypeError(f"not a JSON object: {type(data).__name__}")
        kwargs = dict(data)
        for key in _TUPLE_FIELDS:
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


# Stored as tuples, written to JSON as lists.
_TUPLE_FIELDS = ("item_surface", "source_span", "source_inserted", "target_span", "target_inserted")


@dataclass
class SyntheticPair:
    source_tokens: Tuple[str, ...]
    target_tokens: Tuple[str, ...]
    record: ReplacementRecord


def query_vector(surface: Sequence[str], embeddings: EmbeddingTable) -> Optional[np.ndarray]:
    """The item's query vector: the mean of its token vectors, or None when
    some token has no vector. A one-token surface gets its token's own
    vector, which is what the one-row mean gives, without the numpy calls.
    The mean is not taken through ``sentence_embedding``, so that the time
    spent on term vectors is not counted as sentence similarity."""
    if not all(t in embeddings for t in surface):
        return None
    if len(surface) == 1:
        return embeddings.get(surface[0])
    return embeddings.matrix[[embeddings.row_of[t] for t in surface]].mean(axis=0)


def annotation_token(surface: Sequence[str]) -> str:
    """The token that stands in for the item in the syntactic gate: its head,
    the last token under the head-final convention."""
    return surface[-1]


def synthetic_window(tokens: Tuple[str, ...], span: Span,
                     insert: Sequence[str]) -> Tuple[Tuple[str, ...], Span]:
    """``tokens`` with ``span`` replaced by ``insert``, and the span the
    insertion covers in the result (both inclusive)."""
    start, end = span
    if not (0 <= start <= end < len(tokens)):
        raise ValueError(f"span {span} out of range for {len(tokens)} tokens")
    if not insert:
        raise ValueError("insertion must be non-empty")
    insert = tuple(insert)
    return tokens[:start] + insert + tokens[end + 1 :], (start, start + len(insert) - 1)


@dataclass(frozen=True)
class _Item:
    """What one item inserts: ``surface`` on the source side and
    ``target_insert`` on the target side."""

    kind: str
    surface: Tuple[str, ...]
    query_vec: np.ndarray
    target_insert: Tuple[str, ...]


class Candidates(NamedTuple):
    """An item's candidate sentences in the order they are tried: their ids
    and, under sentence similarity, each one's similarity (else None)."""

    ids: np.ndarray
    sent_sims: Optional[Sequence[Optional[float]]] = None


class Alignments:
    """The Viterbi links of the corpus pairs, made for the pairs a run reads.

    ``links`` runs over the source side, sentence after sentence, token
    ``j`` of pair ``i`` at ``starts[i] + j``: the target index the token
    links to, or -1 (also for a pair not aligned yet). ``ensure(ids)``
    aligns the pairs among ``ids`` that are not aligned yet in one
    ``viterbi_align`` call, so a run aligns no pair twice, and only the
    pairs that its walks and its rare words' translations read: the
    sentences of the candidates that reach the target-span gate, and the
    first host of each rare word. ``alignments[i]`` is pair ``i``'s
    ``SentenceAlignment``.
    """

    def __init__(self, corpus: ParallelCorpus, table: TranslationTable) -> None:
        self._corpus = corpus
        self._table = table
        self._lengths = np.array([len(sentence.tokens) for sentence in corpus.source],
                                 dtype=np.intp)
        self.starts = np.cumsum(self._lengths) - self._lengths
        self.links = np.full(int(self._lengths.sum()), -1, dtype=np.intp)
        self._aligned = np.zeros(len(corpus), dtype=bool)

    def ensure(self, ids: Sequence[int] | np.ndarray) -> None:
        """Align the pairs among ``ids`` that are not aligned yet."""
        ids = np.unique(np.asarray(ids, dtype=np.intp))
        new = ids[~self._aligned[ids]]
        if not len(new):
            return
        corpus = self._corpus
        links = viterbi_align([(corpus.source[i], corpus.target[i]) for i in new.tolist()],
                              self._table)
        lengths = self._lengths[new]
        firsts = np.cumsum(lengths) - lengths
        self.links[np.repeat(self.starts[new] - firsts, lengths) + np.arange(len(links))] = links
        self._aligned[new] = True

    def __getitem__(self, index: int) -> SentenceAlignment:
        if not self._aligned[index]:
            self.ensure([index])
        start = self.starts[index]
        return SentenceAlignment.from_targets(
            self.links[start : start + self._lengths[index]].tolist()
        )


# The rejections that the gates before the target span give, as codes of the
# arrays that ``ItemOutcome`` keeps; ``_OPEN`` marks a candidate they pass.
_EARLY_REASONS = (REASON_NO_CANDIDATE_WORD, REASON_WORD_SIM, REASON_POS, REASON_MORPH)
_NO_CANDIDATE, _WORD_SIM, _POS, _MORPH = range(len(_EARLY_REASONS))
_OPEN = len(_EARLY_REASONS)


class _SyntacticTable:
    """The syntactic gate's verdicts for one run, per pair of annotations.

    Annotations are told apart by POS tag and morph features, all that
    ``agreement.syntactic_ok`` reads. ``of_type[t]`` is the annotation id of
    ``WordIndex`` type ``t``. An item annotation's verdicts against every
    candidate annotation are made on its first use, one ``syntactic_ok``
    call per pair, and kept.
    """

    def __init__(self, index: WordIndex, lexicon: Optional[AnnotatedLexicon], mode: str) -> None:
        self._mode = mode
        self._ids: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], int] = {}
        self._annotations: List[TokenAnnotation] = []
        # Every indexed type is annotated under a syntactic mode; the
        # sentinel id maps to 0 and is never read.
        self.of_type = np.array(
            [self._id(lexicon.get(token)) for token in index.type_ids] + [0], dtype=np.intp
        )
        self._candidates = len(self._annotations)
        self._rows: Dict[Tuple[str, int], np.ndarray] = {}

    def _id(self, annotation: TokenAnnotation) -> int:
        key = (annotation.pos, tuple(sorted(annotation.morph.items())))
        if key not in self._ids:
            self._ids[key] = len(self._annotations)
            self._annotations.append(annotation)
        return self._ids[key]

    def reasons(self, role: str, annotation: TokenAnnotation) -> np.ndarray:
        """The code of each candidate annotation against the item's
        ``annotation``: ``_OPEN`` where they agree, else ``_POS`` or ``_MORPH``."""
        key = (role, self._id(annotation))
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = np.array([
                _OPEN if agreement.syntactic_ok(role, annotation, other, self._mode)
                else _POS if not agreement.pos_agree(annotation, other)
                else _MORPH
                for other in self._annotations[: self._candidates]
            ], dtype=np.int8)
        return row


@dataclass(frozen=True)
class RunInputs:
    """What one augmentation run reads, built once and shared by both modes.

    ``alignments`` holds the Viterbi links of the corpus pairs, each pair
    aligned in the round of the item step, or the batch of rare-word
    translations, that first reads it. ``word_index`` is built for the
    syntactic mode ``mode``, which the run's config must share, and
    ``syntactic`` holds that mode's verdicts (None when it is off).
    ``stream_src`` and ``stream_tgt`` are the corpus sides mapped once to
    the ids of their LMs, which the LM gates gather their windows from.
    """

    corpus: ParallelCorpus
    embeddings: EmbeddingTable
    lm_src: TrigramModel
    lm_tgt: TrigramModel
    lexicon: Optional[AnnotatedLexicon]
    mode: str
    alignments: Alignments
    word_index: WordIndex
    syntactic: Optional[_SyntacticTable]
    stream_src: IdStream
    stream_tgt: IdStream

    @classmethod
    def build(cls, corpus: ParallelCorpus, embeddings: EmbeddingTable,
              alignment_table: TranslationTable, lm_src: TrigramModel, lm_tgt: TrigramModel,
              lexicon: Optional[AnnotatedLexicon], mode: str) -> "RunInputs":
        """Index the source side and map both sides to LM ids once; no pair
        is aligned yet."""
        word_index = WordIndex.build(corpus.source, embeddings, lexicon, mode)
        syntactic = (
            None if mode == agreement.MODE_OFF else _SyntacticTable(word_index, lexicon, mode)
        )
        return cls(corpus, embeddings, lm_src, lm_tgt, lexicon, mode,
                   Alignments(corpus, alignment_table), word_index, syntactic,
                   IdStream.build(lm_src.ids, [sentence.tokens for sentence in corpus.source]),
                   IdStream.build(lm_tgt.ids, [sentence.tokens for sentence in corpus.target]))


def ordered_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, kept as a name the benchmark wraps.

    ``bench/spans.py`` hooks ``pipeline.ordered_map`` to report the
    ``parallel.map_*`` metrics, and ``bench/`` changes only together with
    its metrics, so ``_process_items`` calls this until they are retired.
    """
    return [fn(item) for item in items]


def _lm_scores(
    model: TrigramModel, stream: IdStream, sentence_ids: np.ndarray, at: np.ndarray,
    inserts: Sequence[Tuple[str, ...]], owner: np.ndarray,
) -> List[Tuple[float, float]]:
    """The (original, spliced) scores of each window: sentence
    ``sentence_ids[k]`` with its token ``at[k]`` replaced by
    ``inserts[owner[k]]``, from one ``stream_scores`` call, or none for no
    window."""
    if not len(sentence_ids):
        return []
    sizes = np.array([len(insert) for insert in inserts], dtype=np.intp)
    flat = np.array([model.ids.get(token, UNK_ID) for insert in inserts for token in insert],
                    dtype=np.int64)
    lengths = sizes[owner]
    starts = np.cumsum(lengths) - lengths
    insert_ids = flat[np.repeat(np.cumsum(sizes)[owner] - lengths - starts, lengths)
                      + np.arange(lengths.sum())]
    windows = np.stack([sentence_ids, at, at], axis=1)
    scores = stream_scores(model, stream, np.concatenate([windows, windows]), insert_ids,
                           np.concatenate([np.zeros_like(lengths), lengths]))
    return list(zip(scores[: len(windows)].tolist(), scores[len(windows):].tolist()))


def _early_reasons(
    items: Sequence[_Item], sentence_ids: np.ndarray, counts: np.ndarray, inputs: RunInputs,
    config: AugmentationConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best word of each candidate, its position and score, and the code
    of the first gate before the target span that rejects it, or ``_OPEN``:
    no candidate word, then ``word_sim``, then the syntactic gate. Item
    ``k`` owns the next ``counts[k]`` entries of ``sentence_ids``."""
    positions, scores, found = best_word_in_sentence(
        inputs.word_index,
        np.stack([item.query_vec for item in items]),
        sentence_ids,
        counts,
        # A one-token item never replaces its own token.
        [item.surface[0] if len(item.surface) == 1 else None for item in items],
    )
    reasons = np.where(found, _OPEN, _NO_CANDIDATE).astype(np.int8)
    if config.use_word_sim:
        reasons[found & (scores < config.word_sim_min)] = _WORD_SIM
    if config.syntactic_mode() != agreement.MODE_OFF:
        # Under a syntactic mode the item's head and every indexed word are
        # annotated: ``_make_item`` and ``WordIndex`` admit no other.
        index, table = inputs.word_index, inputs.syntactic
        verdicts = np.stack([
            table.reasons(config.src_lang_role, inputs.lexicon.get(annotation_token(item.surface)))
            for item in items
        ])
        checked = np.flatnonzero(reasons == _OPEN)
        words = index.tokens[index.starts[sentence_ids[checked]] + positions[checked]]
        owner = np.repeat(np.arange(len(items)), counts)
        reasons[checked] = verdicts[owner[checked], table.of_type[words]]
    return positions, scores, reasons


class _ItemRun:
    """One item's progress through the rounds of ``_process_items``.

    ``taken`` counts the candidates its rounds took and ``size`` is the
    length of its next chunk. ``early`` holds each chunk's best words,
    scores and early codes. ``pending`` holds, in candidate order, the
    candidates taken that passed the early gates and that no walk has read
    yet: each one's index, sentence id, best word, score, source (original,
    spliced) window scores and whether they pass the source LM gate.
    ``survivors`` holds the record of each candidate that reached the
    target-span gate with its index, and ``cut`` the index of the
    ``max_per_item``-th accept, once there is one.
    """

    def __init__(self, item: _Item, candidates: Candidates, size: int) -> None:
        self.item = item
        self.candidates = candidates
        self.taken = 0
        self.size = size
        self.early: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.pending: List[tuple] = []
        self.survivors: List[Tuple[int, ReplacementRecord]] = []
        self.pairs: List[SyntheticPair] = []
        self.cut: Optional[int] = None

    def read(self, need: int) -> List[tuple]:
        """Remove and return the pending candidates the walk reads for sure:
        those up to the ``need``-th that passes the source LM gate, or all of
        them. Only such a candidate can be an accept, so the walk cannot cut
        before the last of them."""
        passing = 0
        for end, row in enumerate(self.pending, 1):
            passing += row[-1]
            if passing == need:
                break
        else:
            end = len(self.pending)
        rows, self.pending = self.pending[:end], self.pending[end:]
        return rows

    def walk(self, rows: Iterable[tuple], inputs: RunInputs, config: AugmentationConfig) -> None:
        """Make the record of each candidate of ``rows`` in candidate order
        and run its target-span and LM gates, until the ``max_per_item``-th
        accept. A row is a pending entry and then the candidate's target
        link and target (original, spliced) window scores, None where the
        round scored none; the walk reads a side's scores only where the
        gate before it passed."""
        item, sent_sims, corpus = self.item, self.candidates.sent_sims, inputs.corpus
        syntactic_ok = None if config.syntactic_mode() == agreement.MODE_OFF else True
        for at, sentence_id, position, score, src, _, target, tgt in rows:
            record = ReplacementRecord(
                item.kind, item.surface, sentence_id,
                source_span=(position, position),
                word_sim=score,
                sent_sim=None if sent_sims is None else sent_sims[at],
                syntactic_ok=syntactic_ok,
            )
            self.survivors.append((at, record))
            if target < 0:
                record.reason = REASON_UNALIGNED
                continue
            # A Viterbi link is one target token, so the span is never too long.
            record.target_span = (target, target)
            record.source_inserted = item.surface
            record.target_inserted = item.target_insert
            src_ok, record.lm_ratio_src = lm_ratio_accept(src, config.lm_threshold)
            if not src_ok:
                record.reason = REASON_LM_SRC
                continue
            tgt_ok, record.lm_ratio_tgt = lm_ratio_accept(tgt, config.lm_threshold)
            if not tgt_ok:
                record.reason = REASON_LM_TGT
                continue
            record.accepted = True
            self.pairs.append(SyntheticPair(
                synthetic_window(corpus.source[sentence_id].tokens, record.source_span,
                                 item.surface)[0],
                synthetic_window(corpus.target[sentence_id].tokens, record.target_span,
                                 item.target_insert)[0],
                record,
            ))
            if len(self.pairs) == config.max_per_item:
                self.cut = at
                return

    def outcome(self) -> Tuple[List[SyntheticPair], "ItemOutcome"]:
        """The accepted pairs and the outcome of the candidates up to the cut."""
        positions, scores, reasons = (np.concatenate(parts) for parts in zip(*self.early))
        if self.cut is not None:
            reasons = reasons[: self.cut + 1]
        early = np.flatnonzero(reasons != _OPEN)
        return self.pairs, ItemOutcome(
            self.item, self.candidates, early, reasons[early], positions[early], scores[early],
            self.survivors, [survivor for survivor in self.survivors if not survivor[1].accepted],
        )


def _take(runs: Sequence[_ItemRun], inputs: RunInputs, config: AugmentationConfig) -> None:
    """Take the next chunk of each run, run the gates before the target span
    on all of them and score the source windows of those that pass: one
    array pass each. They join their run's ``pending``, and each chunk size
    doubles."""
    chunks = [run.candidates.ids[run.taken : run.taken + run.size] for run in runs]
    counts = np.array([len(chunk) for chunk in chunks], dtype=np.intp)
    firsts = np.cumsum(counts) - counts
    sentence_ids = np.concatenate(chunks)
    positions, scores, reasons = _early_reasons(
        [run.item for run in runs], sentence_ids, counts, inputs, config
    )
    walked = np.flatnonzero(reasons == _OPEN)
    owner = np.repeat(np.arange(len(runs)), counts)[walked]
    walked_ids, walked_at = sentence_ids[walked], positions[walked]
    src = _lm_scores(inputs.lm_src, inputs.stream_src, walked_ids, walked_at,
                     [run.item.surface for run in runs], owner)
    # The walk's own source verdict, taken through ``lm`` so that
    # ``pipeline.lm_ratio_accept`` counts only the gates a walk decides; an
    # original window that underflowed does not pass, and raises only where
    # a walk reaches it.
    passes = [pair[0] > 0.0 and lm.lm_ratio_accept(pair, config.lm_threshold)[0]
              for pair in src]
    taken = np.array([run.taken for run in runs], dtype=np.intp)
    rows = list(zip(
        (walked - firsts[owner] + taken[owner]).tolist(), walked_ids.tolist(),
        walked_at.tolist(), scores[walked].tolist(), src, passes,
    ))
    bounds = np.searchsorted(walked, np.append(firsts, len(reasons))).tolist()
    for k, run in enumerate(runs):
        lo, hi = firsts[k], firsts[k] + counts[k]
        run.early.append((positions[lo:hi], scores[lo:hi], reasons[lo:hi]))
        run.pending += rows[bounds[k] : bounds[k + 1]]
        run.taken += int(counts[k])
        run.size *= 2


def _round(runs: Sequence[_ItemRun], inputs: RunInputs, config: AugmentationConfig) -> None:
    """One round over the runs still short of ``max_per_item`` accepts.

    A run whose pending candidates hold fewer passing source gates than it
    has accepts to go takes its next chunk (``_take``). Then each run reads
    the pending candidates its walk reaches for sure, and all of those are
    aligned in one ``Alignments.ensure``, their target windows scored where
    the source gate passes in one ``stream_scores`` call, and walked, one
    run at a time in candidate order. A run's other pending candidates wait
    for the next round, so no pair is aligned that no walk reads."""
    need = [config.max_per_item - len(run.pairs) for run in runs]
    fresh = [run for run, n in zip(runs, need)
             if run.taken < len(run.candidates.ids) and sum(row[-1] for row in run.pending) < n]
    if fresh:
        _take(fresh, inputs, config)
    reads = [run.read(n) for run, n in zip(runs, need)]
    rows = [row for read in reads for row in read]
    sentence_ids = np.array([row[1] for row in rows], dtype=np.intp)
    positions = np.array([row[2] for row in rows], dtype=np.intp)
    alignments = inputs.alignments
    alignments.ensure(sentence_ids)
    targets = alignments.links[alignments.starts[sentence_ids] + positions]

    # The target windows are scored for the candidates whose source gate passes.
    owner = np.repeat(np.arange(len(runs)), [len(read) for read in reads])
    passed = np.flatnonzero((targets >= 0) & np.array([row[-1] for row in rows], dtype=bool))
    tgt: List[Optional[Tuple[float, float]]] = [None] * len(rows)
    for k, pair in zip(passed.tolist(), _lm_scores(
        inputs.lm_tgt, inputs.stream_tgt, sentence_ids[passed], targets[passed],
        [run.item.target_insert for run in runs], owner[passed],
    )):
        tgt[k] = pair
    walked = iter(zip(rows, targets.tolist(), tgt))
    for run, read in zip(runs, reads):
        run.walk([(*row, target, scores) for row, target, scores
                  in itertools.islice(walked, len(read))], inputs, config)


def _process_items(
    items: Sequence[Tuple[_Item, Candidates]], inputs: RunInputs, config: AugmentationConfig
) -> List[Tuple[List[SyntheticPair], "ItemOutcome"]]:
    """Run each item through every enabled gate in each of its candidate
    sentences, in order, until ``max_per_item`` are accepted: the accepted
    pairs and the outcome of each item, in item order. No outcome depends on
    another candidate or on another item.

    The items share rounds (``_round``). An item's candidates are taken in
    chunks: the first ``max_per_item`` of them, each next chunk twice as
    long as the one before. A round runs the gates before the target span
    and the source LM windows of all the chunks it takes as arrays, in one
    ``best_word_in_sentence`` call and one ``stream_scores`` call; then the
    target-span gate and the target LM windows of the candidates each
    item's walk reads for sure, in one ``Alignments.ensure`` and one
    ``stream_scores`` call. Each walk makes its records in candidate order
    and decides each LM gate it reaches with one ``lm_ratio_accept`` call,
    so an original window whose score underflowed raises only where the
    walk reaches it, at or before the cut at the ``max_per_item``-th accept.
    The outcome keeps nothing after the cut.
    """
    runs = [_ItemRun(item, candidates, config.max_per_item) for item, candidates in items]
    live = runs
    while live:
        _round(live, inputs, config)
        live = [run for run in live if run.cut is None
                and (run.pending or run.taken < len(run.candidates.ids))]
    return ordered_map(_ItemRun.outcome, runs)


@dataclass(eq=False)
class ItemOutcome:
    """How an item's candidates fared, up to the cut at its
    ``max_per_item``-th accept; no candidate after the cut has an entry.

    The candidates that a gate before the target span rejected are kept as
    arrays, in candidate order: ``early_at`` holds each one's index among
    ``candidates``, ``early_reason`` its code in ``_EARLY_REASONS``, and
    ``early_position`` and ``early_score`` its best word (0 and -inf when
    it has none). ``survivors`` holds the record of each candidate that
    reached the target-span gate with its index, and ``rejected`` those of
    them that a gate rejected, as the gate loop left them.
    """

    item: _Item
    candidates: Candidates
    early_at: np.ndarray
    early_reason: np.ndarray
    early_position: np.ndarray
    early_score: np.ndarray
    survivors: List[Tuple[int, ReplacementRecord]]
    rejected: List[Tuple[int, ReplacementRecord]]

    def counts(self) -> Counter:
        """The number of rejected records per reason code."""
        early = np.bincount(self.early_reason, minlength=len(_EARLY_REASONS)).tolist()
        tally = Counter({reason: n for reason, n in zip(_EARLY_REASONS, early) if n})
        tally.update(record.reason for _, record in self.rejected)
        return tally

    def early_lines(self) -> List[str]:
        """The ``provenance.jsonl`` line of each early rejection, in
        candidate order: one f-string each over its sentence id, best word,
        score and sentence similarity. A best word's score is a clamped
        cosine, a finite float, whose ``repr`` is its JSON. Each distinct
        score is written once, told apart by its bits, so that ``0.0`` and
        ``-0.0`` keep their own text."""
        middle = (
            f', "item_kind": {_ENCODE(self.item.kind)}, '
            f'"item_surface": {_ENCODE(self.item.surface)}, '
            '"lm_ratio_src": null, "lm_ratio_tgt": null, "reason": '
        )
        sims = self.candidates.sent_sims
        sent_sims = (
            ["null"] * len(self.early_at) if sims is None
            else [_ENCODE(sims[at]) for at in self.early_at.tolist()]
        )
        distinct, which = np.unique(self.early_score.view(np.int64), return_inverse=True)
        texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        return [
            f'{{"accepted": false, "base_sentence_id": {sentence_id}{middle}'
            f'"no_candidate_word", "sent_sim": {sent_sim}, "source_inserted": null, '
            f'"source_span": null, "syntactic_ok": null, "target_inserted": null, '
            f'"target_span": null, "word_sim": null}}\n'
            if code == _NO_CANDIDATE else
            f'{{"accepted": false, "base_sentence_id": {sentence_id}{middle}'
            f'{_EARLY_REASON_JSON[code]}, "sent_sim": {sent_sim}, '
            f'"source_inserted": null, "source_span": [{position}, {position}], '
            f'"syntactic_ok": {_EARLY_VERDICT_JSON[code]}, "target_inserted": null, '
            f'"target_span": null, "word_sim": {score}}}\n'
            for sentence_id, code, position, score, sent_sim in zip(
                self.candidates.ids[self.early_at].tolist(), self.early_reason.tolist(),
                self.early_position.tolist(), texts[which].tolist(), sent_sims,
            )
        ]

    def provenance(self) -> str:
        """The lines of the item's rejected records, in candidate order: the
        early lines, with each other rejected record's line merged in."""
        lines = self.early_lines()
        where = np.searchsorted(self.early_at, [at for at, _ in self.rejected]).tolist()
        for offset, (index, (_, record)) in enumerate(zip(where, self.rejected)):
            lines.insert(index + offset, _provenance_line(record))
        return "".join(lines)


# What a run's rejections are made of, in ``provenance.jsonl`` order: the
# record of an item-level rejection or of a duplicate, or an item's outcome,
# which stands for its rejected records.
Rejection = Union[ReplacementRecord, ItemOutcome]


def rejections_per_set(
    rejected: Iterable[Rejection], item_kinds: Iterable[str]
) -> Dict[str, Dict[str, int]]:
    """The rejected records per item kind, then per reason code, reasons
    sorted; each of ``item_kinds`` has an entry. An outcome adds its
    ``counts``, so no early rejection is made a record to be counted."""
    counts: Dict[str, Counter] = {kind: Counter() for kind in item_kinds}
    for entry in rejected:
        if isinstance(entry, ItemOutcome):
            counts[entry.item.kind].update(entry.counts())
        else:
            counts[entry.item_kind][entry.reason] += 1
    return {kind: dict(sorted(tally.items())) for kind, tally in counts.items()}


def _make_item(
    kind: str, surface: Tuple[str, ...], target_insert: Tuple[str, ...], inputs: RunInputs
) -> Union[_Item, ReplacementRecord]:
    """The item, or the record of its rejection when some token of its
    surface has no vector or, under a syntactic gate, its head has no
    annotation."""
    query_vec = query_vector(surface, inputs.embeddings)
    if query_vec is None:
        return ReplacementRecord(kind, surface, reason=REASON_COVERAGE)
    lexicon = inputs.lexicon
    if inputs.mode != agreement.MODE_OFF and (
        lexicon is None or annotation_token(surface) not in lexicon
    ):
        return ReplacementRecord(kind, surface, reason=REASON_UNANNOTATED)
    return _Item(kind, surface, query_vec, target_insert)


def resolve_rare_word(
    rare: RareWord, inputs: RunInputs, max_span: int
) -> Union[_Item, ReplacementRecord]:
    """A rare word inserts itself and the translation of its first host,
    when that translation exists."""
    surface = (rare.surface,)
    translation, reason = translate_rare_word(rare, inputs.corpus, inputs.alignments, max_span)
    if translation is None:
        return ReplacementRecord(
            ITEM_RARE_WORD, surface, min(rare.host_sentence_ids), reason=reason
        )
    return _make_item(ITEM_RARE_WORD, surface, translation, inputs)


def resolve_dictionary_entry(
    entry: DictionaryEntry, inputs: RunInputs, vocab: Vocabulary, scope: str
) -> Union[_Item, ReplacementRecord]:
    """A dictionary entry inserts its two terms, unless ``scope`` excludes
    an entry that is not OOV in the corpus vocabulary ``vocab``."""
    surface = entry.source_term
    if scope == SCOPE_OOV_ONLY and not entry.is_oov(vocab):
        return ReplacementRecord(ITEM_DICTIONARY, surface, reason=REASON_IN_VOCABULARY)
    return _make_item(ITEM_DICTIONARY, surface, entry.target_term, inputs)


def _run_items(
    resolved: Sequence[Tuple[Union[_Item, ReplacementRecord], Optional[Candidates]]],
    inputs: RunInputs,
    config: AugmentationConfig,
) -> Tuple[List[SyntheticPair], List[Rejection]]:
    """The gate loop both modes share.

    ``resolved`` holds, in item order, each item with its candidates or the
    record of its item-level rejection. Returns the accepted pairs and the
    rejections: the item-level records first, then each item's outcome, in
    item order.
    """
    mode = config.syntactic_mode()
    if mode != inputs.mode:
        raise ConfigError(f"inputs indexed for syntactic mode {inputs.mode!r}, not {mode!r}")
    rejected: List[Rejection] = [
        entry for entry, _ in resolved if isinstance(entry, ReplacementRecord)
    ]
    items = [(entry, candidates) for entry, candidates in resolved if isinstance(entry, _Item)]
    accepted: List[SyntheticPair] = []
    for pairs, outcome in _process_items(items, inputs, config):
        accepted.extend(pairs)
        rejected.append(outcome)
    return accepted, rejected


def augment_rare_words(
    inputs: RunInputs,
    rare_words: Sequence[RareWord],
    config: AugmentationConfig,
) -> Tuple[List[SyntheticPair], List[Rejection]]:
    """Generate synthetic pairs by substituting rare words into new contexts.

    Items are processed in surface order; a rare word's own host sentences
    are never candidates.
    """
    config.validate()
    corpus, embeddings = inputs.corpus, inputs.embeddings
    if config.use_sent_sim:
        sentence_vectors = np.zeros((len(corpus), embeddings.dim))
        for sentence in corpus.source:
            sentence_vectors[sentence.id] = sentence_embedding(sentence.tokens, embeddings)
        corpus_rows = VectorRows(sentence_vectors)

    def candidates(rare: RareWord) -> Candidates:
        hosts = set(rare.host_sentence_ids)
        if not config.use_sent_sim:
            return Candidates(np.delete(np.arange(len(corpus), dtype=np.intp), sorted(hosts)))
        host_vector = corpus_rows.matrix[min(hosts)]
        hits = top_k_sentences(host_vector, corpus_rows, config.sent_k, exclude=hosts)
        return Candidates(np.array([hit.sentence_id for hit in hits], dtype=np.intp),
                          [hit.score for hit in hits])

    inputs.alignments.ensure([min(rare.host_sentence_ids) for rare in rare_words
                              if rare.host_sentence_ids])
    resolved = []
    for rare in sorted(rare_words, key=lambda r: r.surface):
        item = resolve_rare_word(rare, inputs, config.max_span)
        resolved.append((item, candidates(rare) if isinstance(item, _Item) else None))
    return _run_items(resolved, inputs, config)


def augment_dictionary(
    inputs: RunInputs,
    dictionary: Sequence[DictionaryEntry],
    config: AugmentationConfig,
    scope: str = SCOPE_OOV_ONLY,
) -> Tuple[List[SyntheticPair], List[Rejection]]:
    """Generate synthetic pairs by substituting dictionary terms.

    Identical to rare-word augmentation from the candidate-word step on,
    except that every sentence is a candidate (no sentence filtering; the
    config must not enable it), the query vector is the averaged term
    embedding, and the target insertion comes from the dictionary entry
    itself. ``scope`` restricts augmentation to terms with at least one
    token outside the corpus vocabulary.
    """
    if scope not in (SCOPE_OOV_ONLY, SCOPE_ALL):
        raise ConfigError(f"unknown dictionary scope: {scope!r}")
    config.validate(dict_mode=True)
    vocab = build_vocabulary(inputs.corpus.source)
    every_sentence = Candidates(np.arange(len(inputs.corpus), dtype=np.intp))
    resolved = [
        (resolve_dictionary_entry(entry, inputs, vocab, scope), every_sentence)
        for entry in dictionary
    ]
    return _run_items(resolved, inputs, config)


def merge_and_dedup(
    base: ParallelCorpus,
    sets: Sequence[Sequence[SyntheticPair]],
    set_names: Optional[Sequence[str]] = None,
    soft_cap: Optional[int] = DEFAULT_SOFT_CAP,
) -> Tuple[ParallelCorpus, Dict[str, object]]:
    """Append synthetic pairs to the base corpus, dropping exact duplicates.

    A synthetic pair identical token-for-token (both sides) to a base pair
    or to an earlier synthetic pair is dropped; its record is re-marked as
    rejected with reason ``duplicate``. The manifest reports per-set kept
    and deduplicated counts plus a soft-cap warning when the kept total
    grows past ``soft_cap``.
    """
    seen: Set[Tuple[Tuple[str, ...], Tuple[str, ...]]] = set()
    out_source: List[Sentence] = list(base.source)
    out_target: List[Sentence] = list(base.target)
    for s, t in base.pairs():
        seen.add((s.tokens, t.tokens))

    set_stats: List[Dict[str, object]] = []
    total_kept = 0
    for index, synthetic_set in enumerate(sets):
        name = set_names[index] if set_names else f"set{index}"
        kept = 0
        deduped = 0
        for pair in synthetic_set:
            key = (pair.source_tokens, pair.target_tokens)
            if key in seen:
                deduped += 1
                pair.record.accepted = False
                pair.record.reason = REASON_DUPLICATE
                continue
            seen.add(key)
            next_id = len(out_source)
            out_source.append(Sentence(next_id, pair.source_tokens))
            out_target.append(Sentence(next_id, pair.target_tokens))
            kept += 1
        total_kept += kept
        set_stats.append({"name": name, "accepted": kept, "deduped": deduped})

    warnings: List[str] = []
    if soft_cap is not None and total_kept > soft_cap:
        warnings.append(
            f"synthetic sentence count {total_kept} exceeds soft cap {soft_cap}; "
            "oversized augmentation sets tend to hurt downstream quality"
        )
    manifest: Dict[str, object] = {
        "base_pairs": len(base),
        "sets": set_stats,
        "synthetic_pairs": total_kept,
        "total_pairs": len(out_source),
        "warnings": warnings,
    }
    merged = ParallelCorpus(tuple(out_source), tuple(out_target))
    return merged, manifest


# -- provenance.jsonl ---------------------------------------------------------

_FIELD_NAMES = tuple(sorted(f.name for f in fields(ReplacementRecord)))
_FIELD_VALUES = operator.attrgetter(*_FIELD_NAMES)
# ``_provenance_line`` builds each dict in ``_FIELD_NAMES`` order, already
# sorted, so the encoder sorts no keys.
_ENCODE = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode
_EARLY_REASON_JSON = tuple(_ENCODE(reason) for reason in _EARLY_REASONS)
_EARLY_VERDICT_JSON = tuple("false" if code in (_POS, _MORPH) else "null"
                            for code in range(len(_EARLY_REASONS)))


def _provenance_line(record: ReplacementRecord) -> str:
    """The record's line in ``provenance.jsonl``, newline included: its
    fields in sorted order as ``json.JSONEncoder(ensure_ascii=False)``
    writes them, tuples as lists."""
    return _ENCODE(dict(zip(_FIELD_NAMES, _FIELD_VALUES(record)))) + "\n"


def provenance_lines(
    accepted: Sequence[SyntheticPair], rejected: Iterable[Rejection]
) -> Iterator[str]:
    """The text of ``provenance.jsonl`` in file order, one record's line or
    one item's lines at a time, each piece ending in a newline: one JSON
    object per record, accepted first, then rejected.

    ``rejected`` holds records and item outcomes in file order; an outcome
    gives its rejected records' lines in candidate order, its early
    rejections formatted from its arrays.
    """
    for pair in accepted:
        yield _provenance_line(pair.record)
    for entry in rejected:
        yield entry.provenance() if isinstance(entry, ItemOutcome) else _provenance_line(entry)


def write_provenance(
    path: str | Path,
    accepted: Sequence[SyntheticPair],
    rejected: Iterable[Rejection],
) -> None:
    """Write ``provenance_lines`` one piece at a time, so the file is never
    held in memory."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(provenance_lines(accepted, rejected))


def _rejected_line_pattern() -> "re.Pattern[str]":
    """Exactly the lines ``_provenance_line`` writes for a rejected record.

    Every field in sorted order with its writer's separators, ``accepted``
    false, and each value of a shape the record can hold: a JSON string by
    RFC 8259 (no raw control character, only json's escapes), a number
    (``NaN`` and ``±Infinity`` included), a list of strings, ``[int, int]``,
    ``true``/``false`` or ``null``. A line that fully matches is a JSON
    object that ``json.loads`` and ``ReplacementRecord.from_dict`` accept, so
    skipping it hides no line the full parse would refuse. Integers without
    fraction or exponent are held to the digit count that ``json.loads``
    converts (``sys.get_int_max_str_digits``).
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = f"[0-9]{{0,{limit - 1}}}" if limit else "[0-9]*"
    integer = rf"-?(?:0|[1-9]{digits})"
    number = (
        r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
        rf"|{integer}|NaN|-?Infinity"
    )
    string = r'"[^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*"'
    strings = rf"\[(?:{string}(?:, {string})*)?\]"
    value = {
        "accepted": "false",
        "base_sentence_id": f"null|{integer}",
        "item_kind": string,
        "item_surface": strings,
        "lm_ratio_src": f"null|{number}",
        "lm_ratio_tgt": f"null|{number}",
        "reason": f"null|{string}",
        "sent_sim": f"null|{number}",
        "source_inserted": f"null|{strings}",
        "source_span": rf"null|\[{integer}, {integer}\]",
        "syntactic_ok": "null|true|false",
        "target_inserted": f"null|{strings}",
        "target_span": rf"null|\[{integer}, {integer}\]",
        "word_sim": f"null|{number}",
    }
    body = ", ".join(f'"{name}": (?:{value[name]})' for name in _FIELD_NAMES)
    return re.compile("\\{" + body + "\\}\n?")


_REJECTED_LINE = _rejected_line_pattern()


def read_provenance(path: str | Path) -> List[ReplacementRecord]:
    """The accepted records, in file order.

    A line that ``_REJECTED_LINE`` fully matches is a rejected record as
    the writer formats it, and is skipped unparsed. Every other non-blank
    line is parsed with ``json.loads`` and ``ReplacementRecord.from_dict``
    and kept when its ``accepted`` is true. Raises CorpusFormatError naming
    ``<path>:<line>`` for a line that is not a JSON object of record fields,
    or naming ``<path>`` for bytes that are not UTF-8.
    """
    records: List[ReplacementRecord] = []
    skip = _REJECTED_LINE.fullmatch
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if skip(line):
                    continue
                line = line.strip()
                if not line:
                    continue
                try:
                    record = ReplacementRecord.from_dict(json.loads(line))
                except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
                    raise CorpusFormatError(f"{path}:{lineno}: not a record ({exc})") from exc
                if record.accepted:
                    records.append(record)
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not UTF-8 ({exc})") from exc
    return records
