"""Replacement-based augmentation: candidate selection, gating, synthesis.

For each item (a rare word with its aligned translation, or a bilingual
dictionary entry) the pipeline walks candidate sentences in a deterministic
order, picks the most similar in-sentence word, applies the enabled
similarity / syntactic / language-model gates, and splices both sides of the
pair. Every attempt, accepted or not, yields a provenance record.

Both kinds of item share one code path. ``RunInputs`` holds what a run reads,
with the word index built once and the Viterbi alignment of each pair made
the first time a gate or a rare word's translation reads it.
``resolve_rare_word`` and ``resolve_dictionary_entry`` turn an item into an
``_Item``, what it inserts on each side, or into the record of its
item-level rejection; ``augment_rare_words`` and ``augment_dictionary`` add
each item's candidate sentences, and ``_run_items`` runs ``_process_item``,
the one place that evaluates the gates, over them in item order. ``verify``
re-runs the same two steps on each accepted record's item and sentence. The
steps are deterministic, so the record they give must equal the recorded
one exactly, its scores to the last bit.

The in-sentence word is searched once per item over all its candidates: one
matvec over the eligible corpus types pre-ranks every position, the types
at the positions within ``PRERANK_WINDOW`` of their sentence's best are
re-scored with ``cosine``'s exact arithmetic in one ``np.vecdot`` pass, and
the lowest index with the highest exact score wins. Picks and recorded
scores are those of a per-token ``cosine`` loop, so outputs do not depend on
the vectorization. The LM gates gather their windows from the corpus sides
mapped once per run to LM ids.

The gates before the target span run as array masks over an item's
candidates: no candidate word, ``word_sim`` below its minimum, and the
syntactic verdict, read from a per-run table of one ``syntactic_ok`` call
per distinct pair of annotations. A candidate rejected there never becomes
a ``ReplacementRecord``: ``ItemOutcome`` keeps it as an entry of its arrays,
and only the candidates that reach the target-span gate get records. The
outcome's ``records()`` materializes the full list when one is asked for.

This module is the one that knows the ``provenance.jsonl`` line format: a
record's fields as ``json.JSONEncoder(sort_keys=True, ensure_ascii=False)``
writes them. ``write_provenance`` writes one item at a time. An item's early
rejections are formatted straight from the outcome's arrays, one f-string
per line and byte for byte what the encoder gives, and merged in candidate
order with the encoder's lines of its other rejected records, so the file is
the same as when every attempt was a record.
``read_provenance`` returns only the accepted records: a line that
``_REJECTED_LINE`` fully matches is a rejected record as the writer formats
it and is skipped unparsed, and every other line is parsed in full.
"""

from __future__ import annotations

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
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from . import agreement
from .agreement import AnnotatedLexicon, TokenAnnotation
from .aligner import (
    REASON_SPAN_TOO_LONG,
    REASON_UNALIGNED,
    SentenceAlignment,
    TranslationTable,
    target_span,
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
from .lm import IdStream, Span, TrigramModel, lm_ratio_accept, stream_scores

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
    """The Viterbi alignment of each corpus pair, made when it is first read.

    ``alignments[i]`` aligns pair ``i`` at most once per run, so a run
    aligns only the pairs that its target-span gates and its rare words'
    translations read.
    """

    def __init__(self, corpus: ParallelCorpus, table: TranslationTable) -> None:
        self._corpus = corpus
        self._table = table
        self._made: List[Optional[SentenceAlignment]] = [None] * len(corpus)

    def __getitem__(self, index: int) -> SentenceAlignment:
        alignment = self._made[index]
        if alignment is None:
            pair = (self._corpus.source[index], self._corpus.target[index])
            alignment = self._made[index] = viterbi_align(pair, self._table)
        return alignment


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

    ``alignments[i]`` is the Viterbi alignment of corpus pair ``i``, made
    the first time the gate loop or a rare word's translation reads it.
    ``word_index`` is built for the syntactic mode ``mode``, which the run's
    config must share, and ``syntactic`` holds that mode's verdicts (None
    when it is off). ``stream_src`` and ``stream_tgt`` are the corpus sides
    mapped once to the ids of their LMs, which the LM gates gather their
    windows from.
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
        """Index the source side and map both sides to LM ids once; each pair
        is aligned when first read."""
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
    its metrics, so the gate loop calls this until they are retired.
    """
    return [fn(item) for item in items]


def _side_scores(
    model: TrigramModel, stream: IdStream, keys: Sequence[Tuple[int, Span]], insert: Sequence[str]
) -> Tuple[List[float], List[float]]:
    """The original window score of each (sentence id, span) key and the
    score of its window with the span replaced by ``insert``, from one
    ``stream_scores`` call."""
    windows = np.array(
        [(sentence_id, start, end) for sentence_id, (start, end) in keys], dtype=np.intp
    ).reshape(-1, 3)
    scores = stream_scores(model, stream, np.concatenate([windows, windows]), len(keys),
                           insert).tolist()
    return scores[: len(keys)], scores[len(keys):]


# A candidate queued for the LM gates: its index among the item's
# candidates and its record.
_Queued = Tuple[int, ReplacementRecord]


def _lm_gates(
    queued: Sequence[_Queued],
    pairs: List[SyntheticPair],
    item: _Item,
    inputs: RunInputs,
    config: AugmentationConfig,
) -> Optional[int]:
    """Run the LM gates of the queued candidates in candidate order,
    appending the accepted pairs to ``pairs``. Returns the candidate index
    of the ``max_per_item``-th accept, where the item is cut, or None.

    The source windows are scored in one batch. The source gates then run
    in order until as many pass as accepts are still missing, or the queue
    ends; the target windows of those that passed are scored in one batch
    and their target gates run, and the source gates go on after them. So
    no gate runs past the cut, and every verdict and ratio is that of one
    ``lm_ratio_accept`` call. Only an accepted pair's sentences are spliced
    as tokens."""
    corpus = inputs.corpus
    src_scores = zip(*_side_scores(
        inputs.lm_src, inputs.stream_src,
        [(record.base_sentence_id, record.source_span) for _, record in queued], item.surface,
    ))
    passed: List[_Queued] = []
    for count, (candidate, scores) in enumerate(zip(queued, src_scores), start=1):
        record = candidate[1]
        src_ok, record.lm_ratio_src = lm_ratio_accept(scores, config.lm_threshold)
        if src_ok:
            passed.append(candidate)
        else:
            record.reason = REASON_LM_SRC
        if len(passed) < config.max_per_item - len(pairs) and count < len(queued):
            continue
        tgt_scores = zip(*_side_scores(
            inputs.lm_tgt, inputs.stream_tgt,
            [(record.base_sentence_id, record.target_span) for _, record in passed],
            item.target_insert,
        ))
        for (at, record), scores in zip(passed, tgt_scores):
            tgt_ok, record.lm_ratio_tgt = lm_ratio_accept(scores, config.lm_threshold)
            if not tgt_ok:
                record.reason = REASON_LM_TGT
                continue
            record.accepted = True
            sentence_id = record.base_sentence_id
            pairs.append(SyntheticPair(
                synthetic_window(corpus.source[sentence_id].tokens, record.source_span,
                                 item.surface)[0],
                synthetic_window(corpus.target[sentence_id].tokens, record.target_span,
                                 item.target_insert)[0],
                record,
            ))
            if len(pairs) >= config.max_per_item:
                return at
        passed = []
    return None


def _early_reasons(
    item: _Item, candidates: Candidates, inputs: RunInputs, config: AugmentationConfig
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The best word of each candidate, its position and score, and the code
    of the first gate before the target span that rejects it, or ``_OPEN``:
    no candidate word, then ``word_sim``, then the syntactic gate."""
    positions, scores, found = best_word_in_sentence(
        inputs.word_index,
        item.query_vec,
        candidates.ids,
        # A one-token item never replaces its own token.
        item.surface[0] if len(item.surface) == 1 else None,
    )
    reasons = np.where(found, _OPEN, _NO_CANDIDATE).astype(np.int8)
    if config.use_word_sim:
        reasons[found & (scores < config.word_sim_min)] = _WORD_SIM
    if config.syntactic_mode() != agreement.MODE_OFF:
        # Under a syntactic mode the item's head and every indexed word are
        # annotated: ``_make_item`` and ``WordIndex`` admit no other.
        annotation = inputs.lexicon.get(annotation_token(item.surface))
        checked = np.flatnonzero(reasons == _OPEN)
        index, table = inputs.word_index, inputs.syntactic
        words = index.tokens[index.starts[candidates.ids[checked]] + positions[checked]]
        reasons[checked] = table.reasons(config.src_lang_role, annotation)[table.of_type[words]]
    return positions, scores, reasons


def _process_item(
    item: _Item, candidates: Candidates, inputs: RunInputs, config: AugmentationConfig
) -> Tuple[List[SyntheticPair], "ItemOutcome"]:
    """Run ``item`` through every enabled gate in each candidate sentence, in
    order, until ``max_per_item`` are accepted: the accepted pairs and the
    item's outcome. No outcome depends on another candidate.

    ``_early_reasons`` runs the gates before the target span over every
    candidate at once. One walk over the candidates that pass them makes
    their records, runs the target-span gate and queues each candidate that
    reaches the LM gates. ``_lm_gates`` runs a full queue's LM gates; at the
    ``max_per_item``-th accept the walk ends, and the outcome keeps nothing
    of the candidates after that one. The first queue holds
    ``max_per_item`` candidates and each next one twice as many as the one
    before, so an item that needs many candidates is scored in few
    ``stream_scores`` calls, and the walk passes the cut by less than one
    queue. The rest of the queue is scored when the walk runs out of
    candidates."""
    positions, scores, reasons = _early_reasons(item, candidates, inputs, config)
    sent_sims = candidates.sent_sims
    syntactic_ok = None if config.syntactic_mode() == agreement.MODE_OFF else True
    pairs: List[SyntheticPair] = []
    survivors: List[Tuple[int, ReplacementRecord]] = []
    queued: List[_Queued] = []
    batch = config.max_per_item
    cut = None
    walked = np.flatnonzero(reasons == _OPEN)
    for at, sentence_id, position, score in zip(
        walked.tolist(), candidates.ids[walked].tolist(), positions[walked].tolist(),
        scores[walked].tolist(),
    ):
        record = ReplacementRecord(
            item.kind, item.surface, sentence_id,
            source_span=(position, position),
            word_sim=score,
            sent_sim=None if sent_sims is None else sent_sims[at],
            syntactic_ok=syntactic_ok,
        )
        survivors.append((at, record))
        span = target_span(inputs.alignments[sentence_id], position, config.max_span)
        if isinstance(span, str):
            record.reason = span
            continue
        record.target_span = span
        record.source_inserted = item.surface
        record.target_inserted = item.target_insert
        queued.append((at, record))
        if len(queued) == batch:
            cut = _lm_gates(queued, pairs, item, inputs, config)
            if cut is not None:
                break
            queued = []
            batch *= 2
    if cut is None and queued:
        cut = _lm_gates(queued, pairs, item, inputs, config)

    if cut is not None:
        survivors = [survivor for survivor in survivors if survivor[0] <= cut]
        reasons = reasons[: cut + 1]
    early = np.flatnonzero(reasons != _OPEN)
    return pairs, ItemOutcome(
        item, candidates, early, reasons[early], positions[early], scores[early],
        survivors, [survivor for survivor in survivors if not survivor[1].accepted],
    )


_FIRST = operator.itemgetter(0)


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

    def _early_records(self) -> List[Tuple[int, ReplacementRecord]]:
        kind, surface, sims = self.item.kind, self.item.surface, self.candidates.sent_sims
        records = []
        for at, sentence_id, code, position, score in zip(
            self.early_at.tolist(), self.candidates.ids[self.early_at].tolist(),
            self.early_reason.tolist(), self.early_position.tolist(), self.early_score.tolist(),
        ):
            record = ReplacementRecord(kind, surface, sentence_id, reason=_EARLY_REASONS[code],
                                       sent_sim=None if sims is None else sims[at])
            if code != _NO_CANDIDATE:
                record.source_span, record.word_sim = (position, position), score
            if code in (_POS, _MORPH):
                record.syntactic_ok = False
            records.append((at, record))
        return records

    def records(self) -> List[ReplacementRecord]:
        """Every record of the item in candidate order, each early rejection
        made a record: the list a record per candidate tried gives."""
        return [record for _, record in sorted(self._early_records() + self.survivors, key=_FIRST)]

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
    for pairs, outcome in ordered_map(lambda item: _process_item(*item, inputs, config), items):
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
_ENCODE = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
_EARLY_REASON_JSON = tuple(_ENCODE(reason) for reason in _EARLY_REASONS)
_EARLY_VERDICT_JSON = tuple("false" if code in (_POS, _MORPH) else "null"
                            for code in range(len(_EARLY_REASONS)))


def _provenance_line(record: ReplacementRecord) -> str:
    """The record's line in ``provenance.jsonl``, newline included: its
    fields as ``json.JSONEncoder(sort_keys=True, ensure_ascii=False)``
    writes them, tuples as lists."""
    return _ENCODE(dict(zip(_FIELD_NAMES, _FIELD_VALUES(record)))) + "\n"


def write_provenance(
    path: str | Path,
    accepted: Sequence[SyntheticPair],
    rejected: Iterable[Rejection],
) -> None:
    """Write one JSON object per record (accepted first, then rejected).

    ``rejected`` holds records and item outcomes in file order; an outcome
    writes its rejected records' lines in candidate order, its early
    rejections formatted from its arrays. The lines are written one item at
    a time, so the file is never held in memory.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_provenance_line(pair.record) for pair in accepted)
        fh.writelines(
            entry.provenance() if isinstance(entry, ItemOutcome) else _provenance_line(entry)
            for entry in rejected
        )


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
