"""Replacement-based augmentation: candidate selection, gating, synthesis.

For each item (a rare word with its aligned translation, or a bilingual
dictionary entry) the pipeline walks candidate sentences in a deterministic
order, picks the most similar in-sentence word, applies the enabled
similarity / syntactic / language-model gates, and splices both sides of the
pair. Every attempt, accepted or not, yields a provenance record.

Both kinds of item share one code path. ``RunInputs`` holds what a run reads,
with the Viterbi alignment of every pair and the word index built once;
``augment_rare_words`` and ``augment_dictionary`` only turn their items into
``_Item``s, and ``_run_items`` runs the gate loop over them in item order.

The in-sentence word is searched once per item over all its candidates: one
matvec over the eligible corpus types pre-ranks every position, each
position within ``PRERANK_WINDOW`` of its sentence's best is re-scored with
``cosine``'s exact arithmetic, and the lowest index with the highest exact
score wins. Picks and recorded scores are those of a per-token ``cosine``
loop, so outputs do not depend on the vectorization.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from . import agreement
from .agreement import AnnotatedLexicon
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
    DictionaryEntry,
    ParallelCorpus,
    RareWord,
    Sentence,
    build_vocabulary,
)
from .embeddings import (
    EmbeddingTable,
    VectorRows,
    WordIndex,
    best_word_in_sentence,
    sentence_embedding,
    term_embedding,
    top_k_sentences,
)
from .lm import TrigramModel, lm_ratio_accept

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
    similarity-order exponents -0.15 (source role) / 0.15 (target role),
    language-model ratio threshold 0.6.
    """

    t_r: int = 1
    alpha_src: float = -0.15
    alpha_tgt: float = 0.15
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
        if self.lm_threshold <= 0.0:
            raise ConfigError(f"lm_threshold must be positive, got {self.lm_threshold}")
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

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {name: getattr(self, name) for name in _RECORD_FIELDS}
        for name in _TUPLE_FIELDS:
            if out[name] is not None:
                out[name] = list(out[name])
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReplacementRecord":
        kwargs = dict(data)
        for key in _TUPLE_FIELDS:
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


_RECORD_FIELDS = tuple(f.name for f in fields(ReplacementRecord))
# Stored as tuples, written to JSON as lists.
_TUPLE_FIELDS = ("item_surface", "source_span", "source_inserted", "target_span", "target_inserted")


@dataclass
class SyntheticPair:
    source_tokens: Tuple[str, ...]
    target_tokens: Tuple[str, ...]
    record: ReplacementRecord


def _splice(tokens: Tuple[str, ...], span: Tuple[int, int], insert: Tuple[str, ...]) -> Tuple[str, ...]:
    start, end = span
    if not (0 <= start <= end < len(tokens)):
        raise ValueError(f"span {span} out of range for {len(tokens)} tokens")
    return tokens[:start] + tuple(insert) + tokens[end + 1 :]


def apply_replacement(
    base: Tuple[Sentence, Sentence],
    src_span: Tuple[int, int],
    src_insert: Sequence[str],
    tgt_span: Tuple[int, int],
    tgt_insert: Sequence[str],
) -> SyntheticPair:
    """Splice both sides of a sentence pair; the base pair is untouched.

    The returned record has the span/insertion fields filled; scores are
    left for the caller. Out-of-range spans are a caller bug.
    """
    source_sentence, target_sentence = base
    record = ReplacementRecord(
        item_kind="",
        item_surface=(),
        base_sentence_id=source_sentence.id,
        source_span=src_span,
        source_inserted=tuple(src_insert),
        target_span=tgt_span,
        target_inserted=tuple(tgt_insert),
    )
    return SyntheticPair(
        source_tokens=_splice(source_sentence.tokens, src_span, tuple(src_insert)),
        target_tokens=_splice(target_sentence.tokens, tgt_span, tuple(tgt_insert)),
        record=record,
    )


@dataclass(frozen=True)
class _Item:
    """One resolved augmentation item, ready for candidate processing."""

    kind: str
    surface: Tuple[str, ...]
    query_vec: np.ndarray
    source_insert: Tuple[str, ...]
    target_insert: Tuple[str, ...]
    annotation_token: str
    identity_token: Optional[str]
    candidates: Tuple[Tuple[int, Optional[float]], ...]


@dataclass(frozen=True)
class RunInputs:
    """What one augmentation run reads, built once and shared by both modes.

    ``alignments[i]`` is the Viterbi alignment of corpus pair ``i``, read by
    the gate loop and by rare-word translation. ``word_index`` is built for
    the syntactic mode ``mode``, which the run's config must share.
    """

    corpus: ParallelCorpus
    embeddings: EmbeddingTable
    lm_src: TrigramModel
    lm_tgt: TrigramModel
    lexicon: Optional[AnnotatedLexicon]
    mode: str
    alignments: Tuple[SentenceAlignment, ...]
    word_index: WordIndex

    @classmethod
    def build(cls, corpus: ParallelCorpus, embeddings: EmbeddingTable,
              alignment_table: TranslationTable, lm_src: TrigramModel, lm_tgt: TrigramModel,
              lexicon: Optional[AnnotatedLexicon], mode: str) -> "RunInputs":
        """Align every pair once and index the source side once."""
        alignments = tuple(viterbi_align(pair, alignment_table) for pair in corpus.pairs())
        word_index = WordIndex.build(corpus.source, embeddings, lexicon, mode)
        return cls(corpus, embeddings, lm_src, lm_tgt, lexicon, mode, alignments, word_index)


def ordered_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, kept as a name the benchmark wraps.

    ``bench/spans.py`` hooks ``pipeline.ordered_map`` to report the
    ``parallel.map_*`` metrics, and ``bench/`` changes only together with
    its metrics, so the gate loop calls this until they are retired.
    """
    return [fn(item) for item in items]


def _process_item(
    item: _Item, inputs: RunInputs, config: AugmentationConfig
) -> Tuple[List[SyntheticPair], List[ReplacementRecord]]:
    mode = config.syntactic_mode()
    corpus, lexicon = inputs.corpus, inputs.lexicon
    item_annotation = lexicon.get(item.annotation_token) if lexicon is not None else None
    pairs: List[SyntheticPair] = []
    records: List[ReplacementRecord] = []
    best_words = best_word_in_sentence(
        inputs.word_index,
        item.query_vec,
        [candidate_id for candidate_id, _ in item.candidates],
        item.identity_token,
    )

    for (candidate_id, sent_sim), best in zip(item.candidates, best_words):
        if len(pairs) >= config.max_per_item:
            break
        source_sentence = corpus.source[candidate_id]
        target_sentence = corpus.target[candidate_id]
        record = ReplacementRecord(
            item_kind=item.kind,
            item_surface=item.surface,
            base_sentence_id=candidate_id,
            sent_sim=sent_sim,
        )
        records.append(record)

        if best is None:
            record.reason = REASON_NO_CANDIDATE_WORD
            continue
        position, score = best
        candidate_token = source_sentence.tokens[position]
        record.word_sim = score
        record.source_span = (position, position)

        if config.use_word_sim and score < config.word_sim_min:
            record.reason = REASON_WORD_SIM
            continue

        if mode != agreement.MODE_OFF:
            candidate_annotation = lexicon.get(candidate_token) if lexicon else None
            if item_annotation is None or candidate_annotation is None:
                record.reason = REASON_UNANNOTATED
                continue
            ok = agreement.syntactic_ok(
                config.src_lang_role, item_annotation, candidate_annotation, mode
            )
            record.syntactic_ok = ok
            if not ok:
                if not agreement.pos_agree(item_annotation, candidate_annotation):
                    record.reason = REASON_POS
                else:
                    record.reason = REASON_MORPH
                continue

        alignment = inputs.alignments[candidate_id]
        if not alignment.targets_of(position):
            record.reason = REASON_UNALIGNED
            continue
        span = target_span(alignment, position, config.max_span)
        if span is None:
            record.reason = REASON_SPAN_TOO_LONG
            continue
        record.target_span = (span.start, span.end)

        synthetic = apply_replacement(
            (source_sentence, target_sentence),
            (position, position),
            item.source_insert,
            (span.start, span.end),
            item.target_insert,
        )
        record.source_inserted = item.source_insert
        record.target_inserted = item.target_insert

        src_ok, src_ratio = lm_ratio_accept(
            inputs.lm_src,
            (source_sentence.tokens, (position, position)),
            (synthetic.source_tokens, (position, position + len(item.source_insert) - 1)),
            config.lm_threshold,
        )
        record.lm_ratio_src = src_ratio
        if not src_ok:
            record.reason = REASON_LM_SRC
            continue

        tgt_ok, tgt_ratio = lm_ratio_accept(
            inputs.lm_tgt,
            (target_sentence.tokens, (span.start, span.end)),
            (synthetic.target_tokens, (span.start, span.start + len(item.target_insert) - 1)),
            config.lm_threshold,
        )
        record.lm_ratio_tgt = tgt_ratio
        if not tgt_ok:
            record.reason = REASON_LM_TGT
            continue

        record.accepted = True
        synthetic.record = record
        pairs.append(synthetic)

    return pairs, records


def _all_candidates(n: int, exclude: Set[int]) -> Tuple[Tuple[int, Optional[float]], ...]:
    return tuple((i, None) for i in range(n) if i not in exclude)


def _run_items(
    resolved: Sequence[Union[_Item, ReplacementRecord]],
    inputs: RunInputs,
    config: AugmentationConfig,
) -> Tuple[List[SyntheticPair], List[ReplacementRecord]]:
    """The path both modes share: the annotation check, then the gate loop.

    ``resolved`` holds, in item order, each item or the record of its
    item-level rejection. Returns the accepted pairs and the rejected
    records, item-level rejections first, in item order.
    """
    mode = config.syntactic_mode()
    if mode != inputs.mode:
        raise ConfigError(f"inputs indexed for syntactic mode {inputs.mode!r}, not {mode!r}")
    lexicon = inputs.lexicon
    items: List[_Item] = []
    rejected: List[ReplacementRecord] = []
    for entry in resolved:
        if isinstance(entry, ReplacementRecord):
            rejected.append(entry)
        elif mode != agreement.MODE_OFF and (
            lexicon is None or entry.annotation_token not in lexicon
        ):
            rejected.append(
                ReplacementRecord(entry.kind, entry.surface, reason=REASON_UNANNOTATED)
            )
        else:
            items.append(entry)
    accepted: List[SyntheticPair] = []
    for pairs, records in ordered_map(lambda item: _process_item(item, inputs, config), items):
        accepted.extend(pairs)
        rejected.extend(r for r in records if not r.accepted)
    return accepted, rejected


def augment_rare_words(
    inputs: RunInputs,
    rare_words: Sequence[RareWord],
    config: AugmentationConfig,
) -> Tuple[List[SyntheticPair], List[ReplacementRecord]]:
    """Generate synthetic pairs by substituting rare words into new contexts.

    Items are processed in surface order; a rare word's own host sentences
    are never candidates.
    """
    config.validate()
    corpus, embeddings = inputs.corpus, inputs.embeddings
    if config.use_sent_sim:
        corpus_vectors = [sentence_embedding(s, embeddings) for s in corpus.source]
        corpus_rows = VectorRows.stack([sv.vector for sv in corpus_vectors], embeddings.dim)

    def resolve(rare: RareWord) -> Union[_Item, ReplacementRecord]:
        surface = (rare.surface,)
        translation, reason = translate_rare_word(rare, corpus, inputs.alignments, config.max_span)
        host_id = min(rare.host_sentence_ids)
        if translation is None:
            return ReplacementRecord(ITEM_RARE_WORD, surface, host_id, reason=reason)
        query_vec = embeddings.get(rare.surface)
        if query_vec is None:
            return ReplacementRecord(ITEM_RARE_WORD, surface, reason=REASON_COVERAGE)
        hosts = set(rare.host_sentence_ids)
        if config.use_sent_sim:
            host_vector = corpus_vectors[host_id]
            hits = top_k_sentences(host_vector, corpus_rows, config.sent_k, exclude=hosts)
            candidates = tuple((hit.sentence_id, hit.score) for hit in hits)
        else:
            candidates = _all_candidates(len(corpus), hosts)
        return _Item(
            kind=ITEM_RARE_WORD,
            surface=surface,
            query_vec=query_vec,
            source_insert=surface,
            target_insert=translation,
            annotation_token=rare.surface,
            identity_token=rare.surface,
            candidates=candidates,
        )

    resolved = [resolve(rare) for rare in sorted(rare_words, key=lambda r: r.surface)]
    return _run_items(resolved, inputs, config)


def augment_dictionary(
    inputs: RunInputs,
    dictionary: Sequence[DictionaryEntry],
    config: AugmentationConfig,
    scope: str = SCOPE_OOV_ONLY,
) -> Tuple[List[SyntheticPair], List[ReplacementRecord]]:
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
    all_candidates = _all_candidates(len(inputs.corpus), set())

    def resolve(entry: DictionaryEntry) -> Union[_Item, ReplacementRecord]:
        surface = entry.source_term
        if scope == SCOPE_OOV_ONLY and all(token in vocab for token in surface):
            return ReplacementRecord(ITEM_DICTIONARY, surface, reason=REASON_IN_VOCABULARY)
        term_vector = term_embedding(surface, inputs.embeddings)
        if term_vector.covered_tokens < len(surface):
            return ReplacementRecord(ITEM_DICTIONARY, surface, reason=REASON_COVERAGE)
        return _Item(
            kind=ITEM_DICTIONARY,
            surface=surface,
            query_vec=term_vector.vector,
            source_insert=surface,
            target_insert=entry.target_term,
            # The term's head token (last token, head-final convention)
            # stands in for the whole term in the syntactic gate.
            annotation_token=surface[-1],
            identity_token=surface[0] if len(surface) == 1 else None,
            candidates=all_candidates,
        )

    return _run_items([resolve(entry) for entry in dictionary], inputs, config)


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


def write_provenance(
    path: str | Path,
    accepted: Sequence[SyntheticPair],
    rejected: Sequence[ReplacementRecord],
) -> None:
    """Write one JSON object per record (accepted first, then rejected)."""
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for pair in accepted:
            fh.write(encode(pair.record.to_dict()))
            fh.write("\n")
        for record in rejected:
            fh.write(encode(record.to_dict()))
            fh.write("\n")


def read_provenance(path: str | Path) -> List[ReplacementRecord]:
    records: List[ReplacementRecord] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(ReplacementRecord.from_dict(json.loads(line)))
    return records


def rejection_counts(records: Sequence[ReplacementRecord]) -> Dict[str, int]:
    """Tally rejected records per reason code (sorted keys for stable JSON)."""
    counts: Dict[str, int] = {}
    for record in records:
        if not record.accepted and record.reason:
            counts[record.reason] = counts.get(record.reason, 0) + 1
    return {reason: counts[reason] for reason in sorted(counts)}
