"""Re-verification of accepted augmentation records.

This walks the accepted records of a provenance file and recomputes each
enabled gate from the run's resources with the pipeline's own definitions
of a replacement: the item's query vector and annotation token
(``pipeline.query_vector``, ``pipeline.annotation_token``) and the spliced
sentence with the span it scores (``pipeline.synthetic_window``). The
similarity score comes from the embedding table, the agreement verdict from
the annotation lexicon, and both language-model ratios from
``lm.lm_ratio_accept``. Recorded values must match the recomputation and
satisfy their thresholds. A record whose fields do not
have the shape the pipeline writes is a violation, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import agreement
from .agreement import AnnotatedLexicon
from .corpus_io import ParallelCorpus
from .embeddings import EmbeddingTable, cosine
from .lm import TrigramModel, lm_ratio_accept
from .pipeline import (
    ITEM_DICTIONARY,
    ITEM_RARE_WORD,
    AugmentationConfig,
    ReplacementRecord,
    annotation_token,
    query_vector,
    synthetic_window,
)

SCORE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Violation:
    """One failed check; ``record_index`` is the record's position among the
    records checked, which ``verify`` reads as the accepted records only."""

    record_index: int
    field: str
    detail: str

    def __str__(self) -> str:
        return f"record {self.record_index}: {self.field}: {self.detail}"


def _is_span(value: object) -> bool:
    return isinstance(value, tuple) and len(value) == 2 and all(type(i) is int for i in value)


def _is_tokens(value: object) -> bool:
    return isinstance(value, tuple) and len(value) > 0 and all(isinstance(t, str) for t in value)


def _is_score(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The shape the pipeline writes, per field an accepted record must carry.
_EVIDENCE = (
    ("item_surface", _is_tokens),
    ("source_span", _is_span),
    ("source_inserted", _is_tokens),
    ("target_span", _is_span),
    ("target_inserted", _is_tokens),
    ("word_sim", _is_score),
    ("lm_ratio_src", _is_score),
    ("lm_ratio_tgt", _is_score),
)


def verify_records(
    records: Sequence[ReplacementRecord],
    corpus: ParallelCorpus,
    embeddings: EmbeddingTable,
    lexicon: Optional[AnnotatedLexicon],
    lm_src: TrigramModel,
    lm_tgt: TrigramModel,
    config: AugmentationConfig,
) -> List[Violation]:
    """Check every accepted record against each enabled constraint.

    Returns an empty list when the provenance is sound. Rejected records
    are ignored (they assert nothing).
    """
    violations: List[Violation] = []

    def bad(index: int, field: str, detail: str) -> None:
        violations.append(Violation(index, field, detail))

    def check_score(index: int, field: str, recorded: float, recomputed: float) -> None:
        if abs(recomputed - recorded) > SCORE_TOLERANCE:
            bad(index, field, f"recorded {recorded!r} != recomputed {recomputed!r}")

    mode = config.syntactic_mode()
    for index, record in enumerate(records):
        if not record.accepted:
            continue
        if record.item_kind not in (ITEM_RARE_WORD, ITEM_DICTIONARY):
            bad(index, "item_kind", f"unknown kind {record.item_kind!r}")
            continue
        sentence_id = record.base_sentence_id
        if type(sentence_id) is not int or not 0 <= sentence_id < len(corpus):
            bad(index, "base_sentence_id", f"out of range: {sentence_id}")
            continue
        malformed = [name for name, shaped in _EVIDENCE if not shaped(getattr(record, name))]
        if any(getattr(record, name) is None for name in malformed):
            bad(index, "fields", "accepted record with missing gate evidence")
            continue
        for name in malformed:
            bad(index, name, f"malformed: {getattr(record, name)!r}")
        if malformed:
            continue

        source, target = corpus.source[sentence_id], corpus.target[sentence_id]
        s_start, s_end = record.source_span
        t_start, t_end = record.target_span
        if not (0 <= s_start <= s_end < len(source.tokens)):
            bad(index, "source_span", f"out of range: {record.source_span}")
            continue
        if not (0 <= t_start <= t_end < len(target.tokens)):
            bad(index, "target_span", f"out of range: {record.target_span}")
            continue

        # Word-similarity gate: recompute the cosine from the raw resources.
        query_vec = query_vector(record.item_surface, embeddings)
        candidate_token = source.tokens[s_start]
        candidate_vec = embeddings.get(candidate_token)
        if query_vec is None or candidate_vec is None:
            bad(index, "word_sim", "embedding missing for recomputation")
            continue
        recomputed_sim = cosine(query_vec, candidate_vec)
        check_score(index, "word_sim", record.word_sim, recomputed_sim)
        if config.use_word_sim and recomputed_sim < config.word_sim_min:
            bad(index, "word_sim", f"{recomputed_sim!r} below threshold {config.word_sim_min!r}")

        # Syntactic gate.
        if mode != agreement.MODE_OFF:
            item_token = annotation_token(record.item_surface)
            item_annotation = lexicon.get(item_token) if lexicon else None
            candidate_annotation = lexicon.get(candidate_token) if lexicon else None
            if item_annotation is None or candidate_annotation is None:
                bad(index, "syntactic", "annotation missing for recomputation")
            elif not agreement.syntactic_ok(
                config.src_lang_role, item_annotation, candidate_annotation, mode
            ):
                bad(index, "syntactic", "agreement check fails on recomputation")

        # Language-model gates: rebuild each synthetic side and re-score it.
        for field, model, tokens, span, inserted, recorded in (
            ("lm_ratio_src", lm_src, source.tokens, record.source_span,
             record.source_inserted, record.lm_ratio_src),
            ("lm_ratio_tgt", lm_tgt, target.tokens, record.target_span,
             record.target_inserted, record.lm_ratio_tgt),
        ):
            synthetic = synthetic_window(tokens, span, inserted)
            ok, ratio = lm_ratio_accept(model, (tokens, span), synthetic, config.lm_threshold)
            check_score(index, field, recorded, ratio)
            if not ok:
                bad(index, field, f"{ratio!r} below threshold {config.lm_threshold!r}")

    return violations
