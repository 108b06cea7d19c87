"""Re-verification of accepted augmentation records.

``verify_records`` re-runs the pipeline's own item step: it rebuilds the
item of each group of accepted records with ``pipeline.resolve_rare_word``
or ``pipeline.resolve_dictionary_entry`` and passes the recorded sentences
to ``pipeline._process_item``, whose outcome gives one record per sentence.
A candidate's outcome does not depend on the other candidates of its item,
so each recomputed record must equal the recorded one, field by field and
exactly. The pipeline is deterministic, so any difference is an edit: a
score one bit off, a NaN, or a field of a shape the pipeline never writes.
Checked apart are only what the recomputation reads or cannot see: the
sentence id, the item key, ``max_per_item``, and a record on a sentence the
run would not have tried for its item (a host sentence of its rare word or
a sentence an earlier record of the item names), which is not recomputed.
``sent_sim`` is passed through as recorded, and whether a
sentence-similarity run would have ranked the sentence among its
candidates is not checked. Only the sentences the records name, and the
first host of each rare word, are aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import zip_longest
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .corpus_io import DictionaryEntry, RareWord, build_vocabulary
from .pipeline import (
    ITEM_DICTIONARY,
    ITEM_RARE_WORD,
    REASON_LM_SRC,
    REASON_LM_TGT,
    REASON_WORD_SIM,
    SCOPE_OOV_ONLY,
    AugmentationConfig,
    Candidates,
    ReplacementRecord,
    RunInputs,
    _process_item,
    resolve_dictionary_entry,
    resolve_rare_word,
)


@dataclass(frozen=True)
class Violation:
    """One failed check; ``record_index`` is the record's position among the
    records checked, which ``verify`` reads as the accepted records only."""

    record_index: int
    field: str
    detail: str

    def __str__(self) -> str:
        return f"record {self.record_index}: {self.field}: {self.detail}"


def _is_tokens(value: object) -> bool:
    return isinstance(value, tuple) and len(value) > 0 and all(isinstance(t, str) for t in value)


_FIELDS = tuple(field.name for field in fields(ReplacementRecord))

# The score and the setting it fell below, per rejection reason that has one.
_THRESHOLDS = {
    REASON_WORD_SIM: ("word_sim", "word_sim_min"),
    REASON_LM_SRC: ("lm_ratio_src", "lm_threshold"),
    REASON_LM_TGT: ("lm_ratio_tgt", "lm_threshold"),
}


def _differences(
    record: ReplacementRecord, again: ReplacementRecord, config: AugmentationConfig
) -> Iterator[Tuple[str, str]]:
    """(field, detail) for each way an accepted record differs from its
    recomputation ``again``."""
    if not again.accepted:
        name, setting = _THRESHOLDS.get(again.reason, ("accepted", None))
        if setting is None:
            yield name, f"rejected on recomputation ({again.reason})"
        else:
            yield name, f"{getattr(again, name)!r} below threshold {getattr(config, setting)!r}"
        return
    for name in _FIELDS:
        recorded, recomputed = getattr(record, name), getattr(again, name)
        # Field by field, so that a NaN differs even from itself.
        if recorded != recomputed:
            yield name, f"recorded {recorded!r} != recomputed {recomputed!r}"


def verify_records(
    records: Sequence[ReplacementRecord],
    inputs: RunInputs,
    rare_words: Sequence[RareWord],
    dictionary: Sequence[DictionaryEntry],
    config: AugmentationConfig,
    scope: str = SCOPE_OOV_ONLY,
) -> List[Violation]:
    """Check every accepted record against the pipeline's recomputation.

    ``rare_words`` and ``dictionary`` are the items the run could use.
    Returns the violations in record order, none when the provenance is
    sound. Rejected records are ignored (they assert nothing).
    """
    violations: List[Violation] = []

    def bad(index: int, field: str, detail: str) -> None:
        violations.append(Violation(index, field, detail))

    corpus = inputs.corpus
    groups: Dict[Tuple, List[Tuple[int, ReplacementRecord]]] = {}
    for index, record in enumerate(records):
        if not record.accepted:
            continue
        sentence_id = record.base_sentence_id
        if type(sentence_id) is not int or not 0 <= sentence_id < len(corpus):
            bad(index, "base_sentence_id", f"out of range: {sentence_id}")
            continue
        # One source term may have several translations, each its own item.
        key = (record.item_kind, record.item_surface)
        if record.item_kind == ITEM_DICTIONARY:
            key += (record.target_inserted,)
        if not (isinstance(record.item_kind, str) and all(map(_is_tokens, key[1:]))):
            bad(index, "item", "not an item of the run")
            continue
        groups.setdefault(key, []).append((index, record))

    # One pass ahead of the gates: `verify` ran about 3% faster on rare_scan and dict_both.
    for sentence_id in sorted({r.base_sentence_id for group in groups.values() for _, r in group}):
        inputs.alignments[sentence_id]
    vocab = build_vocabulary(corpus.source) if dictionary else None
    items = {
        (ITEM_RARE_WORD, (rare.surface,)): resolve_rare_word(rare, inputs, config.max_span)
        for rare in rare_words
    }
    items.update({
        (ITEM_DICTIONARY, entry.source_term, entry.target_term):
            resolve_dictionary_entry(entry, inputs, vocab, scope)
        for entry in dictionary
    })
    # A rare word's own host sentences are never its candidates.
    hosts = {(ITEM_RARE_WORD, (rare.surface,)): frozenset(rare.host_sentence_ids)
             for rare in rare_words}
    for key, group in groups.items():
        item = items.get(key)
        if item is None:
            detail = "not an item of the run"
        elif isinstance(item, ReplacementRecord):
            detail = f"rejected on recomputation ({item.reason})"
        else:
            item_hosts, seen, tried = hosts.get(key, frozenset()), set(), []
            for index, record in group:
                sentence_id = record.base_sentence_id
                if sentence_id in item_hosts:
                    bad(index, "base_sentence_id", f"{sentence_id} is a host of the rare word")
                elif sentence_id in seen:
                    bad(index, "base_sentence_id",
                        f"{sentence_id} repeats an earlier record of the item")
                else:
                    seen.add(sentence_id)
                    tried.append((index, record))
            candidates = Candidates(
                np.array([record.base_sentence_id for _, record in tried], dtype=np.intp),
                [record.sent_sim for _, record in tried],
            )
            recomputed = _process_item(item, candidates, inputs, config)[1].records()
            for (index, record), again in zip_longest(tried, recomputed):
                if again is None:
                    bad(index, "max_per_item", f"more than {config.max_per_item} for the item")
                    continue
                for field, detail in _differences(record, again, config):
                    bad(index, field, detail)
            continue
        for index, _ in group:
            bad(index, "item", detail)

    violations.sort(key=lambda violation: violation.record_index)
    return violations
