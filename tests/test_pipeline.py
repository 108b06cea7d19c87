import dataclasses
from collections import Counter
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusaug.agreement import AnnotatedLexicon, TokenAnnotation
from corpusaug.aligner import NULL_TOKEN
from corpusaug.corpus_io import CorpusFormatError, DictionaryEntry, Sentence
from corpusaug.embeddings import EmbeddingTable
from corpusaug import pipeline
from corpusaug.cli import (
    ABLATION_PRESETS, _load_run, apply_ablation, main, parse_config_file, resolve_config,
)
from corpusaug.lm import train_lm
from corpusaug.pipeline import (
    REASON_LM_SRC,
    REASON_LM_TGT,
    AugmentationConfig,
    ConfigError,
    Candidates,
    ItemOutcome,
    ReplacementRecord,
    SyntheticPair,
    _REJECTED_LINE,
    _Item,
    _provenance_line,
    augment_dictionary,
    augment_rare_words,
    merge_and_dedup,
    query_vector,
    read_provenance,
    rejections_per_set,
    resolve_dictionary_entry,
    resolve_rare_word,
    synthetic_window,
    write_provenance,
)

from micro import corpus_of, inputs_of, ledger_fixture, mono_of, rejected_records
from oracles import (
    outcome_records, process_item_reference, provenance_line_reference, provenance_reference,
    table_from_rows, to_dict,
)


def augment_rare(*args):
    """``augment_rare_words`` with its rejections made records."""
    accepted, rejected = augment_rare_words(*args)
    return accepted, rejected_records(rejected)


def augment_dict(*args, **kwargs):
    """``augment_dictionary`` with its rejections made records."""
    accepted, rejected = augment_dictionary(*args, **kwargs)
    return accepted, rejected_records(rejected)


def run_rare(fx, config):
    inputs = inputs_of(
        fx.corpus, fx.embeddings, fx.alignment, fx.lm_src, fx.lm_tgt, fx.lexicon, config
    )
    return augment_rare(inputs, fx.rare_words, config)


class TestAugmentRareWords:
    def test_ledger_accepted_with_all_gates(self):
        fx = ledger_fixture()
        config = AugmentationConfig(use_word_sim=True, use_pos=True, use_morph=True)
        accepted, rejected = run_rare(fx, config)
        assert len(accepted) == 1
        pair = accepted[0]
        assert pair.source_tokens == ("the", "ledger", "fell")
        assert pair.target_tokens == ("das", "kassenbuch", "fiel")
        record = pair.record
        assert record.accepted
        assert record.base_sentence_id == 0
        assert record.source_span == (1, 1)
        assert record.target_span == (1, 1)
        assert record.word_sim == pytest.approx(fx.EXPECTED_WORD_SIM, abs=1e-12)
        # monolingual corpora are symmetric in book/ledger, so both ratios
        # are exactly 1.0
        assert record.lm_ratio_src == 1.0
        assert record.lm_ratio_tgt == 1.0
        assert record.syntactic_ok is True
        assert [(r.base_sentence_id, r.reason) for r in rejected] == [(1, "word_sim")]

    def test_pos_gate_rejects_verb_candidate(self):
        fx = ledger_fixture(book_pos="VERB")
        config = AugmentationConfig(use_word_sim=True, use_pos=True)
        accepted, rejected = run_rare(fx, config)
        assert accepted == []
        reasons = {r.base_sentence_id: r.reason for r in rejected}
        assert reasons[0] == "pos"

    def test_morph_gate_rejects_number_conflict(self):
        fx = ledger_fixture()
        lexicon = AnnotatedLexicon(
            {
                "book": TokenAnnotation("NOUN", {"Number": "Plur"}),
                "pen": TokenAnnotation("NOUN", {"Number": "Sing"}),
                "ledger": TokenAnnotation("NOUN", {"Number": "Sing"}),
            }
        )
        config = AugmentationConfig(use_word_sim=True, use_pos=True, use_morph=True)
        accepted, rejected = augment_rare(
            inputs_of(fx.corpus, fx.embeddings, fx.alignment, fx.lm_src, fx.lm_tgt, lexicon, config),
            fx.rare_words, config,
        )
        assert accepted == []
        reasons = {r.base_sentence_id: r.reason for r in rejected}
        assert reasons[0] == "morph"

    def test_word_sim_gate_off_still_selects_by_cosine(self):
        # pen scores ~0.02 but with the similarity gate off nothing rejects
        # it; the symmetric LM then accepts both candidates. The low score
        # is still recorded for provenance.
        fx = ledger_fixture()
        config = AugmentationConfig(use_word_sim=False)
        accepted, rejected = run_rare(fx, config)
        assert len(accepted) == 2
        assert {p.record.base_sentence_id for p in accepted} == {0, 1}
        assert rejected == []
        pen = next(p.record for p in accepted if p.record.base_sentence_id == 1)
        assert pen.word_sim == pytest.approx(0.0199960012, abs=1e-9)

    def test_lm_tgt_gate_rejects_unsupported_context(self):
        # same fixture but the pen sentence uses a different article, so the
        # synthetic target trigram contexts are unseen and the target-side
        # ratio collapses
        from corpusaug.aligner import train_ibm1

        fx = ledger_fixture()
        corpus = corpus_of(
            [
                ("the book fell", "das buch fiel"),
                ("the pen fell", "der stift fiel"),
                ("the ledger fell", "das kassenbuch fiel"),
            ]
        )
        lm_tgt = train_lm(
            mono_of(["das buch fiel", "das kassenbuch fiel", "der stift fiel"]), 1
        )
        config = AugmentationConfig(use_word_sim=False)
        accepted, rejected = augment_rare(
            inputs_of(corpus, fx.embeddings, train_ibm1(corpus, 10), fx.lm_src, lm_tgt, fx.lexicon, config),
            fx.rare_words, config,
        )
        assert [p.record.base_sentence_id for p in accepted] == [0]
        assert [(r.base_sentence_id, r.reason) for r in rejected] == [(1, "lm_tgt")]
        assert rejected[0].lm_ratio_src == 1.0
        assert rejected[0].lm_ratio_tgt < 0.6

    def test_max_per_item_takes_higher_ranked(self):
        fx = ledger_fixture()
        config = AugmentationConfig(use_word_sim=False, max_per_item=1)
        accepted, _ = run_rare(fx, config)
        assert len(accepted) == 1
        assert accepted[0].record.base_sentence_id == 0

    def test_unannotated_item_rejected_when_pos_on(self):
        fx = ledger_fixture()
        lexicon = AnnotatedLexicon(
            {
                "book": TokenAnnotation("NOUN", {}),
                "pen": TokenAnnotation("NOUN", {}),
            }
        )
        config = AugmentationConfig(use_pos=True)
        accepted, rejected = augment_rare(
            inputs_of(fx.corpus, fx.embeddings, fx.alignment, fx.lm_src, fx.lm_tgt, lexicon, config),
            fx.rare_words, config,
        )
        assert accepted == []
        assert [r.reason for r in rejected] == ["unannotated"]

    def test_unaligned_rare_word_dropped_with_reason(self):
        fx = ledger_fixture()
        table = table_from_rows({
            "the": {"das": 0.9},
            "fell": {"fiel": 0.9},
            "ledger": {"kassenbuch": 0.001},
            "book": {"buch": 0.9},
            "pen": {"stift": 0.9},
            NULL_TOKEN: {"kassenbuch": 0.9, "das": 0.01, "fiel": 0.01},
        })
        config = AugmentationConfig()
        accepted, rejected = augment_rare(
            inputs_of(fx.corpus, fx.embeddings, table, fx.lm_src, fx.lm_tgt, fx.lexicon, config),
            fx.rare_words, config,
        )
        assert accepted == []
        assert [(r.reason, r.base_sentence_id) for r in rejected] == [("unaligned", 2)]

    def test_missing_query_vector_is_coverage(self):
        fx = ledger_fixture()
        embeddings = EmbeddingTable(("book",), np.array([[1.0, 0.0]]))
        config = AugmentationConfig()
        accepted, rejected = augment_rare(
            inputs_of(fx.corpus, embeddings, fx.alignment, fx.lm_src, fx.lm_tgt, fx.lexicon, config),
            fx.rare_words, config,
        )
        assert accepted == []
        assert [r.reason for r in rejected] == ["coverage"]

    def test_hosts_never_candidates(self):
        fx = ledger_fixture()
        accepted, rejected = run_rare(fx, AugmentationConfig(use_word_sim=False))
        seen = {r.base_sentence_id for r in rejected}
        seen.update(p.record.base_sentence_id for p in accepted)
        assert 2 not in seen

    def test_sent_sim_records_score_and_limits_candidates(self):
        fx = ledger_fixture()
        config = AugmentationConfig(use_sent_sim=True, sent_k=1, use_word_sim=False)
        accepted, rejected = run_rare(fx, config)
        assert len(accepted) + len(rejected) == 1
        considered = (accepted + [])[0].record if accepted else rejected[0]
        assert considered.sent_sim is not None

    def test_inputs_indexed_for_another_mode_refused(self):
        fx = ledger_fixture()
        inputs = inputs_of(
            fx.corpus, fx.embeddings, fx.alignment, fx.lm_src, fx.lm_tgt, fx.lexicon,
            AugmentationConfig(),
        )
        with pytest.raises(ConfigError, match="syntactic mode"):
            augment_rare_words(inputs, fx.rare_words, AugmentationConfig(use_pos=True))

    def test_repeat_runs_identical_output(self):
        fx = ledger_fixture()
        config = AugmentationConfig(use_word_sim=False)
        a1, r1 = run_rare(fx, config)
        a2, r2 = run_rare(fx, config)
        assert [p.record for p in a1] == [p.record for p in a2]
        assert r1 == r2
        assert [p.source_tokens for p in a1] == [p.source_tokens for p in a2]
        assert [p.target_tokens for p in a1] == [p.target_tokens for p in a2]


def dict_fixture():
    corpus = corpus_of(
        [
            ("the statement fell", "die erklaerung fiel"),
            ("the pen fell", "der stift fiel"),
        ]
    )
    embeddings = EmbeddingTable(
        ("statement", "pen", "annual", "report"),
        np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.1], [1.0, 0.05]]),
    )
    lexicon = AnnotatedLexicon(
        {
            "statement": TokenAnnotation("NOUN", {"Number": "Sing"}),
            "pen": TokenAnnotation("NOUN", {"Number": "Sing"}),
            "report": TokenAnnotation("NOUN", {"Number": "Sing"}),
            "annual": TokenAnnotation("ADJ", {}),
        }
    )
    alignment = table_from_rows({
        "the": {"die": 0.5, "der": 0.4},
        "statement": {"erklaerung": 0.9},
        "pen": {"stift": 0.9},
        "fell": {"fiel": 0.9},
        NULL_TOKEN: {"die": 0.1, "der": 0.1, "erklaerung": 0.01, "stift": 0.01, "fiel": 0.1},
    })
    lm_src = train_lm(
        mono_of(["the statement fell"] + ["the annual report fell"] * 3), 1
    )
    lm_tgt = train_lm(
        mono_of(["die erklaerung fiel"] + ["die jahres bericht fiel"] * 3), 1
    )
    entries = [DictionaryEntry(("annual", "report"), ("jahres", "bericht"))]
    return corpus, entries, embeddings, alignment, lm_src, lm_tgt, lexicon


class TestLmGatePath:
    """``_process_items`` on the toy fixture: the LM gates are scored in
    rounds, yet the records stop at the ``max_per_item``-th accept, each LM
    gate a returned record reached is one ``lm_ratio_accept`` call, and a
    round makes at most two ``stream_scores`` calls."""

    @pytest.fixture(scope="class")
    def toy_run(self, toy, tmp_path_factory):
        out = tmp_path_factory.mktemp("gates") / "run"
        cfg = toy.write_config(out.parent / "run.cfg", out)
        assert main(["prepare", "--config", str(cfg)]) == 0
        config = resolve_config(parse_config_file(cfg))
        inputs, rare_words, dictionary = _load_run(config, out / "cache", "both")
        items = [resolve_rare_word(rare, inputs, config.augmentation.max_span)
                 for rare in rare_words]
        items += [resolve_dictionary_entry(entry, inputs, set(), "all") for entry in dictionary]
        return inputs, config.augmentation, [item for item in items if isinstance(item, _Item)]

    @pytest.mark.parametrize("max_per_item", [1, 2, 3])
    def test_cut_and_one_call_per_gate(self, toy_run, monkeypatch, max_per_item):
        inputs, config, items = toy_run
        calls, scored, searched = [], [], []
        score, scores_of = pipeline.lm_ratio_accept, pipeline.stream_scores
        search = pipeline.best_word_in_sentence

        def halving(model, stream, windows, insert_ids, insert_lengths):
            # Every toy candidate that reaches the LM gates passes them, so
            # each round would end at an accept. Halving the spliced score of
            # some windows by their sentence id, span start and side (the
            # same in every run) puts refusals between the accepts on each
            # side, and the cut inside a round.
            scored.append(len(windows))
            scores = scores_of(model, stream, windows, insert_ids, insert_lengths)
            side = model is inputs.lm_tgt
            halved = ((windows[:, 0] + windows[:, 1] + side) % 3 == 0) & (insert_lengths > 0)
            scores[halved] /= 2
            return scores

        def gate(*args):
            calls.append(args)
            return score(*args)

        def counting_search(*args):
            searched.append(args)
            return search(*args)

        monkeypatch.setattr(pipeline, "stream_scores", halving)
        monkeypatch.setattr(pipeline, "lm_ratio_accept", gate)
        monkeypatch.setattr(pipeline, "best_word_in_sentence", counting_search)
        candidates = Candidates(np.arange(len(inputs.corpus)))
        unlimited = dataclasses.replace(config, max_per_item=len(inputs.corpus))
        full = [outcome_records(outcome) for _, outcome in pipeline._process_items(
            [(item, candidates) for item in items], inputs, unlimited
        )]
        capped = dataclasses.replace(config, max_per_item=max_per_item)
        cut = 0
        for item, all_records in zip(items, full):
            calls.clear()
            [(pairs, outcome)] = pipeline._process_items([(item, candidates)], inputs, capped)
            records = outcome_records(outcome)
            assert records == all_records[: len(records)]
            accepted = [r for r in records if r.accepted]
            assert [p.record for p in pairs] == accepted
            assert len(accepted) == min(max_per_item, sum(r.accepted for r in all_records))
            if len(accepted) == max_per_item:
                # No record follows the cut.
                assert records[-1].accepted
                cut += len(records) < len(all_records)
            assert len(calls) == sum(
                (r.lm_ratio_src is not None) + (r.lm_ratio_tgt is not None) for r in records
            )
        assert cut > 0
        assert any(r.reason == REASON_LM_SRC for records in full for r in records)
        assert any(r.reason == REASON_LM_TGT for records in full for r in records)

        # All the items in one call: at most one word search and one LM
        # scoring call per side in each round.
        scored.clear()
        searched.clear()
        rounds, run_round = [], pipeline._round

        def counting_round(*args):
            before = len(scored), len(searched)
            run_round(*args)
            rounds.append((len(scored) - before[0], len(searched) - before[1]))

        monkeypatch.setattr(pipeline, "_round", counting_round)
        pipeline._process_items([(item, candidates) for item in items], inputs, capped)
        assert len(rounds) > 1 and len(searched) > 1
        assert all(rows > 0 for rows in scored)
        assert all(scorings <= 2 and searches <= 1 for scorings, searches in rounds)
        assert sum(scorings for scorings, _ in rounds) == len(scored) > 0


class TestGateLoopOracle:
    """On every ablation preset of the toy, the array gates and the records
    made only for the candidates that reach the target-span gate give what
    the per-candidate reference gives: ``outcome_records`` equal to its
    records field for field, and ``provenance.jsonl`` equal to its lines."""

    @pytest.fixture(scope="class")
    def toy_inputs(self, toy, tmp_path_factory):
        root = tmp_path_factory.mktemp("oracle")
        cfg = toy.write_config(root / "run.cfg", root / "run")
        assert main(["prepare", "--config", str(cfg)]) == 0
        loaded = {}

        def load(preset):
            config = resolve_config(parse_config_file(cfg))
            apply_ablation(config, preset)
            mode = config.augmentation.syntactic_mode()
            if mode not in loaded:
                loaded[mode] = _load_run(config, root / "run" / "cache", "both")
            return config.augmentation, loaded[mode]

        return load, root

    @pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
    def test_records_and_file_equal_reference(self, toy_inputs, preset):
        load, root = toy_inputs
        base, (inputs, rare_words, dictionary) = load(preset)
        word_sims = (0.3, 0.5, 0.8) if base.use_word_sim else (base.word_sim_min,)
        checked = 0
        for max_per_item in (1, 2, 3, 100000):
            for word_sim_min in word_sims:
                config = dataclasses.replace(
                    base, max_per_item=max_per_item, word_sim_min=word_sim_min
                )
                runs = [augment_rare_words(inputs, rare_words, config)]
                if not config.use_sent_sim:
                    runs.append(augment_dictionary(inputs, dictionary, config, "all"))
                for accepted, rejected in runs:
                    outcomes = [e for e in rejected if isinstance(e, ItemOutcome)]
                    item_level = [e for e in rejected if not isinstance(e, ItemOutcome)]
                    # Item-level rejections come first.
                    assert rejected[len(item_level):] == outcomes
                    expected_accepted, expected_rejected = [], list(item_level)
                    for outcome in outcomes:
                        ids, sims = outcome.candidates
                        candidates = list(zip(ids.tolist(), sims or [None] * len(ids)))
                        expected = process_item_reference(outcome.item, candidates, inputs, config)
                        assert outcome_records(outcome) == expected
                        expected_accepted += [r for r in expected if r.accepted]
                        expected_rejected += [r for r in expected if not r.accepted]
                        checked += len(expected)
                    assert [pair.record for pair in accepted] == expected_accepted
                    path = root / "provenance.jsonl"
                    write_provenance(path, accepted, rejected)
                    assert path.read_bytes() == provenance_reference(
                        expected_accepted, expected_rejected
                    ).encode("utf-8")
        assert checked > 0

    @pytest.mark.parametrize("preset", sorted(ABLATION_PRESETS))
    def test_items_do_not_depend_on_their_batch(self, toy_inputs, preset):
        # ``_process_items`` promises that no outcome depends on another
        # item of its call, so an item must fare the same in any batch.
        load, _ = toy_inputs
        base, (inputs, rare_words, dictionary) = load(preset)
        for max_per_item in (1, 2, 3, 100000):
            config = dataclasses.replace(base, max_per_item=max_per_item)
            runs = [augment_rare_words(inputs, rare_words, config)]
            if not config.use_sent_sim:
                runs.append(augment_dictionary(inputs, dictionary, config, "all"))
            for _, rejected in runs:
                items = [(e.item, e.candidates) for e in rejected if isinstance(e, ItemOutcome)]
                assert len(items) > 1
                together = pipeline._process_items(items, inputs, config)
                alone = [pipeline._process_items([item], inputs, config)[0] for item in items]
                assert [pairs for pairs, _ in together] == [pairs for pairs, _ in alone]
                assert [outcome_records(outcome) for _, outcome in together] == [
                    outcome_records(outcome) for _, outcome in alone
                ]
                assert any(pairs for pairs, _ in together)


@st.composite
def _outcomes(draw, scores=st.floats(-1.0, 1.0)):
    """An item outcome drawn field by field: early rejections of every code
    on some candidates, and rejected records, holding the item's objects,
    on some others. The best words' scores are drawn from ``scores``."""
    kind = draw(st.sampled_from(["rare_word", "dictionary"]) | _STRINGS)
    item = _Item(kind, tuple(draw(st.lists(_STRINGS, max_size=3))), np.zeros(1), ("t",))
    n = draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n))
    sims = draw(st.none() | st.lists(st.none() | _FLOATS, min_size=n, max_size=n))
    at = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))
    early = [i for i in at if draw(st.booleans())]
    rejected = [
        (i, ReplacementRecord(
            item.kind, item.surface, ids[i],
            reason=draw(st.sampled_from(["unaligned", "span_too_long", "lm_src", "lm_tgt"])),
            source_span=(0, 0), word_sim=draw(st.floats(-1.0, 1.0)),
            sent_sim=None if sims is None else sims[i],
        ))
        for i in at if i not in early
    ]
    return ItemOutcome(
        item,
        Candidates(np.array(ids, dtype=np.intp), sims),
        np.array(early, dtype=np.intp),
        np.array([draw(st.integers(0, 3)) for _ in early], dtype=np.int8),
        np.array([draw(st.integers(0, 2**62)) for _ in early], dtype=np.intp),
        # The best word's score is a clamped cosine.
        np.array([draw(scores) for _ in early], dtype=np.float64),
        rejected,
        rejected,
    )


class TestEarlyRejectionLines:
    @settings(max_examples=300, deadline=None)
    @given(_outcomes())
    def test_each_line_equals_reference_of_its_record(self, outcome):
        survivors = [record for _, record in outcome.rejected]
        early = [r for r in outcome_records(outcome) if not any(r is s for s in survivors)]
        lines = outcome.early_lines()
        assert len(lines) == len(early) == len(outcome.early_at)
        for line, record in zip(lines, early):
            assert line == provenance_line_reference(record)
            assert _REJECTED_LINE.fullmatch(line)

    @settings(max_examples=200, deadline=None)
    @given(_outcomes(st.sampled_from([0.0, -0.0, 0.5, -1.0, 1.0])))
    def test_repeated_and_signed_zero_scores(self, outcome):
        # Each distinct score is formatted once: a repeated score, and 0.0
        # beside -0.0, must still give each line its own score's text.
        records = [r for r in outcome_records(outcome)
                   if not any(r is s for _, s in outcome.rejected)]
        assert outcome.early_lines() == list(map(provenance_line_reference, records))

    def test_signed_zeros_keep_their_text(self):
        item = _Item("rare_word", ("w",), np.zeros(1), ("t",))
        scores = [0.0, -0.0, 0.0, 0.25, -0.0, 0.25]
        outcome = ItemOutcome(
            item, Candidates(np.arange(len(scores), dtype=np.intp)),
            np.arange(len(scores), dtype=np.intp), np.full(len(scores), 1, dtype=np.int8),
            np.zeros(len(scores), dtype=np.intp), np.array(scores), [], [],
        )
        texts = [json.loads(line)["word_sim"] for line in outcome.early_lines()]
        assert [math.copysign(1.0, t) for t in texts] == [math.copysign(1.0, s) for s in scores]
        assert texts == scores
        assert [line.count('"word_sim": -0.0}') for line in outcome.early_lines()] == [
            0, 1, 0, 0, 1, 0]

    @settings(max_examples=200, deadline=None)
    @given(_outcomes())
    def test_item_text_and_counts_equal_its_records(self, outcome):
        # Every survivor drawn is rejected, so every record is.
        records = outcome_records(outcome)
        assert outcome.provenance() == "".join(map(provenance_line_reference, records))
        assert outcome.counts() == Counter(record.reason for record in records)


class TestAugmentDictionary:
    def test_phrase_replacement_grows_sentence(self):
        corpus, entries, emb, table, lm_src, lm_tgt, lex = dict_fixture()
        config = AugmentationConfig(use_word_sim=True, use_pos=True)
        accepted, rejected = augment_dict(
            inputs_of(corpus, emb, table, lm_src, lm_tgt, lex, config), entries, config
        )
        assert len(accepted) == 1
        pair = accepted[0]
        assert pair.source_tokens == ("the", "annual", "report", "fell")
        assert pair.target_tokens == ("die", "jahres", "bericht", "fiel")
        assert pair.record.source_inserted == ("annual", "report")
        assert len(pair.record.source_inserted) == 2
        assert pair.record.item_kind == "dictionary"
        # pen sentence rejected on similarity
        assert [(r.base_sentence_id, r.reason) for r in rejected] == [(1, "word_sim")]

    def test_term_embedding_coverage_required(self):
        corpus, _, emb, table, lm_src, lm_tgt, lex = dict_fixture()
        entries = [DictionaryEntry(("unknowntok", "report"), ("x",))]
        config = AugmentationConfig()
        accepted, rejected = augment_dict(
            inputs_of(corpus, emb, table, lm_src, lm_tgt, lex, config), entries, config
        )
        assert accepted == []
        assert [r.reason for r in rejected] == ["coverage"]

    def test_scope_oov_only_skips_in_vocabulary_terms(self):
        corpus, _, emb, table, lm_src, lm_tgt, lex = dict_fixture()
        entries = [DictionaryEntry(("statement",), ("erklaerung",))]
        config = AugmentationConfig()
        accepted, rejected = augment_dict(
            inputs_of(corpus, emb, table, lm_src, lm_tgt, lex, config), entries, config
        )
        assert accepted == []
        assert [r.reason for r in rejected] == ["in_vocabulary"]

    def test_scope_all_processes_in_vocabulary_terms(self):
        corpus, _, emb, table, lm_src, lm_tgt, lex = dict_fixture()
        entries = [DictionaryEntry(("statement",), ("erklaerung",))]
        config = AugmentationConfig()
        accepted, rejected = augment_dict(
            inputs_of(corpus, emb, table, lm_src, lm_tgt, lex, config), entries, config,
            scope="all",
        )
        # own token is excluded from candidate positions, so the statement
        # sentence offers nothing similar enough
        reasons = {r.reason for r in rejected}
        assert "in_vocabulary" not in reasons

    def test_sentence_similarity_refused(self):
        corpus, entries, emb, table, lm_src, lm_tgt, lex = dict_fixture()
        config = AugmentationConfig(use_sent_sim=True)
        with pytest.raises(ConfigError, match="sentence-similarity"):
            augment_dictionary(
                inputs_of(corpus, emb, table, lm_src, lm_tgt, lex, config), entries, config
            )

    def test_all_sentences_are_candidates(self):
        corpus, entries, emb, table, lm_src, lm_tgt, lex = dict_fixture()
        config = AugmentationConfig(use_word_sim=False)
        accepted, rejected = augment_dict(
            inputs_of(corpus, emb, table, lm_src, lm_tgt, lex, config), entries, config
        )
        touched = {p.record.base_sentence_id for p in accepted}
        touched.update(r.base_sentence_id for r in rejected)
        assert touched == {0, 1}


class TestApplyReplacement:
    """A replacement splices each side of the pair with ``synthetic_window``."""

    def test_splice(self):
        assert synthetic_window(("a", "b", "c"), (1, 1), ["X"]) == (("a", "X", "c"), (1, 1))
        assert synthetic_window(("x", "y"), (0, 0), ["Z"]) == (("Z", "y"), (0, 0))

    def test_growing_splice(self):
        tokens, span = synthetic_window(("a", "b", "c"), (1, 1), ["p", "q"])
        assert tokens == ("a", "p", "q", "c")
        assert span == (1, 2)

    def test_full_replacement(self):
        assert synthetic_window(("a", "b", "c"), (0, 2), ["Y"]) == (("Y",), (0, 0))

    def test_out_of_range_is_error(self):
        with pytest.raises(ValueError):
            synthetic_window(("a", "b"), (0, 2), ["Y"])

    def test_base_unmodified(self):
        base = Sentence(0, ("a", "b", "c"))
        synthetic_window(base.tokens, (1, 1), ["X"])
        assert base.tokens == ("a", "b", "c")

    def test_splice_round_trip_random(self):
        # removing the inserted tokens and restoring the span reproduces the
        # base sentence exactly
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 10)
            tokens = tuple(f"t{i}" for i in range(n))
            start = rng.randint(0, n - 1)
            end = rng.randint(start, n - 1)
            insert = tuple(f"i{k}" for k in range(rng.randint(1, 4)))
            out, span = synthetic_window(tokens, (start, end), insert)
            assert span == (start, start + len(insert) - 1)
            assert out[span[0] : span[1] + 1] == insert
            restored = out[:start] + tokens[start : end + 1] + out[start + len(insert):]
            assert restored == tokens


class TestReplacementDefinitions:
    def table(self):
        return EmbeddingTable(("a", "b"), np.array([[0.1, 0.7], [0.3, -0.2]]))

    def test_one_token_query_vector_is_the_token_vector(self):
        table = self.table()
        assert query_vector(("a",), table).tobytes() == table.get("a").tobytes()

    def test_term_query_vector_is_the_mean(self):
        assert np.allclose(query_vector(("a", "b"), self.table()), [0.2, 0.25])

    def test_uncovered_token_has_no_query_vector(self):
        assert query_vector(("a", "zz"), self.table()) is None
        assert query_vector(("zz",), self.table()) is None

    def test_synthetic_window_covers_the_insertion(self):
        tokens, span = synthetic_window(("a", "b", "c"), (1, 1), ("p", "q"))
        assert tokens == ("a", "p", "q", "c")
        assert span == (1, 2)
        tokens, span = synthetic_window(("a", "b", "c"), (0, 2), ("x",))
        assert (tokens, span) == (("x",), (0, 0))

    def test_synthetic_window_refuses_empty_insertion(self):
        with pytest.raises(ValueError):
            synthetic_window(("a", "b"), (0, 0), ())


class TestMergeAndDedup:
    def pair(self, src, tgt, record=None):
        return SyntheticPair(
            tuple(src.split()),
            tuple(tgt.split()),
            record or ReplacementRecord("rare_word", ("w",), 0, accepted=True),
        )

    def base(self):
        return corpus_of([("a b", "x y"), ("c d", "z w")])

    def test_novel_synthetic_appended(self):
        merged, manifest = merge_and_dedup(self.base(), [[self.pair("e f", "u v")]])
        assert len(merged) == 3
        assert manifest["sets"][0] == {"name": "set0", "accepted": 1, "deduped": 0}
        assert merged.source[2].tokens == ("e", "f")
        assert merged.source[2].id == 2

    def test_duplicate_of_base_dropped(self):
        pair = self.pair("a b", "x y")
        merged, manifest = merge_and_dedup(self.base(), [[pair]])
        assert len(merged) == 2
        assert manifest["sets"][0]["deduped"] == 1
        assert pair.record.accepted is False
        assert pair.record.reason == "duplicate"

    def test_same_synthetic_in_two_sets_kept_once(self):
        one, two = self.pair("e f", "u v"), self.pair("e f", "u v")
        merged, manifest = merge_and_dedup(self.base(), [[one], [two]], ["r", "d"])
        assert len(merged) == 3
        assert manifest["sets"][0]["accepted"] == 1
        assert manifest["sets"][1]["deduped"] == 1

    def test_soft_cap_warning(self):
        pairs = [self.pair(f"s{i}", f"t{i}") for i in range(4)]
        _, manifest = merge_and_dedup(self.base(), [pairs], soft_cap=3)
        assert manifest["warnings"]
        _, manifest2 = merge_and_dedup(self.base(), [pairs[:2]], soft_cap=3)
        assert manifest2["warnings"] == []


class TestProvenance:
    def test_round_trip(self, tmp_path):
        fx = ledger_fixture()
        accepted, rejected = run_rare(fx, AugmentationConfig())
        assert accepted and rejected
        path = tmp_path / "prov.jsonl"
        write_provenance(path, accepted, rejected)
        records = [p.record for p in accepted] + list(rejected)
        assert path.read_text(encoding="utf-8") == "".join(map(provenance_line_reference, records))
        assert read_provenance(path) == [p.record for p in accepted]

    def test_other_layouts_are_parsed_in_full(self, tmp_path):
        fx = ledger_fixture()
        accepted, rejected = run_rare(fx, AugmentationConfig())
        path = tmp_path / "prov.jsonl"
        # Unsorted keys and compact separators: valid records the writer never gives.
        lines = [json.dumps(to_dict(r), separators=(",", ":")) for r in rejected]
        lines += ["", json.dumps(to_dict(accepted[0].record))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert not any(_REJECTED_LINE.fullmatch(line) for line in lines)
        assert read_provenance(path) == [accepted[0].record]

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no limit on integer digits")
    def test_integer_json_cannot_convert_is_not_skipped(self, tmp_path):
        line = _provenance_line(ReplacementRecord("rare_word", ("w",), base_sentence_id=7))
        huge = "1" * (sys.get_int_max_str_digits() + 1)
        line = line.replace('"base_sentence_id": 7', f'"base_sentence_id": {huge}')
        assert not _REJECTED_LINE.fullmatch(line)
        path = tmp_path / "prov.jsonl"
        path.write_text(line, encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"prov\.jsonl:1: not a record"):
            read_provenance(path)

    def test_rejection_counts(self):
        fx = ledger_fixture()
        config = AugmentationConfig()
        _, rejected = augment_rare_words(
            inputs_of(fx.corpus, fx.embeddings, fx.alignment, fx.lm_src, fx.lm_tgt, fx.lexicon,
                      config),
            fx.rare_words, config,
        )
        assert [type(entry) for entry in rejected] == [ItemOutcome]
        assert rejections_per_set(rejected, ["rare_word", "dictionary"]) == {
            "rare_word": {"word_sim": 1}, "dictionary": {},
        }


_FIELD_ORDER = sorted(f.name for f in dataclasses.fields(ReplacementRecord))
_STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀", "\\u0041", ""]),
)
_INTS = st.one_of(st.integers(), st.integers(min_value=-10**400, max_value=10**400))
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1e16]),
)


def _records(accepted=st.booleans()):
    tokens = st.lists(_STRINGS, max_size=3).map(tuple)
    span = st.tuples(_INTS, _INTS)
    number = st.one_of(_FLOATS, _INTS)
    return st.builds(
        ReplacementRecord,
        item_kind=_STRINGS,
        item_surface=tokens,
        base_sentence_id=st.none() | _INTS,
        accepted=accepted,
        reason=st.none() | _STRINGS,
        source_span=st.none() | span,
        source_inserted=st.none() | tokens,
        target_span=st.none() | span,
        target_inserted=st.none() | tokens,
        word_sim=st.none() | number,
        sent_sim=st.none() | number,
        syntactic_ok=st.none() | st.booleans(),
        lm_ratio_src=st.none() | number,
        lm_ratio_tgt=st.none() | number,
    )


# Values, valid and not, that a mutant puts in place of a field's value, and
# fragments that it splices in anywhere.
_VALUES = ["null", "true", "false", "0", "-0", "01", "1.", ".5", "1e5", "-1.5E-3", "1e", "+1",
           "NaN", "-NaN", "Infinity", "-Infinity", "nul", "{}", '"accepted": false', '"a"', '"a',
           '"a\\"b"', '"\\/"', '"\\u00e9"', '"\\ud800"', '"\\x"', '"\\a"', '"\\u12"', '"\x01"',
           '"\x1f"', '"\x7f"', "[]", "[1, 2]", "[1,2]", "[1, 2, 3]", "[-1, 0]", "[1.5, 2]",
           "[1, 2e0]", "[true, 1]", "[1]", '["a"]', '["a", 1]', '["a",  "b"]', '["a",]',
           '["\x01"]', "[[]]", "[null, null]", "[1, null]"]
_PIECES = ['"', "\\", ",", ", ", ":", "[", "]", "{", "}", " ", "0", "-", "1", ".", "e", "\x01",
           "\\u12", "é", "\n", ', "accepted": true', ', "bogus": 1', ""]


def _line_of(values):
    return "{" + ", ".join(f'"{key}": {values[key]}' for key in _FIELD_ORDER) + "}\n"


def _check_skippable(line):
    """A line the pattern matches must be a rejected record that the full
    parse accepts, with exactly the record's keys."""
    if not _REJECTED_LINE.fullmatch(line):
        return False
    pairs = json.loads(line, object_pairs_hook=list)
    assert [key for key, _ in pairs] == _FIELD_ORDER
    fields_ = dict(pairs)
    assert fields_["accepted"] is False
    ReplacementRecord.from_dict(fields_)
    return True


class TestProvenanceFormat:
    """The record line writer and the pattern of the lines ``verify`` skips."""

    @settings(max_examples=200, deadline=None)
    @given(_records())
    def test_line_equals_generic_encoder(self, record):
        assert _provenance_line(record) == provenance_line_reference(record)

    @settings(max_examples=200, deadline=None)
    @given(_records())
    def test_pattern_matches_exactly_the_rejected_lines(self, record):
        assert bool(_REJECTED_LINE.fullmatch(_provenance_line(record))) == (not record.accepted)

    def test_every_field_value_swap_keeps_the_pattern_sound(self):
        record = ReplacementRecord(
            "rare_word", ("a", "b"), 3, False, "lm_src", (1, 1), ("a",), (2, 3), ("x", "y"),
            0.5, None, True, 1.25, None,
        )
        values = {key: json.dumps(value) for key, value in to_dict(record).items()}
        assert _check_skippable(_line_of(values))
        matched = 0
        for key in _FIELD_ORDER:
            for value in _VALUES:
                matched += _check_skippable(_line_of(dict(values, **{key: value})))
        assert matched > len(_FIELD_ORDER)

    @settings(max_examples=400, deadline=None)
    @given(_records(accepted=st.just(False)), st.data())
    def test_a_matching_mutant_is_a_rejected_record(self, record, data):
        values = {key: json.dumps(v, ensure_ascii=False) for key, v in to_dict(record).items()}
        for _ in range(data.draw(st.integers(0, 3))):
            values[data.draw(st.sampled_from(_FIELD_ORDER))] = data.draw(st.sampled_from(_VALUES))
        line = _line_of(values)
        for _ in range(data.draw(st.integers(0, 2))):
            start = data.draw(st.integers(0, len(line)))
            end = data.draw(st.integers(start, min(len(line), start + 4)))
            line = line[:start] + data.draw(st.sampled_from(_PIECES)) + line[end:]
        _check_skippable(line)

    def test_writer_refuses_what_json_refuses(self):
        for value in (np.int64(3), object()):
            record = ReplacementRecord("rare_word", ("w",), word_sim=value)
            with pytest.raises(TypeError):
                provenance_line_reference(record)
            with pytest.raises(TypeError):
                _provenance_line(record)

    def test_float_subclass_takes_the_float_path(self):
        record = ReplacementRecord(
            "rare_word", ("w",), word_sim=np.float64(0.1), sent_sim=np.float64("nan")
        )
        assert _provenance_line(record) == provenance_line_reference(record)
        assert '"word_sim": 0.1}' in _provenance_line(record)


@st.composite
def _item_records(draw):
    """Records drawn to share items, as the gate loop gives them: each holds
    one of a few (kind, surface) pairs, two kinds may share one surface
    object, or an equal copy of the surface, so runs of one item repeat and
    interleave.
    Some insert their item's surface object or a shared target, some hold
    an ``np.float64``, a few an int where a flag goes, and a few an
    ``np.int64``, which json refuses."""
    tokens = st.lists(_STRINGS, max_size=3).map(tuple)
    kinds = st.sampled_from(["rare_word", "dictionary"]) | _STRINGS
    surfaces = draw(st.lists(tokens, min_size=1, max_size=3))
    items = draw(st.lists(st.tuples(kinds, st.sampled_from(surfaces)), min_size=1, max_size=4))
    targets = draw(st.lists(tokens, min_size=1, max_size=2))
    records = []
    for _ in range(draw(st.integers(0, 12))):
        record = draw(_records())
        record.item_kind, record.item_surface = draw(st.sampled_from(items))
        if draw(st.booleans()):
            record.source_inserted = record.item_surface
        if draw(st.booleans()):
            record.target_inserted = draw(st.sampled_from(targets))
        if draw(st.integers(0, 3)) == 0:
            record.item_surface = tuple(list(record.item_surface))
        if draw(st.booleans()):
            record.word_sim = np.float64(draw(_FLOATS))
        if draw(st.integers(0, 9)) == 0:
            flag = draw(st.sampled_from(["accepted", "syntactic_ok"]))
            setattr(record, flag, draw(st.integers(0, 1)))
        if draw(st.integers(0, 19)) == 0:
            setattr(record, draw(st.sampled_from(_FIELD_ORDER)), np.int64(3))
        records.append(record)
    return records


class TestProvenanceWriter:
    """``write_provenance`` writes each item's records at once; the file must
    be the reference encoder's lines, in order."""

    @settings(max_examples=200, deadline=None)
    @given(_item_records(), st.data())
    def test_file_equals_reference_lines(self, records, data):
        split = data.draw(st.integers(0, len(records)))
        accepted = [SyntheticPair((), (), record) for record in records[:split]]
        try:
            expected = "".join(provenance_line_reference(record) for record in records)
        except TypeError:
            expected = None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "provenance.jsonl"
            if expected is None:
                with pytest.raises(TypeError):
                    write_provenance(path, accepted, records[split:])
            else:
                write_provenance(path, accepted, records[split:])
                assert path.read_bytes() == expected.encode("utf-8")


class TestConfigValidation:
    def test_morph_requires_pos(self):
        with pytest.raises(ConfigError):
            AugmentationConfig(use_morph=True, use_pos=False).validate()

    def test_ranges(self):
        with pytest.raises(ConfigError):
            AugmentationConfig(t_r=0).validate()
        with pytest.raises(ConfigError):
            AugmentationConfig(lm_threshold=0.0).validate()
        with pytest.raises(ConfigError):
            AugmentationConfig(word_sim_min=1.5).validate()
        with pytest.raises(ConfigError):
            AugmentationConfig(max_per_item=0).validate()

    def test_defaults_are_reference_operating_point(self):
        config = AugmentationConfig()
        assert config.t_r == 1
        assert config.alpha_src == -0.15
        assert not hasattr(config, "alpha_tgt")
        assert config.lm_threshold == 0.6
        config.validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5])
    def test_lm_threshold_must_be_positive_and_finite(self, value):
        with pytest.raises(ConfigError, match="lm_threshold must be positive and finite"):
            AugmentationConfig(lm_threshold=value).validate()


class TestConstraintMonotonicity:
    def test_gates_only_filter_on_micro_fixture(self):
        fx = ledger_fixture()
        chain = [
            AugmentationConfig(use_word_sim=False),
            AugmentationConfig(use_word_sim=True),
            AugmentationConfig(use_word_sim=True, use_pos=True),
            AugmentationConfig(use_word_sim=True, use_pos=True, use_morph=True),
        ]
        counts = [len(run_rare(fx, config)[0]) for config in chain]
        assert counts == sorted(counts, reverse=True)
