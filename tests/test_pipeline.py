import random

import numpy as np
import pytest

from corpusaug.agreement import AnnotatedLexicon, TokenAnnotation
from corpusaug.aligner import NULL_TOKEN, TranslationTable
from corpusaug.corpus_io import DictionaryEntry, Sentence
from corpusaug.embeddings import EmbeddingTable
from corpusaug.lm import train_lm
from corpusaug.pipeline import (
    AugmentationConfig,
    ConfigError,
    ReplacementRecord,
    SyntheticPair,
    apply_replacement,
    augment_dictionary,
    augment_rare_words,
    merge_and_dedup,
    read_provenance,
    rejection_counts,
    write_provenance,
)

from micro import corpus_of, inputs_of, ledger_fixture, mono_of


def run_rare(fx, config):
    inputs = inputs_of(
        fx.corpus, fx.embeddings, fx.alignment, fx.lm_src, fx.lm_tgt, fx.lexicon, config
    )
    return augment_rare_words(inputs, fx.rare_words, config)


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
        accepted, rejected = augment_rare_words(
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
        accepted, rejected = augment_rare_words(
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
        accepted, rejected = augment_rare_words(
            inputs_of(fx.corpus, fx.embeddings, fx.alignment, fx.lm_src, fx.lm_tgt, lexicon, config),
            fx.rare_words, config,
        )
        assert accepted == []
        assert [r.reason for r in rejected] == ["unannotated"]

    def test_unaligned_rare_word_dropped_with_reason(self):
        fx = ledger_fixture()
        table = TranslationTable(
            t={
                "the": {"das": 0.9},
                "fell": {"fiel": 0.9},
                "ledger": {"kassenbuch": 0.001},
                "book": {"buch": 0.9},
                "pen": {"stift": 0.9},
                NULL_TOKEN: {"kassenbuch": 0.9, "das": 0.01, "fiel": 0.01},
            }
        )
        config = AugmentationConfig()
        accepted, rejected = augment_rare_words(
            inputs_of(fx.corpus, fx.embeddings, table, fx.lm_src, fx.lm_tgt, fx.lexicon, config),
            fx.rare_words, config,
        )
        assert accepted == []
        assert [(r.reason, r.base_sentence_id) for r in rejected] == [("unaligned", 2)]

    def test_missing_query_vector_is_coverage(self):
        fx = ledger_fixture()
        embeddings = EmbeddingTable(2, {"book": np.array([1.0, 0.0])})
        config = AugmentationConfig()
        accepted, rejected = augment_rare_words(
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
        2,
        {
            "statement": np.array([1.0, 0.0]),
            "pen": np.array([0.0, 1.0]),
            "annual": np.array([0.9, 0.1]),
            "report": np.array([1.0, 0.05]),
        },
    )
    lexicon = AnnotatedLexicon(
        {
            "statement": TokenAnnotation("NOUN", {"Number": "Sing"}),
            "pen": TokenAnnotation("NOUN", {"Number": "Sing"}),
            "report": TokenAnnotation("NOUN", {"Number": "Sing"}),
            "annual": TokenAnnotation("ADJ", {}),
        }
    )
    alignment = TranslationTable(
        t={
            "the": {"die": 0.5, "der": 0.4},
            "statement": {"erklaerung": 0.9},
            "pen": {"stift": 0.9},
            "fell": {"fiel": 0.9},
            NULL_TOKEN: {"die": 0.1, "der": 0.1, "erklaerung": 0.01, "stift": 0.01, "fiel": 0.1},
        }
    )
    lm_src = train_lm(
        mono_of(["the statement fell"] + ["the annual report fell"] * 3), 1
    )
    lm_tgt = train_lm(
        mono_of(["die erklaerung fiel"] + ["die jahres bericht fiel"] * 3), 1
    )
    entries = [DictionaryEntry(("annual", "report"), ("jahres", "bericht"))]
    return corpus, entries, embeddings, alignment, lm_src, lm_tgt, lexicon


class TestAugmentDictionary:
    def test_phrase_replacement_grows_sentence(self):
        corpus, entries, emb, table, lm_src, lm_tgt, lex = dict_fixture()
        config = AugmentationConfig(use_word_sim=True, use_pos=True)
        accepted, rejected = augment_dictionary(
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
        accepted, rejected = augment_dictionary(
            inputs_of(corpus, emb, table, lm_src, lm_tgt, lex, config), entries, config
        )
        assert accepted == []
        assert [r.reason for r in rejected] == ["coverage"]

    def test_scope_oov_only_skips_in_vocabulary_terms(self):
        corpus, _, emb, table, lm_src, lm_tgt, lex = dict_fixture()
        entries = [DictionaryEntry(("statement",), ("erklaerung",))]
        config = AugmentationConfig()
        accepted, rejected = augment_dictionary(
            inputs_of(corpus, emb, table, lm_src, lm_tgt, lex, config), entries, config
        )
        assert accepted == []
        assert [r.reason for r in rejected] == ["in_vocabulary"]

    def test_scope_all_processes_in_vocabulary_terms(self):
        corpus, _, emb, table, lm_src, lm_tgt, lex = dict_fixture()
        entries = [DictionaryEntry(("statement",), ("erklaerung",))]
        config = AugmentationConfig()
        accepted, rejected = augment_dictionary(
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
        accepted, rejected = augment_dictionary(
            inputs_of(corpus, emb, table, lm_src, lm_tgt, lex, config), entries, config
        )
        touched = {p.record.base_sentence_id for p in accepted}
        touched.update(r.base_sentence_id for r in rejected)
        assert touched == {0, 1}


class TestApplyReplacement:
    def base(self, src, tgt):
        return (Sentence(0, tuple(src.split())), Sentence(0, tuple(tgt.split())))

    def test_splice(self):
        pair = apply_replacement(self.base("a b c", "x y"), (1, 1), ["X"], (0, 0), ["Z"])
        assert pair.source_tokens == ("a", "X", "c")
        assert pair.target_tokens == ("Z", "y")

    def test_growing_splice(self):
        pair = apply_replacement(self.base("a b c", "x"), (1, 1), ["p", "q"], (0, 0), ["x"])
        assert pair.source_tokens == ("a", "p", "q", "c")

    def test_full_replacement(self):
        pair = apply_replacement(self.base("a b c", "x"), (0, 2), ["Y"], (0, 0), ["x"])
        assert pair.source_tokens == ("Y",)

    def test_out_of_range_is_error(self):
        with pytest.raises(ValueError):
            apply_replacement(self.base("a b", "x"), (0, 2), ["Y"], (0, 0), ["x"])

    def test_base_unmodified(self):
        base = self.base("a b c", "x y")
        apply_replacement(base, (1, 1), ["X"], (0, 0), ["Z"])
        assert base[0].tokens == ("a", "b", "c")

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
            pair = apply_replacement(
                (Sentence(0, tokens), Sentence(0, tokens)),
                (start, end), insert, (start, end), insert,
            )
            out = pair.source_tokens
            restored = out[:start] + tokens[start : end + 1] + out[start + len(insert):]
            assert restored == tokens


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
        path = tmp_path / "prov.jsonl"
        write_provenance(path, accepted, rejected)
        records = read_provenance(path)
        assert records == [p.record for p in accepted] + list(rejected)

    def test_rejection_counts(self):
        fx = ledger_fixture()
        _, rejected = run_rare(fx, AugmentationConfig())
        assert rejection_counts(rejected) == {"word_sim": 1}


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
        assert config.alpha_tgt == 0.15
        assert config.lm_threshold == 0.6
        config.validate()


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
