import logging
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusaug.aligner import (
    DIRECTION_SRC_GIVEN_TGT,
    DIRECTION_TGT_GIVEN_SRC,
    DIRECTIONS,
    NULL_TOKEN,
    PharaohFormatError,
    SentenceAlignment,
    TargetSpan,
    TranslationTable,
    export_pharaoh,
    import_pharaoh,
    load_translation_table,
    save_translation_table,
    target_span,
    train_ibm1,
    translate_rare_word,
    viterbi_align,
)
from corpusaug.corpus_io import ParallelCorpus, RareWord, Sentence

from oracles import ibm1_dict_reference, ibm1_reference


def make_corpus(pairs):
    src = tuple(Sentence(i, tuple(s.split())) for i, (s, _) in enumerate(pairs))
    tgt = tuple(Sentence(i, tuple(t.split())) for i, (_, t) in enumerate(pairs))
    return ParallelCorpus(src, tgt)


CLASSIC = [("the house", "das haus"), ("the book", "das buch"), ("a book", "ein buch")]


class TestTrainIbm1:
    def test_classic_corpus_learns_content_words(self):
        table = train_ibm1(make_corpus(CLASSIC), 20)
        assert table.prob("haus", "house") > 0.9
        assert table.prob("buch", "book") > 0.9

    def test_matches_independent_dense_reference(self):
        pairs = [(s.split(), t.split()) for s, t in CLASSIC]
        ref_t, src_vocab, tgt_vocab, ref_ll = ibm1_reference(pairs, 20)
        table = train_ibm1(make_corpus(CLASSIC), 20)
        for e, e_i in src_vocab.items():
            for f, f_i in tgt_vocab.items():
                assert table.prob(f, e) == pytest.approx(ref_t[f_i, e_i + 1], abs=1e-12)
        for f, f_i in tgt_vocab.items():
            assert table.prob(f, NULL_TOKEN) == pytest.approx(ref_t[f_i, 0], abs=1e-12)
        assert list(table.log_likelihoods) == pytest.approx(ref_ll, abs=1e-9)

    def test_single_pair_single_iteration(self):
        table = train_ibm1(make_corpus([("a", "x")]), 1)
        # one normalized count each for 'a' and NULL
        assert table.prob("x", "a") == 1.0
        assert table.prob("x", NULL_TOKEN) == 1.0

    def test_rows_normalize(self):
        table = train_ibm1(make_corpus(CLASSIC), 7)
        for e, row in table.t.items():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-6)

    def test_loglik_nondecreasing(self):
        table = train_ibm1(make_corpus(CLASSIC), 15)
        lls = table.log_likelihoods
        assert len(lls) == 15
        for a, b in zip(lls, lls[1:]):
            assert b >= a - 1e-9

    def test_loglik_nondecreasing_random_corpora(self):
        rng = random.Random(13)
        words = ["w%d" % i for i in range(12)]
        trans = ["v%d" % i for i in range(12)]
        for _ in range(5):
            pairs = []
            for _ in range(rng.randint(2, 10)):
                n = rng.randint(1, 5)
                src = " ".join(rng.choice(words) for _ in range(n))
                tgt = " ".join(rng.choice(trans) for _ in range(rng.randint(1, 5)))
                pairs.append((src, tgt))
            table = train_ibm1(make_corpus(pairs), 8)
            for a, b in zip(table.log_likelihoods, table.log_likelihoods[1:]):
                assert b >= a - 1e-9

    def test_repeat_calls_bit_identical(self):
        corpus = make_corpus(CLASSIC * 4)
        first = train_ibm1(corpus, 6)
        second = train_ibm1(corpus, 6)
        assert first.t == second.t
        assert first.log_likelihoods == second.log_likelihoods

    def test_unique_one_token_pairs_align_perfectly(self):
        pairs = [("s%d" % i, "t%d" % i) for i in range(10)]
        corpus = make_corpus(pairs)
        table = train_ibm1(corpus, 2)
        for i, (s, t) in enumerate(corpus.pairs()):
            alignment = viterbi_align((s, t), table)
            assert alignment.links == ((0, 0),)

    def test_empty_or_invalid_args(self):
        with pytest.raises(ValueError):
            train_ibm1(make_corpus(CLASSIC), 0)
        with pytest.raises(ValueError):
            train_ibm1(make_corpus(CLASSIC), 5, direction="sideways")


def _token_lists(prefix, vocab_size):
    # A small vocabulary makes tokens repeat within a sentence; min_size=1
    # keeps 1-token sentences in reach of the shrinker.
    token = st.integers(0, vocab_size - 1).map(lambda i: f"{prefix}{i}")
    return st.lists(token, min_size=1, max_size=12)


@st.composite
def em_cases(draw):
    """(pairs as token lists, iterations, direction)."""
    src = _token_lists("s", draw(st.integers(1, 6)))
    tgt = _token_lists("t", draw(st.integers(1, 6)))
    pairs = draw(st.lists(st.tuples(src, tgt), min_size=1, max_size=8))
    if draw(st.booleans()):
        # a target word that co-occurs with a single source word (and NULL)
        pairs.insert(draw(st.integers(0, len(pairs))), (["lone"], ["only"]))
    return pairs, draw(st.integers(1, 12)), draw(st.sampled_from(DIRECTIONS))


class TestDictParity:
    """The array EM equals the dict-of-dict loop bit for bit, not approximately."""

    @settings(max_examples=300, deadline=None)
    @given(em_cases())
    @example(([(["a", "a", "b"], ["x", "x", "y", "x"])], 3, DIRECTION_TGT_GIVEN_SRC))
    @example(([(["a"], ["x"]), (["b"], ["y"]), (["a"], ["y"])], 12, DIRECTION_TGT_GIVEN_SRC))
    @example(([(["a", "b"], ["x", "y"]), (["lone"], ["only"])], 5, DIRECTION_SRC_GIVEN_TGT))
    def test_table_and_loglik_equal_dict_loop(self, case):
        pairs, iterations, direction = case
        corpus = make_corpus([(" ".join(src), " ".join(tgt)) for src, tgt in pairs])
        table = train_ibm1(corpus, iterations, direction)
        reference = ibm1_dict_reference(corpus, iterations, direction)
        assert table.direction == reference.direction
        assert table.t == reference.t
        assert table.log_likelihoods == reference.log_likelihoods


class TestViterbi:
    def table(self, t):
        return TranslationTable(t=t)

    def test_argmax_link(self):
        table = self.table({"house": {"haus": 0.95}, NULL_TOKEN: {"haus": 0.01}})
        pair = (Sentence(0, ("house",)), Sentence(0, ("haus",)))
        assert viterbi_align(pair, table).links == ((0, 0),)

    def test_tie_breaks_lowest_target_index(self):
        table = self.table({"e": {"f": 0.4}, NULL_TOKEN: {"f": 0.1}})
        pair = (Sentence(0, ("e",)), Sentence(0, ("f", "f")))
        assert viterbi_align(pair, table).links == ((0, 0),)

    def test_null_wins_when_stronger(self):
        table = self.table({"e": {"f": 0.2}, NULL_TOKEN: {"f": 0.9}})
        pair = (Sentence(0, ("e",)), Sentence(0, ("f",)))
        assert viterbi_align(pair, table).links == ()

    def test_null_last_on_tie(self):
        table = self.table({"e": {"f": 0.5}, NULL_TOKEN: {"f": 0.5}})
        pair = (Sentence(0, ("e",)), Sentence(0, ("f",)))
        assert viterbi_align(pair, table).links == ((0, 0),)

    def test_unseen_source_token_warns_and_skips(self, caplog):
        table = self.table({NULL_TOKEN: {"f": 0.5}})
        pair = (Sentence(0, ("mystery",)), Sentence(0, ("f",)))
        with caplog.at_level(logging.WARNING):
            alignment = viterbi_align(pair, table)
        assert alignment.links == ()
        assert any("mystery" in rec.message for rec in caplog.records)

    def test_direction_guard(self):
        table = TranslationTable(t={}, direction="src_given_tgt")
        with pytest.raises(ValueError):
            viterbi_align((Sentence(0, ("a",)), Sentence(0, ("b",))), table)


class TestTargetSpan:
    def test_single_link(self):
        assert target_span(SentenceAlignment(((2, 5),)), 2) == TargetSpan(5, 5)

    def test_unlinked(self):
        assert target_span(SentenceAlignment(()), 0) is None

    def test_span_cap(self):
        alignment = SentenceAlignment(((1, 0), (1, 7)))
        assert target_span(alignment, 1, max_span=5) is None
        assert target_span(alignment, 1, max_span=8) == TargetSpan(0, 7)


def align_all(corpus, table):
    return [viterbi_align(pair, table) for pair in corpus.pairs()]


class TestTranslateRareWord:
    def test_composition(self):
        corpus = make_corpus(CLASSIC)
        table = train_ibm1(corpus, 20)
        rare = RareWord("house", 1, (0,))
        tokens, reason = translate_rare_word(rare, corpus, align_all(corpus, table))
        assert tokens == ("haus",)
        assert reason is None

    def test_unaligned_reason(self):
        corpus = make_corpus([("a b", "x")])
        table = TranslationTable(
            t={"a": {"x": 0.1}, "b": {"x": 0.2}, NULL_TOKEN: {"x": 0.9}}
        )
        rare = RareWord("a", 1, (0,))
        tokens, reason = translate_rare_word(rare, corpus, align_all(corpus, table))
        assert tokens is None
        assert reason == "unaligned"

    def test_uses_first_host_sentence(self):
        # In host 0 the rare word has no good target, in host 1 it would
        # align; the lowest host id decides, so the result is "unaligned".
        corpus = make_corpus([("house big", "gross dach"), ("house big", "haus gross")])
        table = TranslationTable(
            t={
                "house": {"haus": 0.9, "dach": 0.001, "gross": 0.001},
                "big": {"gross": 0.9},
                NULL_TOKEN: {"dach": 0.5, "gross": 0.5, "haus": 0.01},
            }
        )
        rare = RareWord("house", 2, (1, 0))
        tokens, reason = translate_rare_word(rare, corpus, align_all(corpus, table))
        assert tokens is None
        assert reason == "unaligned"
        # with only the second host it aligns fine
        tokens2, reason2 = translate_rare_word(
            RareWord("house", 2, (1,)), corpus, align_all(corpus, table)
        )
        assert tokens2 == ("haus",)
        assert reason2 is None


class TestPharaoh:
    def test_export(self):
        assert export_pharaoh(SentenceAlignment(((1, 2), (0, 0)))) == "0-0 1-2"

    def test_empty(self):
        assert export_pharaoh(SentenceAlignment(())) == ""
        assert import_pharaoh("").links == ()

    def test_malformed(self):
        with pytest.raises(PharaohFormatError, match="0-x"):
            import_pharaoh("0-0 0-x")

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(30):
            links = sorted(
                {(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(rng.randint(0, 8))}
            )
            alignment = SentenceAlignment(tuple(links))
            assert import_pharaoh(export_pharaoh(alignment)) == alignment


class TestTablePersistence:
    def test_tsv_round_trip(self, tmp_path):
        table = train_ibm1(make_corpus(CLASSIC), 12)
        save_translation_table(table, tmp_path / "t.tsv")
        again = load_translation_table(tmp_path / "t.tsv")
        assert again.direction == table.direction
        assert set(again.t) == set(table.t)
        for e, row in table.t.items():
            for f, p in row.items():
                assert again.t[e][f] == pytest.approx(p, rel=1e-11)

    def test_non_numeric_probability_names_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#direction\ttgt_given_src\nx\ty\t0.5\nx\ty\tnotafloat\n", encoding="utf-8")
        with pytest.raises(PharaohFormatError, match=r"t\.tsv:3: .*'notafloat'"):
            load_translation_table(path)

    def test_rows_sorted_for_stable_diffs(self, tmp_path):
        table = train_ibm1(make_corpus(CLASSIC), 3)
        save_translation_table(table, tmp_path / "t.tsv")
        lines = (tmp_path / "t.tsv").read_text(encoding="utf-8").splitlines()[1:]
        keys = [(line.split("\t")[1], line.split("\t")[0]) for line in lines]
        assert keys == sorted(keys)
