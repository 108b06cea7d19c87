import logging
import math
import random
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusaug.aligner import (
    ALIGNER_MAGIC,
    NULL_TOKEN,
    REASON_SPAN_TOO_LONG,
    REASON_UNALIGNED,
    PharaohFormatError,
    SentenceAlignment,
    TranslationTable,
    export_pharaoh,
    import_pharaoh,
    load_translation_table,
    round_12g,
    save_translation_table,
    target_span,
    train_ibm1,
    translate_rare_word,
    viterbi_align,
)
from corpusaug.corpus_io import ParallelCorpus, RareWord, Sentence

from cachecases import ALIGNER_CASES, pack, read_cache
from oracles import ibm1_dict_reference, ibm1_reference, table_from_rows, viterbi_reference


def align(pair, table):
    """The ``SentenceAlignment`` of one pair from ``viterbi_align``."""
    return SentenceAlignment.from_targets(viterbi_align([pair], table).tolist())


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
            assert align((s, t), table).links == ((0, 0),)

    def test_empty_or_invalid_args(self):
        with pytest.raises(ValueError):
            train_ibm1(make_corpus(CLASSIC), 0)


def _token_lists(prefix, vocab_size):
    # A small vocabulary makes tokens repeat within a sentence; min_size=1
    # keeps 1-token sentences in reach of the shrinker.
    token = st.integers(0, vocab_size - 1).map(lambda i: f"{prefix}{i}")
    return st.lists(token, min_size=1, max_size=12)


@st.composite
def em_cases(draw):
    """(pairs as token lists, iterations)."""
    src = _token_lists("s", draw(st.integers(1, 6)))
    tgt = _token_lists("t", draw(st.integers(1, 6)))
    pairs = draw(st.lists(st.tuples(src, tgt), min_size=1, max_size=8))
    if draw(st.booleans()):
        # a target word that co-occurs with a single source word (and NULL)
        pairs.insert(draw(st.integers(0, len(pairs))), (["lone"], ["only"]))
    return pairs, draw(st.integers(1, 12))


class TestDictParity:
    """The array EM equals the dict-of-dict loop bit for bit, not approximately."""

    @settings(max_examples=300, deadline=None)
    @given(em_cases())
    @example(([(["a", "a", "b"], ["x", "x", "y", "x"])], 3))
    @example(([(["a"], ["x"]), (["b"], ["y"]), (["a"], ["y"])], 12))
    @example(([(["x", "y"], ["a", "b"]), (["only"], ["lone"])], 5))
    def test_table_and_loglik_equal_dict_loop(self, case):
        pairs, iterations = case
        corpus = make_corpus([(" ".join(src), " ".join(tgt)) for src, tgt in pairs])
        table = train_ibm1(corpus, iterations)
        reference = ibm1_dict_reference(corpus, iterations)
        assert table.t == reference.t
        assert table.log_likelihoods == reference.log_likelihoods
        # The arrays are canonical: equal tables hold equal arrays.
        assert (table.cond_vocab, table.gen_vocab) == (reference.cond_vocab, reference.gen_vocab)
        assert np.array_equal(table.keys, reference.keys)
        assert np.array_equal(table.probs, reference.probs)


class TestViterbi:
    def table(self, rows):
        return table_from_rows(rows)

    def test_argmax_link(self):
        table = self.table({"house": {"haus": 0.95}, NULL_TOKEN: {"haus": 0.01}})
        pair = (Sentence(0, ("house",)), Sentence(0, ("haus",)))
        assert align(pair, table).links == ((0, 0),)

    def test_tie_breaks_lowest_target_index(self):
        table = self.table({"e": {"f": 0.4}, NULL_TOKEN: {"f": 0.1}})
        pair = (Sentence(0, ("e",)), Sentence(0, ("f", "f")))
        assert align(pair, table).links == ((0, 0),)

    def test_null_wins_when_stronger(self):
        table = self.table({"e": {"f": 0.2}, NULL_TOKEN: {"f": 0.9}})
        pair = (Sentence(0, ("e",)), Sentence(0, ("f",)))
        assert align(pair, table).links == ()

    def test_null_last_on_tie(self):
        table = self.table({"e": {"f": 0.5}, NULL_TOKEN: {"f": 0.5}})
        pair = (Sentence(0, ("e",)), Sentence(0, ("f",)))
        assert align(pair, table).links == ((0, 0),)

    def test_unseen_source_token_warns_and_skips(self, caplog):
        table = self.table({NULL_TOKEN: {"f": 0.5}})
        pair = (Sentence(0, ("mystery",)), Sentence(0, ("f",)))
        with caplog.at_level(logging.WARNING):
            alignment = align(pair, table)
        assert alignment.links == ()
        assert any("mystery" in rec.message for rec in caplog.records)


# Few tokens and few values, so sentences meet table rows and rows tie.
_vocab = st.sampled_from(["a", "b", "c", NULL_TOKEN])
_values = st.sampled_from([-0.5, 0.0, 0.1, 0.25, 0.5, 1.0])


@st.composite
def viterbi_cases(draw):
    """(table, sentence pairs): a random table over few tokens, and pairs
    whose sentences may hold tokens it lacks on either side; either side
    may be empty."""
    rows = draw(st.dictionaries(_vocab, st.dictionaries(_vocab, _values, max_size=4), max_size=4))
    words = st.sampled_from(["a", "b", "c", "unseen"])
    side = st.lists(words, max_size=6).map(_sentence)
    return table_from_rows(rows), draw(st.lists(st.tuples(side, side), max_size=4))


def _sentence(tokens):
    # Sentence refuses an empty token list, so no pair the program aligns has
    # an empty side; an empty side still checks the paths with no cells.
    return Sentence(0, tuple(tokens)) if tokens else SimpleNamespace(tokens=())


class TestViterbiParity:
    """The array Viterbi over a list of pairs equals the loop over the rows
    of ``t``, pair by pair."""

    @settings(max_examples=400, deadline=None)
    @given(viterbi_cases())
    @example((table_from_rows({"a": {"b": 0.5}, NULL_TOKEN: {"b": 0.5}}),
              [(Sentence(0, ("a",)), Sentence(0, ("b", "b")))]))
    @example((table_from_rows({"a": {"b": -0.5, "c": 0.0}}),
              [(Sentence(0, ("a",)), Sentence(0, ("b", "c")))]))
    @example((table_from_rows({}), [(_sentence([]), _sentence(["a"]))]))
    @example((table_from_rows({"a": {"b": 0.5}, NULL_TOKEN: {"b": 0.9, "c": 0.1}}),
              [(_sentence(["a", "a"]), _sentence([])), (_sentence(["a", "unseen"]),
               _sentence(["c", "b"])), (_sentence(["a"]), _sentence(["c", "b", "b"]))]))
    def test_links_equal_reference(self, case):
        table, pairs = case
        links = viterbi_align(pairs, table)
        assert links.dtype == np.intp
        assert len(links) == sum(len(source.tokens) for source, _ in pairs)
        start = 0
        for pair in pairs:
            end = start + len(pair[0].tokens)
            assert SentenceAlignment.from_targets(links[start:end].tolist()) == (
                viterbi_reference(pair, table)
            )
            start = end


class TestTargetSpan:
    def test_single_link(self):
        assert target_span(SentenceAlignment(((2, 5),)), 2) == (5, 5)

    def test_unlinked(self):
        assert target_span(SentenceAlignment(()), 0) == REASON_UNALIGNED
        assert target_span(SentenceAlignment(((1, 0),)), 0) == REASON_UNALIGNED

    def test_span_cap(self):
        alignment = SentenceAlignment(((1, 0), (1, 7)))
        assert target_span(alignment, 1, max_span=7) == REASON_SPAN_TOO_LONG
        assert target_span(alignment, 1, max_span=8) == (0, 7)


def align_all(corpus, table):
    links = viterbi_align(list(corpus.pairs()), table).tolist()
    ends = np.cumsum([len(source.tokens) for source in corpus.source]).tolist()
    return [SentenceAlignment.from_targets(links[end - len(source.tokens) : end])
            for source, end in zip(corpus.source, ends)]


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
        table = table_from_rows({"a": {"x": 0.1}, "b": {"x": 0.2}, NULL_TOKEN: {"x": 0.9}})
        rare = RareWord("a", 1, (0,))
        tokens, reason = translate_rare_word(rare, corpus, align_all(corpus, table))
        assert tokens is None
        assert reason == "unaligned"

    def test_uses_first_host_sentence(self):
        # In host 0 the rare word has no good target, in host 1 it would
        # align; the lowest host id decides, so the result is "unaligned".
        corpus = make_corpus([("house big", "gross dach"), ("house big", "haus gross")])
        table = table_from_rows({
            "house": {"haus": 0.9, "dach": 0.001, "gross": 0.001},
            "big": {"gross": 0.9},
            NULL_TOKEN: {"dach": 0.5, "gross": 0.5, "haus": 0.01},
        })
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


def text_round_trip(table):
    """The table as sorted ``%.12g`` text rows would read back."""
    return {
        e: {f: float(f"{table.t[e][f]:.12g}") for f in sorted(table.t[e])}
        for e in sorted(table.t)
        if table.t[e]
    }


def ordered(t):
    return [(e, list(row.items())) for e, row in t.items()]


# Tokens come from strict UTF-8 decoding, which never yields a lone
# surrogate (category Cs), and a surrogate cannot be encoded to the cache.
_tokens = st.text(
    st.characters(exclude_characters="\n", exclude_categories=("Cs",)), min_size=1, max_size=3
)
_tables = st.dictionaries(
    _tokens,
    st.dictionaries(_tokens, st.floats(allow_nan=False, allow_infinity=False), max_size=4),
    max_size=5,
).map(table_from_rows)


class TestTablePersistence:
    def test_round_trip(self, tmp_path):
        table = train_ibm1(make_corpus(CLASSIC), 12)
        save_translation_table(table, tmp_path / "t.bin")
        again = load_translation_table(tmp_path / "t.bin")
        assert ordered(again.t) == ordered(text_round_trip(table))
        for e, row in table.t.items():
            for f, p in row.items():
                assert again.t[e][f] == pytest.approx(p, rel=1e-11)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_tables, em_cases().map(
        lambda case: train_ibm1(make_corpus([(" ".join(s), " ".join(t)) for s, t in case[0]]),
                                case[1])
    )))
    @example(table_from_rows({"é": {"b": 0.1 + 0.2, "a": 1 / 3}, NULL_TOKEN: {"b": 0.0}, "z": {}}))
    def test_loaded_table_equals_text_round_trip(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            save_translation_table(table, Path(tmp) / "t.bin")
            again = load_translation_table(Path(tmp) / "t.bin")
        assert ordered(again.t) == ordered(text_round_trip(table))

    def test_tokens_without_an_entry_are_dropped(self, tmp_path):
        table = TranslationTable(("a", "b", "c"), ("x", "y"), [0, 2], [1, 1], [0.5, 0.25])
        assert (table.cond_vocab, table.gen_vocab) == (("a", "c"), ("y",))
        assert table.t == {"a": {"y": 0.5}, "c": {"y": 0.25}}
        path = tmp_path / "t.bin"
        save_translation_table(table, path)
        saved = path.read_bytes()
        # A file that names a token without an entry loads as if it did not.
        arrays = read_cache(path, ALIGNER_MAGIC, 5)
        arrays[1] = np.frombuffer(b"w\n" + arrays[1].tobytes(), dtype=np.uint8)
        arrays[3] = arrays[3] + 1
        path.write_bytes(pack(ALIGNER_MAGIC, arrays))
        save_translation_table(load_translation_table(path), path)
        assert path.read_bytes() == saved

    def test_surrogate_token_refused_without_a_file(self, tmp_path):
        with pytest.raises(ValueError):
            save_translation_table(table_from_rows({"a": {"\ud800": 0.5}}), tmp_path / "t.bin")
        assert not (tmp_path / "t.bin").exists()

    def test_equal_tables_save_equal_bytes(self, tmp_path):
        table = train_ibm1(make_corpus(CLASSIC), 3)
        reversed_rows = table_from_rows(
            {e: dict(reversed(row.items())) for e, row in reversed(table.t.items())}
        )
        save_translation_table(table, tmp_path / "one.bin")
        save_translation_table(reversed_rows, tmp_path / "two.bin")
        save_translation_table(load_translation_table(tmp_path / "one.bin"), tmp_path / "three.bin")
        first = (tmp_path / "one.bin").read_bytes()
        assert first.startswith(ALIGNER_MAGIC)
        assert (tmp_path / "two.bin").read_bytes() == first
        assert (tmp_path / "three.bin").read_bytes() == first

    @pytest.mark.parametrize(
        "damage, message", [c[1:] for c in ALIGNER_CASES], ids=[c[0] for c in ALIGNER_CASES]
    )
    def test_malformed_cache_names_path(self, tmp_path, damage, message):
        path = tmp_path / "t.bin"
        save_translation_table(train_ibm1(make_corpus(CLASSIC), 3), path)
        path.write_bytes(damage(ALIGNER_MAGIC, read_cache(path, ALIGNER_MAGIC, 5)))
        with pytest.raises(PharaohFormatError, match=message) as info:
            load_translation_table(path)
        assert str(info.value).startswith(f"{path}: ")


# 13-digit decimals ending in 5: halfway between two 12-digit values.
_12G_TIES = st.tuples(st.integers(10**11, 10**12 - 1), st.integers(-40, 20)).map(
    lambda ne: float(f"{ne[0]}5e{ne[1]}")
)
_12g_values = st.one_of(
    st.floats(allow_nan=False),
    st.floats(0.0, 1.0),
    st.floats(-2.3e-308, 2.3e-308),  # subnormals and both zeros
    st.sampled_from([0.0, -0.0, 5e-324, 1e12, 1e-11, 9.999999999995e11, 1e22, 1e-12]),
    st.floats(min_value=1e12, allow_infinity=False),
    st.floats(-1e-11, 1e-11),
    _12G_TIES,
    _12G_TIES.map(lambda x: math.nextafter(x, math.inf)),
    _12G_TIES.map(lambda x: math.nextafter(x, -math.inf)),
    _12G_TIES.map(lambda x: -x),
)


class TestRound12g:
    """The array rounding of the saved probabilities equals the text round
    trip ``float(f"{p:.12g}")`` bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_12g_values, max_size=20))
    @example([float("0.1234567890125"), math.nextafter(float("0.1234567890125"), 1.0),
              math.nextafter(float("0.1234567890125"), 0.0), -0.0, 5e-324, 1e12, 9.99999999999e-12])
    def test_equals_text_round_trip(self, values):
        expected = np.array([float(f"{p:.12g}") for p in values], dtype=np.float64)
        assert round_12g(np.array(values, dtype=np.float64)).tobytes() == expected.tobytes()

    def test_trained_table_equals_text_round_trip(self):
        probs = train_ibm1(make_corpus(CLASSIC * 3 + [("a house", "ein haus")]), 10).probs
        expected = np.array([float(f"{p:.12g}") for p in probs.tolist()])
        assert round_12g(probs).tobytes() == expected.tobytes()
