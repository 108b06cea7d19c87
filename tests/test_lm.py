import itertools
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusaug.embeddings import NumericError
from corpusaug.lm import (
    BOS,
    BOS_ID,
    EOS,
    EOS_ID,
    LM_MAGIC,
    UNK,
    UNK_ID,
    ArpaFormatError,
    IdStream,
    LmFormatError,
    _check_id_count,
    export_arpa,
    import_arpa,
    lm_ratio_accept,
    load_lm,
    save_lm,
    stream_scores,
    train_lm,
)
from corpusaug.pipeline import AugmentationConfig, synthetic_window

from oracles import (
    ContextWindow,
    lm_ratio_reference,
    train_lm_dict_reference,
    trigram_prob_reference,
    window_score,
    window_scores,
)


def sentences(token_lists):
    return [tuple(tokens) for tokens in token_lists]


TWO_TYPE = [["a", "b", "c"]] * 4 + [["a", "b", "d"]] * 4


class TestTraining:
    def test_direct_trigram_counts(self):
        model = train_lm(sentences([["a", "b", "c"]]), 1)
        for key in [(BOS, BOS, "a"), (BOS, "a", "b"), ("a", "b", "c"), ("b", "c", EOS)]:
            assert model.trigrams[key] == 1

    def test_unk_mapping_below_min_count(self):
        model = train_lm(sentences([["q", "r", "r"]]), 2)
        assert "q" not in model.vocab
        assert model.unigrams[UNK] == 1
        assert model.trigrams[(BOS, BOS, UNK)] == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train_lm([], 1)
        with pytest.raises(ValueError):
            train_lm(sentences([["a"]]), 0)

    def test_count_consistency(self):
        model = train_lm(sentences(TWO_TYPE + [["c", "a"], ["d"]]), 1)
        for (w1, w2, _w3), count in model.trigrams.items():
            assert count <= model.bigrams[(w1, w2)]
        for (w1, _w2), count in model.bigrams.items():
            assert count <= model.unigrams[w1]

    def test_discount_range_enforced(self):
        with pytest.raises(ValueError):
            train_lm(sentences([["a"]]), 1, discount=1.0)


class TestTrigramProb:
    def test_two_type_corpus_closed_form(self):
        # Hand-derived: history (a, b) was followed 8 times (c 4, d 4), so
        # the discounted ML term is (4 - 0.75) / 8 = 0.40625 and the
        # interpolation weight is 0.75 * 2 / 8. At the bigram level, b was
        # followed 8 times (2 types); the unigram backoff alphabet holds
        # a:8 b:8 c:4 d:4 EOS:16 UNK:1 (41 events).
        model = train_lm(sentences(TWO_TYPE), 1)
        p1_c = 4 / 41
        p2_c_given_b = (4 - 0.75) / 8 + (0.75 * 2 / 8) * p1_c
        expected = (4 - 0.75) / 8 + (0.75 * 2 / 8) * p2_c_given_b
        assert expected == pytest.approx(0.4858517530487805, abs=1e-15)
        p = model.trigram_prob("a", "b", "c")
        assert p == pytest.approx(expected, abs=1e-12)
        # and against the independently coded formula
        reference = trigram_prob_reference(sentences(TWO_TYPE), 0.75, "a", "b", "c")
        assert p == pytest.approx(reference, abs=1e-12)

    def test_against_independent_formula_many_queries(self):
        corpus = [["a", "b", "c"], ["c", "a"], ["b", "b", "d", "a"], ["d"]]
        model = train_lm(sentences(corpus), 1)
        tokens = ["a", "b", "c", "d", "zzz", EOS, UNK, BOS]
        for w1, w2, w3 in itertools.product(tokens, repeat=3):
            ours = model.trigram_prob(w1, w2, w3)
            reference = trigram_prob_reference(corpus, 0.75, w1, w2, w3)
            assert ours == pytest.approx(reference, abs=1e-12), (w1, w2, w3)

    def test_normalization_every_history(self):
        model = train_lm(sentences(TWO_TYPE), 1)
        histories = [("a", "b"), ("b", "c"), ("zzz", "qqq"), (BOS, BOS), ("c", EOS), (EOS, EOS)]
        for h1, h2 in histories:
            total = sum(model.trigram_prob(h1, h2, w) for w in model.alphabet())
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_unk_floor_positive(self):
        model = train_lm(sentences([["a", "b"]]), 1)
        assert model.trigram_prob("a", "b", "never-seen") > 0.0

    def test_probabilities_in_unit_interval(self):
        model = train_lm(sentences(TWO_TYPE), 1)
        for h1, h2 in [("a", "b"), ("x", "y"), (BOS, BOS)]:
            for w in model.alphabet():
                p = model.trigram_prob(h1, h2, w)
                assert 0.0 < p <= 1.0


class TestNormalizationExhaustive:
    def test_random_corpus_50_token_vocab(self):
        rng = random.Random(99)
        vocab = [f"tok{i}" for i in range(50)]
        corpus = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 12))] for _ in range(120)
        ]
        model = train_lm(sentences(corpus), 1)
        alphabet = model.alphabet()
        histories = [(rng.choice(vocab + [BOS, EOS, "unseen"]),
                      rng.choice(vocab + [BOS, EOS, "unseen"])) for _ in range(60)]
        histories += [(BOS, BOS), (EOS, EOS)]
        for h1, h2 in histories:
            total = 0.0
            for w in alphabet:
                p = model.trigram_prob(h1, h2, w)
                assert 0.0 < p <= 1.0
                total += p
            assert total == pytest.approx(1.0, abs=1e-6), (h1, h2)


class TestWindowScore:
    def test_one_token_sentence_trigram_set(self):
        model = train_lm(sentences(TWO_TYPE), 1)
        window = ContextWindow.build(("x",), (0, 0))
        assert window.trigrams() == [
            (BOS, BOS, "x"),
            (BOS, "x", EOS),
            ("x", EOS, EOS),
        ]
        expected = (
            model.trigram_prob(BOS, BOS, "x")
            * model.trigram_prob(BOS, "x", EOS)
            * model.trigram_prob("x", EOS, EOS)
        )
        assert window_score(model, ("x",), (0, 0)) == pytest.approx(expected, rel=1e-12)

    def test_two_token_span_has_four_windows(self):
        window = ContextWindow.build(("a", "b", "c", "d"), (1, 2))
        assert len(window.trigram_positions()) == 4

    def test_window_positions_are_exactly_overlaps(self):
        for n in range(1, 15):
            tokens = tuple(f"t{i}" for i in range(n))
            for start in range(n):
                for end in range(start, n):
                    window = ContextWindow.build(tokens, (start, end))
                    overlaps = [
                        i
                        for i in range(len(window.padded) - 2)
                        if i <= window.span_end and i + 2 >= window.span_start
                    ]
                    assert list(window.trigram_positions()) == overlaps

    def test_disjoint_spans_score_differently_shaped_sets(self):
        window_a = ContextWindow.build(tuple("abcdef"), (1, 1))
        window_b = ContextWindow.build(tuple("abcdef"), (2, 2))
        assert window_a.trigram_positions() != window_b.trigram_positions()

    def test_span_validation(self):
        with pytest.raises(ValueError):
            ContextWindow.build(("a",), (0, 1))


class TestRatioAccept:
    def test_identity_accepts(self):
        model = train_lm(sentences(TWO_TYPE), 1)
        ok, ratio = lm_ratio_reference(
            model, (("a", "b", "c"), (1, 1)), (("a", "b", "c"), (1, 1)), 0.6
        )
        assert ok and ratio == 1.0

    def test_identity_accepts_any_threshold_below_one(self):
        model = train_lm(sentences(TWO_TYPE), 1)
        for threshold in (0.1, 0.5, 0.9, 1.0):
            ok, _ = lm_ratio_reference(
                model, (("a", "b", "d"), (2, 2)), (("a", "b", "d"), (2, 2)), threshold
            )
            assert ok

    def test_boundary_is_inclusive(self):
        model = train_lm(sentences(TWO_TYPE), 1)
        original = (("a", "b", "c"), (2, 2))
        synthetic = (("a", "b", "d"), (2, 2))
        _, ratio = lm_ratio_reference(model, original, synthetic, 0.6)
        ok_at_ratio, _ = lm_ratio_reference(model, original, synthetic, ratio)
        assert ok_at_ratio  # >= convention: equality accepts
        ok_above, _ = lm_ratio_reference(model, original, synthetic, ratio + 1e-12)
        assert not ok_above

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            lm_ratio_accept((1.0, 1.0), 0.0)


class TestArpa:
    def test_minimal_file(self, tmp_path):
        content = (
            "\\data\\\n"
            "ngram 1=2\n"
            "\n"
            "\\1-grams:\n"
            "-0.30103\ta\t0.0\n"
            "-0.30103\tb\t0.0\n"
            "\n"
            "\\end\\\n"
        )
        (tmp_path / "m.arpa").write_text(content, encoding="utf-8")
        scorer = import_arpa(tmp_path / "m.arpa")
        assert scorer.order == 1
        assert len(scorer.unigram_vocab) == 2

    def test_round_trip_probability_agreement(self, tmp_path):
        model = train_lm(sentences(TWO_TYPE + [["c", "d", "a"]]), 1)
        export_arpa(model, tmp_path / "m.arpa")
        scorer = import_arpa(tmp_path / "m.arpa")
        queries = list(model.trigrams) + [
            ("a", "b", "zzz"),
            ("zzz", "b", "c"),
            ("d", EOS, EOS),
            ("b", "c", EOS),
        ]
        for w1, w2, w3 in queries:
            assert scorer.trigram_prob(w1, w2, w3) == pytest.approx(
                model.trigram_prob(w1, w2, w3), abs=1e-4
            )

    def test_missing_end_marker(self, tmp_path):
        (tmp_path / "m.arpa").write_text(
            "\\data\\\nngram 1=1\n\n\\1-grams:\n-0.5\ta\n", encoding="utf-8"
        )
        with pytest.raises(ArpaFormatError, match="end"):
            import_arpa(tmp_path / "m.arpa")

    def test_count_mismatch(self, tmp_path):
        (tmp_path / "m.arpa").write_text(
            "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n\n\\end\\\n", encoding="utf-8"
        )
        with pytest.raises(ArpaFormatError, match="declared 2"):
            import_arpa(tmp_path / "m.arpa")

    def test_malformed_header(self, tmp_path):
        (tmp_path / "m.arpa").write_text(
            "\\data\\\nngram one=2\n\\end\\\n", encoding="utf-8"
        )
        with pytest.raises(ArpaFormatError):
            import_arpa(tmp_path / "m.arpa")


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = train_lm(sentences(TWO_TYPE + [["e", "a"]]), min_count=1, discount=0.6)
        save_lm(model, tmp_path / "lm.tsv")
        again = load_lm(tmp_path / "lm.tsv")
        assert again.discount == model.discount
        assert again.min_count == model.min_count
        assert again.unigrams == model.unigrams
        assert again.bigrams == model.bigrams
        assert again.trigrams == model.trigrams
        assert again.vocab == model.vocab
        for h1, h2 in [("a", "b"), (BOS, BOS), ("zz", "qq")]:
            for w in model.alphabet():
                assert again.trigram_prob(h1, h2, w) == model.trigram_prob(h1, h2, w)

    def test_equal_models_save_equal_bytes(self, tmp_path):
        corpus = sentences(TWO_TYPE + [["e", "a"], ["a"]])
        save_lm(train_lm(corpus, 1, 0.6), tmp_path / "one.bin")
        save_lm(train_lm(corpus, 1, 0.6), tmp_path / "two.bin")
        save_lm(load_lm(tmp_path / "one.bin"), tmp_path / "three.bin")
        first = (tmp_path / "one.bin").read_bytes()
        assert first.startswith(LM_MAGIC)
        assert (tmp_path / "two.bin").read_bytes() == first
        assert (tmp_path / "three.bin").read_bytes() == first

    def test_key_space_must_fit_int64(self):
        _check_id_count(2 ** 21 - 1)
        with pytest.raises(ValueError, match="overflow"):
            _check_id_count(2 ** 21)


def _model_arrays():
    """The eight arrays of a cached model of the corpus ``a b``."""
    model = train_lm(sentences([["a", "b"]]), 1)
    return [
        np.array([0.75]),
        np.array([1]),
        np.frombuffer(b"a\nb\n", dtype=np.uint8),
        model.unigram_counts,
        model.bigram_keys,
        model.bigram_counts,
        model.trigram_keys,
        model.trigram_counts,
    ]


def _write_arrays(path, arrays, magic=LM_MAGIC):
    with open(path, "wb") as fh:
        fh.write(magic)
        for array in arrays:
            np.lib.format.write_array(fh, np.asarray(array), allow_pickle=False)


def _set(index, position, value):
    def mutate(arrays):
        arrays[index] = arrays[index].copy()
        arrays[index][position] = value
        return arrays

    return mutate


class TestCorruptCache:
    def test_hand_written_arrays_load(self, tmp_path):
        _write_arrays(tmp_path / "lm.bin", _model_arrays())
        model = train_lm(sentences([["a", "b"]]), 1)
        again = load_lm(tmp_path / "lm.bin")
        assert again.trigrams == model.trigrams
        assert again.trigram_prob("a", "b", EOS) == model.trigram_prob("a", "b", EOS)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "lm.bin"
        save_lm(train_lm(sentences(TWO_TYPE), 1), path)
        data = path.read_bytes()
        for cut in (0, len(LM_MAGIC) // 2, len(LM_MAGIC) + 20, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(LmFormatError, match=str(path)):
                load_lm(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "lm.bin"
        _write_arrays(path, _model_arrays(), magic=b"corpusaug-lm 0\n")
        with pytest.raises(LmFormatError, match="bad magic"):
            load_lm(path)
        # a count table in the text format of earlier versions
        path.write_text("#discount\t0.75\n#min_count\t1\n1\ta\t1\n", encoding="utf-8")
        with pytest.raises(LmFormatError, match="bad magic"):
            load_lm(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda a: a[:-1], "EOF"),  # the trigram counts are missing
            (lambda a: a + [np.array([1])], "trailing"),
            (lambda a: a[:5] + [a[5][:-1]] + a[6:], "differ in length"),
            (lambda a: a[:6] + [a[6][::-1]] + a[7:], "not strictly increasing"),
            (_set(6, -1, 5 ** 3), "out of range"),
            (_set(4, 0, -1), "out of range"),
            (_set(7, 0, 0), "not positive"),
            (_set(5, 0, -2), "not positive"),
            (_set(3, 0, 0), "unigram count not positive"),
            (_set(0, 0, 1.0), "discount"),
            (lambda a: a[:2] + [np.frombuffer(b"b\na\n", dtype=np.uint8)] + a[3:], "sorted"),
            (lambda a: a[:2] + [np.frombuffer(b"a\nb", dtype=np.uint8)] + a[3:], "newline"),
            (lambda a: a[:2] + [np.frombuffer(b"a\n\xff\n", dtype=np.uint8)] + a[3:], "utf-8"),
            (lambda a: a[:3] + [a[3][:-1]] + a[4:], "unigram counts"),
            (lambda a: a[:4] + [a[4].astype(np.float64)] + a[5:], "type"),
        ],
    )
    def test_malformed_arrays(self, tmp_path, mutate, message):
        path = tmp_path / "lm.bin"
        _write_arrays(path, mutate(_model_arrays()))
        with pytest.raises(LmFormatError, match=message) as info:
            load_lm(path)
        assert str(path) in str(info.value)


@st.composite
def lm_cases(draw):
    """(sentences as token lists, min_count, discount).

    Four letters keep tokens repeating; the reserved markers appear as
    corpus tokens, and min_size=1 keeps 1-token sentences in reach.
    """
    token = st.sampled_from(["a", "b", "c", "d", BOS, EOS, UNK])
    corpus = draw(st.lists(st.lists(token, min_size=1, max_size=8), min_size=1, max_size=8))
    discount = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return corpus, draw(st.integers(1, 3)), discount


class TestDictParity:
    """The array model equals the dict model bit for bit, not approximately."""

    @settings(max_examples=200, deadline=None)
    @given(lm_cases())
    @example(([["a"]], 1, 0.75))
    @example(([["a", "a", "a"], ["a", BOS, "b"]], 2, 0.5))
    @example(([[BOS, EOS, UNK], ["b"]], 3, 0.999))  # empty vocabulary
    def test_counts_and_probabilities_equal_dict_model(self, case):
        corpus, min_count, discount = case
        mono = sentences(corpus)
        reference = train_lm_dict_reference(mono, min_count, discount)
        model = train_lm(mono, min_count, discount)
        with tempfile.TemporaryDirectory() as tmp:
            save_lm(model, Path(tmp) / "lm.bin")
            loaded = load_lm(Path(tmp) / "lm.bin")
        for ours in (model, loaded):
            assert ours.unigrams == reference.unigrams
            assert ours.bigrams == reference.bigrams
            assert ours.trigrams == reference.trigrams
            assert ours.vocab == reference.vocab
            assert ours.alphabet() == reference.alphabet()
        tokens = reference.alphabet() + [BOS, "oov"]
        for w1, w2, w3 in itertools.product(tokens, repeat=3):
            expected = reference.trigram_prob(w1, w2, w3)
            assert model.trigram_prob(w1, w2, w3) == expected, (w1, w2, w3)
            assert loaded.trigram_prob(w1, w2, w3) == expected, (w1, w2, w3)


MAX_SPAN = AugmentationConfig().max_span


@st.composite
def window_cases(draw):
    """An ``lm_cases`` corpus plus (original, synthetic) window pairs to
    score on it. Sentences mix corpus tokens, reserved markers and an
    unknown token; spans of 1 to ``MAX_SPAN`` tokens reach both sentence
    edges, and each is replaced by 1 to 3 tokens."""
    corpus, min_count, discount = draw(lm_cases())
    token = st.sampled_from(["a", "b", "c", "d", BOS, EOS, UNK, "oov"])
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        tokens = tuple(draw(st.lists(token, min_size=1, max_size=9)))
        start = draw(st.integers(0, len(tokens) - 1))
        end = draw(st.integers(start, min(len(tokens), start + MAX_SPAN) - 1))
        insert = draw(st.lists(token, min_size=1, max_size=3))
        pairs.append(((tokens, (start, end)), synthetic_window(tokens, (start, end), insert)))
    return corpus, min_count, discount, pairs


def ratio_outcome(model, original, synthetic, scores=None):
    """``lm_ratio_accept``'s verdict and ratio, from ``scores`` or from
    ``window_score`` when they are not given, or the refusal of an original
    window whose score underflowed to zero (a discount near 5e-324)."""
    try:
        if scores is None:
            return lm_ratio_reference(model, original, synthetic, 0.6)
        return lm_ratio_accept(scores, 0.6)
    except NumericError as exc:
        return str(exc)


class TestBatchedParity:
    """``window_scores`` on the array model, and the ratios taken from its
    scores, equal ``window_score`` and ``lm_ratio_accept`` on the dict model
    bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(window_cases())
    # Histories the corpus never continues: (</s>, </s>), and <unk> when
    # every corpus token is in the vocabulary.
    @example(([["a", "b"]], 1, 0.75, [
        ((("a", EOS, EOS, "b"), (3, 3)), (("a", EOS, EOS, "oov", "a"), (3, 4))),
        ((("oov", "b"), (0, 1)), ((BOS, UNK, EOS), (0, 2))),
    ]))
    def test_scores_and_ratios_equal_dict_model(self, case):
        corpus, min_count, discount, pairs = case
        mono = sentences(corpus)
        reference = train_lm_dict_reference(mono, min_count, discount)
        model = train_lm(mono, min_count, discount)
        with tempfile.TemporaryDirectory() as tmp:
            save_lm(model, Path(tmp) / "lm.bin")
            loaded = load_lm(Path(tmp) / "lm.bin")
        windows = [window for pair in pairs for window in pair]
        expected = [window_score(reference, *window) for window in windows]
        for ours in (model, loaded):
            scores = window_scores(ours, windows)
            assert scores.dtype == np.float64
            assert scores.tolist() == expected
            for (original, synthetic), both in zip(pairs, scores.reshape(-1, 2).tolist()):
                assert ratio_outcome(ours, original, synthetic, tuple(both)) == (
                    ratio_outcome(reference, original, synthetic)
                )

    def test_no_windows(self):
        assert window_scores(train_lm(sentences([["a"]]), 1), []).shape == (0,)

    def test_span_validation(self):
        model = train_lm(sentences([["a"]]), 1)
        with pytest.raises(ValueError):
            window_scores(model, [(("a",), (0, 1))])


class TestIdStream:
    def test_layout(self):
        stream = IdStream.build({"a": 3, "b": 4}, [("a",), ("b", "zz", "a")])
        pads = [BOS_ID, BOS_ID]
        ends = [EOS_ID, EOS_ID]
        assert stream.ids.dtype == np.int64
        assert stream.ids.tolist() == pads + [3] + ends + pads + [4, UNK_ID, 3] + ends
        assert stream.offsets.tolist() == [2, 7]

    def test_no_sentences(self):
        stream = IdStream.build({"a": 3}, [])
        assert stream.ids.shape == stream.offsets.shape == (0,)


_STREAM_TOKEN = st.sampled_from(["a", "b", "c", "d", BOS, EOS, UNK, "oov"])


@st.composite
def stream_cases(draw):
    """An ``lm_cases`` corpus, sentences to score on it, and one insertion of
    1 to 3 tokens. Sentences mix corpus tokens, literal reserved markers and
    an unknown token. The original and the spliced windows are (sentence,
    start, end) rows whose spans of 1 to 3 tokens often start at either end
    of a sentence."""
    corpus, min_count, discount = draw(lm_cases())
    sentences = draw(st.lists(
        st.lists(_STREAM_TOKEN, min_size=1, max_size=9).map(tuple), min_size=1, max_size=4
    ))

    def windows():
        rows = []
        for _ in range(draw(st.integers(0, 5))):
            sentence = draw(st.integers(0, len(sentences) - 1))
            length = len(sentences[sentence])
            start = draw(st.sampled_from([0, length - 1]) | st.integers(0, length - 1))
            end = draw(st.integers(start, min(length, start + 3) - 1))
            rows.append((sentence, start, end))
        return rows

    insert = tuple(draw(st.lists(_STREAM_TOKEN, min_size=1, max_size=3)))
    return corpus, min_count, discount, sentences, windows(), windows(), insert


class TestStreamParity:
    """``stream_scores`` on an ``IdStream`` equals ``window_scores`` on the
    same windows as tokens, and ``window_score`` on the dict model, bit for
    bit: the windows at either end of a sentence, of spliced windows too."""

    @settings(max_examples=200, deadline=None)
    @given(stream_cases())
    @example(([["a", "b"], [BOS, "c"]], 1, 0.75, [(BOS, "a", EOS), ("oov",)],
              [(0, 0, 2), (1, 0, 0)], [(0, 0, 0), (0, 2, 2), (1, 0, 0)], (EOS, "b", "oov")))
    def test_scores_equal_window_scores_and_dict_model(self, case):
        corpus, min_count, discount, sentences, original, spliced, insert = case
        mono = [tuple(tokens) for tokens in corpus]
        reference = train_lm_dict_reference(mono, min_count, discount)
        model = train_lm(mono, min_count, discount)
        stream = IdStream.build(model.ids, sentences)
        scores = stream_scores(
            model, stream, np.array(original + spliced, dtype=np.intp).reshape(-1, 3),
            len(original), insert,
        )
        originals, synthetics = scores[: len(original)], scores[len(original) :]
        original_windows = [(sentences[i], (start, end)) for i, start, end in original]
        spliced_windows = [synthetic_window(sentences[i], (start, end), insert)
                           for i, start, end in spliced]
        assert scores.dtype == np.float64
        assert originals.tolist() == [window_score(reference, *w) for w in original_windows]
        assert synthetics.tolist() == [window_score(reference, *w) for w in spliced_windows]
        assert (originals.tolist() + synthetics.tolist()
                == window_scores(model, original_windows + spliced_windows).tolist())
