import logging
import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from corpusaug.agreement import MODE_OFF, MODE_POS, AnnotatedLexicon, TokenAnnotation
from corpusaug.corpus_io import Sentence
from corpusaug import embeddings
from corpusaug.embeddings import (
    EMBEDDINGS_MAGIC,
    SEARCH_BLOCK,
    EmbeddingFormatError,
    EmbeddingTable,
    VectorRows,
    WordIndex,
    best_word_in_sentence,
    cosine,
    export_vec,
    load_embeddings,
    postprocess_alpha,
    save_embeddings,
    sentence_embedding,
    top_k_sentences,
)

from cachecases import EMBEDDING_CASES, pack, read_cache
from oracles import (
    best_word_reference,
    eligible_reference,
    jacobi_eigenvalues,
    load_embeddings_reference,
    top_k_reference,
)


def make_table(rows):
    return EmbeddingTable(tuple(rows), np.array(list(rows.values()), dtype=float))


def random_table(rng, n, dim):
    X = rng.normal(size=(n, dim))
    return EmbeddingTable(tuple(f"w{i}" for i in range(n)), X)


def normalized_matrix(table):
    X = table.matrix
    return X / np.linalg.norm(X, axis=1, keepdims=True)


class TestLoadEmbeddings:
    def test_with_header(self, tmp_path):
        (tmp_path / "e.vec").write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_embeddings(tmp_path / "e.vec")
        assert table.dim == 3
        assert len(table) == 2
        assert list(table.get("a")) == [1.0, 0.0, 0.0]

    def test_without_header(self, tmp_path):
        (tmp_path / "e.vec").write_text("a 1 0\nb 0 1\n", encoding="utf-8")
        assert load_embeddings(tmp_path / "e.vec").dim == 2

    def test_wrong_component_count_skipped(self, tmp_path, caplog):
        (tmp_path / "e.vec").write_text("3 3\na 1 0 0\nc 1 2\nb 0 1 0\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            table = load_embeddings(tmp_path / "e.vec")
        assert "c" not in table
        assert len(table) == 2

    def test_duplicate_first_wins(self, tmp_path, caplog):
        (tmp_path / "e.vec").write_text("a 1 0\na 0 1\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            table = load_embeddings(tmp_path / "e.vec")
        assert list(table.get("a")) == [1.0, 0.0]

    def test_empty_file_fatal(self, tmp_path):
        (tmp_path / "e.vec").write_text("", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(tmp_path / "e.vec")

    def test_bad_second_line_reported_as_line_2(self, tmp_path, caplog):
        (tmp_path / "e.vec").write_text("a 1 0 0\nc 1 2\nb 0 1 0\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            table = load_embeddings(tmp_path / "e.vec")
        assert table.tokens == ("a", "b")
        assert [r.getMessage().split(" ")[0] for r in caplog.records] == [f"{tmp_path / 'e.vec'}:2:"]

    def test_count_dim_pair_is_a_header_only_on_line_1(self, tmp_path):
        (tmp_path / "e.vec").write_text("a 1\n2 3\n", encoding="utf-8")
        table = load_embeddings(tmp_path / "e.vec")
        assert table.dim == 1
        assert list(table.get("2")) == [3.0]

    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_header_dimension_below_1_names_line_1(self, tmp_path, dim):
        path = tmp_path / "e.vec"
        path.write_text(f"2 {dim}\na\nb\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="dimension must be at least 1") as info:
            load_embeddings(path)
        assert str(info.value).startswith(f"{path}:1: ")

    def test_leading_bom_is_dropped(self, tmp_path, caplog):
        text = "3 2\na 1 0\nb 0 1\nc 0.5 0.5\n".encode("utf-8")
        (tmp_path / "bom.vec").write_bytes(b"\xef\xbb\xbf" + text)
        (tmp_path / "plain.vec").write_bytes(text)
        with caplog.at_level(logging.WARNING):
            table = load_embeddings(tmp_path / "bom.vec")
        assert _table_bits(table) == _table_bits(load_embeddings(tmp_path / "plain.vec"))
        assert table.tokens == ("a", "b", "c") and not caplog.records

    def test_bad_row_in_a_later_block_keeps_its_line_number(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr("corpusaug.embeddings.SAVE_BLOCK_ROWS", 2)
        path = tmp_path / "e.vec"
        path.write_text("5 1\na 1\nb 2\nc 3\nd inf\ne 1_0\nf 6\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            table = load_embeddings(path)
        assert table.tokens == ("a", "b", "c", "e", "f")
        assert table.matrix.ravel().tolist() == [1.0, 2.0, 3.0, 10.0, 6.0]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:5: non-finite vector component; row skipped"
        ]

    def test_clean_text_never_parses_row_by_row(self, tmp_path, monkeypatch):
        def refuse(self, block):
            raise AssertionError("a clean block was parsed row by row")

        blocks, loadtxt = [], np.loadtxt

        def counting_loadtxt(lines, **kwargs):
            blocks.append(len(lines))
            return loadtxt(lines, **kwargs)

        monkeypatch.setattr(embeddings._TextRows, "_parse_rows", refuse)
        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        size = embeddings.SAVE_BLOCK_ROWS
        table = random_table(np.random.default_rng(5), 2 * size + 3, 3)
        export_vec(table, tmp_path / "e.vec")
        loaded = load_embeddings(tmp_path / "e.vec")
        assert blocks == [size, size, 3]
        assert loaded.tokens == table.tokens
        assert loaded.matrix.tobytes() == _rounded_as_text(table.matrix).tobytes()

    def test_export_round_trip_is_stable(self, tmp_path):
        rng = np.random.default_rng(11)
        table = random_table(rng, 9, 4)
        export_vec(table, tmp_path / "a.vec")
        again = load_embeddings(tmp_path / "a.vec")
        assert again.tokens == table.tokens
        export_vec(again, tmp_path / "b.vec")
        assert (tmp_path / "a.vec").read_bytes() == (tmp_path / "b.vec").read_bytes()
        for token in table.tokens:
            assert np.allclose(again.get(token), table.get(token), atol=5e-7)


# Components whose 6-decimal rounding is hard to get right without text.
_TIES = st.integers(-(10**9), 10**9).map(lambda k: (k + 0.5) / 1e6)
_cache_components = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 5e-7, -5e-7, 4.9999999e-7]),
    # a 7th decimal digit of 5 or more
    st.tuples(st.integers(-(10**8), 10**8), st.integers(5, 9)).map(
        lambda kd: (kd[0] * 10 + kd[1] if kd[0] >= 0 else kd[0] * 10 - kd[1]) / 1e7
    ),
    _TIES,
    _TIES.map(lambda x: math.nextafter(x, math.inf)),
    _TIES.map(lambda x: math.nextafter(x, -math.inf)),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False, min_value=1e8),
    st.floats(allow_nan=False, allow_infinity=False, max_value=-1e8),
)


@st.composite
def cache_tables(draw):
    dim = draw(st.integers(1, 5))
    tokens = draw(st.lists(
        st.text(st.characters(exclude_categories=("Z", "C")), min_size=1, max_size=4),
        min_size=1, max_size=6, unique=True,
    ))
    rows = draw(st.lists(
        st.lists(_cache_components, min_size=dim, max_size=dim),
        min_size=len(tokens), max_size=len(tokens),
    ))
    return EmbeddingTable(tuple(tokens), np.array(rows, dtype=float))


def _table_bits(table):
    return table.dim, [(t, v.tobytes()) for t, v in zip(table.tokens, table.matrix)]


class TestCache:
    @settings(max_examples=300, deadline=None)
    @given(cache_tables())
    def test_cache_equals_text_round_trip_bit_for_bit(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            save_embeddings(table, Path(tmp) / "e.bin")
            export_vec(table, Path(tmp) / "e.vec")
            cached = load_embeddings(Path(tmp) / "e.bin")
            text = load_embeddings(Path(tmp) / "e.vec")
        assert _table_bits(cached) == _table_bits(text)

    def test_rounding_is_done_in_blocks(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        table = random_table(rng, 7, 3)
        save_embeddings(table, tmp_path / "whole.bin")
        monkeypatch.setattr("corpusaug.embeddings.SAVE_BLOCK_ROWS", 2)
        save_embeddings(table, tmp_path / "blocks.bin")
        assert (tmp_path / "blocks.bin").read_bytes() == (tmp_path / "whole.bin").read_bytes()

    def test_equal_tables_save_equal_bytes(self, tmp_path):
        table = random_table(np.random.default_rng(8), 5, 4)
        save_embeddings(table, tmp_path / "one.bin")
        save_embeddings(load_embeddings(tmp_path / "one.bin"), tmp_path / "two.bin")
        first = (tmp_path / "one.bin").read_bytes()
        assert first.startswith(EMBEDDINGS_MAGIC)
        assert (tmp_path / "two.bin").read_bytes() == first

    def test_magic_is_not_utf8(self):
        with pytest.raises(UnicodeDecodeError):
            EMBEDDINGS_MAGIC.decode("utf-8")

    def test_newline_in_token_refused(self, tmp_path):
        with pytest.raises(ValueError, match="newline"):
            save_embeddings(make_table({"a\nb": [1.0]}), tmp_path / "e.bin")

    @pytest.mark.parametrize(
        "damage, message", [c[1:] for c in EMBEDDING_CASES], ids=[c[0] for c in EMBEDDING_CASES]
    )
    def test_malformed_cache_names_path(self, tmp_path, damage, message):
        path = tmp_path / "e.bin"
        save_embeddings(make_table({"a": [0.5, -1.0], "b": [0.25, 2.0]}), path)
        path.write_bytes(damage(EMBEDDINGS_MAGIC, read_cache(path, EMBEDDINGS_MAGIC, 3)))
        with pytest.raises(EmbeddingFormatError, match=message) as info:
            load_embeddings(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_hand_written_arrays_load(self, tmp_path):
        path = tmp_path / "e.bin"
        matrix = np.array([[0.5, -0.0], [1.25, 3.0]])
        path.write_bytes(pack(EMBEDDINGS_MAGIC, [
            np.array([2]), np.frombuffer("é\nb\n".encode("utf-8"), dtype=np.uint8), matrix
        ]))
        table = load_embeddings(path)
        assert _table_bits(table) == (2, [("é", matrix[0].tobytes()), ("b", matrix[1].tobytes())])


class TestTable:
    @pytest.mark.parametrize(
        "tokens, matrix, message",
        [
            (("a", "a"), np.zeros((2, 2)), "duplicate token"),
            (("a",), np.zeros((2, 2)), "one row per token"),
            (("a",), np.zeros(2), "one row per token"),
            (("a",), np.zeros((1, 0)), "at least 1"),
        ],
    )
    def test_refuses_malformed(self, tokens, matrix, message):
        with pytest.raises(ValueError, match=message):
            EmbeddingTable(tokens, matrix)

    def test_rows_are_views_of_the_matrix(self):
        table = make_table({"a": [1, 2], "b": [3, 4]})
        assert table.get("b").base is table.matrix
        assert (len(table), table.dim, "a" in table, table.get("c")) == (2, 2, True, None)


def _rounded_as_text(matrix):
    return np.array([[float(f"{x:.6f}") for x in row] for row in matrix.tolist()])


class TestLoadFuzz:
    """Arbitrary bytes either load or raise EmbeddingFormatError, and what
    loads survives the cache with each value rounded as its text form."""

    def check(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.vec"
            path.write_bytes(data)
            try:
                table = load_embeddings(path)
            except EmbeddingFormatError:
                return
            save_embeddings(table, Path(tmp) / "e.bin")
            again = load_embeddings(Path(tmp) / "e.bin")
        assert again.tokens == table.tokens
        assert again.matrix.tobytes() == _rounded_as_text(table.matrix).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.binary(max_size=64),
        st.text(st.sampled_from("ab0123456789 -.e\n\t\r\u00a0\u2028"), max_size=40).map(str.encode),
    ))
    @example(b"2 0\na\nb\n")
    def test_vec_text(self, data):
        self.check(data)

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=64))
    def test_after_cache_magic(self, data):
        self.check(EMBEDDINGS_MAGIC + data)


# Spellings that float() alone accepts, that both float() and numpy accept,
# and that neither does.
_SPELLINGS = ["1_0", "\u0661\u0662", "inf", "-nan", "1e400", "+.5", "1.", "-0", "1e-400",
              "Infinity", "0x10", "1e", "abc", "."]
_SEPARATORS = [" ", "  ", "\t", "\r", "\xa0", "\u3000", "\x1c"]


@st.composite
def vec_lines(draw):
    component = st.one_of(
        st.sampled_from(_SPELLINGS),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-99, 99).map(str),
    )
    row = st.tuples(
        st.sampled_from(["a", "b", "c", "é", "#", "1"]),
        st.lists(st.tuples(st.sampled_from(_SEPARATORS), component), max_size=3),
        st.sampled_from(["", " ", "\r", "\t"]),
    ).map(lambda r: r[0] + "".join(sep + c for sep, c in r[1]) + r[2])
    line = st.one_of(row, row, row, st.sampled_from(["", " ", "\t", "#", "# 1 2"]))
    lines = draw(st.lists(line, max_size=9))
    header = draw(st.one_of(st.none(), st.tuples(st.integers(0, 9), st.integers(0, 3))))
    if header is not None:
        lines.insert(0, f"{header[0]} {header[1]}")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestLoadParity:
    """The block parse equals the per-component ``float()`` loop: tokens,
    matrix bits, warnings and errors, with blocks of two rows so that a bad
    row often sits in a later block."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(vec_lines())
    @example("2 2\na 1 2\nb 1\r2\nc 3 4\nd 5 nan\na 7 8\n")
    @example("a 1_0 2\nb \u0661 2\nc 1e400 1.\nd +.5 -0\ne 1\x1c2\n")
    def test_block_parse_equals_float_loop(self, caplog, monkeypatch, text):
        monkeypatch.setattr("corpusaug.embeddings.SAVE_BLOCK_ROWS", 2)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "e.vec"
            path.write_text(text, encoding="utf-8", newline="\n")
            results = []
            for load in (load_embeddings, load_embeddings_reference):
                caplog.clear()
                with caplog.at_level(logging.WARNING):
                    try:
                        table = load(path)
                    except EmbeddingFormatError as exc:
                        outcome = str(exc)
                    else:
                        outcome = (table.tokens, table.matrix.shape, table.matrix.tobytes())
                results.append((outcome, [r.getMessage() for r in caplog.records]))
        assert results[0] == results[1]


class TestCosine:
    def test_identity(self):
        assert cosine([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_analytic(self):
        assert cosine([1, 1], [1, 0]) == pytest.approx(math.sqrt(2) / 2, abs=1e-8)

    def test_zero_vector_scores_zero(self):
        assert cosine([0, 0], [1, 0]) == 0.0

    def test_self_similarity_symmetry_and_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)
            assert cosine(u, v) == cosine(v, u)
            assert -1.0 <= cosine(u, v) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1, 0], [1, 0, 0])


def _bits_of(values):
    return [float_bits(float(x)) for x in values]


class TestVecdotGuard:
    """The exact re-score takes dot products and norms by ``np.vecdot``, and
    is bit-identical to scalar ``cosine`` only while ``np.vecdot`` equals a
    per-row ``np.dot`` and ``np.linalg.norm``. A numpy or BLAS build that
    breaks this fails here instead of silently moving a recorded score."""

    def test_vecdot_equals_per_row_dot_and_norm(self):
        rng = np.random.default_rng(24)
        for dim in (1, 2, 3, 4, 7, 8, 16, 17, 64, 65):
            matrix = rng.normal(size=(300, dim)) * 10.0 ** rng.uniform(-150, 150, size=(300, 1))
            query = rng.normal(size=dim) * 10.0 ** rng.uniform(-150, 150)
            assert _bits_of(np.vecdot(matrix, query)) == _bits_of(
                np.dot(query, row) for row in matrix
            )
            assert _bits_of(np.sqrt(np.vecdot(matrix, matrix))) == _bits_of(
                np.linalg.norm(row) for row in matrix
            )
            assert _bits_of(VectorRows(matrix).norms) == _bits_of(
                np.linalg.norm(row) for row in matrix
            )
            # The batched re-score pairs each gathered row with its own query.
            queries = matrix[rng.permutation(len(matrix))]
            assert _bits_of(np.vecdot(matrix, queries)) == _bits_of(
                np.dot(query, row) for row, query in zip(matrix, queries)
            )
            assert _bits_of([np.sqrt(np.vecdot(query, query))]) == _bits_of(
                [np.linalg.norm(query)]
            )


# Components from tiny to huge: squares that underflow to a zero norm, and
# products and squares that overflow to inf, whose quotients are nan.
_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 5e-324, -5e-324]),
    st.floats(-1e200, 1e200, allow_nan=False),
    st.floats(-1e-160, 1e-160, allow_nan=False),
)


@st.composite
def cosine_cases(draw):
    """A query and a matrix of rows of one dimension, zero vectors included."""
    dim = draw(st.integers(1, 5))
    vector = st.one_of(
        st.lists(_COMPONENTS, min_size=dim, max_size=dim).map(np.array),
        st.just(np.zeros(dim)),
    )
    return draw(vector), np.array(draw(st.lists(vector, max_size=6))).reshape(-1, dim)


# Vectors whose quotient with themselves, and with their negation, rounds past
# 1 and -1 under OpenBLAS's ddot, so that the clamps are taken.
_ROUNDS_PAST_ONE = [2.0427716074923303, 0.6467029962018469, 0.6630633723762617]
_ROUNDS_PAST_MINUS_ONE = [-0.5140063716874629, -1.6480751708556527, 0.16746474422274113]


class TestCosineKernel:
    @settings(max_examples=300, deadline=None)
    @given(cosine_cases())
    @example((np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]])))  # zero query
    @example((np.array([1.0, 0.0]), np.array([[0.0, 0.0], [-0.0, 0.0]])))  # zero rows
    @example((np.array(_ROUNDS_PAST_ONE), np.array([_ROUNDS_PAST_ONE])))
    @example((np.array(_ROUNDS_PAST_MINUS_ONE), -np.array([_ROUNDS_PAST_MINUS_ONE])))
    # The quotient -5e-324 / 1e10 rounds to -0.0.
    @example((np.array([1.0, 0.0]), np.array([[-5e-324, 1e10]])))
    def test_cosines_equal_scalar_cosine_per_row(self, case):
        query, rows = case
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [cosine(query, row) for row in rows]
            got = embeddings._cosines(
                query, float(np.linalg.norm(query)), rows, VectorRows(rows).norms
            )
        assert got.dtype == np.float64
        assert _bits_of(got) == _bits_of(expected)

    def test_clamps_and_negative_zero_pinned(self):
        # A query norm of 0.5 for a unit query makes the quotients ±2.
        query = np.array([1.0, 0.0])
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [-5e-324, 1e10], [0.0, 0.0]])
        got = embeddings._cosines(query, 0.5, rows, VectorRows(rows).norms)
        assert _bits_of(got) == _bits_of([1.0, -1.0, -0.0, 0.0])
        # inf / inf is nan, which ``min(1.0, nan)`` makes 1.0.
        with np.errstate(over="ignore", invalid="ignore"):
            got = embeddings._cosines(np.array([1e300]), math.inf, np.array([[1e300]]),
                                      np.array([math.inf]))
        assert got.tolist() == [1.0]


class TestPostprocessAlpha:
    def test_alpha_one_preserves_cosines(self):
        rng = np.random.default_rng(2)
        table = random_table(rng, 20, 6)
        out = postprocess_alpha(table, 1.0)
        tokens = table.tokens
        for i in range(0, 20, 3):
            for j in range(0, 20, 4):
                before = cosine(table.get(tokens[i]), table.get(tokens[j]))
                after = cosine(out.get(tokens[i]), out.get(tokens[j]))
                assert after == pytest.approx(before, abs=1e-6)

    @pytest.mark.parametrize("alpha", [-0.5, -0.15, 0.0, 0.15, 1.0])
    def test_transformed_spectrum_matches_power(self, alpha):
        # Independent oracle: cyclic Jacobi on both gram matrices.
        rng = np.random.default_rng(1000 + abs(int(alpha * 100)))
        table = random_table(rng, 50, 8)
        out = postprocess_alpha(table, alpha)
        Xn = normalized_matrix(table)
        reference = jacobi_eigenvalues(Xn.T @ Xn) ** alpha
        Xp = out.matrix
        transformed = jacobi_eigenvalues(Xp.T @ Xp)
        rel = np.abs(np.sort(transformed) - np.sort(reference)) / np.abs(np.sort(reference))
        assert np.max(rel) < 1e-6

    def test_small_matrix_spectrum_against_oracle(self):
        rng = np.random.default_rng(77)
        for dim in (2, 5, 16):
            table = random_table(rng, 3 * dim, dim)
            out = postprocess_alpha(table, -0.15)
            Xn = normalized_matrix(table)
            reference = jacobi_eigenvalues(Xn.T @ Xn) ** -0.15
            Xp = out.matrix
            transformed = jacobi_eigenvalues(Xp.T @ Xp)
            rel = np.abs(np.sort(transformed) - np.sort(reference)) / np.abs(np.sort(reference))
            assert np.max(rel) < 1e-6

    def test_double_application_regression(self):
        # Pinned from a verified run: applying the transform twice operates
        # on already-transformed rows and matches no single exponent.
        X = np.array(
            [
                [4.0, -2.0, -1.0],
                [-1.0, -3.0, -4.0],
                [-3.0, -3.0, -4.0],
                [-1.0, -2.0, -1.0],
                [3.0, -1.0, -3.0],
                [-2.0, 4.0, 1.0],
            ]
        )
        table = EmbeddingTable(tuple(f"w{i}" for i in range(6)), X)
        twice = postprocess_alpha(postprocess_alpha(table, -0.15), -0.15)
        assert twice.get("w0") == pytest.approx(
            [-0.6367861402, -0.0200876094, -0.3157376094], abs=1e-9
        )
        assert twice.get("w3") == pytest.approx(
            [-0.0217673298, -0.6563884574, 0.1712508945], abs=1e-9
        )

    def test_rejects_empty_or_nonfinite(self):
        with pytest.raises(ValueError):
            postprocess_alpha(EmbeddingTable((), np.zeros((0, 2))), 0.5)
        table = make_table({"a": [1, 0], "b": [0, 1]})
        with pytest.raises(ValueError):
            postprocess_alpha(table, float("nan"))


class TestSentenceEmbedding:
    table = make_table({"a": [1, 0], "b": [0, 1]})

    def test_mean(self):
        assert list(sentence_embedding(("a", "b"), self.table)) == [0.5, 0.5]

    def test_skips_unknown(self):
        assert list(sentence_embedding(("a", "zzz"), self.table)) == [1.0, 0.0]

    def test_all_unknown_zero_vector(self):
        assert list(sentence_embedding(("zzz",), self.table)) == [0.0, 0.0]

    def test_permutation_invariant(self):
        table = make_table({"a": [1, 0], "b": [0, 1], "c": [2, 2]})
        fwd = sentence_embedding(("a", "b", "c"), table)
        rev = sentence_embedding(("c", "a", "b"), table)
        assert np.allclose(fwd, rev)


def sentence_rows(vectors):
    return VectorRows(np.array(vectors).reshape(len(vectors), 2))


class TestTopK:
    def query(self, vec):
        return np.array(vec, dtype=float)

    def test_basic(self):
        hits = top_k_sentences(
            self.query([1, 0]), sentence_rows([self.query([1, 0]), self.query([0, 1])]), 1
        )
        assert [(h.sentence_id, h.score) for h in hits] == [(0, 1.0)]

    def test_exclusion(self):
        hits = top_k_sentences(
            self.query([1, 0]), sentence_rows([self.query([1, 0]), self.query([0, 1])]), 1, {0}
        )
        assert [(h.sentence_id, h.score) for h in hits] == [(1, 0.0)]

    def test_tie_breaks_by_id(self):
        vectors = [self.query([2, 0]), self.query([1, 0]), self.query([3, 0])]
        hits = top_k_sentences(self.query([1, 0]), sentence_rows(vectors), 3)
        assert [h.sentence_id for h in hits] == [0, 1, 2]

    def test_fewer_than_k(self):
        hits = top_k_sentences(self.query([1, 0]), sentence_rows([self.query([1, 0])]), 5)
        assert len(hits) == 1

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k_sentences(self.query([1, 0]), sentence_rows([]), 0)


def as_pairs(result):
    """``best_word_in_sentence``'s arrays as one ``(position, score)`` pair,
    or None, per sentence."""
    positions, scores, found = result
    return [
        (position, score) if ok else None
        for position, score, ok in zip(positions.tolist(), scores.tolist(), found.tolist())
    ]


def search(index, query, sentence_ids, exclude_token=None):
    """``best_word_in_sentence`` with one query."""
    return best_word_in_sentence(index, [query], sentence_ids, [len(sentence_ids)],
                                 [exclude_token])


def search_one(table, tokens, query, exclude_token=None, lexicon=None, mode=MODE_OFF):
    """``best_word_in_sentence`` on a one-sentence corpus."""
    index = WordIndex.build([Sentence(0, tuple(tokens))], table, lexicon, mode)
    return as_pairs(search(index, query, [0], exclude_token))[0]


class TestBestWord:
    table = make_table({"a": [1, 0], "b": [0, 1]})

    def test_picks_max(self):
        assert search_one(self.table, ("a", "b"), [1, 0]) == (0, 1.0)

    def test_eligibility(self):
        assert search_one(self.table, ("a", "b"), [1, 0], exclude_token="a") == (1, 0.0)

    def test_no_embedded_tokens(self):
        assert search_one(self.table, ("x", "y"), [1, 0]) is None

    def test_tie_lowest_index(self):
        # Letter-only twin: a digit token such as "a2" is never eligible.
        table = make_table({"a": [1, 0], "aa": [1, 0]})
        assert search_one(table, ("aa", "a"), [1, 0]) == (0, 1.0)

    def test_no_sentences(self):
        index = WordIndex.build([Sentence(0, ("a",))], self.table, None, MODE_OFF)
        positions, scores, found = search(index, [1, 0], [])
        assert positions.shape == scores.shape == found.shape == (0,)

    def test_arrays_of_a_sentence_without_a_word(self):
        index = WordIndex.build([Sentence(0, ("x",)), Sentence(1, ("b", "a"))], self.table,
                                None, MODE_OFF)
        positions, scores, found = search(index, [1, 0], [1, 0, 1])
        assert positions.tolist() == [1, 0, 1]
        assert scores.tolist() == [1.0, -np.inf, 1.0]
        assert found.tolist() == [True, False, True]


# -- parity of the vectorized search with the scalar oracles -------------------

DIM = 8
# Arbitrary floats make the vectorized and the scalar dot products round
# differently; small integers give exact ties, axis-aligned and zero
# vectors. The scaled copies below give near ties a few ulps apart.
_components = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False).map(
        lambda x: x if abs(x) > 1e-3 else 0.0
    ),
    st.integers(-1, 1).map(float),
)
_vectors = st.one_of(
    st.lists(_components, min_size=DIM, max_size=DIM),
    st.lists(st.integers(-1, 1).map(float), min_size=DIM, max_size=DIM),
)


@st.composite
def _near_tie_pool(draw, size):
    """Vectors, some repeated exactly and some scaled by 1 + k * 2**-52."""
    pool = []
    for _ in range(size):
        if pool and draw(st.booleans()):
            base = pool[draw(st.integers(0, len(pool) - 1))]
            pool.append(base * (1.0 + draw(st.integers(0, 3)) * 2.0**-52))
        else:
            pool.append(np.array(draw(_vectors)))
    return pool


# Letter tokens, two that are never eligible by their form, and one that has
# no vector.
_WORDS = ("ant", "bee", "cat", "dog", "eel", "fox")
_FORM_INELIGIBLE = ("a1", "...")
_NO_VECTOR = "zzz"


@st.composite
def search_cases(draw):
    pool = draw(_near_tie_pool(len(_WORDS) + len(_FORM_INELIGIBLE) + 2))
    tokens = _WORDS + _FORM_INELIGIBLE
    table = EmbeddingTable(tokens, np.stack(pool[: len(tokens)]))
    vocabulary = _WORDS + _FORM_INELIGIBLE + (_NO_VECTOR,)
    sentences = [
        Sentence(i, tuple(tokens))
        for i, tokens in enumerate(
            draw(st.lists(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=8),
                          min_size=1, max_size=6))
        )
    ]
    mode = draw(st.sampled_from((MODE_OFF, MODE_POS)))
    annotated = draw(st.sets(st.sampled_from(_WORDS)))
    lexicon = AnnotatedLexicon({t: TokenAnnotation("NOUN") for t in annotated})
    queries = draw(st.lists(st.tuples(
        st.one_of(_vectors.map(np.array), st.sampled_from(pool), st.just(np.zeros(DIM))),
        st.one_of(st.none(), st.sampled_from(vocabulary)),
        st.lists(st.integers(0, len(sentences) - 1), max_size=8),
    ), min_size=1, max_size=4))
    return table, sentences, lexicon, mode, queries


def float_bits(x):
    return struct.pack("<d", x)


def bits(result):
    """A (position, score) pair with the score as its exact IEEE-754 bytes."""
    return None if result is None else (result[0], float_bits(result[1]))


class TestSearchParity:
    @settings(max_examples=200, deadline=None)
    @given(search_cases())
    def test_best_word_matches_scalar_loop(self, case):
        # One call searches for every query, each in its own sentences with
        # its own excluded token, as a scalar loop per query does, in blocks
        # of one query, of a few, or of all of them.
        table, sentences, lexicon, mode, queries = case
        index = WordIndex.build(sentences, table, lexicon, mode)
        expected = [
            best_word_reference(
                query, sentences[i], table,
                eligible_reference(sentences[i], identity, lexicon, mode),
            )
            for query, identity, candidates in queries
            for i in candidates
        ]
        for block in (1, 24, SEARCH_BLOCK):
            with mock.patch.object(embeddings, "SEARCH_BLOCK", block):
                got = as_pairs(best_word_in_sentence(
                    index, np.stack([query for query, _, _ in queries]),
                    [i for _, _, candidates in queries for i in candidates],
                    [len(candidates) for _, _, candidates in queries],
                    [identity for _, identity, _ in queries],
                ))
            assert [bits(r) for r in got] == [bits(r) for r in expected]

    @settings(max_examples=200, deadline=None)
    @given(_near_tie_pool(8), st.data())
    def test_top_k_matches_scalar_sort(self, pool, data):
        query = data.draw(st.one_of(
            _vectors.map(np.array), st.sampled_from(pool), st.just(np.zeros(DIM))
        ))
        k = data.draw(st.integers(1, len(pool) + 1))
        exclude = data.draw(st.sets(st.integers(0, len(pool) - 1)))
        got = top_k_sentences(query, VectorRows(np.stack(pool)), k, exclude)
        expected = top_k_reference(query, pool, k, exclude)
        assert [(h.sentence_id, float_bits(h.score)) for h in got] == [
            (h.sentence_id, float_bits(h.score)) for h in expected
        ]

    def test_masking_and_gating_pinned(self):
        # "cat" is the identity token, "a1" and "..." are ineligible by form,
        # "zzz" has no vector and "dog" is unannotated under the POS mode.
        table = make_table({"cat": [1, 0], "dog": [1, 0.1], "eel": [1, 0.5],
                            "a1": [1, 0], "...": [1, 0]})
        lexicon = AnnotatedLexicon({t: TokenAnnotation("NOUN") for t in ("cat", "eel")})
        tokens = ("a1", "cat", "zzz", "...", "dog", "eel")
        assert search_one(table, tokens, [1, 0], "cat")[0] == 4
        assert search_one(table, tokens, [1, 0], "cat", lexicon, MODE_POS)[0] == 5
        assert search_one(table, ("a1", "...", "zzz"), [1, 0]) is None
        assert search_one(table, tokens, [1, 0], None, None, MODE_POS) is None
