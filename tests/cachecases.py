"""Damaged cache files: one case per way a cached table can be malformed.

A case is ``(id, damage, message)``. ``damage(magic, arrays)`` returns the
bytes of a damaged file built from the arrays of a good one, and ``message``
is a pattern the loader's error must match. The unit tests load each case
directly; the CLI tests plant it in a prepared cache.

``ALTERED_CASES`` are files that still parse but differ from what
``prepare`` wrote: only the hash in ``fingerprints.json`` tells them apart.
"""

import io

import numpy as np

from corpusaug.aligner import ALIGNER_MAGIC
from corpusaug.embeddings import EMBEDDINGS_MAGIC
from corpusaug.lm import LM_MAGIC


def pack(magic, arrays):
    buffer = io.BytesIO()
    buffer.write(magic)
    for array in arrays:
        np.lib.format.write_array(buffer, np.asarray(array), allow_pickle=False)
    return buffer.getvalue()


def read_cache(path, magic, count):
    """The arrays of a good cache file, read with numpy alone."""
    with open(path, "rb") as fh:
        assert fh.read(len(magic)) == magic
        return [np.lib.format.read_array(fh) for _ in range(count)]


def _replace(index, value):
    def damage(magic, arrays):
        arrays = list(arrays)
        arrays[index] = value(arrays[index]) if callable(value) else value
        return pack(magic, arrays)

    return damage


def _set(index, position, value):
    def change(array):
        array = array.copy()
        array[position] = value
        return array

    return _replace(index, change)


def _id_past_end(ids, tokens, position):
    """Set one id to the number of tokens it indexes, one past the last."""
    def damage(magic, arrays):
        arrays = list(arrays)
        arrays[ids] = arrays[ids].astype(np.uint64)
        arrays[ids][position] = np.count_nonzero(arrays[tokens] == ord("\n"))
        return pack(magic, arrays)

    return damage


def _huge_header(magic, arrays):
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buffer, {"descr": "<f8", "fortran_order": False, "shape": (10**15,)}
    )
    return pack(magic, arrays[:-1]) + buffer.getvalue() + arrays[-1].tobytes()


def _layout_1(magic, arrays):
    """The file as layout 1 wrote it: a direction array before the others."""
    direction = np.frombuffer(b"tgt_given_src\n", dtype=np.uint8)
    return pack(magic.replace(b" 2\n", b" 1\n"), [direction] + list(arrays))


def _reversed_tokens(array):
    tokens = array.tobytes().decode("utf-8").split("\n")[:-1]
    return np.frombuffer("".join(t + "\n" for t in reversed(tokens)).encode("utf-8"), dtype=np.uint8)


def _common(token_index):
    """Cases that every cache file shares; ``token_index`` is a token array."""
    return [
        ("truncated", lambda m, a: pack(m, a)[:-1], "Failed to read all data"),
        ("cut_in_header", lambda m, a: pack(m, a)[: len(m) + 20], "EOF"),
        ("missing_array", lambda m, a: pack(m, a[:-1]), "EOF"),
        ("trailing_bytes", lambda m, a: pack(m, a) + b"\0", "trailing"),
        ("huge_header", _huge_header, "larger than"),
        ("not_utf8", _replace(token_index, np.frombuffer(b"a\n\xff\n", dtype=np.uint8)), "utf-8"),
        ("no_final_newline", _replace(token_index, np.frombuffer(b"a\nb", dtype=np.uint8)), "newline"),
    ]


# Arrays: dim, tokens, matrix.
EMBEDDING_CASES = _common(1) + [
    ("wrong_magic", lambda m, a: pack(m.replace(b" 1\n", b" 0\n"), a), "undecodable byte at offset 0"),
    ("float32_matrix", _replace(2, lambda x: x.astype(np.float32)), "float64 matrix"),
    ("too_few_rows", _replace(2, lambda x: x[:-1]), "float64 matrix"),
    ("wrong_dim", _replace(0, np.array([1000])), "float64 matrix"),
    ("zero_dim", _replace(0, np.array([0])), "dimension"),
    ("non_finite", _set(2, (0, 0), np.nan), "non-finite"),
    ("infinite", _set(2, (-1, -1), -np.inf), "non-finite"),
    ("duplicate_token", lambda m, a: pack(
        m, [a[0], np.frombuffer(b"a\n" * (a[2].shape[0]), dtype=np.uint8), a[2]]
    ), "duplicate"),
]

# Arrays: conditioning tokens, generated tokens, e ids, f ids, probabilities.
ALIGNER_CASES = _common(0) + [
    ("wrong_magic", _layout_1, "bad magic"),
    ("older_text_cache", lambda m, a: b"#direction\ttgt_given_src\nx\ty\t0.5\n", "bad magic"),
    ("float_ids", _replace(2, lambda x: x.astype(np.float64)), "id array"),
    ("float32_probabilities", _replace(4, lambda x: x.astype(np.float32)), "probability array"),
    ("lengths_differ", _replace(3, lambda x: x[:-1]), "lengths differ"),
    ("conditioning_id_out_of_range", _id_past_end(2, 0, -1), "out of range"),
    ("generated_id_out_of_range", _id_past_end(3, 1, 0), "out of range"),
    ("out_of_order", _replace(3, lambda x: x[::-1].copy()), "strictly increasing"),
    ("non_finite", _set(4, 0, np.inf), "non-finite"),
    ("unsorted_vocabulary", _replace(1, _reversed_tokens), "not strictly sorted"),
]

# (artifact, cache file, magic, array count, damage) for each artifact.
ALTERED_CASES = [
    ("aligner", "aligner.bin", ALIGNER_MAGIC, 5, _replace(4, lambda p: np.full_like(p, 0.5))),
    ("lm_src", "lm.src.bin", LM_MAGIC, 8, _set(0, 0, 0.5)),
    ("lm_tgt", "lm.tgt.bin", LM_MAGIC, 8, _set(0, 0, 0.5)),
    ("embeddings_src", "embeddings.src.bin", EMBEDDINGS_MAGIC, 3, _replace(2, lambda x: 2 * x)),
]
