"""The binary layout shared by the artifacts that ``prepare`` caches.

A cache file is a magic line naming the artifact and its format number,
then a fixed number of ``.npy`` arrays written with ``allow_pickle=False``,
and nothing after them. A list of tokens is one uint8 array of UTF-8 text
with each token ended by a newline. Equal arrays give equal bytes.

A cache stores a float as the value its text form parses back to, so that
loading it equals a text round trip bit for bit; :func:`rint_clear` is the
test that tells when arithmetic alone finds that value.

Readers raise ``ValueError`` (``UnicodeDecodeError`` included) on any
malformation, whatever numpy's own parse of an array raised; each loader
turns it into its own error naming the path.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np


def write_arrays(path: str | Path, magic: bytes, arrays: Sequence[np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(magic)
        for array in arrays:
            np.lib.format.write_array(fh, array, allow_pickle=False)


def has_magic(path: str | Path, magic: bytes) -> bool:
    with open(path, "rb") as fh:
        return fh.read(len(magic)) == magic


def read_arrays(path: str | Path, magic: bytes, count: int) -> List[np.ndarray]:
    """The ``count`` arrays after ``magic``, which must end the file."""
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise ValueError(f"bad magic, expected {magic!r}")
        try:
            arrays = [np.lib.format.read_array(fh, allow_pickle=False) for _ in range(count)]
        except MemoryError as exc:  # numpy allocates what a header claims
            raise ValueError(f"an array header claims an array larger than memory: {exc}") from exc
        except Exception as exc:
            # The header is a Python literal that numpy parses with ``ast`` and
            # ``tokenize``, so damaged bytes can raise any of their errors
            # (``SyntaxError``, ``tokenize.TokenError``, ...) besides its own.
            raise ValueError(f"unreadable array: {type(exc).__name__}: {exc}") from exc
        if fh.read(1):
            raise ValueError("trailing bytes after the last array")
    return arrays


def encode_tokens(tokens: Sequence[str]) -> np.ndarray:
    if any("\n" in token for token in tokens):
        raise ValueError("a token containing a newline cannot be saved")
    return np.frombuffer("".join(t + "\n" for t in tokens).encode("utf-8"), dtype=np.uint8)


def decode_tokens(array: np.ndarray) -> List[str]:
    if array.dtype != np.uint8 or array.ndim != 1:
        raise ValueError("bad token array type or shape")
    tokens = array.tobytes().decode("utf-8").split("\n")
    if tokens.pop() != "":
        raise ValueError("token list does not end with a newline")
    return tokens


def narrow(array: np.ndarray) -> np.ndarray:
    """The array in the narrowest unsigned type that holds its largest value."""
    top = int(array.max()) if array.size else 0
    return array.astype(np.min_scalar_type(top).newbyteorder("<"))


def rint_clear(scaled: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.rint(scaled)``, and where it is surely the rounding of the exact
    product that ``scaled`` approximates.

    A product of two floats is off by at most a relative ``2**-53``. Where
    ``scaled`` lies farther than ``max(1e-6, |scaled| * 2**-50)`` from a
    half-integer, the exact product rounds to the same integer, and no text
    formatter could round it otherwise. Near a tie, and where ``scaled`` is
    not finite, the value is not clear and the caller formats it as text.
    """
    with np.errstate(invalid="ignore"):
        rounded = np.rint(scaled)
        clear = 0.5 - np.abs(scaled - rounded) >= np.maximum(1e-6, np.abs(scaled) * 2.0**-50)
    return rounded, clear
