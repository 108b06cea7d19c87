"""Word-vector table, similarity-order post-processing, and cosine retrieval.

The table is one float64 matrix with a row per token and a token -> row
map. Everything downstream reads that matrix: the candidate-word search
indexes a subset of its rows, and a sentence vector is the mean of the rows
of the sentence's covered tokens.

Vectors are read from the common textual format (optional ``count dim``
header, then one ``token v1 .. vd`` row per line), which :func:`export_vec`
writes. The cache that ``prepare`` writes with :func:`save_embeddings` is
binary: each component is stored as the value its 6-decimal text form
parses back to, so loading it gives the table a text round trip gives, bit
for bit, without formatting or parsing any text. The post-processing step
re-expresses the table in its gram-matrix eigenbasis and raises the spectrum
to a configurable power, shifting the similarity captured by cosine between
more-syntactic and more-semantic regimes.

Retrieval scores all rows with one matrix product, but those scores only
pre-rank: the rows within ``PRERANK_WINDOW`` of the cut are re-scored by
:func:`_cosines`, one ``np.vecdot`` over the gathered rows, paired with
their queries when one call serves many. ``np.vecdot`` takes each row's dot
product as ``np.dot`` does on the 1-D row, and
:func:`_cosines` then follows :func:`cosine`'s arithmetic per element, so
the rows picked and the scores returned are bit-identical to a loop of
scalar ``cosine`` calls.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .agreement import MODE_OFF, AnnotatedLexicon
from .cachefile import (
    decode_tokens, encode_tokens, has_magic, read_arrays, rint_clear, write_arrays,
)
from .corpus_io import Sentence, has_digit, is_punctuation, iter_lines

log = logging.getLogger(__name__)

EIGENVALUE_FLOOR = 1e-10
EXPORT_DECIMALS = 6
# First bytes of a cached table. The first byte is not valid UTF-8, so no
# textual vector file starts with it; the format number changes with the layout.
EMBEDDINGS_MAGIC = b"\x93corpusaug-embeddings 1\n"
# Rows parsed per block when reading text, and rounded per block when saving;
# it bounds the temporaries.
SAVE_BLOCK_ROWS = 1024
# Entries of the largest array of one block of the word search: its tokens,
# and its queries times the indexed types; it bounds the temporaries.
SEARCH_BLOCK = 1 << 15
# A vectorized cosine differs from the scalar one by a few ulps times the
# dimension, far less than this window, so re-scoring every row inside it
# exactly cannot miss the row the scalar loop would pick.
PRERANK_WINDOW = 1e-9


class EmbeddingFormatError(ValueError):
    """The vector file has no parseable rows, or a cached table is malformed."""


class NumericError(ArithmeticError):
    """A numeric step produced non-finite values, or a divisor underflowed to 0."""


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """The vectors as the rows of one float64 matrix: row ``i`` is the
    vector of ``tokens[i]``, and ``row_of`` maps each token to its row."""

    tokens: Tuple[str, ...]
    matrix: np.ndarray
    row_of: Dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or len(self.matrix) != len(self.tokens):
            raise ValueError(
                f"expected one row per token ({len(self.tokens)}), got shape {self.matrix.shape}"
            )
        if self.dim < 1:
            raise ValueError(f"vector dimension must be at least 1, got {self.dim}")
        object.__setattr__(self, "row_of", {token: i for i, token in enumerate(self.tokens)})
        if len(self.row_of) != len(self.tokens):
            raise ValueError("duplicate token")

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, token: str) -> bool:
        return token in self.row_of

    def __len__(self) -> int:
        return len(self.tokens)

    def get(self, token: str) -> Optional[np.ndarray]:
        """The token's row (a view of the matrix), or None."""
        row = self.row_of.get(token)
        return None if row is None else self.matrix[row]


@dataclass(frozen=True)
class SimilarityHit:
    sentence_id: int
    score: float


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read a cached table written by :func:`save_embeddings`, or a textual file.

    A file that starts with ``EMBEDDINGS_MAGIC`` is a cached table; a
    malformed one raises :class:`EmbeddingFormatError` naming the path.
    Otherwise the file is parsed as text: the dimension comes from the
    header when present, otherwise from the first data row; a header
    dimension below 1 raises :class:`EmbeddingFormatError` naming line 1.
    Rows with the wrong component count or unparseable / non-finite values
    are skipped with a warning; for duplicate tokens the first row wins.
    """
    p = Path(path)
    if not p.is_file():
        raise EmbeddingFormatError(f"embedding file not found: {p}")
    if has_magic(p, EMBEDDINGS_MAGIC):
        try:
            return _read_cache(p)
        except ValueError as exc:
            raise EmbeddingFormatError(f"{p}: {exc}") from exc
    rows: Optional[_TextRows] = None
    for lineno, line in enumerate(iter_lines(p, EmbeddingFormatError), start=1):
        parts = line.split(None, 1)
        if not parts:
            continue
        if lineno == 1 and len(header := line.split()) == 2:
            try:
                int(header[0]), int(header[1])
            except ValueError:
                pass
            else:
                dim = int(header[1])
                if dim < 1:
                    raise EmbeddingFormatError(f"{p}:1: dimension must be at least 1, got {dim}")
                rows = _TextRows(p, dim)
                continue
        if len(parts) == 1:
            if rows is None:
                log.warning("%s:%d: no vector components; row skipped", p, lineno)
            else:
                rows.skip(lineno, "expected %d components, got 0; row skipped", rows.dim)
            continue
        if rows is None:
            rows = _TextRows(p, len(parts[1].split()))
        rows.add(lineno, parts[0], parts[1])
    if rows is not None:
        rows.flush()
    if rows is None or not rows.tokens:
        raise EmbeddingFormatError(f"{p}: no parseable embedding rows")
    return EmbeddingTable(tuple(rows.tokens), np.concatenate(rows.blocks))


class _TextRows:
    """The data rows of a textual vector file, parsed ``SAVE_BLOCK_ROWS`` at a time.

    Each block's component texts are parsed by one ``np.loadtxt`` call, which
    reads a number as ``float()`` does and splits on the same whitespace as
    ``str.split``. A block that numpy refuses, or that comes out in another
    shape (a row of the wrong length, a spelling such as ``1_0`` that only
    ``float()`` accepts, a ``\\r`` inside a line), is parsed again row by row
    with ``float()``. Either way each skipped row gets its own warning, in
    line order.
    """

    def __init__(self, path: Path, dim: int) -> None:
        self.path, self.dim = path, dim
        self.tokens: List[str] = []
        self.blocks: List[np.ndarray] = []
        self.seen: Set[str] = set()
        self.pending: List[Tuple[int, str, str]] = []  # (line number, token, components)

    def add(self, lineno: int, token: str, components: str) -> None:
        self.pending.append((lineno, token, components))
        if len(self.pending) == SAVE_BLOCK_ROWS:
            self.flush()

    def skip(self, lineno: int, message: str, *args: object) -> None:
        self.flush()  # the rows before it warn first
        log.warning("%s:%d: " + message, self.path, lineno, *args)

    def flush(self) -> None:
        """Parse the pending rows."""
        block, self.pending = self.pending, []
        if not block:
            return
        try:
            matrix = np.loadtxt(
                [components for _, _, components in block],
                dtype=np.float64, comments=None, ndmin=2,
            )
        except ValueError:
            matrix = None
        if matrix is None or matrix.shape != (len(block), self.dim):
            self.blocks.append(self._parse_rows(block))
            return
        finite = np.isfinite(matrix).all(axis=1).tolist()
        kept = [self._keep(lineno, token, ok) for (lineno, token, _), ok in zip(block, finite)]
        self.blocks.append(matrix[np.array(kept)])

    def _parse_rows(self, block: List[Tuple[int, str, str]]) -> np.ndarray:
        vectors = []
        for lineno, token, components in block:
            comps = components.split()
            if len(comps) != self.dim:
                log.warning(
                    "%s:%d: expected %d components, got %d; row skipped",
                    self.path, lineno, self.dim, len(comps),
                )
                continue
            try:
                vec = [float(c) for c in comps]
            except ValueError:
                log.warning("%s:%d: unparseable vector component; row skipped", self.path, lineno)
                continue
            if self._keep(lineno, token, all(map(math.isfinite, vec))):
                vectors.append(vec)
        return np.array(vectors, dtype=np.float64).reshape(-1, self.dim)

    def _keep(self, lineno: int, token: str, finite: bool) -> bool:
        """Whether a parsed row is kept; a skipped row is warned about."""
        if not finite:
            log.warning("%s:%d: non-finite vector component; row skipped", self.path, lineno)
            return False
        if token in self.seen:
            log.warning("%s:%d: duplicate token %r; first kept", self.path, lineno, token)
            return False
        self.seen.add(token)
        self.tokens.append(token)
        return True


def export_vec(table: EmbeddingTable, path: str | Path) -> None:
    """Write the table in the textual format with a ``count dim`` header.

    Components are rounded to 6 decimal places, so write -> read -> write
    is byte-stable.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for token, vec in zip(table.tokens, table.matrix):
            comps = " ".join(f"{v:.{EXPORT_DECIMALS}f}" for v in vec)
            fh.write(f"{token} {comps}\n")


def _round_as_text(block: np.ndarray) -> None:
    """Replace each value in place by ``float(f"{x:.6f}")``.

    ``n = rint(x * 1e6)`` is the 6-decimal rounding of ``x`` unless
    :func:`rint_clear` finds ``x * 1e6`` near a tie, or it is too large to
    carry a fraction; those values are rounded by the text formatter instead.
    ``n / 1e6`` is then the correctly rounded quotient of two exact values,
    which is what parsing the text gives. ``rint`` keeps the sign of a value
    rounded to zero, as the text ``-0.000000`` does.
    """
    scale = 10.0**EXPORT_DECIMALS
    # x * 1e6 overflows for |x| > 1.8e302; such values are not clear.
    with np.errstate(over="ignore"):
        scaled = block * scale
    rounded, clear = rint_clear(scaled)
    near_tie = ~clear
    exact = [float(f"{x:.{EXPORT_DECIMALS}f}") for x in block[near_tie].tolist()]
    np.divide(rounded, scale, out=block)
    block[near_tie] = exact


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Cache the table as ``EMBEDDINGS_MAGIC`` followed by three ``.npy`` arrays.

    In order: the dimension, the tokens in row order as UTF-8 with each
    token ended by a newline, and the float64 matrix of rows. Each value is
    stored as it would read back from :func:`export_vec`'s text, so a
    loaded cache equals a loaded export bit for bit. Equal tables give
    equal bytes.
    """
    matrix = table.matrix.astype("<f8")
    for lo in range(0, len(matrix), SAVE_BLOCK_ROWS):
        _round_as_text(matrix[lo : lo + SAVE_BLOCK_ROWS])
    dim = np.array([table.dim], dtype="<i8")
    write_arrays(path, EMBEDDINGS_MAGIC, (dim, encode_tokens(table.tokens), matrix))


def _read_cache(path: Path) -> EmbeddingTable:
    dim, vocab, matrix = read_arrays(path, EMBEDDINGS_MAGIC, 3)
    if dim.shape != (1,) or dim.dtype.kind not in "iu" or dim[0] < 1:
        raise ValueError("bad dimension array")
    tokens = decode_tokens(vocab)
    if not tokens:
        raise ValueError("no embedding rows")
    if matrix.dtype != np.float64 or matrix.shape != (len(tokens), int(dim[0])):
        raise ValueError(
            f"expected a float64 matrix of shape ({len(tokens)}, {int(dim[0])}), "
            f"got {matrix.dtype} {matrix.shape}"
        )
    if not np.all(np.isfinite(matrix)):
        raise ValueError("non-finite vector component")
    return EmbeddingTable(tuple(tokens), matrix)


def postprocess_alpha(table: EmbeddingTable, alpha: float) -> EmbeddingTable:
    """Apply the similarity-order transformation with exponent ``alpha``.

    Rows are length-normalized, the gram matrix G = X^T X is
    eigendecomposed as Q diag(w) Q^T with eigenvalues floored at 1e-10
    (negative exponents need a strictly positive spectrum), and the table is
    re-expressed as X' = X Q diag(w^((alpha-1)/2)). The transformed gram
    matrix then has spectrum w^alpha; alpha = 1 is a pure rotation.
    """
    if not len(table):
        raise ValueError("cannot post-process an empty embedding table")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    tokens, X = table.tokens, table.matrix
    del table  # frees the input matrix once X is normalized, unless the caller holds it
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    X = X / np.where(norms > 0.0, norms, 1.0)  # a zero row stays zero
    gram = X.T @ X
    eigenvalues, Q = np.linalg.eigh(gram)
    eigenvalues = np.clip(eigenvalues, EIGENVALUE_FLOOR, None)
    if not np.all(np.isfinite(eigenvalues)):
        raise NumericError("non-finite eigenvalue in gram matrix")
    scale = eigenvalues ** ((alpha - 1.0) / 2.0)
    if not np.all(np.isfinite(scale)):
        raise NumericError(f"non-finite spectral scale for alpha={alpha}")
    transformed = X @ Q
    transformed *= scale
    if not np.all(np.isfinite(transformed)):
        raise NumericError("non-finite components after post-processing")
    return EmbeddingTable(tokens, transformed)


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]; zero vectors score 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"vector length mismatch: {u.shape} vs {v.shape}")
    return _cosine(u, float(np.linalg.norm(u)), v, float(np.linalg.norm(v)))


def _cosine(u: np.ndarray, nu: float, v: np.ndarray, nv: float) -> float:
    """:func:`cosine` given both norms; the one definition of its arithmetic."""
    if nu == 0.0 or nv == 0.0:
        return 0.0
    value = float(np.dot(u, v)) / (nu * nv)
    return max(-1.0, min(1.0, value))


def _cosines(query: np.ndarray, query_norm: float | np.ndarray, rows: np.ndarray,
             norms: np.ndarray) -> np.ndarray:
    """``_cosine(query, query_norm, row, norm)`` for each row and its norm,
    as one array. ``query`` and ``query_norm`` are one vector and its norm,
    or one of each per row, paired with the rows.

    One ``np.vecdot`` takes every row's dot product with its query as
    ``np.dot`` takes it for one row. The rest is ``_cosine`` per element: 0.0
    where either norm is zero, else the dot product over the product of the
    norms, clamped as ``min`` and ``max`` clamp it: ``np.fmin`` and
    ``np.fmax`` keep a ``-0.0`` and turn a nan (inf over inf, from norms
    that overflow) into 1.0, as ``min(1.0, nan)`` does.
    """
    values = np.zeros(len(norms))
    np.divide(np.vecdot(rows, query), query_norm * norms, out=values,
              where=(norms != 0.0) & (query_norm != 0.0))
    np.fmin(values, 1.0, out=values)
    return np.fmax(values, -1.0, out=values)


class VectorRows:
    """The rows of a matrix with their norms, so that one product scores them all.

    The norms are one ``np.vecdot`` of the matrix with itself and a square
    root, which equals ``np.linalg.norm`` of each 1-D row as :func:`cosine`
    computes it, so :func:`_cosines` over gathered rows and their norms is
    bit-identical to ``cosine(query, row)`` per row.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix
        self.norms = np.sqrt(np.vecdot(matrix, matrix))

    def __len__(self) -> int:
        return len(self.matrix)

    def prerank(self, query: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized cosine of every row with ``query``, and the query norm.

        ``query`` may be one vector or a matrix of them, one per row; the
        scores then hold one row per query, from one matrix product, and
        the norms are one ``np.vecdot``, each equal to ``np.linalg.norm``.
        """
        query_norm = np.sqrt(np.vecdot(query, query))
        denominators = np.multiply.outer(query_norm, self.norms)
        scores = np.zeros(denominators.shape)
        np.divide((self.matrix @ query.T).T, denominators, out=scores, where=denominators > 0.0)
        return np.clip(scores, -1.0, 1.0, out=scores), query_norm


def sentence_embedding(tokens: Sequence[str], table: EmbeddingTable) -> np.ndarray:
    """The mean of the rows of the tokens present in the table.

    Uncovered tokens are skipped; with no covered token the result is the
    zero vector (which ranks last under cosine).
    """
    rows = [table.row_of[t] for t in tokens if t in table.row_of]
    if not rows:
        return np.zeros(table.dim)
    return table.matrix[rows].mean(axis=0)


def top_k_sentences(
    query: np.ndarray,
    corpus_rows: VectorRows,
    k: int,
    exclude: Optional[Set[int]] = None,
) -> List[SimilarityHit]:
    """The k sentences most cosine-similar to the query.

    ``corpus_rows`` holds the sentence vectors in sentence-id order. One
    matvec pre-ranks them; the sentences within ``PRERANK_WINDOW`` of the
    k-th pre-rank score are re-scored by :func:`_cosines`, then ordered by
    (score desc, sentence id asc), which makes results deterministic. Ids in
    ``exclude`` are skipped. Fewer than k available returns all available.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query_vec = np.asarray(query, dtype=np.float64)
    scores, query_norm = corpus_rows.prerank(query_vec)
    ids = np.flatnonzero(np.isin(np.arange(len(corpus_rows)), list(exclude or ()), invert=True))
    if len(ids) > k:
        kth = np.partition(scores[ids], len(ids) - k)[len(ids) - k]
        ids = ids[scores[ids] >= kth - PRERANK_WINDOW]
    exact = _cosines(query_vec, query_norm, corpus_rows.matrix[ids], corpus_rows.norms[ids])
    hits = [SimilarityHit(i, score) for i, score in zip(ids.tolist(), exact.tolist())]
    hits.sort(key=lambda h: (-h.score, h.sentence_id))
    return hits[:k]


@dataclass(frozen=True)
class WordIndex:
    """The source sentences as the candidate-word search sees them.

    ``rows`` holds the table row of each eligible source type: the type has a
    vector, is neither a digit nor a punctuation token, and is annotated
    when the syntactic mode is not ``off``. ``tokens`` holds the type id of
    every source token, sentence after sentence; sentence ``i`` is the
    ``lengths[i]`` ids from ``starts[i]`` on. Ineligible tokens carry the
    sentinel id ``len(rows)``.
    """

    rows: VectorRows
    type_ids: Dict[str, int]
    tokens: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    @classmethod
    def build(
        cls,
        sentences: Sequence[Sentence],
        table: EmbeddingTable,
        lexicon: Optional[AnnotatedLexicon],
        mode: str,
    ) -> "WordIndex":
        type_ids: Dict[str, int] = {}
        ineligible: Set[str] = set()
        rows: List[int] = []
        for sentence in sentences:
            for token in sentence.tokens:
                if token in type_ids or token in ineligible:
                    continue
                row = table.row_of.get(token)
                if (
                    row is None
                    or has_digit(token)
                    or is_punctuation(token)
                    or (mode != MODE_OFF and (lexicon is None or token not in lexicon))
                ):
                    ineligible.add(token)
                    continue
                type_ids[token] = len(rows)
                rows.append(row)
        sentinel = len(rows)
        lengths = np.array([len(s.tokens) for s in sentences], dtype=np.intp)
        return cls(
            rows=VectorRows(table.matrix[np.array(rows, dtype=np.intp)]),
            type_ids=type_ids,
            tokens=np.array(
                [type_ids.get(t, sentinel) for s in sentences for t in s.tokens], dtype=np.intp
            ),
            starts=np.cumsum(lengths) - lengths,
            lengths=lengths,
        )


def best_word_in_sentence(
    index: WordIndex,
    queries: np.ndarray,
    sentence_ids: Sequence[int] | np.ndarray,
    counts: Sequence[int] | np.ndarray,
    exclude_tokens: Sequence[Optional[str]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each listed sentence, the eligible position most similar to its query.

    Query ``q`` (a row of ``queries``) owns the next ``counts[q]`` entries of
    ``sentence_ids``, and ``exclude_tokens[q]`` (None for none) is masked out
    of its search. Returns three arrays, one entry per listed sentence: the
    position, its score and whether the sentence has an eligible token at
    all. Where it has, the position and score are the ``(position, score)``
    of a per-token ``cosine`` loop with ties to the lowest index; where it
    has not, they are 0 and ``-inf``. No result depends on the other queries.

    The queries are searched in blocks of consecutive queries, each as large
    as ``SEARCH_BLOCK`` allows for its score table and for its sentences'
    tokens, and at least one query; see :func:`_search_block`.
    """
    queries = np.asarray(queries, dtype=np.float64)
    sentence_ids = np.asarray(sentence_ids, dtype=np.intp)
    counts = np.asarray(counts, dtype=np.intp)
    tokens = np.bincount(np.repeat(np.arange(len(counts)), counts),
                         weights=index.lengths[sentence_ids], minlength=len(counts))
    per_query = len(index.rows) + 1
    firsts = (np.cumsum(counts) - counts).tolist() + [len(sentence_ids)]
    blocks, start, used = [], 0, 0.0
    for q, size in enumerate(tokens.tolist()):
        if q > start and (used + size > SEARCH_BLOCK or (q - start + 1) * per_query > SEARCH_BLOCK):
            blocks.append((start, q))
            start, used = q, 0.0
        used += size
    blocks.append((start, len(counts)))
    found = [
        _search_block(index, queries[a:b], sentence_ids[firsts[a] : firsts[b]], counts[a:b],
                      exclude_tokens[a:b])
        for a, b in blocks
    ]
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _search_block(
    index: WordIndex,
    queries: np.ndarray,
    sentence_ids: np.ndarray,
    counts: np.ndarray,
    exclude_tokens: Sequence[Optional[str]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`best_word_in_sentence` over one block of queries.

    One matrix product pre-ranks every eligible type against every query;
    each sentence gathers its query's scores by type id. These scores only
    pre-rank: the (query, type) pairs at the positions within
    ``PRERANK_WINDOW`` of their sentence's best are re-scored by one
    :func:`_cosines` call, and the first position with the highest exact
    score wins.
    """
    if not len(sentence_ids):
        return np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0, dtype=bool)
    rows = index.rows
    prerank, query_norms = rows.prerank(queries)
    types = len(rows) + 1
    type_scores = np.full((len(queries), types), -np.inf)  # the sentinel id scores -inf
    type_scores[:, :-1] = prerank
    for q, token in enumerate(exclude_tokens):
        excluded = index.type_ids.get(token)
        if excluded is not None:
            type_scores[q, excluded] = -np.inf

    lengths = index.lengths[sentence_ids]
    starts = np.cumsum(lengths) - lengths
    # The listed sentences' ids in ``index.tokens``, one sentence after another,
    # each as a (query, type) key of the flat score table.
    ids = index.tokens[np.repeat(index.starts[sentence_ids] - starts, lengths)
                       + np.arange(starts[-1] + lengths[-1])]
    keys = np.repeat(np.repeat(np.arange(len(queries)) * types, counts), lengths) + ids
    scores = type_scores.ravel()[keys]
    best = np.maximum.reduceat(scores, starts)
    found = best > -np.inf
    near = (scores > -np.inf) & (scores >= np.repeat(best - PRERANK_WINDOW, lengths))

    # A mask rather than np.unique, which imports numpy.ma (about 1 MiB).
    rescored = np.zeros(type_scores.size, dtype=bool)
    rescored[keys[near]] = True
    rescored = np.flatnonzero(rescored)
    owner, rescored_types = np.divmod(rescored, types)
    exact = np.full(type_scores.size, -np.inf)
    exact[rescored] = _cosines(queries[owner], query_norms[owner], rows.matrix[rescored_types],
                               rows.norms[rescored_types])
    scores = np.where(near, exact[keys], -np.inf)
    best = np.maximum.reduceat(scores, starts)
    winners = np.flatnonzero(near & (scores == np.repeat(best, lengths)))
    positions = np.zeros(len(starts), dtype=np.intp)
    positions[found] = winners[np.searchsorted(winners, starts[found])] - starts[found]
    return positions, best, found
