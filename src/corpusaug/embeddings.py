"""Word-vector table, similarity-order post-processing, and cosine retrieval.

Vectors are read from the common textual format (optional ``count dim``
header, then one ``token v1 .. vd`` row per line). The post-processing step
re-expresses the table in its gram-matrix eigenbasis and raises the spectrum
to a configurable power, shifting the similarity captured by cosine between
more-syntactic and more-semantic regimes.

Retrieval scores all rows with one matrix-vector product, but those scores
only pre-rank: every row within ``PRERANK_WINDOW`` of the cut is re-scored
with :func:`cosine`'s own arithmetic, so the rows picked and the scores
returned are bit-identical to a loop of scalar ``cosine`` calls.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .agreement import MODE_OFF, AnnotatedLexicon
from .corpus_io import Sentence, has_digit, is_punctuation, iter_lines

log = logging.getLogger(__name__)

EIGENVALUE_FLOOR = 1e-10
EXPORT_DECIMALS = 6
# A vectorized cosine differs from the scalar one by a few ulps times the
# dimension, far less than this window, so re-scoring every row inside it
# exactly cannot miss the row the scalar loop would pick.
PRERANK_WINDOW = 1e-9


class EmbeddingFormatError(ValueError):
    """The vector file contains no parseable rows."""


class NumericError(ArithmeticError):
    """A linear-algebra step produced non-finite values."""


@dataclass
class EmbeddingTable:
    """token -> dense vector map; ``alpha_applied`` records post-processing."""

    dim: int
    vectors: Dict[str, np.ndarray]
    alpha_applied: Optional[float] = None

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def get(self, token: str) -> Optional[np.ndarray]:
        return self.vectors.get(token)

    def tokens(self) -> List[str]:
        return list(self.vectors)


@dataclass(frozen=True)
class SentenceVector:
    """Mean vector of the covered tokens of a sentence or term."""

    vector: np.ndarray
    covered_tokens: int
    total_tokens: int


@dataclass(frozen=True)
class SimilarityHit:
    sentence_id: int
    score: float


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Parse a textual word-vector file.

    The dimension comes from the header when present, otherwise from the
    first data row. Rows with the wrong component count or unparseable /
    non-finite values are skipped with a warning; for duplicate tokens the
    first row wins.
    """
    p = Path(path)
    if not p.is_file():
        raise EmbeddingFormatError(f"embedding file not found: {p}")
    vectors: Dict[str, np.ndarray] = {}
    dim: Optional[int] = None
    for lineno, line in enumerate(iter_lines(p, EmbeddingFormatError)):
        parts = line.split()
        if not parts:
            continue
        if lineno == 0 and len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                dim = int(parts[1])
                continue
        token, comps = parts[0], parts[1:]
        if dim is None:
            if not comps:
                log.warning("%s:%d: no vector components; row skipped", p, lineno)
                continue
            dim = len(comps)
        if len(comps) != dim:
            log.warning(
                "%s:%d: expected %d components, got %d; row skipped",
                p, lineno, dim, len(comps),
            )
            continue
        try:
            vec = np.array([float(c) for c in comps], dtype=np.float64)
        except ValueError:
            log.warning("%s:%d: unparseable vector component; row skipped", p, lineno)
            continue
        if not np.all(np.isfinite(vec)):
            log.warning("%s:%d: non-finite vector component; row skipped", p, lineno)
            continue
        if token in vectors:
            log.warning("%s:%d: duplicate token %r; first kept", p, lineno, token)
            continue
        vectors[token] = vec
    if dim is None or not vectors:
        raise EmbeddingFormatError(f"{p}: no parseable embedding rows")
    return EmbeddingTable(dim=dim, vectors=vectors)


def save_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Write the table in the textual format with a ``count dim`` header.

    Components are rounded to 6 decimal places, so write -> read -> write
    is byte-stable.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table)} {table.dim}\n")
        for token, vec in table.vectors.items():
            comps = " ".join(f"{v:.{EXPORT_DECIMALS}f}" for v in vec)
            fh.write(f"{token} {comps}\n")


def postprocess_alpha(table: EmbeddingTable, alpha: float) -> EmbeddingTable:
    """Apply the similarity-order transformation with exponent ``alpha``.

    Rows are length-normalized, the gram matrix G = X^T X is
    eigendecomposed as Q diag(w) Q^T with eigenvalues floored at 1e-10
    (negative exponents need a strictly positive spectrum), and the table is
    re-expressed as X' = X Q diag(w^((alpha-1)/2)). The transformed gram
    matrix then has spectrum w^alpha; alpha = 1 is a pure rotation.
    """
    if not table.vectors:
        raise ValueError("cannot post-process an empty embedding table")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    tokens = list(table.vectors)
    X = np.stack([table.vectors[t] for t in tokens]).astype(np.float64)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    nonzero = norms[:, 0] > 0.0
    X = np.where(nonzero[:, None], X / np.where(norms > 0.0, norms, 1.0), X)
    gram = X.T @ X
    eigenvalues, Q = np.linalg.eigh(gram)
    eigenvalues = np.clip(eigenvalues, EIGENVALUE_FLOOR, None)
    if not np.all(np.isfinite(eigenvalues)):
        raise NumericError("non-finite eigenvalue in gram matrix")
    scale = eigenvalues ** ((alpha - 1.0) / 2.0)
    if not np.all(np.isfinite(scale)):
        raise NumericError(f"non-finite spectral scale for alpha={alpha}")
    transformed = (X @ Q) * scale
    if not np.all(np.isfinite(transformed)):
        raise NumericError("non-finite components after post-processing")
    vectors = {token: transformed[i].copy() for i, token in enumerate(tokens)}
    return EmbeddingTable(dim=table.dim, vectors=vectors, alpha_applied=alpha)


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


@dataclass(frozen=True)
class VectorRows:
    """Vectors stacked into one matrix, so that one matvec scores them all.

    Each norm is ``np.linalg.norm`` of the 1-D vector, exactly as
    :func:`cosine` computes it, so :meth:`exact` is bit-identical to
    ``cosine(query, vectors[row])``.
    """

    vectors: Tuple[np.ndarray, ...]
    matrix: np.ndarray
    norms: np.ndarray

    @classmethod
    def stack(cls, vectors: Sequence[np.ndarray], dim: int) -> "VectorRows":
        vectors = tuple(np.asarray(v, dtype=np.float64) for v in vectors)
        matrix = np.stack(vectors) if vectors else np.zeros((0, dim))
        norms = np.array([float(np.linalg.norm(v)) for v in vectors], dtype=np.float64)
        return cls(vectors, matrix, norms)

    def __len__(self) -> int:
        return len(self.vectors)

    def prerank(self, query: np.ndarray) -> Tuple[np.ndarray, float]:
        """Vectorized cosine of every row with ``query``, and the query norm."""
        query_norm = float(np.linalg.norm(query))
        denominators = self.norms * query_norm
        scores = np.zeros(len(self))
        np.divide(self.matrix @ query, denominators, out=scores, where=denominators > 0.0)
        return np.clip(scores, -1.0, 1.0, out=scores), query_norm

    def exact(self, query: np.ndarray, query_norm: float, row: int) -> float:
        return _cosine(query, query_norm, self.vectors[row], float(self.norms[row]))


def _mean_vector(tokens: Sequence[str], table: EmbeddingTable) -> SentenceVector:
    covered = [table.vectors[t] for t in tokens if t in table.vectors]
    if not covered:
        return SentenceVector(np.zeros(table.dim), 0, len(tokens))
    mean = np.mean(np.stack(covered), axis=0)
    return SentenceVector(mean, len(covered), len(tokens))


def sentence_embedding(sentence: Sentence, table: EmbeddingTable) -> SentenceVector:
    """Average the vectors of the sentence tokens present in the table.

    Uncovered tokens are skipped and counted; a sentence with no covered
    token gets the zero vector (which ranks last under cosine).
    """
    return _mean_vector(sentence.tokens, table)


def term_embedding(term: Sequence[str], table: EmbeddingTable) -> SentenceVector:
    """Same averaging rule for a (possibly multi-token) dictionary term."""
    if not term:
        raise ValueError("term must be non-empty")
    return _mean_vector(term, table)


def top_k_sentences(
    query: SentenceVector,
    corpus_rows: VectorRows,
    k: int,
    exclude: Optional[Set[int]] = None,
) -> List[SimilarityHit]:
    """The k sentences most cosine-similar to the query.

    ``corpus_rows`` holds the sentence vectors in sentence-id order. One
    matvec pre-ranks them; every sentence within ``PRERANK_WINDOW`` of the
    k-th pre-rank score is re-scored exactly, then ordered by (score desc,
    sentence id asc), which makes results deterministic. Ids in ``exclude``
    are skipped. Fewer than k available returns all available.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query_vec = np.asarray(query.vector, dtype=np.float64)
    scores, query_norm = corpus_rows.prerank(query_vec)
    ids = np.flatnonzero(np.isin(np.arange(len(corpus_rows)), list(exclude or ()), invert=True))
    if len(ids) > k:
        kth = np.partition(scores[ids], len(ids) - k)[len(ids) - k]
        ids = ids[scores[ids] >= kth - PRERANK_WINDOW]
    hits = [SimilarityHit(i, corpus_rows.exact(query_vec, query_norm, i)) for i in ids.tolist()]
    hits.sort(key=lambda h: (-h.score, h.sentence_id))
    return hits[:k]


@dataclass(frozen=True)
class WordIndex:
    """The source sentences as the candidate-word search sees them.

    ``rows`` holds one vector per eligible source type: the type has a
    vector, is neither a digit nor a punctuation token, and is annotated
    when the syntactic mode is not ``off``. ``sentences[i]`` holds the type
    id of each token of sentence ``i``; ineligible tokens carry the sentinel
    id ``len(rows)``.
    """

    rows: VectorRows
    type_ids: Dict[str, int]
    sentences: Tuple[np.ndarray, ...]
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
        vectors: List[np.ndarray] = []
        for sentence in sentences:
            for token in sentence.tokens:
                if token in type_ids or token in ineligible:
                    continue
                vec = table.get(token)
                if (
                    vec is None
                    or has_digit(token)
                    or is_punctuation(token)
                    or (mode != MODE_OFF and (lexicon is None or token not in lexicon))
                ):
                    ineligible.add(token)
                    continue
                type_ids[token] = len(vectors)
                vectors.append(vec)
        sentinel = len(vectors)
        ids = tuple(
            np.array([type_ids.get(t, sentinel) for t in s.tokens], dtype=np.intp)
            for s in sentences
        )
        return cls(
            rows=VectorRows.stack(vectors, table.dim),
            type_ids=type_ids,
            sentences=ids,
            lengths=np.array([len(s.tokens) for s in sentences], dtype=np.intp),
        )


def best_word_in_sentence(
    index: WordIndex,
    query_vec: Sequence[float] | np.ndarray,
    sentence_ids: Sequence[int],
    exclude_token: Optional[str] = None,
) -> List[Optional[Tuple[int, float]]]:
    """For each listed sentence, the eligible position most similar to the query.

    One matvec scores every eligible type, with ``exclude_token`` masked
    out; each sentence gathers its scores by type id. These scores only
    pre-rank: every position within ``PRERANK_WINDOW`` of its sentence's
    best is re-scored with :func:`cosine`'s arithmetic, and the first
    position with the highest exact score wins. The result is the
    ``(position, score)`` of a per-token ``cosine`` loop with ties to the
    lowest index, or None for a sentence with no eligible token.
    """
    if not sentence_ids:
        return []
    query = np.asarray(query_vec, dtype=np.float64)
    rows = index.rows
    prerank, query_norm = rows.prerank(query)
    type_scores = np.append(prerank, -np.inf)  # the sentinel id scores -inf
    excluded = index.type_ids.get(exclude_token)
    if excluded is not None:
        type_scores[excluded] = -np.inf

    lengths = index.lengths[np.asarray(sentence_ids, dtype=np.intp)]
    starts = np.cumsum(lengths) - lengths
    ids = np.concatenate([index.sentences[i] for i in sentence_ids])
    scores = type_scores[ids]
    best = np.maximum.reduceat(scores, starts)
    found = best > -np.inf
    near = (scores > -np.inf) & (scores >= np.repeat(best - PRERANK_WINDOW, lengths))

    # A mask rather than np.unique, which imports numpy.ma (about 1 MiB).
    rescored = np.zeros(len(type_scores), dtype=bool)
    rescored[ids[near]] = True
    exact = np.full(len(type_scores), -np.inf)
    for type_id in np.flatnonzero(rescored).tolist():
        exact[type_id] = rows.exact(query, query_norm, type_id)
    scores = np.where(near, exact[ids], -np.inf)
    best = np.maximum.reduceat(scores, starts)
    winners = np.flatnonzero(near & (scores == np.repeat(best, lengths)))
    positions = np.zeros(len(starts), dtype=np.intp)
    positions[found] = winners[np.searchsorted(winners, starts[found])] - starts[found]
    return [
        (position, score) if ok else None
        for position, score, ok in zip(positions.tolist(), best.tolist(), found.tolist())
    ]
