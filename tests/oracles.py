"""Independent reference implementations used only as test oracles.

These deliberately avoid the code paths of the package under test: the
eigensolver is a plain cyclic Jacobi iteration, and the EM reference uses
dense numpy arrays over explicit vocabulary indices. The dict EM is the
per-sentence loop the array-backed ``train_ibm1`` must reproduce bit for
bit. ``table_from_rows`` builds a ``TranslationTable`` from such a
dict-of-dict table, and ``viterbi_reference`` is the Viterbi alignment as a
loop over its rows, which the array ``viterbi_align`` must equal. The retrieval
references are plain loops of scalar ``cosine`` calls, the definition the
vectorized search must reproduce bit for bit. The dict trigram model is the
string-keyed model the array-backed ``TrigramModel`` must equal: same counts,
same ``trigram_prob`` floats. ``window_score`` is the LM window score as a
product of ``trigram_prob`` calls, which ``stream_scores`` must equal bit for
bit; ``window_scores`` runs ``stream_scores`` on windows given as tokens.
``provenance_line_reference`` is
a record's ``provenance.jsonl`` line as json's generic encoder writes it,
which the pipeline's lines, the f-strings of early rejections included, must
equal byte for byte.
``process_item_reference`` is the gate loop as one record per candidate,
each candidate run through every gate in turn, which the array gates and
the lazily made records of ``pipeline._process_items`` must equal field for
field. ``load_embeddings_reference`` is the textual ``.vec`` parse as one
``float()`` call per component, which the block parse of ``load_embeddings``
must equal: the same tokens, matrix bits and warnings.
"""

import json
import logging
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from corpusaug.agreement import MODE_OFF, pos_agree, syntactic_ok
from corpusaug.aligner import NULL_TOKEN, SentenceAlignment, TranslationTable, target_span
from corpusaug.corpus_io import has_digit, is_punctuation, iter_lines
from corpusaug.embeddings import (
    EmbeddingFormatError, EmbeddingTable, SimilarityHit, best_word_in_sentence, cosine,
)
from corpusaug.lm import (
    BOS, DEFAULT_DISCOUNT, DEFAULT_MIN_COUNT, EOS, RESERVED, UNK, IdStream, lm_ratio_accept,
    stream_scores,
)
from corpusaug.pipeline import ReplacementRecord, synthetic_window


def eligible_reference(sentence, identity_token, lexicon, mode):
    """Per-position eligibility of a candidate word, checked token by token."""

    def eligible(index):
        token = sentence.tokens[index]
        if has_digit(token) or is_punctuation(token):
            return False
        if identity_token is not None and token == identity_token:
            return False
        if mode != MODE_OFF and (lexicon is None or token not in lexicon):
            return False
        return True

    return eligible


def best_word_reference(query_vec, sentence, table, eligible):
    """The eligible token position most cosine-similar to ``query_vec``.

    Positions whose token has no vector are skipped; ties go to the lowest
    index; returns None when nothing qualifies.
    """
    best = None
    for index, token in enumerate(sentence.tokens):
        if not eligible(index):
            continue
        vec = table.get(token)
        if vec is None:
            continue
        score = cosine(query_vec, vec)
        if best is None or score > best[1]:
            best = (index, score)
    return best


def top_k_reference(query, corpus_vectors, k, exclude=None):
    """The k sentences most cosine-similar to the query, (score desc, id asc)."""
    exclude = exclude or set()
    hits = [
        SimilarityHit(i, cosine(query, vector))
        for i, vector in enumerate(corpus_vectors)
        if i not in exclude
    ]
    hits.sort(key=lambda h: (-h.score, h.sentence_id))
    return hits[:k]


def jacobi_eigenvalues(matrix, max_sweeps=100, tol=1e-14):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(matrix, dtype=np.float64, copy=True)
    n = A.shape[0]
    assert A.shape == (n, n)
    for _ in range(max_sweeps):
        off = math.sqrt(sum(A[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                if abs(theta) > 1e150:  # avoid overflow in theta**2
                    t = 1.0 / (2.0 * theta)
                else:
                    t = (1.0 if theta >= 0 else -1.0) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                J = np.eye(n)
                J[p, p] = c
                J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))


def ibm1_reference(pairs, iterations):
    """Dense-array IBM Model 1 EM over explicit token indices.

    ``pairs`` is a list of (source tokens, target tokens); the conditioning
    side is the source plus a NULL slot at index 0. Returns (t, loglik list)
    where t[f_index, e_index] = P(f | e).
    """
    src_vocab = {}
    tgt_vocab = {}
    for src, tgt in pairs:
        for w in src:
            src_vocab.setdefault(w, len(src_vocab))
        for w in tgt:
            tgt_vocab.setdefault(w, len(tgt_vocab))
    n_e = len(src_vocab) + 1  # index 0 is NULL
    n_f = len(tgt_vocab)

    cooc = np.zeros((n_f, n_e), dtype=bool)
    for src, tgt in pairs:
        e_idx = [0] + [src_vocab[w] + 1 for w in src]
        for w in tgt:
            cooc[tgt_vocab[w], e_idx] = True
    t = np.where(cooc, 1.0, 0.0)
    t /= np.maximum(t.sum(axis=0, keepdims=True), 1e-300)

    logliks = []
    for _ in range(iterations):
        counts = np.zeros_like(t)
        loglik = 0.0
        for src, tgt in pairs:
            e_idx = [0] + [src_vocab[w] + 1 for w in src]
            for w in tgt:
                f = tgt_vocab[w]
                row = t[f, e_idx]
                denom = row.sum()
                loglik += math.log(denom) - math.log(len(e_idx))
                for local, e in enumerate(e_idx):
                    counts[f, e] += row[local] / denom
        logliks.append(loglik)
        totals = counts.sum(axis=0, keepdims=True)
        t = np.where(totals > 0, counts / np.maximum(totals, 1e-300), t)
    return t, src_vocab, tgt_vocab, logliks


def _sentence_counts(cond_tokens, gen_tokens, t):
    """E-step contribution of one pair: fractional counts plus log-likelihood."""
    contributions = []
    loglik = 0.0
    log_len = math.log(len(cond_tokens))
    for f in gen_tokens:
        denom = 0.0
        for e in cond_tokens:
            denom += t[e].get(f, 0.0)
        loglik += math.log(denom) - log_len
        for e in cond_tokens:
            p = t[e].get(f, 0.0)
            if p > 0.0:
                contributions.append((e, f, p / denom))
    return contributions, loglik


def ibm1_dict_reference(corpus, iterations):
    """IBM Model 1 EM, t(target | source), as a dict-of-dict loop over sentence pairs.

    Expected counts are merged in sentence order. A key stays in its row
    only if it received a contribution in the last iteration that renewed
    the row; a row with a zero total keeps its previous probabilities.
    """
    pairs = [((NULL_TOKEN,) + s.tokens, g.tokens) for s, g in corpus.pairs()]

    cooccur = {}
    for cond_tokens, gen_tokens in pairs:
        for e in cond_tokens:
            row = cooccur.setdefault(e, {})
            for f in gen_tokens:
                row.setdefault(f, None)
    t = {e: {f: 1.0 / len(fs) for f in fs} for e, fs in cooccur.items()}

    logliks = []
    for _ in range(iterations):
        results = [_sentence_counts(cond, gen, t) for cond, gen in pairs]
        counts = {e: {} for e in t}
        totals = {e: 0.0 for e in t}
        loglik = 0.0
        for contributions, ll in results:
            loglik += ll
            for e, f, value in contributions:
                row = counts[e]
                row[f] = row.get(f, 0.0) + value
                totals[e] += value
        logliks.append(loglik)
        for e, row in counts.items():
            total = totals[e]
            if total > 0.0:
                t[e] = {f: value / total for f, value in row.items()}
    return table_from_rows(t, logliks)


def table_from_rows(rows, log_likelihoods=()):
    """The ``TranslationTable`` with ``rows[e][f]`` = t(f | e); empty rows add nothing."""
    entries = sorted(((e, f), p) for e, row in rows.items() for f, p in row.items())
    cond = sorted({e for (e, _), _ in entries})
    gen = sorted({f for (_, f), _ in entries})
    cond_ids = {e: i for i, e in enumerate(cond)}
    gen_ids = {f: i for i, f in enumerate(gen)}
    return TranslationTable(
        cond, gen,
        [cond_ids[e] for (e, _), _ in entries],
        [gen_ids[f] for (_, f), _ in entries],
        [p for _, p in entries],
        log_likelihoods,
    )


def viterbi_reference(pair, table):
    """Best-link alignment as a loop over the rows of ``table.t``.

    Each source token picks the target position with the highest positive
    t(target | source), the first on ties; the link stands if that is at
    least NULL's probability for the target word. Unseen source tokens stay
    unaligned.
    """
    source, target = pair
    null_row = table.t.get(NULL_TOKEN, {})
    links = []
    for i, e in enumerate(source.tokens):
        row = table.t.get(e)
        if row is None:
            continue
        best_j = -1
        best_p = 0.0
        for j, f in enumerate(target.tokens):
            p = row.get(f, 0.0)
            if p > best_p:
                best_p = p
                best_j = j
        if best_j < 0:
            continue
        if best_p >= null_row.get(target.tokens[best_j], 0.0):
            links.append((i, best_j))
    return SentenceAlignment(tuple(links))


def trigram_prob_reference(sentences, discount, w1, w2, w3, bos="<s>", eos="</s>", unk="<unk>"):
    """Closed-form interpolated absolute discounting, written independently.

    ``sentences`` are token lists (no reserved tokens); no UNK collapsing is
    applied (min_count 1 semantics).
    """
    uni, bi, tri = {}, {}, {}
    vocab = set()
    for tokens in sentences:
        vocab.update(tokens)
        padded = [bos, bos] + list(tokens) + [eos, eos]
        for i in range(len(padded)):
            uni[padded[i]] = uni.get(padded[i], 0) + 1
            if i + 1 < len(padded):
                bi[(padded[i], padded[i + 1])] = bi.get((padded[i], padded[i + 1]), 0) + 1
            if i + 2 < len(padded):
                key = (padded[i], padded[i + 1], padded[i + 2])
                tri[key] = tri.get(key, 0) + 1

    alphabet = sorted(vocab) + [eos, unk]

    def p1(w):
        total = sum(max(uni.get(x, 0), 1) if x == unk else uni.get(x, 0) for x in alphabet)
        count = max(uni.get(w, 0), 1) if w == unk else uni.get(w, 0)
        return count / total

    def p2(h, w):
        follow = sum(c for (a, b), c in bi.items() if a == h and b != bos)
        if follow == 0:
            return p1(w)
        types = sum(1 for (a, b) in bi if a == h and b != bos)
        return max(bi.get((h, w), 0) - discount, 0.0) / follow + (
            discount * types / follow
        ) * p1(w)

    def p3(h1, h2, w):
        follow = sum(c for (a, b, x), c in tri.items() if (a, b) == (h1, h2) and x != bos)
        if follow == 0:
            return p2(h2, w)
        types = sum(1 for (a, b, x) in tri if (a, b) == (h1, h2) and x != bos)
        return max(tri.get((h1, h2, w), 0) - discount, 0.0) / follow + (
            discount * types / follow
        ) * p2(h2, w)

    def norm(w, predicted):
        if w in (bos, eos, unk):
            return w if (not predicted or w != bos) else unk
        if w in vocab:
            return w
        return unk

    return p3(norm(w1, False), norm(w2, False), norm(w3, True))


@dataclass
class DictTrigramModel:
    """The string-keyed dict trigram model: count tables plus derived tables.

    ``unigrams``/``bigrams``/``trigrams`` are positional counts over padded
    sentences, so every n-gram count is bounded by its prefix's count. The
    derived ``_follow*`` tables count continuations per history and back the
    discounted probabilities.
    """

    unigrams: Dict[str, int]
    bigrams: Dict[Tuple[str, str], int]
    trigrams: Dict[Tuple[str, str, str], int]
    vocab: frozenset
    discount: float = DEFAULT_DISCOUNT
    min_count: int = DEFAULT_MIN_COUNT

    _follow3: Dict[Tuple[str, str], int] = field(init=False, repr=False)
    _n1plus3: Dict[Tuple[str, str], int] = field(init=False, repr=False)
    _follow2: Dict[str, int] = field(init=False, repr=False)
    _n1plus2: Dict[str, int] = field(init=False, repr=False)
    _uni_pred: Dict[str, int] = field(init=False, repr=False)
    _uni_total: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.discount < 1.0:
            raise ValueError(f"discount must be in (0, 1), got {self.discount}")
        # Begin markers are contexts only: n-grams whose final token is BOS
        # carry no prediction mass, so they are excluded from the derived
        # continuation statistics (the raw count tables keep them).
        follow3: Dict[Tuple[str, str], int] = {}
        n1plus3: Dict[Tuple[str, str], int] = {}
        for (w1, w2, w3), count in self.trigrams.items():
            if w3 == BOS:
                continue
            follow3[(w1, w2)] = follow3.get((w1, w2), 0) + count
            n1plus3[(w1, w2)] = n1plus3.get((w1, w2), 0) + 1
        follow2: Dict[str, int] = {}
        n1plus2: Dict[str, int] = {}
        for (w1, w2), count in self.bigrams.items():
            if w2 == BOS:
                continue
            follow2[w1] = follow2.get(w1, 0) + count
            n1plus2[w1] = n1plus2.get(w1, 0) + 1
        # Unigram backoff distribution over the predictable alphabet
        # (vocab + EOS + UNK; BOS is never predicted). UNK gets a floor
        # count of 1 so unknown words keep positive probability.
        uni_pred: Dict[str, int] = {}
        for w in sorted(self.vocab) + [EOS, UNK]:
            uni_pred[w] = self.unigrams.get(w, 0)
        uni_pred[UNK] = max(uni_pred[UNK], 1)
        self._follow3 = follow3
        self._n1plus3 = n1plus3
        self._follow2 = follow2
        self._n1plus2 = n1plus2
        self._uni_pred = uni_pred
        self._uni_total = sum(uni_pred.values())

    # -- token normalization ------------------------------------------------

    def alphabet(self) -> List[str]:
        """Predictable tokens: vocabulary plus EOS and UNK."""
        return list(self._uni_pred)

    def map_history(self, token: str) -> str:
        if token in self.vocab or token in RESERVED:
            return token
        return UNK

    def map_predicted(self, token: str) -> str:
        if token in self.vocab or token == EOS or token == UNK:
            return token
        return UNK

    # -- probabilities ------------------------------------------------------

    def _p1(self, w: str) -> float:
        return self._uni_pred[w] / self._uni_total

    def _p2(self, h: str, w: str) -> float:
        follow = self._follow2.get(h, 0)
        if follow == 0:
            return self._p1(w)
        count = self.bigrams.get((h, w), 0)
        discounted = max(count - self.discount, 0.0) / follow
        interp = self.discount * self._n1plus2[h] / follow
        return discounted + interp * self._p1(w)

    def _p3(self, h1: str, h2: str, w: str) -> float:
        follow = self._follow3.get((h1, h2), 0)
        if follow == 0:
            return self._p2(h2, w)
        count = self.trigrams.get((h1, h2, w), 0)
        discounted = max(count - self.discount, 0.0) / follow
        interp = self.discount * self._n1plus3[(h1, h2)] / follow
        return discounted + interp * self._p2(h2, w)

    def trigram_prob(self, w1: str, w2: str, w3: str) -> float:
        """P(w3 | w1, w2) after mapping out-of-vocabulary tokens to UNK.

        Always in (0, 1]; for any history the values sum to one over the
        predictable alphabet.
        """
        return self._p3(self.map_history(w1), self.map_history(w2), self.map_predicted(w3))


def train_lm_dict_reference(
    mono: Sequence[Sequence[str]],
    min_count: int = DEFAULT_MIN_COUNT,
    discount: float = DEFAULT_DISCOUNT,
) -> DictTrigramModel:
    """Count padded n-grams sentence by sentence into tuple-keyed dicts.

    Tokens rarer than ``min_count`` are replaced by UNK before counting.
    """
    if not mono:
        raise ValueError("monolingual corpus must be non-empty")
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    raw: Dict[str, int] = {}
    for sent in mono:
        for token in sent:
            raw[token] = raw.get(token, 0) + 1

    def mapped(token: str) -> str:
        if token in RESERVED:
            return UNK  # reserved markers may not appear as corpus tokens
        return token if raw[token] >= min_count else UNK

    unigrams: Dict[str, int] = {}
    bigrams: Dict[Tuple[str, str], int] = {}
    trigrams: Dict[Tuple[str, str, str], int] = {}
    vocab = set()
    for sent in mono:
        tokens = [mapped(t) for t in sent]
        vocab.update(t for t in tokens if t != UNK)
        padded = [BOS, BOS] + tokens + [EOS, EOS]
        for i, w in enumerate(padded):
            unigrams[w] = unigrams.get(w, 0) + 1
            if i + 1 < len(padded):
                pair = (w, padded[i + 1])
                bigrams[pair] = bigrams.get(pair, 0) + 1
            if i + 2 < len(padded):
                triple = (w, padded[i + 1], padded[i + 2])
                trigrams[triple] = trigrams.get(triple, 0) + 1
    return DictTrigramModel(
        unigrams=unigrams,
        bigrams=bigrams,
        trigrams=trigrams,
        vocab=frozenset(vocab),
        discount=discount,
        min_count=min_count,
    )


@dataclass(frozen=True)
class ContextWindow:
    """A padded sentence plus the padded coordinates of a replaced span."""

    padded: Tuple[str, ...]
    span_start: int
    span_end: int

    @classmethod
    def build(cls, tokens, span):
        start, end = span
        if not (0 <= start <= end < len(tokens)):
            raise ValueError(f"span {span} out of range for {len(tokens)} tokens")
        padded = (BOS, BOS) + tuple(tokens) + (EOS, EOS)
        return cls(padded, start + 2, end + 2)

    def trigram_positions(self):
        """Indices of every padded trigram whose 3-token window overlaps the span.

        The two pads on each side keep ``span_start - 2`` and ``span_end``
        inside the padded sentence's trigram indices.
        """
        return range(self.span_start - 2, self.span_end + 1)

    def trigrams(self):
        return [
            (self.padded[i], self.padded[i + 1], self.padded[i + 2])
            for i in self.trigram_positions()
        ]


def window_score(model, tokens, span):
    """Product of trigram probabilities over the windows overlapping ``span``.

    ``model`` is anything with a ``trigram_prob(w1, w2, w3)`` method (the
    internal model, the dict model or an imported ARPA scorer). Span indices
    are inclusive and refer to the unpadded tokens.
    """
    score = 1.0
    for w1, w2, w3 in ContextWindow.build(tokens, span).trigrams():
        score *= model.trigram_prob(w1, w2, w3)
    return score


def window_scores(model, windows):
    """The score of each ``(tokens, span)`` window, as one float64 array:
    ``stream_scores`` of the span in a stream of the windows' tokens."""
    for tokens, (start, end) in windows:
        if not (0 <= start <= end < len(tokens)):
            raise ValueError(f"span {(start, end)} out of range for {len(tokens)} tokens")
    stream = IdStream.build(model.ids, [tokens for tokens, _ in windows])
    rows = np.array(
        [(i, start, end) for i, (_, (start, end)) in enumerate(windows)], dtype=np.intp
    ).reshape(-1, 3)
    return stream_scores(model, stream, rows, np.zeros(0, dtype=np.int64),
                         np.zeros(len(rows), dtype=np.intp))


def lm_ratio_reference(model, original, synthetic, threshold):
    """``lm_ratio_accept`` on two (tokens, span) windows scored by ``window_score``."""
    return lm_ratio_accept(
        (window_score(model, *original), window_score(model, *synthetic)), threshold
    )


def process_item_reference(item, candidates, inputs, config):
    """One record per candidate tried, in order, until ``max_per_item`` are
    accepted: each (sentence id, sentence similarity) candidate runs through
    every enabled gate in turn, and its LM ratios come from its own two
    windows. The best word of each sentence is the package's, whose parity
    with a scalar loop is tested on its own."""
    mode = config.syntactic_mode()
    lexicon, corpus = inputs.lexicon, inputs.corpus
    item_annotation = lexicon.get(item.surface[-1]) if lexicon is not None else None
    positions, scores, found = best_word_in_sentence(
        inputs.word_index, [item.query_vec], [sentence_id for sentence_id, _ in candidates],
        [len(candidates)], [item.surface[0] if len(item.surface) == 1 else None],
    )
    records, accepted = [], 0
    for (sentence_id, sent_sim), position, score, ok in zip(
        candidates, positions.tolist(), scores.tolist(), found.tolist()
    ):
        record = ReplacementRecord(item.kind, item.surface, sentence_id, sent_sim=sent_sim)
        records.append(record)
        if not ok:
            record.reason = "no_candidate_word"
            continue
        source, target = corpus.source[sentence_id], corpus.target[sentence_id]
        record.word_sim, record.source_span = score, (position, position)
        if config.use_word_sim and score < config.word_sim_min:
            record.reason = "word_sim"
            continue
        if mode != MODE_OFF:
            candidate_annotation = lexicon.get(source.tokens[position]) if lexicon else None
            if item_annotation is None or candidate_annotation is None:
                record.reason = "unannotated"
                continue
            record.syntactic_ok = syntactic_ok(
                config.src_lang_role, item_annotation, candidate_annotation, mode
            )
            if not record.syntactic_ok:
                agree = pos_agree(item_annotation, candidate_annotation)
                record.reason = "morph" if agree else "pos"
                continue
        span = target_span(inputs.alignments[sentence_id], position, config.max_span)
        if isinstance(span, str):
            record.reason = span
            continue
        record.target_span = span
        record.source_inserted, record.target_inserted = item.surface, item.target_insert
        for side, model, sentence, replaced, insert in (
            ("src", inputs.lm_src, source, record.source_span, item.surface),
            ("tgt", inputs.lm_tgt, target, span, item.target_insert),
        ):
            windows = [
                (sentence.tokens, replaced), synthetic_window(sentence.tokens, replaced, insert)
            ]
            ok, ratio = lm_ratio_accept(tuple(window_scores(model, windows).tolist()),
                                        config.lm_threshold)
            setattr(record, f"lm_ratio_{side}", ratio)
            if not ok:
                record.reason = f"lm_{side}"
                break
        else:
            record.accepted = True
            accepted += 1
            if accepted == config.max_per_item:
                break
    return records


# Stored as tuples, written to JSON as lists.
_TUPLE_FIELDS = ("item_surface", "source_span", "source_inserted", "target_span", "target_inserted")


def to_dict(record):
    """Every field of a ``ReplacementRecord``, its tuples as lists."""
    out = {f.name: getattr(record, f.name) for f in fields(record)}
    for name in _TUPLE_FIELDS:
        if out[name] is not None:
            out[name] = list(out[name])
    return out


def provenance_line_reference(record):
    encoder = json.JSONEncoder(sort_keys=True, ensure_ascii=False)
    return encoder.encode(to_dict(record)) + "\n"


def provenance_reference(accepted, rejected):
    """The ``provenance.jsonl`` text of the records: accepted first, then
    rejected, each line by json's generic encoder."""
    return "".join(provenance_line_reference(record) for record in [*accepted, *rejected])


def load_embeddings_reference(path):
    """A textual vector file parsed row by row, each component with ``float()``.

    Warnings go to the ``oracles`` logger with the messages that
    ``load_embeddings`` logs.
    """
    log = logging.getLogger("oracles")
    p = Path(path)
    tokens: List[str] = []
    rows: List[np.ndarray] = []
    seen: Set[str] = set()
    dim: Optional[int] = None
    for lineno, line in enumerate(iter_lines(p, EmbeddingFormatError), start=1):
        parts = line.split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                dim = int(parts[1])
                if dim < 1:
                    raise EmbeddingFormatError(f"{p}:1: dimension must be at least 1, got {dim}")
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
        if token in seen:
            log.warning("%s:%d: duplicate token %r; first kept", p, lineno, token)
            continue
        seen.add(token)
        tokens.append(token)
        rows.append(vec)
    if not rows:
        raise EmbeddingFormatError(f"{p}: no parseable embedding rows")
    return EmbeddingTable(tuple(tokens), np.stack(rows))
