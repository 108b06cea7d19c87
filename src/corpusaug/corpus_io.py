"""Parallel-corpus, dictionary, and rare-word I/O.

File conventions: corpora are plain UTF-8 text, one whitespace-tokenized
sentence per line, with the two sides of a parallel corpus kept in separate
files whose line numbers correspond. Bilingual dictionaries are two-column
TSV (source term, target term).
"""

from __future__ import annotations

import logging
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Dict, Iterator, List, Optional, Sequence, Tuple, Type

log = logging.getLogger(__name__)


class CorpusFormatError(ValueError):
    """Unrecoverable problem with an input file (counts, encoding, absence)."""


@dataclass(frozen=True)
class Sentence:
    """One tokenized sentence; ``id`` is its 0-based line number."""

    id: int
    tokens: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"sentence id must be non-negative, got {self.id}")
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")


@dataclass(frozen=True)
class ParallelCorpus:
    """Aligned source/target sentences with dense, matching ids."""

    source: Tuple[Sentence, ...]
    target: Tuple[Sentence, ...]

    def __post_init__(self) -> None:
        if len(self.source) != len(self.target):
            raise ValueError(
                f"side length mismatch: {len(self.source)} vs {len(self.target)}"
            )
        for i, (s, t) in enumerate(zip(self.source, self.target)):
            if s.id != i or t.id != i:
                raise ValueError(f"non-dense sentence ids at position {i}")

    def __len__(self) -> int:
        return len(self.source)

    def pairs(self) -> Iterator[Tuple[Sentence, Sentence]]:
        return zip(self.source, self.target)


@dataclass(frozen=True)
class Vocabulary:
    """Token occurrence counts over one corpus side."""

    counts: Dict[str, int]
    total_tokens: int

    def __contains__(self, token: str) -> bool:
        return token in self.counts

    def count(self, token: str) -> int:
        return self.counts.get(token, 0)


@dataclass(frozen=True)
class RareWord:
    surface: str
    frequency: int
    host_sentence_ids: Tuple[int, ...]


@dataclass(frozen=True)
class DictionaryEntry:
    source_term: Tuple[str, ...]
    target_term: Tuple[str, ...]

    def is_oov(self, vocab: Vocabulary) -> bool:
        """Whether some token of the source term is not in ``vocab``: the
        rule ``stats`` counts by and ``dict_scope = oov_only`` keeps by."""
        return any(token not in vocab for token in self.source_term)


@dataclass
class RareWordValidityConfig:
    """Which vocabularies a rare word must also be in to be usable.

    ``embedding_vocab`` and ``annotation_vocab`` are membership tests
    (anything supporting ``in``); when left ``None`` the respective filter
    is off. Words with a digit and words of punctuation alone are always
    excluded.
    """

    embedding_vocab: Optional[Container[str]] = None
    annotation_vocab: Optional[Container[str]] = None


def has_digit(token: str) -> bool:
    return any(ch.isdigit() for ch in token)


def is_punctuation(token: str) -> bool:
    """True if every character is punctuation or a symbol."""
    return bool(token) and all(
        unicodedata.category(ch)[0] in ("P", "S") for ch in token
    )


def iter_lines(path: Path, error: Type[Exception]) -> Iterator[str]:
    """Stream the lines of a UTF-8 file without their ``\\n`` or ``\\r\\n`` ending.

    A byte order mark (U+FEFF) that starts the file is dropped, so the file
    reads as its twin without one. An undecodable byte raises ``error`` with
    its byte offset in the file.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as fh:
            for line in fh:
                yield line.removesuffix("\n").removesuffix("\r")
    except UnicodeDecodeError:
        # The streaming decoder reports no file offset; the raw bytes do.
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}: undecodable byte at offset {exc.start}") from exc
        raise


def _read_lines(path: str | Path) -> List[str]:
    p = Path(path)
    if not p.is_file():
        raise CorpusFormatError(f"corpus file not found: {p}")
    return list(iter_lines(p, CorpusFormatError))


def load_parallel_corpus(source_path: str | Path, target_path: str | Path) -> ParallelCorpus:
    """Load a sentence-aligned corpus from two one-sentence-per-line files.

    Pairs where either side is blank are dropped from both sides with a
    warning; remaining sentences are renumbered so ids stay dense. A line
    count mismatch between the files is fatal.
    """
    src_lines = _read_lines(source_path)
    tgt_lines = _read_lines(target_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusFormatError(
            f"line count mismatch {len(src_lines)} vs {len(tgt_lines)}"
        )
    source: List[Sentence] = []
    target: List[Sentence] = []
    dropped = 0
    for lineno, (s_line, t_line) in enumerate(zip(src_lines, tgt_lines), start=1):
        s_tokens = tuple(s_line.split())
        t_tokens = tuple(t_line.split())
        if not s_tokens or not t_tokens:
            dropped += 1
            blank = source_path if not s_tokens else target_path
            log.warning("%s:%d: blank line; pair dropped from both sides", blank, lineno)
            continue
        idx = len(source)
        source.append(Sentence(idx, s_tokens))
        target.append(Sentence(idx, t_tokens))
    if dropped:
        log.warning("dropped %d blank pair(s) while loading corpus", dropped)
    return ParallelCorpus(tuple(source), tuple(target))


def load_monolingual(path: str | Path) -> List[Tuple[str, ...]]:
    """Load a one-sentence-per-line monolingual corpus as each line's tokens.

    Blank lines are dropped with a warning.
    """
    sentences: List[Tuple[str, ...]] = []
    dropped = 0
    for line in _read_lines(path):
        tokens = tuple(line.split())
        if tokens:
            sentences.append(tokens)
        else:
            dropped += 1
    if dropped:
        log.warning("dropped %d blank line(s) while loading %s", dropped, path)
    return sentences


def write_parallel_corpus(
    corpus: ParallelCorpus, source_path: str | Path, target_path: str | Path
) -> None:
    """Write both sides back out, one sentence per line (round-trip exact)."""
    for path, side in ((source_path, corpus.source), (target_path, corpus.target)):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(sentence_lines(side))


def sentence_lines(side: Sequence[Sentence]) -> Iterator[str]:
    """Each sentence's line in a written corpus file, newline included."""
    return (" ".join(sent.tokens) + "\n" for sent in side)


def build_vocabulary(side: Sequence[Sentence]) -> Vocabulary:
    """Count token occurrences over one corpus side."""
    counts: Counter[str] = Counter()
    total = 0
    for sent in side:
        counts.update(sent.tokens)
        total += len(sent.tokens)
    return Vocabulary(dict(counts), total)


def extract_rare_words(
    vocab: Vocabulary,
    corpus_side: Sequence[Sentence],
    t_r: int,
    validity: Optional[RareWordValidityConfig] = None,
) -> List[RareWord]:
    """Return the words with frequency <= ``t_r`` that pass the validity filters.

    Output is sorted by surface form so downstream processing is
    deterministic. Host sentence ids are listed in corpus order.
    """
    if t_r < 1:
        raise ValueError(f"rare-word threshold must be >= 1, got {t_r}")
    if validity is None:
        validity = RareWordValidityConfig()
    hosts: Dict[str, List[int]] = {}
    for sent in corpus_side:
        for token in set(sent.tokens):
            if vocab.count(token) <= t_r:
                hosts.setdefault(token, []).append(sent.id)
    rare: List[RareWord] = []
    for surface in sorted(hosts):
        if has_digit(surface) or is_punctuation(surface):
            continue
        if validity.embedding_vocab is not None and surface not in validity.embedding_vocab:
            continue
        if validity.annotation_vocab is not None and surface not in validity.annotation_vocab:
            continue
        rare.append(RareWord(surface, vocab.count(surface), tuple(sorted(hosts[surface]))))
    return rare


def load_dictionary(path: str | Path) -> List[DictionaryEntry]:
    """Load a two-column TSV bilingual dictionary.

    Terms are whitespace-tokenized within each column. Malformed rows
    (wrong column count, empty column) are skipped with a warning and
    duplicate (source, target) rows are collapsed to the first occurrence.
    """
    p = Path(path)
    if not p.is_file():
        raise CorpusFormatError(f"dictionary file not found: {p}")
    entries: List[DictionaryEntry] = []
    seen: set[Tuple[Tuple[str, ...], Tuple[str, ...]]] = set()
    for lineno, line in enumerate(iter_lines(p, CorpusFormatError), start=1):
        if not line:
            continue
        columns = line.split("\t")
        if len(columns) != 2:
            log.warning("%s:%d: expected 2 columns, got %d; row skipped", p, lineno, len(columns))
            continue
        source_term = tuple(columns[0].split())
        target_term = tuple(columns[1].split())
        if not source_term or not target_term:
            log.warning("%s:%d: empty term column; row skipped", p, lineno)
            continue
        key = (source_term, target_term)
        if key in seen:
            continue
        seen.add(key)
        entries.append(DictionaryEntry(source_term, target_term))
    return entries


@dataclass(frozen=True)
class StatsReport:
    """Corpus/dictionary summary counts, one value per side where relevant."""

    sentence_count: int
    word_count_per_side: Dict[str, int]
    unique_words_per_side: Dict[str, int]
    rare_word_count_per_side: Dict[str, int]
    dict_term_count: int = 0
    dict_oov_term_count: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "sentence_count": self.sentence_count,
            "word_count_per_side": dict(self.word_count_per_side),
            "unique_words_per_side": dict(self.unique_words_per_side),
            "rare_word_count_per_side": dict(self.rare_word_count_per_side),
            "dict_term_count": self.dict_term_count,
            "dict_oov_term_count": self.dict_oov_term_count,
        }

    def format_text(self) -> str:
        lines = [f"sentences\t{self.sentence_count}"]
        for side in ("source", "target"):
            lines.append(f"words.{side}\t{self.word_count_per_side[side]}")
            lines.append(f"unique_words.{side}\t{self.unique_words_per_side[side]}")
            lines.append(f"rare_words.{side}\t{self.rare_word_count_per_side[side]}")
        lines.append(f"dict_terms\t{self.dict_term_count}")
        lines.append(f"dict_terms_oov\t{self.dict_oov_term_count}")
        return "\n".join(lines)


def corpus_stats(
    corpus: ParallelCorpus,
    t_r: int,
    dictionary: Optional[Sequence[DictionaryEntry]] = None,
) -> StatsReport:
    """Summarize a corpus (and optionally a dictionary) as count fields.

    ``dict_oov_term_count`` counts the entries that are OOV in the corpus's
    source-side vocabulary (:meth:`DictionaryEntry.is_oov`).
    """
    vocab_src = build_vocabulary(corpus.source)
    vocab_tgt = build_vocabulary(corpus.target)
    rare_src = sum(1 for c in vocab_src.counts.values() if c <= t_r)
    rare_tgt = sum(1 for c in vocab_tgt.counts.values() if c <= t_r)
    dict_total = 0
    dict_oov = 0
    if dictionary is not None:
        dict_total = len(dictionary)
        dict_oov = sum(entry.is_oov(vocab_src) for entry in dictionary)
    return StatsReport(
        sentence_count=len(corpus),
        word_count_per_side={"source": vocab_src.total_tokens, "target": vocab_tgt.total_tokens},
        unique_words_per_side={"source": len(vocab_src.counts), "target": len(vocab_tgt.counts)},
        rare_word_count_per_side={"source": rare_src, "target": rare_tgt},
        dict_term_count=dict_total,
        dict_oov_term_count=dict_oov,
    )
