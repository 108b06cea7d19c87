"""Seeded synthetic inputs for the corpusaug benchmark (stdlib + numpy).

One seed and one :class:`Sizes` give byte-identical input files. The shape of
the data is fixed by the sizes and only the assignment of words to clusters,
frequencies and positions depends on the seed, so the amount of work a run
does barely moves from seed to seed:

- every common source type occurs at least twice in the parallel corpus, and
  exactly ``rare_items`` types occur once, so the rare-word list has a fixed
  length at ``t_r = 1``;
- sentence lengths are a fixed multiset in seeded order, so the corpus has a
  fixed token count;
- common types get clusters round-robin by frequency rank and rare items get
  clusters round-robin too, so each cluster holds a similar share of tokens.

The target side is a token-for-token translation (type i -> its own target
word), which gives IBM1 unambiguous evidence. Embeddings are cluster centre
plus noise, with more clusters than dimensions so that the alpha transform
does not flatten same-cluster cosines. Rare words and dictionary terms are
put into the monolingual corpora at a common word's frequency so that the
LM gates accept some replacements.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_SRC_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
_TGT_SYLLABLES = [v + c for v in _VOWELS for c in _CONSONANTS]
_POS_TAGS = ("NOUN", "VERB", "ADJ", "ADV")
_LENGTHS = tuple(range(8, 17))  # mean 12 tokens per sentence
_NOISE = 0.45  # norm of a vector's noise relative to its unit cluster centre
_ZIPF = 1.0  # exponent of the frequency-rank distribution of common types


@dataclass(frozen=True)
class Sizes:
    """Size parameters of one generated data set."""

    pairs: int
    types: int  # common source types in the parallel corpus
    dim: int
    clusters: int
    extra_rows: int  # vectors of words that occur in no corpus
    mono_lines: int
    dict_size: int
    rare_items: int
    mono_item_count: int = 0  # occurrences of each rare word / dictionary token in mono


def _word(index: int, syllables: Sequence[str]) -> str:
    n = len(syllables)
    return syllables[index // (n * n)] + syllables[(index // n) % n] + syllables[index % n]


def _lengths(rng: np.random.Generator, count: int) -> List[int]:
    lengths = [_LENGTHS[i % len(_LENGTHS)] for i in range(count)]
    return [int(x) for x in rng.permutation(lengths)]


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** _ZIPF
    return w / w.sum()


def _tokens_to_lines(stream: Sequence[int], lengths: Sequence[int]) -> List[List[int]]:
    lines, pos = [], 0
    for length in lengths:
        lines.append(list(stream[pos : pos + length]))
        pos += length
    return lines


def generate(out_dir: Path, sizes: Sizes, seed: int) -> Dict[str, object]:
    """Write every input file under ``out_dir`` and return their paths and sizes."""
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_words = sizes.types + sizes.rare_items + sizes.dict_size + sizes.extra_rows
    if n_words > len(_SRC_SYLLABLES) ** 3:
        raise ValueError(f"too many word types for the word-form space: {n_words}")

    # Word ids: [0, types) common, then rare, then dictionary OOV, then extra.
    # Word forms are a seeded permutation of the form space.
    forms = rng.permutation(len(_SRC_SYLLABLES) ** 3)[:n_words]
    src_form = [_word(int(f), _SRC_SYLLABLES) for f in forms]
    tgt_form = [_word(int(f), _TGT_SYLLABLES) for f in forms]
    common = np.arange(sizes.types)
    rare = np.arange(sizes.types, sizes.types + sizes.rare_items)
    dict_oov = np.arange(sizes.types + sizes.rare_items, sizes.types + sizes.rare_items + sizes.dict_size)

    # Frequency rank of each common type (rank 0 most frequent); clusters go
    # round-robin by rank so every cluster gets a similar frequency mass.
    rank_of = rng.permutation(sizes.types)
    cluster = np.empty(n_words, dtype=np.int64)
    cluster[common] = rank_of % sizes.clusters
    others = np.arange(sizes.types, n_words)
    cluster[others] = rng.permutation(len(others)) % sizes.clusters
    number = rng.integers(0, 2, size=n_words)

    # Parallel corpus: two guaranteed copies of each common type, the rest
    # Zipf by rank; each rare word then goes once into a distinct sentence.
    lengths = _lengths(rng, sizes.pairs)
    n_tokens = sum(lengths)
    hosts = rng.choice(sizes.pairs, size=sizes.rare_items, replace=False)
    for host in hosts:
        lengths[host] -= 1
    by_rank = np.argsort(rank_of)  # by_rank[r] = common id with rank r
    fill = n_tokens - sizes.rare_items - 2 * sizes.types
    if fill < 0:
        raise ValueError("too few corpus tokens for two copies of every common type")
    sampled = by_rank[rng.choice(sizes.types, size=fill, p=_zipf_weights(sizes.types))]
    stream = rng.permutation(np.concatenate([common, common, sampled]))
    src_lines = _tokens_to_lines([int(x) for x in stream], lengths)
    for word, host in zip(rare, hosts):
        line = src_lines[host]
        line.insert(int(rng.integers(len(line) + 1)), int(word))

    # Monolingual corpora: Zipf lines over common types, plus every rare word
    # and dictionary token ``mono_item_count`` times at random positions.
    mono_lengths = _lengths(rng, sizes.mono_lines)
    mono_tokens = sum(mono_lengths)
    mono_stream = by_rank[rng.choice(sizes.types, size=mono_tokens, p=_zipf_weights(sizes.types))]
    mono_lines = _tokens_to_lines([int(x) for x in mono_stream], mono_lengths)
    inserted = np.concatenate([rare, dict_oov]).astype(np.int64)
    if len(inserted) and sizes.mono_item_count:
        positions = rng.integers(0, mono_tokens, size=len(inserted) * sizes.mono_item_count)
        offsets = np.cumsum([0] + mono_lengths)
        for k, pos in enumerate(positions):
            li = int(np.searchsorted(offsets, pos, side="right") - 1)
            mono_lines[li][int(pos - offsets[li])] = int(inserted[k % len(inserted)])

    # Dictionary: 60% single OOV tokens, 40% "common modifier + OOV head".
    # Source and target terms are the same word ids, written in each language.
    dict_terms: List[List[int]] = []
    for k, head in enumerate(dict_oov):
        term = [int(head)]
        if k % 5 >= 3:
            term = [int(by_rank[int(rng.integers(sizes.types // 4, sizes.types))]), int(head)]
        dict_terms.append(term)

    # Embeddings: unit cluster centres plus isotropic noise.
    centres = rng.standard_normal((sizes.clusters, sizes.dim))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    noise = rng.standard_normal((n_words, sizes.dim)) * (_NOISE / np.sqrt(sizes.dim))
    vectors = centres[cluster] + noise
    row_order = rng.permutation(n_words)

    paths = {
        "src_corpus": out_dir / "train.src",
        "tgt_corpus": out_dir / "train.tgt",
        "mono_src": out_dir / "mono.src",
        "mono_tgt": out_dir / "mono.tgt",
        "embeddings_src": out_dir / "emb.src.vec",
        "annotations_src": out_dir / "annotations.src.tsv",
    }
    if sizes.dict_size:
        paths["dictionary"] = out_dir / "dict.tsv"

    def write_lines(path: Path, lines: Sequence[Sequence[int]], forms_: Sequence[str]) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(" ".join(forms_[t] for t in line))
                fh.write("\n")

    write_lines(paths["src_corpus"], src_lines, src_form)
    write_lines(paths["tgt_corpus"], src_lines, tgt_form)
    write_lines(paths["mono_src"], mono_lines, src_form)
    write_lines(paths["mono_tgt"], mono_lines, tgt_form)
    with open(paths["embeddings_src"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{n_words} {sizes.dim}\n")
        for w in row_order:
            fh.write(src_form[w] + " " + " ".join(f"{v:.6f}" for v in vectors[w]) + "\n")
    with open(paths["annotations_src"], "w", encoding="utf-8", newline="\n") as fh:
        for w in range(sizes.types + sizes.rare_items + sizes.dict_size):
            pos = _POS_TAGS[cluster[w] % len(_POS_TAGS)]
            fh.write(f"{src_form[w]}\t{pos}\tNumber={'Sing' if number[w] else 'Plur'}\n")
    if sizes.dict_size:
        with open(paths["dictionary"], "w", encoding="utf-8", newline="\n") as fh:
            for term in dict_terms:
                fh.write(" ".join(src_form[t] for t in term) + "\t")
                fh.write(" ".join(tgt_form[t] for t in term) + "\n")

    used_types = len(set(t for line in src_lines for t in line))
    return {
        "paths": {k: str(v) for k, v in paths.items()},
        "sizes": {
            "pairs": sizes.pairs,
            "tokens": 2 * n_tokens,
            "types": used_types,
            "rare_items": sizes.rare_items,
            "dict_entries": len(dict_terms),
            "vector_rows": n_words,
            "mono_lines": sizes.mono_lines,
        },
    }

