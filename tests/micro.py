"""Small hand-verified fixtures shared by pipeline and verifier tests."""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from corpusaug.agreement import AnnotatedLexicon, TokenAnnotation
from corpusaug.aligner import TranslationTable, train_ibm1
from corpusaug.corpus_io import ParallelCorpus, RareWord, Sentence
from corpusaug.embeddings import EmbeddingTable
from corpusaug.lm import TrigramModel, train_lm
from corpusaug.pipeline import ItemOutcome, RunInputs

from oracles import outcome_records


def corpus_of(rows) -> ParallelCorpus:
    src = tuple(Sentence(i, tuple(s.split())) for i, (s, _) in enumerate(rows))
    tgt = tuple(Sentence(i, tuple(t.split())) for i, (_, t) in enumerate(rows))
    return ParallelCorpus(src, tgt)


def inputs_of(corpus, embeddings, table, lm_src, lm_tgt, lexicon, config) -> RunInputs:
    """The run inputs of one augmentation call, indexed for ``config``."""
    return RunInputs.build(
        corpus, embeddings, table, lm_src, lm_tgt, lexicon, config.syntactic_mode()
    )


def rejected_records(rejected):
    """The rejected records that an augmentation call's rejections stand
    for, in file order: each item outcome's records that are not accepted."""
    records = []
    for entry in rejected:
        if isinstance(entry, ItemOutcome):
            records += [record for record in outcome_records(entry) if not record.accepted]
        else:
            records.append(entry)
    return records


def mono_of(lines) -> List[Tuple[str, ...]]:
    return [tuple(s.split()) for s in lines]


@dataclass
class LedgerFixture:
    """Rare word "ledger" with a near-parallel vector to "book".

    Hand-verified expectations with all gates on:
      - candidate sentence 0 accepts: book -> ledger, buch -> kassenbuch,
        word_sim = 1/sqrt(1.0004), both LM ratios exactly 1.0 (the
        monolingual corpora are symmetric in book/ledger/pen).
      - candidate sentence 1 rejects with word_sim (cos(ledger, pen) ~ 0.02).
    """

    corpus: ParallelCorpus
    rare_words: List[RareWord]
    embeddings: EmbeddingTable
    alignment: TranslationTable
    lm_src: TrigramModel
    lm_tgt: TrigramModel
    lexicon: AnnotatedLexicon

    EXPECTED_WORD_SIM = 1.0 / np.sqrt(1.0004)


def ledger_fixture(book_pos: str = "NOUN") -> LedgerFixture:
    corpus = corpus_of(
        [
            ("the book fell", "das buch fiel"),
            ("the pen fell", "das stift fiel"),
            ("the ledger fell", "das kassenbuch fiel"),
        ]
    )
    embeddings = EmbeddingTable(
        ("book", "pen", "ledger"), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.02]])
    )
    lexicon = AnnotatedLexicon(
        {
            "book": TokenAnnotation(book_pos, {"Number": "Sing"}),
            "pen": TokenAnnotation("NOUN", {"Number": "Sing"}),
            "ledger": TokenAnnotation("NOUN", {"Number": "Sing"}),
            "fell": TokenAnnotation("VERB", {}),
        }
    )
    lm_src = train_lm(mono_of(["the book fell", "the ledger fell", "the pen fell"]), 1)
    lm_tgt = train_lm(
        mono_of(["das buch fiel", "das kassenbuch fiel", "das stift fiel"]), 1
    )
    return LedgerFixture(
        corpus=corpus,
        rare_words=[RareWord("ledger", 1, (2,))],
        embeddings=embeddings,
        alignment=train_ibm1(corpus, 10),
        lm_src=lm_src,
        lm_tgt=lm_tgt,
        lexicon=lexicon,
    )
