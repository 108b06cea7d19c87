import logging
import random

import pytest

from corpusaug.corpus_io import (
    CorpusFormatError,
    DictionaryEntry,
    RareWordValidityConfig,
    Sentence,
    build_vocabulary,
    corpus_stats,
    extract_rare_words,
    has_digit,
    is_punctuation,
    load_dictionary,
    load_monolingual,
    load_parallel_corpus,
    write_parallel_corpus,
)


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sentences(token_lists):
    return [Sentence(i, tuple(tokens)) for i, tokens in enumerate(token_lists)]


class TestLoadParallelCorpus:
    def test_basic_parse(self, tmp_path):
        write(tmp_path / "s", ["ab c", "d"])
        write(tmp_path / "t", ["x", "y z"])
        corpus = load_parallel_corpus(tmp_path / "s", tmp_path / "t")
        assert len(corpus) == 2
        assert corpus.source[0].tokens == ("ab", "c")
        assert corpus.target[0].tokens == ("x",)

    def test_line_count_mismatch(self, tmp_path):
        write(tmp_path / "s", ["a", "b", "c"])
        write(tmp_path / "t", ["x", "y"])
        with pytest.raises(CorpusFormatError, match="line count mismatch 3 vs 2"):
            load_parallel_corpus(tmp_path / "s", tmp_path / "t")

    def test_blank_pair_dropped_both_sides(self, tmp_path, caplog):
        write(tmp_path / "s", ["a", ""])
        write(tmp_path / "t", ["x", "y"])
        with caplog.at_level(logging.WARNING):
            corpus = load_parallel_corpus(tmp_path / "s", tmp_path / "t")
        assert len(corpus) == 1
        assert corpus.source[0].tokens == ("a",)
        assert corpus.target[0].tokens == ("x",)
        assert any("blank" in rec.message for rec in caplog.records)
        # ids stay dense after the drop
        assert [s.id for s in corpus.source] == [0]

    def test_blank_pair_reported_as_line_2(self, tmp_path, caplog):
        write(tmp_path / "s", ["a", "b"])
        write(tmp_path / "t", ["x", " "])
        with caplog.at_level(logging.WARNING):
            load_parallel_corpus(tmp_path / "s", tmp_path / "t")
        assert caplog.records[0].getMessage().startswith(f"{tmp_path / 't'}:2: blank line")

    def test_undecodable_bytes_fatal_with_offset(self, tmp_path):
        (tmp_path / "s").write_bytes(b"ok\n\xff\xfe bad\n")
        write(tmp_path / "t", ["x", "y"])
        with pytest.raises(CorpusFormatError, match="offset 3"):
            load_parallel_corpus(tmp_path / "s", tmp_path / "t")

    def test_undecodable_byte_after_a_bom_names_its_file_offset(self, tmp_path):
        (tmp_path / "s").write_bytes(b"\xef\xbb\xbfok\n\xff\n")
        write(tmp_path / "t", ["x", "y"])
        with pytest.raises(CorpusFormatError, match="offset 6"):
            load_parallel_corpus(tmp_path / "s", tmp_path / "t")

    def test_leading_bom_is_dropped(self, tmp_path):
        write(tmp_path / "s", ["a b", "c"])
        write(tmp_path / "t", ["x", "\ufeffy"])
        (tmp_path / "bom").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "s").read_bytes())
        plain = load_parallel_corpus(tmp_path / "s", tmp_path / "t")
        bom = load_parallel_corpus(tmp_path / "bom", tmp_path / "t")
        assert bom == plain
        assert bom.source[0].tokens == ("a", "b")
        # Only the mark that starts the file is dropped.
        assert bom.target[1].tokens == ("\ufeffy",)

    def test_missing_file_fatal(self, tmp_path):
        write(tmp_path / "t", ["x"])
        with pytest.raises(CorpusFormatError, match="not found"):
            load_parallel_corpus(tmp_path / "missing", tmp_path / "t")

    def test_round_trip(self, tmp_path):
        write(tmp_path / "s", ["a b c", "d e"])
        write(tmp_path / "t", ["x", "y z"])
        corpus = load_parallel_corpus(tmp_path / "s", tmp_path / "t")
        write_parallel_corpus(corpus, tmp_path / "s2", tmp_path / "t2")
        again = load_parallel_corpus(tmp_path / "s2", tmp_path / "t2")
        assert [s.tokens for s in again.source] == [s.tokens for s in corpus.source]
        assert [t.tokens for t in again.target] == [t.tokens for t in corpus.target]
        assert (tmp_path / "s2").read_text(encoding="utf-8") == "a b c\nd e\n"


class TestBuildVocabulary:
    def test_direct_count(self):
        vocab = build_vocabulary(sentences([["a", "b"], ["a"]]))
        assert vocab.counts == {"a": 2, "b": 1}
        assert vocab.total_tokens == 3

    def test_empty(self):
        vocab = build_vocabulary([])
        assert vocab.counts == {}
        assert vocab.total_tokens == 0

    def test_repetition(self):
        vocab = build_vocabulary(sentences([["a", "a", "a"]]))
        assert vocab.counts == {"a": 3}
        assert vocab.total_tokens == 3

    def test_total_matches_sum_random(self):
        rng = random.Random(7)
        for _ in range(25):
            corpus = sentences(
                [
                    [rng.choice("abcdef") for _ in range(rng.randint(1, 9))]
                    for _ in range(rng.randint(1, 12))
                ]
            )
            vocab = build_vocabulary(corpus)
            assert sum(vocab.counts.values()) == vocab.total_tokens


class TestExtractRareWords:
    def test_threshold_is_inclusive(self):
        corpus = sentences([["a", "b"], ["b", "c"]])
        vocab = build_vocabulary(corpus)
        rare = extract_rare_words(vocab, corpus, 1, RareWordValidityConfig())
        assert [r.surface for r in rare] == ["a", "c"]
        assert all(r.frequency == 1 for r in rare)

    def test_digit_filter(self):
        corpus = sentences([["42", "x"]])
        vocab = build_vocabulary(corpus)
        rare = extract_rare_words(vocab, corpus, 1, RareWordValidityConfig())
        assert [r.surface for r in rare] == ["x"]

    def test_punctuation_filter(self):
        corpus = sentences([["...", "x", "?!"]])
        vocab = build_vocabulary(corpus)
        rare = extract_rare_words(vocab, corpus, 1, RareWordValidityConfig())
        assert [r.surface for r in rare] == ["x"]

    def test_embedding_filter(self):
        corpus = sentences([["a", "b"]])
        vocab = build_vocabulary(corpus)
        rare = extract_rare_words(
            vocab, corpus, 1, RareWordValidityConfig(embedding_vocab={"b"})
        )
        assert [r.surface for r in rare] == ["b"]

    def test_annotation_filter(self):
        corpus = sentences([["a", "b"]])
        vocab = build_vocabulary(corpus)
        rare = extract_rare_words(
            vocab, corpus, 1, RareWordValidityConfig(annotation_vocab={"a"})
        )
        assert [r.surface for r in rare] == ["a"]

    def test_t_r_zero_rejected(self):
        corpus = sentences([["a"]])
        with pytest.raises(ValueError):
            extract_rare_words(build_vocabulary(corpus), corpus, 0)

    def test_huge_threshold_returns_everything(self):
        corpus = sentences([["a", "b"], ["a", "c", "c"]])
        vocab = build_vocabulary(corpus)
        rare = extract_rare_words(vocab, corpus, 10**9, RareWordValidityConfig())
        assert [r.surface for r in rare] == sorted(vocab.counts)

    def test_host_ids_and_order_independence(self):
        lists = [["q", "a"], ["b", "a"], ["q", "c"]]
        corpus = sentences(lists)
        vocab = build_vocabulary(corpus)
        rare = extract_rare_words(vocab, corpus, 2, RareWordValidityConfig())
        by_surface = {r.surface: r for r in rare}
        assert by_surface["q"].host_sentence_ids == (0, 2)
        assert by_surface["a"].host_sentence_ids == (0, 1)
        # shuffling sentences changes host ids only, never the set
        shuffled = sentences([lists[2], lists[0], lists[1]])
        rare2 = extract_rare_words(build_vocabulary(shuffled), shuffled, 2, RareWordValidityConfig())
        assert [r.surface for r in rare2] == [r.surface for r in rare]
        assert [r.frequency for r in rare2] == [r.frequency for r in rare]


class TestLoadDictionary:
    def test_parse_multiword(self, tmp_path):
        (tmp_path / "d.tsv").write_text(
            "annual report\t෴ි ලි\n", encoding="utf-8"
        )
        entries = load_dictionary(tmp_path / "d.tsv")
        assert len(entries) == 1
        assert len(entries[0].source_term) == 2
        assert len(entries[0].target_term) == 2

    def test_duplicates_collapsed(self, tmp_path):
        (tmp_path / "d.tsv").write_text("a\tb\na\tb\n", encoding="utf-8")
        assert len(load_dictionary(tmp_path / "d.tsv")) == 1

    def test_malformed_row_skipped_with_warning(self, tmp_path, caplog):
        (tmp_path / "d.tsv").write_text("onlyonecolumn\na\tb\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            entries = load_dictionary(tmp_path / "d.tsv")
        assert len(entries) == 1
        assert sum("skipped" in rec.message for rec in caplog.records) == 1

    def test_bad_second_line_reported_as_line_2(self, tmp_path, caplog):
        (tmp_path / "d.tsv").write_text("a\tb\nonlyonecolumn\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            load_dictionary(tmp_path / "d.tsv")
        assert [r.getMessage().split(" ")[0] for r in caplog.records] == [f"{tmp_path / 'd.tsv'}:2:"]

    def test_empty_column_skipped(self, tmp_path, caplog):
        (tmp_path / "d.tsv").write_text("a\t\nc\td\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            entries = load_dictionary(tmp_path / "d.tsv")
        assert [e.source_term for e in entries] == [("c",)]

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_dictionary(tmp_path / "none.tsv")

    def test_crlf_line_endings(self, tmp_path, caplog):
        (tmp_path / "d.tsv").write_bytes(b"a\tb\r\n\r\nc d\te\r\n")
        with caplog.at_level(logging.WARNING):
            entries = load_dictionary(tmp_path / "d.tsv")
        assert [(e.source_term, e.target_term) for e in entries] == [
            (("a",), ("b",)), (("c", "d"), ("e",)),
        ]
        assert not caplog.records


class TestCorpusStats:
    def make_corpus(self):
        src = sentences([["a", "b"], ["a", "c"]])
        tgt = sentences([["x"], ["y", "y"]])
        from corpusaug.corpus_io import ParallelCorpus

        return ParallelCorpus(tuple(src), tuple(tgt))

    def test_counts(self):
        report = corpus_stats(self.make_corpus(), 1)
        assert report.sentence_count == 2
        assert report.word_count_per_side == {"source": 4, "target": 3}
        assert report.unique_words_per_side == {"source": 3, "target": 2}
        assert report.rare_word_count_per_side == {"source": 2, "target": 1}

    def test_dict_oov_in_vocab(self):
        report = corpus_stats(
            self.make_corpus(),
            1,
            dictionary=[DictionaryEntry(("a",), ("y",)), DictionaryEntry(("b", "c"), ("y",))],
        )
        assert report.dict_term_count == 2
        assert report.dict_oov_term_count == 0

    def test_dict_oov_out_of_vocab(self):
        # One token outside the vocabulary makes a term OOV, as for dict_scope = oov_only.
        report = corpus_stats(
            self.make_corpus(),
            1,
            dictionary=[DictionaryEntry(("z",), ("y",)), DictionaryEntry(("a", "z"), ("y",))],
        )
        assert report.dict_oov_term_count == 2

    def test_text_and_json_shapes(self):
        report = corpus_stats(self.make_corpus(), 1)
        text = report.format_text()
        assert "sentences\t2" in text
        assert report.to_dict()["sentence_count"] == 2


class TestMonolingual:
    def test_blank_lines_dropped(self, tmp_path):
        write(tmp_path / "m", ["a b", "", "c"])
        mono = load_monolingual(tmp_path / "m")
        assert mono == [("a", "b"), ("c",)]


def test_token_validity_helpers():
    assert has_digit("a1b")
    assert not has_digit("abc")
    assert is_punctuation("...")
    assert is_punctuation("?!")
    assert is_punctuation("+")
    assert not is_punctuation("a.")
    assert not is_punctuation("")
