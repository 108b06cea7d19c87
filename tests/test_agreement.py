import itertools
import logging

import pytest

from corpusaug.agreement import (
    MODE_OFF,
    MODE_POS,
    MODE_POS_MORPH,
    ROLE_MORPH_RICH,
    ROLE_NUMBER_ONLY,
    TokenAnnotation,
    load_annotations,
    morph_agree,
    number_agree,
    parse_morph,
    pos_agree,
    syntactic_ok,
)


def ann(pos, **features):
    return TokenAnnotation(pos, dict(features))


class TestLoadAnnotations:
    def test_parse(self, tmp_path):
        (tmp_path / "a.tsv").write_text("dogs\tNOUN\tNumber=Plur\n", encoding="utf-8")
        lex = load_annotations(tmp_path / "a.tsv")
        annotation = lex.get("dogs")
        assert annotation.pos == "NOUN"
        assert annotation.morph == {"Number": "Plur"}

    def test_crlf_line_endings(self, tmp_path):
        (tmp_path / "a.tsv").write_bytes(b"dogs\tNOUN\tNumber=Plur\r\nran\tVERB\r\n")
        lex = load_annotations(tmp_path / "a.tsv")
        assert lex.get("dogs").morph == {"Number": "Plur"}
        assert lex.get("ran").pos == "VERB"

    def test_underscore_morph_empty(self, tmp_path):
        (tmp_path / "a.tsv").write_text("ran\tVERB\t_\n", encoding="utf-8")
        assert load_annotations(tmp_path / "a.tsv").get("ran").morph == {}

    def test_two_columns_means_no_morph(self, tmp_path):
        (tmp_path / "a.tsv").write_text("ran\tVERB\n", encoding="utf-8")
        assert load_annotations(tmp_path / "a.tsv").get("ran").morph == {}

    def test_duplicate_first_wins(self, tmp_path, caplog):
        (tmp_path / "a.tsv").write_text(
            "dogs\tNOUN\tNumber=Plur\ndogs\tVERB\t_\n", encoding="utf-8"
        )
        with caplog.at_level(logging.WARNING):
            lex = load_annotations(tmp_path / "a.tsv")
        assert lex.get("dogs").pos == "NOUN"
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_short_row_skipped(self, tmp_path, caplog):
        (tmp_path / "a.tsv").write_text("loner\nok\tNOUN\t_\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            lex = load_annotations(tmp_path / "a.tsv")
        assert "loner" not in lex
        assert "ok" in lex

    def test_bad_second_line_reported_as_line_2(self, tmp_path, caplog):
        (tmp_path / "a.tsv").write_text("ok\tNOUN\nloner\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            load_annotations(tmp_path / "a.tsv")
        assert [r.getMessage().split(" ")[0] for r in caplog.records] == [f"{tmp_path / 'a.tsv'}:2:"]

    def test_multi_feature_morph(self):
        assert parse_morph("Number=Plur|Case=Nom") == {"Number": "Plur", "Case": "Nom"}


class TestAgreementPredicates:
    def test_pos_agree(self):
        assert pos_agree(ann("NOUN"), ann("NOUN"))
        assert not pos_agree(ann("NOUN"), ann("VERB"))
        assert not pos_agree(ann("NOUN"), ann("noun"))

    def test_morph_shared_key_rule(self):
        assert morph_agree(ann("N", Number="Plur"), ann("N", Number="Plur", Case="Nom"))
        assert not morph_agree(ann("N", Number="Plur"), ann("N", Number="Sing"))
        assert morph_agree(ann("N"), ann("N", Case="Nom"))
        assert morph_agree(ann("N"), ann("N"))

    def test_number_agree(self):
        assert number_agree(ann("N", Number="Plur"), ann("N", Number="Plur"))
        assert not number_agree(ann("N", Number="Plur"), ann("N", Number="Sing"))
        assert number_agree(ann("N"), ann("N", Number="Sing"))
        # non-Number conflicts are invisible to the Number-only check
        assert number_agree(ann("N", Case="Nom"), ann("N", Case="Acc"))

    def test_reflexive_and_symmetric(self):
        annotations = [
            ann("NOUN"),
            ann("NOUN", Number="Sing"),
            ann("NOUN", Number="Plur", Case="Nom"),
            ann("VERB", Tense="Past"),
        ]
        for a in annotations:
            assert pos_agree(a, a) and morph_agree(a, a) and number_agree(a, a)
        for a, b in itertools.product(annotations, repeat=2):
            assert pos_agree(a, b) == pos_agree(b, a)
            assert morph_agree(a, b) == morph_agree(b, a)
            assert number_agree(a, b) == number_agree(b, a)


class TestSyntacticOk:
    def test_mode_off_accepts_anything(self):
        assert syntactic_ok(ROLE_MORPH_RICH, ann("NOUN"), ann("VERB"), MODE_OFF)

    def test_morph_rich_case_conflict(self):
        a = ann("NOUN", Case="Nom")
        b = ann("NOUN", Case="Acc")
        assert not syntactic_ok(ROLE_MORPH_RICH, a, b, MODE_POS_MORPH)
        assert syntactic_ok(ROLE_MORPH_RICH, a, b, MODE_POS)

    def test_number_only_ignores_other_features(self):
        a = ann("NOUN", Number="Plur", Tense="x")
        b = ann("NOUN", Number="Plur")
        assert syntactic_ok(ROLE_NUMBER_ONLY, a, b, MODE_POS_MORPH)
        # the same pair fails for a morph-rich role (Tense is one-sided, so
        # it does not block; make it two-sided to see the difference)
        c = ann("NOUN", Number="Plur", Tense="y")
        assert not syntactic_ok(ROLE_MORPH_RICH, a, c, MODE_POS_MORPH)
        assert syntactic_ok(ROLE_NUMBER_ONLY, a, c, MODE_POS_MORPH)

    def test_mode_strictness_monotone(self):
        pool = [
            ann("NOUN"),
            ann("NOUN", Number="Sing"),
            ann("NOUN", Number="Plur"),
            ann("NOUN", Number="Plur", Case="Nom"),
            ann("VERB"),
            ann("VERB", Number="Sing"),
        ]
        for role in (ROLE_MORPH_RICH, ROLE_NUMBER_ONLY):
            for a, b in itertools.product(pool, repeat=2):
                strict = syntactic_ok(role, a, b, MODE_POS_MORPH)
                mid = syntactic_ok(role, a, b, MODE_POS)
                loose = syntactic_ok(role, a, b, MODE_OFF)
                assert (not strict or mid) and (not mid or loose)

    def test_unknown_mode_or_role_rejected(self):
        with pytest.raises(ValueError):
            syntactic_ok(ROLE_MORPH_RICH, ann("N"), ann("N"), "bogus")
        with pytest.raises(ValueError):
            syntactic_ok("bogus", ann("N"), ann("N"), MODE_POS)
