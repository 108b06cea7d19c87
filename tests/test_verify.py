import json

import pytest

from corpusaug.cli import EXIT_INPUT, EXIT_OK, main
from corpusaug.pipeline import AugmentationConfig, augment_rare_words
from corpusaug.verify import verify_records

from micro import ledger_fixture


def run(config=None):
    fx = ledger_fixture()
    config = config or AugmentationConfig(use_word_sim=True, use_pos=True, use_morph=True)
    accepted, rejected = augment_rare_words(
        fx.corpus, fx.rare_words, fx.embeddings, fx.alignment,
        fx.lm_src, fx.lm_tgt, fx.lexicon, config,
    )
    records = [p.record for p in accepted] + list(rejected)
    return fx, config, records


def verify(fx, config, records):
    return verify_records(
        records, fx.corpus, fx.embeddings, fx.lexicon, fx.lm_src, fx.lm_tgt, config
    )


class TestVerifyRecords:
    def test_untampered_run_is_clean(self):
        fx, config, records = run()
        assert verify(fx, config, records) == []

    def test_rejected_records_assert_nothing(self):
        fx, config, records = run()
        assert any(not r.accepted for r in records)
        assert verify(fx, config, [r for r in records if not r.accepted]) == []

    def test_tampered_lm_ratio_detected(self):
        fx, config, records = run()
        target = next(r for r in records if r.accepted)
        target.lm_ratio_src = 0.1
        violations = verify(fx, config, records)
        assert violations
        assert any(v.field == "lm_ratio_src" for v in violations)

    def test_tampered_word_sim_detected(self):
        fx, config, records = run()
        target = next(r for r in records if r.accepted)
        target.word_sim = 0.99
        violations = verify(fx, config, records)
        assert any(v.field == "word_sim" for v in violations)

    def test_tampered_span_detected(self):
        fx, config, records = run()
        target = next(r for r in records if r.accepted)
        target.source_span = (0, 0)  # points at "the", not the candidate word
        violations = verify(fx, config, records)
        assert violations

    def test_syntactic_violation_detected(self):
        # verify against a config whose gate the run never applied
        fx, _, records = run(AugmentationConfig(use_word_sim=False))
        strict = AugmentationConfig(use_word_sim=True)
        violations = verify(fx, strict, records)
        # the pen replacement (word_sim ~0.02) now violates the threshold
        assert any(v.field == "word_sim" and "below threshold" in v.detail for v in violations)

    def test_missing_evidence_detected(self):
        fx, config, records = run()
        target = next(r for r in records if r.accepted)
        target.lm_ratio_tgt = None
        violations = verify(fx, config, records)
        assert any(v.field == "fields" for v in violations)

    def test_empty_provenance_is_vacuously_clean(self):
        fx, config, _ = run()
        assert verify(fx, config, []) == []


class TestVerifyBadManifest:
    """A damaged manifest is an input error (exit 2), not a traceback."""

    @pytest.fixture
    def run_dir(self, toy, tmp_path):
        out = tmp_path / "run"
        cfg = toy.write_config(tmp_path / "run.cfg", out)
        assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_OK
        return out

    def test_missing_src_corpus_exit_2(self, run_dir, capsys):
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["resolved_config"]["src_corpus"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "'src_corpus'" in err
        assert "Traceback" not in err

    def test_truncated_manifest_exit_2(self, run_dir, capsys):
        path = run_dir / "manifest.json"
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err
