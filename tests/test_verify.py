import json
import math
import re
import shutil

import numpy as np
import pytest

from corpusaug import pipeline
from corpusaug.cli import (
    EXIT_INPUT, EXIT_OK, EXIT_VERIFY, _load_run, apply_ablation, main, parse_config_file,
    resolve_config,
)
from corpusaug.corpus_io import load_parallel_corpus
from corpusaug.embeddings import cosine, load_embeddings
from corpusaug.lm import load_lm
from corpusaug.pipeline import (
    AugmentationConfig, Candidates, augment_rare_words, query_vector, synthetic_window,
)
from corpusaug.verify import verify_records

from micro import inputs_of, ledger_fixture, rejected_records
from oracles import lm_ratio_reference


def run(config=None):
    fx = ledger_fixture()
    config = config or AugmentationConfig(use_word_sim=True, use_pos=True, use_morph=True)
    accepted, rejected = augment_rare_words(
        inputs_of(fx.corpus, fx.embeddings, fx.alignment, fx.lm_src, fx.lm_tgt, fx.lexicon, config),
        fx.rare_words, config,
    )
    records = [p.record for p in accepted] + rejected_records(rejected)
    return fx, config, records


def verify(fx, config, records):
    inputs = inputs_of(
        fx.corpus, fx.embeddings, fx.alignment, fx.lm_src, fx.lm_tgt, fx.lexicon, config
    )
    return verify_records(records, inputs, fx.rare_words, [], config)


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
        assert any(v.field == "lm_ratio_tgt" for v in violations)

    def test_empty_provenance_is_vacuously_clean(self):
        fx, config, _ = run()
        assert verify(fx, config, []) == []

    def test_lm_gates_score_through_pipeline(self, monkeypatch):
        # verify re-runs the pipeline's item step, so the traced benchmark's
        # pipeline.lm_ratio_accept counts verify's LM-gate work too.
        fx, config, records = run()
        calls = []
        score = pipeline.lm_ratio_accept

        def counting(*args):
            calls.append(args)
            return score(*args)

        monkeypatch.setattr(pipeline, "lm_ratio_accept", counting)
        assert verify(fx, config, records) == []
        # One source and one target gate per accepted record.
        assert len(calls) == 2 * sum(r.accepted for r in records)


def finished_run(toy, tmp_path, mode):
    out = tmp_path / "run"
    cfg = toy.write_config(tmp_path / "run.cfg", out)
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    assert main(["augment", "--config", str(cfg), "--mode", mode]) == EXIT_OK
    return out


DELETE = object()


class TestVerifyBadManifest:
    """A damaged manifest is an input error (exit 2), not a traceback."""

    @pytest.fixture
    def run_dir(self, toy, tmp_path):
        return finished_run(toy, tmp_path, "rare")

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

    def test_unknown_mode_exit_2(self, run_dir, capsys):
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["mode"] = "bogus"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "'bogus'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value", [DELETE, [], {"aligner": "abc"}], ids=["missing", "list", "entry_not_object"]
    )
    def test_bad_fingerprints_exit_2(self, run_dir, capsys, value):
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if value is DELETE:
            del manifest["fingerprints"]
        else:
            manifest["fingerprints"] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "'fingerprints'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [("word_sim_min", "abc"), ("lm_threshold", 0), ("max_span", DELETE),
         ("dict_scope", "bogus")],
        ids=["unparseable", "out_of_range", "missing", "unknown_dict_scope"],
    )
    def test_bad_setting_exit_2(self, run_dir, capsys, key, value):
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if value is DELETE:
            del manifest["resolved_config"][key]
        else:
            manifest["resolved_config"][key] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err


class TestVerifyTamper:
    """An accepted record edited so that every score still matches its other
    fields. Checking the scores alone passes each of these; re-running the
    pipeline's item step catches the field it derives."""

    THRESHOLD = 1e-30  # low enough that every rewritten LM ratio passes

    @pytest.fixture(scope="class")
    def finished(self, toy, tmp_path_factory):
        out = tmp_path_factory.mktemp("tamper") / "run"
        cfg = toy.write_config(out.parent / "run.cfg", out, lm_threshold=str(self.THRESHOLD))
        assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        argv = ["augment", "--config", str(cfg), "--mode", "both", "--ablation", "off"]
        assert main(argv) == EXIT_OK
        return out, load_parallel_corpus(toy.src_corpus, toy.tgt_corpus)

    @pytest.fixture
    def run_dir(self, finished, tmp_path):
        out = tmp_path / "run"
        shutil.copytree(finished[0], out)
        return out

    def tamper(self, run_dir, corpus, kind, edit):
        """Apply ``edit(record, source tokens, target tokens)`` to the first
        accepted record of this ``kind``."""
        path = run_dir / "provenance.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        index = next(i for i, r in enumerate(records) if r["accepted"] and r["item_kind"] == kind)
        record = records[index]
        sentence_id = record["base_sentence_id"]
        edit(record, corpus.source[sentence_id].tokens, corpus.target[sentence_id].tokens)
        lines[index] = json.dumps(record, sort_keys=True, ensure_ascii=False)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def lm_ratio(self, run_dir, side, tokens, span, inserted):
        model = load_lm(run_dir / "cache" / f"lm.{side}.bin")
        window = synthetic_window(tokens, tuple(span), inserted)
        return lm_ratio_reference(model, (tokens, tuple(span)), window, self.THRESHOLD)[1]

    def verify_fails_with(self, run_dir, capsys, text):
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_VERIFY
        assert text in capsys.readouterr().err

    @pytest.mark.parametrize("kind, violation", [
        ("rare_word", "target_inserted: recorded ('forged',)"),
        ("dictionary", "item: not an item of the run"),
    ])
    def test_forged_target_inserted(self, finished, run_dir, capsys, kind, violation):
        def forge(record, source, target):
            record["target_inserted"] = ["forged"]
            record["lm_ratio_tgt"] = self.lm_ratio(
                run_dir, "tgt", target, record["target_span"], ["forged"]
            )

        self.tamper(run_dir, finished[1], kind, forge)
        self.verify_fails_with(run_dir, capsys, violation)

    def test_moved_source_span(self, finished, run_dir, capsys):
        embeddings = load_embeddings(run_dir / "cache" / "embeddings.src.bin")

        def move(record, source, target):
            query = query_vector(record["item_surface"], embeddings)
            position = next(
                i for i, token in enumerate(source)
                if i != record["source_span"][0] and embeddings.get(token) is not None
            )
            record["source_span"] = [position, position]
            record["word_sim"] = cosine(query, embeddings.get(source[position]))
            record["lm_ratio_src"] = self.lm_ratio(
                run_dir, "src", source, record["source_span"], record["source_inserted"]
            )

        self.tamper(run_dir, finished[1], "rare_word", move)
        self.verify_fails_with(run_dir, capsys, "source_span: recorded")

    def test_edited_target_span(self, finished, run_dir, capsys):
        def edit(record, source, target):
            record["target_span"] = [0, 0] if record["target_span"] != [0, 0] else [1, 1]
            record["lm_ratio_tgt"] = self.lm_ratio(
                run_dir, "tgt", target, record["target_span"], record["target_inserted"]
            )

        self.tamper(run_dir, finished[1], "rare_word", edit)
        self.verify_fails_with(run_dir, capsys, "target_span: recorded")

    def replace_last_of_item(self, run_dir, kind, line_of):
        """Replace the last accepted line of the first ``kind`` item by
        ``line_of(first accepted record of the item)``, so the item keeps
        its count of records."""
        path = run_dir / "provenance.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        first = next(r for r in records if r["accepted"] and r["item_kind"] == kind)
        same = [i for i, r in enumerate(records) if r["accepted"] and
                (r["item_surface"], r["target_inserted"]) ==
                (first["item_surface"], first["target_inserted"])]
        assert len(same) > 1
        lines[same[-1]] = line_of(first)
        path.write_text("".join(lines), encoding="utf-8")

    def test_repeated_sentence_of_an_item(self, run_dir, capsys):
        # A copy of an accepted line recomputes to itself; only the repeat
        # shows that the run never tried its sentence twice for the item.
        self.replace_last_of_item(
            run_dir, "dictionary", lambda first: json.dumps(first, sort_keys=True) + "\n"
        )
        self.verify_fails_with(run_dir, capsys, "repeats an earlier record of the item")

    def test_rare_word_on_its_host_sentence(self, finished, run_dir, capsys):
        # The record the item step gives on a host sentence recomputes to
        # itself; only the host check shows that the run never tries it.
        config = resolve_config(parse_config_file(finished[0].parent / "run.cfg"))
        apply_ablation(config, "off")
        inputs, rare_words, _ = _load_run(config, run_dir / "cache", "both")

        def on_host(first):
            rare = next(r for r in rare_words if (r.surface,) == tuple(first["item_surface"]))
            item = pipeline.resolve_rare_word(rare, inputs, config.augmentation.max_span)
            host = Candidates(np.array([min(rare.host_sentence_ids)]))
            _, outcome = pipeline._process_item(item, host, inputs, config.augmentation)
            [record] = outcome.records()
            assert record.accepted
            return pipeline._provenance_line(record)

        self.replace_last_of_item(run_dir, "rare_word", on_host)
        self.verify_fails_with(run_dir, capsys, "is a host of the rare word")

    def test_more_records_than_max_per_item(self, run_dir, capsys):
        path = run_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["resolved_config"]["max_per_item"] > 1
        manifest["resolved_config"]["max_per_item"] = 1
        path.write_text(json.dumps(manifest), encoding="utf-8")
        self.verify_fails_with(run_dir, capsys, "max_per_item: more than 1 for the item")


class TestVerifyBadProvenance:
    """An unreadable line is an input error (exit 2) naming ``<path>:<line>``;
    an accepted record that differs from its recomputation in any way, its
    shape included, is a violation (exit 5). Rejected
    lines are skipped unparsed only when they are exactly what the writer
    gives; any other rejected line is parsed like an accepted one."""

    @pytest.fixture
    def run_dir(self, toy, tmp_path):
        return finished_run(toy, tmp_path, "both")

    def edit_line(self, run_dir, edit, accepted=True):
        """Replace the first line whose record has this ``accepted`` by
        ``edit(line)``; its line number."""
        path = run_dir / "provenance.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if json.loads(line)["accepted"] is accepted)
        lines[index] = edit(lines[index])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return index + 1

    @staticmethod
    def with_fields(**changes):
        return lambda line: json.dumps(dict(json.loads(line), **changes))

    def test_unparseable_line_exit_2(self, run_dir, capsys):
        lineno = self.edit_line(run_dir, lambda line: line[:-5])
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"provenance.jsonl:{lineno}:" in err
        assert "Traceback" not in err

    def test_truncated_rejected_line_exit_2(self, run_dir, capsys):
        lineno = self.edit_line(run_dir, lambda line: line[:-5], accepted=False)
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"provenance.jsonl:{lineno}:" in err
        assert "Traceback" not in err

    def test_unknown_key_exit_2(self, run_dir, capsys):
        lineno = self.edit_line(run_dir, self.with_fields(bogus=1))
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"provenance.jsonl:{lineno}:" in err
        assert "Traceback" not in err

    def test_unknown_key_in_rejected_line_exit_2(self, run_dir, capsys):
        # The writer's own formatting, one key more.
        lineno = self.edit_line(run_dir, lambda line: line[:-1] + ', "bogus": 1}', accepted=False)
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"provenance.jsonl:{lineno}:" in err
        assert "Traceback" not in err

    def test_duplicate_accepted_key_is_verified(self, run_dir, capsys):
        # An accepted record whose line opens like a rejected one: json.loads
        # keeps the last "accepted", so the line must be parsed and checked.
        def disguise(line):
            line = line.replace('"accepted": true', '"accepted": false', 1)
            line = re.sub(r'"lm_ratio_src": [^,]+', '"lm_ratio_src": 0.01', line)
            return line[:-1] + ', "accepted": true}'

        self.edit_line(run_dir, disguise)
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert "lm_ratio_src: recorded 0.01" in captured.err
        assert "violations by field: lm_ratio_src=1" in captured.err

    def test_writer_rejected_lines_take_the_fast_path(self, run_dir):
        # A writer change that pushed these lines onto the full parse fails here.
        with open(run_dir / "provenance.jsonl", encoding="utf-8") as fh:
            lines = list(fh)
        rejected = [json.loads(line)["accepted"] is False for line in lines]
        assert rejected.count(True) > 100
        assert [bool(pipeline._REJECTED_LINE.fullmatch(line)) for line in lines] == rejected

    def test_non_utf8_provenance_exit_2(self, run_dir, capsys):
        with open(run_dir / "provenance.jsonl", "ab") as fh:
            fh.write(b"\xff\n")
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "provenance.jsonl: not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [("source_inserted", []), ("target_inserted", []), ("source_span", "11"),
         ("item_kind", []), ("item_kind", {})],
    )
    def test_malformed_accepted_record_is_violation(self, run_dir, capsys, key, value):
        self.edit_line(run_dir, self.with_fields(**{key: value}))
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_VERIFY
        captured = capsys.readouterr()
        violation = "item: not an item of the run" if key == "item_kind" else f"{key}: recorded"
        assert violation in captured.err
        assert "Traceback" not in captured.err
        assert "1 violation(s)" in captured.out

    @pytest.mark.parametrize("key", ["word_sim", "lm_ratio_src", "lm_ratio_tgt"])
    def test_score_moved_by_one_ulp_is_violation(self, run_dir, capsys, key):
        def nudge(line):
            record = json.loads(line)
            record[key] = math.nextafter(record[key], math.inf)
            return json.dumps(record)

        self.edit_line(run_dir, nudge)
        assert main(["verify", "--run-dir", str(run_dir)]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert f"violations by field: {key}=1\n" in captured.err
        assert "1 violation(s)" in captured.out
