import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import corpusaug
from corpusaug.cli import (
    ABLATION_PRESETS,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_STALE_CACHE,
    EXIT_VERIFY,
    RunConfig,
    apply_ablation,
    main,
    parse_config_file,
    resolve_config,
)
from corpusaug import pipeline
from corpusaug.corpus_io import load_parallel_corpus
from corpusaug.embeddings import WordIndex
from corpusaug.pipeline import ConfigError


def prepare_run(toy, tmp_path, name="run", **extra):
    out = tmp_path / name
    cfg = toy.write_config(tmp_path / f"{name}.cfg", out, **extra)
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    return cfg, out


class TestConfigHandling:
    def test_parse_flat_key_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a_key = v one\n# comment\nworkers=3\n", encoding="utf-8")
        assert parse_config_file(path) == {"a_key": "v one", "workers": "3"}

    def test_parse_error_names_1_based_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("a_key = 1\nno equals sign\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2: expected key = value"):
            parse_config_file(path)

    def test_resolve_types_and_overrides(self):
        config = resolve_config(
            {"workers": "2", "t_r": "4", "alpha_src": "-0.3", "use_pos": "true"},
            {"workers": "5"},
        )
        assert config.workers == 5  # flag wins
        assert config.augmentation.t_r == 4
        assert config.augmentation.alpha_src == -0.3
        assert config.augmentation.use_pos is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("nonsense = 1\n", encoding="utf-8")
        assert main(["stats", "--config", str(path)]) == EXIT_INPUT

    def test_ablation_presets_cover_grid(self):
        assert len(ABLATION_PRESETS) == 8
        config = RunConfig()
        apply_ablation(config, "wordSim_sentSim_pos_morph")
        aug = config.augmentation
        assert (aug.use_sent_sim, aug.use_word_sim, aug.use_pos, aug.use_morph) == (
            True, True, True, True,
        )
        apply_ablation(config, "off")
        aug = config.augmentation
        assert (aug.use_sent_sim, aug.use_word_sim, aug.use_pos, aug.use_morph) == (
            False, False, False, False,
        )


class TestBadInput:
    @pytest.mark.parametrize("setting", ["t_r=abc", "lm_discount=x", "use_pos=maybe"])
    def test_unparseable_value_exit_2_names_key(self, toy, tmp_path, capsys, setting):
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out")
        assert main(["stats", "--config", str(cfg), "--set", setting]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert repr(setting.split("=")[0]) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "setting", ["em_iterations=0", "lm_discount=1.5", "lm_min_count=0"]
    )
    def test_bad_training_knob_exit_2_names_key(self, toy, tmp_path, capsys, setting):
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out")
        assert main(["prepare", "--config", str(cfg), "--set", setting]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert repr(setting.split("=")[0]) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_dictionary_exit_2_with_offset(self, toy, tmp_path, capsys):
        path = tmp_path / "dict.tsv"
        path.write_bytes(b"alpha\tbeta\ngam\xffma\tdelta\n")
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out", dictionary=path)
        assert main(["stats", "--config", str(cfg)]) == EXIT_INPUT
        assert "undecodable byte at offset 14" in capsys.readouterr().err

    def test_non_utf8_embeddings_exit_2_with_offset(self, toy, tmp_path, capsys):
        path = tmp_path / "emb.vec"
        path.write_bytes(b"a 1 0\nb\xfe 0 1\n")
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out", embeddings_src=path)
        assert main(["prepare", "--config", str(cfg)]) == EXIT_INPUT
        assert "undecodable byte at offset 7" in capsys.readouterr().err

    def test_non_utf8_annotations_exit_2_with_offset(self, toy, tmp_path, capsys):
        cfg, _ = prepare_run(toy, tmp_path)
        path = tmp_path / "ann.tsv"
        path.write_bytes(b"book\tNOUN\t_\r\npen\tNO\xc3UN\t_\r\n")
        argv = ["augment", "--config", str(cfg), "--set", f"annotations_src={path}"]
        assert main(argv) == EXIT_INPUT
        assert "undecodable byte at offset 19" in capsys.readouterr().err


class TestStats:
    def test_stats_writes_json(self, toy, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = toy.write_config(tmp_path / "c.cfg", out)
        assert main(["stats", "--config", str(cfg)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "sentences\t204" in printed
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert stats["sentence_count"] == 204
        assert stats["dict_term_count"] == 32
        assert stats["dict_oov_term_count"] == 24

    def test_missing_file_exit_2_names_path(self, toy, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = toy.write_config(
            tmp_path / "c.cfg", out, src_corpus=tmp_path / "absent.txt"
        )
        assert main(["stats", "--config", str(cfg)]) == EXIT_INPUT
        assert "absent.txt" in capsys.readouterr().err


class TestPrepare:
    def test_cache_files_and_fingerprints(self, toy, tmp_path):
        _, out = prepare_run(toy, tmp_path)
        cache = out / "cache"
        for name in ("aligner.tsv", "lm.src.bin", "lm.tgt.bin", "embeddings.src.vec"):
            assert (cache / name).is_file()
        fingerprints = json.loads((cache / "fingerprints.json").read_text())
        assert set(fingerprints) == {"aligner", "lm_src", "lm_tgt", "embeddings_src"}
        for spec in fingerprints.values():
            assert all(len(h) == 64 for h in spec["inputs"].values())

    def test_rerun_reuses_cache(self, toy, tmp_path, caplog):
        cfg, out = prepare_run(toy, tmp_path)
        import logging

        with caplog.at_level(logging.INFO, logger="corpusaug.cli"):
            assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        assert sum("up to date" in r.message for r in caplog.records) == 4

    def test_changed_alpha_rebuilds_embeddings_only(self, toy, tmp_path, caplog):
        cfg, out = prepare_run(toy, tmp_path)
        cfg2 = toy.write_config(tmp_path / "c2.cfg", out, alpha_src=0.4)
        import logging

        with caplog.at_level(logging.INFO, logger="corpusaug.cli"):
            assert main(["prepare", "--config", str(cfg2)]) == EXIT_OK
        messages = [r.getMessage() for r in caplog.records]
        assert any("embeddings_src: building" in m for m in messages)
        assert sum("up to date" in m for m in messages) == 3

    def test_stale_cache_entries_removed(self, toy, tmp_path, caplog):
        cfg, out = prepare_run(toy, tmp_path)
        cache = out / "cache"
        fp_path = cache / "fingerprints.json"
        stored = json.loads(fp_path.read_text())
        stored["embeddings_tgt"] = dict(stored["embeddings_src"], output="embeddings.tgt.vec")
        fp_path.write_text(json.dumps(stored))
        for name in ("lm.src.tsv", "embeddings.tgt.vec"):
            (cache / name).write_text("left by an older version\n")
        (cache / "subdir").mkdir()
        with caplog.at_level(logging.INFO, logger="corpusaug.cli"):
            assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        messages = [r.getMessage() for r in caplog.records]
        assert sum("removing stale cache file" in m for m in messages) == 2
        assert sum("up to date" in m for m in messages) == 4
        assert sorted(p.name for p in cache.iterdir()) == [
            "aligner.tsv", "embeddings.src.vec", "fingerprints.json",
            "lm.src.bin", "lm.tgt.bin", "subdir",
        ]
        artifacts = {"aligner", "lm_src", "lm_tgt", "embeddings_src"}
        assert set(json.loads(fp_path.read_text())) == artifacts
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["fingerprints"]) == artifacts

    def test_workers_accepted_and_ignored(self, toy, tmp_path, caplog):
        cfg, out = prepare_run(toy, tmp_path, workers=1)
        with caplog.at_level(logging.WARNING, logger="corpusaug.cli"):
            assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        assert not any("no effect" in r.getMessage() for r in caplog.records)
        with caplog.at_level(logging.WARNING, logger="corpusaug.cli"):
            assert main(["prepare", "--config", str(cfg), "--workers", "4"]) == EXIT_OK
        assert sum("workers = 4 has no effect" in r.getMessage() for r in caplog.records) == 1


class TestAugment:
    def test_requires_fresh_cache(self, toy, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = toy.write_config(tmp_path / "c.cfg", out)
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_STALE_CACHE
        assert "rerun prepare" in capsys.readouterr().err

    def test_stale_after_input_change(self, toy, tmp_path):
        cfg, out = prepare_run(toy, tmp_path)
        toy.src_corpus.write_text(
            toy.src_corpus.read_text(encoding="utf-8"), encoding="utf-8"
        )  # same content: still fresh
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_OK
        original = toy.src_corpus.read_text(encoding="utf-8")
        try:
            toy.src_corpus.write_text(original + "the boral farnels the kimat\n",
                                      encoding="utf-8")
            rc = main(["augment", "--config", str(cfg), "--mode", "rare"])
            assert rc == EXIT_STALE_CACHE
        finally:
            toy.src_corpus.write_text(original, encoding="utf-8")

    def test_both_modes_align_and_index_once(self, toy, tmp_path, monkeypatch):
        cfg, out = prepare_run(toy, tmp_path)
        aligned, built = [], []
        viterbi_align, build = pipeline.viterbi_align, WordIndex.build

        def counting_align(pair, table):
            aligned.append(pair[0].id)
            return viterbi_align(pair, table)

        def counting_build(cls, *args):
            built.append(args[-1])
            return build(*args)

        monkeypatch.setattr(pipeline, "viterbi_align", counting_align)
        monkeypatch.setattr(WordIndex, "build", classmethod(counting_build))
        assert main(
            ["augment", "--config", str(cfg), "--mode", "both", "--ablation", "wordSim_pos_morph"]
        ) == EXIT_OK
        corpus = load_parallel_corpus(toy.src_corpus, toy.tgt_corpus)
        assert aligned == list(range(len(corpus)))
        assert built == ["pos_morph"]

    def test_outputs_and_manifest_shape(self, toy, tmp_path):
        cfg, out = prepare_run(toy, tmp_path)
        assert main(
            ["augment", "--config", str(cfg), "--mode", "both", "--ablation", "wordSim"]
        ) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "both"
        assert manifest["ablation"] == "wordSim"
        set_names = [s["name"] for s in manifest["merge"]["sets"]]
        assert set_names == ["rare_word", "dictionary"]
        assert manifest["merge"]["total_pairs"] == manifest["merge"]["base_pairs"] + manifest["merge"]["synthetic_pairs"]
        src_lines = (out / "corpus.src.txt").read_text(encoding="utf-8").splitlines()
        assert len(src_lines) == manifest["merge"]["total_pairs"]
        # base corpus comes first, unchanged
        assert src_lines[:204] == toy.src_corpus.read_text(encoding="utf-8").splitlines()
        assert (out / "provenance.jsonl").is_file()

    def test_defaults_parity_in_manifest(self, toy, tmp_path):
        cfg, out = prepare_run(toy, tmp_path)
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_OK
        resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
        assert resolved["t_r"] == 1
        assert resolved["alpha_src"] == -0.15
        assert resolved["alpha_tgt"] == 0.15
        assert resolved["lm_threshold"] == 0.6
        assert resolved["word_sim_min"] == 0.5
        assert resolved["max_per_item"] == 3
        assert resolved["max_span"] == 5

    def test_ablation_recorded_in_resolved_config(self, toy, tmp_path):
        cfg, out = prepare_run(toy, tmp_path)
        assert main(
            ["augment", "--config", str(cfg), "--mode", "rare", "--ablation", "pos_morph"]
        ) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["ablation"] == "pos_morph"
        assert manifest["resolved_config"]["use_pos"] is True
        assert manifest["resolved_config"]["use_morph"] is True
        assert manifest["resolved_config"]["use_word_sim"] is False

    def test_accepted_records_rebuild_output_corpus(self, toy, tmp_path):
        # base pairs, then synthetic pairs rebuilt from provenance spans, in
        # order, must reproduce the output files exactly (splice round trip)
        cfg, out = prepare_run(toy, tmp_path)
        assert main(["augment", "--config", str(cfg), "--mode", "both"]) == EXIT_OK
        records = [
            json.loads(line)
            for line in (out / "provenance.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        base_src = toy.src_corpus.read_text(encoding="utf-8").splitlines()
        base_tgt = toy.tgt_corpus.read_text(encoding="utf-8").splitlines()
        rebuilt_src, rebuilt_tgt = list(base_src), list(base_tgt)
        for record in records:
            if not record["accepted"]:
                continue
            src_tokens = base_src[record["base_sentence_id"]].split()
            tgt_tokens = base_tgt[record["base_sentence_id"]].split()
            s0, s1 = record["source_span"]
            t0, t1 = record["target_span"]
            rebuilt_src.append(
                " ".join(src_tokens[:s0] + record["source_inserted"] + src_tokens[s1 + 1:])
            )
            rebuilt_tgt.append(
                " ".join(tgt_tokens[:t0] + record["target_inserted"] + tgt_tokens[t1 + 1:])
            )
        assert rebuilt_src == (out / "corpus.src.txt").read_text(encoding="utf-8").splitlines()
        assert rebuilt_tgt == (out / "corpus.tgt.txt").read_text(encoding="utf-8").splitlines()

    def test_cap_invariant_per_item(self, toy, tmp_path):
        cfg, out = prepare_run(toy, tmp_path, max_per_item="2")
        assert main(["augment", "--config", str(cfg), "--mode", "both"]) == EXIT_OK
        from collections import Counter

        accepted = Counter()
        for line in (out / "provenance.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record["accepted"]:
                accepted[(record["item_kind"], tuple(record["item_surface"]))] += 1
        assert accepted and max(accepted.values()) <= 2

    def test_numeric_error_exit_3(self, toy, tmp_path, monkeypatch):
        from corpusaug import cli
        from corpusaug.embeddings import NumericError

        def boom(table, alpha):
            raise NumericError("synthetic failure")

        monkeypatch.setattr(cli, "postprocess_alpha", boom)
        out = tmp_path / "out"
        cfg = toy.write_config(tmp_path / "c.cfg", out)
        assert main(["prepare", "--config", str(cfg)]) == 3

    def test_corrupt_cached_table_exit_2_names_line(self, toy, tmp_path, capsys):
        cfg, out = prepare_run(toy, tmp_path)
        table = out / "cache" / "aligner.tsv"
        with open(table, "a", encoding="utf-8") as fh:
            fh.write("x\ty\tnotafloat\n")
        lineno = len(table.read_text(encoding="utf-8").splitlines())
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"aligner.tsv:{lineno}:" in err
        assert "Traceback" not in err

    def test_dict_mode_refuses_sentence_similarity(self, toy, tmp_path, capsys):
        cfg, out = prepare_run(toy, tmp_path, use_sent_sim="true")
        rc = main(["augment", "--config", str(cfg), "--mode", "dict"])
        assert rc == EXIT_INPUT
        assert "sentence-similarity" in capsys.readouterr().err

    def test_zero_accepts_still_exit_0(self, toy, tmp_path):
        # an unattainable LM threshold rejects everything but the run
        # succeeds and the manifest explains why
        cfg, out = prepare_run(toy, tmp_path, lm_threshold="1000000")
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["merge"]["sets"][0]["accepted"] == 0
        assert manifest["rejections_per_set"]["rare_word"].get("lm_src", 0) > 0


class TestVerifyCommand:
    def run_and_verify(self, toy, tmp_path):
        cfg, out = prepare_run(toy, tmp_path)
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_OK
        return out

    def test_untampered_run_verifies(self, toy, tmp_path, capsys):
        out = self.run_and_verify(toy, tmp_path)
        assert main(["verify", "--run-dir", str(out)]) == EXIT_OK
        assert "0 violations" in capsys.readouterr().out

    def test_tampered_provenance_exit_5(self, toy, tmp_path):
        out = self.run_and_verify(toy, tmp_path)
        path = out / "provenance.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        assert record["accepted"]
        record["lm_ratio_src"] = 0.01
        lines[0] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["verify", "--run-dir", str(out)]) == EXIT_VERIFY

    def test_empty_provenance_vacuously_ok(self, toy, tmp_path):
        out = self.run_and_verify(toy, tmp_path)
        (out / "provenance.jsonl").write_text("", encoding="utf-8")
        assert main(["verify", "--run-dir", str(out)]) == EXIT_OK

    def test_missing_run_dir_exit_2(self, tmp_path):
        assert main(["verify", "--run-dir", str(tmp_path / "nope")]) == EXIT_INPUT


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    return data


class TestCorruptCache:
    def test_truncated_lm_augment_exit_2(self, toy, tmp_path, capsys):
        cfg, out = prepare_run(toy, tmp_path)
        path = out / "cache" / "lm.src.bin"
        _truncate(path)
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err

    def test_truncated_lm_verify_exit_2(self, toy, tmp_path, capsys):
        cfg, out = prepare_run(toy, tmp_path)
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_OK
        path = out / "cache" / "lm.tgt.bin"
        _truncate(path)
        assert main(["verify", "--run-dir", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err

    def test_prepare_rebuilds_damaged_artifact(self, toy, tmp_path, caplog):
        cfg, out = prepare_run(toy, tmp_path)
        path = out / "cache" / "lm.src.bin"
        fingerprints = json.loads((out / "cache" / "fingerprints.json").read_text())
        assert all(len(spec["output_sha256"]) == 64 for spec in fingerprints.values())
        original = _truncate(path)
        with caplog.at_level(logging.INFO, logger="corpusaug.cli"):
            assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        messages = [r.getMessage() for r in caplog.records]
        assert "lm_src: building" in messages
        assert sum("up to date" in m for m in messages) == 3
        assert path.read_bytes() == original
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_OK


@pytest.mark.parametrize(
    "content", [b'{"aligner": ', b"[]", b'{"aligner": 3}', b"\xff\xfe"],
    ids=["truncated", "not_an_object", "entry_not_an_object", "not_utf8"],
)
class TestCorruptFingerprints:
    def test_prepare_rebuilds_every_artifact(self, toy, tmp_path, caplog, content):
        cfg, out = prepare_run(toy, tmp_path)
        fp_path = out / "cache" / "fingerprints.json"
        fp_path.write_bytes(content)
        with caplog.at_level(logging.INFO, logger="corpusaug.cli"):
            assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        messages = [r.getMessage() for r in caplog.records]
        assert any(str(fp_path) in m and "rebuilding every artifact" in m for m in messages)
        assert sum(m.endswith(": building") for m in messages) == 4
        assert set(json.loads(fp_path.read_text())) == {"aligner", "lm_src", "lm_tgt", "embeddings_src"}
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_OK

    def test_augment_exit_4_names_file(self, toy, tmp_path, capsys, content):
        cfg, out = prepare_run(toy, tmp_path)
        fp_path = out / "cache" / "fingerprints.json"
        fp_path.write_bytes(content)
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_STALE_CACHE
        err = capsys.readouterr().err
        assert str(fp_path) in err
        assert "Traceback" not in err


class TestChildProcess:
    """The commands as separate processes, read the way an outside caller reads them."""

    def test_prepare_augment_verify(self, toy, tmp_path):
        out = tmp_path / "run"
        cfg = toy.write_config(tmp_path / "run.cfg", out)
        package_root = str(Path(corpusaug.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        stdout = {}
        for name, argv in (
            ("prepare", ["prepare", "--config", str(cfg)]),
            ("augment", ["augment", "--config", str(cfg), "--mode", "both"]),
            ("verify", ["verify", "--run-dir", str(out)]),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "corpusaug.cli"] + argv,
                env=env,
                capture_output=True,
                timeout=300,
            )
            assert proc.returncode == EXIT_OK, proc.stderr.decode("utf-8", "replace")
            stdout[name] = proc.stdout.decode("utf-8")
        assert re.search(r"^0 violations across \d+ accepted", stdout["verify"], re.MULTILINE)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        accepted = manifest["merge"]["synthetic_pairs"]
        assert type(accepted) is int and accepted > 0
        tallies = [
            count
            for per_set in manifest["rejections_per_set"].values()
            for count in per_set.values()
        ]
        assert tallies and all(type(count) is int for count in tallies)
        with open(out / "provenance.jsonl", encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        assert accepted + sum(tallies) == lines
