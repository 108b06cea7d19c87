import contextlib
import hashlib
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import corpusaug
from corpusaug.cli import (
    ABLATION_PRESETS,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_STALE_CACHE,
    EXIT_VERIFY,
    RunConfig,
    _load_run,
    apply_ablation,
    main,
    parse_config_file,
    resolve_config,
)
from corpusaug import pipeline
from corpusaug.aligner import ALIGNER_MAGIC, load_translation_table
from corpusaug.corpus_io import load_parallel_corpus
from corpusaug.embeddings import (
    EMBEDDINGS_MAGIC, WordIndex, _TextRows, export_vec, load_embeddings,
)
from corpusaug.lm import TrigramModel
from corpusaug.pipeline import ConfigError

from cachecases import ALIGNER_CASES, ALTERED_CASES, EMBEDDING_CASES, read_cache


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

    def test_removed_embeddings_tgt_key_rejected(self, toy, tmp_path, capsys):
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out", embeddings_tgt="t.vec")
        assert main(["stats", "--config", str(cfg)]) == EXIT_INPUT
        assert "unknown config key: 'embeddings_tgt'" in capsys.readouterr().err

    def test_removed_alpha_tgt_key_rejected(self, toy, tmp_path, capsys):
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out", alpha_tgt="0.15")
        assert main(["stats", "--config", str(cfg)]) == EXIT_INPUT
        assert "unknown config key: 'alpha_tgt'" in capsys.readouterr().err

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

    def test_unknown_dict_scope_exit_2_names_key(self, toy, tmp_path, capsys):
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out")
        argv = ["augment", "--config", str(cfg), "--mode", "dict", "--set", "dict_scope=bogus"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "'dict_scope'" in err and "'bogus'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_alpha_src_exit_2_names_key(self, toy, tmp_path, capsys, value):
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out")
        assert main(["prepare", "--config", str(cfg), "--set", f"alpha_src={value}"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "config key 'alpha_src': must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_lm_threshold_exit_2_names_key(self, toy, tmp_path, capsys, value):
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out")
        argv = ["augment", "--config", str(cfg), "--set", f"lm_threshold={value}"]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "lm_threshold must be positive and finite" in err
        assert "Traceback" not in err

    def test_non_utf8_config_exit_2_names_path(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"\xffout_dir = x\n")
        assert main(["stats", "--config", str(path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        _one_error_line(err, path)
        assert "not UTF-8" in err

    def test_directory_as_input_exit_2_names_path(self, toy, tmp_path, capsys):
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out")
        assert main(["prepare", "--config", str(cfg), "--set", f"src_corpus={tmp_path}"]) == EXIT_INPUT
        _one_error_line(capsys.readouterr().err, tmp_path)

    @pytest.mark.parametrize("command", ["prepare", "stats"])
    def test_regular_file_as_out_dir_exit_2_names_path(self, toy, tmp_path, capsys, command):
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out")
        blocker = tmp_path / "a_file"
        blocker.write_text("", encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out-dir", str(blocker)]) == EXIT_INPUT
        _one_error_line(capsys.readouterr().err, blocker)

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

    def test_embeddings_header_dimension_0_exit_2(self, toy, tmp_path, capsys):
        path = tmp_path / "emb.vec"
        path.write_text("2 0\na\nb\n", encoding="utf-8")
        cfg = toy.write_config(tmp_path / "c.cfg", tmp_path / "out", embeddings_src=path)
        assert main(["prepare", "--config", str(cfg)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}:1: dimension must be at least 1" in err
        assert "Traceback" not in err

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
        assert stats["dict_oov_term_count"] == 28

    def test_dict_oov_count_is_what_oov_only_keeps(self, toy, tmp_path):
        cfg, out = prepare_run(toy, tmp_path)
        assert main(["augment", "--config", str(cfg), "--mode", "dict"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        in_vocabulary = manifest["rejections_per_set"]["dictionary"]["in_vocabulary"]
        assert main(["stats", "--config", str(cfg)]) == EXIT_OK
        stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
        assert stats["dict_oov_term_count"] == stats["dict_term_count"] - in_vocabulary == 28

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
        for name in ("aligner.bin", "lm.src.bin", "lm.tgt.bin", "embeddings.src.bin"):
            assert (cache / name).is_file()
        fingerprints = json.loads((cache / "fingerprints.json").read_text())
        assert set(fingerprints) == {"aligner", "lm_src", "lm_tgt", "embeddings_src"}
        for spec in fingerprints.values():
            assert all(len(h) == 64 for h in spec["inputs"].values())

    # The toy's cache bytes as written when the text parse called float() per
    # component and the table was rounded one value at a time; the array
    # parse and rounding must not move a byte.
    TOY_CACHE_SHA256 = {
        "aligner.bin": "b282acb1cb7583a650630a9b3a5bfe86131f046a2a07d2b2d8f1a0c0a150950d",
        "embeddings.src.bin": "3ff4f4f5825b343bdac890cb6f8799a281dfa20acd404865d737ffbbbd3ce484",
        "lm.src.bin": "c4ff9857eaa7c59eba042bc263b2f491b96db5882efe4b77dcf53df32eea49e8",
        "lm.tgt.bin": "6df35f29bb3fb95870dc53c9e023812388efecca3a931f6ee0e40b1f04dccf15",
    }

    def test_toy_cache_bytes_are_pinned(self, toy, tmp_path):
        _, out = prepare_run(toy, tmp_path)
        digests = {name: hashlib.sha256((out / "cache" / name).read_bytes()).hexdigest()
                   for name in self.TOY_CACHE_SHA256}
        assert digests == self.TOY_CACHE_SHA256

    def test_clean_vectors_never_parse_row_by_row(self, toy, tmp_path, monkeypatch):
        def refuse(self, block):
            raise AssertionError("a clean block was parsed row by row")

        monkeypatch.setattr(_TextRows, "_parse_rows", refuse)
        _, out = prepare_run(toy, tmp_path)
        assert (out / "cache" / "embeddings.src.bin").is_file()

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
            "aligner.bin", "embeddings.src.bin", "fingerprints.json",
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

    def test_stale_after_input_change(self, toy, tmp_path, capsys):
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
            assert f"input {toy.src_corpus} changed" in capsys.readouterr().err
        finally:
            toy.src_corpus.write_text(original, encoding="utf-8")

    def test_lm_gates_never_score_one_trigram_at_a_time(self, toy, tmp_path, monkeypatch):
        # augment and verify score the LM gates in batches over the cached
        # arrays; the scalar path would build the model's dicts.
        cfg, out = prepare_run(toy, tmp_path)

        def refuse(self, *args):
            raise AssertionError("the scalar trigram_prob was called")

        monkeypatch.setattr(TrigramModel, "trigram_prob", refuse)
        assert main(["augment", "--config", str(cfg), "--mode", "both"]) == EXIT_OK
        assert main(["verify", "--run-dir", str(out)]) == EXIT_OK
        records = [json.loads(line) for line in (out / "provenance.jsonl").open()]
        assert any(r["accepted"] for r in records)
        assert any(r["reason"] in ("lm_src", "lm_tgt") for r in records)

    def test_both_modes_align_and_index_once(self, toy, tmp_path, monkeypatch):
        cfg, out = prepare_run(toy, tmp_path)
        aligned, built = [], []
        viterbi_align, build = pipeline.viterbi_align, WordIndex.build

        def counting_align(pairs, table):
            aligned.extend(source.id for source, _ in pairs)
            return viterbi_align(pairs, table)

        def counting_build(cls, *args):
            built.append(args[-1])
            return build(*args)

        monkeypatch.setattr(pipeline, "viterbi_align", counting_align)
        monkeypatch.setattr(WordIndex, "build", classmethod(counting_build))
        assert main(
            ["augment", "--config", str(cfg), "--mode", "both", "--ablation", "wordSim_pos_morph"]
        ) == EXIT_OK
        # Each pair is aligned when first read, in batches, and no pair twice.
        assert aligned and len(aligned) == len(set(aligned))
        assert built == ["pos_morph"]

    def test_only_the_pairs_read_are_aligned(self, toy, tmp_path, monkeypatch):
        # augment aligns the sentences that reach the target-span gate and
        # the first host of each rare word; verify, which replays augment,
        # aligns exactly the pairs augment aligned.
        cfg, out = prepare_run(toy, tmp_path)
        config = resolve_config(parse_config_file(cfg))
        _, rare_words, _ = _load_run(config, out / "cache", "rare")
        hosts = {min(rare.host_sentence_ids) for rare in rare_words}
        corpus_size = len(load_parallel_corpus(toy.src_corpus, toy.tgt_corpus))
        aligned = []
        viterbi_align = pipeline.viterbi_align

        def counting_align(pairs, table):
            aligned.extend(source.id for source, _ in pairs)
            return viterbi_align(pairs, table)

        monkeypatch.setattr(pipeline, "viterbi_align", counting_align)
        assert main(
            ["augment", "--config", str(cfg), "--mode", "both", "--ablation", "wordSim"]
        ) == EXIT_OK
        records = [json.loads(line) for line in (out / "provenance.jsonl").open(encoding="utf-8")]
        gated = {r["base_sentence_id"] for r in records
                 if r["target_span"] is not None or r["reason"] in ("unaligned", "span_too_long")}
        assert 0 < len(aligned) == len(set(aligned)) <= len(gated | hosts)
        assert len(aligned) < corpus_size

        augmented = list(aligned)
        aligned.clear()
        assert main(["verify", "--run-dir", str(out)]) == EXIT_OK
        assert aligned == augmented

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
        assert "alpha_tgt" not in resolved
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

    def test_lm_score_underflow_exit_3(self, toy, tmp_path, capsys):
        # A discount this small underflows the back-off mass: an original
        # window scores 0 and no ratio can be taken.
        cfg, out = prepare_run(toy, tmp_path)
        assert main(["augment", "--config", str(cfg), "--mode", "both"]) == EXIT_OK
        tiny = toy.write_config(tmp_path / "tiny.cfg", out, lm_discount="1e-320")
        assert main(["prepare", "--config", str(tiny)]) == EXIT_OK
        # The run's manifest still names the LMs it used, which are gone.
        assert main(["verify", "--run-dir", str(out)]) == EXIT_STALE_CACHE
        # Record the new cache in it, as an augment that got that far would.
        path = out / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["resolved_config"]["lm_discount"] = 1e-320
        manifest["fingerprints"] = json.loads((out / "cache" / "fingerprints.json").read_text())
        path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        for argv in (
            ["augment", "--config", str(tiny), "--mode", "both"],
            ["verify", "--run-dir", str(out)],
        ):
            assert main(argv) == EXIT_NUMERIC
            err = capsys.readouterr().err
            assert "numeric error: the LM score of an original window underflowed" in err
            assert "Traceback" not in err

    def test_lm_underflow_counts_only_where_the_walk_reaches(self, toy, tmp_path, monkeypatch,
                                                             capsys):
        # A round scores the source windows of candidates past an item's
        # cut, but only an original window that some item's walk reaches,
        # at or before its cut, stops the run.
        cfg, out = prepare_run(toy, tmp_path, max_per_item="1")
        argv = ["augment", "--config", str(cfg), "--mode", "both"]
        score = pipeline.stream_scores
        sides, scored, zeroed = [], set(), set()

        def scorer(model, stream, windows, insert_ids, insert_lengths):
            # A round scores its source windows first.
            sides.append(model.tokens)
            source = model.tokens == sides[0]
            originals = windows[insert_lengths == 0, :2].tolist()
            scores = score(model, stream, windows, insert_ids, insert_lengths)
            if source:
                scored.update(map(tuple, originals))
                hit = [tuple(w) in zeroed for w in windows[:, :2].tolist()]
                scores[np.array(hit, dtype=bool) & (insert_lengths == 0)] = 0.0
            return scores

        monkeypatch.setattr(pipeline, "stream_scores", scorer)
        assert main(argv) == EXIT_OK
        provenance = (out / "provenance.jsonl").read_bytes()
        reached = {(r["base_sentence_id"], r["source_span"][0])
                   for r in map(json.loads, provenance.decode("utf-8").splitlines())
                   if r["lm_ratio_src"] is not None}
        past_cut = sorted(scored - reached)
        assert reached and past_cut

        zeroed.add(past_cut[0])
        assert main(argv) == EXIT_OK
        assert (out / "provenance.jsonl").read_bytes() == provenance

        zeroed.add(min(reached))
        capsys.readouterr()
        assert main(argv) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric error: the LM score of an original window underflowed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dictionary", ["", "missing.tsv"])
    def test_bad_dictionary_exits_before_rare_pass(self, toy, tmp_path, monkeypatch, dictionary):
        from corpusaug import cli

        cfg, out = prepare_run(toy, tmp_path)
        calls = []
        monkeypatch.setattr(cli, "augment_rare_words", lambda *args: calls.append(args))
        argv = ["augment", "--config", str(cfg), "--mode", "both"]
        path = str(tmp_path / dictionary) if dictionary else ""
        assert main(argv + ["--set", f"dictionary={path}"]) == EXIT_INPUT
        assert calls == []

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

    def test_tampered_provenance_exit_5(self, toy, tmp_path, capsys):
        out = self.run_and_verify(toy, tmp_path)
        path = out / "provenance.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        assert record["accepted"]
        record["lm_ratio_src"] = 0.01
        lines[0] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out)]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert "violations by field: lm_ratio_src=1\n" in captured.err
        assert "1 violation(s) across" in captured.out

    @pytest.mark.parametrize("field", ["word_sim", "lm_ratio_src", "lm_ratio_tgt"])
    def test_nan_score_exit_5(self, toy, tmp_path, capsys, field):
        out = self.run_and_verify(toy, tmp_path)
        path = out / "provenance.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        assert record["accepted"]
        record[field] = float("nan")
        lines[0] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out)]) == EXIT_VERIFY
        assert f"violations by field: {field}=1\n" in capsys.readouterr().err

    def test_provenance_line_of_key_value_pairs_exit_2(self, toy, tmp_path, capsys):
        out = self.run_and_verify(toy, tmp_path)
        path = out / "provenance.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = json.dumps(sorted(json.loads(lines[0]).items()))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        _one_error_line(err, f"{path}:1")
        assert "not a JSON object" in err

    def test_empty_provenance_exit_5(self, toy, tmp_path, capsys):
        out = self.run_and_verify(toy, tmp_path)
        (out / "provenance.jsonl").write_text("", encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out)]) == EXIT_VERIFY
        captured = capsys.readouterr()
        assert "record 0: record: missing: the run accepted " in captured.err
        assert "violation(s) across 0 accepted record(s)" in captured.out

    def test_manifest_with_removed_embeddings_tgt_key_verifies(self, toy, tmp_path, capsys):
        out = self.run_and_verify(toy, tmp_path)
        path = out / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["resolved_config"]["embeddings_tgt"] = "embeddings.tgt.vec"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["verify", "--run-dir", str(out)]) == EXIT_OK
        assert "0 violations" in capsys.readouterr().out

    def test_manifest_with_removed_alpha_tgt_key_verifies(self, toy, tmp_path, capsys):
        out = self.run_and_verify(toy, tmp_path)
        path = out / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["resolved_config"]["alpha_tgt"] = 0.15
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["verify", "--run-dir", str(out)]) == EXIT_OK
        assert "0 violations" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [
        ("alpha_src", float("nan")), ("lm_threshold", float("nan")), ("lm_threshold", float("inf")),
    ])
    def test_manifest_with_non_finite_gate_number_exit_2(self, toy, tmp_path, capsys, key, value):
        out = self.run_and_verify(toy, tmp_path)
        path = out / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["resolved_config"][key] = value
        path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        _one_error_line(err, path)
        assert key in err

    def test_non_utf8_manifest_exit_2_names_path(self, toy, tmp_path, capsys):
        out = self.run_and_verify(toy, tmp_path)
        path = out / "manifest.json"
        path.write_bytes(b"\xff" + path.read_bytes())
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        _one_error_line(err, path)
        assert "not UTF-8" in err

    def test_provenance_directory_exit_2_names_path(self, toy, tmp_path, capsys):
        out = self.run_and_verify(toy, tmp_path)
        path = out / "provenance.jsonl"
        path.unlink()
        path.mkdir()
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out)]) == EXIT_INPUT
        _one_error_line(capsys.readouterr().err, path)

    def test_missing_run_dir_exit_2(self, tmp_path):
        assert main(["verify", "--run-dir", str(tmp_path / "nope")]) == EXIT_INPUT

    def test_in_process_run_writes_only_to_sys_stdout(self, toy, tmp_path, capfd):
        # A caller that runs the commands in its own process under
        # redirect_stdout reads their output from its buffer: nothing may
        # reach file descriptor 1, and no thread may outlive the commands.
        threads = threading.enumerate()
        out = tmp_path / "run"
        cfg = toy.write_config(tmp_path / "run.cfg", out)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
            assert main(["augment", "--config", str(cfg), "--mode", "both"]) == EXIT_OK
            assert main(["verify", "--run-dir", str(out)]) == EXIT_OK
        assert threading.enumerate() == threads
        assert capfd.readouterr().out == ""
        assert stdout.getvalue().splitlines()[-1].startswith("0 violations across ")


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    return data


@pytest.fixture(scope="module")
def prepared(toy, tmp_path_factory):
    """One prepared run whose cache the corrupt-cache cases copy."""
    return prepare_run(toy, tmp_path_factory.mktemp("prepared"))


# (cache file, magic, array count, case) for every damaged-table case.
MALFORMED_TABLES = [
    pytest.param("aligner.bin", ALIGNER_MAGIC, 5, damage, id=f"aligner-{name}")
    for name, damage, _ in ALIGNER_CASES
] + [
    pytest.param("embeddings.src.bin", EMBEDDINGS_MAGIC, 3, damage, id=f"embeddings-{name}")
    for name, damage, _ in EMBEDDING_CASES
]


def _one_error_line(err, path):
    """The single stderr line naming ``path``; no traceback anywhere."""
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if str(path) in line]
    assert len(lines) == 1 and lines[0].startswith("error: "), err


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

    def augmented(self, prepared, tmp_path):
        """A copy of the prepared run, augmented in rare mode."""
        cfg, source = prepared
        out = tmp_path / "run"
        shutil.copytree(source, out)
        argv = ["augment", "--config", str(cfg), "--out-dir", str(out), "--mode", "rare"]
        assert main(argv) == EXIT_OK
        return out

    @pytest.mark.parametrize("damage", ["truncated"])
    def test_bad_aligner_verify_exit_2(self, prepared, tmp_path, capsys, damage):
        out = self.augmented(prepared, tmp_path)
        path = out / "cache" / "aligner.bin"
        _truncate(path)
        assert main(["verify", "--run-dir", str(out)]) == EXIT_INPUT
        _one_error_line(capsys.readouterr().err, path)

    def _assert_stale(self, err, artifact):
        assert f"cache artifact {artifact!r}" in err and "rerun prepare" in err
        assert "Traceback" not in err

    def test_missing_aligner_verify_exit_4(self, prepared, tmp_path, capsys):
        out = self.augmented(prepared, tmp_path)
        (out / "cache" / "aligner.bin").unlink()
        assert main(["verify", "--run-dir", str(out)]) == EXIT_STALE_CACHE
        self._assert_stale(capsys.readouterr().err, "aligner")

    @pytest.mark.parametrize(
        "artifact, name, magic, count, damage", ALTERED_CASES, ids=[c[0] for c in ALTERED_CASES]
    )
    def test_altered_artifact_verify_exit_4(
        self, prepared, tmp_path, capsys, artifact, name, magic, count, damage
    ):
        out = self.augmented(prepared, tmp_path)
        path = out / "cache" / name
        path.write_bytes(damage(magic, read_cache(path, magic, count)))
        assert main(["verify", "--run-dir", str(out)]) == EXIT_STALE_CACHE
        self._assert_stale(capsys.readouterr().err, artifact)

    @pytest.mark.parametrize("name", ["aligner.bin", "lm.src.bin"])
    @pytest.mark.parametrize("command", ["augment", "verify"])
    def test_damaged_npy_header_exit_2(self, prepared, tmp_path, capsys, name, command):
        # A "[" after the "{" that opens the first array header makes numpy's
        # header parse raise tokenize.TokenError, outside its ValueError.
        cfg, source = prepared
        out = tmp_path / "run"
        shutil.copytree(source, out)
        augment = ["augment", "--config", str(cfg), "--out-dir", str(out), "--mode", "rare"]
        if command == "verify":
            assert main(augment) == EXIT_OK
        path = out / "cache" / name
        data = path.read_bytes()
        at = data.index(b"{") + 1
        path.write_bytes(data[:at] + b"[" + data[at:])
        argv = augment if command == "augment" else ["verify", "--run-dir", str(out)]
        assert main(argv) == EXIT_INPUT
        _one_error_line(capsys.readouterr().err, path)

    @pytest.mark.parametrize("mode", ["dict", "both"])
    def test_missing_dictionary_verify_exit_2(self, toy, tmp_path, capsys, mode):
        dictionary = tmp_path / "dictionary.tsv"
        shutil.copyfile(toy.dictionary, dictionary)
        cfg, out = prepare_run(toy, tmp_path, dictionary=dictionary)
        assert main(["augment", "--config", str(cfg), "--mode", mode]) == EXIT_OK
        dictionary.unlink()
        assert main(["verify", "--run-dir", str(out)]) == EXIT_INPUT
        _one_error_line(capsys.readouterr().err, dictionary)

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


    @pytest.mark.parametrize("name, magic, count, damage", MALFORMED_TABLES)
    def test_malformed_table_exit_2_names_path(
        self, prepared, tmp_path, capsys, name, magic, count, damage
    ):
        cfg, source = prepared
        out = tmp_path / "run"
        shutil.copytree(source, out)
        path = out / "cache" / name
        path.write_bytes(damage(magic, read_cache(path, magic, count)))
        argv = ["augment", "--config", str(cfg), "--out-dir", str(out), "--mode", "rare"]
        assert main(argv) == EXIT_INPUT
        _one_error_line(capsys.readouterr().err, path)

    def test_malformed_embeddings_verify_exit_2(self, prepared, tmp_path, capsys):
        cfg, source = prepared
        out = tmp_path / "run"
        shutil.copytree(source, out)
        argv = ["augment", "--config", str(cfg), "--out-dir", str(out), "--mode", "rare"]
        assert main(argv) == EXIT_OK
        path = out / "cache" / "embeddings.src.bin"
        _truncate(path)
        assert main(["verify", "--run-dir", str(out)]) == EXIT_INPUT
        _one_error_line(capsys.readouterr().err, path)

    @pytest.mark.parametrize(
        "artifact, name, magic, count, damage", ALTERED_CASES, ids=[c[0] for c in ALTERED_CASES]
    )
    def test_altered_artifact_augment_exit_4_prepare_rebuilds(
        self, toy, tmp_path, capsys, caplog, artifact, name, magic, count, damage
    ):
        cfg, out = prepare_run(toy, tmp_path)
        path = out / "cache" / name
        original = path.read_bytes()
        path.write_bytes(damage(magic, read_cache(path, magic, count)))
        assert main(["augment", "--config", str(cfg), "--mode", "both"]) == EXIT_STALE_CACHE
        err = capsys.readouterr().err
        assert f"cache artifact {artifact!r}" in err and "rerun prepare" in err
        assert "Traceback" not in err
        with caplog.at_level(logging.INFO, logger="corpusaug.cli"):
            assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        messages = [r.getMessage() for r in caplog.records]
        assert f"{artifact}: building" in messages
        assert sum("up to date" in m for m in messages) == 3
        assert path.read_bytes() == original
        assert main(["augment", "--config", str(cfg), "--mode", "both"]) == EXIT_OK

    @pytest.mark.parametrize("name, artifact", [
        ("aligner.bin", "aligner"), ("embeddings.src.bin", "embeddings_src"),
    ])
    def test_prepare_rebuilds_damaged_table(self, toy, tmp_path, caplog, name, artifact):
        cfg, out = prepare_run(toy, tmp_path)
        path = out / "cache" / name
        original = path.read_bytes()
        path.write_bytes(original + b"\0")
        with caplog.at_level(logging.INFO, logger="corpusaug.cli"):
            assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        messages = [r.getMessage() for r in caplog.records]
        assert f"{artifact}: building" in messages
        assert sum("up to date" in m for m in messages) == 3
        assert path.read_bytes() == original
        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_OK

    def test_text_cache_of_earlier_versions_is_replaced(self, toy, tmp_path, capsys, caplog):
        # The layout earlier versions wrote: the translation table as TSV rows
        # and the embeddings as text, under their own names and fingerprints.
        cfg, out = prepare_run(toy, tmp_path)
        cache = out / "cache"
        fp_path = cache / "fingerprints.json"
        stored = json.loads(fp_path.read_text())
        table = load_translation_table(cache / "aligner.bin")
        rows = sorted((e, f, p) for e, row in table.t.items() for f, p in row.items())
        (cache / "aligner.tsv").write_text(
            "#direction\ttgt_given_src\n" + "".join(f"{f}\t{e}\t{p:.12g}\n" for e, f, p in rows),
            encoding="utf-8",
        )
        export_vec(load_embeddings(cache / "embeddings.src.bin"), cache / "embeddings.src.vec")
        for artifact, old_name, new_name in (
            ("aligner", "aligner.tsv", "aligner.bin"),
            ("embeddings_src", "embeddings.src.vec", "embeddings.src.bin"),
        ):
            (cache / new_name).unlink()
            stored[artifact]["output"] = old_name
            stored[artifact]["output_sha256"] = hashlib.sha256((cache / old_name).read_bytes()).hexdigest()
        fp_path.write_text(json.dumps(stored, sort_keys=True, indent=2) + "\n", encoding="utf-8")

        assert main(["augment", "--config", str(cfg), "--mode", "rare"]) == EXIT_STALE_CACHE
        assert "rerun prepare" in capsys.readouterr().err
        with caplog.at_level(logging.INFO, logger="corpusaug.cli"):
            assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        messages = [r.getMessage() for r in caplog.records]
        assert {"aligner: building", "embeddings_src: building"} <= set(messages)
        assert sum("removing stale cache file" in m for m in messages) == 2
        assert sorted(p.name for p in cache.iterdir()) == [
            "aligner.bin", "embeddings.src.bin", "fingerprints.json", "lm.src.bin", "lm.tgt.bin",
        ]
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


def _child_env():
    """The environment with this package first on the import path."""
    package_root = str(Path(corpusaug.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


class TestChildProcess:
    """The commands as separate processes, read the way an outside caller reads them."""

    def test_prepare_augment_verify(self, toy, tmp_path):
        out = tmp_path / "run"
        cfg = toy.write_config(tmp_path / "run.cfg", out)
        env = _child_env()
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

    def test_cache_bytes_independent_of_hash_seed(self, toy, tmp_path):
        # The vocabularies pass through sets and dicts of strings, whose
        # order follows the per-process hash seed.
        digests = []
        for seed in ("1", "2"):
            out = tmp_path / f"run{seed}"
            cfg = toy.write_config(tmp_path / f"run{seed}.cfg", out)
            env = dict(_child_env(), PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "corpusaug.cli", "prepare", "--config", str(cfg)],
                env=env, capture_output=True, timeout=300,
            )
            assert proc.returncode == EXIT_OK, proc.stderr.decode("utf-8", "replace")
            digests.append({
                name: hashlib.sha256((out / "cache" / name).read_bytes()).hexdigest()
                for name in ("aligner.bin", "embeddings.src.bin")
            })
        assert digests[0] == digests[1]
