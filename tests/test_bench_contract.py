"""The benchmark's traced run still finds every layer it reports.

``bench/spans.py`` reports its per-layer metrics through wrappers on
module-level names of the package. A renamed or inlined name, or a call
whose arguments a counter hook no longer understands, drops those metrics
from the traced result. This runs prepare, augment and verify on the toy
fixture under the tracer and requires every wrapper to be installed and
every counter hook to succeed.
"""

import importlib
from pathlib import Path

from corpusaug.aligner import ALIGNER_MAGIC
from corpusaug.cli import EXIT_OK, main

from cachecases import read_cache

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_layer_reports(toy, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from spans import Tracer

    out = tmp_path / "run"
    cfg = toy.write_config(tmp_path / "run.cfg", out)
    tracer = Tracer()
    with tracer.installed():
        assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        assert main(
            ["augment", "--config", str(cfg), "--mode", "both", "--ablation", "wordSim_pos_morph"]
        ) == EXIT_OK
        assert main(["verify", "--run-dir", str(out)]) == EXIT_OK
    assert tracer.absent == set()
    assert tracer.uncounted == set()
    assert tracer.counters["pipeline.items"] > 0
    # The word search, the alignment and the LM gates still run through the
    # hooked names, so their per-layer rows are not left at 0.
    names = {span[0] for span in tracer.spans}
    assert {"embeddings.best_word", "aligner.viterbi", "lm.ratio"} <= names
    # The entry count read through the table's ``t`` view is the saved one.
    probs = read_cache(out / "cache" / "aligner.bin", ALIGNER_MAGIC, 5)[4]
    assert tracer.counters["aligner.t_entries"] == probs.size > 0


# Wrapped names that the package no longer has, each with the reason it is
# still listed. The aligner's EM stopped calling ``ordered_map``; the entry
# goes with the next change to the benchmark.
STALE_WRAPS = {("aligner", "ordered_map")}


def test_every_wrapped_name_is_a_callable(monkeypatch):
    # A span fed by two names stays present when one of them is renamed, and
    # the toy run above uses no sentence similarity, so check each name.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from spans import WRAPS

    missing = {
        (module, attr)
        for module, attr, _, _ in WRAPS
        if not callable(getattr(importlib.import_module(f"corpusaug.{module}"), attr, None))
    }
    assert missing == STALE_WRAPS
