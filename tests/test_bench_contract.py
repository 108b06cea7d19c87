"""The benchmark's traced run still finds every layer it reports.

``bench/spans.py`` reports its per-layer metrics through wrappers on
module-level names of the package. A renamed or inlined name, or a call
whose arguments a counter hook no longer understands, drops those metrics
from the traced result. This runs prepare, augment and verify on the toy
fixture under the tracer and requires every wrapper to be installed and
every counter hook to succeed.
"""

from pathlib import Path

from corpusaug.cli import EXIT_OK, main

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
