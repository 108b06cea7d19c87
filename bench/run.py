"""End-to-end and per-layer benchmark of ``corpusaug prepare -> augment -> verify``.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload dict_both --seed 1 --seconds 36 --trace 0

The benchmark generates seeded inputs (``bench/gen.py``), then repeats
cycles of the real CLI, ``prepare`` on an empty cache, ``augment`` and
``verify``, each as a child process, until ``--seconds`` have passed (at
least two cycles, so every run checks that outputs repeat). Each command's
wall time is scaled to reference speed by probes of the host's speed taken
while it runs. With ``--trace 1`` it runs one untraced cycle for reference
and then traced in-process cycles (``bench/spans.py``) and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch files live
under ``.bench_work/`` and are removed; the full result and the spans of
the last traced run of each workload are kept under ``.bench_out/``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# Fixed BLAS thread count for this process and every child, set before numpy
# is imported anywhere; the alpha transform is the only BLAS user.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import compileall
import hashlib
import io
import json
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from gen import Sizes, generate  # noqa: E402

MIN_CYCLES = 2
STAGES = ("setup", "augment", "verify")
MIB = 1024.0 * 1024.0
DIGEST_FILES = ("corpus.src.txt", "corpus.tgt.txt", "provenance.jsonl")
REJECTION_REASONS = (
    "unaligned", "span_too_long", "no_candidate_word", "word_sim", "unannotated",
    "pos", "morph", "lm_src", "lm_tgt", "coverage", "in_vocabulary", "duplicate",
)


@dataclass(frozen=True)
class Workload:
    sizes: Sizes
    mode: str
    ablation: str
    workers: int
    settings: Dict[str, str] = field(default_factory=dict)


# Why each workload exists is in bench/README.md.
WORKLOADS: Dict[str, Workload] = {
    "rare_scan": Workload(
        Sizes(pairs=300, types=600, dim=64, clusters=100, extra_rows=1000,
              mono_lines=3000, dict_size=0, rare_items=100, mono_item_count=10),
        mode="rare", ablation="wordSim", workers=1,
        settings={"max_per_item": "100000"},
    ),
    "dict_both": Workload(
        Sizes(pairs=240, types=600, dim=64, clusters=100, extra_rows=1000,
              mono_lines=3000, dict_size=100, rare_items=30, mono_item_count=60),
        mode="both", ablation="pos_morph", workers=2,
        settings={"max_per_item": "100000"},
    ),
    "prepare_large": Workload(
        Sizes(pairs=600, types=1200, dim=64, clusters=100, extra_rows=6000,
              mono_lines=6000, dict_size=0, rare_items=100, mono_item_count=30),
        mode="rare", ablation="wordSim_sentSim_pos_morph", workers=1,
    ),
}


class Failures:
    """Operations attempted and failed in this run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            print(f"FAILED: {what}", file=sys.stderr)


@dataclass
class Cycle:
    """One prepare -> augment -> verify pass and what it produced."""

    seconds: Dict[str, float] = field(default_factory=dict)  # wall time
    speed: Dict[str, float] = field(default_factory=dict)  # mean host speed during the command
    rss_mib: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    candidates: int = 0
    funnel: Dict[str, float] = field(default_factory=dict)
    provenance_mib: float = 0.0
    cache_mib: float = 0.0


class Budget:
    """Stops a loop of cycles before the next one would overrun the seconds."""

    def __init__(self, start: float, seconds: float) -> None:
        self.start = self.last = start
        self.seconds = seconds
        self.laps: List[float] = []

    def lap(self) -> None:
        now = time.perf_counter()
        self.laps.append(now - self.last)
        self.last = now

    def fits(self) -> bool:
        if not self.laps:
            return True
        return self.last - self.start + statistics.median(self.laps) <= self.seconds


# -- host speed -------------------------------------------------------------------

# Seconds the probe takes at reference speed, about its median on the 2-vCPU
# VM the bounds were set on. Only the ratio to it matters.
PROBE_S = 0.003
PROBE_INTERVAL_S = 0.1
_PROBE_ROWS = np.random.default_rng(0).standard_normal((128, 64))


def probe_speed() -> float:
    """Host speed now, relative to reference speed: PROBE_S over a fixed loop's time.

    The loop mixes dict updates and small-vector numpy calls, the kind of
    work the CLI's hot paths do.
    """
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(12_000):
        counts[i & 1023] = counts.get(i & 511, 0) + i
    query = _PROBE_ROWS[0]
    for row in _PROBE_ROWS:
        float(np.dot(row, query) / (np.linalg.norm(row) * np.linalg.norm(query)))
    return PROBE_S / (time.perf_counter() - start)


def pin_to_one_cpu() -> int:
    """Run this process, and so every child, on one CPU; return its number.

    The probe then measures the CPU the command runs on. The vCPUs of a small
    VM can also share one host core, so a command whose threads hop between
    them runs at a speed that a probe on one of them does not see.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# -- helpers ------------------------------------------------------------------


def _write_config(path: Path, inputs: Dict[str, str], workload: Workload) -> None:
    lines = [f"{key} = {value}" for key, value in sorted(inputs.items())]
    lines.append(f"workers = {workload.workers}")
    lines += [f"{key} = {value}" for key, value in sorted(workload.settings.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _commands(config: Path, out_dir: Path, workload: Workload) -> List[Tuple[str, List[str]]]:
    """(stage, CLI arguments) of one cycle, in STAGES order."""
    common = ["--config", str(config), "--out-dir", str(out_dir)]
    return [
        ("setup", ["prepare"] + common),
        ("augment", ["augment"] + common + ["--mode", workload.mode, "--ablation", workload.ablation]),
        ("verify", ["verify", "--run-dir", str(out_dir)]),
    ]


def _run_child(argv: List[str], cwd: Path, env: Dict[str, str],
               log_path: Path) -> Tuple[int, float, float, float, str]:
    """Run one CLI command; return exit code, wall seconds, mean host speed, peak RSS MiB, stdout.

    While the child runs, this process wakes every PROBE_INTERVAL_S and runs
    the probe on the same CPU. The child runs at the lowest priority, so a
    probe is not shared with it; the probes take about 3% of the CPU from it.
    The mean of the probe speeds is the host's mean speed over the command.
    """
    speeds: List[float] = []
    with open(log_path, "wb") as out, open(log_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "corpusaug.cli"] + argv, cwd=cwd, env=env, stdout=out, stderr=err
        )
        try:
            os.setpriority(os.PRIO_PROCESS, proc.pid, 19)
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], PROBE_INTERVAL_S)[0]:
                    speeds.append(probe_speed())
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be
            # a running maximum over every child so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    speeds.append(probe_speed())
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, statistics.mean(speeds), usage.ru_maxrss / 1024.0,
            log_path.read_text(encoding="utf-8"))


def _violations(verify_stdout: str) -> Optional[int]:
    match = re.search(r"^(\d+) violations? across", verify_stdout, re.MULTILINE)
    return int(match.group(1)) if match else None


def _digest(out_dir: Path) -> str:
    # manifest.json is left out: it embeds absolute input paths.
    h = hashlib.sha256()
    for name in DIGEST_FILES:
        path = out_dir / name
        h.update(name.encode())
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _inspect_outputs(out_dir: Path, cycle: Cycle, failures: Failures) -> None:
    """Digest, size and funnel of one finished run; checks the tallies reconcile."""
    cycle.digest = _digest(out_dir)
    manifest_path = out_dir / "manifest.json"
    provenance_path = out_dir / "provenance.jsonl"
    if not (manifest_path.is_file() and provenance_path.is_file()):
        failures.check(False, "augment outputs missing")
        return
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    accepted = int(manifest["merge"]["synthetic_pairs"])
    tallies: Dict[str, int] = {}
    for per_set in manifest["rejections_per_set"].values():
        for reason, count in per_set.items():
            tallies[reason] = tallies.get(reason, 0) + int(count)
    reached_word_sim = 0
    lines = 0
    with open(provenance_path, encoding="utf-8") as fh:
        for line in fh:
            lines += 1
            if '"word_sim": null' not in line:
                reached_word_sim += 1
    cycle.candidates = accepted + sum(tallies.values())
    failures.check(
        cycle.candidates == lines,
        f"accepted {accepted} + rejection tallies {sum(tallies.values())} != {lines} provenance lines",
    )
    cycle.provenance_mib = provenance_path.stat().st_size / MIB
    cycle.cache_mib = _tree_bytes(out_dir / "cache") / MIB
    funnel: Dict[str, float] = {
        "pipeline.candidates": cycle.candidates,
        "pipeline.accepted": accepted,
        "pipeline.accept_ratio": accepted / cycle.candidates if cycle.candidates else 0.0,
        "pipeline.word_sim_pass_ratio": (
            (reached_word_sim - tallies.get("word_sim", 0)) / reached_word_sim
            if reached_word_sim else 0.0
        ),
        "pipeline.provenance_records": lines,
    }
    for reason in REJECTION_REASONS:
        funnel[f"pipeline.rejected.{reason}"] = tallies.get(reason, 0)
    cycle.funnel = funnel


def _total(cycle: Cycle) -> float:
    """Wall seconds of one prepare, one augment and one verify of a cycle."""
    return sum(cycle.seconds[stage] for stage in STAGES)


def _check_digest(cycle: Cycle, reference: Cycle, failures: Failures, what: str) -> None:
    failures.check(cycle.digest == reference.digest, f"{what}: output digest differs from the first run of this seed")


# -- untraced cycles ------------------------------------------------------------


def untraced_cycle(out_dir: Path, commands: List[Tuple[str, List[str]]], root: Path,
                   env: Dict[str, str], failures: Failures) -> Cycle:
    """One cycle of CLI child processes, timed one by one."""
    cycle = Cycle()
    for stage, argv in commands:
        log_path = out_dir.parent / f"{out_dir.name}.{stage}.out"
        code, wall, speed, rss, stdout = _run_child(argv, root, env, log_path)
        cycle.seconds[stage] = wall
        cycle.speed[stage] = speed
        cycle.rss_mib[stage] = rss
        ok = code == 0
        if stage == "verify":
            ok = ok and _violations(stdout) == 0
        failures.check(ok, f"{out_dir.name}: {stage} exited {code}; see {log_path.name}")
    _inspect_outputs(out_dir, cycle, failures)
    shutil.rmtree(out_dir, ignore_errors=True)
    return cycle


def measure_end_to_end(first: Cycle, budget: Budget, run_cycle, failures: Failures,
                       info: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    """Untraced cycles until the budget is spent; medians of the timed stages."""
    cycles = [first]
    while len(cycles) < MIN_CYCLES or budget.fits():
        cycles.append(run_cycle(len(cycles)))
        budget.lap()
        _check_digest(cycles[-1], first, failures, f"cycle {len(cycles) - 1}")
    info["cycles"] = [{"seconds": c.seconds, "speed": c.speed, "rss_mib": c.rss_mib} for c in cycles]
    # Wall time x mean speed is the time the command would take at reference
    # speed. It takes out the host's changes of speed, which last from seconds
    # to minutes and so move whole runs, where a median over one run cannot.
    med = {s: statistics.median(c.seconds[s] * c.speed[s] for c in cycles) for s in STAGES}
    rss = {s: statistics.median(c.rss_mib[s] for c in cycles) for s in STAGES}
    return {
        "setup_s": (med["setup"], "s"),
        "augment_s": (med["augment"], "s"),
        "verify_s": (med["verify"], "s"),
        "total_s": (med["setup"] + med["augment"] + med["verify"], "s"),
        "candidates_per_s": (first.candidates / med["augment"], "1/s"),
        "setup_rss_mib": (rss["setup"], "MiB"),
        "augment_rss_mib": (rss["augment"], "MiB"),
        "verify_rss_mib": (rss["verify"], "MiB"),
        "provenance_mib": (first.provenance_mib, "MiB"),
        "cache_mib": (first.cache_mib, "MiB"),
        "success_ratio": ((failures.attempted - failures.failed) / failures.attempted, "ratio"),
    }


# -- traced cycle ---------------------------------------------------------------

# Per-layer metric -> (unit, kind, span name, counter). ``self`` is the summed
# self time of the named spans, ``calls`` their call count, ``counter`` a
# count taken by the wrapper of the named span.
PER_LAYER: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("embeddings.best_word_calls", "count", "calls", "embeddings.best_word", ""),
    ("embeddings.best_word_s", "s", "self", "embeddings.best_word", ""),
    ("embeddings.sent_sim_calls", "count", "calls", "embeddings.sent_sim", ""),
    ("embeddings.sent_sim_s", "s", "self", "embeddings.sent_sim", ""),
    ("embeddings.load_s", "s", "self", "embeddings.load", ""),
    ("embeddings.alpha_s", "s", "self", "embeddings.alpha", ""),
    ("embeddings.save_s", "s", "self", "embeddings.save", ""),
    ("embeddings.rows", "count", "counter", "embeddings.load", "embeddings.rows"),
    ("aligner.train_s", "s", "self", "aligner.train", ""),
    ("aligner.t_entries", "count", "counter", "aligner.train", "aligner.t_entries"),
    ("aligner.save_s", "s", "self", "aligner.save", ""),
    ("aligner.load_s", "s", "self", "aligner.load", ""),
    ("aligner.viterbi_calls", "count", "calls", "aligner.viterbi", ""),
    ("aligner.viterbi_s", "s", "self", "aligner.viterbi", ""),
    ("aligner.translate_calls", "count", "calls", "aligner.translate", ""),
    ("aligner.translate_s", "s", "self", "aligner.translate", ""),
    ("lm.train_s", "s", "self", "lm.train", ""),
    ("lm.trigrams", "count", "counter", "lm.train", "lm.trigrams"),
    ("lm.save_s", "s", "self", "lm.save", ""),
    ("lm.load_s", "s", "self", "lm.load", ""),
    ("lm.ratio_calls", "count", "calls", "lm.ratio", ""),
    ("lm.ratio_s", "s", "self", "lm.ratio", ""),
    ("agreement.load_s", "s", "self", "agreement.load", ""),
    ("agreement.syntactic_calls", "count", "calls", "agreement.syntactic", ""),
    ("agreement.syntactic_s", "s", "self", "agreement.syntactic", ""),
    ("parallel.map_calls", "count", "calls", "parallel.map", ""),
    ("parallel.map_s", "s", "self", "parallel.map", ""),
    ("parallel.workers", "count", "counter", "parallel.map", "parallel.workers"),
    ("corpus_io.load_s", "s", "self", "corpus_io.load", ""),
    ("corpus_io.pairs", "count", "counter", "corpus_io.load", "corpus_io.pairs"),
    ("corpus_io.tokens", "count", "counter", "corpus_io.load", "corpus_io.tokens"),
    ("corpus_io.rare_words_s", "s", "self", "corpus_io.rare_words", ""),
    ("corpus_io.rare_words", "count", "counter", "corpus_io.rare_words", "corpus_io.rare_words"),
    ("pipeline.items", "count", "counter", "pipeline.augment", "pipeline.items"),
    ("pipeline.augment_self_s", "s", "self", "pipeline.augment", ""),
    ("pipeline.merge_s", "s", "self", "pipeline.merge", ""),
    ("pipeline.provenance_write_s", "s", "self", "pipeline.provenance_write", ""),
    ("verify.read_s", "s", "self", "verify.read", ""),
    ("verify.check_s", "s", "self", "verify.check", ""),
    ("verify.accepted_checked", "count", "counter", "verify.check", "verify.accepted_checked"),
    ("verify.violations", "count", "counter", "verify.check", "verify.violations"),
)
FUNNEL_UNITS = {"pipeline.accept_ratio": "ratio", "pipeline.word_sim_pass_ratio": "ratio"}


def traced_cycle(out_dir: Path, commands: List[Tuple[str, List[str]]],
                 failures: Failures) -> Tuple[Cycle, Dict[str, float], object]:
    """One in-process cycle under the tracer; returns the cycle, metrics and tracer."""
    from spans import Tracer

    from corpusaug import cli

    tracer = Tracer()
    cycle = Cycle()
    with tracer.installed():
        for stage, argv in commands:
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                start = time.perf_counter()
                code = tracer.call(f"cli.{stage}", cli.main, argv)
                cycle.seconds[stage] = time.perf_counter() - start
            ok = code == 0
            if stage == "verify":
                ok = ok and _violations(stdout.getvalue()) == 0
            failures.check(ok, f"traced {out_dir.name}: {stage} returned {code}")
    _inspect_outputs(out_dir, cycle, failures)
    shutil.rmtree(out_dir, ignore_errors=True)

    self_s, calls = tracer.self_times()
    metrics: Dict[str, float] = {}
    for name, _unit, kind, span, counter in PER_LAYER:
        if span in tracer.absent:
            continue
        if kind == "self":
            metrics[name] = self_s.get(span, 0.0)
        elif kind == "calls":
            metrics[name] = calls.get(span, 0)
        elif span not in tracer.uncounted:
            metrics[name] = tracer.counters.get(counter, 0)
    metrics.update(cycle.funnel)
    return cycle, metrics, tracer


def measure_layers(first: Cycle, budget: Budget, run_traced, failures: Failures,
                   info: Dict[str, object], spans_path: Path) -> Dict[str, Tuple[float, str]]:
    """Traced cycles until the budget is spent; medians of the per-layer metrics."""
    runs: List[Dict[str, float]] = []
    totals: List[float] = []
    while not runs or budget.fits():
        cycle, layer, tracer = run_traced(len(runs) + 1)
        budget.lap()
        _check_digest(cycle, first, failures, "traced cycle")
        runs.append(layer)
        totals.append(_total(cycle))
    tracer.write_spans(spans_path)
    info["self_s"], info["calls"] = tracer.self_times()

    units = {name: unit for name, unit, *_ in PER_LAYER}
    units.update({name: FUNNEL_UNITS.get(name, "count") for name in first.funnel})
    absent = sorted(name for name in units if name not in runs[0])
    if absent:
        info["absent"] = absent
        print(f"absent metrics (wrapped function missing): {', '.join(absent)}", file=sys.stderr)
    metrics = {name: (statistics.median(r[name] for r in runs), units[name])
               for name in units if name in runs[0]}
    metrics["trace.overhead_s"] = (statistics.median(totals) - _total(first), "s")
    return metrics


# -- main -------------------------------------------------------------------------


def _environment() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn SIGTERM into SystemExit so running children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    src = root / "src"
    if not (src / "corpusaug" / "cli.py").is_file():
        print(f"error: no corpusaug sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = root / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(exist_ok=True)
    try:
        # Build step: byte-compile once so no timed command pays for it.
        compileall.compile_dir(str(src / "corpusaug"), quiet=1)
        generated = generate(work / "inputs", workload.sizes, args.seed)
        config = work / "run.cfg"
        _write_config(config, generated["paths"], workload)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        # Each child hashes strings with its own random seed, so the digest
        # check also catches output that depends on set or dict hash order.
        env.pop("PYTHONHASHSEED", None)
        failures = Failures()
        environment = _environment()
        environment["pinned_cpu"] = pin_to_one_cpu()
        info: Dict[str, object] = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment, "inputs": generated["sizes"],
        }

        def run_cycle(index: int) -> Cycle:
            out_dir = work / f"run{index}"
            return untraced_cycle(out_dir, _commands(config, out_dir, workload), root, env, failures)

        def run_traced(index: int):
            out_dir = work / f"traced{index}"
            return traced_cycle(out_dir, _commands(config, out_dir, workload), failures)

        start = time.perf_counter()
        first = run_cycle(0)
        budget = Budget(start, args.seconds)
        budget.lap()
        if args.trace:
            sys.path.insert(0, str(src))
            # Traced cycles are longer: budget them on their own laps.
            budget = Budget(budget.last, args.seconds - (budget.last - start))
            metrics = measure_layers(first, budget, run_traced, failures, info,
                                     results_dir / f"spans-{args.workload}.tsv")
        else:
            metrics = measure_end_to_end(first, budget, run_cycle, failures, info)
        info["failures"] = failures.notes
        result = {
            "correct": failures.failed == 0,
            "attempted": failures.attempted,
            "failed": failures.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        info["result"] = result
        (results_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(info, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(json.dumps({"inputs": generated["sizes"], "environment": info["environment"]}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
