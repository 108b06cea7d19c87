"""In-memory span recorder and the layer wrappers of the traced run.

The traced run drives ``corpusaug.cli.main`` in-process, so the layers are
called in exactly the order the CLI calls them. Timing comes from wrappers
installed on the names the CLI, ``pipeline``, ``aligner`` and ``agreement``
look up at call time, i.e. on every call one package module makes into
another module's public function. A span records (name, start, end,
parent, thread); each thread keeps its own parent stack, and work handed
to ``ordered_map`` runs in a task span whose parent is the map span, so
spans nest correctly on a thread pool.

A wrapped name that no longer exists (renamed or inlined) is skipped and
the metrics fed only by it are reported as absent. Wrappers are always
restored when :meth:`Tracer.installed` exits.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

_NAME, _START, _END, _PARENT, _THREAD, _TASK = range(6)


def _corpus_counts(tracer: "Tracer", args, kwargs, corpus) -> None:
    tracer.maximum("corpus_io.pairs", len(corpus))
    tokens = sum(len(s.tokens) for s in corpus.source) + sum(len(s.tokens) for s in corpus.target)
    tracer.maximum("corpus_io.tokens", tokens)


def _items(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.add("pipeline.items", len(args[1]))


def _verify_counts(tracer: "Tracer", args, kwargs, violations) -> None:
    tracer.add("verify.accepted_checked", sum(1 for r in args[0] if r.accepted))
    tracer.add("verify.violations", len(violations))


def _map_workers(tracer: "Tracer", args, kwargs, result) -> None:
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    tracer.maximum("parallel.workers", workers)


# (module, attribute looked up at call time, span name, counter hook).
# ``cli`` imports most functions by name, so those are wrapped in its own
# namespace; ``pipeline`` and ``verify`` reach ``agreement`` through the
# module object, so those are wrapped on the module.
WRAPS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "load_parallel_corpus", "corpus_io.load", _corpus_counts),
    ("cli", "load_monolingual", "corpus_io.load", None),
    ("cli", "load_dictionary", "corpus_io.load", None),
    ("cli", "build_vocabulary", "corpus_io.rare_words", None),
    ("cli", "extract_rare_words", "corpus_io.rare_words",
     lambda t, a, k, r: t.add("corpus_io.rare_words", len(r))),
    ("cli", "write_parallel_corpus", "corpus_io.write", None),
    ("cli", "train_ibm1", "aligner.train",
     lambda t, a, k, r: t.add("aligner.t_entries", sum(len(row) for row in r.t.values()))),
    ("cli", "save_translation_table", "aligner.save", None),
    ("cli", "load_translation_table", "aligner.load", None),
    ("cli", "train_lm", "lm.train", lambda t, a, k, r: t.add("lm.trigrams", len(r.trigrams))),
    ("cli", "save_lm", "lm.save", None),
    ("cli", "load_lm", "lm.load", None),
    ("cli", "load_embeddings", "embeddings.load",
     lambda t, a, k, r: t.maximum("embeddings.rows", len(r))),
    ("cli", "postprocess_alpha", "embeddings.alpha", None),
    ("cli", "save_embeddings", "embeddings.save", None),
    ("cli", "augment_rare_words", "pipeline.augment", _items),
    ("cli", "augment_dictionary", "pipeline.augment", _items),
    ("cli", "merge_and_dedup", "pipeline.merge", None),
    ("cli", "write_provenance", "pipeline.provenance_write", None),
    ("cli", "read_provenance", "verify.read", None),
    ("cli", "verify_records", "verify.check", _verify_counts),
    ("agreement", "load_annotations", "agreement.load", None),
    ("agreement", "syntactic_ok", "agreement.syntactic", None),
    ("pipeline", "best_word_in_sentence", "embeddings.best_word", None),
    ("pipeline", "sentence_embedding", "embeddings.sent_sim", None),
    ("pipeline", "top_k_sentences", "embeddings.sent_sim", None),
    ("pipeline", "viterbi_align", "aligner.viterbi", None),
    ("aligner", "viterbi_align", "aligner.viterbi", None),
    ("pipeline", "translate_rare_word", "aligner.translate", None),
    ("pipeline", "lm_ratio_accept", "lm.ratio", None),
    ("pipeline", "ordered_map", "parallel.map", _map_workers),
    ("aligner", "ordered_map", "parallel.map", _map_workers),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.absent: Set[str] = set()  # span names with no wrapper installed
        self.uncounted: Set[str] = set()  # span names whose counter hook failed
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- counters -------------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0), value)

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[int] = None, task: bool = False) -> int:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), 0.0, parent, threading.get_ident(), task]
            )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _count(self, name: str, hook: Callable, args, kwargs, result) -> None:
        """Run a counter hook; a changed signature marks its counters absent."""
        try:
            hook(self, args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.uncounted.add(name)

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                tracer._count(name, hook, args, kwargs, result)
            return result

        return wrapper

    def _wrap_map(self, fn: Callable, hook: Callable) -> Callable:
        """``ordered_map`` wrapper: each task is a span named like the caller.

        The work a task does belongs to the layer that called the map (the
        E-step to ``aligner.train``, the gate loop to ``pipeline.augment``),
        so a task span takes its caller's name; only scheduling is left as
        ``parallel.map`` self time.
        """
        tracer = self

        def traced_map(task_fn, items, *args, **kwargs):
            stack = tracer._stack()
            owner = tracer.spans[stack[-1]][_NAME] if stack else "parallel.task"
            map_index = tracer.open("parallel.map")

            def task(item):
                index = tracer.open(owner, parent=map_index, task=True)
                try:
                    return task_fn(item)
                finally:
                    tracer.close(index)

            try:
                result = fn(task, items, *args, **kwargs)
            finally:
                tracer.close(map_index)
            tracer._count("parallel.map", hook, (task_fn, items) + args, kwargs, result)
            return result

        return traced_map

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper whose target exists; always restore them."""
        restore: List[Tuple[object, str, object]] = []
        wanted: Set[str] = set()
        found: Set[str] = set()
        try:
            for module_name, attr, span_name, hook in WRAPS:
                wanted.add(span_name)
                try:
                    module = importlib.import_module(f"corpusaug.{module_name}")
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                if span_name == "parallel.map":
                    wrapped = self._wrap_map(original, hook)
                else:
                    wrapped = self._wrap(span_name, original, hook)
                restore.append((module, attr, original))
                setattr(module, attr, wrapped)
                found.add(span_name)
            self.absent = wanted - found
            yield self
        finally:
            for module, attr, original in reversed(restore):
                setattr(module, attr, original)

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per span name: summed self time and call count.

        Self time is a span's duration minus the union of its children's
        intervals, so children that overlap on a thread pool count once.
        Task spans add to their name's time but not to its call count.
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span[_PARENT] is not None:
                children[span[_PARENT]].append((span[_START], span[_END]))
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            start, end = span[_START], span[_END]
            covered = _union_length(children.get(index, ()), start, end)
            self_s[span[_NAME]] += (end - start) - covered
            if not span[_TASK]:
                calls[span[_NAME]] += 1
        return dict(self_s), dict(calls)

    def write_spans(self, path) -> None:
        """One span per line: index, parent, thread, task flag, name, start, end."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index\tparent\tthread\ttask\tname\tstart_s\tend_s\n")
            for index, span in enumerate(self.spans):
                parent = "" if span[_PARENT] is None else span[_PARENT]
                fh.write(
                    f"{index}\t{parent}\t{span[_THREAD]}\t{int(span[_TASK])}\t"
                    f"{span[_NAME]}\t{span[_START]:.9f}\t{span[_END]:.9f}\n"
                )


def _union_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total
