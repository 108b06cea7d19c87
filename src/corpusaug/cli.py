"""Command-line frontend: stats, prepare, augment, verify.

Runs are driven by a flat ``key = value`` config file with CLI overrides
(flags win). ``prepare`` trains and caches the heavyweight artifacts under
``<out_dir>/cache`` keyed by input-content hashes. One predicate,
``_fresh``, decides whether a cached artifact may be used: ``prepare``
rebuilds what it rejects; ``augment``, and ``verify`` against the run's
recorded fingerprints, refuse to run on it. ``augment`` and ``verify`` run
the same ``_augment``: ``augment`` writes what it gives, and ``verify``
replays the run through it and holds the run's outputs to the replay.
Exit codes are a stable contract: 0 success, 2 input error, 3 numeric
error, 4 stale cache, 5 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import __version__, agreement, pipeline
from .aligner import (
    PharaohFormatError,
    load_translation_table,
    save_translation_table,
    train_ibm1,
)
from .corpus_io import (
    CorpusFormatError,
    DictionaryEntry,
    ParallelCorpus,
    RareWord,
    RareWordValidityConfig,
    build_vocabulary,
    corpus_stats,
    extract_rare_words,
    load_dictionary,
    load_monolingual,
    load_parallel_corpus,
    sentence_lines,
    write_parallel_corpus,
)
from .embeddings import (
    EmbeddingFormatError,
    NumericError,
    load_embeddings,
    postprocess_alpha,
    save_embeddings,
)
from .lm import LmFormatError, load_lm, save_lm, train_lm
from .pipeline import (
    AugmentationConfig,
    ConfigError,
    augment_dictionary,
    augment_rare_words,
    merge_and_dedup,
    provenance_lines,
    read_provenance,
    rejections_per_set,
    write_provenance,
)
from .verify import Violation, json_violations, text_violations, verify_records

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_STALE_CACHE = 4
EXIT_VERIFY = 5

# Cache file names under <out_dir>/cache.
ALIGNER_FILE = "aligner.bin"
LM_SRC_FILE = "lm.src.bin"
LM_TGT_FILE = "lm.tgt.bin"
EMBEDDINGS_FILE = "embeddings.src.bin"
FINGERPRINTS_FILE = "fingerprints.json"

MODE_RARE = "rare"
MODE_DICT = "dict"
MODE_BOTH = "both"

# One preset per experiment row: every combination of the sentence-similarity,
# word-similarity, POS, and morphology gates that the ablation grid uses.
ABLATION_PRESETS: Dict[str, Dict[str, bool]] = {
    "off": dict(use_sent_sim=False, use_word_sim=False, use_pos=False, use_morph=False),
    "wordSim": dict(use_sent_sim=False, use_word_sim=True, use_pos=False, use_morph=False),
    "pos": dict(use_sent_sim=False, use_word_sim=False, use_pos=True, use_morph=False),
    "pos_morph": dict(use_sent_sim=False, use_word_sim=False, use_pos=True, use_morph=True),
    "wordSim_pos": dict(use_sent_sim=False, use_word_sim=True, use_pos=True, use_morph=False),
    "wordSim_pos_morph": dict(use_sent_sim=False, use_word_sim=True, use_pos=True, use_morph=True),
    "wordSim_sentSim": dict(use_sent_sim=True, use_word_sim=True, use_pos=False, use_morph=False),
    "wordSim_sentSim_pos_morph": dict(use_sent_sim=True, use_word_sim=True, use_pos=True, use_morph=True),
}

@dataclass
class RunConfig:
    """Everything a run needs: input paths, training knobs, gate config."""

    src_corpus: str = ""
    tgt_corpus: str = ""
    mono_src: str = ""
    mono_tgt: str = ""
    embeddings_src: str = ""
    annotations_src: str = ""
    dictionary: str = ""
    out_dir: str = "run"
    workers: int = 1
    log_level: str = "INFO"
    em_iterations: int = 10
    lm_min_count: int = 1
    lm_discount: float = 0.75
    dict_scope: str = pipeline.SCOPE_OOV_ONLY
    augmentation: AugmentationConfig = field(default_factory=AugmentationConfig)

    def resolved(self) -> Dict[str, object]:
        """All settings that determine run output, defaults materialized.

        Execution-only knobs (out_dir, workers, log_level) are excluded so
        that equal resolved configs imply byte-identical outputs.
        """
        out: Dict[str, object] = asdict(self)
        out.update(out.pop("augmentation"))
        for key in ("out_dir", "workers", "log_level"):
            del out[key]
        return out

    def validate(self) -> None:
        """Reject training knobs the trainers would refuse, a non-finite
        ``alpha_src``, and a dictionary scope that is not one of the two,
        naming the key."""
        if self.em_iterations < 1:
            raise ConfigError(
                f"config key 'em_iterations': must be >= 1, got {self.em_iterations}"
            )
        if self.lm_min_count < 1:
            raise ConfigError(
                f"config key 'lm_min_count': must be >= 1, got {self.lm_min_count}"
            )
        if not 0.0 < self.lm_discount < 1.0:
            raise ConfigError(
                f"config key 'lm_discount': must be in (0, 1), got {self.lm_discount}"
            )
        if not math.isfinite(self.augmentation.alpha_src):
            raise ConfigError(
                f"config key 'alpha_src': must be finite, got {self.augmentation.alpha_src}"
            )
        if self.dict_scope not in (pipeline.SCOPE_OOV_ONLY, pipeline.SCOPE_ALL):
            raise ConfigError(
                f"config key 'dict_scope': must be {pipeline.SCOPE_OOV_ONLY!r} or "
                f"{pipeline.SCOPE_ALL!r}, got {self.dict_scope!r}"
            )


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {value!r}")


# Field annotations are strings (postponed evaluation); other types stay text.
_PARSERS = {"int": int, "float": float, "bool": _parse_bool}


def parse_config_file(path: str | Path) -> Dict[str, str]:
    """Read a flat ``key = value`` file; ``#`` starts a comment."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        content = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 ({exc})") from exc
    values: Dict[str, str] = {}
    for lineno, line in enumerate(content.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{p}:{lineno}: expected key = value, got {line!r}")
        key, value = text.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def resolve_config(
    file_values: Dict[str, str], overrides: Optional[Dict[str, str]] = None
) -> RunConfig:
    """Materialize a RunConfig from file values plus overrides (flags win)."""
    merged = dict(file_values)
    merged.update(overrides or {})
    config = RunConfig()
    aug_fields = {f.name: f.type for f in fields(AugmentationConfig)}
    run_fields = {f.name: f.type for f in fields(RunConfig) if f.name != "augmentation"}
    for key, raw in merged.items():
        if key in aug_fields:
            target, ftype = config.augmentation, aug_fields[key]
        elif key in run_fields:
            target, ftype = config, run_fields[key]
        else:
            raise ConfigError(f"unknown config key: {key!r}")
        try:
            value = _PARSERS.get(ftype, str)(raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {ftype}") from exc
        setattr(target, key, value)
    config.validate()
    return config


def apply_ablation(config: RunConfig, preset: str) -> None:
    if preset not in ABLATION_PRESETS:
        raise ConfigError(
            f"unknown ablation preset {preset!r}; choose from "
            + ", ".join(sorted(ABLATION_PRESETS))
        )
    for key, value in ABLATION_PRESETS[preset].items():
        setattr(config.augmentation, key, value)


# -- cache fingerprints -------------------------------------------------------


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _expected_fingerprints(config: RunConfig) -> Dict[str, Dict[str, object]]:
    """Per-artifact input hashes and parameters for the cache."""
    return {
        "aligner": {
            "inputs": {
                config.src_corpus: _sha256(config.src_corpus),
                config.tgt_corpus: _sha256(config.tgt_corpus),
            },
            "params": {"iterations": config.em_iterations},
            "output": ALIGNER_FILE,
        },
        "lm_src": {
            "inputs": {config.mono_src: _sha256(config.mono_src)},
            "params": {
                "min_count": config.lm_min_count,
                "discount": config.lm_discount,
            },
            "output": LM_SRC_FILE,
        },
        "lm_tgt": {
            "inputs": {config.mono_tgt: _sha256(config.mono_tgt)},
            "params": {
                "min_count": config.lm_min_count,
                "discount": config.lm_discount,
            },
            "output": LM_TGT_FILE,
        },
        "embeddings_src": {
            "inputs": {config.embeddings_src: _sha256(config.embeddings_src)},
            "params": {"alpha": config.augmentation.alpha_src},
            "output": EMBEDDINGS_FILE,
        },
    }


def _input_sha256(config: RunConfig, mode: str) -> Dict[str, str]:
    """The sha256 of each input of a run that no cache fingerprint covers:
    the annotations and, in dict and both modes, the dictionary."""
    paths = (config.annotations_src, config.dictionary if mode != MODE_RARE else "")
    return {path: _sha256(path) for path in paths if path}


def _cache_dir(config: RunConfig) -> Path:
    return Path(config.out_dir) / "cache"


class StaleCacheError(RuntimeError):
    pass


def _load_fingerprints(cache_dir: Path) -> Dict[str, Dict[str, object]]:
    """The stored fingerprints; StaleCacheError naming the file when it is unreadable."""
    fp_path = cache_dir / FINGERPRINTS_FILE
    if not fp_path.is_file():
        return {}
    try:
        stored = json.loads(fp_path.read_text(encoding="utf-8"))
    except ValueError:  # not UTF-8 or not JSON
        stored = None
    if not _is_fingerprints(stored):
        raise StaleCacheError(f"{fp_path}: not a JSON object of artifact fingerprints")
    return stored


def _is_fingerprints(value: object) -> bool:
    return isinstance(value, dict) and all(isinstance(v, dict) for v in value.values())


def _fresh(stored: Optional[Dict[str, object]], spec: Dict[str, object], path: Path) -> bool:
    """Whether the artifact at ``path`` was built from ``spec``'s inputs and
    params, per its ``stored`` fingerprint, and still has the bytes it was
    built with."""
    return path.is_file() and stored == dict(spec, output_sha256=_sha256(path))


# -- commands -----------------------------------------------------------------


def cmd_stats(config: RunConfig) -> int:
    corpus = load_parallel_corpus(config.src_corpus, config.tgt_corpus)
    dictionary = load_dictionary(config.dictionary) if config.dictionary else None
    report = corpus_stats(corpus, config.augmentation.t_r, dictionary)
    print(report.format_text())
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats_path = out_dir / "stats.json"
    stats_path.write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    log.info("stats written to %s", stats_path)
    return EXIT_OK


def cmd_prepare(config: RunConfig) -> int:
    cache_dir = _cache_dir(config)
    cache_dir.mkdir(parents=True, exist_ok=True)
    expected = _expected_fingerprints(config)
    try:
        stored = _load_fingerprints(cache_dir)
    except StaleCacheError as exc:
        log.warning("%s; rebuilding every artifact", exc)
        stored = {}

    corpus = None
    for artifact, spec in expected.items():
        out_path = cache_dir / str(spec["output"])
        if _fresh(stored.get(artifact), spec, out_path):
            log.info("%s: up to date", artifact)
            continue
        log.info("%s: building", artifact)
        if artifact == "aligner":
            if corpus is None:
                corpus = load_parallel_corpus(config.src_corpus, config.tgt_corpus)
            table = train_ibm1(corpus, config.em_iterations)
            save_translation_table(table, out_path)
        elif artifact in ("lm_src", "lm_tgt"):
            mono_path = config.mono_src if artifact == "lm_src" else config.mono_tgt
            model = train_lm(
                load_monolingual(mono_path), config.lm_min_count, config.lm_discount
            )
            save_lm(model, out_path)
        else:
            table = postprocess_alpha(
                load_embeddings(config.embeddings_src), config.augmentation.alpha_src
            )
            save_embeddings(table, out_path)
        stored[artifact] = dict(spec, output_sha256=_sha256(out_path))

    kept = {str(spec["output"]) for spec in expected.values()} | {FINGERPRINTS_FILE}
    for path in sorted(cache_dir.iterdir()):
        if path.name not in kept and path.is_file():
            log.info("removing stale cache file %s", path)
            path.unlink()
    fingerprints = {artifact: stored[artifact] for artifact in expected}
    (cache_dir / FINGERPRINTS_FILE).write_text(
        json.dumps(fingerprints, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    log.info("cache ready under %s", cache_dir)
    return EXIT_OK


# The loader of each artifact, which names the file when it does not parse.
_LOADERS = {
    "aligner": load_translation_table,
    "lm_src": load_lm,
    "lm_tgt": load_lm,
    "embeddings_src": load_embeddings,
}


def _check_cache(config: RunConfig, cache_dir: Path, stored: Dict[str, Dict[str, object]]) -> None:
    """Return when every artifact under ``cache_dir`` is :func:`_fresh` per
    its ``stored`` fingerprint.

    Otherwise raise StaleCacheError naming the first artifact that is not,
    or the input whose sha256 differs from the one its fingerprint records,
    except that a file whose fingerprint still matches its inputs but whose
    bytes changed and no longer parse raises its loader's error naming it.
    """
    for artifact, spec in _expected_fingerprints(config).items():
        out_path = cache_dir / str(spec["output"])
        entry = stored.get(artifact, {})
        if not _fresh(entry, spec, out_path):
            recorded = entry.get("inputs")
            changed = [path for path, digest in spec["inputs"].items()
                       if isinstance(recorded, dict) and recorded.get(path, digest) != digest]
            if changed:
                raise StaleCacheError(
                    f"input {changed[0]} changed since the cache was built; rerun prepare"
                )
            if out_path.is_file() and entry == dict(spec, output_sha256=entry.get("output_sha256")):
                _LOADERS[artifact](out_path)
            raise StaleCacheError(
                f"cache artifact {artifact!r} is stale, missing or altered; rerun prepare"
            )


def _check_mode(config: RunConfig, mode: str) -> None:
    """Refuse an unknown mode, or settings that the mode cannot run with."""
    if mode not in (MODE_RARE, MODE_DICT, MODE_BOTH):
        raise ConfigError(f"unknown augment mode: {mode!r}")
    dict_mode = mode in (MODE_DICT, MODE_BOTH)
    config.augmentation.validate(dict_mode=dict_mode)
    if dict_mode and not config.dictionary:
        raise ConfigError("dictionary path required for dictionary augmentation")


def _load_run(
    config: RunConfig, cache_dir: Path, mode: str
) -> Tuple[pipeline.RunInputs, Optional[List[RareWord]], Optional[List[DictionaryEntry]]]:
    """What ``augment`` and ``verify`` read: the run inputs, the rare words
    in rare and both modes, and the dictionary in dict and both modes (None
    in a mode that does not use them)."""
    aug = config.augmentation
    corpus = load_parallel_corpus(config.src_corpus, config.tgt_corpus)
    dictionary = load_dictionary(config.dictionary) if mode in (MODE_DICT, MODE_BOTH) else None
    embeddings = load_embeddings(cache_dir / EMBEDDINGS_FILE)
    alignment_table = load_translation_table(cache_dir / ALIGNER_FILE)
    lm_src = load_lm(cache_dir / LM_SRC_FILE)
    lm_tgt = load_lm(cache_dir / LM_TGT_FILE)
    lexicon = agreement.load_annotations(config.annotations_src) if config.annotations_src else None

    inputs = pipeline.RunInputs.build(
        corpus, embeddings, alignment_table, lm_src, lm_tgt, lexicon, aug.syntactic_mode()
    )
    rare_words = None
    if mode in (MODE_RARE, MODE_BOTH):
        vocab = build_vocabulary(corpus.source)
        validity = RareWordValidityConfig(embedding_vocab=embeddings, annotation_vocab=lexicon)
        rare_words = extract_rare_words(vocab, corpus.source, aug.t_r, validity)
        log.info("extracted %d rare word(s) at threshold %d", len(rare_words), aug.t_r)
    return inputs, rare_words, dictionary


class _Augmented(NamedTuple):
    """What ``augment`` writes: the merged corpus and the merge manifest,
    the kept pairs and the rejections in ``provenance.jsonl`` order, and
    the rejections tallied per set and reason."""

    merged: ParallelCorpus
    merge: Dict[str, object]
    kept: List[pipeline.SyntheticPair]
    rejected: List[pipeline.Rejection]
    tallies: Dict[str, Dict[str, int]]


def _augment(
    config: RunConfig,
    inputs: pipeline.RunInputs,
    rare_words: Optional[List[RareWord]],
    dictionary: Optional[List[DictionaryEntry]],
) -> _Augmented:
    """Augment with what ``_load_run`` gave and merge: what ``augment``
    writes and ``verify`` replays."""
    aug = config.augmentation
    runs: Dict[str, Tuple[List[pipeline.SyntheticPair], List[pipeline.Rejection]]] = {}
    if rare_words is not None:
        runs[pipeline.ITEM_RARE_WORD] = augment_rare_words(inputs, rare_words, aug)
    if dictionary is not None:
        runs[pipeline.ITEM_DICTIONARY] = augment_dictionary(
            inputs, dictionary, aug, config.dict_scope
        )

    set_names = list(runs)
    sets = [accepted for accepted, _ in runs.values()]
    rejected = [entry for _, set_rejected in runs.values() for entry in set_rejected]
    merged, merge_manifest = merge_and_dedup(inputs.corpus, sets, set_names, aug.soft_cap)

    # Deduplication re-marks duplicate pairs as rejected; partition afterwards
    # so the reason tallies include them.
    kept_pairs = [p for s in sets for p in s if p.record.accepted]
    all_rejected = rejected + [p.record for s in sets for p in s if not p.record.accepted]
    return _Augmented(merged, merge_manifest, kept_pairs, all_rejected,
                      rejections_per_set(all_rejected, set_names))


def cmd_augment(config: RunConfig, mode: str, ablation: Optional[str] = None) -> int:
    _check_mode(config, mode)
    cache_dir = _cache_dir(config)
    fingerprints = _load_fingerprints(cache_dir)
    _check_cache(config, cache_dir, fingerprints)
    run = _augment(config, *_load_run(config, cache_dir, mode))

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_parallel_corpus(run.merged, out_dir / "corpus.src.txt", out_dir / "corpus.tgt.txt")
    write_provenance(out_dir / "provenance.jsonl", run.kept, run.rejected)

    manifest = {
        "tool_version": __version__,
        "mode": mode,
        "ablation": ablation,
        "resolved_config": config.resolved(),
        "fingerprints": fingerprints,
        "input_sha256": _input_sha256(config, mode),
        "merge": run.merge,
        "rejections_per_set": run.tallies,
        "outputs": {
            "source": "corpus.src.txt",
            "target": "corpus.tgt.txt",
            "provenance": "provenance.jsonl",
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    for warning in run.merge["warnings"]:
        log.warning("%s", warning)
    log.info(
        "augmentation finished: %d synthetic pair(s) kept, %d rejection record(s)",
        run.merge["synthetic_pairs"],
        sum(sum(tally.values()) for tally in run.tallies.values()),
    )
    return EXIT_OK


def cmd_verify(run_dir: str | Path) -> int:
    run_path = Path(run_dir)
    manifest_path = run_path / "manifest.json"
    if not manifest_path.is_file():
        raise ConfigError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        resolved = manifest["resolved_config"]
        # The settings augment ran with go through augment's own parser.
        values = {key: resolved[key] for key in RunConfig().resolved()}
        mode = manifest["mode"]
        fingerprints = manifest["fingerprints"]
        input_sha256 = manifest["input_sha256"]
        tallies, merge = manifest["rejections_per_set"], manifest["merge"]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{manifest_path}: not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{manifest_path}: not valid JSON ({exc})") from exc
    except KeyError as exc:
        raise ConfigError(f"{manifest_path}: missing key {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{manifest_path}: not a JSON object of run settings") from exc
    try:
        config = resolve_config({key: str(value) for key, value in values.items()})
        _check_mode(config, mode)
    except ConfigError as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from exc
    if not _is_fingerprints(fingerprints):
        raise ConfigError(f"{manifest_path}: 'fingerprints' is not a JSON object of objects")
    if not isinstance(input_sha256, dict):
        raise ConfigError(f"{manifest_path}: 'input_sha256' is not a JSON object")

    changed = [Violation(path, "sha256", "changed since the run")
               for path, digest in _input_sha256(config, mode).items()
               if input_sha256.get(path) != digest]
    if changed:
        return _report(changed, "the run's dictionary and annotations")
    cache_dir = run_path / "cache"
    _check_cache(config, cache_dir, fingerprints)
    replay = _augment(config, *_load_run(config, cache_dir, mode))
    provenance = run_path / "provenance.jsonl"
    violations = text_violations(provenance, provenance_lines(replay.kept, replay.rejected))
    accepted = len(replay.kept)
    if violations:
        # Name what differs: the accepted records' fields when they differ,
        # else the first differing line. A line that is not a record, or a
        # file that is not UTF-8, is an input error.
        records = read_provenance(provenance)
        accepted = len(records)
        violations = verify_records(records, [pair.record for pair in replay.kept]) or violations
    violations += json_violations(str(manifest_path), "rejections_per_set", tallies, replay.tallies)
    violations += json_violations(str(manifest_path), "merge", merge, replay.merge)
    for name, side in (("corpus.src.txt", replay.merged.source),
                       ("corpus.tgt.txt", replay.merged.target)):
        violations += text_violations(run_path / name, sentence_lines(side))
    return _report(violations, f"{accepted} accepted record(s) and every line of "
                               "provenance.jsonl, the tallies, the merge and both corpus "
                               "files, against the replayed run")


def _report(violations: List[Violation], checked: str) -> int:
    """Print the violations and their tally; the exit code they give."""
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        by_field = Counter(violation.field for violation in violations)
        tally = ", ".join(f"{field}={by_field[field]}" for field in sorted(by_field))
        print(f"violations by field: {tally}", file=sys.stderr)
        print(f"{len(violations)} violation(s) across {checked}")
        return EXIT_VERIFY
    print(f"0 violations across {checked}")
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="flat key = value config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable; flags win over the file)",
    )
    parser.add_argument("--out-dir", help="override out_dir")
    parser.add_argument("--workers", type=int, help="ignored: runs are single-threaded")


def _overrides_from_args(args: argparse.Namespace) -> Dict[str, str]:
    overrides: Dict[str, str] = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.out_dir:
        overrides["out_dir"] = args.out_dir
    if args.workers is not None:
        overrides["workers"] = str(args.workers)
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corpusaug",
        description="Pseudo-parallel corpus generation by constrained replacement",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="corpus and dictionary statistics")
    _add_common(p_stats)

    p_prepare = sub.add_parser("prepare", help="train and cache aligner, LMs, embeddings")
    _add_common(p_prepare)

    p_augment = sub.add_parser("augment", help="run the augmentation pipeline")
    _add_common(p_augment)
    p_augment.add_argument(
        "--mode", choices=(MODE_RARE, MODE_DICT, MODE_BOTH), default=MODE_RARE
    )
    p_augment.add_argument(
        "--ablation",
        choices=sorted(ABLATION_PRESETS),
        help="gate preset mirroring one ablation row",
    )

    p_verify = sub.add_parser("verify", help="replay a finished run and check its outputs")
    p_verify.add_argument("--run-dir", required=True, help="directory of a finished run")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            logging.basicConfig(level=logging.INFO, stream=sys.stderr)
            return cmd_verify(args.run_dir)
        config = resolve_config(
            parse_config_file(args.config), _overrides_from_args(args)
        )
        if args.command == "augment" and args.ablation:
            apply_ablation(config, args.ablation)
        logging.basicConfig(
            level=getattr(logging, config.log_level.upper(), logging.INFO),
            stream=sys.stderr,
        )
        if config.workers > 1:
            log.warning("workers = %d has no effect: runs are single-threaded", config.workers)
        if args.command == "stats":
            return cmd_stats(config)
        if args.command == "prepare":
            return cmd_prepare(config)
        if args.command == "augment":
            return cmd_augment(config, args.mode, args.ablation)
        raise ConfigError(f"unknown command {args.command!r}")
    except StaleCacheError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALE_CACHE
    except (
        ConfigError,
        CorpusFormatError,
        EmbeddingFormatError,
        PharaohFormatError,
        LmFormatError,
        OSError,  # a path that is missing, a directory, not a directory, unreadable
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
