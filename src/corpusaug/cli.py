"""Command-line frontend: stats, prepare, augment, verify.

Runs are driven by a flat ``key = value`` config file with CLI overrides
(flags win). ``prepare`` trains and caches the heavyweight artifacts under
``<out_dir>/cache`` keyed by input-content hashes, and rebuilds an artifact
whose bytes no longer match the hash it stored; ``augment`` refuses to run
on a stale cache. Exit codes are a stable contract: 0 success, 2 input
error, 3 numeric error, 4 stale cache, 5 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__, agreement, pipeline
from .aligner import (
    DIRECTION_TGT_GIVEN_SRC,
    PharaohFormatError,
    load_translation_table,
    save_translation_table,
    train_ibm1,
)
from .corpus_io import (
    CorpusFormatError,
    RareWordValidityConfig,
    build_vocabulary,
    corpus_stats,
    extract_rare_words,
    load_dictionary,
    load_monolingual,
    load_parallel_corpus,
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
    read_provenance,
    rejection_counts,
    write_provenance,
)
from .verify import verify_records

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_STALE_CACHE = 4
EXIT_VERIFY = 5

# Cache file names under <out_dir>/cache.
ALIGNER_FILE = "aligner.tsv"
LM_SRC_FILE = "lm.src.bin"
LM_TGT_FILE = "lm.tgt.bin"
EMBEDDINGS_FILE = "embeddings.src.vec"
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

_PATH_KEYS = (
    "src_corpus",
    "tgt_corpus",
    "mono_src",
    "mono_tgt",
    "embeddings_src",
    "embeddings_tgt",
    "annotations_src",
    "dictionary",
)


@dataclass
class RunConfig:
    """Everything a run needs: input paths, training knobs, gate config."""

    src_corpus: str = ""
    tgt_corpus: str = ""
    mono_src: str = ""
    mono_tgt: str = ""
    embeddings_src: str = ""
    embeddings_tgt: str = ""
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
        out: Dict[str, object] = {}
        for key in _PATH_KEYS:
            out[key] = getattr(self, key)
        out["em_iterations"] = self.em_iterations
        out["lm_min_count"] = self.lm_min_count
        out["lm_discount"] = self.lm_discount
        out["dict_scope"] = self.dict_scope
        for f in fields(self.augmentation):
            out[f.name] = getattr(self.augmentation, f.name)
        return out

    def validate(self) -> None:
        """Reject training knobs the trainers would refuse, naming the key."""
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


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {value!r}")


def parse_config_file(path: str | Path) -> Dict[str, str]:
    """Read a flat ``key = value`` file; ``#`` starts a comment."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    values: Dict[str, str] = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
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
    aug_fields = {f.name: f for f in fields(AugmentationConfig)}
    run_fields = {f.name: f for f in fields(RunConfig) if f.name != "augmentation"}
    for key, raw in merged.items():
        if key in aug_fields:
            target, name = config.augmentation, key
            ftype = aug_fields[key].type
        elif key in run_fields:
            target, name = config, key
            ftype = run_fields[key].type
        else:
            raise ConfigError(f"unknown config key: {key!r}")
        try:
            if ftype in ("int", int):
                value: object = int(raw)
            elif ftype in ("float", float):
                value = float(raw)
            elif ftype in ("bool", bool):
                value = _parse_bool(raw)
            else:
                value = raw
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {ftype}") from exc
        setattr(target, name, value)
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
            "params": {
                "iterations": config.em_iterations,
                "direction": DIRECTION_TGT_GIVEN_SRC,
            },
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
    if not isinstance(stored, dict) or not all(isinstance(v, dict) for v in stored.values()):
        raise StaleCacheError(f"{fp_path}: not a JSON object of artifact fingerprints")
    return stored


def _same_inputs(stored: Optional[Dict[str, object]], spec: Dict[str, object]) -> bool:
    """Whether a stored fingerprint was built from ``spec``'s inputs and params."""
    if stored is None:
        return False
    return {k: v for k, v in stored.items() if k != "output_sha256"} == spec


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
        entry = stored.get(artifact)
        if (
            _same_inputs(entry, spec)
            and out_path.is_file()
            and entry.get("output_sha256") == _sha256(out_path)
        ):
            log.info("%s: up to date", artifact)
            continue
        log.info("%s: building", artifact)
        if artifact == "aligner":
            if corpus is None:
                corpus = load_parallel_corpus(config.src_corpus, config.tgt_corpus)
            table = train_ibm1(corpus, config.em_iterations, DIRECTION_TGT_GIVEN_SRC)
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


def _check_cache(config: RunConfig) -> Path:
    cache_dir = _cache_dir(config)
    expected = _expected_fingerprints(config)
    stored = _load_fingerprints(cache_dir)
    for artifact, spec in expected.items():
        out_path = cache_dir / str(spec["output"])
        if not _same_inputs(stored.get(artifact), spec) or not out_path.is_file():
            raise StaleCacheError(
                f"cache artifact {artifact!r} is stale or missing; rerun prepare"
            )
    return cache_dir


def cmd_augment(config: RunConfig, mode: str, ablation: Optional[str] = None) -> int:
    if mode not in (MODE_RARE, MODE_DICT, MODE_BOTH):
        raise ConfigError(f"unknown augment mode: {mode!r}")
    aug = config.augmentation
    aug.validate(dict_mode=mode in (MODE_DICT, MODE_BOTH))
    cache_dir = _check_cache(config)

    corpus = load_parallel_corpus(config.src_corpus, config.tgt_corpus)
    embeddings = load_embeddings(cache_dir / EMBEDDINGS_FILE)
    alignment_table = load_translation_table(cache_dir / ALIGNER_FILE)
    lm_src = load_lm(cache_dir / LM_SRC_FILE)
    lm_tgt = load_lm(cache_dir / LM_TGT_FILE)
    lexicon = (
        agreement.load_annotations(config.annotations_src)
        if config.annotations_src
        else None
    )

    inputs = pipeline.RunInputs.build(
        corpus, embeddings, alignment_table, lm_src, lm_tgt, lexicon, aug.syntactic_mode()
    )
    runs: Dict[str, Tuple[List[pipeline.SyntheticPair], List[pipeline.ReplacementRecord]]] = {}
    if mode in (MODE_RARE, MODE_BOTH):
        vocab = build_vocabulary(corpus.source)
        validity = RareWordValidityConfig(
            embedding_vocab=embeddings,
            annotation_vocab=lexicon if lexicon is not None else None,
        )
        rare_words = extract_rare_words(vocab, corpus.source, aug.t_r, validity)
        log.info("extracted %d rare word(s) at threshold %d", len(rare_words), aug.t_r)
        runs[pipeline.ITEM_RARE_WORD] = augment_rare_words(inputs, rare_words, aug)

    if mode in (MODE_DICT, MODE_BOTH):
        if not config.dictionary:
            raise ConfigError("dictionary path required for dictionary augmentation")
        dictionary = load_dictionary(config.dictionary)
        runs[pipeline.ITEM_DICTIONARY] = augment_dictionary(
            inputs, dictionary, aug, config.dict_scope
        )

    set_names = list(runs)
    sets = [accepted for accepted, _ in runs.values()]
    rejected = [record for _, set_rejected in runs.values() for record in set_rejected]
    merged, merge_manifest = merge_and_dedup(corpus, sets, set_names, aug.soft_cap)

    # Deduplication re-marks duplicate pairs as rejected; partition afterwards
    # so the reason tallies include them.
    kept_pairs = [p for s in sets for p in s if p.record.accepted]
    duplicate_records = [p.record for s in sets for p in s if not p.record.accepted]
    all_rejected = rejected + duplicate_records
    set_rejections = {
        name: rejection_counts([r for r in all_rejected if r.item_kind == name])
        for name in set_names
    }

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_parallel_corpus(merged, out_dir / "corpus.src.txt", out_dir / "corpus.tgt.txt")
    write_provenance(out_dir / "provenance.jsonl", kept_pairs, all_rejected)

    manifest = {
        "tool_version": __version__,
        "mode": mode,
        "ablation": ablation,
        "resolved_config": config.resolved(),
        "fingerprints": _load_fingerprints(cache_dir),
        "merge": merge_manifest,
        "rejections_per_set": set_rejections,
        "outputs": {
            "source": "corpus.src.txt",
            "target": "corpus.tgt.txt",
            "provenance": "provenance.jsonl",
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    for warning in merge_manifest["warnings"]:
        log.warning("%s", warning)
    log.info(
        "augmentation finished: %d synthetic pair(s) kept, %d rejection record(s)",
        merge_manifest["synthetic_pairs"],
        len(all_rejected),
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
        src_corpus, tgt_corpus = resolved["src_corpus"], resolved["tgt_corpus"]
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{manifest_path}: not valid JSON ({exc})") from exc
    except KeyError as exc:
        raise ConfigError(f"{manifest_path}: missing key {exc}") from exc

    aug = AugmentationConfig(
        **{
            f.name: resolved[f.name]
            for f in fields(AugmentationConfig)
            if f.name in resolved
        }
    )
    corpus = load_parallel_corpus(src_corpus, tgt_corpus)
    cache_dir = run_path / "cache"
    embeddings = load_embeddings(cache_dir / EMBEDDINGS_FILE)
    lm_src = load_lm(cache_dir / LM_SRC_FILE)
    lm_tgt = load_lm(cache_dir / LM_TGT_FILE)
    lexicon = (
        agreement.load_annotations(resolved["annotations_src"])
        if resolved.get("annotations_src")
        else None
    )
    records = read_provenance(run_path / "provenance.jsonl")
    violations = verify_records(
        records, corpus, embeddings, lexicon, lm_src, lm_tgt, aug
    )
    accepted = sum(1 for r in records if r.accepted)
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        print(f"{len(violations)} violation(s) across {accepted} accepted record(s)")
        return EXIT_VERIFY
    print(f"0 violations across {accepted} accepted record(s)")
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

    p_verify = sub.add_parser("verify", help="re-check accepted provenance records")
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
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
