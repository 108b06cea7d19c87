"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or in captured output).
"""

import hashlib
import json
import random
import time

import numpy as np
import pytest

from corpusaug.aligner import SentenceAlignment, export_pharaoh, import_pharaoh, train_ibm1
from corpusaug.cli import EXIT_OK, EXIT_INPUT, EXIT_VERIFY, main
from corpusaug.corpus_io import ParallelCorpus, Sentence
from corpusaug.embeddings import (
    EmbeddingTable,
    cosine,
    export_vec,
    load_embeddings,
    postprocess_alpha,
)
from corpusaug import pipeline
from corpusaug.lm import export_arpa, import_arpa, train_lm
from corpusaug.pipeline import ReplacementRecord

from oracles import jacobi_eigenvalues, provenance_line_reference

# Golden accepted/deduplicated counts on the bundled toy fixture, pinned
# after hand-verifying sample records of every gate flavour (see
# toyfixture.py for the construction).
GOLDEN_COUNTS = {
    "off": {"rare_word": (70, 0), "dictionary": (72, 0)},
    "wordSim": {"rare_word": (62, 0), "dictionary": (72, 0)},
    "pos": {"rare_word": (65, 0), "dictionary": (69, 0)},
    "pos_morph": {"rare_word": (57, 0), "dictionary": (65, 0)},
    "wordSim_pos": {"rare_word": (50, 0), "dictionary": (66, 0)},
    "wordSim_pos_morph": {"rare_word": (38, 0), "dictionary": (60, 0)},
    "wordSim_sentSim": {"rare_word": (56, 4)},
    "wordSim_sentSim_pos_morph": {"rare_word": (33, 3)},
}

# The sha256 of each preset's outputs as written when the exact re-score of
# a best word, the LM windows and the provenance scores were computed one at
# a time: a change in the last bit of a ``word_sim`` or an LM ratio moves
# them. Like the cache pin in test_cli.py, they hold for the BLAS build that
# recorded them (the embeddings pass through BLAS in ``postprocess_alpha``,
# and the cosines through its ``ddot``); another build may need new constants.
TOY_OUTPUT_SHA256 = {
    "off": {
        "corpus.src.txt": "b47ff94b40ca9a282d682705f1c010d045c016e10f4f602fa3579c64565162fa",
        "corpus.tgt.txt": "49c8fd1536f4306b3b44bd8beac5ab69991dedccba7a6c8a23492551529ecc87",
        "provenance.jsonl": "4e0965b70623c5ec19e1b62178c4d569b1d9113e453ac5231cc89bfac98f9b64",
    },
    "wordSim": {
        "corpus.src.txt": "85e831480ad15355f28f8ef1632ba623606bbce075eb98e5d3c4eb07e8f9a7be",
        "corpus.tgt.txt": "0e4c30805fddc4c9edd5e78bca5497c6eccf14df0b4e2ab6cf44f600e2b7e0e1",
        "provenance.jsonl": "4fc32fd581ea2031aee5f14709d21658000225818e83b59698e5379a0dd603a7",
    },
    "pos": {
        "corpus.src.txt": "11726fe52b0cd09bcb8d16a22b8528148a1330b8127384303402aad8aa26bbde",
        "corpus.tgt.txt": "5c491dad803ee705a22a1bd5f2d9d593f0f98b1eaa3b14ef34192b3f18ba2782",
        "provenance.jsonl": "9651edb30fcb462c9a60d794810f55070c6bda57f42699b4998e492a336b2c19",
    },
    "pos_morph": {
        "corpus.src.txt": "b5803b40790f071ca86a8f7aa9955b5d9967c03535d8c0ec4e67544f7aada60c",
        "corpus.tgt.txt": "b5cd47a10e4eaab9c651c1c6071486ae1066c3b5f36a6a39914c2bfb2a6ef345",
        "provenance.jsonl": "01382e04716e6cb90e35e05ee21cd6eff999fb964a728a92d417256ac570e406",
    },
    "wordSim_pos": {
        "corpus.src.txt": "024acef1f32697098ed43c677074a2c5ad80c509fd817480daa832ed7efc2fff",
        "corpus.tgt.txt": "85ebeab3d9604e72ccdbfd3e517b7084e019b00305cd231c6db9cd0912891222",
        "provenance.jsonl": "0e15e1bc732bf23179723b88dcecd8c5c8d346568a3b1bf1720ecabd794179e3",
    },
    "wordSim_pos_morph": {
        "corpus.src.txt": "ca7fd525cadc607cdbdb898b0860d4865783636ac5f1487f6aeb250e70f8ec29",
        "corpus.tgt.txt": "944db02842e5a8498ffa63335af56b338ed5016935ccdde287aa279317ed0ddc",
        "provenance.jsonl": "bd77e6da5f67aa072406278e4e77fa6b4e3dcdc9e69341d676601baffaf2bc2e",
    },
    "wordSim_sentSim": {
        "corpus.src.txt": "62fc5dad3f1bed218177396f6f6fbfe1eff85db32de432eb2a46312026e7fc26",
        "corpus.tgt.txt": "bf3f75c0ddc38e81f2af5690b0d8996ec3255eee094818b41f954c48bc7a9701",
        "provenance.jsonl": "dd13f8c4fc0da2eedd88cd6ab673a59c9503276a7f37d64d7fb2754286500f07",
    },
    "wordSim_sentSim_pos_morph": {
        "corpus.src.txt": "3affc0b9f5897f5ccaaf3184fb95cdd78a8a4c04673e351352535ea4d66c7d32",
        "corpus.tgt.txt": "927ed7d01647364969e07342c42f7eab31eea4d8fc95e0e4d66c1aac302223c0",
        "provenance.jsonl": "d48a875e926debebc081acc6e96b5ec84bb8c72dfa2d6254aa20c87b74f2bed4",
    },
}

PRESET_MODES = {
    "off": "both",
    "wordSim": "both",
    "pos": "both",
    "pos_morph": "both",
    "wordSim_pos": "both",
    "wordSim_pos_morph": "both",
    "wordSim_sentSim": "rare",
    "wordSim_sentSim_pos_morph": "rare",
}


def report(criterion: str, passed: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed, criterion


@pytest.fixture(scope="session")
def preset_runs(toy, tmp_path_factory):
    """Augment + manifest for every ablation preset on the toy fixture."""
    root = tmp_path_factory.mktemp("acceptance")
    runs = {}
    for preset, mode in PRESET_MODES.items():
        out = root / f"run_{preset}"
        cfg = toy.write_config(root / f"{preset}.cfg", out)
        assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        assert main(
            ["augment", "--config", str(cfg), "--mode", mode, "--ablation", preset]
        ) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        runs[preset] = (out, manifest)
    return runs


def test_toy_output_bytes_are_pinned(preset_runs):
    digests = {
        preset: {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("corpus.src.txt", "corpus.tgt.txt", "provenance.jsonl")}
        for preset, (out, _manifest) in preset_runs.items()
    }
    report("toy output bytes", digests == TOY_OUTPUT_SHA256)


def test_em_correctness():
    pairs = [("the house", "das haus"), ("the book", "das buch"), ("a book", "ein buch")]
    src = tuple(Sentence(i, tuple(s.split())) for i, (s, _) in enumerate(pairs))
    tgt = tuple(Sentence(i, tuple(t.split())) for i, (_, t) in enumerate(pairs))
    started = time.monotonic()
    table = train_ibm1(ParallelCorpus(src, tgt), 20)
    elapsed = time.monotonic() - started
    ok = table.prob("haus", "house") > 0.9 and table.prob("buch", "book") > 0.9
    ok &= all(
        b >= a - 1e-9
        for a, b in zip(table.log_likelihoods, table.log_likelihoods[1:])
    )
    ok &= all(abs(sum(row.values()) - 1.0) <= 1e-6 for row in table.t.values())
    ok &= elapsed < 1.0
    report("EM correctness", ok)


def test_lm_normalization():
    rng = random.Random(42)
    vocab = [f"v{i}" for i in range(50)]
    sentences = [tuple(rng.choice(vocab) for _ in range(rng.randint(1, 10))) for _ in range(150)]
    started = time.monotonic()
    model = train_lm(sentences, 1)
    alphabet = model.alphabet()
    histories = [(a, b) for a in vocab[:10] + ["<s>", "</s>", "zz-unseen"]
                 for b in vocab[:10] + ["<s>", "</s>", "zz-unseen"]]
    ok = True
    for h1, h2 in histories:
        total = 0.0
        for w in alphabet:
            p = model.trigram_prob(h1, h2, w)
            ok &= 0.0 < p <= 1.0
            total += p
        ok &= abs(total - 1.0) <= 1e-6
    elapsed = time.monotonic() - started
    ok &= elapsed < 10.0
    report("LM normalization", ok)


def test_alpha_transform_spectrum():
    started = time.monotonic()
    ok = True
    for alpha in (-0.5, -0.15, 0.0, 0.15, 1.0):
        rng = np.random.default_rng(2000 + abs(int(alpha * 1000)))
        X = rng.normal(size=(50, 8))
        table = EmbeddingTable(tuple(f"w{i}" for i in range(50)), X)
        out = postprocess_alpha(table, alpha)
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        reference = np.sort(jacobi_eigenvalues(Xn.T @ Xn) ** alpha)
        Xp = out.matrix
        transformed = np.sort(jacobi_eigenvalues(Xp.T @ Xp))
        ok &= bool(np.max(np.abs(transformed - reference) / np.abs(reference)) < 1e-6)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(50, 8))
    table = EmbeddingTable(tuple(f"w{i}" for i in range(50)), X)
    rotated = postprocess_alpha(table, 1.0)
    tokens = table.tokens
    for i in range(0, 50, 5):
        for j in range(0, 50, 7):
            before = cosine(table.get(tokens[i]), table.get(tokens[j]))
            after = cosine(rotated.get(tokens[i]), rotated.get(tokens[j]))
            ok &= abs(after - before) < 1e-6
    elapsed = time.monotonic() - started
    ok &= elapsed < 5.0
    report("alpha transform spectrum", ok)


def test_gate_soundness(preset_runs, tmp_path):
    ok = True
    for preset, (out, _manifest) in preset_runs.items():
        ok &= main(["verify", "--run-dir", str(out)]) == EXIT_OK
    # mutation test: copy one run, edit one accepted record, expect exit 5
    import shutil

    source_dir, _ = preset_runs["wordSim"]
    mutated = tmp_path / "mutated"
    shutil.copytree(source_dir, mutated)
    path = mutated / "provenance.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    assert record["accepted"]
    record["lm_ratio_tgt"] = 0.05
    lines[0] = json.dumps(record, sort_keys=True, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ok &= main(["verify", "--run-dir", str(mutated)]) == EXIT_VERIFY
    report("gate soundness", ok)


def test_constraint_monotonicity(preset_runs):
    counts = {}
    ok = True
    for preset, (_out, manifest) in preset_runs.items():
        sets = {s["name"]: (s["accepted"], s["deduped"]) for s in manifest["merge"]["sets"]}
        counts[preset] = sets
        ok &= sets == GOLDEN_COUNTS[preset]
    chain = ["off", "wordSim", "wordSim_pos", "wordSim_pos_morph"]
    totals = [sum(a for a, _ in counts[p].values()) for p in chain]
    ok &= all(a >= b for a, b in zip(totals, totals[1:]))
    rares = [counts[p]["rare_word"][0] for p in chain]
    ok &= all(a >= b for a, b in zip(rares, rares[1:]))
    print(f"  accepted along {chain}: {totals}")
    report("constraint monotonicity", ok)


def test_dictionary_mode_contract(toy, tmp_path):
    # forcing sentence filtering in dictionary mode refuses the config
    out = tmp_path / "refused"
    cfg = toy.write_config(tmp_path / "refused.cfg", out, use_sent_sim="true")
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    ok = main(["augment", "--config", str(cfg), "--mode", "dict"]) == EXIT_INPUT
    # structurally: with an unattainable LM threshold no candidate accepts
    # early, so one dictionary item's records must span every sentence id
    out2 = tmp_path / "full_scan"
    cfg2 = toy.write_config(tmp_path / "full.cfg", out2, lm_threshold="1000000")
    assert main(["prepare", "--config", str(cfg2)]) == EXIT_OK
    assert main(["augment", "--config", str(cfg2), "--mode", "dict"]) == EXIT_OK
    records = [
        json.loads(line)
        for line in (out2 / "provenance.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    zorbex_ids = {
        r["base_sentence_id"]
        for r in records
        if r["item_surface"] == ["zorbex"] and r["base_sentence_id"] is not None
    }
    base_pairs = len(toy.src_corpus.read_text(encoding="utf-8").splitlines())
    ok &= zorbex_ids == set(range(base_pairs))
    report("dictionary-mode contract", ok)


def test_determinism(toy, tmp_path):
    started = time.monotonic()
    outputs = []
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        cfg = toy.write_config(tmp_path / f"w{workers}.cfg", out, workers=workers)
        assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
        assert main(
            ["augment", "--config", str(cfg), "--mode", "both", "--ablation", "wordSim_pos_morph"]
        ) == EXIT_OK
        outputs.append(out)
    ok = True
    for name in ("corpus.src.txt", "corpus.tgt.txt", "provenance.jsonl", "manifest.json"):
        ok &= (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    elapsed = time.monotonic() - started
    ok &= elapsed < 30.0
    report("determinism", ok)


def test_lm_windows_lie_in_their_sentences(toy, tmp_path, monkeypatch):
    # `lm.stream_scores` does not check its spans: every window row that the
    # pipeline passes it must lie within its sentence, under every preset.
    cfg = toy.write_config(tmp_path / "run.cfg", tmp_path / "run")
    assert main(["prepare", "--config", str(cfg)]) == EXIT_OK
    score = pipeline.stream_scores
    rows, outside = [], []

    def checked(model, stream, windows, *args):
        ids, offsets = stream
        lengths = np.diff(offsets, append=len(ids) + 2) - 4
        for sentence, start, end in windows.tolist():
            rows.append(sentence)
            if not (0 <= sentence < len(offsets) and 0 <= start <= end < lengths[sentence]):
                outside.append((sentence, start, end))
        return score(model, stream, windows, *args)

    monkeypatch.setattr(pipeline, "stream_scores", checked)
    for preset, mode in PRESET_MODES.items():
        argv = ["augment", "--config", str(cfg), "--mode", mode, "--ablation", preset]
        assert main(argv) == EXIT_OK
    assert rows
    assert outside == []


def test_defaults_parity(preset_runs):
    _out, manifest = preset_runs["off"]
    resolved = manifest["resolved_config"]
    ok = (
        resolved["t_r"] == 1
        and resolved["alpha_src"] == -0.15
        and "alpha_tgt" not in resolved
        and resolved["lm_threshold"] == 0.6
    )
    report("defaults parity", ok)


def test_provenance_file_equals_reference_encoder(preset_runs):
    # Every line re-encoded by json's generic encoder, in file order: pins
    # the writer's bytes and its line order on a run of both modes.
    out, _ = preset_runs["wordSim_pos_morph"]
    lines = (out / "provenance.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    encoded = [
        provenance_line_reference(ReplacementRecord.from_dict(json.loads(line))) for line in lines
    ]
    kinds = {json.loads(line)["item_kind"] for line in lines}
    report("provenance bytes", kinds == {"rare_word", "dictionary"} and lines == encoded)


def test_format_round_trips(tmp_path):
    ok = True
    # Pharaoh identity
    rng = random.Random(3)
    for _ in range(50):
        links = tuple(sorted({(rng.randint(0, 30), rng.randint(0, 30)) for _ in range(rng.randint(0, 10))}))
        alignment = SentenceAlignment(links)
        ok &= import_pharaoh(export_pharaoh(alignment)) == alignment
    # ARPA within 1e-4
    sentences = [tuple(f"w{rng.randint(0, 8)}" for _ in range(rng.randint(1, 6))) for _ in range(40)]
    model = train_lm(sentences, 1)
    export_arpa(model, tmp_path / "m.arpa")
    scorer = import_arpa(tmp_path / "m.arpa")
    for w1, w2, w3 in list(model.trigrams) + [("w0", "w1", "w8"), ("zz", "w1", "w2")]:
        ok &= abs(scorer.trigram_prob(w1, w2, w3) - model.trigram_prob(w1, w2, w3)) < 1e-4
    # embedding write -> read identity at export precision
    nprng = np.random.default_rng(9)
    table = EmbeddingTable(tuple(f"t{i}" for i in range(12)), nprng.normal(size=(12, 5)))
    export_vec(table, tmp_path / "e.vec")
    again = load_embeddings(tmp_path / "e.vec")
    ok &= again.tokens == table.tokens
    for token in table.tokens:
        ok &= bool(np.all(np.abs(again.get(token) - table.get(token)) < 5e-7))
    export_vec(again, tmp_path / "e2.vec")
    ok &= (tmp_path / "e.vec").read_bytes() == (tmp_path / "e2.vec").read_bytes()
    report("format round trips", ok)
