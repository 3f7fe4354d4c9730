"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines as the
criteria execute. Synthetic corpora provide the ground truth; stated
runtime budgets are asserted alongside the numeric tolerances.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from verseshift import analysis, cli, corpus, synthgen, trainer, tropes

from _oracles import batch_gradients, batch_loss, eigenvalues_by_bisection, ols_fit
from conftest import slot_documents, stanza_documents


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} {name}{suffix}"


TRAIN_FLAGS = [
    "--dim", "40",
    "--context-window", "3",
    "--negatives", "5",
    "--epochs", "3",
    "--subsample", "0",
    "--min-count", "5",
    "--batch-size", "2048",
]
SIX_SLOT_FLAGS = ["--slots", "fixed", "--start", "1600", "--end", "1900", "--window", "50"]


def run_cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    assert rc == 0, f"command failed ({rc}): {' '.join(argv)}"


def shift_spec_dict(corpus_seed: int) -> dict:
    return {
        "slot_count": 6,
        "start_year": 1600,
        "slot_width": 50,
        "filler_words": 30,
        "tokens_per_slot": 50_000,
        "seed": corpus_seed,
        "planted": [
            {
                "word": f"shift{i:02d}",
                "kind": "abrupt_shift",
                "shift_slot": 3,
                "occurrences_per_slot": 70,
                "cluster_size": 10,
            }
            for i in range(60)
        ],
    }


def test_criterion_1_gradient_check():
    rng = np.random.default_rng(20_250_810)
    started = time.monotonic()
    worst = 0.0
    for _ in range(50):
        n_words = int(rng.integers(5, 21))
        dim = int(rng.integers(2, 9))
        n_slots = int(rng.integers(2, 5))
        size = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        base = rng.normal(scale=0.5, size=(n_words, dim)).astype(np.float32)
        deltas = rng.normal(scale=0.3, size=(n_slots, n_words, dim)).astype(np.float32)
        ctx = rng.normal(scale=0.5, size=(n_words, dim)).astype(np.float32)
        batch = trainer.TrainingBatch(
            words=rng.integers(0, n_words, size),
            slots=rng.integers(0, n_slots, size),
            contexts=rng.integers(0, n_words, size),
            negatives=rng.integers(0, n_words, (size, k)),
        )
        _, g_base, g_deltas, g_ctx = batch_gradients(base, deltas, ctx, batch)
        tensors = [base.astype(np.float64), deltas.astype(np.float64), ctx.astype(np.float64)]
        h = 1e-5
        for which, grad in ((0, g_base), (1, g_deltas), (2, g_ctx)):
            flat = tensors[which].reshape(-1)
            grad_flat = grad.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = batch_loss(*tensors, batch)
                flat[j] = orig - h
                down = batch_loss(*tensors, batch)
                flat[j] = orig
                fd = (up - down) / (2 * h)
                rel = abs(fd - grad_flat[j]) / max(abs(fd), abs(grad_flat[j]), 1.0)
                worst = max(worst, rel)
    elapsed = time.monotonic() - started
    report(
        1,
        "gradient check",
        worst < 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_pca_oracle():
    rng = np.random.default_rng(7_654_321)
    started = time.monotonic()
    worst_eig = 0.0
    worst_recon = 0.0
    from verseshift.linalg import pca

    for _ in range(100):
        n = int(rng.integers(8, 13))
        p = int(rng.integers(2, 7))
        x = rng.normal(size=(n, p)) * rng.uniform(0.2, 4.0, size=p)
        result = pca(x, p)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        ref = eigenvalues_by_bisection(cov)
        worst_eig = max(worst_eig, float(np.abs(result.eigenvalues - ref).max()))
        recon = result.projections @ result.components
        worst_recon = max(worst_recon, float(np.linalg.norm(recon - centered)))
        assert np.all(np.diff(result.explained_variance_ratio) <= 1e-12)
    elapsed = time.monotonic() - started
    report(
        2,
        "pca oracle",
        worst_eig < 1e-8 and worst_recon < 1e-8 and elapsed < 5.0,
        f"eig err {worst_eig:.2e}, recon err {worst_recon:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_planted_abrupt_shift(tmp_path):
    started = time.monotonic()
    hits = 0
    outcomes = []
    for seed in range(10):
        root = tmp_path / f"seed{seed}"
        root.mkdir()
        spec_path = root / "spec.json"
        spec_path.write_text(json.dumps(shift_spec_dict(1000 + seed)), encoding="utf-8")
        corpus_path = root / "corpus.jsonl"
        out = root / "out"
        run_cli(["synth", "--spec", str(spec_path), "--out", str(corpus_path)])
        run_cli(["ingest", "--corpus", str(corpus_path), "--out", str(out), *SIX_SLOT_FLAGS])
        run_cli(["train", "--out", str(out), *SIX_SLOT_FLAGS, *TRAIN_FLAGS, "--seed", str(2000 + seed)])
        run_cli(["changepoints", "--out", str(out), "--top-n", "90", "--k", "3"])
        rows = (out / "changepoints.csv").read_text().splitlines()[1:]
        deepest_year = int(rows[0].split(",")[1]) if rows else None
        # shift planted at the 4th slot: expected pair year 1750, one pair slack
        ok = deepest_year in (1700, 1750, 1800)
        hits += ok
        outcomes.append(deepest_year)
    elapsed = time.monotonic() - started
    report(
        3,
        "planted abrupt shift",
        hits >= 9 and elapsed < 300.0,
        f"{hits}/10 seeds (years {outcomes}), {elapsed:.0f}s",
    )


def drift_corpus(tmp_path, n_words=40, occurrences=100):
    planted = [
        synthgen.PlantedWord(
            f"drift{i:02d}", "linear_drift", drift_rate=1.0,
            occurrences_per_slot=occurrences, cluster_size=10,
        )
        for i in range(n_words)
    ]
    spec = synthgen.SynthSpec(
        slot_count=6, start_year=1600, slot_width=50, filler_words=30,
        tokens_per_slot=50_000, seed=424_242, planted=planted,
    )
    corpus_path = tmp_path / "drift.jsonl"
    synthgen.generate_jsonl(spec, corpus_path)
    stopword_path = tmp_path / "stop.txt"
    stopword_path.write_text(
        "\n".join(spec.filler_word_list() + spec.context_word_pool()) + "\n", encoding="utf-8"
    )
    return spec, corpus_path, stopword_path


def test_criterion_4_linearity(tmp_path):
    started = time.monotonic()
    spec, corpus_path, stopword_path = drift_corpus(tmp_path)
    out = tmp_path / "out"
    run_cli(["ingest", "--corpus", str(corpus_path), "--out", str(out), *SIX_SLOT_FLAGS])
    run_cli(["train", "--out", str(out), *SIX_SLOT_FLAGS, *TRAIN_FLAGS, "--seed", "77"])
    run_cli(
        ["totalsim", "--out", str(out), "--min-per-slot", "50", "--stopwords", str(stopword_path)]
    )
    distances, means = [], []
    for line in (out / "totalsim.csv").read_text().splitlines()[1:]:
        cells = line.split(",")
        if cells[1] == "all":
            distances.append(int(cells[0]))
            means.append(float(cells[8]))
    slope, _, r_squared = ols_fit(distances, means)
    elapsed = time.monotonic() - started
    report(
        4,
        "drift linearity",
        slope < 0 and r_squared > 0.8 and elapsed < 180.0,
        f"slope {slope:.2e}/yr, r2 {r_squared:.3f}, {elapsed:.0f}s",
    )


def test_criterion_5_frequency_bands(tmp_path):
    started = time.monotonic()
    low = [
        synthgen.PlantedWord(f"rare{i:02d}", "stable", occurrences_per_slot=55, cluster_size=6)
        for i in range(15)
    ]
    high = [
        synthgen.PlantedWord(f"freq{i:02d}", "stable", occurrences_per_slot=280, cluster_size=100)
        for i in range(15)
    ]
    spec = synthgen.SynthSpec(
        slot_count=6, start_year=1600, slot_width=50, filler_words=30,
        tokens_per_slot=51_000, seed=555_555, planted=low + high,
    )
    records = synthgen.generate(spec)
    stanzas = corpus.normalize(
        [corpus.Stanza(r["id"], r["poem_id"], r["author"], r["year"], r["lines"]) for r in records]
    )
    docs = stanza_documents(stanzas)
    table = corpus.build_slots(1600, 1900, 50, 50)
    vocab = corpus.build_vocab(docs, table, min_count=5)
    config = trainer.TrainConfig(
        dim=40, context_window=3, negatives=5, epochs=3,
        subsample_threshold=0.0, seed=66, batch_size=2048,
    )
    model = trainer.train(docs, vocab, table, config)
    stopwords = frozenset(spec.filler_word_list()) | frozenset(spec.context_word_pool())
    total = analysis.total_self_similarity(model, min_per_slot=50, stopwords=stopwords)
    bands = analysis.frequency_bands(total)
    assert set(bands.band_of) == {p.word for p in low + high}
    assert all(bands.band_of[p.word] == "low" for p in low)
    low_means = [s.mean for s in bands.summaries["low"]]
    high_means = [s.mean for s in bands.summaries["high"]]
    ok = all(lo >= hi for lo, hi in zip(low_means, high_means))
    elapsed = time.monotonic() - started
    gaps = ", ".join(f"{lo - hi:+.4f}" for lo, hi in zip(low_means, high_means))
    report(5, "frequency bands", ok, f"low-high gaps per distance [{gaps}], {elapsed:.0f}s")


def test_criterion_6_trope_classification():
    rng = np.random.default_rng(606_060)
    per_class = 40
    n_slots = 6
    ramp = np.linspace(0.2, 0.8, n_slots)
    shapes = {
        "high": np.full(n_slots, 0.8),
        "low": np.full(n_slots, 0.2),
        "rising": ramp,
        "falling": ramp[::-1],
    }
    names, rows = [], []
    labels = {}
    for label, shape in shapes.items():
        for i in range(per_class):
            name = f"{label}{i:03d}"
            names.append(name)
            rows.append(shape + rng.normal(scale=0.02, size=n_slots))
            labels[name] = label
    values = np.array(rows)
    trajectories = tropes.Trajectories("ziel", names, values, np.zeros(values.shape, bool))
    response = tropes.orient_components(
        tropes.trajectory_pca(trajectories, n_components=4, top_k=per_class)
    )
    placement = {
        "high": response.component_members(0, "pos"),
        "low": response.component_members(0, "neg"),
        "rising": response.component_members(1, "pos"),
        "falling": response.component_members(1, "neg"),
    }
    rates = {
        label: sum(labels[w] == label for w in members) / per_class
        for label, members in placement.items()
    }
    top_two = float(response.pca.explained_variance_ratio[:2].sum())
    ok = all(rate >= 0.9 for rate in rates.values()) and top_two > 0.9
    detail = ", ".join(f"{k} {v:.0%}" for k, v in rates.items()) + f", var(1+2) {top_two:.3f}"
    report(6, "trope classification", ok, detail)


def test_criterion_7_determinism_and_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    group_a = ["gold", "silber", "erz"]
    group_b = ["wald", "moor", "heide"]
    docs = []
    for _ in range(2):
        slot_docs = []
        for _ in range(120):
            pick = group_a if rng.random() < 0.5 else group_b
            slot_docs.append([pick[j] for j in rng.integers(0, 3, 6)])
        docs.append(slot_docs)
    table = corpus.build_slots(1700, 1800, 50, 50)
    docs = slot_documents(docs, table)
    vocab = corpus.build_vocab(docs, table, min_count=1)
    config = trainer.TrainConfig(
        dim=16, context_window=2, negatives=3, epochs=2,
        subsample_threshold=0.0, seed=12, batch_size=128,
    )
    model_a = trainer.train(docs, vocab, table, config)
    model_b = trainer.train(docs, vocab, table, config)
    identical = (
        np.array_equal(model_a.base, model_b.base)
        and np.array_equal(model_a.deltas, model_b.deltas)
        and np.array_equal(model_a.context, model_b.context)
    )

    p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    trainer.save_model(model_a, p1)
    trainer.save_model(trainer.load_model(p1), p2)
    roundtrip = p1.read_bytes() == p2.read_bytes()

    stanzas = [
        corpus.Stanza(f"s{i}", f"s{i}", "a", 1700 + i % 3, [line])
        for i, line in enumerate(["Gleiche Zeile"] * 4 + ["Andere Zeile"] * 3 + ["Dritte"] * 2)
    ]
    once = corpus.dedup_first_line(stanzas)
    dedup_idempotent = corpus.dedup_first_line(once) == once and len(once) == 3

    spec = synthgen.SynthSpec(
        slot_count=2, start_year=1600, slot_width=50, filler_words=5,
        tokens_per_slot=600, seed=31, planted=[synthgen.PlantedWord("kern", occurrences_per_slot=10)],
    )
    g1, g2 = tmp_path / "g1.jsonl", tmp_path / "g2.jsonl"
    synthgen.generate_jsonl(spec, g1)
    synthgen.generate_jsonl(spec, g2)
    synth_stable = g1.read_bytes() == g2.read_bytes()

    ok = identical and roundtrip and dedup_idempotent and synth_stable
    report(
        7,
        "determinism and round-trips",
        ok,
        f"train identical {identical}, file roundtrip {roundtrip}, "
        f"dedup idempotent {dedup_idempotent}, synth stable {synth_stable}",
    )
