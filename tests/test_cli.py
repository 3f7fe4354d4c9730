from __future__ import annotations

import csv
import json
import os
import struct
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from verseshift import cli, corpus, linalg, svgplot, synthgen, trainer, tropes

from _oracles import trajectory_values_unblocked

from conftest import (
    TINY_BASE,
    TINY_CACHE_COUNTS,
    TINY_CACHE_TYPES,
    TINY_CACHE_YEARS,
    TINY_DELTA1,
    TINY_GLOBAL_COUNT0,
    TINY_SLOT_COUNT0,
    TINY_SLOT_YEARS,
    TINY_WORD0,
    make_model,
    random_model,
    write_tiny_cache,
    write_tiny_model,
)

SLOT_FLAGS = ["--slots", "fixed", "--start", "1600", "--end", "1800", "--window", "50"]
TRAIN_FLAGS = [
    "--dim", "16",
    "--epochs", "2",
    "--context-window", "2",
    "--negatives", "3",
    "--subsample", "0",
    "--min-count", "1",
    "--seed", "7",
]


def pipeline_spec():
    planted = [
        synthgen.PlantedWord(f"stab{i}", "stable", occurrences_per_slot=30, cluster_size=6)
        for i in range(4)
    ] + [
        synthgen.PlantedWord("bruch", "abrupt_shift", shift_slot=2, occurrences_per_slot=30, cluster_size=6)
    ]
    return synthgen.SynthSpec(
        slot_count=4,
        start_year=1600,
        slot_width=50,
        filler_words=10,
        tokens_per_slot=3000,
        seed=13,
        planted=planted,
    )


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """synth + ingest + train once; commands under test reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    corpus_path = root / "corpus.jsonl"
    synthgen.generate_jsonl(pipeline_spec(), corpus_path)
    out = root / "out"
    rc = cli.main(["ingest", "--corpus", str(corpus_path), "--out", str(out), *SLOT_FLAGS])
    assert rc == 0
    rc = cli.main(["train", "--out", str(out), *SLOT_FLAGS, *TRAIN_FLAGS])
    assert rc == 0
    return {"root": root, "out": out, "corpus": corpus_path}


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_single_titled_svg(path: Path):
    tree = ET.parse(path)  # raises on malformed XML
    ns = "{http://www.w3.org/2000/svg}"
    titles = tree.getroot().findall(f"{ns}title")
    assert len(titles) == 1


class TestSynthCommand:
    def test_spec_file_roundtrip(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "slot_count": 2,
                    "start_year": 1700,
                    "slot_width": 50,
                    "filler_words": 4,
                    "tokens_per_slot": 500,
                    "seed": 3,
                    "planted": [{"word": "rose", "occurrences_per_slot": 5}],
                }
            ),
            encoding="utf-8",
        )
        out = tmp_path / "corpus.jsonl"
        assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert out.exists() and out.read_text().count("\n") == 100

    def test_missing_spec_is_usage_error(self, tmp_path):
        assert cli.main(["synth", "--out", str(tmp_path / "x.jsonl")]) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            {"bogus": 1},
            {"planted": [5]},
            [1, 2],
            {"slot_count": "six"},
            {"planted": [{"word": "rose", "context_words": "abc"}]},
            {"planted": [{"kind": "stable"}]},
            {"seed": -3},
        ],
        ids=["unknown-key", "planted-not-object", "not-object", "wrong-type", "string-for-list", "missing-word",
             "negative-seed"],
    )
    def test_malformed_spec_exits_two(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_spec_exits_two_naming_file_and_line(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(b'{\r\n"seed": 1,\r\n"planted": ["\xff"]}')
        out = tmp_path / "corpus.jsonl"
        assert cli.main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert f"error: {spec_path}: line 3 is not UTF-8 (invalid start byte)" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        assert cli.main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(out), "--seed", "-5"]) == 1
        assert "--seed must be at least 0" in capsys.readouterr().err
        assert not out.exists()


class TestIngestCommand:
    def test_stats_match_generator_arithmetic(self, workspace):
        stats = json.loads((workspace["out"] / "ingest_stats.json").read_text())
        spec = pipeline_spec()
        n_stanzas = sum(1 for _ in open(workspace["corpus"]))
        assert stats["stanzas"] == n_stanzas
        assert stats["tokens"] == n_stanzas * spec.stanza_tokens
        assert stats["authors"] == 1
        assert stats["poems"] == n_stanzas
        assert len(stats["slot_histogram"]) == 4
        assert sum(e["stanzas"] for e in stats["slot_histogram"]) + stats[
            "out_of_slot_range"
        ] == n_stanzas - stats["duplicates_removed"]

    def test_empty_corpus_exits_zero(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        rc = cli.main(["ingest", "--corpus", str(empty), "--out", str(out), *SLOT_FLAGS])
        assert rc == 0
        stats = json.loads((out / "ingest_stats.json").read_text())
        assert stats["stanzas"] == 0

    def test_unreadable_corpus_exits_two(self, tmp_path):
        rc = cli.main(["ingest", "--corpus", str(tmp_path / "no.jsonl"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unicode_line_separators_inside_stanzas(self, tmp_path):
        # U+2028 and U+0085 are line breaks to str.splitlines but not to JSON Lines
        records = synthgen.generate(pipeline_spec())
        for i, rec in enumerate(records):
            sep = "\u2028" if i % 2 else "\u0085"
            rec["lines"] = [line.replace(" ", sep, 1) for line in rec["lines"]]
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8"
        )
        out = tmp_path / "out"
        assert cli.main(["ingest", "--corpus", str(corpus_path), "--out", str(out), *SLOT_FLAGS]) == 0
        stats = json.loads((out / "ingest_stats.json").read_text())
        assert stats["stanzas"] == len(records)
        assert stats["dropped_malformed"] == 0
        assert cli.main(["train", "--out", str(out), *SLOT_FLAGS, *TRAIN_FLAGS]) == 0
        assert trainer.load_model(out / "model.bin").n_slots == 4


class TestTrainCommand:
    def test_missing_cache_actionable(self, tmp_path, capsys):
        rc = cli.main(["train", "--out", str(tmp_path / "fresh"), *SLOT_FLAGS, *TRAIN_FLAGS])
        assert rc == 2
        assert "ingest" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_line", ['{"tokens": ["a"]}', "5", '{"id":"x","year":1700,"tokens":7}'])
    def test_malformed_cache_line_exits_two(self, tmp_path, capsys, bad_line):
        """A JSON Lines cache, the format ingest wrote before the binary cache, is refused as a whole."""
        cache = tmp_path / "cache.jsonl"
        good = {"id": "s1", "author": "a", "year": 1610, "lines": ["x y"], "tokens": ["x", "y"]}
        cache.write_text(json.dumps(good) + "\n" + bad_line + "\n", encoding="utf-8")
        rc = cli.main(["train", "--out", str(tmp_path), "--cache", str(cache), *SLOT_FLAGS, *TRAIN_FLAGS])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{cache} is not a normalized corpus cache" in err and "run the ingest command" in err

    def test_sliding_table_slot_count(self, workspace, tmp_path):
        out = workspace["out"]
        model_path = tmp_path / "sliding.bin"
        rc = cli.main(
            [
                "train",
                "--out", str(out),
                "--model", str(model_path),
                "--slots", "sliding",
                "--start", "1600",
                "--end", "1800",
                "--window", "50",
                "--step", "25",
                *TRAIN_FLAGS,
            ]
        )
        assert rc == 0
        model = trainer.load_model(model_path)
        assert model.n_slots == 7  # (200 - 50) / 25 + 1

    def test_retrain_is_byte_identical(self, workspace, tmp_path):
        out = workspace["out"]
        m1, m2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        for target in (m1, m2):
            rc = cli.main(["train", "--out", str(out), "--model", str(target), *SLOT_FLAGS, *TRAIN_FLAGS])
            assert rc == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_unallocatable_model_exits_two(self, workspace, tmp_path):
        # 2**40 dimensions fit the int64 range but not memory: numpy raises MemoryError
        argv = ["train", "--out", str(workspace["out"]), "--model", str(tmp_path / "m.bin"), *SLOT_FLAGS, *TRAIN_FLAGS]
        assert cli.main([*argv, "--dim", str(2**40)]) == 2

    @pytest.mark.parametrize("over_cap", [False, True])
    def test_workers_out_of_range_rejected_before_threads(self, workspace, tmp_path, monkeypatch, over_cap):
        workers = trainer.max_workers() + 1 if over_cap else 0

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(trainer, "ThreadPoolExecutor", no_pool)
        threads_before = threading.active_count()
        model_path = tmp_path / "never.bin"
        rc = cli.main(
            ["train", "--out", str(workspace["out"]), "--model", str(model_path),
             *SLOT_FLAGS, *TRAIN_FLAGS, "--workers", str(workers)]
        )
        assert rc == 1
        assert threading.active_count() == threads_before
        assert not model_path.exists()

    def test_workers_bound_by_cpu_affinity(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # pinned to one CPU
        model_path = tmp_path / "never.bin"
        rc = cli.main(
            ["train", "--out", str(workspace["out"]), "--model", str(model_path),
             *SLOT_FLAGS, *TRAIN_FLAGS, "--workers", "2"]
        )
        assert rc == 1
        assert not model_path.exists()


    def test_out_of_range_stanza_warned_once(self, tmp_path, caplog):
        corpus_path = tmp_path / "corpus.jsonl"
        records = [{"id": f"s{i}", "author": "a", "year": year, "lines": [f"a b a b {i}"]}
                   for i, year in enumerate([1610, 1660, 1710, 1760, 1590])]  # 1590 precedes the first slot
        corpus_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["ingest", "--corpus", str(corpus_path), "--out", str(out), *SLOT_FLAGS]) == 0
        assert json.loads((out / "ingest_stats.json").read_text())["out_of_slot_range"] == 1
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert cli.main(["train", "--out", str(out), *SLOT_FLAGS, *TRAIN_FLAGS]) == 0
        assert sum("stanzas fall outside all time slots" in m for m in caplog.messages) == 1
        assert "1 stanzas fall outside all time slots" in caplog.messages


class TestSelfsimCommand:
    def test_outputs(self, workspace):
        out = workspace["out"]
        rc = cli.main(["selfsim", "--out", str(out), "--top-n", "5"])
        assert rc == 0
        header, rows = read_csv(out / "selfsim.csv")
        assert header == ["slot_start", "slot_end", "n", "median", "q1", "q3", "p5", "p95", "mean"]
        assert [r[0] for r in rows] == ["1600", "1650", "1700"]
        assert [r[1] for r in rows] == ["1650", "1700", "1750"]
        assert_single_titled_svg(out / "selfsim.svg")

    def test_idempotent_outputs(self, workspace):
        out = workspace["out"]
        assert cli.main(["selfsim", "--out", str(out), "--top-n", "5"]) == 0
        first = (out / "selfsim.csv").read_bytes(), (out / "selfsim.svg").read_bytes()
        assert cli.main(["selfsim", "--out", str(out), "--top-n", "5"]) == 0
        second = (out / "selfsim.csv").read_bytes(), (out / "selfsim.svg").read_bytes()
        assert first == second

    def test_missing_model_exits_two(self, tmp_path):
        assert cli.main(["selfsim", "--out", str(tmp_path)]) == 2

    def test_junk_model_exits_two(self, tmp_path):
        bad = tmp_path / "model.bin"
        bad.write_bytes(b"garbage here")
        assert cli.main(["selfsim", "--out", str(tmp_path), "--model", str(bad)]) == 2

    def test_oversized_header_exits_two(self, tmp_path):
        bad = tmp_path / "model.bin"
        header = struct.pack("<IIIIiiii", trainer.MODEL_VERSION, 100, 2**32 - 1, 2, 1600, 1650, 1650, 1700)
        bad.write_bytes(trainer.MODEL_MAGIC + header)
        assert cli.main(["selfsim", "--out", str(tmp_path), "--model", str(bad)]) == 2

    @pytest.mark.parametrize(
        "offset, raw",
        [
            (TINY_GLOBAL_COUNT0, struct.pack("<Q", 2**63)),
            (TINY_SLOT_COUNT0, struct.pack("<Q", 2**64 - 1)),
            (TINY_WORD0, b"\xff"),
            (TINY_SLOT_YEARS, struct.pack("<iiii", 1650, 1700, 1600, 1650)),
        ],
        ids=["global-count", "slot-count", "utf8-word", "slot-years"],
    )
    def test_corrupt_model_field_exits_two(self, tmp_path, capsys, offset, raw):
        bad = tmp_path / "model.bin"
        write_tiny_model(bad, offset, raw)
        assert cli.main(["selfsim", "--out", str(tmp_path), "--model", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "offset, value", [(TINY_BASE, np.nan), (TINY_DELTA1 + 4, np.inf)], ids=["nan-base", "inf-delta"]
    )
    def test_non_finite_model_exits_two(self, tmp_path, capsys, offset, value):
        bad = tmp_path / "model.bin"
        write_tiny_model(bad, offset, np.float32(value).astype("<f4").tobytes())
        assert cli.main(["selfsim", "--out", str(tmp_path), "--model", str(bad)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "selfsim.csv").exists()


@pytest.mark.parametrize("command", ["selfsim", "changepoints"])
def test_no_measurable_pair_exits_two_naming_it(tmp_path, capsys, command):
    counts = np.array([[5, 0], [0, 5], [5, 0]])  # no two adjacent slots share a word
    model = make_model(["a", "b"], [1600, 1650, 1700], np.eye(2), np.zeros((3, 2, 2)), slot_counts=counts)
    model_path, out = tmp_path / "model.bin", tmp_path / "out"
    trainer.save_model(model, model_path)
    assert cli.main([command, "--out", str(out), "--model", str(model_path), "--top-n", "2"]) == 2
    assert "error: no adjacent slot pair shares a measured word" in capsys.readouterr().err
    assert not out.exists()


def test_one_slot_totalsim_exits_two_naming_it(tmp_path, capsys):
    model = make_model(["a", "b"], [1600], np.eye(2), np.zeros((1, 2, 2)))
    model_path, out = tmp_path / "model.bin", tmp_path / "out"
    trainer.save_model(model, model_path)
    assert cli.main(["totalsim", "--out", str(out), "--model", str(model_path), "--min-per-slot", "1"]) == 2
    assert "error: need at least 2 slots for total self-similarity" in capsys.readouterr().err
    assert not out.exists()


def test_more_components_than_slots_exits_two_naming_both(tmp_path, capsys):
    words = ["ziel", *(f"kandidat{i}" for i in range(8))]
    rng = np.random.default_rng(5)
    model = make_model(words, [1600, 1650], rng.normal(size=(len(words), 3)), rng.normal(size=(2, len(words), 3)),
                       global_counts=[100] * len(words))
    model_path, out = tmp_path / "model.bin", tmp_path / "out"
    trainer.save_model(model, model_path)
    argv = ["tropes", "--out", str(out), "--model", str(model_path), "--target", "ziel",
            "--min-global", "1", "--min-per-slot", "2", "--top-k", "3", "--components", "3"]
    assert cli.main(argv) == 2
    assert "error: 3 components need at least 3 slots; the model has 2" in capsys.readouterr().err
    assert not out.exists()


def test_control_characters_in_words_give_well_formed_svg(tmp_path):
    """Tokenizing keeps C0 controls in words; every figure still parses as XML."""
    words = ["t\x01", "k\x02", "k\x1f\ufffe", *(f"kandidat{i}" for i in range(5))]
    rng = np.random.default_rng(5)
    model = make_model(words, [1600, 1650, 1700, 1750], rng.normal(size=(len(words), 3)),
                       rng.normal(size=(4, len(words), 3)), global_counts=[100] * len(words))
    model_path, out = tmp_path / "model.bin", tmp_path / "out"
    trainer.save_model(model, model_path)
    argv = ["tropes", "--out", str(out), "--model", str(model_path), "--target", "t\x01",
            "--min-global", "1", "--min-per-slot", "2", "--top-k", "3", "--components", "2"]
    assert cli.main(argv) == 0
    svgs = sorted(out.glob("trope_*.svg"))
    assert len(svgs) == 4
    for path in svgs:
        assert_single_titled_svg(path)


class TestChangepointsCommand:
    def test_outputs(self, workspace):
        out = workspace["out"]
        rc = cli.main(["changepoints", "--out", str(out), "--top-n", "5", "--k", "2"])
        assert rc == 0
        header, rows = read_csv(out / "changepoints.csv")
        assert header == ["rank", "year", "depth"]
        for rank, row in enumerate(rows, start=1):
            assert int(row[0]) == rank


class TestTotalsimCommand:
    def test_outputs(self, workspace, capsys):
        out = workspace["out"]
        rc = cli.main(["totalsim", "--out", str(out), "--min-per-slot", "10"])
        assert rc == 0
        header, rows = read_csv(out / "totalsim.csv")
        assert header == ["distance_years", "band", "n", "median", "q1", "q3", "p5", "p95", "mean"]
        bands = {r[1] for r in rows}
        assert bands == {"all", "low", "high"}
        distances = sorted({int(r[0]) for r in rows})
        assert distances == [50, 100, 150]
        assert "linear fit" in capsys.readouterr().out
        assert_single_titled_svg(out / "totalsim.svg")

    def test_threshold_too_high_exits_two(self, workspace):
        rc = cli.main(["totalsim", "--out", str(workspace["out"]), "--min-per-slot", "100000"])
        assert rc == 2


class TestTropesCommand:
    def test_outputs(self, workspace):
        out = workspace["out"]
        rc = cli.main(
            [
                "tropes",
                "--out", str(out),
                "--target", "stab0",
                "--min-global", "10",
                "--min-per-slot", "2",
                "--top-k", "5",
                "--components", "2",
            ]
        )
        assert rc == 0
        svgs = sorted(p.name for p in out.glob("trope_*.svg"))
        assert svgs == ["trope_falling.svg", "trope_high.svg", "trope_low.svg", "trope_rising.svg"]
        for name in svgs:
            assert_single_titled_svg(out / name)
        header, rows = read_csv(out / "report.csv")
        assert header == ["component", "end", "rank", "candidate", "projection"]
        assert {r[0] for r in rows} == {"1", "2"}
        header, rows = read_csv(out / "trajectories.csv")
        assert header == ["target", "candidate", "slot_start", "value", "imputed"]
        assert {r[0] for r in rows} == {"stab0"}

    def test_unknown_target_exits_two(self, workspace):
        rc = cli.main(["tropes", "--out", str(workspace["out"]), "--target", "nirgendwo"])
        assert rc == 2

    def test_trajectories_csv_bytes_match_csv_writer(self, tmp_path):
        # names that force quoting (a comma, a quote, and a \r, which only the
        # \r\n terminator quotes) or could be read as a %-format
        words = ["ziel", "a,b", 'sag "ja"', "wa\rgen", "pro%d", "schlicht"]
        counts = np.full((4, len(words)), 5)
        counts[1, 2] = 0  # 'sag "ja"' is imputed at slot 1
        rng = np.random.default_rng(11)
        model = make_model(
            words, [1600, 1650, 1700, 1750],
            base=rng.normal(size=(len(words), 3)), deltas=rng.normal(size=(4, len(words), 3)),
            slot_counts=counts, global_counts=[100] * len(words),
        )
        model_path, out = tmp_path / "model.bin", tmp_path / "out"
        trainer.save_model(model, model_path)
        argv = ["tropes", "--out", str(out), "--model", str(model_path), "--target", "ziel",
                "--min-global", "1", "--min-per-slot", "2", "--top-k", "2", "--components", "2"]
        assert cli.main(argv) == 0

        trajectories = tropes.build_trajectories(trainer.load_model(model_path), "ziel", min_global=1, min_per_slot=2)
        assert trajectories.candidates == words[1:]
        assert trajectories.imputed.any(axis=1).sum() == 1
        reference = tmp_path / "reference.csv"
        with open(reference, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["target", "candidate", "slot_start", "value", "imputed"])
            for name, values, imputed in zip(trajectories.candidates, trajectories.values, trajectories.imputed):
                for start, v, imp in zip([1600, 1650, 1700, 1750], values, imputed):
                    writer.writerow([trajectories.target, name, start, f"{v:.6f}", int(imp)])
        assert (out / "trajectories.csv").read_bytes() == reference.read_bytes()

    def test_report_and_class_svgs_match_reference(self, tmp_path):
        # 2-d vectors: the target at angle 0, each candidate at its own angle per slot,
        # drifting from a level with a slope; k06 repeats k05, so their projections tie
        rng = np.random.default_rng(0)
        n, n_slots, top_k = 12, 5, 3
        level = rng.uniform(0.2, 1.2, n)
        slope = rng.uniform(-0.15, 0.15, n)
        angles = level[:, None] + slope[:, None] * np.arange(n_slots) + rng.normal(scale=0.03, size=(n, n_slots))
        angles[6] = angles[5]
        names = [f"k{i:02d}" for i in range(n)]
        starts = [1600 + 50 * t for t in range(n_slots)]
        deltas = np.zeros((n_slots, n + 1, 2))
        deltas[:, 0, 0] = 1.0
        deltas[:, 1:] = np.stack([np.cos(angles.T), np.sin(angles.T)], axis=-1)
        model = make_model(["ziel", *names], starts, np.zeros((n + 1, 2)), deltas, global_counts=[100] * (n + 1))
        model_path, out = tmp_path / "model.bin", tmp_path / "out"
        trainer.save_model(model, model_path)
        argv = ["tropes", "--out", str(out), "--model", str(model_path), "--target", "ziel",
                "--min-global", "1", "--min-per-slot", "1", "--top-k", str(top_k), "--components", "3"]
        assert cli.main(argv) == 0

        # reference: PCA of the stacked trajectories; components 1 and 2 point to the end whose
        # extremes have the higher mean level and mean least-squares slope; extremes sorted afresh
        values = trajectory_values_unblocked(
            trainer.load_model(model_path), 0, np.arange(1, n + 1), np.zeros((n, n_slots), bool)
        )
        projections = linalg.pca(values, 3).projections.copy()
        rows = np.arange(n)

        def ends(c):
            return np.lexsort((rows, -projections[:, c]))[:top_k], np.lexsort((rows, projections[:, c]))[:top_k]

        xs = np.arange(n_slots, dtype=np.float64)
        flipped = []
        for c, stat in enumerate((lambda r: values[r].mean(), lambda r: np.polyfit(xs, values[r], 1)[0])):
            pos, neg = ends(c)
            flipped.append(np.mean([stat(r) for r in pos]) < np.mean([stat(r) for r in neg]))
            projections[:, c] *= -1.0 if flipped[-1] else 1.0
        assert flipped == [False, True]
        rising, falling = ends(1)
        assert projections[5, 1] == projections[6, 1]
        assert rising.tolist()[-1] == 5 and 6 not in rising  # row order breaks the tie at the cut

        expected = tmp_path / "report.csv"
        with open(expected, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["component", "end", "rank", "candidate", "projection"])
            for c in range(3):
                for end, order in zip(("pos", "neg"), ends(c)):
                    for rank, r in enumerate(order, start=1):
                        writer.writerow([c + 1, end, rank, names[r], f"{projections[r, c]:.6f}"])
        assert (out / "report.csv").read_bytes() == expected.read_bytes()
        for label, order in (("rising", rising), ("falling", falling)):
            svg = svgplot.render_line_plot(
                f"ziel: {label} trajectories", [float(s) for s in starts],
                [(names[r], list(values[r])) for r in order], "slot start year", "cosine similarity",
            )
            assert (out / f"trope_{label}.svg").read_text(encoding="utf-8") == svg

    @pytest.mark.parametrize("n_candidates,code", [(6, 0), (5, 2)], ids=["2k-equals-n", "2k-above-n"])
    def test_top_k_bound(self, tmp_path, n_candidates, code):
        words = ["ziel", *(f"kandidat{i}" for i in range(n_candidates))]
        rng = np.random.default_rng(5)
        model = make_model(
            words, [1600, 1650, 1700, 1750],
            base=rng.normal(size=(len(words), 3)), deltas=rng.normal(size=(4, len(words), 3)),
            global_counts=[100] * len(words),
        )
        model_path, out = tmp_path / "model.bin", tmp_path / "out"
        trainer.save_model(model, model_path)
        argv = ["tropes", "--out", str(out), "--model", str(model_path), "--target", "ziel",
                "--min-global", "1", "--min-per-slot", "2", "--top-k", "3", "--components", "2"]
        assert cli.main(argv) == code
        if code:
            assert not out.exists()
        else:
            assert len(read_csv(out / "report.csv")[1]) == 2 * 2 * 3  # components x ends x top-k


class TestMergeFirst:
    def test_merged_first_slot_in_histogram(self, workspace, tmp_path):
        out = tmp_path / "merged"
        rc = cli.main(
            [
                "ingest",
                "--corpus", str(workspace["corpus"]),
                "--out", str(out),
                *SLOT_FLAGS,
                "--merge-first",
            ]
        )
        assert rc == 0
        stats = json.loads((out / "ingest_stats.json").read_text())
        labels = [e["label"] for e in stats["slot_histogram"]]
        assert labels == ["1600-1700", "1700-1750", "1750-1800"]


class TestNumericFailureExitCode:
    def test_numeric_error_maps_to_three(self, workspace, monkeypatch):
        from verseshift import trainer as trainer_module

        def explode(*args, **kwargs):
            raise trainer_module.NumericError("synthetic failure")

        monkeypatch.setattr(trainer_module, "train", explode)
        rc = cli.main(["train", "--out", str(workspace["out"]), *SLOT_FLAGS, *TRAIN_FLAGS])
        assert rc == 3


class TestInterruptExitCode:
    def test_ctrl_c_exits_130_with_one_line_and_no_traceback(self, workspace, monkeypatch, capsys):
        def interrupted(ns):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_selfsim", interrupted)
        assert cli.main(["selfsim", "--out", str(workspace["out"])]) == 130
        err = capsys.readouterr().err
        assert err == "interrupted\n"


def test_model_truncated_after_its_load_exits_two(tmp_path, monkeypatch, capsys):
    n_words = 20_000
    path = tmp_path / "m.bin"
    trainer.save_model(random_model(n_words, 4, 50, 28), path)
    load = trainer.load_model

    def load_then_truncate(model_path):
        loaded = load(model_path)
        os.truncate(model_path, 3 << 20)  # in place, as another program might
        return loaded

    monkeypatch.setattr(trainer, "load_model", load_then_truncate)
    rc = cli.main(["selfsim", "--out", str(tmp_path / "out"), "--model", str(path), "--top-n", str(n_words)])
    assert rc == 2
    assert f"truncated model file {path}" in capsys.readouterr().err


def slot_source(command, workspace):
    """The input flag of ingest (the corpus) or train (the normalized cache)."""
    if command == "ingest":
        return ["--corpus", str(workspace["corpus"])]
    return ["--cache", str(workspace["out"] / "normalized.bin")]


class TestHugeIntegers:
    """Integers that pass the type checks but would lay out or scan without end."""

    @staticmethod
    def run_cli(argv):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        return subprocess.run([sys.executable, "-m", "verseshift.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=30)

    @pytest.mark.parametrize("command", ["ingest", "train"])
    def test_year_beyond_range_exits_two(self, workspace, tmp_path, command):
        out = tmp_path / "out"
        argv = [command, "--out", str(out), *slot_source(command, workspace), *SLOT_FLAGS, "--end", str(10**18)]
        done = self.run_cli(argv)
        assert done.returncode == 2
        assert "must be years in 1000..2100" in done.stderr
        assert not out.exists()

    def test_window_beyond_longest_document_trains_as_that_window(self, workspace, tmp_path):
        longest = int(corpus.load_normalized(workspace["out"] / "normalized.bin").lengths.max())
        assert longest > 2  # wider than the window of TRAIN_FLAGS
        huge, exact = tmp_path / "huge.bin", tmp_path / "exact.bin"
        argv = ["train", "--out", str(workspace["out"]), *SLOT_FLAGS, *TRAIN_FLAGS, "--context-window"]
        assert self.run_cli([*argv, str(10**18), "--model", str(huge)]).returncode == 0
        assert cli.main([*argv, str(longest), "--model", str(exact)]) == 0
        assert huge.read_bytes() == exact.read_bytes()


class TestSlotLayoutBeforeOutput:
    @pytest.mark.parametrize("command", ["ingest", "train"])
    @pytest.mark.parametrize("bad", [["--window", "70"], ["--end", "1790"]], ids=["window", "end"])
    def test_bad_slot_layout_creates_no_output_dir(self, workspace, tmp_path, command, bad):
        out = tmp_path / "out"
        assert cli.main([command, "--out", str(out), *slot_source(command, workspace), *SLOT_FLAGS, *bad]) == 2
        assert not out.exists()


class TestNoOutputOnFailure:
    """A command that fails makes no --out: it computes every result before its first write."""

    @pytest.mark.parametrize("command", ["selfsim", "changepoints", "totalsim", "tropes"])
    def test_missing_model(self, tmp_path, command):
        out = tmp_path / "out"
        assert cli.main([command, "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_cache(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["train", "--out", str(out), *SLOT_FLAGS, *TRAIN_FLAGS]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["truncated", "bit-flip", "inflated", "non-utf8"])
    def test_damaged_cache_exits_two_naming_it(self, tmp_path, capsys, damage):
        cache, out = tmp_path / "normalized.bin", tmp_path / "out"
        data = bytearray(write_tiny_cache(cache))
        if damage == "truncated":
            del data[-1]
        elif damage == "bit-flip":
            data[TINY_CACHE_YEARS + 2] ^= 0x10  # the first year grows by 2**20
        elif damage == "inflated":
            data[TINY_CACHE_COUNTS + 16 : TINY_CACHE_COUNTS + 24] = struct.pack("<Q", 2**40)  # documents
        else:
            data[TINY_CACHE_TYPES] = 0xFF
        cache.write_bytes(bytes(data))
        assert cli.main(["train", "--cache", str(cache), "--out", str(out), *SLOT_FLAGS, *TRAIN_FLAGS]) == 2
        err = capsys.readouterr().err
        assert str(cache) in err and "run the ingest command" in err
        assert not out.exists()

    def test_epoch_beyond_pair_code_bound_exits_two_naming_it(self, workspace, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trainer, "MAX_EPOCH_CODES", 1000)
        out = tmp_path / "out"
        assert cli.main(["train", "--out", str(out), *slot_source("train", workspace), *SLOT_FLAGS, *TRAIN_FLAGS]) == 2
        assert "more than the 1000 codes its uint32 pairs can hold" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_corpus(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["ingest", "--corpus", str(tmp_path / "no.jsonl"), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["tropes", "--target", "stab0", "--min-global", "10", "--components", "1000"],
            ["tropes", "--target", "nirgendwo"],
            ["totalsim", "--min-per-slot", "100000"],
        ],
        ids=["tropes-components", "tropes-target", "totalsim-threshold"],
    )
    def test_analysis_data_error(self, workspace, tmp_path, argv):
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out), "--model", str(workspace["out"] / "model.bin")]) == 2
        assert not out.exists()


def test_trace_harness_reads_every_command(tmp_path):
    """Each command the benchmark runs exits 0 under --trace 1, records its spans, and the
    result fields the trace wrappers read (stanzas, tokens, batch words, slot tokens) exist."""
    root = Path(__file__).resolve().parent.parent
    corpus_path = tmp_path / "corpus.jsonl"
    synthgen.generate_jsonl(pipeline_spec(), corpus_path)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    spans, counts = set(), {}
    for argv in (
        ["ingest", "--corpus", str(corpus_path), "--out", str(out), *SLOT_FLAGS],
        ["train", "--out", str(out), *SLOT_FLAGS, *TRAIN_FLAGS, "--epochs", "1"],
        ["selfsim", "--out", str(out), "--top-n", "20"],
        ["changepoints", "--out", str(out), "--top-n", "20"],
        ["totalsim", "--out", str(out), "--min-per-slot", "5"],
        ["tropes", "--out", str(out), "--target", "stab0", "--min-global", "10", "--min-per-slot", "2",
         "--top-k", "5", "--components", "2"],
    ):
        result = tmp_path / f"{argv[0]}.json"
        proc = subprocess.run(
            [sys.executable, str(root / "vsbench" / "child.py"), str(result), "1", *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (argv[0], proc.stderr[-2000:])
        traced = json.loads(result.read_text())
        spans |= {span[0] for span in traced["spans"]}
        counts |= traced["counts"]
    assert {f"cli.{name}" for name in ("ingest", "train", "selfsim", "changepoints", "totalsim", "tropes")} <= spans
    assert {
        "corpus.ingest", "corpus.normalize", "corpus.dedup_first_line", "corpus.assign_slots", "corpus.build_vocab",
        "corpus.save_normalized", "corpus.load_normalized", "trainer.train", "trainer.sgd_step",
        "trainer.save_model", "trainer.load_model", "analysis.pairwise_self_similarity",
        "analysis.detect_change_points", "analysis.total_self_similarity", "analysis.frequency_bands",
        "analysis.linearity_fit", "linalg.rowwise_cosine", "tropes.build_trajectories", "tropes.trajectory_pca",
        "tropes.orient_components", "linalg.pca", "svgplot.render",
    } <= spans
    for name in ("corpus.stanzas", "corpus.tokens", "corpus.slot_tokens", "corpus.vocab_words", "corpus.cache_bytes",
                 "trainer.pairs", "trainer.model_bytes", "tropes.trajectories"):
        assert counts.get(name, 0) > 0, name


def test_synthetic_study_finds_the_planted_shift(tmp_path):
    """The README quick start writes every report and puts its deepest change point at 1750, as it promises."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "study"
    proc = subprocess.run([sys.executable, str(root / "scripts" / "synthetic_study.py"), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    reports = {"ingest_stats.json", "model.bin", "normalized.bin", "selfsim.csv", "selfsim.svg", "changepoints.csv",
               "totalsim.csv", "totalsim.svg", "trajectories.csv", "report.csv",
               *(f"trope_{name}.svg" for name in ("high", "low", "rising", "falling"))}
    assert reports <= {path.name for path in out.iterdir()}
    with open(out / "changepoints.csv", newline="", encoding="utf-8") as f:
        assert next(csv.DictReader(f))["year"] == "1750"


BOM_CASES = {"config": "config.json", "corpus": "corpus.jsonl", "lemma_map": "lemmas.tsv", "spec": "spec.json",
             "stopwords": "stopwords.txt"}  # the input file that starts with a BOM in each case


@pytest.mark.parametrize("case", sorted(BOM_CASES))
def test_leading_byte_order_mark_is_ignored(workspace, tmp_path, caplog, capsys, case):
    """A text input that starts with a UTF-8 BOM gives the exit code, stdout, log lines and outputs it gives without."""
    model = workspace["out"] / "model.bin"
    words = trainer.load_model(model).vocab.words
    seen = []
    for bom in ("", "\ufeff"):
        d = tmp_path / ("bom" if bom else "plain")
        out = d / "out"
        out.mkdir(parents=True)
        texts = {  # the third line of the corpus and of the lemma map is malformed
            "corpus.jsonl": "".join(
                "{broken\n" if i == 2 else
                json.dumps({"id": f"s{i}", "author": "a", "year": 1610 + 50 * i, "lines": [f"geht die nacht {i}"]}) + "\n"
                for i in range(5)
            ),
            "lemmas.tsv": "geht\tgehen\nnacht\tnacht\nnur-eine-spalte\n",
            "stopwords.txt": "\n".join(words[:3]) + "\n",  # the model's most frequent words
            "config.json": json.dumps({"out": str(out), "model": str(model), "analysis": {"top_n": 5}}),
            "spec.json": json.dumps({"slot_count": 2, "start_year": 1700, "slot_width": 50, "filler_words": 4,
                                     "tokens_per_slot": 200, "seed": 3}),
        }
        for name, text in texts.items():
            (d / name).write_text((bom if name == BOM_CASES[case] else "") + text, encoding="utf-8")
        argv = {
            "config": ["selfsim", "--config", str(d / "config.json")],
            "corpus": ["ingest", "--corpus", str(d / "corpus.jsonl"), "--out", str(out), *SLOT_FLAGS],
            "lemma_map": ["ingest", "--corpus", str(d / "corpus.jsonl"), "--lemma-map", str(d / "lemmas.tsv"),
                          "--out", str(out), *SLOT_FLAGS],
            "spec": ["synth", "--spec", str(d / "spec.json"), "--out", str(out / "corpus.jsonl")],
            "stopwords": ["totalsim", "--model", str(model), "--stopwords", str(d / "stopwords.txt"),
                          "--min-per-slot", "0", "--out", str(out)],
        }[case]
        capsys.readouterr()
        caplog.clear()
        rc = cli.main(argv)
        outputs = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        printed = capsys.readouterr().out.replace(str(d), "<dir>")
        logged = [m.replace(str(d), "<dir>") for m in caplog.messages]
        seen.append((rc, printed, logged, outputs))
    assert seen[0][0] == 0 and seen[0][3]
    assert seen[1] == seen[0]


class TestUsageErrors:
    def test_unknown_flag(self):
        assert cli.main(["selfsim", "--definitely-not-a-flag"]) == 1

    def test_no_command_prints_help(self):
        assert cli.main([]) == 1

    def test_config_file_supplies_defaults(self, workspace, tmp_path):
        out = workspace["out"]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out": str(out), "analysis": {"top_n": 5}}), encoding="utf-8")
        assert cli.main(["selfsim", "--config", str(config)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["selfsim", "--config", "{dir}"],
            ["totalsim", "--model", "{model}", "--stopwords", "{dir}"],
            ["ingest", "--corpus", "{dir}/corpus.jsonl", "--lemma-map", "{dir}"],
        ],
        ids=["config", "stopwords", "lemma-map"],
    )
    def test_directory_as_input_file_exits_two(self, tmp_path, argv):
        model = tmp_path / "model.bin"
        write_tiny_model(model)
        argv = [a.format(dir=tmp_path, model=model) for a in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["totalsim", "--model", "{model}", "--stopwords", "{file}"],
            ["ingest", "--corpus", "{dir}/corpus.jsonl", "--lemma-map", "{file}"],
        ],
        ids=["stopwords", "lemma-map"],
    )
    def test_non_utf8_word_list_exits_two_naming_file_and_line(self, tmp_path, capsys, argv):
        model, words = tmp_path / "model.bin", tmp_path / "words.txt"
        write_tiny_model(model)
        words.write_bytes(b"# words\r\nrose\trose\nlied\xff\tlied\n")
        argv = [a.format(dir=tmp_path, model=model, file=words) for a in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert f"{words}: line 3 is not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flags_override_config(self, workspace, tmp_path, capsys):
        out = workspace["out"]
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"out": str(out), "analysis": {"min_per_slot": 100000}}), encoding="utf-8"
        )
        assert cli.main(["totalsim", "--config", str(config), "--min-per-slot", "10"]) == 0
