from __future__ import annotations

import csv
import json
import struct
import threading
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from verseshift import cli, synthgen, trainer

from conftest import TINY_GLOBAL_COUNT0, TINY_SLOT_COUNT0, TINY_SLOT_YEARS, TINY_WORD0, write_tiny_model

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
        cache = tmp_path / "cache.jsonl"
        good = {"id": "s1", "author": "a", "year": 1610, "lines": ["x y"], "tokens": ["x", "y"]}
        cache.write_text(json.dumps(good) + "\n" + bad_line + "\n", encoding="utf-8")
        rc = cli.main(["train", "--out", str(tmp_path), "--cache", str(cache), *SLOT_FLAGS, *TRAIN_FLAGS])
        assert rc == 2
        assert f"{cache}:2:" in capsys.readouterr().err

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
        bad.write_bytes(trainer.MODEL_MAGIC + struct.pack("<IIIIiiii", 1, 100, 2**32 - 1, 2, 1600, 1650, 1650, 1700))
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

    def test_flags_override_config(self, workspace, tmp_path, capsys):
        out = workspace["out"]
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"out": str(out), "analysis": {"min_per_slot": 100000}}), encoding="utf-8"
        )
        assert cli.main(["totalsim", "--config", str(config), "--min-per-slot", "10"]) == 0
