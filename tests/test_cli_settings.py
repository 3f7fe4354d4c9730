"""The CLI settings boundary: flags, config keys, types and defaults.

``PINNED`` lists, for every command, each flag with its config key (None for
a flag-only setting), type and default. The pin test checks it against what
each command actually passes to the library, with no flag, with every flag
and with every config key set, so it holds for any implementation of the
settings table.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from verseshift import analysis, cli, corpus, svgplot, synthgen, trainer, tropes

REQUIRED = "required"  # the command exits 1 without it
CONFIG = {"--config": (None, str, None)}
COMMON = {**CONFIG, "--out": ("out", str, "out")}
MODEL = {"--model": ("model", str, "out/model.bin")}
CACHE = {"--cache": ("cache", str, "out/normalized.bin")}
SLOTS = {
    "--slots": ("slots.mode", str, "fixed"),
    "--start": ("slots.start", int, 1575),
    "--end": ("slots.end", int, 1925),
    "--window": ("slots.window", int, 50),
    "--step": ("slots.step", int, 25),
    "--merge-first": ("slots.merge_first", bool, False),
}
PAIRWISE = {
    "--top-n": ("analysis.top_n", int, 3000),
    "--frequency-scope": ("analysis.frequency_scope", str, "global"),
}
PINNED = {
    "synth": {
        **CONFIG,
        "--spec": ("spec", str, REQUIRED),
        "--out": ("out", str, REQUIRED),
        "--seed": (None, int, None),
    },
    "ingest": {
        **COMMON, **SLOTS, **CACHE,
        "--corpus": ("corpus", str, REQUIRED),
        "--lemma-map": ("lemma_map", str, None),
        "--strict": (None, bool, False),
    },
    "train": {
        **COMMON, **SLOTS, **MODEL, **CACHE,
        "--min-count": ("train.min_count", int, 5),
        "--dim": ("train.dim", int, 100),
        "--context-window": ("train.context_window", int, 5),
        "--negatives": ("train.negatives", int, 5),
        "--epochs": ("train.epochs", int, 5),
        "--initial-lr": ("train.initial_lr", float, 0.025),
        "--final-lr": ("train.final_lr", float, 1e-4),
        "--subsample": ("train.subsample_threshold", float, 1e-4),
        "--seed": ("train.seed", int, 1),
        "--workers": ("train.workers", int, 1),
        "--batch-size": ("train.batch_size", int, 1024),
    },
    "selfsim": {**COMMON, **MODEL, **PAIRWISE},
    "changepoints": {**COMMON, **MODEL, **PAIRWISE, "--k": ("analysis.k", int, 5)},
    "totalsim": {
        **COMMON, **MODEL,
        "--stopwords": ("stopwords", str, None),
        "--min-per-slot": ("analysis.min_per_slot", int, 50),
    },
    "tropes": {
        **COMMON, **MODEL,
        "--target": ("analysis.target", str, "liebe"),
        "--min-global": ("analysis.min_global", int, 30),
        "--min-per-slot": ("analysis.tropes_min_per_slot", int, 2),
        "--top-k": ("analysis.top_k", int, 25),
        "--components": ("analysis.components", int, 4),
    },
}
REQUIRED_ARGV = {"synth": ["--spec", "spec.json", "--out", "corpus.jsonl"], "ingest": ["--corpus", "c.jsonl"]}
OTHER_CHOICE = {"--slots": "sliding", "--frequency-scope": "pair"}
TABLE = corpus.build_slots(1600, 1700, 50, 50)
FAKE_MODEL = SimpleNamespace(vocab=range(10**6), slot_table=TABLE)  # vocab larger than any top_n used here
# empty results, so that each analysis command reaches its first write
SERIES = SimpleNamespace(pairs=[], summaries=[])
TOTAL = SimpleNamespace(distances=[], summaries=[], words=[])
BANDS = SimpleNamespace(summaries={"low": [], "high": []})
TRAJECTORIES = SimpleNamespace(candidates=[])
REPORT = SimpleNamespace(pca=SimpleNamespace(projections=None), extremes=[], rows=lambda component, end: [])


class Reached(Exception):
    """Raised by the stubbed library call a probe stops at."""


def _arg(calls, name, i):
    return calls[name][0][i] if name in calls else None


def _kw(calls, name, key):
    return calls[name][1][key]


def _slots(calls):
    start, end, window, step = calls["build_slots"][0]
    sliding = step != window  # a fixed table is built with step == window
    return {
        "--slots": "sliding" if sliding else "fixed",
        "--start": start,
        "--end": end,
        "--window": window,
        "--step": step if sliding else None,
        "--merge-first": _kw(calls, "build_slots", "merge_first"),
    }


def _pairwise(calls):
    return {
        "--model": str(_arg(calls, "load_model", 0)),
        "--top-n": _kw(calls, "pairwise_self_similarity", "top_n"),
        "--frequency-scope": _kw(calls, "pairwise_self_similarity", "frequency_scope"),
    }


def _train(calls):
    config = _arg(calls, "train", 3)
    return {
        **_slots(calls),
        "--model": str(_arg(calls, "save_model", 1)),
        "--cache": str(_arg(calls, "load_normalized", 0)),
        "--min-count": _kw(calls, "build_vocab", "min_count"),
        **{
            flag: getattr(config, key.split(".")[1])
            for flag, (key, _, _) in PINNED["train"].items()
            if key and key.startswith("train.") and key != "train.min_count"
        },
    }


# command -> (stubbed library calls and what they return, the call to stop at, observed values);
# each command stops at its first write, when --out has just been made
PROBES = {
    "synth": (
        {(synthgen, "load_spec"): lambda path: SimpleNamespace(seed=None), (synthgen, "generate_jsonl"): None},
        "generate_jsonl",
        lambda c: {
            "--spec": _arg(c, "load_spec", 0),
            "--out": str(_arg(c, "generate_jsonl", 1)),
            "--seed": _arg(c, "generate_jsonl", 0).seed,
        },
    ),
    "ingest": (
        {(corpus, "build_slots"): TABLE, (corpus, "load_lemma_map"): {},
         (corpus, "ingest"): corpus.IngestResult(stanzas=[]), (corpus, "save_normalized"): None},
        "save_normalized",
        lambda c: {
            **_slots(c),
            "--corpus": _arg(c, "ingest", 0),
            "--strict": _kw(c, "ingest", "strict"),
            "--lemma-map": _arg(c, "load_lemma_map", 0),
            "--cache": str(_arg(c, "save_normalized", 1)),
        },
    ),
    "train": (
        {(corpus, "build_slots"): TABLE, (corpus, "load_normalized"): [], (corpus, "build_vocab"): [],
         (trainer, "train"): None, (trainer, "save_model"): None},
        "save_model",
        _train,
    ),
    "selfsim": (
        {(trainer, "load_model"): FAKE_MODEL, (analysis, "pairwise_self_similarity"): SERIES,
         (svgplot, "render_box_plot"): "", (cli, "_write_csv"): None},
        "_write_csv",
        _pairwise,
    ),
    "changepoints": (
        {(trainer, "load_model"): FAKE_MODEL, (analysis, "pairwise_self_similarity"): SERIES,
         (analysis, "detect_change_points"): [], (cli, "_write_csv"): None},
        "_write_csv",
        lambda c: {**_pairwise(c), "--k": _arg(c, "detect_change_points", 1)},
    ),
    "totalsim": (
        {(trainer, "load_model"): FAKE_MODEL, (corpus, "load_stopwords"): frozenset(),
         (analysis, "total_self_similarity"): TOTAL, (analysis, "frequency_bands"): BANDS,
         (svgplot, "render_box_plot"): "", (cli, "_write_csv"): None},
        "_write_csv",
        lambda c: {
            "--model": str(_arg(c, "load_model", 0)),
            "--stopwords": _arg(c, "load_stopwords", 0),
            "--min-per-slot": _kw(c, "total_self_similarity", "min_per_slot"),
        },
    ),
    "tropes": (
        {(trainer, "load_model"): FAKE_MODEL, (tropes, "build_trajectories"): TRAJECTORIES,
         (tropes, "trajectory_pca"): None, (tropes, "orient_components"): REPORT,
         (svgplot, "render_line_plot"): "", (cli, "_write_trajectories"): None},
        "_write_trajectories",
        lambda c: {
            "--model": str(_arg(c, "load_model", 0)),
            "--target": _arg(c, "build_trajectories", 1),
            "--min-global": _kw(c, "build_trajectories", "min_global"),
            "--min-per-slot": _kw(c, "build_trajectories", "min_per_slot"),
            "--top-k": _kw(c, "trajectory_pca", "top_k"),
            "--components": _kw(c, "trajectory_pca", "n_components"),
        },
    ),
}


def probe(monkeypatch, workdir: Path, command: str, argv: list[str]) -> dict:
    """Run ``command`` in ``workdir`` with stubbed library calls; returns the values it passed."""
    stubs, stop, observe = PROBES[command]
    calls = {}

    def stub(name, result):
        def fake(*args, **kwargs):
            calls[name] = (args, kwargs)
            if name == stop:
                raise Reached
            return result(*args, **kwargs) if callable(result) else result

        return fake

    for (owner, name), result in stubs.items():
        monkeypatch.setattr(owner, name, stub(name, result))
    monkeypatch.setattr(trainer, "max_workers", lambda: 64)  # pinned workers values exceed the CPU count
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    with pytest.raises(Reached):
        cli.main([command, *argv])
    observed = observe(calls)
    if command != "synth":  # the output directory is the one directory the command made
        observed["--out"] = "".join(p.name for p in workdir.iterdir() if p.is_dir())
    return observed


def pinned_value(flag: str, kind: type, default, via: str):
    """A valid non-default value for a setting, different for flags and config."""
    if flag in OTHER_CHOICE:
        return OTHER_CHOICE[flag]
    if kind is bool:
        return True
    if kind is int:
        return (default or 0) + (7 if via == "flag" else 11)
    if kind is float:
        return default * (2 if via == "flag" else 3)
    return f"{flag[2:]}-{via}"


def parser_flags(command: str) -> set[str]:
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {o for a in sub.choices[command]._actions for o in a.option_strings if o != "--help" and o.startswith("--")}


def test_pinned_table_counts():
    assert sum(len(flags) for flags in PINNED.values()) == 61
    keys = {key for flags in PINNED.values() for key, _, _ in flags.values() if key}
    assert len(keys) == 33


@pytest.mark.parametrize("command", sorted(PINNED))
def test_flags_keys_and_defaults_are_pinned(command, tmp_path, monkeypatch):
    pinned = PINNED[command]
    assert parser_flags(command) == set(pinned)
    settable = {flag: spec for flag, spec in pinned.items() if flag != "--config"}

    observed = probe(monkeypatch, tmp_path / "defaults", command, REQUIRED_ARGV.get(command, []))
    for flag, (_, kind, default) in settable.items():
        if default != REQUIRED and flag != "--step":  # a fixed table has no step
            assert observed[flag] == default, flag
    if "--step" in settable:
        argv = [*REQUIRED_ARGV.get(command, []), "--slots", "sliding"]
        assert probe(monkeypatch, tmp_path / "step", command, argv)["--step"] == settable["--step"][2]

    argv, expected = [], {}
    for flag, (_, kind, default) in settable.items():
        value = expected[flag] = pinned_value(flag, kind, default, "flag")
        argv += [flag] if kind is bool else [flag, str(value)]
    observed = probe(monkeypatch, tmp_path / "flags", command, argv)
    for flag, value in expected.items():
        assert observed[flag] == value and type(observed[flag]) is type(value), flag

    config, expected = {}, {}
    for flag, (key, kind, default) in settable.items():
        if key is None:
            expected[flag] = default
            continue
        value = expected[flag] = pinned_value(flag, kind, default, "config")
        *parents, leaf = key.split(".")
        node = config
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    observed = probe(monkeypatch, tmp_path / "config", command, ["--config", str(path)])
    for flag, value in expected.items():
        assert observed[flag] == value and type(observed[flag]) is type(value), flag


@pytest.mark.parametrize(
    "argv", [["synth", "--out", "corpus.jsonl"], ["synth", "--spec", "spec.json"], ["ingest"]],
    ids=["synth-spec", "synth-out", "ingest-corpus"],
)
def test_required_settings(argv, tmp_path, monkeypatch):
    monkeypatch.setattr(synthgen, "load_spec", lambda path: SimpleNamespace(seed=None))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("train", {"train": {"dim": [4]}}, "train.dim"),
        ("train", {"train": {"dim": 7.9}}, "train.dim"),
        ("selfsim", {"out": 5}, "out"),
        ("selfsim", {"analysis": {"top_n": [3]}}, "analysis.top_n"),
        ("ingest", {"corpus": "c.jsonl", "slots": {"merge_first": "false"}}, "slots.merge_first"),
        ("selfsim", {"analysis": {"frequency_scope": "local"}}, "analysis.frequency_scope"),
        ("train", {"train": {"epochs": "40"}}, "train.epochs"),
        ("train", {"train": {"initial_lr": True}}, "train.initial_lr"),
        ("train", {"train": {"initial_lr": 10**400}}, "train.initial_lr"),
        ("train", {"train": {"dim": 10**400}}, "train.dim"),
        ("train", {"train": {"subsample_threshold": float("nan")}}, "train.subsample_threshold"),
    ],
    ids=["list-int", "float-int", "int-str", "list-top-n", "str-bool", "bad-choice", "str-int", "bool-float",
         "huge-float", "huge-int", "nan-float"],
)
def test_bad_config_value_is_usage_error(command, config, key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([command, "--config", str(path)]) == 1
    assert f"config key {key} " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


MINIMUMS = [
    ("tropes", "--components", "analysis.components", 2),
    ("tropes", "--top-k", "analysis.top_k", 1),
    ("tropes", "--min-per-slot", "analysis.tropes_min_per_slot", 0),
    ("totalsim", "--min-per-slot", "analysis.min_per_slot", 0),
    ("changepoints", "--k", "analysis.k", 1),
    ("changepoints", "--top-n", "analysis.top_n", 1),
    ("selfsim", "--top-n", "analysis.top_n", 1),
    ("train", "--dim", "train.dim", 2),
    ("train", "--context-window", "train.context_window", 1),
    ("train", "--negatives", "train.negatives", 1),
    ("train", "--epochs", "train.epochs", 1),
    ("train", "--workers", "train.workers", 1),
    ("train", "--batch-size", "train.batch_size", 1),
    ("train", "--seed", "train.seed", 0),
]
MINIMUM_IDS = [f"{command}{flag}" for command, flag, _, _ in MINIMUMS]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, flag, key, minimum", MINIMUMS, ids=MINIMUM_IDS)
def test_value_below_minimum_is_usage_error(command, flag, key, minimum, via, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if via == "flag":
        argv, name = [flag, str(minimum - 1)], flag
    else:
        section, leaf = key.split(".")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: {leaf: minimum - 1}}), encoding="utf-8")
        argv, name = ["--config", str(path)], f"config key {key}"
    assert cli.main([command, "--out", "run", *argv]) == 1
    assert f"{name} must be at least {minimum}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flag, key, minimum", MINIMUMS, ids=MINIMUM_IDS)
def test_minimum_is_in_help(command, flag, key, minimum):
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if flag in a.option_strings)
    assert action.help.endswith(f"at least {minimum})")


@pytest.mark.parametrize("command, flag, key, minimum", MINIMUMS, ids=MINIMUM_IDS)
def test_value_at_minimum_is_accepted(command, flag, key, minimum, tmp_path, monkeypatch):
    assert probe(monkeypatch, tmp_path / "run", command, [flag, str(minimum)])[flag] == minimum


@pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
def test_non_finite_learning_rate_flag_is_usage_error(value, tmp_path, monkeypatch, capsys):
    """Refused before the (absent) cache is read, which would exit 2."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["train", "--out", "run", "--initial-lr", value]) == 1
    assert "--initial-lr is out of range" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "content, detail",
    [
        (b'{"out": "run",', "Expecting"),
        (b'\xef\xbb\xbf{\r\n"out": "run",\n"model": "\xff"}', "config.json: line 3 is not UTF-8 (invalid start byte)"),
    ],
    ids=["not-json", "not-utf8"],
)
def test_undecodable_config_is_usage_error_naming_it(content, detail, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert cli.main(["selfsim", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"config file {path} is not UTF-8 JSON: " in err and detail in err
    assert not (tmp_path / "run").exists()


def test_integer_config_value_for_float_setting(tmp_path, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"initial_lr": 1, "final_lr": 0.5}}), encoding="utf-8")
    config = probe(monkeypatch, tmp_path / "run", "train", ["--config", str(path)])
    assert config["--initial-lr"] == 1.0 and type(config["--initial-lr"]) is float
