#!/usr/bin/env python3
"""Benchmark of the verseshift CLI: three workloads, end-to-end and per-module metrics.

Usage (from the repository root):

    python3 vsbench/run.py --workload shift6 --seed 1 --seconds 20 --trace 0
    python3 vsbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One simulated researcher runs the workload's commands one after another,
each in its own process (a closed loop with one client and no think time),
and repeats the sequence as often as fits in ``--seconds``. With ``--trace 1``
traced and untraced sequences alternate: the traced ones give the
per-module metrics, the untraced ones the tracing overhead. The last line
of standard output is one JSON object with the metrics; the lines before it
are a table with median, high percentile and sample count of each metric,
the input digests and the environment. The exit code is 1 when a command or
an output check failed and 2 when the program is missing or a flag is bad.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".vsbench_work"
DEADLINE_S = 170.0  # a run starts no pipeline that could end later, and kills a command running then
# Children run BLAS on one thread unless the caller sets these: on two vCPUs
# a second BLAS thread made the reports commands slower and noisier.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SHIFT6_TRAIN = ["--dim", "40", "--context-window", "3", "--negatives", "5", "--epochs", "3",
                "--subsample", "0", "--min-count", "5", "--batch-size", "2048"]
PAIRWISE_HEADER = ["slot_start", "slot_end", "n", "median", "q1", "q3", "p5", "p95", "mean"]
TOTAL_HEADER = ["distance_years", "band", "n", "median", "q1", "q3", "p5", "p95", "mean"]
CSV_HEADERS = {
    "selfsim": {"selfsim.csv": PAIRWISE_HEADER},
    "changepoints": {"changepoints.csv": ["rank", "year", "depth"]},
    "totalsim": {"totalsim.csv": TOTAL_HEADER},
    "tropes": {
        "trajectories.csv": ["target", "candidate", "slot_start", "value", "imputed"],
        "report.csv": ["component", "end", "rank", "candidate", "projection"],
    },
}
ANALYSES = ("selfsim", "changepoints", "totalsim", "tropes")

END_TO_END = [("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB")]
# End-to-end metrics without a bound: report_s is mostly interpreter start-up on
# shift6 and sliding13 and spreads too widely between runs, the others exist only
# on some workloads. They are in every table and in the per-layer JSON.
UNBOUNDED = [("report_s", "s"), ("ingest_s", "s"), ("train_tokens_per_s", "1/s"), ("heldout_loss", "nat"),
             ("shift_depth", "depth")]
PER_LAYER = [
    ("trainer.train_s", "s"), ("trainer.sgd_step_s", "s"), ("trainer.sgd_step_calls", "count"),
    ("trainer.pairs", "count"), ("trainer.sgd_step_ns_per_pair", "ns"), ("trainer.prep_s", "s"),
    ("trainer.peak_traced_mb", "MB"), ("trainer.bytes_per_pair", "B"), ("trainer.save_model_s", "s"),
    ("trainer.load_model_s", "s"), ("trainer.model_bytes", "B"), ("trainer.kernel_flops_per_pair", "flop"),
    ("trainer.kernel_bytes_per_pair", "B"), ("trainer.self_s", "s"),
    ("corpus.ingest_s", "s"), ("corpus.normalize_s", "s"), ("corpus.dedup_first_line_s", "s"),
    ("corpus.assign_slots_s", "s"), ("corpus.build_vocab_s", "s"), ("corpus.save_normalized_s", "s"),
    ("corpus.load_normalized_s", "s"), ("corpus.stanzas", "count"), ("corpus.tokens", "count"),
    ("corpus.slot_tokens", "count"), ("corpus.vocab_words", "count"), ("corpus.cache_bytes", "B"),
    ("corpus.self_s", "s"),
    ("analysis.pairwise_self_similarity_s", "s"), ("analysis.detect_change_points_s", "s"),
    ("analysis.total_self_similarity_s", "s"), ("analysis.frequency_bands_s", "s"),
    ("analysis.linearity_fit_s", "s"), ("analysis.self_s", "s"),
    ("tropes.build_trajectories_s", "s"), ("tropes.trajectory_pca_s", "s"),
    ("tropes.orient_components_s", "s"), ("tropes.trajectories", "count"), ("tropes.self_s", "s"),
    ("linalg.pca_s", "s"), ("linalg.rowwise_cosine_s", "s"), ("linalg.self_s", "s"),
    ("svgplot.render_s", "s"), ("svgplot.self_s", "s"),
    ("cli.ingest_s", "s"), ("cli.train_s", "s"), ("cli.selfsim_s", "s"), ("cli.changepoints_s", "s"),
    ("cli.totalsim_s", "s"), ("cli.tropes_s", "s"), ("cli.self_s", "s"), ("cli.startup_s", "s"),
    ("trace.pipeline_s", "s"), ("trace.overhead_s", "s"),
] + UNBOUNDED
MODULES = ("cli", "corpus", "trainer", "analysis", "tropes", "linalg", "svgplot")
PEAK_COUNTS = ("trainer.model_bytes", "trainer.peak_traced_bytes")  # merged by max, not summed


# ---------------------------------------------------------------- workloads


@dataclass
class Command:
    kind: str  # ingest | train | one of ANALYSES
    argv: list[str]
    out: Path
    checks: list = field(default_factory=list)  # callables(out) -> error message or None


@dataclass
class Inputs:
    files: dict[str, Path]
    truth: dict


def _csv_rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} != {header}")
    if len(rows) < 2:
        raise ValueError(f"{path.name}: no data rows")
    return rows[1:]


def check_deepest(years: tuple[int, ...]):
    def check(out: Path):
        rows = _csv_rows(out / "changepoints.csv", ["rank", "year", "depth"])
        if int(rows[0][1]) not in years:
            return f"deepest change point {rows[0][1]} not in {years}"
        return None

    return check


def check_groups(groups: dict[str, list[str]], share: float = 0.9):
    ends = {"high": ("1", "pos"), "low": ("1", "neg"), "rising": ("2", "pos"), "falling": ("2", "neg")}

    def check(out: Path):
        rows = _csv_rows(out / "report.csv", CSV_HEADERS["tropes"]["report.csv"])
        for label, (comp, end) in ends.items():
            listed = {r[3] for r in rows if r[0] == comp and r[1] == end}
            hit = sum(w in listed for w in groups[label]) / len(groups[label])
            if hit < share:
                return f"trope group {label}: {hit:.0%} in its class list, need {share:.0%}"
        return None

    return check


def pipeline_shift6(inp: Inputs, it: Path, seed: int) -> list[Command]:
    out = it / "out"
    slots = ["--slots", "fixed", "--start", "1600", "--end", "1900", "--window", "50"]
    y = inp.truth["shift_year"]
    return [
        Command("ingest", ["ingest", "--corpus", str(inp.files["corpus"]), "--out", str(out), *slots], out),
        Command("train", ["train", "--out", str(out), *slots, *SHIFT6_TRAIN, "--seed", str(seed)], out),
        Command("selfsim", ["selfsim", "--out", str(out), "--top-n", "90"], out),
        Command("changepoints", ["changepoints", "--out", str(out), "--top-n", "90", "--k", "3"], out,
                [check_deepest((y - 50, y, y + 50))]),
        Command("totalsim", ["totalsim", "--out", str(out), "--min-per-slot", "50"], out),
        Command("tropes", ["tropes", "--out", str(out), "--target", "shift00", "--top-k", "10"], out),
    ]


def pipeline_sliding13(inp: Inputs, it: Path, seed: int) -> list[Command]:
    out = it / "out"
    slots = ["--slots", "sliding", "--start", "1575", "--end", "1925", "--window", "50", "--step", "25"]
    return [
        Command("ingest", ["ingest", "--corpus", str(inp.files["corpus"]), "--out", str(out), *slots], out),
        Command("train", ["train", "--out", str(out), *slots, "--epochs", "1", "--seed", str(seed)], out),
        Command("selfsim", ["selfsim", "--out", str(out)], out),
        Command("changepoints", ["changepoints", "--out", str(out), "--k", "5"], out),
        Command("totalsim", ["totalsim", "--out", str(out), "--min-per-slot", "50"], out),
        Command("tropes", ["tropes", "--out", str(out), "--target", "z00010"], out),
    ]


def pipeline_reports(inp: Inputs, it: Path, seed: int) -> list[Command]:
    model, stop = str(inp.files["model"]), str(inp.files["stopwords"])
    truth = inp.truth
    turn = check_deepest((truth["turn_year"],))
    session = [
        ("selfsim", ["--top-n", "3000"], []),
        ("changepoints", ["--top-n", "3000", "--k", "5"], [turn]),
        ("selfsim", ["--top-n", "1000", "--frequency-scope", "pair"], []),
        ("changepoints", ["--top-n", "1000", "--k", "5"], [turn]),
        ("totalsim", ["--stopwords", stop, "--min-per-slot", "50"], []),
        ("tropes", ["--target", truth["target"], "--top-k", "40"], [check_groups(truth["groups"])]),
        ("changepoints", ["--top-n", "300", "--k", "3"], [turn]),
        ("tropes", ["--target", truth["others"][0]], []),
        ("totalsim", ["--stopwords", stop, "--min-per-slot", "500"], []),
        ("tropes", ["--target", truth["others"][1]], []),
        ("selfsim", ["--top-n", "300"], []),
        ("tropes", ["--target", truth["others"][2]], []),
    ]
    commands = []
    for i, (kind, flags, checks) in enumerate(session):
        out = it / f"{i:02d}-{kind}"
        commands.append(Command(kind, [kind, "--out", str(out), "--model", model, *flags], out, checks))
    return commands


@dataclass
class Workload:
    pipeline: Callable[[Inputs, Path, int], list[Command]]
    setup_repeats: int  # fresh set-up processes per run; setup_s is their median
    setups_between: int  # of those, how many follow each command sequence
    epochs: int  # training epochs per pipeline, 0 when nothing trains
    dim: int
    window: int
    negatives: int


WORKLOADS = {
    "shift6": Workload(pipeline_shift6, setup_repeats=9, setups_between=2, epochs=3, dim=40, window=3, negatives=5),
    "sliding13": Workload(pipeline_sliding13, setup_repeats=9, setups_between=2, epochs=1, dim=100, window=5, negatives=5),
    "reports": Workload(pipeline_reports, setup_repeats=5, setups_between=1, epochs=0, dim=100, window=5, negatives=5),
}


# ---------------------------------------------------------------- running


@dataclass
class CommandResult:
    kind: str
    rc: int
    wall_s: float
    rss_mb: float
    trace: dict  # spans and counts from child.py; empty unless traced


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name in BLAS_THREADS:
        env.setdefault(name, "1")
    return env


def run_process(argv: list[str], log_path: Path, timeout_s: float) -> tuple[int, float]:
    """Run one process to completion, killing it after ``timeout_s``; returns exit code and wall seconds.

    The wait blocks instead of polling (``Popen.wait`` with a timeout polls
    every 50 ms, which would round each command's wall time up by as much).
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            wall = time.perf_counter() - start
            killer.cancel()
            killer.join()
        return rc, wall


def run_pipeline(commands: list[Command], it: Path, traced: bool, deadline: float) -> tuple[list[CommandResult], list[str]]:
    results, errors = [], []
    for i, cmd in enumerate(commands):
        cmd.out.mkdir(parents=True, exist_ok=True)
        result_path, log_path = it / f"result-{i:02d}.json", it / f"log-{i:02d}.txt"
        rc, wall = run_process([sys.executable, str(BENCH / "child.py"), str(result_path), str(int(traced)), *cmd.argv],
                               log_path, deadline - time.perf_counter())
        child = json.loads(result_path.read_text()) if result_path.exists() else {}
        results.append(CommandResult(cmd.kind, rc, wall, child.get("peak_rss_kib", 0) / 1024.0, child))
        if rc != 0:
            tail = log_path.read_text(errors="replace")[-400:]
            errors.append(f"{cmd.argv[0]} exited {rc}: {tail}")
            break
        for check in [check_csvs(cmd.kind)] + cmd.checks:
            try:
                msg = check(cmd.out)
            except (OSError, ValueError, IndexError) as exc:
                msg = str(exc)
            if msg:
                errors.append(f"{cmd.kind}: {msg}")
    return results, errors


def check_csvs(kind: str):
    def check(out: Path):
        for name, header in CSV_HEADERS.get(kind, {}).items():
            _csv_rows(out / name, header)
        return None

    return check


def checks_per_pipeline(commands: list[Command]) -> int:
    return sum(1 + len(cmd.checks) for cmd in commands)


# ---------------------------------------------------------------- metrics


def heldout_loss(model, heldout_path: Path, window: int, negatives: int, seed: int) -> float:
    """Mean skip-gram negative-sampling loss of a loaded model on held-out stanzas.

    Pairs are every (centre, context) within the window of a held-out stanza,
    in each slot that contains the stanza's year; negatives are drawn once from
    the unigram^0.75 distribution with a fixed seed.
    """
    import numpy as np

    index = model.vocab.index
    centres, contexts, slots = [], [], []
    for year, tokens in json.loads(heldout_path.read_text()):
        ids = [index[t] for t in tokens if t in index]
        for s in model.slot_table.slots_for_year(year):
            for a in range(len(ids)):
                for b in range(max(0, a - window), min(len(ids), a + window + 1)):
                    if a != b:
                        centres.append(ids[a])
                        contexts.append(ids[b])
                        slots.append(s)
    w, c, s = (np.array(x, dtype=np.int64) for x in (centres, contexts, slots))
    weights = model.vocab.global_counts.astype(np.float64) ** 0.75
    rng = np.random.default_rng([seed, 7])
    negs = rng.choice(len(weights), size=(w.size, negatives), p=weights / weights.sum())
    u = model.base[w].astype(np.float64) + model.deltas[s, w].astype(np.float64)
    pos = np.einsum("bd,bd->b", u, model.context[c].astype(np.float64))
    neg = np.einsum("bd,bkd->bk", u, model.context[negs].astype(np.float64))
    loss = np.logaddexp(0.0, -pos) + np.logaddexp(0.0, neg).sum(axis=1)
    return float(loss.mean())


def pipeline_estimate(iterations: list[list[CommandResult]]) -> float:
    """Wall time of one command sequence: the sum over its commands of each one's median wall.

    A process can run 30% slower than the next for its whole life on a
    shared host; a median per command drops such a process, where a median
    of whole sequences keeps every slow process of the middle sequence.
    """
    n_commands = max(len(res) for res in iterations)
    complete = [res for res in iterations if len(res) == n_commands]  # a failed sequence stops early
    return sum(median([res[i].wall_s for res in complete]) for i in range(n_commands))


def span_totals(results: list[CommandResult]) -> dict[str, float]:
    """Per-pipeline sums of span durations, module self times and counts."""
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for res in results:
        spans = res.trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent), covered in zip(spans, child):
            add(name + "_s", end - start)
            add(name.split(".")[0] + ".self_s", end - start - covered)
            add("self:" + name, end - start - covered)
        main = next(end - start for name, start, end, parent in spans if name == "cli.main")
        add("cli.startup_s", res.wall_s - main)
        for key, value in res.trace["counts"].items():
            if key in PEAK_COUNTS:
                totals[key] = max(totals.get(key, 0.0), value)
            else:
                add(key, value)
    totals["trace.pipeline_s"] = sum(r.wall_s for r in results)
    return totals


def kernel_computed(dim: int, k: int) -> tuple[float, float]:
    """Flops and float32 bytes per pair of one SGD step, computed from (d, k), not measured.

    Scores and the two gradient products take 2d(1+k), 2d(1+k) and d(1+k)
    flops; the scaled adds into base, delta and the 1+k context rows take
    2d(3+k). Each of those 3+k rows of d floats is read once and written once.
    """
    return 5.0 * dim * (1 + k) + 2.0 * dim * (3 + k), 8.0 * dim * (3 + k)


def median(values):
    return statistics.median(values) if values else 0.0


def high_percentile(values) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75 with at least ten samples above it, else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", ordered[min(n - 1, math.ceil(n * q / 100) - 1)]
    return "max", ordered[-1] if ordered else 0.0


# ---------------------------------------------------------------- environment


def environment() -> dict:
    import numpy as np

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches.append(f"L{level} {kind} {size}")
        except OSError:
            continue
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": child_env()["OPENBLAS_NUM_THREADS"],  # as the commands see it
    }


# ---------------------------------------------------------------- one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    wl = WORKLOADS[name]
    deadline = started + DEADLINE_S
    root = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    errors: list[str] = []
    attempted = 0

    setup_times, digests = [], []

    def set_up(count: int) -> dict | None:
        """Generate the inputs ``count`` times, each in a fresh process; keeps only the first copy."""
        info = None
        for _ in range(min(count, wl.setup_repeats - len(setup_times))):
            rep = len(setup_times)
            inputs_dir = root / f"inputs{rep}"
            rc, _ = run_process([sys.executable, str(BENCH / "gen.py"), name, str(seed), str(inputs_dir)],
                                root / f"setup-{rep}.log", deadline - time.perf_counter())
            if rc != 0:
                errors.append(f"set-up exited {rc}: " + (root / f"setup-{rep}.log").read_text(errors="replace")[-400:])
                return None
            info = json.loads((inputs_dir / "setup.json").read_text())
            setup_times.append(info["seconds"])
            digests.append(info["sha256"])
            if rep:
                shutil.rmtree(inputs_dir, ignore_errors=True)
        return info

    # One set-up makes the inputs; the other repeats run between command
    # sequences, so setup_s samples the same stretch of time as pipeline_s
    # on a host whose speed drifts over seconds to minutes.
    info = set_up(1)
    if info is not None:
        inputs = Inputs({k: Path(v) for k, v in info["files"].items()}, info["truth"])
    attempted += 1

    iterations: list[list[CommandResult]] = []
    traced_iterations: list[list[CommandResult]] = []
    first_pipeline = None
    t_start = step_start = time.perf_counter()
    steps: list[float] = []  # wall of each sequence with the set-ups after it
    n = 0
    while not errors:
        want_traced = trace and len(traced_iterations) <= len(iterations)
        it = root / f"iter{n:03d}"
        commands = wl.pipeline(inputs, it, seed)
        results, errs = run_pipeline(commands, it, want_traced, deadline)
        attempted += checks_per_pipeline(commands)
        errors += errs
        (traced_iterations if want_traced else iterations).append(results)
        if first_pipeline is None and not want_traced:
            first_pipeline = commands
        elif not errs:
            shutil.rmtree(it, ignore_errors=True)
        set_up(wl.setups_between)
        n += 1
        # start another sequence only if one as long as the median so far ends
        # within --seconds, once there is an untraced one (and a traced one)
        now = time.perf_counter()
        steps.append(now - step_start)
        step_start = now
        typical = median(steps)
        if now - t_start + typical > seconds and iterations and (traced_iterations or not trace):
            break
        if now + typical > deadline:
            break

    if not errors:
        set_up(wl.setup_repeats)  # whatever the sequences left over
    if any(d != digests[0] for d in digests):
        errors.append("input generation is not deterministic for one seed")

    extra: dict[str, float] = {}
    if not errors and wl.epochs:
        from verseshift import trainer

        try:
            model = trainer.load_model(first_pipeline[1].out / "model.bin")
            extra["heldout_loss"] = heldout_loss(model, inputs.files["heldout"], wl.window, wl.negatives, seed)
            extra["slot_tokens"] = int(model.vocab.slot_counts.sum())
        except (OSError, ValueError, trainer.ModelFormatError) as exc:
            errors.append(f"heldout: {exc}")
        attempted += 1
        if not math.isfinite(extra.get("heldout_loss", math.nan)):
            errors.append(f"heldout loss is not finite: {extra.get('heldout_loss')}")
    if not errors:
        cp = next(c for c in first_pipeline if c.kind == "changepoints")
        extra["shift_depth"] = float(_csv_rows(cp.out / "changepoints.csv", ["rank", "year", "depth"])[0][2])

    samples: dict[str, list[float]] = {"setup_s": setup_times}
    for results in iterations:
        samples.setdefault("sequence_s", []).append(sum(r.wall_s for r in results))
        samples.setdefault("peak_rss_mb", []).append(max(r.rss_mb for r in results))
        for r in results:
            if r.kind in ANALYSES:
                samples.setdefault("report_s", []).append(r.wall_s)
            elif r.kind == "ingest":
                samples.setdefault("ingest_s", []).append(r.wall_s)
            elif r.kind == "train" and "slot_tokens" in extra:
                samples.setdefault("train_tokens_per_s", []).append(extra["slot_tokens"] * wl.epochs / r.wall_s)
    if iterations:
        samples["pipeline_s"] = [pipeline_estimate(iterations)]
    for key in ("heldout_loss", "shift_depth"):
        if key in extra:
            samples[key] = [extra[key]]
    if trace and not errors:
        traced = [span_totals(results) for results in traced_iterations]
        keys = {k for t in traced for k in t}
        for key in keys:
            samples[key] = [t.get(key, 0.0) for t in traced]
        flops, nbytes = kernel_computed(wl.dim, wl.negatives) if wl.epochs else (0.0, 0.0)
        samples["trainer.kernel_flops_per_pair"] = [flops]
        samples["trainer.kernel_bytes_per_pair"] = [nbytes]
        for t in traced:
            pairs = t.get("trainer.pairs", 0.0)
            step = t.get("trainer.sgd_step_s", 0.0)
            samples.setdefault("trainer.sgd_step_ns_per_pair", []).append(step / pairs * 1e9 if pairs else 0.0)
            samples.setdefault("trainer.prep_s", []).append(t.get("trainer.train_s", 0.0) - step)
            samples.setdefault("trainer.peak_traced_mb", []).append(t.get("trainer.peak_traced_bytes", 0.0) / 2**20)
            per_epoch = pairs / wl.epochs if wl.epochs else 0.0
            samples.setdefault("trainer.bytes_per_pair", []).append(
                t.get("trainer.peak_traced_bytes", 0.0) / per_epoch if per_epoch else 0.0)
        samples["trace.overhead_s"] = [median(samples["trace.pipeline_s"]) - median(samples["sequence_s"])]

    shutil.rmtree(root, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "inputs_sha256": digests[0] if digests else {},
        "iterations": len(iterations),
        "traced_iterations": len(traced_iterations),
        "samples": samples,
    }


def metric_table(names: list[tuple[str, str]], samples: dict[str, list[float]]) -> dict:
    return {
        name: {"value": median(samples.get(name, [])), "unit": unit}
        for name, unit in names
    }


def print_table(result: dict, names: list[tuple[str, str]]) -> None:
    print(f"{'metric':<44} {'unit':>6} {'median':>14} {'high':>18} {'n':>4}")
    for name, unit in names:
        values = result["samples"].get(name, [])
        if not values:
            continue
        label, high = high_percentile(values)
        print(f"{name:<44} {unit:>6} {median(values):>14.6g} {label + ' ' + format(high, '.6g'):>18} {len(values):>4}")
    share = result["failed"] / max(1, result["attempted"])
    print(f"{'failed_share':<44} {'1':>6} {share:>14.6g} {'':>18} {result['attempted']:>4}")


def print_trace_summary(samples: dict[str, list[float]]) -> None:
    total = median(samples.get("trace.pipeline_s", []))
    spans = {k[len("self:"):]: median(v) for k, v in samples.items() if k.startswith("self:")}
    if not total or not spans:
        return
    parts = {f"{m}.self_s": median(samples.get(f"{m}.self_s", [])) for m in MODULES}
    parts["cli.startup_s"] = median(samples.get("cli.startup_s", []))
    print("share of traced pipeline_s: " + ", ".join(f"{k} {v / total:.1%}" for k, v in parts.items()))
    top = max(spans, key=spans.get)
    print(f"largest self time: {top} {spans[top]:.3f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "verseshift" / "cli.py").is_file():
        print(f"error: no verseshift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    print("environment: " + json.dumps(env))
    names = PER_LAYER if args.trace else END_TO_END
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in workloads:
        budget = started if args.workload != "all" else time.perf_counter()
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), budget)
        results.append(result)
        print(f"== {name} seed {args.seed}: {result['iterations']} untraced and "
              f"{result['traced_iterations']} traced pipelines")
        print("inputs sha256: " + json.dumps(result["inputs_sha256"]))
        print_table(result, names if args.trace else END_TO_END + [("sequence_s", "s")] + UNBOUNDED)
        if args.trace:
            print_trace_summary(result["samples"])
        for err in result["errors"]:
            print(f"FAILED {err}")
        record = dict(result, environment=env)
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = metric_table(names, results[0]["samples"])
    else:
        metrics = {}
        for r in results:
            for key, value in metric_table(names, r["samples"]).items():
                metrics[f"{r['workload']}.{key}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
