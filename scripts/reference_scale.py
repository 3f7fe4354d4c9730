#!/usr/bin/env python3
"""Run the whole pipeline on a reference-shaped corpus and record what each command cost.

Usage (from the repository root):

    python3 scripts/reference_scale.py SCALE OUT [--seed N]

The corpus is ``vsbench/gen.py``'s ``sliding13_corpus(5, 960_000 * SCALE,
3200 * SCALE)``: at SCALE 1 about 1.15M stanzas and 11.5M tokens, the size
of the reference corpus. It is written to ``OUT/corpus.jsonl``. Then
``ingest``, a 1-epoch ``train`` with ``--workers 1`` and the four analyses
run with the ``sliding13`` workload's flags from ``vsbench/run.py``, each
in its own process as ``vsbench/child.py RESULT 0 COMMAND ...``, with
outputs under ``OUT/run``. ``OUT/reference_scale.json`` records, per
command: its wall seconds, its peak memory (the child's own VmHWM, in MB),
its minor page faults (``ru_minflt`` from ``os.wait4``), the pairs of each
epoch it trained and the size of every file it wrote. Beside ``train``'s
peak it records the two figures ``train`` logs before it allocates its
matrices: their bytes (``matrix_bytes``) and the most bytes an epoch's pair
codes and kept tokens take (``epoch_bytes``), both from the ``train`` log.
The exit code is 1 when a command fails.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EPOCH_LINE = re.compile(r"epoch \d+/\d+: (\d+) pairs, mean loss")
MEMORY_LINE = re.compile(r"memory: (\d+) bytes of model matrices, at most (\d+) bytes of pair codes and tokens per epoch")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"vsbench_{name}", ROOT / "vsbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def _files(root: Path) -> dict[str, tuple[int, int]]:
    """Each file under ``root``: its (size, mtime in ns), by path relative to ``root``."""
    stats = {p.relative_to(root).as_posix(): p.stat() for p in sorted(root.rglob("*")) if p.is_file()}
    return {name: (st.st_size, st.st_mtime_ns) for name, st in stats.items()}


def _run_child(run, argv: list[str], result: Path, log: Path) -> dict:
    """One command under ``vsbench/child.py``: its exit code, wall seconds, VmHWM and minor faults."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(ROOT / "vsbench" / "child.py"), str(result), "0", *argv],
                                stdout=fh, stderr=subprocess.STDOUT, env=run.child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = json.loads(result.read_text()) if result.exists() else {}
    return {"rc": proc.returncode, "wall_s": round(wall, 3), "peak_rss_mb": round(child.get("peak_rss_kib", 0) / 1024, 1),
            "minflt": usage.ru_minflt}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scale", type=float)
    parser.add_argument("out", type=Path)
    parser.add_argument("--seed", type=int, default=3, help="seed of the commands, as in vsbench/run.py")
    args = parser.parse_args(argv)
    gen, run = _load("gen"), _load("run")
    out = args.out.resolve()
    shutil.rmtree(out, ignore_errors=True)
    logs, run_dir = out / "logs", out / "run"
    logs.mkdir(parents=True)

    start = time.perf_counter()
    corpus = gen.sliding13_corpus(5, round(960_000 * args.scale), round(3200 * args.scale))
    (out / "corpus.jsonl").write_text(corpus.jsonl, encoding="utf-8")
    record = {"scale": args.scale, "seed": args.seed, "corpus_s": round(time.perf_counter() - start, 3),
              "corpus_bytes": (out / "corpus.jsonl").stat().st_size, "commands": []}
    del corpus

    inputs = run.Inputs({"corpus": out / "corpus.jsonl"}, {})
    failed = False
    for i, cmd in enumerate(run.pipeline_sliding13(inputs, run_dir, args.seed)):
        cmd.out.mkdir(parents=True, exist_ok=True)
        argv = [*cmd.argv, *(["--workers", "1"] if cmd.kind == "train" else [])]
        before = _files(run_dir)
        log = logs / f"{i:02d}-{cmd.kind}.txt"
        entry = {"kind": cmd.kind, **_run_child(run, argv, logs / f"{i:02d}-{cmd.kind}.json", log)}
        text = log.read_text(errors="replace")
        entry["epoch_pairs"] = [int(n) for n in EPOCH_LINE.findall(text)]
        if memory := MEMORY_LINE.search(text):
            entry["matrix_bytes"], entry["epoch_bytes"] = map(int, memory.groups())
        entry["files"] = {name: size for name, (size, mtime) in _files(run_dir).items() if before.get(name) != (size, mtime)}
        record["commands"].append(entry)
        print(json.dumps(entry), flush=True)
        if entry["rc"] != 0:
            print(f"{cmd.kind} exited {entry['rc']}; see {log}", file=sys.stderr)
            failed = True
            break
    (out / "reference_scale.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
