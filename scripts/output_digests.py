#!/usr/bin/env python3
"""Digests of every output file and printed report of one benchmark workload, for byte-identity checks.

Usage (from the repository root):

    python3 scripts/output_digests.py WORKLOAD SEED OUT [TRAIN_FLAG ...]
    python3 scripts/output_digests.py canonical OUT

WORKLOAD is ``shift6``, ``sliding13`` or ``reports``; only ``sliding13``
trains with subsampling on. Any arguments after OUT are extra ``train``
flags, for example ``--epochs 3 --subsample 0.001``. The inputs are
generated with ``vsbench/gen.py`` under ``OUT/inputs``, and the workload's
command list comes from ``vsbench/run.py``; each command runs once, in its
own process, with its outputs under ``OUT/run`` (``train`` gets
``--workers 1``, then the extra flags, which win over the workload's own).
The script prints one ``<sha256>  <path relative to OUT/run>`` line per output
file, in path order, then one ``<sha256>  stdout <NN>-<command>`` line per
command, digesting its standard output (the counts, epoch losses, change
points and fit it prints) with ``OUT/run`` replaced by ``<run>``; standard
error, which carries timings, is kept apart under ``OUT/logs``. The last
line is the sha256 of all the lines before it. Two checkouts whose final
lines agree wrote and printed the same bytes. The exit code is 1 when a
command fails.

``canonical`` runs the four sets that byte-identity claims use, each under
its own directory of OUT: ``shift6 3``, ``reports 3``, ``sliding13 7`` and
``sliding13 3 --epochs 3 --subsample 0.001``. It prints one ``<set> <final
line>`` line per set, and exits 1 if any command of any set fails.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_run():
    spec = importlib.util.spec_from_file_location("vsbench_run", ROOT / "vsbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(run, argv: list[str], log_path: Path) -> bytes | None:
    """One process in the benchmark's environment: its stdout, or None (after printing its stderr tail) if it fails."""
    with open(log_path, "wb") as log:
        proc = subprocess.run([sys.executable, *argv], stdout=subprocess.PIPE, stderr=log,
                              env=run.child_env(), cwd=ROOT, timeout=600.0)
    if proc.returncode == 0:
        return proc.stdout
    print(f"{' '.join(argv)} failed:\n{log_path.read_text(errors='replace')[-400:]}", file=sys.stderr)
    return None


def digests(workload: str, seed: int, out: Path, train_flags: list[str]) -> str | None:
    """The per-file and per-command lines of one workload, then their sha256; None if a command fails."""
    run = _load_run()
    shutil.rmtree(out, ignore_errors=True)
    inputs_dir, run_dir, logs = out / "inputs", out / "run", out / "logs"
    logs.mkdir(parents=True)
    if _run(run, [str(ROOT / "vsbench" / "gen.py"), workload, str(seed), str(inputs_dir)], logs / "gen.txt") is None:
        return None
    info = json.loads((inputs_dir / "setup.json").read_text())
    inputs = run.Inputs({k: Path(v) for k, v in info["files"].items()}, info["truth"])
    printed = []
    for i, cmd in enumerate(run.WORKLOADS[workload].pipeline(inputs, run_dir, seed)):
        extra = ["--workers", "1", *train_flags] if cmd.kind == "train" else []
        stdout = _run(run, ["-m", "verseshift.cli", *cmd.argv, *extra], logs / f"{i:02d}-{cmd.kind}.txt")
        if stdout is None:
            return None
        stdout = stdout.replace(str(run_dir).encode(), b"<run>")
        printed.append(f"{hashlib.sha256(stdout).hexdigest()}  stdout {i:02d}-{cmd.kind}\n")

    lines = "".join(
        f"{_sha256(p)}  {p.relative_to(run_dir).as_posix()}\n"
        for p in sorted(run_dir.rglob("*"), key=lambda p: p.relative_to(run_dir).as_posix())
        if p.is_file()
    ) + "".join(printed)
    return lines + hashlib.sha256(lines.encode()).hexdigest() + "\n"


def main(argv: list[str]) -> int:
    if argv[:1] == ["canonical"] and len(argv) == 2:
        failed = False
        for i, name in enumerate(("shift6 3", "reports 3", "sliding13 7", "sliding13 3 --epochs 3 --subsample 0.001")):
            workload, seed, *flags = name.split()
            lines = digests(workload, int(seed), Path(argv[1]).resolve() / f"{i}-{workload}", flags)
            failed |= lines is None
            print(name, "failed" if lines is None else lines.splitlines()[-1], flush=True)
        return int(failed)
    if len(argv) < 3 or argv[0] not in ("shift6", "sliding13", "reports"):
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    lines = digests(argv[0], int(argv[1]), Path(argv[2]).resolve(), argv[3:])
    if lines is None:
        return 1
    print(lines, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
