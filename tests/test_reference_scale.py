"""Peak memory of every command on a reference-shaped corpus; opt-in, as it runs for minutes.

Set VERSESHIFT_REFERENCE_SCALE to a scale from 0.125 to 1 (1 is the size of
the reference corpus, about 11.5M tokens) to run ``scripts/reference_scale.py``
at it and check each command's peak memory (its VmHWM) against a budget.
The budgets are 10% above the peaks measured on a 2-vCPU Linux machine with
Python 3.11 and numpy 2.4, each command in its own process:

- scale 0.125: ingest 174.8 MB, train 225.7 MB, each analysis at most 48.5 MB;
- scale 1: ingest 1164 MB, train 626 MB, each analysis at most 48.1 MB.

Between the two scales a budget is interpolated linearly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCALE_ENV = "VERSESHIFT_REFERENCE_SCALE"
SCALES = (0.125, 1.0)
PEAK_MB = {  # measured peaks at SCALES
    "ingest": (174.8, 1164.0),
    "train": (225.7, 626.0),
    "selfsim": (48.5, 48.1),
    "changepoints": (48.5, 48.1),
    "totalsim": (48.5, 48.1),
    "tropes": (48.5, 48.1),
}
MARGIN = 1.10

pytestmark = pytest.mark.skipif(
    not os.environ.get(SCALE_ENV),
    reason=f"set {SCALE_ENV} to a scale from 0.125 to 1 to run the reference-scale pipeline",
)


def test_every_command_peaks_under_its_budget(tmp_path):
    scale = float(os.environ[SCALE_ENV])
    if not SCALES[0] <= scale <= SCALES[1]:
        pytest.skip(f"budgets are measured for scales {SCALES[0]} to {SCALES[1]}, not {scale}")
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, str(root / "scripts" / "reference_scale.py"), str(scale), str(tmp_path)],
                          capture_output=True, text=True, timeout=3600)
    assert done.returncode == 0, done.stderr[-2000:]
    commands = json.loads((tmp_path / "reference_scale.json").read_text())["commands"]
    assert [c["kind"] for c in commands] == list(PEAK_MB)
    for c in commands:
        budget = MARGIN * np.interp(scale, SCALES, PEAK_MB[c["kind"]])
        assert c["peak_rss_mb"] <= budget, f"{c['kind']} peaked at {c['peak_rss_mb']} MB, budget {budget:.1f} MB"
    train = commands[1]
    assert len(train["epoch_pairs"]) == 1 and train["epoch_pairs"][0] > 0
    assert train["matrix_bytes"] > 0 and train["epoch_bytes"] > 4 * train["epoch_pairs"][0]
    assert train["files"]["out/model.bin"] > 0
