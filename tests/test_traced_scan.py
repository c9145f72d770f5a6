"""The benchmark's traced run on both scan workloads.

The tracer counts the work of a step from what the program returns: the
length of each ``shape_pulses`` train and the count ``coincide`` returns
first.  A traced run of a small scan must check out correct and count both.
It runs in a copy of the checkout, so it writes no result file beside the
benchmark's own.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["coherent_scan", "walkoff_wide_scan"])
def test_traced_scan_counts_pulses_and_matches(workload, tmp_path):
    skip = shutil.ignore_patterns("results", "tmp-*", "__pycache__")
    for name in ("perfbench", "src", "configs"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", "1", "--small"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["detection.pulses_per_step"]["value"] > 0
    assert metrics["coincidence.matches_per_step"]["value"] > 0
