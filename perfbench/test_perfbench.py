"""Self-test of the benchmark at small sizes: every workload runs to its end,
the command prints what BENCHMARK.json names, and every check rejects a
corrupted output."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from pstream import runner  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_to_its_end(name, tmp_path):
    workload = workloads.make(name, 7, ROOT, small=True)
    for k in range(2):
        assert workload.check(k, workload.op(k, tmp_path)) == []
    assert workload.post_check() == {}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "trace_roundtrip", "--seed", "3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric(trace, group):
    done = run_bench(ROOT, "--seconds", "0", "--trace", trace, "--small")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in BENCH[group]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "tmp-*"))
    done = run_bench(tmp_path, "--seconds", "1", "--trace", "0")
    assert done.returncode != 0 and done.stdout == ""


@pytest.fixture(scope="module")
def full_dwell_scan():
    """Two coherent_scan points at the committed 1 s dwell: enough counts that 3 % is many sigma."""
    workload = workloads.make("coherent_scan", 11, ROOT, small=True)
    cfg = workload.config(0)
    cfg = dataclasses.replace(cfg, scan=dataclasses.replace(cfg.scan, n_points=2, seconds_per_point=1.0))
    return cfg, runner.run_scan(cfg).points


def test_scan_checks_pass_on_the_program(full_dwell_scan):
    cfg, points = full_dwell_scan
    assert workloads.check_scan_points(cfg, points) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: dataclasses.replace(p, n_c=p.n_a + 1),
        lambda p: dataclasses.replace(p, n_a=round(p.n_a * 1.03), n_b=round(p.n_b * 1.03)),
        lambda p: dataclasses.replace(p, n_a=round(p.n_a * 0.97), n_b=round(p.n_b * 0.97)),
        lambda p: dataclasses.replace(p, phase=p.phase + 1e-9),
        lambda p: dataclasses.replace(p, envelope=p.envelope * (1 - 1e-9)),
    ],
    ids=["n_c_above_n_a", "singles_up_3pct", "singles_down_3pct", "phase", "envelope"],
)
def test_scan_checks_reject_corruption(full_dwell_scan, corrupt):
    cfg, points = full_dwell_scan
    assert workloads.check_scan_points(cfg, [corrupt(points[0]), points[1]])


def test_csv_round_trip_check_rejects_a_changed_point(tmp_path):
    workload = workloads.make("coherent_scan", 5, ROOT, small=True)
    points, back = workload.op(0, tmp_path)
    back = [dataclasses.replace(back[0], n_b=back[0].n_b + 1), *back[1:]]
    assert "read_scan_csv(export_scan_csv(r)) differs from r" in workload.check(0, (points, back))


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    workload = workloads.make("trace_roundtrip", 5, ROOT, small=True)
    output = workload.op(0, tmp_path_factory.mktemp("capture"))
    assert workload.check(0, output) == []
    assert sum(len(e) for e in output[3]) > 0
    return workload, output


def test_trace_check_rejects_an_edge_one_sample_late(capture):
    workload, (trace, raw, csv, edges_raw, edges_csv) = capture
    channel = 0 if len(edges_csv[0]) else 1
    shifted = [np.array(e) for e in edges_csv]
    shifted[channel][0] += trace.sampling_period
    assert workload.check(0, (trace, raw, csv, edges_raw, tuple(shifted)))


def test_trace_check_rejects_one_changed_sample(capture):
    workload, (trace, raw, csv, edges_raw, edges_csv) = capture
    ch1 = csv.ch1.copy()
    ch1[0] += 1.0
    csv = dataclasses.replace(csv, ch1=ch1)
    assert workload.check(0, (trace, raw, csv, edges_raw, edges_csv))
