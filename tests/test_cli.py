import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pstream.cli import main
from pstream.config import SEED_ENV_VAR
from pstream.detection import CHANNEL_A, CHANNEL_B, PulseTrain
from pstream.traces import ingest_trace, synthesize_trace, write_trace_csv, write_trace_raw

TINY_CONFIG = {
    "source": {"mean_photon_override": 0.012},
    "scan": {"n_points": 6, "seconds_per_point": 0.2, "seed": 31415},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def run_cli(*argv):
    return main(list(argv))


class TestSimulate:
    def test_writes_scan_and_echo(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(config_path), "--out", str(out)) == 0
        assert (out / "scan.csv").exists()
        echo = json.loads((out / "config.json").read_text())
        assert echo["scan"]["seed"] == 31415
        assert "wrote" in capsys.readouterr().out

    def test_byte_identical_across_runs_and_workers(self, config_path, tmp_path):
        outs = []
        for name, workers in [("a", "1"), ("b", "1"), ("c", "3")]:
            out = tmp_path / name
            assert (
                run_cli(
                    "simulate",
                    "--config",
                    str(config_path),
                    "--out",
                    str(out),
                    "--workers",
                    workers,
                )
                == 0
            )
            outs.append((out / "scan.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_seed_flag_beats_env(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "1111")
        out_env = tmp_path / "env"
        run_cli("simulate", "--config", str(config_path), "--out", str(out_env))
        assert json.loads((out_env / "config.json").read_text())["scan"]["seed"] == 1111

        out_flag = tmp_path / "flag"
        run_cli(
            "simulate", "--config", str(config_path), "--out", str(out_flag), "--seed", "2222"
        )
        assert json.loads((out_flag / "config.json").read_text())["scan"]["seed"] == 2222

    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scan": {"bogus_knob": 1}}))
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert run_cli("simulate", "--config", str(tmp_path / "nope.json"), "--out", ".") == 2


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# SHA-256 of scan.csv for each committed config cut to 16 points x 0.1 s
SCAN_DIGESTS = {
    "coincidence_scan.json": "edceb3108b48f7c5fd3c90e3d8cd73b2193361e6dc10f0893d1d3efbab8ecacc",
    "walkoff_scan.json": "6184283667b6346558ca8077abcf68fb15bbe730bbe1ae754826b6d9499e78dc",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", sorted(SCAN_DIGESTS))
def test_committed_config_scan_bytes_pinned(name, workers, tmp_path, monkeypatch):
    """scan.csv keeps its exact bytes for the committed configs.

    A change that only speeds the program up leaves every random draw and
    every count as it was, so these digests hold.  A change of the random
    streams, such as the planned fused slot-occupancy sampler, is expected to
    change them once; such a change records the new digests with its reason.
    """
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    doc = json.loads((CONFIG_DIR / name).read_text())
    doc["scan"].update(n_points=16, seconds_per_point=0.1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(path), "--out", str(out), "--workers", workers) == 0
    assert hashlib.sha256((out / "scan.csv").read_bytes()).hexdigest() == SCAN_DIGESTS[name]


class TestAnalyze:
    @pytest.fixture()
    def scan_csv(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "source": {"mean_photon_override": 0.012},
                    "scan": {"n_points": 80, "seconds_per_point": 0.5, "seed": 999},
                }
            )
        )
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out), "--workers", "2") == 0
        return out / "scan.csv"

    def test_report_written(self, scan_csv, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = run_cli(
            "analyze", "--scan", str(scan_csv), "--out", str(report), "--bin-seconds", "0.5"
        )
        assert code == 0
        text = report.read_text().splitlines()
        assert text[0] == "key,value"
        keys = [line.split(",")[0] for line in text[1:]]
        assert "visibility_A" in keys and "g2_ratio_min_over_max" in keys
        assert "visibility_A" in capsys.readouterr().out

    def test_bad_scan_header_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        assert run_cli("analyze", "--scan", str(bad), "--out", str(tmp_path / "r.csv")) == 3

    def test_flat_scan_exits_4(self, tmp_path):
        rows = ["point,voltage_V,x_m,phase_rad,envelope,N_A,N_B,N_c"]
        rows += [f"{k},{k},{k*1e-8},0.0,1.0,100,100,1" for k in range(40)]
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join(rows) + "\n")
        assert run_cli("analyze", "--scan", str(flat), "--out", str(tmp_path / "r.csv")) == 4


class TestFig4:
    def test_writes_curves(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run_cli("fig4", "--v", "1.0", "--leff", "2e-6", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_m,envelope,intensity_d1,intensity_d2,coincidence,g2"
        assert len(lines) == 2002
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        product = data[:, 2] * data[:, 3]
        assert np.max(np.abs(product - data[:, 4])) < 1e-14


class TestStats:
    def test_prints_occupancy_table(self, capsys):
        assert run_cli("stats", "--mean", "0.012") == 0
        out = capsys.readouterr().out
        assert "P(n)" in out
        assert "pair/single ratio P(2)/P(1) = mean/2 = 0.006" in out
        assert "expected singles per second" in out


class TestIngest:
    @pytest.fixture()
    def trains(self):
        starts_a = (np.arange(6) * 50_000 + 7_000).astype(np.int64)
        starts_b = (np.arange(4) * 70_000 + 23_000).astype(np.int64)
        a = PulseTrain(CHANNEL_A, starts_a, np.full(6, 10_000, dtype=np.int64), bin_length=400_000)
        b = PulseTrain(CHANNEL_B, starts_b, np.full(4, 10_000, dtype=np.int64), bin_length=400_000)
        return a, b

    @staticmethod
    def assert_events_file(out, trace):
        """Every row is `channel,time_s` with a float time equal to ingest_trace's edge."""
        lines = out.read_text().splitlines()
        assert lines[0] == "channel,time_s"
        rows = [line.split(",") for line in lines[1:]]
        edges1, edges2 = ingest_trace(trace)
        assert [c for c, _ in rows] == ["1"] * edges1.size + ["2"] * edges2.size
        assert [float(t) for _, t in rows] == edges1.tolist() + edges2.tolist()

    def test_csv_ingest(self, trains, tmp_path, capsys):
        trace = synthesize_trace(*trains, duration=4e-7)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        out = tmp_path / "events.csv"
        assert run_cli("ingest", "--trace", str(path), "--out", str(out)) == 0
        assert "channel 1: 6 events; channel 2: 4 events" in capsys.readouterr().out
        self.assert_events_file(out, trace)

    def test_raw_ingest(self, trains, tmp_path):
        trace = synthesize_trace(*trains, duration=4e-7)
        path = tmp_path / "trace.bin"
        write_trace_raw(trace, path)
        out = tmp_path / "events.csv"
        assert run_cli("ingest", "--trace", str(path), "--out", str(out)) == 0
        self.assert_events_file(out, trace)

    @pytest.mark.parametrize(
        "row", ["nan,0.0,0.0", "8e-10,inf,0.0", "8e-10,0.0,1e300", "1e-3,0.0,0.0"]
    )
    def test_bad_csv_value_exits_3(self, row, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_text(f"time_s,ch1_V,ch2_V\n0.0,0.0,0.0\n4e-10,0.0,0.0\n{row}\n")
        out = tmp_path / "events.csv"
        assert run_cli("ingest", "--trace", str(path), "--out", str(out)) == 3
        assert f"data error: {path}: line 4: " in capsys.readouterr().err
        assert not out.exists()

    def test_bad_magic_exits_3(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKJUNK" + b"\x00" * 8)
        assert run_cli("ingest", "--trace", str(path), "--out", str(tmp_path / "e.csv")) == 3


# each value was taken as given: NaN edges or no events with exit 0, exit 3
# for a configuration error, or a traceback
BAD_NUMERIC_FLAGS = {
    "ingest_sampling_period_nan": ["ingest", "--sampling-period", "nan"],
    "ingest_sampling_period_inf": ["ingest", "--sampling-period", "inf"],
    "ingest_sampling_period_zero": ["ingest", "--sampling-period", "0"],
    "ingest_sampling_period_negative": ["ingest", "--sampling-period", "-1"],
    "ingest_threshold_nan": ["ingest", "--threshold", "nan"],
    "stats_mean_nan": ["stats", "--mean", "nan"],
    "stats_dead_time_zero": ["stats", "--mean", "0.012", "--dead-time", "0"],
}


@pytest.mark.parametrize("name", sorted(BAD_NUMERIC_FLAGS))
def test_bad_numeric_flag_exits_2(name, tmp_path, capsys):
    argv = BAD_NUMERIC_FLAGS[name]
    flag, value = argv[-2:]
    if argv[0] == "ingest":
        argv = argv + ["--trace", str(tmp_path / "trace.bin"), "--out", str(tmp_path / "e.csv")]
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    reason = "is not finite" if value in ("nan", "inf") else "is not > 0"
    assert f"argument {flag}: '{value}' {reason}" in err
    assert "Traceback" not in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pstream.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "pstream" in proc.stdout
