import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pstream import cli
from pstream.cli import build_parser, main
from pstream.config import MAX_POINTS, SEED_ENV_VAR
from pstream.detection import PulseTrain
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
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        out_file = tmp_path / "file"
        run_cli("simulate", "--config", str(config_path), "--out", str(out_file))
        assert json.loads((out_file / "config.json").read_text())["scan"]["seed"] == 31415

        monkeypatch.setenv(SEED_ENV_VAR, "1111")
        out_env = tmp_path / "env"
        run_cli("simulate", "--config", str(config_path), "--out", str(out_env))
        assert json.loads((out_env / "config.json").read_text())["scan"]["seed"] == 1111

        out_flag = tmp_path / "flag"
        run_cli(
            "simulate", "--config", str(config_path), "--out", str(out_flag), "--seed", "2222"
        )
        assert json.loads((out_flag / "config.json").read_text())["scan"]["seed"] == 2222

    def test_bad_env_seed_exits_2(self, config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", str(config_path), "--out", str(out)) == 2
        assert "PSTREAM_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()
        # an explicit flag makes the environment irrelevant
        assert run_cli("simulate", "--config", str(config_path), "--out", str(out), "--seed", "3") == 0

    def test_out_that_is_a_file_exits_3_before_the_scan(
        self, config_path, tmp_path, monkeypatch, capsys
    ):
        # the whole scan used to run before mkdir refused the path
        def no_scan(*args, **kwargs):
            raise AssertionError("run_scan called")

        monkeypatch.setattr(cli, "run_scan", no_scan)
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        assert run_cli("simulate", "--config", str(config_path), "--out", str(out)) == 3
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert out.read_text() == "not a directory\n"

    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scan": {"bogus_knob": 1}}))
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert run_cli("simulate", "--config", str(tmp_path / "nope.json"), "--out", ".") == 2


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# the coherent config on draw paths the committed configs never take:
# efficiency below 1, 20 ns pulses, a delayed channel B, a jittered ramp, and
# on B a dead time longer than the slot, many darks and a 1 ns grid
STRESSED = {
    "detectors": [
        {"pulse_duration": 20e-9, "efficiency": 0.7},
        {
            "pulse_duration": 20e-9,
            "efficiency": 0.85,
            "dead_time": 30e-9,
            "dark_rate": 3000.0,
            "resolving_time": 1e-9,
        },
    ],
    "ccm": {"delay_tau": 3e-9},
    "scan": {"jitter_volts": 0.5},
}
# SHA-256 of scan.csv for each committed config cut to 16 points x 0.1 s,
# and for the coherent one with the STRESSED overrides
SCAN_DIGESTS = {
    "coincidence_scan.json": "a82c8ae4776eef77aae1244a3a5ea756d534153d3641234356dfb9f0df517681",
    "walkoff_scan.json": "f55331e56f803f9ac9a7785fc43aa58bc244d31d9f0b614d367bc5a7789fc0e9",
    "coincidence_scan.json, stressed": "e878c967521eae9eedf0f3b0a856dd327f4f68d6a8701b484300228be0003b13",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", sorted(SCAN_DIGESTS))
def test_committed_config_scan_bytes_pinned(name, workers, tmp_path, monkeypatch):
    """scan.csv keeps its exact bytes for the committed configs.

    A change that only speeds the program up leaves every random draw and
    every count as it was, so these digests hold.  A change of the random
    streams changes them once and records the new digests with its reason;
    the last was one generator per scan point, one uniform per photon for its
    port and its detection, and dark counts at uniform whole picoseconds.
    """
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    config_file, _, variant = name.partition(", ")
    doc = json.loads((CONFIG_DIR / config_file).read_text())
    if variant:
        for det, overrides in zip(doc["detectors"], STRESSED["detectors"]):
            det.update(overrides)
        doc["ccm"].update(STRESSED["ccm"])
        doc["scan"].update(STRESSED["scan"])
    doc["scan"].update(n_points=16, seconds_per_point=0.1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(path), "--out", str(out), "--workers", workers) == 0
    assert hashlib.sha256((out / "scan.csv").read_bytes()).hexdigest() == SCAN_DIGESTS[name]


@pytest.fixture(scope="module")
def analyze_run(tmp_path_factory):
    """A simulated run directory (80 points x 0.5 s, seed 999) that analyze has not touched."""
    tmp_path = tmp_path_factory.mktemp("scan")
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
    return out


def copy_run(run: Path, dest: Path, scan_text: str | None = None) -> Path:
    """``dest`` holding the config.json of ``run`` and its scan.csv, or ``scan_text`` in its place."""
    dest.mkdir()
    (dest / "config.json").write_bytes((run / "config.json").read_bytes())
    scan = (run / "scan.csv").read_text() if scan_text is None else scan_text
    with open(dest / "scan.csv", "w", newline="") as fh:
        fh.write(scan)
    return dest


class TestAnalyze:
    def test_report_written(self, analyze_run, tmp_path, capsys):
        run = copy_run(analyze_run, tmp_path / "run")
        assert run_cli("analyze", "--run", str(run)) == 0
        text = (run / "report.csv").read_text().splitlines()
        assert text[0] == "key,value"
        report = dict(line.split(",") for line in text[1:])
        assert "visibility_A" in report and "g2_ratio_min_over_max" in report
        # read with the run's 0.5 s dwell; the former 1 s default of --bin-seconds
        # halved mean_photon and doubled g2_rate
        assert float(report["mean_photon"]) == 0.011950319149999998
        assert float(report["g2_rate"]) == 1.3541507021233283
        assert "visibility_A" in capsys.readouterr().out
        g2 = (run / "g2.csv").read_text().splitlines()
        assert g2[0] == "x_m,envelope,g2"
        assert len(g2) == 81

    @pytest.mark.parametrize("env_seed", ["abc", "2222"])
    def test_env_seed_ignored(self, env_seed, analyze_run, tmp_path, monkeypatch):
        # the report reads the run as simulate recorded it, seed included
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        clean = copy_run(analyze_run, tmp_path / "clean")
        assert run_cli("analyze", "--run", str(clean)) == 0
        seeds = []
        build_report = cli.build_report

        def recording_build_report(result, dead_time):
            seeds.append(result.config.scan.seed)
            return build_report(result, dead_time)

        monkeypatch.setattr(cli, "build_report", recording_build_report)
        monkeypatch.setenv(SEED_ENV_VAR, env_seed)
        run = copy_run(analyze_run, tmp_path / "run")
        assert run_cli("analyze", "--run", str(run)) == 0
        assert seeds == [999]
        for name in ("report.csv", "g2.csv"):
            assert (run / name).read_bytes() == (clean / name).read_bytes()

    @pytest.mark.parametrize("flag", ["--scan", "--out", "--dead-time", "--delta-t", "--bin-seconds"])
    def test_takes_no_parameter_of_the_run(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["analyze", "--run", "run", flag, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_bad_scan_header_exits_3(self, analyze_run, tmp_path):
        run = copy_run(analyze_run, tmp_path / "run", "x,y\n1,2\n")
        assert run_cli("analyze", "--run", str(run)) == 3
        assert not (run / "report.csv").exists() and not (run / "g2.csv").exists()

    # (column, value) written into line 7 of a simulated scan; each was read
    # as given and analyze exited 0
    BAD_VALUES = {
        "voltage_nan": (1, "nan"),
        "x_nan": (2, "nan"),
        "phase_inf": (3, "inf"),
        "envelope_minus_inf": (4, "-inf"),
        "n_a_negative": (5, "-1"),
        "n_c_negative": (7, "-1"),
        "n_c_above_min_singles": (7, None),
        # read as given, then analyze failed converting it to float: exit 1
        "n_a_above_int64": (5, str(10**400)),
    }

    @pytest.mark.parametrize("name", sorted(BAD_VALUES))
    def test_bad_scan_value_exits_3(self, name, analyze_run, tmp_path, capsys):
        lines = (analyze_run / "scan.csv").read_text().splitlines()
        fields = lines[6].split(",")
        column, value = self.BAD_VALUES[name]
        fields[column] = value or str(min(int(fields[5]), int(fields[6])) + 1)
        lines[6] = ",".join(fields)
        run = copy_run(analyze_run, tmp_path / "run", "\n".join(lines) + "\n")
        assert run_cli("analyze", "--run", str(run)) == 3
        assert f"data error: {run / 'scan.csv'}: line 7: " in capsys.readouterr().err
        assert not (run / "report.csv").exists() and not (run / "g2.csv").exists()

    # rows of the 80-point scan rearranged, each with the message that
    # names it; duplicating the last row or swapping two rows exited 0
    BAD_ORDERS = {
        "duplicated_last_row": (lambda rows: rows + rows[-1:], "line 82: point 79, expected 80"),
        "swapped_rows": (
            lambda rows: rows[:10] + [rows[11], rows[10]] + rows[12:],
            "line 12: point 11, expected 10",
        ),
        "dropped_last_row": (lambda rows: rows[:-1], "79 rows, the run has 80"),
    }

    @pytest.mark.parametrize("name", sorted(BAD_ORDERS))
    def test_rows_not_the_run_exit_3(self, name, analyze_run, tmp_path, capsys):
        header, *rows = (analyze_run / "scan.csv").read_text().splitlines()
        change, message = self.BAD_ORDERS[name]
        run = copy_run(analyze_run, tmp_path / "run", "\n".join([header] + change(rows)) + "\n")
        assert run_cli("analyze", "--run", str(run)) == 3
        assert f"data error: {run / 'scan.csv'}: {message}" in capsys.readouterr().err
        assert not (run / "report.csv").exists() and not (run / "g2.csv").exists()

    def test_flat_scan_exits_4(self, analyze_run, tmp_path):
        rows = ["point,voltage_V,x_m,phase_rad,envelope,N_A,N_B,N_c"]
        rows += [f"{k},{k},{k*1e-8},0.0,1.0,100,100,1" for k in range(80)]
        run = copy_run(analyze_run, tmp_path / "run", "\n".join(rows) + "\n")
        assert run_cli("analyze", "--run", str(run)) == 4

    # config.json documents that load_config refuses; None leaves the file out
    BAD_CONFIGS = {
        "missing": None,
        "not_json": "{",
        "unknown_key": '{"scan": {"bin_seconds": 0.5}}',
    }

    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_bad_config_exits_2(self, name, analyze_run, tmp_path, capsys):
        run = copy_run(analyze_run, tmp_path / "run")
        text = self.BAD_CONFIGS[name]
        if text is None:
            (run / "config.json").unlink()
        else:
            (run / "config.json").write_text(text)
        assert run_cli("analyze", "--run", str(run)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("configuration error: ") and err.count("\n") == 1
        assert not (run / "report.csv").exists() and not (run / "g2.csv").exists()


# the ways a fuzzed scan.csv row is changed: analyze refuses each of the
# first group wherever it lands (dropped trailing rows leave fewer rows than
# the run's points); a cut line may still parse, and extreme finite values
# and extreme x in both the first and last rows (which set the span of the
# positions) are data that analyze reads or refuses
REFUSED_ROWS = [
    "drop_field",
    "extra_field",
    "non_finite",
    "negative_count",
    "n_c_above_min",
    "blank_line",
    "drop_rows",
]
DATA_CHANGES = ["truncate_line", "extreme_value", "position_range"]


def break_fields(data, kind: str, fields: list[str]) -> list[str]:
    """The eight ``fields`` of a scan row, changed in the ``kind`` way."""
    if kind == "drop_field":
        del fields[data.draw(st.integers(0, 7))]
    elif kind == "extra_field":
        fields.insert(data.draw(st.integers(0, 8)), "0")
    elif kind == "non_finite":
        fields[data.draw(st.integers(1, 4))] = data.draw(
            st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"])
        )
    elif kind == "negative_count":
        fields[data.draw(st.integers(5, 7))] = str(-data.draw(st.integers(1, 10**6)))
    elif kind == "n_c_above_min":
        n_min = min(int(fields[5]), int(fields[6]))
        fields[7] = str(n_min + data.draw(st.integers(1, 1000)))
    elif kind == "extreme_value":
        column = data.draw(st.integers(1, 7))
        values = ["0", "1", str(2**63)] if column > 4 else ["0.0", "1e308", "-1e308", "5e-324"]
        fields[column] = data.draw(st.sampled_from(values))
    elif kind == "position_range":
        fields[2] = data.draw(st.sampled_from(["-1e308", "0.0", "5e-324", "1e308"]))
    return fields


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_analyze_fuzz_exits_cleanly(analyze_run, data):
    header, *rows = (analyze_run / "scan.csv").read_text().splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        if not rows:
            break
        kind = data.draw(st.sampled_from(REFUSED_ROWS) | st.sampled_from(DATA_CHANGES))
        k = data.draw(st.integers(0, len(rows) - 1))
        if kind == "blank_line":
            rows.insert(k, "")
        elif kind == "truncate_line":
            rows[k] = rows[k][: data.draw(st.integers(0, max(len(rows[k]) - 1, 0)))]
        elif kind == "drop_rows":
            del rows[k:]
        else:
            for j in (0, -1) if kind == "position_range" else (k,):
                fields = rows[j].split(",")
                if len(fields) == 8:  # a row already broken keeps its first break
                    rows[j] = ",".join(break_fields(data, kind, fields))

    with tempfile.TemporaryDirectory() as tmp:
        run = copy_run(analyze_run, Path(tmp) / "run", "\n".join([header] + rows) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["analyze", "--run", str(run)])
        assert code in (0, 3, 4), err.getvalue()
        report, g2 = run / "report.csv", run / "g2.csv"
        assert report.exists() == g2.exists() == (code == 0)
        if code == 0:
            values = [line.split(",")[1] for line in report.read_text().splitlines()[1:]]
            assert all(math.isfinite(float(v)) for v in values if v not in ("True", "False"))
            assert np.isfinite(np.loadtxt(g2, delimiter=",", skiprows=1)).all()


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

    def test_curve_bytes_pinned(self, tmp_path):
        # SHA-256 of the file as the per-row csv writer wrote it, before the
        # CSV exporters shared one table writer
        out = tmp_path / "curves.csv"
        assert run_cli("fig4", "--v", "0.882", "--leff", "2e-6", "--out", str(out)) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "50ceb779d4f3f9f2bae4c6b77ff948ab4d6ec17ed02bdc2d0ea73324d6d36cbe"

    # each warned "overflow encountered" in envelope's x*x or in linspace's
    # span - (-span); 1e200 by 1e200 also gave inf/inf = NaN and exit 2
    @pytest.mark.parametrize(
        ("flags", "edge_envelope"),
        [
            (["--leff", "2e-6", "--span", "1e200"], 0.0),
            (["--leff", "2e-6", "--span", "1.6104418557358715e+148"], 0.0),
            (["--leff", "1e200", "--span", "1e200"], 2.0**-4),
            (["--leff", "2e307", "--span", "2e307", "--wavelength", "1e300"], 2.0**-4),
            (["--leff", "2e-6", "--span", "1.7976931348623157e308"], None),
            # 2*pi*x overflows, 2*pi*(x/wavelength) does not: exit 2 before
            (["--leff", "2e-6", "--span", "8e307", "--wavelength", "1e308"], 0.0),
        ],
    )
    def test_huge_values_without_warnings(self, flags, edge_envelope, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("fig4", "--v", "0.882", *flags, "--out", str(out))
        if edge_envelope is None:  # the grid's ends are not finite
            assert code == 2
            assert "phase 2*pi*x/wavelength is not finite" in capsys.readouterr().err
            return
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.isfinite(data).all()
        assert data[1000, 1] == 1.0  # x = 0
        # at x = +-span: 2**-4 where the FWHM is the span, 0 where it is far smaller
        assert data[[0, -1], 1] == pytest.approx(edge_envelope, rel=1e-12)


class TestStats:
    def test_prints_occupancy_table(self, capsys):
        assert run_cli("stats", "--mean", "0.012") == 0
        out = capsys.readouterr().out
        assert "P(n)" in out
        assert "pair/single ratio P(2)/P(1) = mean/2 = 0.006" in out
        assert "expected singles per second" in out

    @pytest.mark.parametrize("mean", ["1e8", "1e308"])
    def test_huge_mean(self, mean):
        # P(>=3) at means whose tail terms all underflow, or whose triple overflows
        assert run_cli("stats", "--mean", mean) == 0


class TestIngest:
    @pytest.fixture()
    def trains(self):
        starts_a = (np.arange(6) * 50_000 + 7_000).astype(np.int64)
        starts_b = (np.arange(4) * 70_000 + 23_000).astype(np.int64)
        a = PulseTrain(starts_a, 10_000, bin_length=400_000)
        b = PulseTrain(starts_b, 10_000, bin_length=400_000)
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

    def test_smallest_normal_sampling_period_accepted(self, trains, tmp_path, capsys):
        path = tmp_path / "trace.bin"
        write_trace_raw(synthesize_trace(*trains, duration=4e-7), path)
        out = tmp_path / "events.csv"
        period = repr(sys.float_info.min)
        argv = ["ingest", "--trace", str(path), "--out", str(out), "--sampling-period", period]
        assert run_cli(*argv) == 0
        assert "channel 1: 6 events; channel 2: 4 events" in capsys.readouterr().out

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

    def test_edge_time_overflow_exits_3(self, trains, tmp_path, capsys):
        # a raw trace read at a 1e308 s period used to write every edge as inf
        path = tmp_path / "trace.bin"
        write_trace_raw(synthesize_trace(*trains, duration=4e-7), path)
        out = tmp_path / "events.csv"
        argv = ["ingest", "--trace", str(path), "--out", str(out), "--sampling-period", "1e308"]
        assert run_cli(*argv) == 3
        assert capsys.readouterr().err == (
            "data error: rising edge at sample 643 lies past the largest double "
            "at sampling period 1e+308 s\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("form", ["csv", "bin"])
    @pytest.mark.parametrize("threshold", ["1e308", "-1e308"])
    def test_threshold_beyond_float32_range(self, form, threshold, trains, tmp_path, capsys):
        # 1e308 printed "overflow encountered in cast" from numpy
        trace = synthesize_trace(*trains, duration=4e-7)
        path = tmp_path / f"trace.{form}"
        (write_trace_csv if form == "csv" else write_trace_raw)(trace, path)
        out = tmp_path / "events.csv"
        argv = ["ingest", "--trace", str(path), "--out", str(out), f"--threshold={threshold}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == 0
        events = 0 if threshold == "1e308" else 1
        assert f"channel 1: {events} events; channel 2: {events} events" in capsys.readouterr().out

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
    # refused by TraceFile only after the trace was read; the trace path the
    # test passes does not exist, so the flag must be checked first
    "ingest_sampling_period_subnormal": ["ingest", "--sampling-period", "1e-320"],
    "ingest_threshold_nan": ["ingest", "--threshold", "nan"],
    "stats_mean_nan": ["stats", "--mean", "nan"],
    "stats_dead_time_zero": ["stats", "--mean", "0.012", "--dead-time", "0"],
    # 1/dead_time overflowed: stats printed inf slots per second and a NaN mean
    "stats_dead_time_subnormal": ["stats", "--mean", "0.012", "--dead-time", "5e-324"],
    "fig4_v_nan": ["fig4", "--v", "nan"],
    "fig4_leff_zero": ["fig4", "--leff", "0"],
    "fig4_span_zero": ["fig4", "--span", "0"],
}


@pytest.mark.parametrize("name", sorted(BAD_NUMERIC_FLAGS))
def test_bad_numeric_flag_exits_2(name, tmp_path, capsys):
    argv = BAD_NUMERIC_FLAGS[name]
    flag, value = argv[-2:]
    if argv[0] == "ingest":
        argv = argv + ["--trace", str(tmp_path / "trace.bin"), "--out", str(tmp_path / "e.csv")]
    if argv[0] == "fig4":
        argv = argv[:1] + ["--v", "1", "--leff", "2e-6", "--out", str(tmp_path / "c.csv")] + argv[1:]
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    if value in ("nan", "inf"):
        reason = "is not finite"
    elif name.endswith("subnormal"):
        reason = f"is subnormal, below {sys.float_info.min!r}"
    else:
        reason = "is not > 0"
    assert f"argument {flag}: '{value}' {reason}" in err
    assert "Traceback" not in err


# numeric flag values: any double as repr, integers, the edges of the double
# range and text that is not a number
REAL = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(
        ["0", "-0.0", "5e-324", "1e-320", "2.2250738585072014e-308", "1e-300", "1e308",
         "-1e308", "1e999", "nan", "-inf", "abc", "", "0x10", "1_0", "4e-10", "0.882", "2e-6"]
    ),
)
# fig4 --points stays at or below 10**4 rows
POINTS = st.one_of(st.integers(-3, 10**4).map(str), st.sampled_from(["2.5", "1e3", "abc", ""]))
SEED = st.one_of(
    st.integers(-(2**65), 2**65).map(str), st.sampled_from(["-1", str(2**64), "1.5", "nan", ""])
)
# at most 2 valid workers; the invalid counts are refused before any worker is forked
WORKERS = st.one_of(
    st.integers(1, 2).map(str), st.sampled_from(["0", "-1", str(-(2**70)), "1.5", "abc", ""])
)
FUZZED_FLAGS = {
    "fig4": {"--v": REAL, "--leff": REAL, "--span": REAL, "--points": POINTS, "--wavelength": REAL},
    "stats": {"--mean": REAL, "--dead-time": REAL},
    "ingest": {"--sampling-period": REAL, "--threshold": REAL},
    "simulate": {"--seed": SEED, "--workers": WORKERS},
}
# a value written as nan or inf; a temporary path holds none as a whole word
NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
# the flags a subcommand requires, with a valid value where the case draws none
REQUIRED_FLAGS = {"fig4": {"--v": "0.882", "--leff": "2e-6"}, "stats": {"--mean": "0.012"}}


@pytest.fixture(scope="module")
def flag_fuzz_inputs(tmp_path_factory):
    """A 2-point, one-step config and a CSV and a raw trace, for the flag fuzzer."""
    root = tmp_path_factory.mktemp("flags")
    doc = {
        "source": {"mean_photon_override": 0.012},
        "scan": {"n_points": 2, "seconds_per_point": 0.1, "seed": 5},
    }
    (root / "cfg.json").write_text(json.dumps(doc))
    a = PulseTrain((np.arange(6) * 50_000 + 7_000).astype(np.int64), 10_000, bin_length=400_000)
    b = PulseTrain((np.arange(4) * 70_000 + 23_000).astype(np.int64), 10_000, bin_length=400_000)
    trace = synthesize_trace(a, b, duration=4e-7)
    write_trace_csv(trace, root / "trace.csv")
    write_trace_raw(trace, root / "trace.bin")
    return root


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_numeric_flag_fuzz_exits_cleanly(flag_fuzz_inputs, data):
    command = data.draw(st.sampled_from(sorted(FUZZED_FLAGS)))
    flags = dict(REQUIRED_FLAGS.get(command, {}))
    for flag, values in FUZZED_FLAGS[command].items():
        value = data.draw(st.none() | values, label=flag)
        if value is not None:
            flags[flag] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [command] + [f"{flag}={value}" for flag, value in flags.items()]
        if command == "fig4":
            argv += ["--out", str(out)]
        elif command == "ingest":
            trace = data.draw(st.sampled_from(["trace.csv", "trace.bin"]))
            argv += ["--trace", str(flag_fuzz_inputs / trace), "--out", str(out)]
        elif command == "simulate":
            argv += ["--config", str(flag_fuzz_inputs / "cfg.json"), "--out", str(out)]
        stdout, err = io.StringIO(), io.StringIO()
        saved_seed = os.environ.pop(SEED_ENV_VAR, None)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse refused a value
            code = exc.code
        finally:
            if saved_seed is not None:
                os.environ[SEED_ENV_VAR] = saved_seed
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        written = sorted(out.rglob("*")) if out.is_dir() else [out] if out.exists() else []
        if code == 0:
            for text in [stdout.getvalue()] + [path.read_text() for path in written]:
                assert not NON_FINITE.search(text), (argv, text[:200])
        else:
            assert not any(path.name == "scan.csv" for path in written), argv


# values that pass argparse but that pstream refuses: stats printed two lines
# before it refused, an envelope width whose square underflows wrote NaN
# (g2 from fig4, the envelope column from simulate) and exited 0, and a
# config whose values only scan point 0 refused left an empty --out behind
REFUSED_VALUES = {
    "stats_mean_negative": (["stats", "--mean", "-1"], "mean must be >= 0, got -1.0"),
    "fig4_leff_square_underflows": (
        ["fig4", "--v", "1", "--leff", "1e-300", "--out", "{out}/curves.csv"],
        "l_eff must be > 0 with a square that does not underflow, got 1e-300",
    ),
    "fig4_visibility_above_one": (
        ["fig4", "--v", "2", "--leff", "2e-6", "--out", "{out}/curves.csv"],
        "visibility must lie in [0, 1]",
    ),
    "simulate_coherence_length_square_underflows": (
        ["simulate", "--config", "{config}", "--out", "{out}"],
        "optics: effective_coherence_length must be > 0 with a square that does not underflow,"
        " got 1e-300",
    ),
    "simulate_step_shorter_than_slot": (
        ["simulate", "--config", "{config}", "--out", "{out}"],
        "<root>: ccm.step 1e-08 s is shorter than one 2.2e-08 s slot",
    ),
    # 2*pi*x/wavelength overflowed: fig4 wrote NaN curves and simulate an
    # infinite phase_rad, both with exit 0
    "fig4_wavelength_subnormal": (
        ["fig4", "--v", "1", "--leff", "2e-6", "--wavelength", "5e-324", "--out", "{out}/c.csv"],
        "phase 2*pi*x/wavelength is not finite at wavelength 5e-324 m",
    ),
    "simulate_wavelength_subnormal": (
        ["simulate", "--config", "{config}", "--out", "{out}"],
        "<root>: phase 2*pi*x/wavelength is not finite at wavelength 1e-320 m",
    ),
    "simulate_seed_negative": (
        ["simulate", "--config", "{config}", "--out", "{out}", "--seed", "-1"],
        "seed must lie in [0, 2**64), got -1",
    ),
    "simulate_seed_too_large": (
        ["simulate", "--config", "{config}", "--out", "{out}", "--seed", str(2**64)],
        f"seed must lie in [0, 2**64), got {2**64}",
    ),
}
# the sections that the simulate cases above replace in TINY_CONFIG
REFUSED_CONFIGS = {
    "simulate_coherence_length_square_underflows": {
        "optics": {"effective_coherence_length": 1e-300},
        "scan": dict(TINY_CONFIG["scan"], asymmetric_walkoff=True),
    },
    "simulate_step_shorter_than_slot": {"ccm": {"step": 1e-8}},
    "simulate_wavelength_subnormal": {
        "source": {"mean_photon_override": 0.012, "wavelength": 1e-320}
    },
}


@pytest.mark.parametrize("name", sorted(REFUSED_VALUES))
def test_refused_value_exits_2_before_any_output(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    argv, message = REFUSED_VALUES[name]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(TINY_CONFIG, **REFUSED_CONFIGS.get(name, {}))))
    out = tmp_path / "out" / "deep"
    argv = [arg.format(config=config, out=out) for arg in argv]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"
    assert not (tmp_path / "out").exists()


# each value was taken as given: a ValueError traceback, exit 3 for a
# configuration error, or a worker count below one run as one worker; 10**20
# points reached np.linspace, whose ValueError ended in a traceback and exit 1
BAD_INTEGER_FLAGS = {
    "fig4_points_negative": (["fig4", "--points", "-5"], "is not >= 2"),
    "fig4_points_one": (["fig4", "--points", "1"], "is not >= 2"),
    "fig4_points_above_cap": (["fig4", "--points", str(10**20)], f"is not <= {MAX_POINTS}"),
    "simulate_workers_zero": (["simulate", "--workers", "0"], "is not >= 1"),
    "simulate_workers_negative": (["simulate", "--workers", "-3"], "is not >= 1"),
}
REQUIRED = {
    "fig4": ["--v", "1.0", "--leff", "2e-6", "--out", "curves.csv"],
    "simulate": ["--config", "cfg.json", "--out", "out"],
}


@pytest.mark.parametrize("name", sorted(BAD_INTEGER_FLAGS))
def test_out_of_range_integer_flag_exits_2(name, capsys):
    argv, reason = BAD_INTEGER_FLAGS[name]
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv[:1] + REQUIRED[argv[0]] + argv[1:])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: '{value}' {reason}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,flag", [("fig4", "--points"), ("simulate", "--workers")])
def test_integer_flag_takes_only_integers(command, flag, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([command, *REQUIRED[command], flag, "2.5"])
    assert info.value.code == 2
    assert f"argument {flag}: invalid integer value: '2.5'" in capsys.readouterr().err


def test_integer_flags_accept_their_lower_bounds():
    args = build_parser().parse_args(["fig4", *REQUIRED["fig4"], "--points", "2"])
    assert args.points == 2
    # and the cap of --points
    args = build_parser().parse_args(["fig4", *REQUIRED["fig4"], "--points", str(MAX_POINTS)])
    assert args.points == MAX_POINTS
    args = build_parser().parse_args(["simulate", *REQUIRED["simulate"], "--workers", "1"])
    assert args.workers == 1


# the README workflows run as the pstream console script: the reference curves
# (fig4), the coincidence scan and the walk-off scan (simulate); each bad
# integer flag must stop the whole process with a usage error before any output
WORKFLOW_ARGV = {
    "reference": ["fig4", "--v", "1.0", "--leff", "2e-6", "--out", "{out}/curves.csv"],
    "coincidence": ["simulate", "--config", "{config}", "--out", "{out}"],
    "walkoff": ["simulate", "--config", "{config}", "--out", "{out}"],
}
BAD_SCRIPT_FLAGS = {
    "reference_points_one": ("reference", "--points", "1"),
    "reference_points_negative": ("reference", "--points", "-3"),
    "reference_points_above_cap": ("reference", "--points", str(10**20)),
    "coincidence_workers_zero": ("coincidence", "--workers", "0"),
    "walkoff_workers_zero": ("walkoff", "--workers", "0"),
}


@pytest.mark.parametrize("name", sorted(BAD_SCRIPT_FLAGS))
@pytest.mark.usefixtures("child_pythonpath")
def test_script_rejects_bad_flag(name, tmp_path):
    workflow, flag, value = BAD_SCRIPT_FLAGS[name]
    config = tmp_path / "cfg.json"
    scan = dict(TINY_CONFIG["scan"], asymmetric_walkoff=workflow == "walkoff")
    config.write_text(json.dumps(dict(TINY_CONFIG, scan=scan)))
    out = tmp_path / "out"
    argv = [arg.format(config=config, out=out) for arg in WORKFLOW_ARGV[workflow]]
    proc = subprocess.run(
        [sys.executable, "-m", "pstream.cli", *argv, flag, value],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert f"argument {flag}: '{value}'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.usefixtures("child_pythonpath")
def test_simulate_leaves_no_process_running(config_path, tmp_path):
    # in a session of its own, the run's process group is its pid: the forked
    # workers are in it until they exit.  stderr goes to a file, which a
    # worker left running cannot hold open
    argv = ["simulate", "--config", str(config_path), "--out", str(tmp_path / "out"), "--workers", "2"]
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "pstream.cli", *argv],
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
        code = proc.wait(timeout=120)
    assert code == 0, (tmp_path / "stderr").read_text()
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # and ends what is left
    except ProcessLookupError:
        return
    pytest.fail("processes of the run were left running after it exited")


class TestEntryPoint:
    @pytest.mark.usefixtures("child_pythonpath")
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pstream.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "pstream" in proc.stdout


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """Every line of a README code block that runs ``pstream``."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = (line.strip() for block in blocks for line in block.splitlines())
    return [line for line in lines if line.startswith("pstream ")]


def test_readme_commands_parse():
    """README's commands name only subcommands and flags that pstream takes
    (each line is parsed, not run), cover every subcommand, and no script."""
    commands = set()
    for line in readme_commands():
        try:
            args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"pstream does not take this README command: {line}")
        commands.add(args.command)
    assert commands == {"simulate", "analyze", "fig4", "stats", "ingest"}
    assert "scripts/" not in README.read_text()
