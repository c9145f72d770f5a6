import dataclasses
import os
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

from pstream import runner
from pstream.coincidence import CcmConfig, coincide
from pstream.config import ExperimentConfig, ScanConfig
from pstream.detection import detect_bin
from pstream.errors import ConfigError, DataError
from pstream.interferometer import OpticalState, envelope
from pstream.seeding import derive_seed
from pstream.source import SourceConfig, sample_batch
from pstream.runner import (
    Fig4Curves,
    ScanPoint,
    ScanResult,
    analytic_fig4,
    build_report,
    export_scan_csv,
    read_scan_csv,
    run_scan,
    scan_series,
)


def small_config(n_points=12, seconds=0.2, seed=2024, **scan_kwargs):
    return dataclasses.replace(
        ExperimentConfig(),
        scan=ScanConfig(n_points=n_points, seconds_per_point=seconds, seed=seed, **scan_kwargs),
    )


@pytest.fixture(scope="module")
def small_scan():
    return run_scan(small_config())


class TestRunScanDeterminism:
    def test_identical_seeds_identical_points(self, small_scan):
        again = run_scan(small_config())
        assert again.points == small_scan.points

    def test_worker_count_does_not_matter(self, small_scan):
        threaded = run_scan(small_config(), workers=3)
        assert threaded.points == small_scan.points

    def test_different_seed_differs(self, small_scan):
        other = run_scan(small_config(seed=2025))
        assert other.points != small_scan.points

    def test_point_metadata(self, small_scan):
        points = small_scan.points
        assert [p.point for p in points] == list(range(12))
        assert points[0].voltage == 0.0 and points[-1].voltage == 100.0
        # center of the ramp maps to x = 0, ends to roughly +-4 um
        assert abs(points[0].x + 4e-6) < 1e-9
        assert abs(points[-1].x - 4e-6) < 1e-9

    def test_counts_scale_with_dwell(self, small_scan):
        double = run_scan(small_config(seconds=0.4))
        short_total = sum(p.n_a + p.n_b for p in small_scan.points)
        long_total = sum(p.n_a + p.n_b for p in double.points)
        assert long_total == pytest.approx(2 * short_total, rel=0.05)


class TestPointCounts:
    def test_counts_are_sums_of_steps(self, small_scan):
        # each 0.2 s point is two 100 ms steps of 4 545 454 slots of 22 ns,
        # seeded point -> step -> (batch lane 0, detection lane 1)
        cfg = small_config()
        for p in small_scan.points:
            state = OpticalState(p.phase, cfg.optics.intrinsic_visibility, p.envelope)
            point_seed = derive_seed(cfg.scan.seed, p.point)
            sums = [0, 0, 0]
            for j in range(2):
                step_seed = derive_seed(point_seed, j)
                batch = sample_batch(0.012, 4_545_454, derive_seed(step_seed, 0))
                a, b = detect_bin(
                    batch, state, cfg.detectors, derive_seed(step_seed, 1), slot_width=22e-9
                )
                for k, n in enumerate((len(a), len(b), coincide(a, b, cfg.ccm)[0])):
                    sums[k] += n
            assert [p.n_a, p.n_b, p.n_c] == sums, f"point {p.point}"

    def test_coincidences_bounded_by_singles(self, small_scan):
        for p in small_scan.points:
            assert 0 <= p.n_c <= min(p.n_a, p.n_b), f"point {p.point}"


class TestRunScanPhysics:
    def test_symmetric_scan_keeps_envelope_near_unity(self, small_scan):
        gains = [p.envelope for p in small_scan.points]
        assert min(gains) > 1 - 1e-8

    def test_walkoff_scan_collapses_tail_contrast(self):
        cfg = small_config(n_points=80, seconds=0.5, asymmetric_walkoff=True)
        result = run_scan(cfg, workers=2)
        series_a, _, _, gains = scan_series(result)
        from pstream.analysis import visibility

        assert gains[0] == pytest.approx(envelope(result.points[0].x, 2e-6), rel=1e-9)
        tail = visibility(series_a, (3.0e-6, 4.1e-6))
        assert tail < 0.02

    def test_zero_mean_scan_sees_only_darks(self):
        cfg = small_config(n_points=4, seconds=1.0)
        cfg = dataclasses.replace(
            cfg, source=dataclasses.replace(cfg.source, mean_photon_override=0.0)
        )
        result = run_scan(cfg)
        for p in result.points:
            assert p.n_a + p.n_b < 200  # dark counts only, ~54 expected
            assert p.n_c <= 1

    def test_dwell_must_be_whole_steps(self):
        # a 0.25 s dwell is not a whole number of 0.1 s steps: refused when built
        with pytest.raises(ConfigError, match="whole number of ccm steps"):
            dataclasses.replace(
                ExperimentConfig(),
                scan=ScanConfig(n_points=4, seconds_per_point=0.25, seed=1),
            )

    def test_component_errors_carry_point_index(self, monkeypatch):
        def failing_detect_bin(*args, **kwargs):
            raise DataError("detector fault")

        monkeypatch.setattr(runner, "detect_bin", failing_detect_bin)
        with pytest.raises(DataError, match="scan point 0: detector fault"):
            run_scan(small_config(n_points=4))

    @pytest.mark.parametrize("slot,step", [(125 * 1e-9, 0.1), (128e-9, 1.0)])
    def test_slots_fill_the_step(self, slot, step, monkeypatch):
        # step / slot in float is 799999.99... for a 125 ns slot computed as
        # 125 * 1e-9 and 7812499.99... for 128e-9 in 1 s, which int() cut one slot short
        lengths = set()

        def recording_detect_bin(*args, **kwargs):
            trains = detect_bin(*args, **kwargs)
            lengths.update(train.bin_length for train in trains)
            return trains

        monkeypatch.setattr(runner, "detect_bin", recording_detect_bin)
        cfg = dataclasses.replace(
            small_config(n_points=2, seconds=step),
            source=SourceConfig(dead_time=slot, mean_photon_override=0.012),
            ccm=CcmConfig(step=step),
        )
        run_scan(cfg)
        assert lengths == {round(step * 10**12)}

    def test_jitter_perturbs_ramp_deterministically(self):
        plain = run_scan(small_config(n_points=8, seconds=0.2))
        wobbly1 = run_scan(small_config(n_points=8, seconds=0.2, jitter_volts=0.5))
        wobbly2 = run_scan(small_config(n_points=8, seconds=0.2, jitter_volts=0.5))
        assert [p.voltage for p in wobbly1.points] != [p.voltage for p in plain.points]
        assert [p.voltage for p in wobbly1.points] == [p.voltage for p in wobbly2.points]
        assert all(0.0 <= p.voltage <= 100.0 for p in wobbly1.points)


class InlinePool:
    """Stands in for the worker pool: records the size asked for and runs each
    share in the calling process, so that no test of the cap forks."""

    def __init__(self, sizes):
        self.sizes = sizes

    def __call__(self, processes):
        self.sizes.append(processes)
        return self

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestWorkerCap:
    @pytest.fixture(scope="class")
    def one_worker(self):
        return run_scan(small_config(n_points=5, seconds=0.1)).points

    @pytest.mark.parametrize(
        "workers,n_points,cpus,processes",
        [(10**6, 5, 3, [2]), (10**6, 2, 8, [1]), (4, 5, 8, [3]), (2, 5, 1, []), (1, 5, 8, [])],
    )
    def test_processes_capped_by_points_and_cpus(self, workers, n_points, cpus, processes, monkeypatch):
        sizes = []
        monkeypatch.setattr(runner, "_worker_pool", InlinePool(sizes))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        result = run_scan(small_config(n_points=n_points, seconds=0.1), workers=workers)
        assert sizes == processes
        assert [p.point for p in result.points] == list(range(n_points))

    def test_cpu_count_where_affinity_is_missing(self, monkeypatch, one_worker):
        sizes = []
        monkeypatch.setattr(runner, "_worker_pool", InlinePool(sizes))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        result = run_scan(small_config(n_points=5, seconds=0.1), workers=10**6)
        assert sizes == [3]
        # points i, i + 4, ... are worker i's share, put back in index order
        assert result.points == one_worker


# prints the error run_scan raises at 2 workers when points fail; run in a
# fresh interpreter, so that the forked workers see the patched point
FAILING_SCAN = """
import dataclasses, sys
from pstream import runner
from pstream.config import ExperimentConfig, ScanConfig
from pstream.errors import ContractError, PstreamError

simulate, failing = runner._simulate_point, {int(i) for i in sys.argv[1].split(",")}
def fails(cfg, index, volt):
    if index in failing:
        raise ContractError("detector fault")
    return simulate(cfg, index, volt)

runner._simulate_point = fails
cfg = dataclasses.replace(ExperimentConfig(), scan=ScanConfig(n_points=4, seconds_per_point=0.1, seed=9))
try:
    runner.run_scan(cfg, workers=2)
except PstreamError as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.usefixtures("child_pythonpath")
@pytest.mark.parametrize("failing", ["1,3", "1,2,3"])
def test_worker_errors_keep_type_message_and_lowest_index(failing):
    # with 2 workers the caller runs points 0 and 2, the forked worker 1 and 3:
    # the worker's point 1 fails first in index, though the caller's 2 fails too
    proc = subprocess.run(
        [sys.executable, "-c", FAILING_SCAN, failing], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ContractError scan point 1: detector fault\n"


# a scan whose forked worker dies, then a scan at 2 workers again
KILLED_WORKER = """
import dataclasses, os
from concurrent.futures import BrokenExecutor
from pstream import runner
from pstream.config import ExperimentConfig, ScanConfig

cfg = dataclasses.replace(ExperimentConfig(), scan=ScanConfig(n_points=4, seconds_per_point=0.1, seed=9))
simulate, caller = runner._simulate_point, os.getpid()
def dying(cfg, index, volt):
    if os.getpid() != caller:
        os._exit(1)
    return simulate(cfg, index, volt)

runner._simulate_point = dying
try:
    runner.run_scan(cfg, workers=2)
except BrokenExecutor:
    print("broken")
runner._simulate_point = simulate
print(runner.run_scan(cfg, workers=2).points == runner.run_scan(cfg).points)
"""


@pytest.mark.usefixtures("child_pythonpath")
def test_scan_after_a_killed_worker_forks_a_new_pool():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: a scan forks no worker")
    proc = subprocess.run([sys.executable, "-c", KILLED_WORKER], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "broken\nTrue\n"


class TestScanCsv:
    def test_round_trip_exact(self, small_scan, tmp_path):
        path = tmp_path / "scan.csv"
        export_scan_csv(small_scan, path)
        assert read_scan_csv(path) == small_scan.points

    def test_empty_result_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_scan_csv(ScanResult(points=[], config=ExperimentConfig()), path)
        assert path.read_text() == "point,voltage_V,x_m,phase_rad,envelope,N_A,N_B,N_c\n"
        assert read_scan_csv(path) == []

    def test_two_point_result_is_three_lines(self, tmp_path):
        points = [
            ScanPoint(0, 0.0, -4e-6, -39.7, 1.0, 10, 11, 1),
            ScanPoint(1, 100.0, 4e-6, 39.7, 1.0, 12, 13, 2),
        ]
        path = tmp_path / "two.csv"
        export_scan_csv(ScanResult(points=points, config=ExperimentConfig()), path)
        assert len(path.read_text().splitlines()) == 3

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            read_scan_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "point,voltage_V,x_m,phase_rad,envelope,N_A,N_B,N_c\n0,0.0,0.0,0.0,1.0,1,2\n"
        )
        with pytest.raises(DataError, match="line 2"):
            read_scan_csv(path)

    @pytest.mark.parametrize("count", [2**63, 10**400])
    def test_count_above_int64_reports_line(self, count, tmp_path):
        # 10**400 was read, and analyze then failed converting it to float
        path = tmp_path / "big.csv"
        path.write_text(
            "point,voltage_V,x_m,phase_rad,envelope,N_A,N_B,N_c\n"
            f"0,0.0,0.0,0.0,1.0,{2**63 - 1},1,0\n1,1.0,0.0,0.0,1.0,{count},1,0\n"
        )
        with pytest.raises(DataError, match=r"line 3: count above 2\*\*63 - 1"):
            read_scan_csv(path)


class TestAnalyticFig4:
    def test_product_identity(self):
        x = np.linspace(-4e-6, 4e-6, 5001)
        curves = analytic_fig4(0.9, 2e-6, x)
        assert np.max(np.abs(curves.coincidence - curves.intensity_d1 * curves.intensity_d2)) < 1e-14

    def test_long_coherence_limit_swings_full_range(self):
        # with the envelope scale far beyond the grid the blend is pure fringe
        x = np.linspace(-4e-6, 4e-6, 20001)
        curves = analytic_fig4(1.0, 10.0, x)
        assert curves.g2.min() < 1e-12
        assert curves.g2.max() > 1 - 1e-12

    def test_far_tail_reaches_classical_half(self):
        x = np.linspace(-8e-6, 8e-6, 30001)
        curves = analytic_fig4(1.0, 2e-6, x)
        tail = np.abs(x) > 7.5e-6
        assert np.allclose(curves.g2[tail], 0.5, atol=1e-4)

    def test_zero_phase_point_product_vanishes(self):
        x = np.linspace(-4e-6, 4e-6, 4001)
        curves = analytic_fig4(1.0, 2e-6, x)
        center = np.argmin(np.abs(x))
        assert curves.coincidence[center] == pytest.approx(0.0, abs=1e-12)
        assert curves.intensity_d1[center] == pytest.approx(0.0, abs=1e-12)
        assert curves.intensity_d2[center] == pytest.approx(1.0, abs=1e-12)

    def test_single_point_grid_rejected(self):
        with pytest.raises(DataError):
            analytic_fig4(1.0, 2e-6, np.array([0.0]))


def synthetic_scan(contrast, counts_scale=3e5):
    """Noise-free scan records from the analytic fringe model."""
    xs = np.linspace(-4e-6, 4e-6, 316)
    phase = 2 * np.pi * xs / 632.8e-9
    p = (1 - contrast * np.cos(phase)) / 2
    pair_rate = 3200 * 2 * p * (1 - p)
    points = [
        ScanPoint(
            i,
            float(i),
            float(xs[i]),
            float(phase[i]),
            1.0,
            int(counts_scale * p[i]) + 1,
            int(counts_scale * (1 - p[i])) + 1,
            int(pair_rate[i]),
        )
        for i in range(316)
    ]
    return ScanResult(points=points, config=ExperimentConfig())


class TestClassicalityFlags:
    def test_high_contrast_sets_both_flags(self):
        report = build_report(synthetic_scan(0.9), dead_time=22e-9)
        assert report.visibility_above_classical is True
        assert report.g2_below_classical is True

    def test_low_contrast_clears_both_flags(self):
        # visibility 0.6 sits under the 0.7071 bound and leaves the
        # coincidence min/max ratio 1 - 0.36 = 0.64 above the 0.5 bound
        report = build_report(synthetic_scan(0.6), dead_time=22e-9)
        assert report.visibility_a == pytest.approx(0.6, abs=0.01)
        assert report.visibility_above_classical is False
        assert report.g2_ratio_min_over_max == pytest.approx(0.64, abs=0.02)
        assert report.g2_below_classical is False


class TestBuildReport:
    def test_report_fields_and_flags(self):
        cfg = small_config(n_points=120, seconds=0.5, seed=10)
        result = run_scan(cfg, workers=2)
        report = build_report(result, dead_time=cfg.source.dead_time)
        assert 0.80 < max(report.visibility_a, report.visibility_b) < 0.95
        assert report.visibility_above_classical is True
        assert report.g2_below_classical is True
        assert report.mean_photon == pytest.approx(0.012, rel=0.05)
        assert report.fringe_period == pytest.approx(632.8e-9, rel=0.02)
        assert report.eta21 == pytest.approx(0.003, rel=0.4)
        items = dict(report.as_items())
        assert set(items) == {
            "visibility_A",
            "visibility_B",
            "g2_ratio_min_over_max",
            "g2_rate",
            "eta21",
            "mean_photon",
            "fringe_period_m",
            "visibility_above_classical",
            "g2_below_classical",
        }
