"""The benchmark's workloads: inputs made from the workload seed, the timed
operation, and checks of every output against closed forms computed here.

Each workload object is built once (set-up), then ``op(k, tmp)`` runs timed
operation ``k`` and ``check(k, output)`` lists what is wrong with its output
(empty when the output is right).  Every pstream function is reached through
its module attribute, so that a traced run can wrap it where it is looked up.
"""

from __future__ import annotations

import dataclasses
import math
import random
from pathlib import Path

import numpy as np

from pstream import analysis, config, detection, interferometer, runner, source, traces

PS_PER_S = 10**12
FOUR_LN2 = 4.0 * math.log(2.0)
# z-score band of every count check; see README "Count checks"
Z_BOUND = 6.0
REL_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class ScanSpec:
    """A scan workload: a committed config and the overrides applied to it."""

    config_file: str
    workers: int
    n_points: int
    # half-width of the voltage window about the range centre, V
    half_window_v: float
    dwell_s: float | None = None
    pulse_duration_s: float | None = None


SCANS = {
    # 16 points, 150 nm apart, over x = +-1.125 um: the densest grid that
    # build_report's fringe-period estimate accepts, at the committed 1 s dwell
    "coherent_scan": ScanSpec("configs/coincidence_scan.json", workers=1, n_points=16,
                              half_window_v=14.0625),
    # 34 points, 150 nm apart, over x = +-2.475 um, where the 2 um walk-off
    # envelope falls to 0.014: both incoherent ends are in the scan
    "walkoff_wide_scan": ScanSpec("configs/walkoff_scan.json", workers=2, n_points=34,
                                  half_window_v=30.9375, dwell_s=0.1, pulse_duration_s=20e-9),
}
# the self-test's scans: coherent_scan's grid, one counter step per point
SMALL_GRID = {"n_points": 16, "half_window_v": 14.0625}
TRACE_WORKLOAD = "trace_roundtrip"
WORKLOADS = (*SCANS, TRACE_WORKLOAD)


def seed_stream(workload: str, seed: int) -> random.Random:
    """The one source of every input of a run: string-seeded, so stable across Python versions."""
    return random.Random(f"{workload}:{seed}")


def make(workload: str, seed: int, root: Path, small: bool = False):
    if workload == TRACE_WORKLOAD:
        return TraceWorkload(seed, root, small)
    return ScanWorkload(workload, SCANS[workload], seed, root, small)


# ---------------------------------------------------------------- scans


class ScanWorkload:
    """One operation is a simulated scan and its analysis: run_scan, the scan
    CSV written and read back, build_report and averaged_g2."""

    def __init__(self, name: str, spec: ScanSpec, seed: int, root: Path, small: bool):
        self.name = name
        self.workers = spec.workers
        cfg = config.load_config(root / spec.config_file)
        pzt = cfg.optics.pzt
        centre = pzt.voltage_center
        if small:
            spec = dataclasses.replace(spec, dwell_s=cfg.ccm.step, **SMALL_GRID)
        scan = dataclasses.replace(cfg.scan, n_points=spec.n_points)
        if spec.dwell_s is not None:
            scan = dataclasses.replace(scan, seconds_per_point=spec.dwell_s)
        detectors = cfg.detectors
        if spec.pulse_duration_s is not None:
            detectors = tuple(
                dataclasses.replace(d, pulse_duration=spec.pulse_duration_s) for d in detectors
            )
        optics = dataclasses.replace(
            cfg.optics,
            pzt=dataclasses.replace(
                pzt,
                voltage_min=centre - spec.half_window_v,
                voltage_max=centre + spec.half_window_v,
            ),
        )
        self.base = dataclasses.replace(cfg, scan=scan, optics=optics, detectors=detectors)
        self.record_s = scan.n_points * scan.seconds_per_point
        self._rng = seed_stream(name, seed)
        self._seeds: list[int] = []
        self.first_points = None
        # warm-up: a two-point, one-step scan through the same code
        warm = dataclasses.replace(
            self.base,
            scan=dataclasses.replace(scan, n_points=2, seconds_per_point=cfg.ccm.step),
        )
        runner.run_scan(warm.with_seed(self.config(0).scan.seed), workers=self.workers)

    def config(self, k: int):
        """Operation ``k``'s config: the base config with the k-th seed of the stream."""
        while len(self._seeds) <= k:
            self._seeds.append(self._rng.getrandbits(63))
        return self.base.with_seed(self._seeds[k])

    def op(self, k: int, tmp: Path):
        cfg = self.config(k)
        result = runner.run_scan(cfg, workers=self.workers)
        path = tmp / "scan.csv"
        runner.export_scan_csv(result, path)
        back = runner.read_scan_csv(path)
        runner.build_report(result, dead_time=cfg.source.dead_time)
        series_a, series_b, series_c, gains = runner.scan_series(result)
        analysis.averaged_g2((series_a, series_b), series_c, gains)
        if k == 0:
            self.first_points = result.points
        return result.points, back

    def check(self, k: int, output) -> list[str]:
        points, back = output
        problems = check_scan_points(self.config(k), points)
        if back != points:
            problems.append("read_scan_csv(export_scan_csv(r)) differs from r")
        return problems

    def post_check(self) -> dict[int, list[str]]:
        """Outside the timed phase: a multi-worker operation re-run at one worker."""
        if self.workers <= 1 or self.first_points is None:
            return {}
        again = runner.run_scan(self.config(0), workers=1).points
        if again != self.first_points:
            return {0: [f"workers={self.workers} and workers=1 give different counts"]}
        return {}


def expected_counts(cfg, x: np.ndarray) -> dict[str, np.ndarray]:
    """Closed-form mean counts per scan point, and the dead-time allowance.

    Slots are one source dead time wide and hold a Poisson number of photons
    of mean mu; each photon leaves toward D1 (channel A) with probability
    p = (1 - V G cos phi)/2.  A slot gives an A click with probability
    a_A = P(1) p + P(>=2) (1 - (1-p)^2), and a split pair with probability
    P(>=2) 2p(1-p); P(>=2) lumps every higher order in with pairs.
    """
    mu = cfg.source.mean_photon_override
    p1 = mu * math.exp(-mu)
    p2 = 1.0 - math.exp(-mu) - p1
    slot_s = cfg.source.dead_time
    slots = int(cfg.ccm.step / slot_s) * round(cfg.scan.seconds_per_point / cfg.ccm.step)
    record_s = slots * round(slot_s * PS_PER_S) / PS_PER_S
    length = (
        cfg.optics.effective_coherence_length
        if cfg.scan.asymmetric_walkoff
        else cfg.optics.laser_coherence_length
    )
    gain = np.exp(-FOUR_LN2 * x * x / (length * length))
    phase = 2.0 * math.pi * x / cfg.source.wavelength
    p = (1.0 - cfg.optics.intrinsic_visibility * gain * np.cos(phase)) / 2.0
    det_a, det_b = cfg.detectors
    click_a = p1 * p + p2 * (1.0 - (1.0 - p) ** 2)
    click_b = p1 * (1.0 - p) + p2 * (1.0 - p**2)
    # an event is lost only to a kept event on its detector less than one
    # dead time before it: the previous slot's click or a dark count
    near_a = click_a + det_a.dark_rate * det_a.dead_time
    near_b = click_b + det_b.dark_rate * det_b.dead_time
    n_c = slots * p2 * 2.0 * p * (1.0 - p)
    return {
        "phase": phase,
        "envelope": gain,
        "N_A": slots * click_a + det_a.dark_rate * record_s,
        "N_B": slots * click_b + det_b.dark_rate * record_s,
        "N_c": n_c,
        "loss_A": slots * click_a * near_a,
        "loss_B": slots * click_b * near_b,
        "loss_c": n_c * (near_a + near_b),
    }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def check_scan_points(cfg, points) -> list[str]:
    """Every property of a scan's points that the benchmark can compute on its own."""
    pzt = cfg.optics.pzt
    if len(points) != cfg.scan.n_points:
        return [f"{len(points)} points, expected {cfg.scan.n_points}"]
    volts = np.linspace(pzt.voltage_min, pzt.voltage_max, cfg.scan.n_points)
    centre = 0.5 * (pzt.voltage_min + pzt.voltage_max)
    res = pzt.voltage_resolution
    x = np.array([round((v - centre) / res) * res * pzt.displacement_per_volt for v in volts])
    exp = expected_counts(cfg, x)
    problems = []
    for i, pt in enumerate(points):
        where = f"point {i}"
        if pt.point != i or pt.voltage != volts[i] or not _close(pt.x, x[i]):
            problems.append(f"{where}: index, voltage or x differs from the ramp")
        if not _close(pt.phase, exp["phase"][i]):
            problems.append(f"{where}: phase {pt.phase!r} != 2 pi x / lambda")
        if not _close(pt.envelope, exp["envelope"][i]):
            problems.append(f"{where}: envelope {pt.envelope!r} != exp(-4 ln2 x^2/L^2)")
        if not 0 <= pt.n_c <= min(pt.n_a, pt.n_b):
            problems.append(f"{where}: N_c={pt.n_c} outside [0, min(N_A, N_B)]")
        for key, got, loss in (("N_A", pt.n_a, "loss_A"), ("N_B", pt.n_b, "loss_B"), ("N_c", pt.n_c, "loss_c")):
            mean = exp[key][i]
            band = Z_BOUND * math.sqrt(mean)
            if not mean - exp[loss][i] - band <= got <= mean + band:
                z = (got - mean) / math.sqrt(mean)
                problems.append(f"{where}: {key}={got} is z={z:.2f} from the closed form {mean:.1f}")
    return problems


# ---------------------------------------------------------------- traces


class TraceWorkload:
    """One operation is a capture round trip: synthesize_trace, the raw and the
    CSV file written and read back, and ingest_trace on both read-backs."""

    name = TRACE_WORKLOAD
    workers = 1
    captures_per_run = 4
    capture_s = 100e-6

    def __init__(self, seed: int, root: Path, small: bool):
        cfg = config.load_config(root / "configs/coincidence_scan.json")
        capture_s = self.capture_s / 10 if small else self.capture_s
        slots = round(capture_s / cfg.source.dead_time)
        rng = seed_stream(self.name, seed)
        self.trains = []
        for _ in range(self.captures_per_run):
            optics = interferometer.OpticalState(
                phase=rng.uniform(0.0, 2.0 * math.pi),
                intrinsic_visibility=cfg.optics.intrinsic_visibility,
            )
            batch = source.sample_batch(cfg.source.mean_photon(), slots, rng.getrandbits(63))
            self.trains.append(
                detection.detect_bin(
                    batch, optics, cfg.detectors, rng.getrandbits(63), slot_width=cfg.source.dead_time
                )
            )
        self.record_s = self.trains[0][0].bin_length / PS_PER_S
        # warm-up
        traces.ingest_trace(traces.synthesize_trace(*self.trains[0]))

    def op(self, k: int, tmp: Path):
        trace = traces.synthesize_trace(*self.trains[k % len(self.trains)])
        raw_path, csv_path = tmp / "capture.raw", tmp / "capture.csv"
        traces.write_trace_raw(trace, raw_path)
        raw = traces.read_trace_raw(raw_path)
        traces.write_trace_csv(trace, csv_path)
        csv = traces.read_trace_csv(csv_path)
        return trace, raw, csv, traces.ingest_trace(raw), traces.ingest_trace(csv)

    def check(self, k: int, output) -> list[str]:
        return check_capture(self.trains[k % len(self.trains)], *output)

    def post_check(self) -> dict[int, list[str]]:
        return {}


def expected_edges_ps(train, sampling_ps: int = 400) -> np.ndarray:
    """First sample at or after each pulse start, in integer picoseconds."""
    return -(-train.starts // sampling_ps) * sampling_ps


def check_capture(trains, trace, raw, csv, edges_raw, edges_csv) -> list[str]:
    problems = []
    for name, back in (("raw", raw), ("csv", csv)):
        if back.sampling_period != trace.sampling_period:
            problems.append(f"{name}: sampling period {back.sampling_period!r} != {trace.sampling_period!r}")
        if not (np.array_equal(back.ch1, trace.ch1) and np.array_equal(back.ch2, trace.ch2)):
            problems.append(f"{name}: samples differ from the synthesized trace")
    for name, edges in (("raw", edges_raw), ("csv", edges_csv)):
        for channel, train, got in zip(("ch1", "ch2"), trains, edges):
            want = expected_edges_ps(train)
            got_ps = np.rint(np.asarray(got) * PS_PER_S).astype(np.int64)
            if not np.array_equal(got_ps, want):
                problems.append(f"{name} {channel}: ingested edges differ from ceil(start/400 ps)*400 ps")
    return problems
