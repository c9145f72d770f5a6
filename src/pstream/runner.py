"""Scan orchestration and data files.

``run_scan`` walks the piezo voltage ramp, simulating each point's photon
stream, detection and coincidence counting for its dwell time.  Every scan
point gets a child seed derived from (scan seed, point index) with the
splitmix64 mixer, so points are independent of evaluation order and of the
worker count; results are collected by index.  With W workers, point i goes
to worker i mod W: worker 0 is the calling process, the others are forked
processes of a pool that later scans reuse.  At most one worker per usable
CPU runs.

The scan CSV schema is fixed:
    point,voltage_V,x_m,phase_rad,envelope,N_A,N_B,N_c
Reports are flat key,value CSV files, and the phase-resolved g2 curve is
written as x_m,envelope,g2 rows.
"""

from __future__ import annotations

import atexit
import csv
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    CLASSICAL_G2_BOUND,
    CLASSICAL_VISIBILITY_LIMIT,
    CorrelationReport,
    FringeSeries,
    averaged_g2,
    eta21,
    fringe_period,
    g2_rate,
    g2_ratio,
    visibility,
    robust_extrema,
)
from .coincidence import accumulate, coincide
from .config import ExperimentConfig
from .detection import PS_PER_S, detect_bin
from .errors import DataError, PstreamError
from .interferometer import (
    OpticalState,
    envelope,
    port_probability,
    pzt_phase,
    voltage_to_displacement,
)
from .seeding import derive_seed
from .source import DEFAULT_WAVELENGTH, mean_photon_number, sample_batch

SCAN_COLUMNS = ["point", "voltage_V", "x_m", "phase_rad", "envelope", "N_A", "N_B", "N_c"]
# half-width of the zero-path window that build_report reads fringes in, meters
CENTER_HALFWIDTH = 2e-6


@dataclass(frozen=True)
class ScanPoint:
    point: int
    voltage: float
    x: float
    phase: float
    envelope: float
    n_a: int
    n_b: int
    n_c: int


@dataclass(frozen=True)
class ScanResult:
    points: list[ScanPoint]
    config: ExperimentConfig


def _scan_voltages(cfg: ExperimentConfig) -> np.ndarray:
    pzt = cfg.optics.pzt
    volts = np.linspace(pzt.voltage_min, pzt.voltage_max, cfg.scan.n_points)
    if cfg.scan.jitter_volts > 0.0:
        rng = np.random.default_rng(derive_seed(cfg.scan.seed, 0xA11CE))
        cycles = rng.uniform(1.0, 3.0)
        phase0 = rng.uniform(0.0, 2.0 * math.pi)
        idx = np.arange(cfg.scan.n_points)
        volts = volts + cfg.scan.jitter_volts * np.sin(
            2.0 * math.pi * cycles * idx / cfg.scan.n_points + phase0
        )
        volts = np.clip(volts, pzt.voltage_min, pzt.voltage_max)
    return volts


def _simulate_point(cfg: ExperimentConfig, index: int, volt: float) -> ScanPoint:
    x = voltage_to_displacement(volt, cfg.optics.pzt)
    phase = pzt_phase(x, cfg.source.wavelength)
    scale = (
        cfg.optics.effective_coherence_length
        if cfg.scan.asymmetric_walkoff
        else cfg.optics.laser_coherence_length
    )
    gain = envelope(x, scale)
    state = OpticalState(phase, cfg.optics.intrinsic_visibility, gain)
    mean = cfg.source.mean_photon()
    point_seed = derive_seed(cfg.scan.seed, index)
    steps = []
    for j in range(cfg.steps_per_point):
        step_seed = derive_seed(point_seed, j)
        batch = sample_batch(mean, cfg.slots_per_step, derive_seed(step_seed, 0))
        train_a, train_b = detect_bin(
            batch, state, cfg.detectors, derive_seed(step_seed, 1), slot_width=cfg.source.dead_time
        )
        n_c, _ = coincide(train_a, train_b, cfg.ccm)
        steps.append((len(train_a), len(train_b), n_c))
    return ScanPoint(index, float(volt), x, phase, float(gain), *accumulate(steps))


def _simulate_share(
    cfg: ExperimentConfig, tasks: list[tuple[int, float]]
) -> tuple[list[ScanPoint], PstreamError | None]:
    """Simulate the (index, voltage) ``tasks`` in order, up to the first that fails.

    Returns the points done and that failure, or None: a ``PstreamError`` of
    the same type whose message starts ``scan point i:``.
    """
    points = []
    for index, volt in tasks:
        try:
            points.append(_simulate_point(cfg, index, volt))
        except PstreamError as exc:
            error = type(exc)(f"scan point {index}: {exc}")
            error.__cause__ = exc
            return points, error
    return points, None


# (executor, processes) of the forked workers that scans share, or None
_pool = None


def _worker_pool(processes: int):
    """A pool of at least ``processes`` forked workers, kept for later scans.

    Forked workers inherit the imported package and the heap policy.  A fork
    is safe while no other thread runs: pstream starts none, the executor
    forks all its workers before it starts its own thread, and a pool is shut
    down, its thread joined, before a larger one replaces it.
    """
    global _pool
    if _pool is None or _pool[1] < processes:
        _close_pool()
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        _pool = (ProcessPoolExecutor(processes, mp_context=context), processes)
    return _pool[0]


def _close_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[0].shutdown(cancel_futures=True)
        _pool = None


# atexit runs after concurrent.futures' own exit hook has joined the workers.
# Dropping the pool then frees it before module teardown: collected there, after
# concurrent.futures.process is cleared, it prints "Exception ignored" on stderr
atexit.register(_close_pool)


def run_scan(cfg: ExperimentConfig, workers: int = 1) -> ScanResult:
    """Simulate the full voltage scan; reproducible for a fixed config seed.

    At most ``min(workers, n_points, usable CPUs)`` workers run, the caller
    among them.  When points fail, the error raised is that of the lowest
    failing index, whatever the worker count.
    """
    tasks = list(enumerate(_scan_voltages(cfg).tolist()))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    n_workers = max(1, min(workers, len(tasks), cpus))
    shares = [tasks[w::n_workers] for w in range(n_workers)]
    pool = _worker_pool(n_workers - 1) if n_workers > 1 else None
    futures = [pool.submit(_simulate_share, cfg, share) for share in shares[1:]]
    try:
        outcomes = [_simulate_share(cfg, shares[0])] + [f.result() for f in futures]
    except BaseException:  # a worker died or raised, or an interrupt: the next scan forks anew
        if futures:
            _close_pool()
        raise
    failures = [(share[len(done)][0], error) for share, (done, error) in zip(shares, outcomes) if error]
    if failures:
        raise min(failures)[1]
    points = [None] * len(tasks)
    for w, (done, _) in enumerate(outcomes):
        points[w::n_workers] = done
    return ScanResult(points=points, config=cfg)


def scan_series(result: ScanResult) -> tuple[FringeSeries, FringeSeries, FringeSeries, np.ndarray]:
    """Decompose a scan into (singles A, singles B, coincidence, envelope) series."""
    xs = np.array([p.x for p in result.points])
    gains = np.array([p.envelope for p in result.points])
    series_a = FringeSeries(xs, np.array([p.n_a for p in result.points], dtype=float))
    series_b = FringeSeries(xs, np.array([p.n_b for p in result.points], dtype=float))
    series_c = FringeSeries(xs, np.array([p.n_c for p in result.points], dtype=float))
    return series_a, series_b, series_c, gains


def build_report(result: ScanResult, dead_time: float) -> CorrelationReport:
    """Correlation summary for a scan, read with the settings of the run in ``result.config``.

    ``dead_time`` is the slot width that turns singles into a mean photon
    number.  The accumulation time is the run's dwell per point, and the
    g2_rate window δt is the coincidence matcher's own: the B pulses that
    overlap an A pulse by the threshold start in an interval
    d_A + d_B - 2*threshold wide, computed in int ps.  The bunched-event count
    entering eta21 is the robust maximum of the coincidence fringe, matching
    how a counter reads the crossing-point rate.  Visibilities, the g2 ratio
    and that maximum are taken over |x| <= ``CENTER_HALFWIDTH``.
    """
    cfg = result.config
    accumulation = cfg.scan.seconds_per_point
    det_a, det_b = cfg.detectors
    window_ps = det_a.pulse_duration_ps + det_b.pulse_duration_ps - 2 * cfg.ccm.overlap_threshold_ps
    delta_t = window_ps / PS_PER_S
    series_a, series_b, series_c, _ = scan_series(result)
    window = (-CENTER_HALFWIDTH, CENTER_HALFWIDTH)
    vis_a = visibility(series_a, window)
    vis_b = visibility(series_b, window)
    ratio = g2_ratio(series_c, window)
    _, n_bunched = robust_extrema(series_c.select(window))
    totals = series_a.values + series_b.values
    per_path = float(totals.mean()) / 2.0
    rate = g2_rate(
        float(series_a.values.mean()),
        float(series_b.values.mean()),
        float(series_c.values.mean()),
        accumulation,
        delta_t,
    )
    mean_n = float(
        np.mean([mean_photon_number(t, accumulation, dead_time) for t in totals])
    )
    period = fringe_period(series_a)
    return CorrelationReport(
        visibility_a=vis_a,
        visibility_b=vis_b,
        g2_ratio_min_over_max=ratio,
        g2_rate=rate,
        eta21=eta21(n_bunched, per_path),
        mean_photon=mean_n,
        fringe_period=period,
        visibility_above_classical=max(vis_a, vis_b) > CLASSICAL_VISIBILITY_LIMIT,
        g2_below_classical=ratio < CLASSICAL_G2_BOUND,
    )


@dataclass(frozen=True)
class Fig4Curves:
    """Reference curves for the phase scan: singles intensities, their product, and g2."""

    x: np.ndarray
    envelope: np.ndarray
    intensity_d1: np.ndarray
    intensity_d2: np.ndarray
    coincidence: np.ndarray
    g2: np.ndarray


def analytic_fig4(
    visibility_v: float,
    l_eff: float,
    x_grid: np.ndarray,
    wavelength: float = DEFAULT_WAVELENGTH,
) -> Fig4Curves:
    """Noise-free model curves over ``x_grid``.

    (a) the pair of normalized output intensities with envelope-degraded
    contrast, (b) their pointwise product (the coincidence curve), and (c) the
    blended intensity correlation from ``averaged_g2``.
    """
    x = np.asarray(x_grid, dtype=float)
    if x.size < 2:
        raise DataError("x grid must hold at least two points")
    gain = envelope(x, l_eff)
    phase = pzt_phase(x, wavelength)
    i_d1 = port_probability(phase, gain, visibility_v)
    i_d2 = 1.0 - i_d1
    product = i_d1 * i_d2
    g2 = averaged_g2(
        (FringeSeries(x, i_d1), FringeSeries(x, i_d2)),
        FringeSeries(x, product),
        gain,
    )
    return Fig4Curves(
        x=x, envelope=gain, intensity_d1=i_d1, intensity_d2=i_d2, coincidence=product, g2=g2.values
    )


def _write_table(path: str | Path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` as CSV with ``"\\n"`` line ends, floats as ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)


def export_scan_csv(result: ScanResult, path: str | Path) -> None:
    """Write a scan as CSV with the fixed column schema (header always present)."""
    # a point's fields are the columns, in order
    _write_table(path, SCAN_COLUMNS, (vars(p).values() for p in result.points))


def read_scan_csv(path: str | Path) -> list[ScanPoint]:
    """Read a scan CSV back into records; floats round-trip exactly via repr.

    Raises DataError for a malformed row, a non-finite float, a negative
    count or one above 2**63 - 1, or more coincidences than the smaller
    singles count.
    """
    points = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SCAN_COLUMNS:
            raise DataError(f"{path}: expected header {','.join(SCAN_COLUMNS)}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(SCAN_COLUMNS):
                raise DataError(f"{path}: line {lineno}: expected {len(SCAN_COLUMNS)} fields")
            try:
                floats = [float(v) for v in row[1:5]]
                point, n_a, n_b, n_c = int(row[0]), int(row[5]), int(row[6]), int(row[7])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, floats)):
                raise DataError(f"{path}: line {lineno}: non-finite value in {','.join(row[1:5])}")
            if min(n_a, n_b, n_c) < 0:
                raise DataError(f"{path}: line {lineno}: negative count")
            if max(n_a, n_b, n_c) > 2**63 - 1:  # a scan counts in int64
                raise DataError(f"{path}: line {lineno}: count above 2**63 - 1")
            if n_c > min(n_a, n_b):
                raise DataError(f"{path}: line {lineno}: N_c = {n_c} exceeds min(N_A, N_B)")
            points.append(ScanPoint(point, *floats, n_a, n_b, n_c))
    return points


def export_report_csv(report: CorrelationReport, path: str | Path) -> None:
    _write_table(path, ["key", "value"], report.as_items())


def export_g2_csv(g2: FringeSeries, gains: np.ndarray, path: str | Path) -> None:
    """Write the phase-resolved g2 curve of a scan as ``x_m,envelope,g2`` rows."""
    rows = zip(g2.positions.tolist(), gains.tolist(), g2.values.tolist())
    _write_table(path, ["x_m", "envelope", "g2"], rows)


def export_fig4_csv(curves: Fig4Curves, path: str | Path) -> None:
    header = ["x_m", "envelope", "intensity_d1", "intensity_d2", "coincidence", "g2"]
    # the curves' fields, in header order
    _write_table(path, header, zip(*(column.tolist() for column in vars(curves).values())))
