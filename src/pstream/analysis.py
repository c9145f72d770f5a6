"""Statistical estimators for scan data.

Fringe visibility and the coincidence min/max ratio use robust extrema (the
mean of the top and bottom 5% of samples) because raw min/max on
Poisson-noisy counts biases the contrast upward.  The intensity-correlation
estimators come in three flavors:

* ``g2_ratio``   -- min/max of the coincidence fringe, the quantity quoted
                    against the 0.5 classical bound;
* ``g2_rate``    -- the textbook rate formula (N_c / (N_A N_B)) * (T / dt);
* ``averaged_g2``-- the phase-resolved curve.  The pointwise rate formula is
                    ill-defined where one output port goes dark, but averaging
                    over the pi-shifted twin configuration makes both mean
                    rates uniform, which licenses normalizing the coincidence
                    fringe by its coherent-center maximum.  The walk-off
                    envelope then blends that normalized curve toward the
                    incoherent level: g2(x) = G*n_c + (1-G)*0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, NumericalError

ROBUST_FRACTION = 0.05
MIN_WINDOW_SAMPLES = 8
CLASSICAL_VISIBILITY_LIMIT = 1.0 / math.sqrt(2.0)
CLASSICAL_G2_BOUND = 0.5


@dataclass(frozen=True)
class FringeSeries:
    """One scan series: positions (meters or seconds) and values (counts or rates)."""

    positions: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "values", values)
        if positions.shape != values.shape or positions.ndim != 1:
            raise DataError("positions and values must be 1-d arrays of equal length")

    def select(self, window: tuple[float, float] | None) -> np.ndarray:
        if window is None:
            return self.values
        lo, hi = window
        return self.values[(self.positions >= lo) & (self.positions <= hi)]


@dataclass(frozen=True)
class CorrelationReport:
    """Summary statistics for one scan, as quoted in the experiment write-up."""

    visibility_a: float
    visibility_b: float
    g2_ratio_min_over_max: float
    g2_rate: float
    eta21: float
    mean_photon: float
    fringe_period: float
    visibility_above_classical: bool
    g2_below_classical: bool

    def as_items(self) -> list[tuple[str, object]]:
        return [
            ("visibility_A", self.visibility_a),
            ("visibility_B", self.visibility_b),
            ("g2_ratio_min_over_max", self.g2_ratio_min_over_max),
            ("g2_rate", self.g2_rate),
            ("eta21", self.eta21),
            ("mean_photon", self.mean_photon),
            ("fringe_period_m", self.fringe_period),
            ("visibility_above_classical", self.visibility_above_classical),
            ("g2_below_classical", self.g2_below_classical),
        ]


def robust_extrema(values: np.ndarray) -> tuple[float, float]:
    n_tail = max(1, math.ceil(ROBUST_FRACTION * values.size))
    ordered = np.sort(values)
    return float(ordered[:n_tail].mean()), float(ordered[-n_tail:].mean())


def _windowed(series: FringeSeries, window) -> np.ndarray:
    values = series.select(window)
    if values.size < MIN_WINDOW_SAMPLES:
        raise DataError(
            f"window holds {values.size} samples; at least {MIN_WINDOW_SAMPLES} required"
        )
    return values


def visibility(series: FringeSeries, window: tuple[float, float] | None = None) -> float:
    """Fringe contrast (max - min)/(max + min) over the window, robust extrema."""
    lo, hi = robust_extrema(_windowed(series, window))
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def g2_ratio(coinc: FringeSeries, window: tuple[float, float] | None = None) -> float:
    """Min/max of the coincidence fringe over the window, robust extrema."""
    lo, hi = robust_extrema(_windowed(coinc, window))
    if hi == 0.0:
        raise NumericalError("coincidence fringe maximum is zero; ratio undefined")
    return lo / hi


def g2_rate(n_a: float, n_b: float, n_c: float, accumulation: float, delta_t: float) -> float:
    """Rate-normalized intensity correlation (N_c / (N_A N_B)) * (T / delta_t).

    ``delta_t`` is the coincidence window: the spread of start times over which
    the counter pairs two pulses.  For the AND gate that is the matcher's own
    window d_A + d_B - 2*overlap_threshold, 10 ns for 10 ns pulses and a 5 ns
    threshold, 30 ns for 20 ns pulses (``build_report`` passes it).

    On the simulator's slot grid this reads about tau_slot / delta_t (2.2 for
    22 ns slots and a 10 ns window) for coherent light, not the textbook 1
    (Grangier, Roger & Aspect, EPL 1, 173, 1986).  The textbook value assumes
    independent arrival times that coincide within delta_t.  Here every photon
    of a slot arrives at the slot start, so two photons coincide exactly when
    they share a slot: N_c / (N_A N_B) = 1 / S for S slots, and T / delta_t =
    S tau_slot / delta_t.
    """
    if accumulation <= 0 or delta_t <= 0:
        raise DomainError("accumulation and delta_t must be > 0")
    if n_c == 0:
        return 0.0
    if n_a <= 0 or n_b <= 0:
        raise NumericalError("singles counts must be positive for a defined rate ratio")
    return (n_c / (n_a * n_b)) * (accumulation / delta_t)


def averaged_g2(
    fringe_pair: tuple[FringeSeries, FringeSeries],
    coinc: FringeSeries,
    envelope_gain: np.ndarray,
) -> FringeSeries:
    """Phase-resolved intensity correlation on the scan grid.

    The coincidence series is normalized by its maximum over the coherent
    center (positions where the envelope is at least 1/2, falling back to the
    global maximum), then blended toward the incoherent 0.5 level:
    g2 = G*n_c + (1 - G)*0.5.  Wherever n_c <= 1 the curve is therefore bounded
    by (1 + G)/2, so it reaches 1 only where G = 1.
    """
    series_a, series_b = fringe_pair
    envelope_gain = np.asarray(envelope_gain, dtype=float)
    for other in (series_b, coinc):
        if not np.array_equal(series_a.positions, other.positions):
            raise DataError("fringe and coincidence series must share one position grid")
    if envelope_gain.shape != coinc.positions.shape:
        raise DataError("envelope array must match the position grid")

    center = envelope_gain >= 0.5
    reference = coinc.values[center] if center.any() else coinc.values
    peak = float(reference.max())
    if peak <= 0.0:
        raise NumericalError("coincidence series has no positive coherent-center maximum")
    n_c = coinc.values / peak
    blended = envelope_gain * n_c + (1.0 - envelope_gain) * 0.5
    return FringeSeries(positions=coinc.positions, values=blended)


def eta21(n_bunched: float, n_single_per_path: float) -> float:
    """Ratio of bunched events to total singles: n_bunched / (2 * singles per path)."""
    if n_bunched < 0:
        raise DomainError("n_bunched must be >= 0")
    if n_bunched == 0:
        return 0.0
    if n_single_per_path <= 0:
        raise NumericalError("singles count must be positive for a defined ratio")
    return n_bunched / (2.0 * n_single_per_path)


def fringe_period(series: FringeSeries) -> float:
    """Dominant fringe period via a zero-padded Hann periodogram peak.

    The peak bin is refined by parabolic interpolation on log power.  Raises
    if the series carries no significant spectral peak or the estimated period
    is not adequately sampled (at least two periods in the span, roughly four
    samples per period).
    """
    values = series.values
    positions = series.positions
    if values.size < 2 * MIN_WINDOW_SAMPLES:
        raise DataError("series too short for period estimation")
    if np.ptp(values) == 0.0:
        raise NumericalError("constant series has no fringe period")

    n = values.size
    span = float(positions[-1]) - float(positions[0])
    spacing = span / (n - 1)
    if not spacing > 0:
        raise DataError("positions must span a nonzero range")
    detrended = (values - values.mean()) * np.hanning(n)
    padded = 8 * n
    power = np.abs(np.fft.rfft(detrended, n=padded)) ** 2
    # skip DC and the slow-trend bins below half a cycle across the span
    k_min = max(1, padded // (2 * n) + 1)
    peak_k = int(np.argmax(power[k_min:])) + k_min
    noise = float(np.median(power[k_min:]))
    if noise > 0 and power[peak_k] / noise < 50.0:
        raise NumericalError("no significant spectral peak above the noise floor")

    if 0 < peak_k < power.size - 1:
        with np.errstate(divide="ignore"):
            alpha, beta, gamma = np.log(power[peak_k - 1 : peak_k + 2])
        denom = alpha - 2.0 * beta + gamma
        delta = 0.5 * (alpha - gamma) / denom if denom != 0 and np.isfinite(denom) else 0.0
        delta = float(np.clip(delta, -0.5, 0.5)) if np.isfinite(delta) else 0.0
    else:
        delta = 0.0
    freq = (peak_k + delta) / (padded * spacing)
    if not 0 < freq < math.inf:
        raise DataError(f"positions spaced {spacing!r} apart give no finite fringe frequency")
    period = 1.0 / freq

    if span / period < 2.0:
        raise NumericalError("fewer than two periods sampled; estimate unreliable")
    if period < 4.0 * spacing:
        raise NumericalError("fewer than four samples per period; estimate unreliable")
    return float(period)

