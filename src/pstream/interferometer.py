"""Wave-model Mach-Zehnder interferometer.

One mirror rides on a piezo actuator; its displacement sets the relative phase
between the two arms.  A photon reaching the recombining beam splitter exits
toward detector D1 with probability (1 - V*G*cos(phase))/2, where V is the
static overlap quality of the two beams and G is a Gaussian envelope modelling
the walk-off decoherence induced by single-axis piezo scanning.  The pi/2
phase picked up between the transmitted and reflected fields of a lossless
splitter sends every photon to D2 at zero phase and full contrast; it lives in
the sign of that formula, so the state at a scan point is just phase, V and G.

All functions are pure; OpticalState and PztConfig are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

_FOUR_LN2 = 4.0 * math.log(2.0)


@dataclass(frozen=True)
class OpticalState:
    """Interferometer state at one scan position.

    phase                  relative phase between the arms at the output
                           splitter, radians (unwrapped)
    intrinsic_visibility   static fringe contrast V from alignment / splitter
                           ratio imperfections, in [0, 1]
    envelope_gain          walk-off envelope value G at the scan position, in
                           [0, 1]
    """

    phase: float = 0.0
    intrinsic_visibility: float = 1.0
    envelope_gain: float = 1.0

    def d1_probability(self) -> float:
        """Probability that a photon exits toward D1; DomainError for a V or G outside [0, 1]."""
        return port_probability(self.phase, self.envelope_gain, self.intrinsic_visibility)


@dataclass(frozen=True)
class PztConfig:
    """Piezo scan calibration: voltage range, resolution and meters per volt.

    The default calibration of 8e-8 m/V maps the 0-100 V range onto +-4 um
    about the range center, where the beam overlap is perfect.  The range
    must hold a finite number of resolution steps.
    """

    voltage_min: float = 0.0
    voltage_max: float = 100.0
    voltage_resolution: float = 1.5e-3
    displacement_per_volt: float = 8e-8

    def __post_init__(self):
        if self.voltage_max <= self.voltage_min:
            raise ConfigError("voltage_max must exceed voltage_min")
        if self.voltage_resolution <= 0:
            raise ConfigError("voltage_resolution must be > 0")
        span = self.voltage_max - self.voltage_min
        if not math.isfinite(span / self.voltage_resolution):
            raise ConfigError(
                f"voltage range {span} V is not a finite number of "
                f"{self.voltage_resolution} V resolution steps"
            )
        if self.displacement_per_volt <= 0:
            raise ConfigError("displacement_per_volt must be > 0")

    @property
    def voltage_center(self) -> float:
        return 0.5 * (self.voltage_min + self.voltage_max)


def pzt_phase(x, wavelength: float):
    """Phase 2*pi*x/wavelength for a path-length offset ``x`` (unwrapped).

    A half-wavelength displacement is a pi phase shift.  Accepts scalars or
    arrays; refuses a phase that overflows, whose cosine would be NaN.
    """
    if wavelength <= 0:
        raise DomainError(f"wavelength must be > 0, got {wavelength}")
    # a phase that overflows is refused below, so it need not warn
    with np.errstate(over="ignore"):
        phase = 2.0 * math.pi * x / wavelength
    if not np.all(np.isfinite(phase)):
        raise DomainError(f"phase 2*pi*x/wavelength is not finite at wavelength {wavelength!r} m")
    return phase


def voltage_to_displacement(v: float, cfg: PztConfig) -> float:
    """Mirror displacement for drive voltage ``v``.

    The offset from the range center is quantized to the controller's voltage
    resolution grid, then scaled by the calibration; the center of the range
    maps to x = 0.  Refuses a voltage whose offset is not a finite number of
    steps, as where the center 0.5*(min + max) overflows.
    """
    if not cfg.voltage_min <= v <= cfg.voltage_max:
        raise DomainError(
            f"voltage {v} outside [{cfg.voltage_min}, {cfg.voltage_max}]"
        )
    offset = v - cfg.voltage_center
    steps = offset / cfg.voltage_resolution
    if not math.isfinite(steps):
        raise DomainError(
            f"voltage {v} lies {offset} V from the range center, not a finite number of "
            f"{cfg.voltage_resolution} V resolution steps"
        )
    quantized = round(steps) * cfg.voltage_resolution
    return quantized * cfg.displacement_per_volt


def envelope(x, l_eff: float):
    """Gaussian walk-off envelope with FWHM ``l_eff``: exp(-4 ln2 x^2 / l_eff^2).

    Accepts scalars or arrays; equals 1 at x = 0 and 1/2 at |x| = l_eff/2.
    A width whose square underflows to 0 (below about 1e-162 m) is refused:
    it would give 0/0 at x = 0.  Where the exponent overflows, or the width's
    square does, the ratio x/l_eff is squared instead: the same Gaussian,
    without the overflow or inf/inf.
    """
    if not (l_eff > 0 and l_eff * l_eff > 0):
        raise DomainError(f"l_eff must be > 0 with a square that does not underflow, got {l_eff}")
    xs = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # such values are replaced below
        exponent = -_FOUR_LN2 * xs * xs / (l_eff * l_eff)
        kept = np.isfinite(exponent) & math.isfinite(l_eff * l_eff)
        if not kept.all():
            ratio = xs / l_eff
            exponent = np.where(kept, exponent, -_FOUR_LN2 * ratio * ratio)
    return np.exp(exponent)


def _check_unit_interval(name: str, value) -> None:
    arr = np.asarray(value, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both
        raise DomainError(f"{name} must lie in [0, 1]")


def port_probability(phase, envelope_gain, visibility):
    """Probability a photon exits toward D1: (1 - V*G*cos(phase))/2.

    At zero phase with perfect contrast every photon exits toward D2; with no
    coherence (V*G = 0) the splitter is a plain 50/50 divider.  Accepts scalar
    or array phase/envelope.
    """
    _check_unit_interval("envelope_gain", envelope_gain)
    _check_unit_interval("visibility", visibility)
    return 0.5 * (1.0 - visibility * envelope_gain * np.cos(phase))


def singles_fringe(phase, envelope_gain, visibility):
    """Normalized single-photon rates (toward D1, toward D2); the pair sums to 1."""
    p = port_probability(phase, envelope_gain, visibility)
    return p, 1.0 - p


def pair_coincidence_probability(phase, envelope_gain, visibility):
    """Probability a bunched pair splits to one click on each detector.

    Both photons of a pair are routed independently with the same port
    probability p, so a split happens with probability
    2 p (1 - p) = (1 - (V G cos phase)^2) / 2, giving a fringe doubly
    modulated relative to the singles fringe.
    """
    p = port_probability(phase, envelope_gain, visibility)
    return 2.0 * p * (1.0 - p)
