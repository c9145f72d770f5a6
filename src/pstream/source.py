"""Attenuated coherent source model.

A stabilized laser is knocked down by a stack of neutral-density filters to a
mean occupancy well below one photon per detector dead time.  Time is
discretized into slots one dead time wide; the number of photons in a slot is
Poisson distributed with the configured mean, which is exactly the accounting
used to convert detector counts back into a mean photon number.  Slots holding
one photon are "singles", slots holding two are "pairs" (the only events that
can produce a true coincidence downstream), and slots holding three or more
are rare enough at these means to be folded into the pair class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

# h*c in J*m; divides a power by the single-photon energy at wavelength lam
# via flux = P * lam / HC.
HC = 1.98645e-25

DEFAULT_WAVELENGTH = 632.8e-9
DEFAULT_DEAD_TIME = 22e-9


@dataclass(frozen=True)
class SourceConfig:
    """Source-side parameters: laser power, ND attenuation, slot accounting.

    ``mean_photon_override``, when set, fixes the mean occupancy per slot
    directly and skips the power -> flux chain.  Detection efficiency is
    understood to be folded into this number; a separate efficiency knob lives
    in DetectorConfig.
    """

    input_power: float = 136e-6
    wavelength: float = DEFAULT_WAVELENGTH
    od_total: float = 0.0
    dead_time: float = DEFAULT_DEAD_TIME
    mean_photon_override: float | None = None

    def __post_init__(self):
        if self.input_power < 0:
            raise ConfigError(f"input_power must be >= 0, got {self.input_power}")
        if self.od_total < 0:
            raise ConfigError(f"od_total must be >= 0, got {self.od_total}")
        if self.wavelength <= 0:
            raise ConfigError(f"wavelength must be > 0, got {self.wavelength}")
        if self.dead_time <= 0:
            raise ConfigError(f"dead_time must be > 0, got {self.dead_time}")
        if self.mean_photon_override is not None and not 0.0 <= self.mean_photon_override < 1.0:
            raise ConfigError(
                f"mean_photon_override must lie in [0, 1), got {self.mean_photon_override}"
            )
        mean = self.mean_photon()
        if mean >= 1.0:
            raise ConfigError(
                f"configured power/OD gives mean occupancy {mean:.3g} >= 1; "
                "increase od_total or set mean_photon_override"
            )

    def mean_photon(self) -> float:
        """Mean occupancy per dead-time slot, from the override or the power chain."""
        if self.mean_photon_override is not None:
            return self.mean_photon_override
        flux = photon_flux(attenuated_power(self.input_power, self.od_total), self.wavelength)
        return flux * self.dead_time


@dataclass(frozen=True)
class PhotonBatch:
    """Occupancy counts for one counter step of ``slots_per_bin`` slots."""

    n_single_slots: int
    n_pair_slots: int
    n_higher_slots: int
    slots_per_bin: int

    def __post_init__(self):
        if self.slots_per_bin < 1:
            raise DomainError("slots_per_bin must be >= 1")
        counts = (self.n_single_slots, self.n_pair_slots, self.n_higher_slots)
        if any(c < 0 for c in counts):
            raise DomainError(f"occupancy counts must be >= 0, got {counts}")
        if sum(counts) > self.slots_per_bin:
            raise DomainError(
                f"occupied slots {sum(counts)} exceed slots_per_bin {self.slots_per_bin}"
            )

    @property
    def n_occupied(self) -> int:
        return self.n_single_slots + self.n_pair_slots + self.n_higher_slots


def attenuated_power(p_in: float, od: float) -> float:
    """Power after an ND stack of total optical density ``od``: p_in * 10**(-od)."""
    if p_in < 0:
        raise DomainError(f"input power must be >= 0, got {p_in}")
    if od < 0:
        raise DomainError(f"optical density must be >= 0, got {od}")
    return p_in * 10.0 ** (-od)


def photon_flux(p: float, wavelength: float) -> float:
    """Photon rate (1/s) carried by power ``p`` at ``wavelength``: p * lam / (h c)."""
    if p < 0:
        raise DomainError(f"power must be >= 0, got {p}")
    if wavelength <= 0:
        raise DomainError(f"wavelength must be > 0, got {wavelength}")
    return p * wavelength / HC


def mean_photon_number(single_count: float, accumulation: float, dead_time: float) -> float:
    """Mean occupancy per dead-time slot from a raw count over ``accumulation`` seconds.

    Equals single_count / (accumulation / dead_time), i.e. counts divided by
    the number of dead-time slots in the accumulation window.
    """
    if single_count < 0:
        raise DomainError(f"single_count must be >= 0, got {single_count}")
    if accumulation <= 0:
        raise DomainError(f"accumulation must be > 0, got {accumulation}")
    if dead_time <= 0:
        raise DomainError(f"dead_time must be > 0, got {dead_time}")
    if dead_time > accumulation:
        raise DomainError("dead_time must not exceed the accumulation window")
    return single_count / (accumulation / dead_time)


def poisson_pmf(n: int, mean: float) -> float:
    """P(N = n) for a Poisson variable with the given mean."""
    if mean < 0:
        raise DomainError(f"mean must be >= 0, got {mean}")
    if n < 0:
        return 0.0
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def poisson_tail(n: int, mean: float) -> float:
    """P(N >= n).

    For ``n <= mean`` it is one minus the head sum, which does not cancel
    there; beyond the mean the tail is summed termwise, which does not cancel
    at small means, until a term stops adding to it (or underflows to 0).
    """
    if mean < 0:
        raise DomainError(f"mean must be >= 0, got {mean}")
    if n <= mean:
        return 1.0 - math.fsum(poisson_pmf(k, mean) for k in range(n))
    total = 0.0
    for k in range(n, max(n + 60, int(3 * mean) + 60)):
        term = poisson_pmf(k, mean)
        total += term
        if term <= total * 1e-18:
            break
    return total


def sample_batch(mean: float, slots_per_bin: int, seed: int | np.random.Generator) -> PhotonBatch:
    """Draw the occupancy-class counts for one counter step of ``slots_per_bin`` slots.

    Single, pair and higher-order slot counts are independent Poisson draws
    with means slots*P(1), slots*P(2) and slots*P(>=3).  ``seed`` is an int or
    a Generator, which is drawn from in place.  In the configured regime
    (mean << 1, slots >> 1) their sum never approaches slots_per_bin; if an
    extreme configuration does overflow, the counts are clamped in the order
    higher, pair, single so the batch invariant always holds.
    """
    if not 0.0 <= mean < 1.0:
        raise ConfigError(f"mean occupancy must lie in [0, 1), got {mean}")
    if slots_per_bin < 1:
        raise DomainError(f"slots_per_bin must be >= 1, got {slots_per_bin}")
    rng = np.random.default_rng(seed)
    n_single = int(rng.poisson(slots_per_bin * poisson_pmf(1, mean)))
    n_pair = int(rng.poisson(slots_per_bin * poisson_pmf(2, mean)))
    n_higher = int(rng.poisson(slots_per_bin * poisson_tail(3, mean)))
    n_single = min(n_single, slots_per_bin)
    n_pair = min(n_pair, slots_per_bin - n_single)
    n_higher = min(n_higher, slots_per_bin - n_single - n_pair)
    return PhotonBatch(
        n_single_slots=n_single,
        n_pair_slots=n_pair,
        n_higher_slots=n_higher,
        slots_per_bin=slots_per_bin,
    )
