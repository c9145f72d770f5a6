"""Single-photon counting module (SPCM) model.

Optical detection slots become timestamped electrical pulses, one train per
detector, given as a (D1, D2) pair.  All pulse times are integer
picoseconds: a non-paralyzable dead-time filter drops events that follow a
kept event too closely, the survivors are quantized to the module's
resolving-time grid, and each becomes one fixed-shape pulse.  Dark counts
are merged with photon events before filtering since they trigger the same
avalanche electronics.  Configured times in seconds become picoseconds in one
function, ``seconds_to_ps``.

The occupied slots of a step are drawn as one ascending array, and every
per-photon draw runs over that array in slot order, so each channel's photon
times come out already sorted: a channel needs no sort, only the insertion of
its few dark counts.  A slot gives a channel one event however many of its
photons reach it: the dead time makes them one click.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DomainError
from .interferometer import OpticalState
from .seeding import derive_seed
from .source import DEFAULT_DEAD_TIME, PhotonBatch

PS_PER_S = 1_000_000_000_000


def seconds_to_ps(seconds: float, name: str, at_least: int | None = 1) -> int:
    """``seconds`` as whole picoseconds, rounded once.

    Raises ConfigError for a time that is not finite, overflows int64, or
    rounds below ``at_least`` ps (no lower bound when ``at_least`` is None).
    """
    ps = seconds * PS_PER_S
    if not abs(ps) < 2**63:  # also false for NaN
        raise ConfigError(f"{name} = {seconds!r} s does not fit an int64 picosecond count")
    ps = round(ps)
    if at_least is not None and ps < at_least:
        raise ConfigError(f"{name} = {seconds!r} s rounds to {ps} ps, below {at_least} ps")
    return ps


@dataclass(frozen=True)
class DetectorConfig:
    """SPCM parameters (seconds, counts per second); each time must round to >= 1 ps.

    ``dead_time_ps``, ``pulse_duration_ps`` and ``resolving_time_ps`` hold the
    same times as int picoseconds, converted once when the config is built.
    Timestamps are quantized after the dead-time filter, so two kept events
    can land up to one resolving-time step closer than the dead time.  A
    pulse plus one step may therefore not outlast the dead time: then pulses
    of one channel never overlap, and quantizing never merges two kept events.
    """

    dead_time: float = DEFAULT_DEAD_TIME
    dark_rate: float = 27.0
    pulse_duration: float = 10e-9
    resolving_time: float = 350e-12
    efficiency: float = 1.0

    def __post_init__(self):
        for name in ("dead_time", "pulse_duration", "resolving_time"):
            object.__setattr__(self, f"{name}_ps", seconds_to_ps(getattr(self, name), name))
        if self.pulse_duration_ps + self.resolving_time_ps > self.dead_time_ps:
            raise ConfigError(
                f"pulse_duration {self.pulse_duration} s + resolving_time "
                f"{self.resolving_time} s exceeds dead_time {self.dead_time} s"
            )
        if self.dark_rate < 0:
            raise ConfigError("dark_rate must be >= 0")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ConfigError(f"efficiency must lie in [0, 1], got {self.efficiency}")


@dataclass(frozen=True)
class PulseTrain:
    """Ordered electrical pulses on one channel, all ``duration`` long.

    ``starts`` are int64 picoseconds and ``duration`` is int picoseconds.
    Invariants: starts strictly increasing with consecutive gaps >= ``min_gap``
    (for a detector's train, its dead time less one resolving-time step), and
    every pulse contained in [0, bin_length).  Construction checks them once.
    """

    starts: np.ndarray
    duration: int
    bin_length: int
    min_gap: int = 0

    def __post_init__(self):
        starts = np.asarray(self.starts, dtype=np.int64)
        object.__setattr__(self, "starts", starts)
        if starts.ndim != 1:
            raise ContractError("starts must be a 1-d array")
        self.validate()

    def validate(self) -> None:
        """Check the invariants with one ``diff`` of the starts."""
        if not isinstance(self.duration, (int, np.integer)):
            raise ContractError(f"pulse duration must be an int of ps, got {self.duration!r}")
        if self.duration <= 0:
            raise ContractError("pulse duration must be positive")
        starts = self.starts
        if starts.size == 0:
            return
        if starts.size > 1:
            gap = int(np.diff(starts).min())
            if gap <= 0:
                raise ContractError("pulse starts must be strictly increasing")
            if gap < self.min_gap:
                raise ContractError(
                    f"consecutive pulse starts closer than the minimum gap ({self.min_gap} ps)"
                )
        if starts[0] < 0 or starts[-1] + self.duration > self.bin_length:
            raise ContractError("pulses must lie within [0, bin_length)")

    def __len__(self) -> int:
        return int(self.starts.size)


def generate_dark_events(rate: float, duration_ps: int, seed: int) -> np.ndarray:
    """Dark-count instants (int64 ps) from a homogeneous Poisson point process.

    Inter-arrival gaps are exponential with mean 1/rate; deterministic per
    seed.  Arrivals are summed in float seconds and rounded once to ps; the
    window is half-open, so none lands on ``duration_ps`` itself.
    """
    if rate < 0:
        raise DomainError(f"rate must be >= 0, got {rate}")
    if not isinstance(duration_ps, (int, np.integer)):
        raise ContractError(f"duration must be an int of ps, got {duration_ps!r}")
    if duration_ps <= 0:
        raise DomainError(f"duration must be > 0, got {duration_ps} ps")
    if rate == 0.0:
        return np.empty(0, dtype=np.int64)
    duration = duration_ps / PS_PER_S
    rng = np.random.default_rng(seed)
    times: list[np.ndarray] = []
    t = 0.0
    block = max(16, int(rate * duration * 1.2) + 16)
    while t < duration:
        gaps = rng.exponential(1.0 / rate, size=block)
        arrivals = t + np.cumsum(gaps)
        times.append(arrivals)
        t = float(arrivals[-1])
    ps = np.round(np.concatenate(times) * PS_PER_S).astype(np.int64)
    return ps[ps < duration_ps]


def dead_time_filter(events: np.ndarray, t_d) -> np.ndarray:
    """Non-paralyzable dead-time filter.

    Keeps an event iff it falls at least ``t_d`` after the last *kept* event;
    the first event is always kept.  Works on sorted integer or float times
    and preserves the input dtype.

    Implementation: one ``diff`` finds the gaps shorter than ``t_d``.  An
    event after a long gap is kept whatever came before, so each run of short
    gaps is decided on its own, starting from the kept event before it.  A
    lone short gap drops its later event; the rare longer runs are walked
    event by event.
    """
    events = np.asarray(events)
    if events.size == 0:
        return events.copy()
    gaps = np.diff(events)
    # a negative gap is shorter than any t_d > 0, so checking the short gaps
    # checks them all
    short = np.flatnonzero(gaps < max(t_d, 0))
    if short.size == 0:
        return events.copy()
    if gaps[short].min() < 0:
        raise ContractError("dead_time_filter requires ascending event times")
    run = np.flatnonzero(np.diff(short, prepend=-2) != 1)
    length = np.diff(run, append=short.size)
    keep = np.ones(events.size, dtype=bool)
    keep[short[run[length == 1]] + 1] = False
    for first, n in zip(short[run[length > 1]].tolist(), length[length > 1].tolist()):
        times = events[first : first + n + 1].tolist()
        last = times[0]
        for offset, t in enumerate(times[1:], start=first + 1):
            if t - last >= t_d:
                last = t
            else:
                keep[offset] = False
    return events[keep]


def shape_pulses(events: np.ndarray, cfg: DetectorConfig, bin_length: int) -> PulseTrain:
    """One fixed-duration pulse per dead-time-filtered, quantized event time (int ps).

    Two events kept one dead time apart can round to the resolving-time grid
    up to one grid step closer, so the train's ``min_gap`` is the dead time
    less one step.  Closer events, or pulses outside [0, ``bin_length``),
    raise a contract error via the train invariants.
    """
    min_gap = cfg.dead_time_ps - cfg.resolving_time_ps
    return PulseTrain(events, cfg.pulse_duration_ps, bin_length, min_gap=min_gap)


def sample_distinct_slots(rng: np.random.Generator, n_slots: int, k: int) -> np.ndarray:
    """``k`` distinct slot indices drawn uniformly from range(n_slots), ascending.

    Each round draws the slots still missing, scaled by ``n/(n - k)`` so that
    draws landing on taken slots are made up, plus a margin; the draws are
    sorted and deduplicated, those already held dropped, and a uniform subset
    of any surplus discarded.  Every value is equally likely in every draw, so
    the result is a uniform k-subset (Vitter, ACM TOMS 13(1), 1987).  When
    ``k > n/2`` the ``n - k`` empty slots are drawn instead, so no fill walks
    a coupon-collector tail.  O(k) memory below half occupancy.  Slot indices
    below 2**31 are int32, which sorts in half the time.
    """
    n_slots, k = int(n_slots), int(k)
    if k > n_slots:
        raise DomainError(f"cannot place {k} events in {n_slots} slots")
    dtype = np.int32 if n_slots <= 2**31 else np.int64
    if 2 * k > n_slots:
        free = np.ones(n_slots, dtype=bool)
        free[_sorted_subset(rng, n_slots, n_slots - k, dtype)] = False
        return np.flatnonzero(free).astype(dtype)
    return _sorted_subset(rng, n_slots, k, dtype)


def _sorted_subset(rng: np.random.Generator, n: int, k: int, dtype) -> np.ndarray:
    """The rounds of ``sample_distinct_slots`` for ``k <= n/2``."""
    held = np.empty(0, dtype=dtype)
    while held.size < k:
        missing = k - held.size
        size = -(-missing * n // (n - k)) + 16
        new = _sorted_distinct(rng.integers(0, n, size=size, dtype=dtype))
        if held.size:
            new = new[held.take(np.searchsorted(held, new), mode="clip") != new]
        surplus = held.size + new.size - k
        if surplus > 0:
            keep = np.ones(new.size, dtype=bool)
            keep[rng.choice(new.size, surplus, replace=False, shuffle=False)] = False
            new = new[keep]
        held = np.sort(np.concatenate([held, new])) if held.size else new
    return held


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty 1-d array, ascending; sorts ``values`` in place.

    Gives the same array as ``np.unique``, which in numpy 2 hashes integers
    and runs many times slower than the sort on a step's ~54k draws.
    """
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _quantize(times_ps: np.ndarray, grid_ps: int) -> np.ndarray:
    """Round times to the nearest multiple of the resolving-time grid (half up), in place."""
    times_ps += grid_ps // 2
    times_ps //= grid_ps
    times_ps *= grid_ps
    return times_ps


def detect_bin(
    batch: PhotonBatch,
    optics: OpticalState,
    detectors: tuple[DetectorConfig, DetectorConfig],
    seed: int,
    slot_width: float,
) -> tuple[PulseTrain, PulseTrain]:
    """Full detection chain for one counter step: (train toward D1, train toward D2).

    ``detectors`` is the (D1, D2) pair; ``batch`` fills slots ``slot_width`` s wide.

    The batch's occupied slots are placed collision-free at uniformly random
    slot positions, and a uniform subset of them holds pairs (each
    higher-order slot is treated as a pair).  Every slot's first photon is
    routed to D1 with the state's port probability, and each pair's second
    photon independently, sharing its slot's arrival time.  Each photon on a
    channel survives that channel's efficiency draw independently.  The
    survivors are merged with dark events, dead-time filtered on their true
    times, quantized to the resolving-time grid and shaped into pulses.
    Deterministic per seed.

    Every draw runs over the ascending slots in slot order: first-photon
    routing and thinning over all k slots, second-photon routing and thinning
    over the pair slots.  So a channel's photon times are taken in ascending
    order, one per slot that routes a photon there, and only the dark counts
    are inserted, by ``searchsorted``.  A pair with both photons on one
    channel gives that channel one event: a second event at the same time
    would always fall to the dead-time filter, at a gap of 0 after a kept
    first photon, or within one dead time of whatever dropped the first.
    """
    slot_ps = seconds_to_ps(slot_width, "slot_width")
    bin_length = batch.slots_per_bin * slot_ps

    rng = np.random.default_rng(derive_seed(seed, 0))
    p_d1 = optics.d1_probability()

    n_p = batch.n_pair_slots + batch.n_higher_slots
    slots = sample_distinct_slots(rng, batch.slots_per_bin, batch.n_occupied)
    pair = np.sort(rng.choice(slots.size, n_p, replace=False, shuffle=False))
    first = rng.random(slots.size) < p_d1
    second = rng.random(n_p) < p_d1

    trains = []
    for lane, det in enumerate(detectors):
        hit, second_hit = (first.copy(), second) if lane == 0 else (~first, ~second)
        if det.efficiency < 1.0:
            hit &= rng.random(slots.size) < det.efficiency
            second_hit = second_hit & (rng.random(n_p) < det.efficiency)
        hit[pair[second_hit]] = True
        # take by index: a boolean index over a random mask runs 5x slower
        t = np.multiply(slots.take(np.flatnonzero(hit)), slot_ps, dtype=np.int64)
        dark = generate_dark_events(det.dark_rate, bin_length, derive_seed(seed, 1 + lane))
        if dark.size:
            t = np.insert(t, np.searchsorted(t, dark), dark)
        t = _quantize(dead_time_filter(t, det.dead_time_ps), det.resolving_time_ps)
        # rounding can push a boundary event past the bin; the pulse must fit
        t = t[: np.searchsorted(t, bin_length - det.pulse_duration_ps, side="right")]
        trains.append(shape_pulses(t, det, bin_length))
    return trains[0], trains[1]
