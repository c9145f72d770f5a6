"""Single-photon counting module (SPCM) model.

Optical detection slots become timestamped electrical pulses, one train per
detector, given as a (D1, D2) pair.  All pulse times are integer
picoseconds: arrival times are quantized to the module's resolving-time grid,
a non-paralyzable dead-time filter drops events that follow a kept event too
closely, and each surviving event becomes one fixed-shape pulse.  Dark counts
are merged with photon events before filtering since they trigger the same
avalanche electronics.  Configured times in seconds become picoseconds in one
function, ``seconds_to_ps``.

The occupied slots of a step are drawn as an ascending array of candidate
slots plus, for each draw, its rank in that array (``DistinctSlots``).  The
routing draws are scattered onto the candidates by rank, so each channel's
photon times come out of the ascending array already sorted: a channel needs
no sort, only the insertion of its few doubled photons and dark counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DomainError
from .interferometer import OpticalState
from .seeding import derive_seed
from .source import PhotonBatch

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
    A pulse may not outlast the dead time, so one channel's pulses never overlap.
    """

    dead_time: float = 22e-9
    dark_rate: float = 27.0
    pulse_duration: float = 10e-9
    resolving_time: float = 350e-12
    efficiency: float = 1.0

    def __post_init__(self):
        for name in ("dead_time", "pulse_duration", "resolving_time"):
            object.__setattr__(self, f"{name}_ps", seconds_to_ps(getattr(self, name), name))
        if self.pulse_duration_ps > self.dead_time_ps:
            raise ConfigError(
                f"pulse_duration {self.pulse_duration} s exceeds dead_time {self.dead_time} s"
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
    (the generating detector's dead time), and every pulse contained in
    [0, bin_length).  Construction checks them once.
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
                    f"consecutive pulse starts closer than the dead time ({self.min_gap} ps)"
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
    """One fixed-duration pulse per dead-time-filtered event time (int ps).

    Events closer than the dead time, or pulses outside [0, ``bin_length``),
    raise a contract error via the train invariants; no pulse outlasts the
    dead time, so pulses of one train never overlap.
    """
    return PulseTrain(events, cfg.pulse_duration_ps, bin_length, min_gap=cfg.dead_time_ps)


@dataclass(frozen=True)
class DistinctSlots:
    """Distinct slots in draw order, held as ascending candidates and ranks.

    Draw ``i`` took slot ``candidates[rank[i]]``.  ``candidates`` may hold
    more slots than were drawn, and is int32 when every slot index fits;
    ``len`` is the number drawn.
    """

    candidates: np.ndarray
    rank: np.ndarray

    def __len__(self) -> int:
        return int(self.rank.size)


def sample_distinct_slots(rng: np.random.Generator, n_slots: int, k: int) -> DistinctSlots:
    """``k`` distinct slot indices drawn uniformly from range(n_slots), in random order.

    Rejection fill: oversample with replacement, deduplicate, top up, then
    permute so that slicing the draws does not correlate with slot position.
    O(k) memory regardless of n_slots.  Deduplication sorts and drops each
    value equal to its predecessor, which gives the same sorted array as
    ``np.unique``; numpy 2's ``np.unique`` hashes integers and runs over 20 times
    slower than the sort on the ~58k draws of a 100 ms step.  The permutation
    is of the ranks, which consumes the generator exactly as permuting the
    sorted array would and leaves that array sorted for the caller.
    """
    if k > n_slots:
        raise DomainError(f"cannot place {k} events in {n_slots} slots")
    dtype = np.int32 if n_slots <= 2**31 else np.int64  # int32 sorts in half the time
    if k == 0:
        return DistinctSlots(np.empty(0, dtype=dtype), np.empty(0, dtype=np.int64))
    draws = rng.integers(0, n_slots, size=k + k // 16 + 16, dtype=np.int64)
    chosen = _sorted_distinct(draws.astype(dtype))
    while chosen.size < k:
        extra = rng.integers(0, n_slots, size=(k - chosen.size) * 2 + 16, dtype=np.int64)
        chosen = _sorted_distinct(np.concatenate([chosen, extra.astype(dtype)]))
    return DistinctSlots(chosen, rng.permutation(chosen.size)[:k])


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty 1-d array, ascending; sorts ``values`` in place."""
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _quantize(times_ps: np.ndarray, grid_ps: int) -> np.ndarray:
    """Round times to the nearest multiple of the resolving-time grid (half up)."""
    out = times_ps + grid_ps // 2
    out //= grid_ps
    out *= grid_ps
    return out


def detect_bin(
    batch: PhotonBatch,
    optics: OpticalState,
    detectors: tuple[DetectorConfig, DetectorConfig],
    seed: int,
    slot_width: float,
) -> tuple[PulseTrain, PulseTrain]:
    """Full detection chain for one counter step: (train toward D1, train toward D2).

    ``detectors`` is the (D1, D2) pair; ``batch`` fills slots ``slot_width`` s wide.

    Occupied slots are placed collision-free at uniformly random slot
    positions; each single photon is routed to D1 with the state's port
    probability, each pair (and each higher-order slot, treated as a pair) as
    two independently routed photons sharing one arrival time.  Survivors of
    the per-channel efficiency draw are merged with dark events, quantized to
    the resolving-time grid, dead-time filtered and shaped into pulses.
    Deterministic per seed.

    Routing is by sorted rank: the draws mark, on the ascending candidate
    slots, which ones send a photon to each channel, so a channel's times are
    taken in ascending order.  A pair with both photons on one channel adds a
    second, equal time; it and the dark counts are inserted by
    ``searchsorted``.  The efficiency draw runs over a channel's photons in
    the order singles, pair-first, pair-second, as drawn.
    """
    slot_ps = seconds_to_ps(slot_width, "slot_width")
    bin_length = batch.slots_per_bin * slot_ps

    rng = np.random.default_rng(derive_seed(seed, 0))
    p_d1 = optics.d1_probability()

    n_s = batch.n_single_slots
    n_p = batch.n_pair_slots + batch.n_higher_slots
    drawn = sample_distinct_slots(rng, batch.slots_per_bin, n_s + n_p)
    candidates = drawn.candidates
    single, pair = drawn.rank[:n_s], drawn.rank[n_s:]

    to_d1 = rng.random(n_s) < p_d1
    pair_first = rng.random(n_p) < p_d1
    pair_second = rng.random(n_p) < p_d1
    routes = [(to_d1, pair_first, pair_second), (~to_d1, ~pair_first, ~pair_second)]
    # per candidate: bit 0 set when a photon goes to D1, bit 1 when one goes to D2
    route = np.zeros(candidates.size, dtype=np.uint8)
    route[single] = 2 - to_d1.view(np.uint8)
    route[pair] = (pair_first | pair_second) + 2 * ~(pair_first & pair_second)

    trains = []
    for lane, det in enumerate(detectors):
        single_hit, first_hit, second_hit = routes[lane]
        if det.efficiency < 1.0:
            ranks = np.concatenate([single[single_hit], pair[first_hit], pair[second_hit]])
            ranks = ranks[rng.random(ranks.size) < det.efficiency]
            photons = np.bincount(ranks, minlength=candidates.size)
            hit = photons > 0
            doubled = np.flatnonzero(photons > 1)
        else:
            hit = (route >> lane & 1).view(bool)
            doubled = np.sort(pair[first_hit & second_hit])
        t = np.multiply(candidates.take(np.flatnonzero(hit)), slot_ps, dtype=np.int64)
        dark = generate_dark_events(det.dark_rate, bin_length, derive_seed(seed, 1 + lane))
        doubled_ps = np.multiply(candidates.take(doubled), slot_ps, dtype=np.int64)
        extra = np.sort(np.concatenate([doubled_ps, dark]))
        t = np.insert(t, np.searchsorted(t, extra), extra)
        t = _quantize(t, det.resolving_time_ps)
        # rounding can push a boundary event past the bin; the pulse must fit
        t = t[: np.searchsorted(t, bin_length - det.pulse_duration_ps, side="right")]
        t = dead_time_filter(t, det.dead_time_ps)
        trains.append(shape_pulses(t, det, bin_length))
    return trains[0], trains[1]
