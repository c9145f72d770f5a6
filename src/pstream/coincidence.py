"""Coincidence counting module (CCM) semantics.

An FPGA AND gate counts a coincidence when the electrical pulses from the two
detectors overlap for at least a configured fraction of their duration
("about half" of the 10 ns pulse by default, fixed here at >= 5 ns and
configurable).  Matching is greedy in time order and one-to-one: a gate that
re-arms after each count cannot use the same pulse twice.  Singles and
coincidence counts are tallied in 100 ms counter steps, and a scan point's
counts are the sums over its steps.

The matching is defined by a two-pointer walk over both trains.  It runs in
vectorized numpy except inside the rare groups of three or more mutually
overlapping pulses: trains in which no pulse can overlap two others take a
searchsorted lookup, and any other input is split into independent overlap
clusters (see ``_coincide_clusters``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .detection import PulseTrain, seconds_to_ps
from .errors import ConfigError


@dataclass(frozen=True)
class CcmConfig:
    """Coincidence counter parameters (seconds).

    ``overlap_threshold_ps`` and ``delay_tau_ps`` hold the same times as int
    picoseconds, converted once when the config is built.
    """

    overlap_threshold: float = 5e-9
    delay_tau: float = 0.0
    step: float = 0.1

    def __post_init__(self):
        object.__setattr__(
            self, "overlap_threshold_ps", seconds_to_ps(self.overlap_threshold, "overlap_threshold")
        )
        object.__setattr__(
            self, "delay_tau_ps", seconds_to_ps(self.delay_tau, "delay_tau", at_least=None)
        )
        if self.step <= 0:
            raise ConfigError("step must be > 0")


def _coincide_two_pointer(
    a_starts, a_dur: int, b_starts, b_dur: int, threshold: int
) -> list[tuple[int, int]]:
    """Greedy AND-gate matching: earliest qualifying overlap first, one match per pulse.

    Walks both trains (Python sequences of int ps starts, one int duration
    each) with one pointer each and advances the pulse that ends first.
    This is the reference semantics; ``coincide`` runs it only inside
    overlap clusters of three or more pulses.
    """
    matches = []
    i = j = 0
    na, nb = len(a_starts), len(b_starts)
    while i < na and j < nb:
        a0, a1 = a_starts[i], a_starts[i] + a_dur
        b0, b1 = b_starts[j], b_starts[j] + b_dur
        if min(a1, b1) - max(a0, b0) >= threshold:
            matches.append((i, j))
            i += 1
            j += 1
        elif a1 <= b1:
            i += 1
        else:
            j += 1
    return matches


def _coincide_vectorized(
    a_starts: np.ndarray, a_dur: int, b_starts: np.ndarray, b_dur: int, threshold: int
) -> list[tuple[int, int]]:
    """Fast path, valid when neither train can double-overlap and both
    pulse durations are at least ``threshold``.

    Each pulse then has at most one qualifying counterpart, so a searchsorted
    lookup of the overlap window reproduces the greedy matching exactly.
    The shorter train's windows are looked up; matches cannot cross, so
    they come out in ascending index_a either way.
    """
    if b_starts.size < a_starts.size:
        found = _coincide_vectorized(b_starts, b_dur, a_starts, a_dur, threshold)
        return [(i, j) for j, i in found]
    lo = a_starts + (threshold - b_dur)
    # windows that open after the last B pulse hold none
    lo = lo[: np.searchsorted(lo, b_starts[-1], side="right")]
    idx = np.searchsorted(b_starts, lo)
    a_idx = np.flatnonzero(b_starts[idx] - lo <= a_dur + b_dur - 2 * threshold)
    return list(zip(a_idx.tolist(), idx[a_idx].tolist()))


def _coincide_clusters(
    a_starts: np.ndarray, a_dur: int, b_starts: np.ndarray, b_dur: int, threshold: int
) -> list[tuple[int, int]]:
    """The two-pointer matching, run on each overlap cluster on its own.

    Both trains' pulses, merged by start, split into clusters wherever a start
    is at or after every earlier end.  While the two pointers sit in different
    clusters, the earlier one's pulse ends at or before the later one's
    starts, so only the earlier pointer moves and it never matches: the
    whole-train walk is the concatenation of the per-cluster walks.  A
    cluster of one A and one B pulse matches iff their overlap reaches
    ``threshold``, decided for all such clusters at once; the Python loop
    runs only inside clusters of three or more pulses.
    """
    na = a_starts.size
    starts = np.concatenate([a_starts, b_starts])
    order = np.argsort(starts, kind="stable")  # merges the two sorted runs in linear time
    starts = starts[order]
    # b_dur, raised to a_dur where the pulse is A's (faster than np.where on scalars)
    ends = starts + (b_dur + (a_dur - b_dur) * (order < na))
    first = np.flatnonzero(
        np.concatenate(([True], starts[1:] >= np.maximum.accumulate(ends)[:-1]))
    )
    size = np.diff(first, append=order.size)

    pair = first[size == 2]
    pair_a, pair_b = order[pair], order[pair + 1]
    hit = ((pair_a < na) != (pair_b < na)) & (
        np.minimum(ends[pair], ends[pair + 1]) - starts[pair + 1] >= threshold
    )
    a_idx = [np.minimum(pair_a, pair_b)[hit]]
    b_idx = [np.maximum(pair_a, pair_b)[hit] - na]

    # pulses of earlier clusters end, so also start, before a cluster's first
    # start; searching each train for that start and for the next cluster's
    # first start gives the train's slice of the cluster
    big = size >= 3
    lo, hi = first[big], first[big] + size[big]
    top = np.append(starts, np.iinfo(np.int64).max)
    i_lo, i_hi = np.searchsorted(a_starts, (top[lo], top[hi])).tolist()
    j_lo, j_hi = np.searchsorted(b_starts, (top[lo], top[hi])).tolist()
    for i0, i1, j0, j1 in zip(i_lo, i_hi, j_lo, j_hi):
        found = _coincide_two_pointer(
            a_starts[i0:i1].tolist(), a_dur, b_starts[j0:j1].tolist(), b_dur, threshold
        )
        if found:
            i, j = np.array(found, dtype=np.int64).T
            a_idx.append(i + i0)
            b_idx.append(j + j0)

    a_idx, b_idx = np.concatenate(a_idx), np.concatenate(b_idx)
    by_a = np.argsort(a_idx)
    return list(zip(a_idx[by_a].tolist(), b_idx[by_a].tolist()))


def coincide(
    train_a: PulseTrain, train_b: PulseTrain, cfg: CcmConfig
) -> tuple[int, list[tuple[int, int]]]:
    """Count overlapping pulse pairs between two trains.

    Channel B is shifted by ``delay_tau`` before matching; a pair qualifies
    when the interval overlap is at least ``overlap_threshold``, and pulses
    match greedily in time order, one match per pulse (``_coincide_two_pointer``
    defines the semantics).  Returns the count and the matched
    (index_a, index_b) pairs in ascending index_a.  Trains whose pulses
    cannot each overlap two others take a searchsorted fast path; any other
    input goes through the overlap-cluster decomposition.  That choice reads
    each train's ``min_start_gap``, kept when the train was built and
    checked, so it is not checked again.
    """
    gap_a, d_a = train_a.min_start_gap, train_a.duration
    gap_b, d_b = train_b.min_start_gap, train_b.duration
    threshold = cfg.overlap_threshold_ps
    a_starts = train_a.starts
    b_starts = train_b.starts + cfg.delay_tau_ps
    if a_starts.size == 0 or b_starts.size == 0 or min(d_a, d_b) < threshold:
        # an empty train has no overlaps, and none can outlast the shorter pulse
        return 0, []

    conflict_span = d_a + d_b - 2 * threshold
    if (gap_a is None or gap_a > conflict_span) and (gap_b is None or gap_b > conflict_span):
        matches = _coincide_vectorized(a_starts, d_a, b_starts, d_b, threshold)
    else:
        matches = _coincide_clusters(a_starts, d_a, b_starts, d_b, threshold)
    return len(matches), matches


def accumulate(steps: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """A scan point's (N_A, N_B, N_c): the sums of its steps' (n_a, n_b, n_c) tallies."""
    n_a = n_b = n_c = 0
    for a, b, c in steps:
        n_a, n_b, n_c = n_a + a, n_b + b, n_c + c
    return n_a, n_b, n_c
