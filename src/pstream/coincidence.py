"""Coincidence counting module (CCM) semantics.

An FPGA AND gate counts a coincidence when the electrical pulses from the two
detectors overlap for at least a configured fraction of their duration
("about half" of the 10 ns pulse by default, fixed here at >= 5 ns and
configurable).  Matching is greedy in time order and one-to-one: a gate that
re-arms after each count cannot use the same pulse twice.  Singles and
coincidence counts are tallied in 100 ms counter steps, and a scan point's
counts are the sums over its steps.

The matching is defined by a two-pointer walk over both trains.  One
searchsorted lookup finds, for each pulse of the shorter train, the window of
pulses in the other that it overlaps by the threshold.  A pulse with one such
partner, shared with no other pulse, is a match; only runs of pulses whose
windows hold several partners, or share one, go through the walk itself
(see ``_match_windows``).
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

    ``overlap_threshold_ps``, ``delay_tau_ps`` and ``step_ps`` hold the same
    times as int picoseconds, converted once when the config is built.
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
        object.__setattr__(self, "step_ps", seconds_to_ps(self.step, "step"))


def _coincide_two_pointer(
    a_starts, a_dur: int, b_starts, b_dur: int, threshold: int
) -> list[tuple[int, int]]:
    """Greedy AND-gate matching: earliest qualifying overlap first, one match per pulse.

    Walks both trains (Python sequences of int ps starts, one int duration
    each) with one pointer each and advances the pulse that ends first.
    This is the reference semantics; ``coincide`` runs it only on runs of
    pulses that could match more than one partner.
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


def _match_windows(
    a_starts: np.ndarray, a_dur: int, b_starts: np.ndarray, b_dur: int, threshold: int
) -> list[tuple[int, int]]:
    """The two-pointer matching, found from each A pulse's window of partners;
    A should be the shorter train.  Returns (index_a, index_b) pairs in
    ascending index_a.

    The B pulses that overlap A pulse i by at least ``threshold`` (its
    partners) start in [a_i + threshold - b_dur, a_i + a_dur - threshold],
    the B indices [lo_i, hi_i).  One duration per train makes lo and hi
    nondecreasing in i, so two A pulses that share a partner are consecutive
    candidates (A pulses with a partner) k, k + 1 with lo[k+1] < hi[k].

    A candidate with one partner that no other candidate shares is a match:
    the walk cannot skip such a pair (i, j).  The first step that passes
    either pulse stands on one of them, say i, and on a pulse p of the other
    train that starts no later than j.  If the step matches, p is a partner
    of i, so p = j.  If it passes i alone, i ends no later than p; then p,
    starting no later than j, overlaps i at least as much as j does, so p
    is a partner of i and the step would have matched.

    The other candidates form runs linked by shared partners.  A run holds
    contiguous A indices and B indices [lo of its first, hi of its last),
    and no pulse inside it has a partner outside it, so the whole-train walk
    reaches each run at its first pulses and makes the run's own matches:
    ``_coincide_two_pointer`` runs on each run's two slices.
    """
    opens = a_starts + (threshold - b_dur)
    # windows that open after the last B pulse hold none
    opens = opens[: np.searchsorted(opens, b_starts[-1], side="right")]
    lo = np.searchsorted(b_starts, opens)
    cand = np.flatnonzero(b_starts[lo] - opens <= a_dur + b_dur - 2 * threshold)
    lo = lo[cand]
    hi = np.searchsorted(b_starts, a_starts[cand] + (a_dur - threshold), side="right")
    linked = lo[1:] < hi[:-1]
    conflict = hi - lo > 1
    conflict[1:] |= linked
    conflict[:-1] |= linked
    matches = list(zip(cand[~conflict].tolist(), lo[~conflict].tolist()))
    if len(matches) == cand.size:
        return matches

    first = np.flatnonzero(conflict & np.append(True, ~linked))
    last = np.flatnonzero(conflict & np.append(~linked, True))
    for s, e in zip(first.tolist(), last.tolist()):
        i0, j0 = int(cand[s]), int(lo[s])
        run_a, run_b = a_starts[i0 : cand[e] + 1].tolist(), b_starts[j0 : hi[e]].tolist()
        found = _coincide_two_pointer(run_a, a_dur, run_b, b_dur, threshold)
        matches += [(i + i0, j + j0) for i, j in found]
    return sorted(matches)


def coincide(
    train_a: PulseTrain, train_b: PulseTrain, cfg: CcmConfig
) -> tuple[int, list[tuple[int, int]]]:
    """Count overlapping pulse pairs between two trains.

    Channel B is shifted by ``delay_tau`` before matching; a pair qualifies
    when the interval overlap is at least ``overlap_threshold``, and pulses
    match greedily in time order, one match per pulse (``_coincide_two_pointer``
    defines the semantics).  Returns the count and the matched
    (index_a, index_b) pairs in ascending index_a.  ``_match_windows`` looks
    up the shorter train's windows in the longer train; the walk is the same
    with the trains swapped, and its matches do not cross, so they come out
    in ascending index_a either way.
    """
    d_a, d_b = train_a.duration, train_b.duration
    threshold = cfg.overlap_threshold_ps
    a_starts = train_a.starts
    b_starts = train_b.starts + cfg.delay_tau_ps if cfg.delay_tau_ps else train_b.starts
    if a_starts.size == 0 or b_starts.size == 0 or min(d_a, d_b) < threshold:
        # an empty train has no overlaps, and none can outlast the shorter pulse
        return 0, []
    if b_starts.size < a_starts.size:
        found = _match_windows(b_starts, d_b, a_starts, d_a, threshold)
        matches = [(i, j) for j, i in found]
    else:
        matches = _match_windows(a_starts, d_a, b_starts, d_b, threshold)
    return len(matches), matches


def accumulate(steps: Iterable[tuple[int, int, int]]) -> tuple[int, int, int]:
    """A scan point's (N_A, N_B, N_c): the sums of its steps' (n_a, n_b, n_c) tallies."""
    n_a = n_b = n_c = 0
    for a, b, c in steps:
        n_a, n_b, n_c = n_a + a, n_b + b, n_c + c
    return n_a, n_b, n_c
