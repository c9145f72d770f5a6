"""Coincidence counting module (CCM) semantics.

An FPGA AND gate counts a coincidence when the electrical pulses from the two
detectors overlap for at least a configured fraction of their duration
("about half" of the 10 ns pulse by default, fixed here at >= 5 ns and
configurable).  Matching is greedy in time order and one-to-one: a gate that
re-arms after each count cannot use the same pulse twice.  Singles and
coincidence counts are tallied in 100 ms steps and summed into 1 s
accumulation bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detection import PulseTrain, seconds_to_ps
from .errors import ConfigError, ContractError


@dataclass(frozen=True)
class CcmConfig:
    """Coincidence counter parameters (seconds); whole steps fill the accumulation bin."""

    overlap_threshold: float = 5e-9
    delay_tau: float = 0.0
    accumulation_bin: float = 1.0
    step: float = 0.1

    def __post_init__(self):
        seconds_to_ps(self.overlap_threshold, "overlap_threshold")
        seconds_to_ps(self.delay_tau, "delay_tau", at_least=None)
        if self.step <= 0 or self.accumulation_bin <= 0:
            raise ConfigError("step and accumulation_bin must be > 0")
        if not tiles(self.accumulation_bin, self.step, 1e-9 * self.accumulation_bin):
            raise ConfigError(
                f"step {self.step} s does not tile the {self.accumulation_bin} s accumulation bin"
            )

    @property
    def overlap_threshold_ps(self) -> int:
        return seconds_to_ps(self.overlap_threshold, "overlap_threshold")

    @property
    def delay_tau_ps(self) -> int:
        return seconds_to_ps(self.delay_tau, "delay_tau", at_least=None)

    @property
    def steps_per_bin(self) -> int:
        return round(self.accumulation_bin / self.step)


def tiles(total: float, step: float, tol: float) -> bool:
    """Whether ``0 < step <= total`` and whole steps make up ``total`` to within ``tol``."""
    ratio = total / step
    return 1.0 <= ratio < math.inf and abs(round(ratio) * step - total) <= tol


@dataclass(frozen=True)
class StepCount:
    """Singles and coincidence tallies for one counter step."""

    n_a: int
    n_b: int
    n_c: int


@dataclass(frozen=True)
class CountRecord:
    """Per-accumulation-bin counts; ``partial`` marks a bin cut short by end of stream."""

    bin_index: int
    n_a: int
    n_b: int
    n_c: int
    partial: bool = False

    def __post_init__(self):
        if min(self.n_a, self.n_b, self.n_c) < 0:
            raise ContractError("counts must be >= 0")
        if self.n_c > min(self.n_a, self.n_b):
            raise ContractError("coincidences cannot exceed the smaller singles count")


def _coincide_two_pointer(
    a_starts, a_durs, b_starts, b_durs, threshold: int
) -> list[tuple[int, int]]:
    """Greedy AND-gate matching: earliest qualifying overlap first, one match per pulse."""
    matches = []
    i = j = 0
    na, nb = len(a_starts), len(b_starts)
    while i < na and j < nb:
        a0, a1 = a_starts[i], a_starts[i] + a_durs[i]
        b0, b1 = b_starts[j], b_starts[j] + b_durs[j]
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
    """Uniform-duration fast path, valid when neither train can double-overlap
    and both durations are at least ``threshold``.

    Each pulse then has at most one qualifying counterpart, so a searchsorted
    lookup of the overlap window reproduces the greedy matching exactly.
    """
    lo = a_starts - b_dur + threshold
    hi = a_starts + a_dur - threshold
    idx = np.searchsorted(b_starts, lo, side="left")
    ok = (idx < b_starts.size) & (b_starts[np.minimum(idx, b_starts.size - 1)] <= hi)
    a_idx = np.nonzero(ok)[0]
    return list(zip(a_idx.tolist(), idx[a_idx].tolist()))


def coincide(
    train_a: PulseTrain, train_b: PulseTrain, cfg: CcmConfig
) -> tuple[int, list[tuple[int, int]]]:
    """Count overlapping pulse pairs between two trains.

    Channel B is shifted by ``delay_tau`` before matching; a pair qualifies
    when the interval overlap is at least ``overlap_threshold``.  Returns the
    count and the matched (index_a, index_b) pairs.
    """
    train_a.validate()
    train_b.validate()
    threshold = cfg.overlap_threshold_ps
    a_starts, a_durs = train_a.starts, train_a.durations
    b_starts = train_b.starts + cfg.delay_tau_ps
    b_durs = train_b.durations
    if a_starts.size == 0 or b_starts.size == 0:
        return 0, []

    uniform = a_durs[0] == a_durs[-1] and b_durs[0] == b_durs[-1]
    if uniform:
        uniform = bool(np.all(a_durs == a_durs[0]) and np.all(b_durs == b_durs[0]))
    if uniform:
        d_a, d_b = int(a_durs[0]), int(b_durs[0])
        if min(d_a, d_b) < threshold:
            # no overlap can outlast the shorter pulse
            return 0, []
        conflict_span = d_a + d_b - 2 * threshold
        gap_a = int(np.min(np.diff(a_starts))) if a_starts.size > 1 else conflict_span + 1
        gap_b = int(np.min(np.diff(b_starts))) if b_starts.size > 1 else conflict_span + 1
        if gap_a > conflict_span and gap_b > conflict_span:
            matches = _coincide_vectorized(a_starts, d_a, b_starts, d_b, threshold)
            return len(matches), matches

    matches = _coincide_two_pointer(
        a_starts.tolist(), a_durs.tolist(), b_starts.tolist(), b_durs.tolist(), threshold
    )
    return len(matches), matches


def accumulate(steps: Sequence[StepCount], cfg: CcmConfig) -> list[CountRecord]:
    """Sum per-step tallies into accumulation-bin records.

    A final bin fed fewer than ``steps_per_bin`` steps is emitted with the
    ``partial`` flag set.
    """
    k = cfg.steps_per_bin
    records = []
    for start in range(0, len(steps), k):
        chunk = steps[start : start + k]
        records.append(
            CountRecord(
                bin_index=start // k,
                n_a=sum(s.n_a for s in chunk),
                n_b=sum(s.n_b for s in chunk),
                n_c=sum(s.n_c for s in chunk),
                partial=len(chunk) < k,
            )
        )
    return records
