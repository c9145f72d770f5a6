import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pstream import coincidence
from pstream.coincidence import CcmConfig, accumulate, coincide
from pstream.config import ExperimentConfig, load_config
from pstream.detection import PulseTrain, detect_bin
from pstream.errors import ConfigError, ContractError
from pstream.interferometer import OpticalState
from pstream.source import sample_batch

NS = 1000  # ps per ns


def make_train(starts, duration=10 * NS, min_gap=0):
    starts = np.asarray(starts, dtype=np.int64)
    top = int(starts[-1] + duration + 1) if starts.size else 1
    return PulseTrain(starts, duration, bin_length=top, min_gap=min_gap)


def brute_force_coincide(train_a, train_b, cfg):
    """Independent oracle: all-pairs overlaps, matched greedily by AND-gate
    trigger time (overlap onset + required overlap), one match per pulse."""
    threshold = cfg.overlap_threshold_ps
    tau = cfg.delay_tau_ps
    candidates = []
    da, db = train_a.duration, train_b.duration
    for i, a0 in enumerate(train_a.starts.tolist()):
        for j, b0 in enumerate(train_b.starts.tolist()):
            b0 = b0 + tau
            overlap = min(a0 + da, b0 + db) - max(a0, b0)
            if overlap >= threshold:
                candidates.append((max(a0, b0) + threshold, i, j))
    candidates.sort()
    used_a, used_b, matches = set(), set(), []
    for _, i, j in candidates:
        if i not in used_a and j not in used_b:
            matches.append((i, j))
            used_a.add(i)
            used_b.add(j)
    return len(matches), sorted(matches)


def train_from_gaps(gaps, duration, min_gap=22 * NS):
    """Pulse train from the gaps to each previous start and one duration."""
    return PulseTrain(
        np.cumsum(gaps, dtype=np.int64),
        duration,
        bin_length=int(sum(gaps) + 5 * min_gap + 1),
        min_gap=min_gap,
    )


# gaps/duration generator guaranteeing the PulseTrain invariants: starts strictly
# increasing, gaps at least the dead time, a duration no longer than the gap floor
def train_strategy(min_gap=22 * NS):
    return st.tuples(
        st.lists(st.integers(min_value=min_gap, max_value=4 * min_gap), max_size=25),
        st.integers(min_value=1 * NS, max_value=min_gap),
    ).map(lambda gaps_duration: train_from_gaps(*gaps_duration, min_gap))


class TestCoincideExamples:
    def test_six_nanosecond_overlap_counts(self):
        a = make_train([0])
        b = make_train([4 * NS])
        count, matches = coincide(a, b, CcmConfig())
        assert count == 1 and list(matches) == [(0, 0)]

    def test_four_nanosecond_overlap_rejected(self):
        a = make_train([0])
        b = make_train([6 * NS])
        count, matches = coincide(a, b, CcmConfig())
        assert count == 0 and list(matches) == []

    def test_empty_train(self):
        a = make_train([0, 30 * NS])
        b = make_train([])
        assert coincide(a, b, CcmConfig())[0] == 0
        assert coincide(b, a, CcmConfig())[0] == 0

    def test_simultaneous_pulses_always_match(self):
        starts = np.arange(10) * 40 * NS
        a = make_train(starts)
        b = make_train(starts)
        count, matches = coincide(a, b, CcmConfig())
        assert count == 10
        assert list(matches) == [(k, k) for k in range(10)]

    def test_delay_tau_shifts_channel_b(self):
        a = make_train([100 * NS])
        b = make_train([80 * NS])
        assert coincide(a, b, CcmConfig())[0] == 0
        shifted = CcmConfig(delay_tau=20e-9)
        assert coincide(a, b, shifted)[0] == 1

    def test_nested_pulse_shorter_than_threshold_rejected(self):
        # the 2 ns pulse overlaps the 10 ns one for only 2 ns, below the threshold
        a = make_train([4 * NS], duration=2 * NS)
        b = make_train([0], duration=10 * NS)
        assert coincide(a, b, CcmConfig()) == (0, [])
        assert coincide(b, a, CcmConfig()) == (0, [])

    def test_invariant_violating_train_rejected(self):
        # checked once, when the train is built; coincide reads what that check kept
        with pytest.raises(ContractError, match="strictly increasing"):
            PulseTrain(np.array([10, 5]), 3, bin_length=100)


class TestCoincideOracle:
    @given(train_strategy(), train_strategy(), st.integers(1, 10))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, a, b, threshold_ns):
        cfg = CcmConfig(overlap_threshold=threshold_ns * 1e-9)
        count, matches = coincide(a, b, cfg)
        ref_count, ref_matches = brute_force_coincide(a, b, cfg)
        assert count == ref_count
        assert sorted(matches) == ref_matches

    @given(
        train_strategy(),
        train_strategy(),
        st.integers(1, 10),
        st.integers(-60, 60),
    )
    @example(  # a 1 ns pulse nested in a 3 ns one: 1 ns overlap, below the 2 ns threshold
        a=train_from_gaps([22 * NS], 1 * NS),
        b=train_from_gaps([22 * NS], 3 * NS),
        threshold_ns=2,
        tau_ns=-1,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_with_delay(self, a, b, threshold_ns, tau_ns):
        cfg = CcmConfig(overlap_threshold=threshold_ns * 1e-9, delay_tau=tau_ns * 1e-9)
        count, matches = coincide(a, b, cfg)
        ref_count, ref_matches = brute_force_coincide(a, b, cfg)
        assert count == ref_count
        assert sorted(matches) == ref_matches

    def test_bulk_random_trains_both_paths(self):
        rng = np.random.default_rng(20_240_901)
        for trial in range(300):
            n_a, n_b = rng.integers(0, 120, size=2)
            dur = int(rng.integers(2, 22)) * NS
            a = _random_train(rng, n_a, dur)
            b = _random_train(rng, n_b, dur)
            threshold = int(rng.integers(1, max(dur // NS, 2))) * 1e-9
            cfg = CcmConfig(overlap_threshold=threshold)
            count, matches = coincide(a, b, cfg)
            ref_count, ref_matches = brute_force_coincide(a, b, cfg)
            assert count == ref_count, f"trial {trial}"
            assert sorted(matches) == ref_matches, f"trial {trial}"

    @pytest.mark.parametrize("n_a,n_b", [(400, 60), (60, 400), (200, 200)])
    def test_fast_path_ascending_index_a_either_train_shorter(self, n_a, n_b):
        # coincide looks up the shorter train's windows in the longer one
        rng = np.random.default_rng(n_a * 1000 + n_b)
        for trial in range(20):
            # about the same time span for both, gaps above the 10 ns overlap span
            a = _random_train(rng, n_a, 10 * NS, min_gap=22 * NS * max(1, n_b // n_a))
            b = _random_train(rng, n_b, 10 * NS, min_gap=22 * NS * max(1, n_a // n_b))
            cfg = CcmConfig(delay_tau=int(rng.integers(-8, 9)) * 1e-9)
            count, matches = coincide(a, b, cfg)
            assert (count, matches) == brute_force_coincide(a, b, cfg), f"trial {trial}"

    @given(train_strategy(), train_strategy())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_without_delay(self, a, b):
        cfg = CcmConfig()
        assert coincide(a, b, cfg)[0] == coincide(b, a, cfg)[0]

    @given(train_strategy(), train_strategy())
    @settings(max_examples=100, deadline=None)
    def test_lower_threshold_never_reduces_count(self, a, b):
        counts = [
            coincide(a, b, CcmConfig(overlap_threshold=th))[0]
            for th in (10e-9, 5e-9, 1e-9, 0.5e-9)
        ]
        assert counts == sorted(counts)

    def test_additive_over_disjoint_ranges(self):
        rng = np.random.default_rng(7)
        first_a = _random_train(rng, 40, 10 * NS)
        first_b = _random_train(rng, 40, 10 * NS)
        offset = max(first_a.bin_length, first_b.bin_length) + 100 * NS
        second_a = _random_train(rng, 40, 10 * NS)
        second_b = _random_train(rng, 40, 10 * NS)
        cfg = CcmConfig()
        separate = (
            coincide(first_a, first_b, cfg)[0] + coincide(second_a, second_b, cfg)[0]
        )
        joined_a = _concat(first_a, second_a, offset)
        joined_b = _concat(first_b, second_b, offset)
        assert coincide(joined_a, joined_b, cfg)[0] == separate


def pulses(starts_ns, duration_ns):
    """Pulse train from starts and one duration in ns."""
    starts = np.array(starts_ns, dtype=np.int64) * NS
    return PulseTrain(starts, duration_ns * NS, bin_length=int(starts[-1]) + duration_ns * NS + 1)


def whole_train_two_pointer(train_a, train_b, cfg):
    """The greedy walk over both whole trains, the reference for the split into runs."""
    return coincidence._coincide_two_pointer(
        train_a.starts.tolist(),
        train_a.duration,
        (train_b.starts + cfg.delay_tau_ps).tolist(),
        train_b.duration,
        cfg.overlap_threshold_ps,
    )


class TestCoincideClusters:
    """Trains with pulses long enough, or close enough, that one can overlap
    two others: runs of shared or multiple partners go through the walk."""

    # A is the longer train, so coincide looks up B's windows in it.  At 103
    # the chain A1-B1-A2, in which B1 overlaps both A pulses by 5 ns or more,
    # is a run between two lone matching pairs; the greedy walk gives B1 to
    # whichever A pulse reaches the threshold first, not to the larger overlap
    @pytest.mark.parametrize(
        "b1_start,expected",
        [
            (103, [(0, 0), (1, 1), (3, 2)]),  # A1 overlaps B1 by 7 ns, A2 by 10 ns
            (107, [(0, 0), (2, 1), (3, 2)]),  # A1 overlaps B1 by 3 ns only
            (3, [(0, 0), (3, 2)]),  # B0 and B1 share A0, the first pulse
            (190, [(0, 0), (3, 1)]),  # B1 and B2 share A3, the last pulse
        ],
    )
    def test_chain_decided_by_greedy_order(self, b1_start, expected):
        a = pulses([0, 100, 112, 200], 10)
        b = pulses([2, b1_start, 202], 20)
        cfg = CcmConfig()
        assert coincide(a, b, cfg) == (len(expected), expected)
        assert whole_train_two_pointer(a, b, cfg) == expected

    def test_long_pulse_spans_two_short_ones(self):
        # B0 ends before B1 starts, yet A0 and A1 each overlap both: one run.
        # A0 takes B0 and A1 takes B1; split at B1, A1 would lose its match
        a = pulses([0, 22], 50)
        b = pulses([25, 40], 10)
        assert coincide(a, b, CcmConfig()) == (2, [(0, 0), (1, 1)])

    def test_random_trains_match_whole_train_walk(self):
        # one duration per train, up to twice the largest gap, so pulses of one
        # train may overlap each other and runs of many pulses form
        rng = np.random.default_rng(20_241_018)
        for trial in range(400):
            trains = []
            for _ in range(2):
                n = int(rng.integers(1, 40))
                starts = np.cumsum(rng.integers(1, 30, size=n)) * NS // 4
                duration = int(rng.integers(1, 60)) * NS // 4
                top = int(starts[-1]) + duration + 1
                trains.append(PulseTrain(starts, duration, bin_length=top, min_gap=0))
            cfg = CcmConfig(
                overlap_threshold=int(rng.integers(1, 12)) * 0.25e-9,
                delay_tau=int(rng.integers(-20, 21)) * 0.25e-9,
            )
            expected = whole_train_two_pointer(*trains, cfg)
            assert coincide(*trains, cfg) == (len(expected), expected), f"trial {trial}"

    # A's 5 ns gap lets one B pulse overlap both A1 and A2; B's one window,
    # looked up in A, holds A0 alone, and a lone pair needs no loop
    @pytest.mark.parametrize("b_start_ps,count", [(5_000, 1), (5_001, 0)])
    def test_pair_cluster_at_threshold(self, b_start_ps, count, monkeypatch):
        a = PulseTrain([0, 100 * NS, 105 * NS], 10 * NS, bin_length=200 * NS)
        b = PulseTrain([b_start_ps], 12 * NS, bin_length=200 * NS)

        def no_loop(*args):
            raise AssertionError("a lone pair reached the Python loop")

        monkeypatch.setattr(coincidence, "_coincide_two_pointer", no_loop)
        assert coincide(a, b, CcmConfig()) == (count, [(0, 0)] * count)

    def test_walkoff_step_with_20_ns_pulses(self, monkeypatch):
        """One real 100 ms step: 20 ns pulses 22 ns apart give 30 ns windows,
        wider than the pulse spacing, yet only a run of shared or multiple
        partners reaches the walk."""
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "walkoff_scan.json")
        detector = dataclasses.replace(cfg.detectors[0], pulse_duration=20e-9)
        slots = int(cfg.ccm.step / cfg.source.dead_time)
        batch = sample_batch(cfg.source.mean_photon(), slots, seed=2024)
        state = OpticalState(phase=math.pi / 2, intrinsic_visibility=0.882)
        a, b = detect_bin(
            batch, state, (detector, detector), seed=2025, slot_width=cfg.source.dead_time
        )

        expected = whole_train_two_pointer(a, b, cfg.ccm)
        walk = coincidence._coincide_two_pointer
        run_sizes = []

        def spy(a_starts, a_dur, b_starts, b_dur, threshold):
            run_sizes.append(len(a_starts) + len(b_starts))
            return walk(a_starts, a_dur, b_starts, b_dur, threshold)

        monkeypatch.setattr(coincidence, "_coincide_two_pointer", spy)
        count, matches = coincide(a, b, cfg.ccm)
        assert count > 50
        assert matches == expected
        assert all(size >= 3 for size in run_sizes), run_sizes


def _random_train(rng, n, duration, min_gap=22_000):
    gaps = rng.integers(min_gap, 4 * min_gap, size=n)
    starts = np.cumsum(gaps).astype(np.int64)
    top = int(starts[-1] + duration + 1) if n else 1
    return PulseTrain(starts, duration, bin_length=top, min_gap=min_gap)


def _concat(first, second, offset):
    starts = np.concatenate([first.starts, second.starts + offset])
    return PulseTrain(
        starts,
        first.duration,
        bin_length=int(offset + second.bin_length),
        min_gap=min(first.min_gap, second.min_gap) if len(first) and len(second) else 0,
    )


class TestAccumulate:
    def test_all_zero_steps(self):
        assert accumulate([(0, 0, 0)] * 10) == (0, 0, 0)

    def test_measured_rates_sum_to_bin(self):
        # a 1 s point of ten 100 ms steps
        assert accumulate([(27_000, 27_000, 82)] * 10) == (270_000, 270_000, 820)

    def test_step_must_tile_bin(self):
        # a point's dwell is the bin its steps fill: 0.3 s steps leave 1 s untiled
        with pytest.raises(ConfigError, match="whole number of ccm steps"):
            ExperimentConfig(ccm=CcmConfig(step=0.3))


class TestCcmConfig:
    def test_defaults(self):
        cfg = CcmConfig()
        assert cfg.overlap_threshold_ps == 5_000
        assert cfg.step == 0.1

    def test_validation(self):
        with pytest.raises(ConfigError):
            CcmConfig(overlap_threshold=0.0)
        with pytest.raises(ConfigError, match="step must be > 0"):
            CcmConfig(step=0.0)
        with pytest.raises(ConfigError, match="int64"):
            CcmConfig(delay_tau=-1e300)

    def test_delay_may_be_zero_or_negative(self):
        assert CcmConfig(delay_tau=0.0).delay_tau_ps == 0
        assert CcmConfig(delay_tau=-2e-9).delay_tau_ps == -2_000
