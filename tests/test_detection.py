import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pstream.detection import (
    CHANNEL_A,
    CHANNEL_B,
    DetectorConfig,
    PulseTrain,
    dead_time_filter,
    detect_bin,
    empty_train,
    generate_dark_events,
    sample_distinct_slots,
    shape_pulses,
)
from pstream.errors import ConfigError, ContractError, DomainError
from pstream.interferometer import OpticalState
from pstream.source import PhotonBatch, sample_batch

T_D = 22_000  # default dead time in ps


def sequential_dead_time(events, t_d):
    """Reference non-paralyzable filter: keep iff >= t_d after the last kept."""
    kept = []
    for t in events:
        if not kept or t - kept[-1] >= t_d:
            kept.append(t)
    return kept


sorted_event_lists = st.lists(
    st.integers(min_value=0, max_value=500_000), min_size=0, max_size=200
).map(sorted)

# bursts of near-coincident events interleaved with long quiet gaps
adversarial_events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),  # burst spread
        st.integers(min_value=0, max_value=5 * T_D),  # gap to next burst
        st.integers(min_value=1, max_value=8),  # burst size
    ),
    min_size=1,
    max_size=20,
)


class TestDeadTimeFilter:
    def test_hand_traced_example(self):
        out = dead_time_filter(np.array([0, 10_000, 30_000]), T_D)
        assert out.tolist() == [0, 30_000]

    def test_empty(self):
        assert dead_time_filter(np.array([], dtype=np.int64), T_D).size == 0

    def test_sparse_input_unchanged(self):
        events = np.arange(0, 10) * (T_D + 1)
        assert dead_time_filter(events, T_D).tolist() == events.tolist()

    def test_unsorted_rejected(self):
        with pytest.raises(ContractError):
            dead_time_filter(np.array([5, 3, 10]), T_D)

    @given(sorted_event_lists)
    def test_matches_sequential_reference(self, events):
        out = dead_time_filter(np.array(events, dtype=np.int64), T_D)
        assert out.tolist() == sequential_dead_time(events, T_D)

    @given(adversarial_events)
    @settings(max_examples=200)
    def test_gap_invariant_on_clustered_bursts(self, bursts):
        rng = np.random.default_rng(0)
        times = []
        t = 0
        for spread, gap, size in bursts:
            times.extend(t + rng.integers(0, spread + 1, size=size))
            t += spread + gap
        events = np.sort(np.array(times, dtype=np.int64))
        out = dead_time_filter(events, T_D)
        assert out.tolist() == sequential_dead_time(events.tolist(), T_D)
        if out.size > 1:
            assert np.diff(out).min() >= T_D

    @given(sorted_event_lists)
    def test_idempotent(self, events):
        once = dead_time_filter(np.array(events, dtype=np.int64), T_D)
        twice = dead_time_filter(once, T_D)
        assert once.tolist() == twice.tolist()

    def test_float_times_supported(self):
        out = dead_time_filter(np.array([0.0, 1e-9, 30e-9]), 22e-9)
        assert out.tolist() == [0.0, 30e-9]


class TestGenerateDarkEvents:
    def test_zero_rate(self):
        assert generate_dark_events(0.0, 1.0, seed=1).size == 0

    def test_deterministic(self):
        a = generate_dark_events(27.0, 1.0, seed=5)
        b = generate_dark_events(27.0, 1.0, seed=5)
        assert np.array_equal(a, b)

    def test_events_inside_window_and_sorted(self):
        events = generate_dark_events(1000.0, 0.1, seed=2)
        assert np.all(events >= 0) and np.all(events < 0.1)
        assert np.all(np.diff(events) >= 0)

    def test_ensemble_rate_statistics(self):
        counts = np.array(
            [generate_dark_events(27.0, 1.0, seed=k).size for k in range(1000)]
        )
        assert abs(counts.mean() - 27.0) < 3 * math.sqrt(27.0 / 1000)
        # Poisson variance equals the mean
        assert abs(counts.var() - 27.0) < 5.0

    def test_high_rate_mean(self):
        counts = [generate_dark_events(1e6, 1e-3, seed=k).size for k in range(200)]
        assert abs(np.mean(counts) - 1000.0) < 3 * math.sqrt(1000 / 200)

    def test_bad_duration(self):
        with pytest.raises(DomainError):
            generate_dark_events(27.0, 0.0, seed=1)


class TestShapePulses:
    def test_single_event(self):
        train = shape_pulses(np.array([0]), DetectorConfig(), channel=CHANNEL_A)
        assert train.pulses == [(0, 10_000)]

    def test_two_disjoint(self):
        train = shape_pulses(np.array([0, 30_000]), DetectorConfig(), bin_length=100_000)
        assert train.pulses == [(0, 10_000), (30_000, 10_000)]

    def test_empty(self):
        train = shape_pulses(np.array([], dtype=np.int64), DetectorConfig())
        assert len(train) == 0

    def test_overlapping_events_rejected(self):
        with pytest.raises(ContractError):
            shape_pulses(np.array([0, 5_000]), DetectorConfig())


class TestPulseTrain:
    def test_invariants_enforced(self):
        with pytest.raises(ContractError):
            PulseTrain(CHANNEL_A, np.array([10, 5]), np.array([2, 2]), bin_length=100)
        with pytest.raises(ContractError):
            PulseTrain(CHANNEL_A, np.array([0, 10]), np.array([2, 2]), bin_length=100, min_gap=22)
        with pytest.raises(ContractError):
            PulseTrain(CHANNEL_A, np.array([95]), np.array([10]), bin_length=100)
        with pytest.raises(ContractError):
            PulseTrain("C", np.array([0]), np.array([1]), bin_length=100)

    def test_empty_train_helper(self):
        train = empty_train(CHANNEL_B, bin_length=1000)
        assert len(train) == 0 and train.channel == CHANNEL_B


class TestSampleDistinctSlots:
    @given(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100)
    def test_distinct_and_in_range(self, k, seed):
        rng = np.random.default_rng(seed)
        slots = sample_distinct_slots(rng, 500, k)
        assert slots.size == k
        assert np.unique(slots).size == k
        if k:
            assert slots.min() >= 0 and slots.max() < 500

    def test_overfull_rejected(self):
        with pytest.raises(DomainError):
            sample_distinct_slots(np.random.default_rng(0), 10, 11)

    def test_full_occupancy_allowed(self):
        slots = sample_distinct_slots(np.random.default_rng(0), 64, 64)
        assert sorted(slots.tolist()) == list(range(64))

    # a typical 100 ms step, then k near and at n_slots, where the first fill
    # comes up short and the top-up loop runs
    @pytest.mark.parametrize(
        "n_slots,k", [(500, 0), (4_545_454, 54_000), (520, 500), (64, 64)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 20_241_018])
    def test_same_draws_as_unique_reference(self, n_slots, k, seed):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_distinct_slots(got_rng, n_slots, k)
        ref = unique_reference_slots(ref_rng, n_slots, k)
        assert got.dtype == ref.dtype == np.int64
        np.testing.assert_array_equal(got, ref)
        # the generator is left in the same state, so every later draw agrees
        assert got_rng.integers(2**62) == ref_rng.integers(2**62)


def unique_reference_slots(rng, n_slots, k):
    """sample_distinct_slots as first written, deduplicating with np.unique."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    chosen = np.unique(rng.integers(0, n_slots, size=k + k // 16 + 16, dtype=np.int64))
    while chosen.size < k:
        extra = rng.integers(0, n_slots, size=(k - chosen.size) * 2 + 16, dtype=np.int64)
        chosen = np.unique(np.concatenate([chosen, extra]))
    return rng.permutation(chosen)[:k]


def quiet_detector(**kwargs) -> DetectorConfig:
    return DetectorConfig(dark_rate=0.0, **kwargs)


class TestDetectBin:
    def test_pairs_only_at_zero_phase_all_reach_d2(self):
        batch = PhotonBatch(0, 0, 500, 0, 100_000)
        optics = OpticalState(phase=0.0, intrinsic_visibility=1.0, scan_position=0.0)
        train_a, train_b = detect_bin(batch, optics, quiet_detector(), seed=11)
        assert len(train_a) == 0
        # both photons of each pair land on D2 and collapse into one pulse
        assert len(train_b) == 500

    def test_empty_batch_no_darks(self):
        batch = PhotonBatch(0, 0, 0, 0, 1000)
        train_a, train_b = detect_bin(batch, OpticalState(), quiet_detector(), seed=3)
        assert len(train_a) == 0 and len(train_b) == 0

    def test_reproducible(self):
        batch = sample_batch(0.012, 4_545_454, seed=77)
        optics = OpticalState(phase=1.0, intrinsic_visibility=0.9)
        a1, b1 = detect_bin(batch, optics, DetectorConfig(), seed=42)
        a2, b2 = detect_bin(batch, optics, DetectorConfig(), seed=42)
        assert np.array_equal(a1.starts, a2.starts)
        assert np.array_equal(b1.starts, b2.starts)
        a3, _ = detect_bin(batch, optics, DetectorConfig(), seed=43)
        assert not np.array_equal(a1.starts, a3.starts)

    def test_quadrature_split_is_binomial(self):
        n_singles, n_seeds = 600, 1000
        batch = PhotonBatch(0, n_singles, 0, 0, 1_000_000)
        optics = OpticalState(phase=math.pi / 2, intrinsic_visibility=1.0)
        fractions = np.empty(n_seeds)
        counts_a = np.empty(n_seeds)
        for k in range(n_seeds):
            train_a, train_b = detect_bin(batch, optics, quiet_detector(), seed=900 + k)
            counts_a[k] = len(train_a)
            fractions[k] = len(train_a) / (len(train_a) + len(train_b))
        stderr = 0.5 / math.sqrt(n_singles * n_seeds)
        assert abs(fractions.mean() - 0.5) < 3 * stderr
        # spread matches the binomial, not something narrower or wider
        binom_sd = math.sqrt(n_singles * 0.25)
        assert binom_sd * 0.8 < counts_a.std() < binom_sd * 1.2

    def test_count_conservation_without_darks(self):
        batch = PhotonBatch(0, 300, 40, 5, 500_000)
        optics = OpticalState(phase=0.7, intrinsic_visibility=0.8)
        train_a, train_b = detect_bin(batch, optics, quiet_detector(), seed=21)
        assert len(train_a) + len(train_b) <= 300 + 2 * (40 + 5)

    def test_efficiency_thins_counts(self):
        batch = PhotonBatch(0, 20_000, 0, 0, 1_000_000)
        optics = OpticalState(phase=math.pi / 2, intrinsic_visibility=1.0)
        half = quiet_detector(efficiency=0.5)
        train_a, train_b = detect_bin(batch, optics, (half, half), seed=5)
        total = len(train_a) + len(train_b)
        assert abs(total - 10_000) < 3 * math.sqrt(20_000 * 0.25)

    def test_timestamps_on_resolving_grid(self):
        batch = sample_batch(0.012, 454_545, seed=8)
        train_a, train_b = detect_bin(batch, OpticalState(phase=0.3), DetectorConfig(), seed=9)
        for train in (train_a, train_b):
            assert np.all(train.starts % 350 == 0)

    def test_dark_events_populate_empty_batch(self):
        batch = PhotonBatch(0, 0, 0, 0, 45_454_545)  # one full second
        counts = []
        for k in range(50):
            train_a, train_b = detect_bin(batch, OpticalState(), DetectorConfig(), seed=1000 + k)
            counts.append(len(train_a) + len(train_b))
        assert abs(np.mean(counts) - 54.0) < 3 * math.sqrt(54 / 50)

    def test_gap_invariant_held(self):
        batch = sample_batch(0.04, 454_545, seed=31)  # denser stream than usual
        train_a, train_b = detect_bin(batch, OpticalState(phase=0.2), DetectorConfig(), seed=32)
        for train in (train_a, train_b):
            if len(train) > 1:
                assert np.diff(train.starts).min() >= train.min_gap


class TestDetectorConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DetectorConfig(dead_time=0.0)
        with pytest.raises(ConfigError):
            DetectorConfig(efficiency=1.5)
        with pytest.raises(ConfigError):
            DetectorConfig(dark_rate=-1.0)

    def test_ps_conversions(self):
        cfg = DetectorConfig()
        assert cfg.dead_time_ps == 22_000
        assert cfg.pulse_duration_ps == 10_000
        assert cfg.resolving_time_ps == 350
        # below 1 ps the grid would be 0 ps; past int64 the count overflows
        with pytest.raises(ConfigError, match="rounds to 0 ps"):
            DetectorConfig(resolving_time=1e-15)
        with pytest.raises(ConfigError, match="int64"):
            DetectorConfig(dead_time=1e308)
