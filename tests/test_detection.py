import math
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pstream import detection
from pstream.coincidence import CcmConfig, _coincide_two_pointer, coincide
from pstream.detection import (
    PS_PER_S,
    DetectorConfig,
    PulseTrain,
    dead_time_filter,
    detect_bin,
    generate_dark_events,
    sample_distinct_slots,
    seconds_to_ps,
    shape_pulses,
)
from pstream.errors import ConfigError, ContractError, DomainError
from pstream.interferometer import OpticalState
from pstream.seeding import derive_seed
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


def reference_dead_time_filter(events, t_d):
    """dead_time_filter before it resolved short-gap runs on their own: repeated
    passes, each dropping the first event of every run of violations."""
    events = np.asarray(events)
    if events.size == 0:
        return events.copy()
    if np.any(np.diff(events) < 0):
        raise ContractError("dead_time_filter requires ascending event times")
    kept = events
    while kept.size > 1:
        bad = np.empty(kept.size, dtype=bool)
        bad[0] = False
        bad[1:] = np.diff(kept) < t_d
        if not bad.any():
            break
        drop = bad & ~np.concatenate(([False], bad[:-1]))
        kept = kept[~drop]
    return kept.copy()


# dense sorted times, so that long runs of short gaps are common
dense_event_lists = st.lists(st.integers(min_value=0, max_value=300), max_size=120).map(sorted)


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

    @given(dense_event_lists, st.integers(min_value=0, max_value=40), st.booleans())
    @settings(max_examples=300)
    def test_dense_runs_match_sequential_loop(self, events, t_d, as_float):
        dtype = np.float64 if as_float else np.int64
        array = np.array(events, dtype=dtype)
        out = dead_time_filter(array, dtype(t_d))
        assert out.dtype == dtype
        assert out.tolist() == sequential_dead_time(array.tolist(), dtype(t_d))
        assert out.tolist() == reference_dead_time_filter(array, dtype(t_d)).tolist()
        # the result is a new array, never a view of the input
        assert not np.shares_memory(out, array)

    @given(
        st.lists(st.integers(min_value=0, max_value=300), min_size=2, max_size=60),
        st.integers(min_value=-10, max_value=40),
    )
    @example(events=[5, 3], t_d=-10)  # a descent shorter than a negative t_d
    @example(events=[5, 3], t_d=0)
    def test_unsorted_rejected_as_before(self, events, t_d):
        array = np.array(events, dtype=np.int64)
        if np.all(np.diff(array) >= 0):
            assert dead_time_filter(array, t_d).tolist() == sequential_dead_time(events, t_d)
        else:
            with pytest.raises(ContractError):
                reference_dead_time_filter(array, t_d)
            with pytest.raises(ContractError, match="ascending"):
                dead_time_filter(array, t_d)

    def test_float_times_supported(self):
        out = dead_time_filter(np.array([0.0, 1e-9, 30e-9]), 22e-9)
        assert out.tolist() == [0.0, 30e-9]


class TestGenerateDarkEvents:
    def test_zero_rate(self):
        assert generate_dark_events(0.0, PS_PER_S, seed=1).size == 0

    def test_deterministic(self):
        a = generate_dark_events(27.0, PS_PER_S, seed=5)
        b = generate_dark_events(27.0, PS_PER_S, seed=5)
        assert np.array_equal(a, b)

    def test_events_inside_window_and_sorted(self):
        events = generate_dark_events(1000.0, PS_PER_S // 10, seed=2)
        assert events.dtype == np.int64
        assert np.all(events >= 0) and np.all(events < PS_PER_S // 10)
        assert np.all(np.diff(events) >= 0)

    def test_ensemble_rate_statistics(self):
        counts = np.array(
            [generate_dark_events(27.0, PS_PER_S, seed=k).size for k in range(1000)]
        )
        assert abs(counts.mean() - 27.0) < 3 * math.sqrt(27.0 / 1000)
        # Poisson variance equals the mean
        assert abs(counts.var() - 27.0) < 5.0

    def test_high_rate_mean(self):
        counts = [generate_dark_events(1e6, PS_PER_S // 1000, seed=k).size for k in range(200)]
        assert abs(np.mean(counts) - 1000.0) < 3 * math.sqrt(1000 / 200)

    def test_bad_duration(self):
        with pytest.raises(DomainError):
            generate_dark_events(27.0, 0, seed=1)

    def test_duration_in_seconds_rejected(self):
        # a float window (the old seconds form) is refused, not read as 1 ps
        with pytest.raises(ContractError):
            generate_dark_events(27.0, 1.0, seed=1)


class TestShapePulses:
    def test_single_event(self):
        train = shape_pulses(np.array([0]), DetectorConfig(), bin_length=100_000)
        assert train.starts.tolist() == [0] and train.duration == 10_000

    def test_two_disjoint(self):
        train = shape_pulses(np.array([0, 30_000]), DetectorConfig(), bin_length=100_000)
        assert train.starts.tolist() == [0, 30_000]
        assert train.duration == 10_000

    def test_empty(self):
        train = shape_pulses(np.array([], dtype=np.int64), DetectorConfig(), bin_length=100_000)
        assert len(train) == 0

    def test_overlapping_events_rejected(self):
        with pytest.raises(ContractError):
            shape_pulses(np.array([0, 5_000]), DetectorConfig(), bin_length=100_000)


def reference_validate(train):
    """PulseTrain.validate before it became one diff and a min reduction."""
    starts = train.starts
    if train.duration <= 0:
        raise ContractError("pulse duration must be positive")
    if starts.size == 0:
        return
    gaps = np.diff(starts)
    if np.any(gaps <= 0):
        raise ContractError("pulse starts must be strictly increasing")
    if train.min_gap and np.any(gaps < train.min_gap):
        raise ContractError(
            f"consecutive pulse starts closer than the minimum gap ({train.min_gap} ps)"
        )
    if starts[0] < 0 or np.any(starts + train.duration > train.bin_length):
        raise ContractError("pulses must lie within [0, bin_length)")


# trains that may break any invariant: unsorted, repeated or negative starts,
# a non-positive duration, pulses past the bin, gaps at and around min_gap
unchecked_trains = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.builds(
        SimpleNamespace,
        starts=st.tuples(
            st.integers(-5, 40), st.lists(st.integers(-3, 40), min_size=n, max_size=n)
        ).map(lambda first_gaps: first_gaps[0] + np.cumsum(first_gaps[1], dtype=np.int64)),
        duration=st.integers(-2, 30),
        bin_length=st.integers(0, 450),
        min_gap=st.integers(-5, 40),
    )
)


class TestPulseTrain:
    @given(unchecked_trains)
    @settings(max_examples=400)
    def test_validate_matches_reference(self, train):
        try:
            reference_validate(train)
        except ContractError as exc:
            with pytest.raises(ContractError) as info:
                PulseTrain.validate(train)
            assert str(info.value) == str(exc)
            return
        PulseTrain.validate(train)
        # a train the reference accepts constructs
        PulseTrain(train.starts, train.duration, train.bin_length, train.min_gap)

    def test_invariants_enforced(self):
        with pytest.raises(ContractError):
            PulseTrain(np.array([10, 5]), 2, bin_length=100)
        with pytest.raises(ContractError):
            PulseTrain(np.array([0, 10]), 2, bin_length=100, min_gap=22)
        with pytest.raises(ContractError):
            PulseTrain(np.array([95]), 10, bin_length=100)
        with pytest.raises(ContractError):
            PulseTrain(np.array([0, 30]), 10.0, bin_length=100)
        with pytest.raises(ContractError):
            PulseTrain(np.array([0, 30]), np.array([10, 10]), bin_length=100)


class TestSampleDistinctSlots:
    @given(
        st.integers(min_value=1, max_value=500).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))
        ),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=100)
    def test_distinct_and_in_range(self, n_k, seed):
        n_slots, k = n_k
        slots = sample_distinct_slots(np.random.default_rng(seed), n_slots, k)
        assert len(slots) == slots.size == k
        assert slots.dtype == np.int32
        assert np.all(np.diff(slots) > 0)
        if k:
            assert slots[0] >= 0 and slots[-1] < n_slots

    def test_overfull_rejected(self):
        with pytest.raises(DomainError):
            sample_distinct_slots(np.random.default_rng(0), 10, 11)

    def test_full_occupancy_allowed(self):
        slots = sample_distinct_slots(np.random.default_rng(0), 64, 64)
        assert slots.tolist() == list(range(64))

    # a typical 100 ms step, then k above n_slots/2, where the empty slots
    # are drawn instead, up to every slot
    @pytest.mark.parametrize(
        "n_slots,k", [(500, 0), (4_545_454, 54_000), (520, 500), (64, 64)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 20_241_018])
    def test_same_draws_as_unique_reference(self, n_slots, k, seed):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_distinct_slots(got_rng, n_slots, k)
        ref = unique_reference_slots(ref_rng, n_slots, k)
        # slot indices below 2**31 are held as int32
        assert got.dtype == ref.dtype == np.int32
        assert got.size == k
        np.testing.assert_array_equal(got, ref)
        # the generator is left in the same state, so every later draw agrees
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert got_rng.integers(2**62) == ref_rng.integers(2**62)

    @pytest.mark.parametrize("k", [0, 1, 300])
    def test_wide_slot_range_same_draws(self, k):
        # past 2**31 slots the indices are int64
        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = sample_distinct_slots(got_rng, 2**40, k)
        ref = unique_reference_slots(ref_rng, 2**40, k)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, ref)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n_slots,k", [(1_000, 300), (1_000, 700)])
    def test_short_round_tops_up_like_reference(self, n_slots, k):
        # the first round's margin almost never comes up short; a generator
        # whose first draw repeats one slot forces the later rounds
        got_rng, ref_rng = ShortFirstDraw(9), ShortFirstDraw(9)
        got = sample_distinct_slots(got_rng, n_slots, k)
        ref = unique_reference_slots(ref_rng, n_slots, k)
        assert got_rng.rounds == ref_rng.rounds >= 2
        np.testing.assert_array_equal(got, ref)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_int32_up_to_2_pow_31_slots(self):
        slots = sample_distinct_slots(np.random.default_rng(3), 2**31, 1_000)
        assert slots.dtype == np.int32 and slots[-1] < 2**31
        assert np.all(np.diff(slots) > 0)

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_positions_uniform(self, k):
        # each of 10 slots is drawn in a share q = k/10 of the trials.  A slot's
        # count has variance trials*q*(1-q), and the counts sum to trials*k,
        # so the statistic below is chi-square with 9 degrees of freedom;
        # the bound is its 0.9999 quantile
        n_slots, trials = 10, 4_000
        rng = np.random.default_rng(k)
        hits = np.zeros(n_slots)
        for _ in range(trials):
            hits[sample_distinct_slots(rng, n_slots, k)] += 1
        q = k / n_slots
        spread = np.sum((hits - trials * q) ** 2) / (trials * q * (1 - q))
        assert spread * (n_slots - 1) / n_slots < 33.7

    def test_subsets_uniform(self):
        # every one of the C(6, 3) = 20 subsets equally likely; chi-square with
        # 19 degrees of freedom, bound at its 0.9999 quantile (49.5)
        rng = np.random.default_rng(17)
        trials = 6_000
        counts = {}
        for _ in range(trials):
            key = tuple(sample_distinct_slots(rng, 6, 3).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 20
        expected = trials / 20
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 49.5

    @pytest.mark.parametrize(
        "n_slots,k", [(10**6, 10**6), (4_545_454, int(0.63 * 4_545_454))]
    )
    def test_fill_time_bounded(self, n_slots, k):
        # a full step, and a mean occupancy near 1 (1 - e^-1 = 0.63 of the
        # slots occupied); a fill without the empty-slot draw took seconds
        start = time.perf_counter()
        slots = sample_distinct_slots(np.random.default_rng(4), n_slots, k)
        elapsed = time.perf_counter() - start
        assert slots.size == k and np.all(np.diff(slots) > 0)
        assert elapsed < 1.0


class ShortFirstDraw:
    """A generator whose first ``integers`` call returns one slot repeated;
    counts the ``integers`` calls (the sampler's rounds)."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.rounds = 0

    def integers(self, low, high, size, dtype):
        self.rounds += 1
        draws = self._rng.integers(low, high, size=size, dtype=dtype)
        return np.full_like(draws, draws[0]) if self.rounds == 1 else draws

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)


def unique_reference_slots(rng, n_slots, k):
    """sample_distinct_slots written plainly: np.unique for the sorted distinct
    draws, np.setdiff1d against the slots held and for the complement."""
    dtype = np.int32 if n_slots <= 2**31 else np.int64
    if 2 * k > n_slots:
        empty = unique_reference_slots(rng, n_slots, n_slots - k)
        return np.setdiff1d(np.arange(n_slots, dtype=dtype), empty)
    held = np.empty(0, dtype=dtype)
    while held.size < k:
        missing = k - held.size
        size = -(-missing * n_slots // (n_slots - k)) + 16
        new = np.setdiff1d(rng.integers(0, n_slots, size=size, dtype=dtype), held)
        surplus = held.size + new.size - k
        if surplus > 0:
            new = np.delete(new, rng.choice(new.size, surplus, replace=False, shuffle=False))
        held = np.union1d(held, new)
    return held


def quiet_detector(**kwargs) -> DetectorConfig:
    return DetectorConfig(dark_rate=0.0, **kwargs)


def detect_both(batch, optics, det, seed):
    """detect_bin with ``det`` as both D1 and D2, on 22 ns slots."""
    return detect_bin(batch, optics, (det, det), seed, slot_width=22e-9)


class TestDetectBin:
    def test_pairs_only_at_zero_phase_all_reach_d2(self):
        batch = PhotonBatch(0, 500, 0, 100_000)
        optics = OpticalState(phase=0.0, intrinsic_visibility=1.0)
        train_a, train_b = detect_both(batch, optics, quiet_detector(), seed=11)
        assert len(train_a) == 0
        # both photons of each pair land on D2 and collapse into one pulse
        assert len(train_b) == 500

    def test_empty_batch_no_darks(self):
        batch = PhotonBatch(0, 0, 0, 1000)
        train_a, train_b = detect_both(batch, OpticalState(), quiet_detector(), seed=3)
        assert len(train_a) == 0 and len(train_b) == 0

    def test_reproducible(self):
        batch = sample_batch(0.012, 4_545_454, seed=77)
        optics = OpticalState(phase=1.0, intrinsic_visibility=0.9)
        a1, b1 = detect_both(batch, optics, DetectorConfig(), seed=42)
        a2, b2 = detect_both(batch, optics, DetectorConfig(), seed=42)
        assert np.array_equal(a1.starts, a2.starts)
        assert np.array_equal(b1.starts, b2.starts)
        a3, _ = detect_both(batch, optics, DetectorConfig(), seed=43)
        assert not np.array_equal(a1.starts, a3.starts)

    def test_quadrature_split_is_binomial(self):
        n_singles, n_seeds = 600, 1000
        batch = PhotonBatch(n_singles, 0, 0, 1_000_000)
        optics = OpticalState(phase=math.pi / 2, intrinsic_visibility=1.0)
        fractions = np.empty(n_seeds)
        counts_a = np.empty(n_seeds)
        for k in range(n_seeds):
            train_a, train_b = detect_both(batch, optics, quiet_detector(), seed=900 + k)
            counts_a[k] = len(train_a)
            fractions[k] = len(train_a) / (len(train_a) + len(train_b))
        stderr = 0.5 / math.sqrt(n_singles * n_seeds)
        assert abs(fractions.mean() - 0.5) < 3 * stderr
        # spread matches the binomial, not something narrower or wider
        binom_sd = math.sqrt(n_singles * 0.25)
        assert binom_sd * 0.8 < counts_a.std() < binom_sd * 1.2

    def test_count_conservation_without_darks(self):
        batch = PhotonBatch(300, 40, 5, 500_000)
        optics = OpticalState(phase=0.7, intrinsic_visibility=0.8)
        train_a, train_b = detect_both(batch, optics, quiet_detector(), seed=21)
        assert len(train_a) + len(train_b) <= 300 + 2 * (40 + 5)

    def test_efficiency_thins_counts(self):
        batch = PhotonBatch(20_000, 0, 0, 1_000_000)
        optics = OpticalState(phase=math.pi / 2, intrinsic_visibility=1.0)
        half = quiet_detector(efficiency=0.5)
        train_a, train_b = detect_both(batch, optics, half, seed=5)
        total = len(train_a) + len(train_b)
        assert abs(total - 10_000) < 3 * math.sqrt(20_000 * 0.25)

    def test_timestamps_on_resolving_grid(self):
        batch = sample_batch(0.012, 454_545, seed=8)
        train_a, train_b = detect_both(batch, OpticalState(phase=0.3), DetectorConfig(), seed=9)
        for train in (train_a, train_b):
            assert np.all(train.starts % 350 == 0)

    def test_dark_events_populate_empty_batch(self):
        batch = PhotonBatch(0, 0, 0, 45_454_545)  # one full second
        counts = []
        for k in range(50):
            train_a, train_b = detect_both(batch, OpticalState(), DetectorConfig(), seed=1000 + k)
            counts.append(len(train_a) + len(train_b))
        assert abs(np.mean(counts) - 54.0) < 3 * math.sqrt(54 / 50)

    def test_gap_invariant_held(self):
        batch = sample_batch(0.04, 454_545, seed=31)  # denser stream than usual
        train_a, train_b = detect_both(batch, OpticalState(phase=0.2), DetectorConfig(), seed=32)
        for train in (train_a, train_b):
            assert train.min_gap == 22_000 - 350
            if len(train) > 1:
                assert np.diff(train.starts).min() >= train.min_gap

    def test_adjacent_slots_rounding_closer_than_dead_time_both_kept(self):
        # the 22 ns slots 3 and 4 start at 66.000 and 88.000 ns, which round
        # to 66.150 and 87.850 ns on the 350 ps grid: 21.70 ns apart, under
        # the 22 ns dead time.  The dead time acts on the true times, so
        # every photon of a full run of same-port slots gives a pulse.
        batch = PhotonBatch(8, 0, 0, 8)
        optics = OpticalState(phase=0.0, intrinsic_visibility=1.0)  # every photon to D2
        train_a, train_b = detect_both(batch, optics, quiet_detector(), seed=4)
        assert len(train_a) == 0
        starts = np.arange(8) * 22_000
        assert train_b.starts.tolist() == ((starts + 175) // 350 * 350).tolist()
        assert train_b.starts[3:5].tolist() == [66_150, 87_850]
        assert np.diff(train_b.starts).min() == 21_700

    def test_pair_subset_uniform(self, monkeypatch):
        # 6 of 8 slots occupied, 3 of them by pairs.  With every photon sent to
        # D2, a pair's slot time enters D2's dead-time filter twice, which
        # shows which of the 6 occupied slots hold the pairs.  Each of the
        # C(6, 3) = 20 choices is equally likely: chi-square with 19 degrees
        # of freedom, bound at its 0.9999 quantile (49.5)
        inputs = []
        dead_time = detection.dead_time_filter

        def recording_filter(events, t_d):
            inputs.append(np.array(events))
            return dead_time(events, t_d)

        monkeypatch.setattr(detection, "dead_time_filter", recording_filter)
        batch = PhotonBatch(3, 3, 0, 8)
        optics = OpticalState(phase=0.0, intrinsic_visibility=1.0)
        trials = 4_000
        counts = {}
        for k in range(trials):
            detect_both(batch, optics, quiet_detector(), seed=5000 + k)
            _, to_d2 = inputs[-2:]
            times, repeats = np.unique(to_d2, return_counts=True)
            key = tuple(np.flatnonzero(repeats == 2).tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 20
        expected = trials / 20
        assert sum((c - expected) ** 2 / expected for c in counts.values()) < 49.5


def reference_detect_bin(batch, optics, detectors, seed, slot_width):
    """detect_bin written plainly: a mask over the occupied slots for the
    pairs, per-photon masks for routing and thinning, then a concatenation
    and a sort per channel.

    Returns each channel's (dead-time filter input, event times after the
    filter, quantizing and the bin-edge cut) and the state the generator is
    left in.
    """
    slot_ps = seconds_to_ps(slot_width, "slot_width")
    bin_length = batch.slots_per_bin * slot_ps

    rng = np.random.default_rng(derive_seed(seed, 0))
    p_d1 = optics.d1_probability()

    k = batch.n_occupied
    n_p = batch.n_pair_slots + batch.n_higher_slots
    slot_t = unique_reference_slots(rng, batch.slots_per_bin, k).astype(np.int64) * slot_ps
    is_pair = np.zeros(k, dtype=bool)
    is_pair[rng.choice(k, n_p, replace=False, shuffle=False)] = True
    pair_t = slot_t[is_pair]
    first_to_d1 = rng.random(k) < p_d1
    second_to_d1 = rng.random(n_p) < p_d1

    events = []
    for lane, det in enumerate(detectors):
        first = first_to_d1 if lane == 0 else ~first_to_d1
        second = second_to_d1 if lane == 0 else ~second_to_d1
        if det.efficiency < 1.0:
            first = first & (rng.random(k) < det.efficiency)
            second = second & (rng.random(n_p) < det.efficiency)
        dark = generate_dark_events(det.dark_rate, bin_length, derive_seed(seed, 1 + lane))
        t = np.sort(np.concatenate([slot_t[first], pair_t[second], dark]))
        grid = det.resolving_time_ps
        kept = (reference_dead_time_filter(t, det.dead_time_ps) + grid // 2) // grid * grid
        events.append((t, kept[kept + det.pulse_duration_ps <= bin_length]))
    return events[0], events[1], rng.bit_generator.state


def traced_detect_bin(monkeypatch, *args, **kwargs):
    """detect_bin's trains, the inputs it gives the dead-time filter, and the
    state its generator is left in, read from the generator it hands to
    sample_distinct_slots."""
    generators, filter_inputs = [], []
    sample, dead_time = detection.sample_distinct_slots, detection.dead_time_filter

    def recording_sample(rng, n_slots, k):
        generators.append(rng)
        return sample(rng, n_slots, k)

    def recording_filter(events, t_d):
        filter_inputs.append(np.array(events))
        return dead_time(events, t_d)

    monkeypatch.setattr(detection, "sample_distinct_slots", recording_sample)
    monkeypatch.setattr(detection, "dead_time_filter", recording_filter)
    trains = detect_bin(*args, **kwargs)
    monkeypatch.undo()
    (rng,) = generators
    return trains, filter_inputs, rng.bit_generator.state


STEP_SLOTS = 4_545_454  # one 100 ms counter step of 22 ns slots
# (mean occupancy or a fixed PhotonBatch, phase, per-detector overrides of the
# committed detector config)
REFERENCE_CASES = {
    "committed_phase_0": (0.012, 0.0, {}),
    "committed_phase_1": (0.012, 1.0, {}),
    "committed_quadrature": (0.012, math.pi / 2, {}),
    "committed_phase_pi": (0.012, math.pi, {}),
    # thinning runs over first photons, then second photons, per detector
    "efficiency_half": (0.012, 1.0, {"efficiency": 0.5}),
    "efficiency_half_dense": (0.3, 2.0, {"efficiency": 0.5}),
    "efficiency_unequal": (0.05, 0.4, ({"efficiency": 0.9}, {"efficiency": 0.35})),
    "no_darks": (0.012, 1.0, {"dark_rate": 0.0}),
    # every slot occupied, so the sampler takes its empty-slot branch
    "full_occupancy": (PhotonBatch(3_000, 1_500, 500, 5_000), 0.7, {}),
    "full_occupancy_thinned": (PhotonBatch(3_000, 1_500, 500, 5_000), 0.7, {"efficiency": 0.6}),
    "pulses_20ns": (0.012, 1.0, {"pulse_duration": 20e-9}),
    # a dead time past the slot width, dense darks, a coarse grid and pulses
    # that the bin edge trims
    "long_dead_time_dense_darks": (
        0.2,
        2.5,
        (
            {"dead_time": 50e-9, "dark_rate": 2e6},
            {"pulse_duration": 21e-9, "resolving_time": 1e-9},
        ),
    ),
    "empty": (PhotonBatch(0, 0, 0, 1_000), 0.3, {}),
}


class TestDetectBinMatchesReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
    def test_same_trains_and_generator_state(self, name, monkeypatch):
        occupancy, phase, overrides = REFERENCE_CASES[name]
        case = sorted(REFERENCE_CASES).index(name)
        if isinstance(occupancy, PhotonBatch):
            batch = occupancy
        else:
            slots = STEP_SLOTS if occupancy < 0.1 else 200_000
            batch = sample_batch(occupancy, slots, seed=case)
        if isinstance(overrides, dict):
            overrides = (overrides, overrides)
        dets = tuple(DetectorConfig(**kw) for kw in overrides)
        optics = OpticalState(phase=phase, intrinsic_visibility=0.882)
        seed = 1000 + case

        trains, inputs, state = traced_detect_bin(monkeypatch, batch, optics, dets, seed, 22e-9)
        *events, ref_state = reference_detect_bin(batch, optics, dets, seed, 22e-9)
        assert state == ref_state
        bin_length = batch.slots_per_bin * 22_000
        for lane, det in enumerate(dets):
            train, (ref_in, ref) = trains[lane], events[lane]
            # the same filter input, doubled photons of same-port pairs included
            np.testing.assert_array_equal(inputs[lane], ref_in)
            np.testing.assert_array_equal(train.starts, ref)
            assert train.starts.dtype == np.int64
            assert train.duration == det.pulse_duration_ps
            assert train.bin_length == bin_length
            assert train.min_gap == det.dead_time_ps - det.resolving_time_ps

        # coincide on these trains, B delayed or not, agrees with the two-pointer walk
        for tau in (0.0, 3e-9, -7e-9):
            cfg = CcmConfig(delay_tau=tau)
            shifted = trains[1].starts + cfg.delay_tau_ps
            expected = _coincide_two_pointer(
                trains[0].starts.tolist(),
                trains[0].duration,
                shifted.tolist(),
                trains[1].duration,
                cfg.overlap_threshold_ps,
            )
            assert coincide(*trains, cfg) == (len(expected), expected)


class TestDetectorConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DetectorConfig(dead_time=0.0)
        with pytest.raises(ConfigError):
            DetectorConfig(efficiency=1.5)
        with pytest.raises(ConfigError):
            DetectorConfig(dark_rate=-1.0)

    def test_pulse_no_longer_than_dead_time(self):
        # a pulse plus one 350 ps grid step may fill the 22 ns dead time, 1 ps more may not
        cfg = DetectorConfig(pulse_duration=21.65e-9)
        assert cfg.pulse_duration_ps + cfg.resolving_time_ps == cfg.dead_time_ps
        message = "pulse_duration 2.1651e-08 s + resolving_time 3.5e-10 s exceeds dead_time 2.2e-08"
        with pytest.raises(ConfigError, match=re.escape(message)):
            DetectorConfig(pulse_duration=21.651e-9)
        # a pulse as long as the dead time would overlap a successor one grid step early
        with pytest.raises(ConfigError, match="exceeds dead_time"):
            DetectorConfig(pulse_duration=22e-9)

    def test_grid_no_coarser_than_dead_time(self):
        with pytest.raises(ConfigError, match="resolving_time 3e-08 s exceeds dead_time"):
            DetectorConfig(resolving_time=30e-9)
        # a 12 ns grid under 10 ns pulses fills the dead time: events kept one
        # dead time apart may round one pulse length apart, and still not overlap
        cfg = DetectorConfig(resolving_time=12e-9)
        train = shape_pulses(np.array([0, 10_000]), cfg, bin_length=100_000)
        assert train.min_gap == cfg.pulse_duration_ps == 10_000
        with pytest.raises(ConfigError, match="resolving_time 1.2001e-08 s exceeds dead_time"):
            DetectorConfig(resolving_time=12.001e-9)

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
