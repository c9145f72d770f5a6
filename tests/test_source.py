import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from pstream.errors import ConfigError, DomainError
from pstream.source import (
    PhotonBatch,
    SourceConfig,
    attenuated_power,
    mean_photon_number,
    photon_flux,
    poisson_pmf,
    poisson_tail,
    sample_batch,
)

MEANS = st.floats(min_value=0.0, max_value=0.999, allow_nan=False)


class TestAttenuatedPower:
    def test_od_chain_endpoints(self):
        # 136 uW through the quoted OD range lands between ~0.2 aW and ~0.29 pW
        assert attenuated_power(136e-6, 8.74) == pytest.approx(2.4748e-13, rel=1e-4)
        assert attenuated_power(136e-6, 14.9) == pytest.approx(1.7121e-19, rel=1e-4)

    def test_zero_od_is_identity(self):
        assert attenuated_power(0.5, 0.0) == 0.5

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            attenuated_power(-1e-6, 1.0)
        with pytest.raises(DomainError):
            attenuated_power(1e-6, -0.1)

    @given(
        st.floats(min_value=0, max_value=1.0),
        st.floats(min_value=0, max_value=8),
        st.floats(min_value=0, max_value=8),
    )
    def test_od_stacking_composes(self, p, a, b):
        chained = attenuated_power(attenuated_power(p, a), b)
        direct = attenuated_power(p, a + b)
        assert chained == pytest.approx(direct, rel=1e-12, abs=1e-300)


class TestPhotonFlux:
    def test_picowatt_regime(self):
        assert photon_flux(0.29e-12, 632.8e-9) == pytest.approx(9.238e5, rel=1e-3)

    def test_zero_power(self):
        assert photon_flux(0.0, 500e-9) == 0.0

    def test_single_photon_energy(self):
        # one 632.8 nm photon per second carries ~3.139e-19 W
        assert photon_flux(3.139e-19, 632.8e-9) == pytest.approx(1.0, rel=1e-3)

    def test_nonpositive_wavelength_rejected(self):
        with pytest.raises(DomainError):
            photon_flux(1e-12, 0.0)
        with pytest.raises(DomainError):
            photon_flux(1e-12, -1e-9)


class TestMeanPhotonNumber:
    def test_one_second_accumulation(self):
        assert mean_photon_number(5.4e5, 1.0, 22e-9) == pytest.approx(0.01188, rel=1e-6)

    def test_millisecond_accumulation(self):
        assert mean_photon_number(539, 1e-3, 22e-9) == pytest.approx(0.011858, rel=1e-4)

    def test_no_counts(self):
        assert mean_photon_number(0, 1.0, 22e-9) == 0.0

    def test_zero_accumulation_rejected(self):
        with pytest.raises(DomainError):
            mean_photon_number(100, 0.0, 22e-9)

    def test_dead_time_longer_than_window_rejected(self):
        with pytest.raises(DomainError):
            mean_photon_number(1, 1e-9, 22e-9)

    @given(
        st.floats(min_value=1, max_value=1e7),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=2, max_value=10),
    )
    def test_linear_in_counts_inverse_in_accumulation(self, count, acc, k):
        base = mean_photon_number(count, acc, 1e-8)
        assert mean_photon_number(k * count, acc, 1e-8) == pytest.approx(k * base, rel=1e-12)
        assert mean_photon_number(count, k * acc, 1e-8) == pytest.approx(base / k, rel=1e-12)


class TestPoissonPmf:
    def test_values_at_experiment_mean(self):
        assert poisson_pmf(0, 0.012) == pytest.approx(0.98807, abs=1e-5)
        assert poisson_pmf(1, 0.012) == pytest.approx(0.011857, abs=1e-6)

    def test_empty_process(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_negative_mean_rejected(self):
        with pytest.raises(DomainError):
            poisson_pmf(0, -0.1)

    @given(MEANS, st.integers(min_value=0, max_value=20))
    def test_matches_scipy(self, mean, n):
        assert poisson_pmf(n, mean) == pytest.approx(stats.poisson.pmf(n, mean), rel=1e-12, abs=1e-300)

    @given(MEANS)
    def test_normalization(self, mean):
        total = math.fsum(poisson_pmf(n, mean) for n in range(51))
        assert abs(total - 1.0) < 1e-12

    @given(st.floats(min_value=1e-6, max_value=0.999), st.integers(min_value=0, max_value=6))
    def test_tail_complements_head(self, mean, n):
        head = math.fsum(poisson_pmf(k, mean) for k in range(n))
        assert poisson_tail(n, mean) == pytest.approx(1.0 - head, rel=1e-9, abs=1e-15)

    def test_tail_stays_nonnegative_at_tiny_means(self):
        assert poisson_tail(3, 1e-9) >= 0.0

    @given(
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=0.0, max_value=1e308, allow_nan=False, allow_infinity=False),
    )
    def test_tail_is_a_probability_falling_with_n(self, n, mean):
        # far past n every term of the tail underflows to 0, and near 1e308
        # three times the mean overflows
        tail = poisson_tail(n, mean)
        assert 0.0 <= tail <= 1.0
        assert poisson_tail(n + 1, mean) <= tail


class TestPairFraction:
    @given(st.floats(min_value=1e-9, max_value=0.999))
    def test_equals_pmf_ratio(self, mean):
        # P(2)/P(1) is exactly mean/2; at the measured 0.012 it is 0.006, not the rounded 0.005
        ratio = poisson_pmf(2, mean) / poisson_pmf(1, mean)
        assert ratio == pytest.approx(mean / 2, rel=1e-14)


class TestSampleBatch:
    def test_zero_mean_gives_empty_batch(self):
        batch = sample_batch(0.0, 1000, seed=1)
        assert batch.n_occupied == 0

    def test_deterministic_per_seed(self):
        a = sample_batch(0.012, 10_000_000, seed=99)
        b = sample_batch(0.012, 10_000_000, seed=99)
        assert a == b
        assert a != sample_batch(0.012, 10_000_000, seed=100)

    def test_mean_regime_enforced(self):
        with pytest.raises(ConfigError):
            sample_batch(1.0, 100, seed=0)

    @given(
        st.floats(min_value=0.0, max_value=0.99),
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200)
    def test_invariant_holds_even_in_extreme_regimes(self, mean, slots, seed):
        batch = sample_batch(mean, slots, seed)
        assert batch.n_occupied <= batch.slots_per_bin
        assert min(batch.n_single_slots, batch.n_pair_slots, batch.n_higher_slots) >= 0

    def test_ensemble_means_match_occupancy_probabilities(self):
        mean, slots, n_seeds = 0.012, 45_454_545, 1000
        singles = np.empty(n_seeds)
        pairs = np.empty(n_seeds)
        for k in range(n_seeds):
            batch = sample_batch(mean, slots, seed=5000 + k)
            singles[k] = batch.n_single_slots
            pairs[k] = batch.n_pair_slots
        for values, prob in [(singles, poisson_pmf(1, mean)), (pairs, poisson_pmf(2, mean))]:
            expect = slots * prob
            stderr = math.sqrt(expect / n_seeds)
            assert abs(values.mean() - expect) < 3 * stderr


class TestPhotonBatch:
    def test_overfull_batch_rejected(self):
        with pytest.raises(DomainError):
            PhotonBatch(60, 30, 20, 100)

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            PhotonBatch(-1, 0, 0, 100)


class TestSourceConfig:
    def test_override_takes_precedence(self):
        cfg = SourceConfig(input_power=1.0, od_total=0.0, mean_photon_override=0.012)
        assert cfg.mean_photon() == 0.012

    def test_power_chain(self):
        # OD 8.90 on the stabilized 136 uW output lands at the measured occupancy
        cfg = SourceConfig(input_power=136e-6, od_total=8.90)
        assert cfg.mean_photon() == pytest.approx(0.012, rel=1e-3)

    def test_unattenuated_power_out_of_regime(self):
        with pytest.raises(ConfigError):
            SourceConfig(input_power=136e-6, od_total=0.0).mean_photon()

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            SourceConfig(mean_photon_override=1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigError):
            SourceConfig(input_power=-1.0)
