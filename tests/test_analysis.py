import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pstream.analysis import (
    FringeSeries,
    averaged_g2,
    eta21,
    fringe_period,
    g2_rate,
    g2_ratio,
    robust_extrema,
    visibility,
)
from pstream.errors import DataError, DomainError, NumericalError

WAVELENGTH = 632.8e-9


def fringe_grid(n=4001, span=4e-6):
    return np.linspace(-span, span, n)


def singles_series(contrast, n=4001, span=4e-6, scale=1.0):
    x = fringe_grid(n, span)
    phase = 2 * np.pi * x / WAVELENGTH
    return FringeSeries(x, scale * (1 + contrast * np.cos(phase)) / 2)


def coincidence_series(contrast, n=4001, span=4e-6, scale=1.0):
    x = fringe_grid(n, span)
    phase = 2 * np.pi * x / WAVELENGTH
    return FringeSeries(x, scale * (1 - (contrast * np.cos(phase)) ** 2) / 2)


class TestFringeSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            FringeSeries(np.arange(3), np.arange(4))

    def test_window_selection(self):
        series = FringeSeries(np.linspace(0, 1, 11), np.arange(11))
        assert series.select((0.35, 0.65)).tolist() == [4, 5, 6]


class TestVisibility:
    def test_pure_fringe_near_unity(self):
        # the robust 5% tails shave ~0.4% off a perfect cosine
        assert visibility(singles_series(1.0)) == pytest.approx(1.0, abs=0.005)

    def test_constant_series_zero(self):
        series = FringeSeries(fringe_grid(100), np.full(100, 7.0))
        assert visibility(series) == 0.0

    def test_recovers_configured_contrast(self):
        assert visibility(singles_series(0.882, scale=5e5)) == pytest.approx(0.882, abs=0.01)

    def test_window_too_narrow(self):
        with pytest.raises(DataError):
            visibility(singles_series(0.9), window=(0.0, 1e-9))

    def test_alternating_extremes_exact(self):
        values = np.tile([100.0, 900.0], 50)
        series = FringeSeries(np.arange(100, dtype=float), values)
        assert visibility(series) == pytest.approx(800 / 1000, rel=1e-12)


class TestG2Ratio:
    def test_measured_counts_ratio(self):
        values = np.tile([200.0, 820.0], 40)
        series = FringeSeries(np.arange(80, dtype=float), values)
        assert g2_ratio(series) == pytest.approx(0.2439, abs=1e-4)

    def test_closed_form_on_extrema_samples(self):
        # sampled exactly at crossings and anti-crossings the robust extrema
        # are the true extrema, so the ratio is the closed form 1 - contrast^2
        for contrast in (1.0, 0.88, 0.42):
            phase = np.arange(200) * (math.pi / 2)
            values = (1 - (contrast * np.cos(phase)) ** 2) / 2
            series = FringeSeries(np.arange(200, dtype=float), values)
            expected = (1 - contrast**2) / 1.0
            assert g2_ratio(series) == pytest.approx(expected, abs=1e-12)

    def test_dense_grid_within_robust_bias(self):
        assert g2_ratio(coincidence_series(0.88)) == pytest.approx(0.2256, abs=0.01)

    def test_perfect_coherence_reaches_zero(self):
        assert g2_ratio(coincidence_series(1.0)) == pytest.approx(0.0, abs=0.01)

    def test_zero_maximum_rejected(self):
        series = FringeSeries(np.arange(20, dtype=float), np.zeros(20))
        with pytest.raises(NumericalError):
            g2_ratio(series)


class TestG2Rate:
    def test_measured_rates(self):
        assert g2_rate(2.7e5, 2.7e5, 820, 1.0, 10e-9) == pytest.approx(1.1248, abs=1e-4)

    def test_no_coincidences(self):
        assert g2_rate(1000, 1000, 0, 1.0, 10e-9) == 0.0

    def test_uncorrelated_fixed_point(self):
        n, T, dt = 5e5, 1.0, 10e-9
        assert g2_rate(n, n, n * n * dt / T, T, dt) == pytest.approx(1.0, rel=1e-12)

    def test_zero_singles_undefined(self):
        with pytest.raises(NumericalError):
            g2_rate(0, 100, 5, 1.0, 10e-9)

    def test_bad_times(self):
        with pytest.raises(DomainError):
            g2_rate(10, 10, 1, 0.0, 10e-9)

    @given(
        st.floats(min_value=1, max_value=1e6),
        st.floats(min_value=1, max_value=1e6),
        st.floats(min_value=0, max_value=1e4),
        st.floats(min_value=1.1, max_value=100),
    )
    def test_rate_scaling_invariance(self, n_a, n_b, n_c, k):
        base = g2_rate(n_a, n_b, n_c, 1.0, 1e-8)
        scaled = g2_rate(k * n_a, k * n_b, k * k * n_c, 1.0, 1e-8)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestAveragedG2:
    def make_inputs(self, contrast, gain):
        x = fringe_grid()
        phase = 2 * np.pi * x / WAVELENGTH
        p = (1 - contrast * gain * np.cos(phase)) / 2
        series_a = FringeSeries(x, p)
        series_b = FringeSeries(x, 1 - p)
        coinc = FringeSeries(x, p * (1 - p))
        return (series_a, series_b), coinc, gain if isinstance(gain, np.ndarray) else np.full_like(x, gain)

    def test_full_coherence_swings_zero_to_one(self):
        pair, coinc, gain = self.make_inputs(1.0, 1.0)
        out = averaged_g2(pair, coinc, gain)
        assert out.values.min() == pytest.approx(0.0, abs=1e-9)
        assert out.values.max() == pytest.approx(1.0, abs=1e-9)
        # minima sit at phase = 0 mod pi
        phase = 2 * np.pi * out.positions / WAVELENGTH
        at_zero = np.abs(np.cos(phase)) > 1 - 1e-6
        assert out.values[at_zero].max() < 1e-6

    def test_zero_envelope_gives_classical_half(self):
        pair, coinc, _ = self.make_inputs(1.0, 1.0)
        out = averaged_g2(pair, coinc, np.zeros_like(coinc.positions))
        assert np.allclose(out.values, 0.5, atol=1e-12)

    def test_partial_visibility_minimum(self):
        # grid does not land exactly on the crossings, so the normalization
        # peak sits a hair under 1/4; tolerance covers that discretization
        pair, coinc, gain = self.make_inputs(0.88, 1.0)
        out = averaged_g2(pair, coinc, gain)
        assert out.values.min() == pytest.approx(1 - 0.88**2, abs=1e-4)

    def test_blend_bounded_and_converges_to_half(self):
        from pstream.interferometer import envelope

        x = fringe_grid(8001)
        gain = envelope(x, 2e-6)
        phase = 2 * np.pi * x / WAVELENGTH
        p = (1 - gain * np.cos(phase)) / 2
        pair = (FringeSeries(x, p), FringeSeries(x, 1 - p))
        coinc = FringeSeries(x, p * (1 - p))
        out = averaged_g2(pair, coinc, gain)
        assert np.all(out.values >= 0.0) and np.all(out.values <= 1.0)
        far = np.abs(x) > 3.9e-6
        assert np.all(np.abs(out.values[far] - 0.5) < 1e-3)

    def test_misaligned_grids_rejected(self):
        pair, coinc, gain = self.make_inputs(1.0, 1.0)
        other = FringeSeries(coinc.positions + 1e-9, coinc.values)
        with pytest.raises(DataError):
            averaged_g2(pair, other, gain)


class TestEta21:
    def test_measured_ratio(self):
        assert eta21(820, 270_000) == pytest.approx(0.00152, abs=1e-5)

    def test_zero_bunched(self):
        assert eta21(0, 100) == 0.0

    def test_zero_singles_undefined(self):
        with pytest.raises(NumericalError):
            eta21(10, 0)


class TestFringePeriod:
    def test_singles_period_is_wavelength(self):
        series = singles_series(0.9, n=316)
        assert fringe_period(series) == pytest.approx(WAVELENGTH, rel=0.01)

    def test_coincidence_period_is_half_wavelength(self):
        series = coincidence_series(0.9, n=316)
        assert fringe_period(series) == pytest.approx(WAVELENGTH / 2, rel=0.01)

    def test_double_modulation_relation(self):
        singles = fringe_period(singles_series(0.88, n=316))
        pairs = fringe_period(coincidence_series(0.88, n=316))
        assert pairs / singles == pytest.approx(0.5, rel=0.02)

    def test_survives_poisson_noise(self):
        rng = np.random.default_rng(3)
        series = singles_series(0.882, n=316, scale=5e5)
        noisy = FringeSeries(series.positions, rng.poisson(series.values).astype(float))
        assert fringe_period(noisy) == pytest.approx(WAVELENGTH, rel=0.01)

    def test_constant_series_has_no_period(self):
        with pytest.raises(NumericalError):
            fringe_period(FringeSeries(fringe_grid(100), np.full(100, 3.0)))

    SPANS = {
        "span_overflows": (-1e308, 1e308),
        "padded_length_overflows": (0.0, 1e308),
        "spacing_underflows": (0.0, 5e-324),
        "frequency_overflows": (0.0, 1e-320),
    }

    @pytest.mark.parametrize("name", sorted(SPANS))
    def test_span_beyond_float_rejected(self, name):
        # each ended in a ZeroDivisionError traceback: a frequency of 0 or inf,
        # or a spacing of 0
        positions = np.zeros(40)
        positions[0], positions[-1] = self.SPANS[name]
        with pytest.raises(DataError, match="positions"):
            fringe_period(FringeSeries(positions, np.cos(np.arange(40.0))))

    def test_pure_noise_has_no_period(self):
        rng = np.random.default_rng(11)
        with pytest.raises(NumericalError):
            fringe_period(FringeSeries(fringe_grid(316), rng.normal(size=316)))

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            fringe_period(FringeSeries(np.arange(5, dtype=float), np.arange(5, dtype=float)))


class TestRobustExtrema:
    def test_plain_extremes_on_flat_tails(self):
        lo, hi = robust_extrema(np.array([1.0] * 5 + [9.0] * 5))
        assert (lo, hi) == (1.0, 9.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_bounded_by_true_extremes(self, values):
        arr = np.array(values)
        lo, hi = robust_extrema(arr)
        assert arr.min() <= lo <= hi <= arr.max()
