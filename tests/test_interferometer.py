import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pstream.errors import ConfigError, DomainError
from pstream.interferometer import (
    OpticalState,
    PztConfig,
    envelope,
    pair_coincidence_probability,
    port_probability,
    pzt_phase,
    singles_fringe,
    voltage_to_displacement,
)

UNIT = st.floats(min_value=0.0, max_value=1.0)
PHASES = st.floats(min_value=-50.0, max_value=50.0)


class TestPztPhase:
    def test_half_wavelength_is_pi(self):
        assert pzt_phase(316.4e-9, 632.8e-9) == pytest.approx(math.pi, rel=1e-12)

    def test_zero_displacement(self):
        assert pzt_phase(0.0, 632.8e-9) == 0.0

    def test_full_wavelength(self):
        assert pzt_phase(632.8e-9, 632.8e-9) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_bad_wavelength(self):
        with pytest.raises(DomainError):
            pzt_phase(1e-6, 0.0)


class TestVoltageToDisplacement:
    def test_range_center_maps_to_zero(self):
        assert voltage_to_displacement(50.0, PztConfig()) == 0.0

    def test_full_range_spans_four_microns(self):
        # quantization to the 1.5 mV grid nudges the endpoint by one part in 1e5
        assert voltage_to_displacement(100.0, PztConfig()) == pytest.approx(4e-6, rel=1e-4)
        assert voltage_to_displacement(0.0, PztConfig()) == pytest.approx(-4e-6, rel=1e-4)

    def test_sub_resolution_offset_snaps_to_grid(self):
        # 0.9 mV above center rounds up to the 1.5 mV grid point
        x = voltage_to_displacement(50.0009, PztConfig())
        assert x == pytest.approx(1.5e-3 * 8e-8, rel=1e-9)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            voltage_to_displacement(100.1, PztConfig())
        with pytest.raises(DomainError):
            voltage_to_displacement(-0.1, PztConfig())

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_matches_quantization_oracle(self, v):
        cfg = PztConfig()
        expected = round((v - 50.0) / 1.5e-3) * 1.5e-3 * 8e-8
        assert voltage_to_displacement(v, cfg) == pytest.approx(expected, abs=1e-18)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PztConfig(voltage_max=0.0)
        with pytest.raises(ConfigError):
            PztConfig(voltage_resolution=0.0)

    # round() of an infinite step count raised OverflowError, and linspace
    # over an infinite range warned
    @pytest.mark.parametrize(
        "calibration",
        [
            {"voltage_max": 1e308},
            {"voltage_resolution": 1e-320},
            {"voltage_min": -1.7e308, "voltage_max": 1.7e308},
        ],
    )
    def test_range_of_no_finite_step_count_refused(self, calibration):
        with pytest.raises(ConfigError, match="is not a finite number of"):
            PztConfig(**calibration)

    def test_center_overflow_refused_as_domain_error(self):
        # a finite range whose center 0.5*(min + max) overflows
        cfg = PztConfig(voltage_min=1e308, voltage_max=1.0000001e308, voltage_resolution=1.0)
        with pytest.raises(DomainError, match="not a finite number of 1.0 V resolution steps"):
            voltage_to_displacement(1e308, cfg)


class TestEnvelope:
    def test_peak(self):
        assert envelope(0.0, 2e-6) == 1.0

    def test_half_width_at_half_maximum(self):
        assert envelope(1e-6, 2e-6) == pytest.approx(0.5, rel=1e-12)

    def test_scan_edge(self):
        assert envelope(4e-6, 2e-6) == pytest.approx(2.0**-16, rel=1e-12)

    def test_bad_width(self):
        with pytest.raises(DomainError):
            envelope(1e-6, 0.0)
        # its square underflows to 0, which gave 0/0 = NaN at x = 0
        with pytest.raises(DomainError, match="underflow"):
            envelope(0.0, 1e-300)

    @given(st.floats(min_value=-1e-5, max_value=1e-5), st.floats(min_value=1e-7, max_value=1e-5))
    def test_even_and_bounded(self, x, l_eff):
        g = envelope(x, l_eff)
        assert 0.0 <= g <= 1.0
        assert g == pytest.approx(envelope(-x, l_eff), rel=1e-12)

    def test_strictly_decreasing_in_magnitude(self):
        xs = np.linspace(0, 5e-6, 200)
        g = envelope(xs, 2e-6)
        assert np.all(np.diff(g) < 0)

    @given(
        st.floats(min_value=-1e150, max_value=1e150),
        st.floats(min_value=1e-150, max_value=1e150),
    )
    def test_bits_of_the_direct_form_where_it_is_finite(self, x, l_eff):
        with np.errstate(all="ignore"):
            exponent = -4.0 * math.log(2.0) * np.float64(x) * x / (l_eff * l_eff)
        assume(np.isfinite(exponent))
        assert envelope(x, l_eff) == np.exp(exponent)

    @pytest.mark.parametrize(
        ("x", "l_eff", "ratio"),
        [
            (1e200, 2e-6, math.inf),  # x*x overflows
            (1e153, 1e-6, math.inf),  # the division overflows
            (1e200, 1e200, 1.0),  # both squares overflow: inf/inf gave NaN
            (-1e308, 1e308, -1.0),
            (5e153, 1e155, 0.05),  # the width's square overflows alone
            (1.7e308, 1e-150, math.inf),  # the ratio's square overflows too
        ],
    )
    def test_squares_that_overflow(self, x, l_eff, ratio):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = envelope(np.array([0.0, x]), l_eff)
        assert g[0] == 1.0
        assert g[1] == pytest.approx(math.exp(-4.0 * math.log(2.0) * ratio * ratio), rel=1e-12)


class TestPortProbability:
    def test_zero_phase_perfect_contrast_goes_dark(self):
        assert port_probability(0.0, 1.0, 1.0) == 0.0

    def test_quadrature_splits_evenly(self):
        assert port_probability(math.pi / 2, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_incoherent_limit(self):
        assert port_probability(0.0, 0.0, 1.0) == 0.5

    def test_contrast_bounds_enforced(self):
        with pytest.raises(DomainError):
            port_probability(0.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            port_probability(0.0, 1.0, -0.1)
        with pytest.raises(DomainError):
            port_probability(0.0, np.array([1.0, math.nan]), 1.0)

    @given(PHASES, UNIT, UNIT)
    def test_probability_range(self, phase, g, v):
        p = port_probability(phase, g, v)
        assert 0.0 <= p <= 1.0


class TestSinglesFringe:
    def test_dark_port(self):
        assert singles_fringe(0.0, 1.0, 1.0) == (0.0, 1.0)

    def test_peak_with_measured_visibility(self):
        p, q = singles_fringe(math.pi, 1.0, 0.882)
        assert p == pytest.approx(0.941, abs=1e-6)
        assert q == pytest.approx(0.059, abs=1e-6)

    def test_balanced_at_quadrature(self):
        p, q = singles_fringe(math.pi / 2, 0.5, 1.0)
        assert p == pytest.approx(0.5, abs=1e-15)
        assert q == pytest.approx(0.5, abs=1e-15)

    @given(PHASES, UNIT, UNIT)
    def test_ports_sum_to_one(self, phase, g, v):
        p, q = singles_fringe(phase, g, v)
        assert p + q == 1.0
        assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0


def _enumerate_pair_split(p):
    """Probability one photon lands on each detector when both route independently."""
    routings = [(a, b) for a in ("A", "B") for b in ("A", "B")]
    total = 0.0
    for a, b in routings:
        prob = (p if a == "A" else 1 - p) * (p if b == "A" else 1 - p)
        if a != b:
            total += prob
    return total


class TestPairCoincidence:
    def test_deterministic_bunching_at_zero_phase(self):
        assert pair_coincidence_probability(0.0, 1.0, 1.0) == 0.0

    def test_quadrature_maximum_matches_enumeration(self):
        assert pair_coincidence_probability(math.pi / 2, 1.0, 1.0) == pytest.approx(
            _enumerate_pair_split(0.5), abs=1e-15
        )

    def test_minimum_with_measured_contrast(self):
        value = pair_coincidence_probability(0.0, 1.0, 0.88)
        assert value == pytest.approx(0.1128, abs=1e-6)
        assert value / pair_coincidence_probability(math.pi / 2, 1.0, 0.88) == pytest.approx(
            0.2256, abs=1e-6
        )

    @given(PHASES, UNIT, UNIT)
    def test_identity_with_port_probability(self, phase, g, v):
        p = port_probability(phase, g, v)
        assert pair_coincidence_probability(phase, g, v) == pytest.approx(
            2 * p * (1 - p), abs=1e-14
        )

    @given(PHASES, UNIT, UNIT)
    def test_double_modulation_period(self, phase, g, v):
        pair = pair_coincidence_probability
        assert pair(phase + math.pi, g, v) == pytest.approx(pair(phase, g, v), abs=1e-9)

    @given(PHASES, st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=0.05, max_value=1.0))
    def test_singles_do_not_share_the_halved_period(self, phase, g, v):
        assume(abs(math.cos(phase)) > 1e-2)
        p_here = port_probability(phase, g, v)
        p_shifted = port_probability(phase + math.pi, g, v)
        # the pi shift moves the singles fringe by exactly its contrast swing
        assert abs(p_here - p_shifted) == pytest.approx(g * v * abs(math.cos(phase)), rel=1e-6)
        assert abs(p_here - p_shifted) > 0.0

    def test_extrema_ratio_closed_form(self):
        for contrast in (1.0, 0.88, 0.5, 0.1):
            phases = np.linspace(0, 2 * math.pi, 20001)
            values = pair_coincidence_probability(phases, 1.0, contrast)
            assert values.min() / values.max() == pytest.approx(1 - contrast**2, abs=1e-6)

    def test_coincidence_minima_sit_at_singles_extrema(self):
        phases = np.linspace(0, 4 * math.pi, 40001)
        singles = port_probability(phases, 1.0, 0.9)
        pairs = pair_coincidence_probability(phases, 1.0, 0.9)
        # anti-crossings (singles extrema) minimize the pair rate, crossings maximize it
        assert pairs[np.argmax(singles)] == pytest.approx(pairs.min(), abs=1e-7)
        assert pairs[np.argmin(np.abs(singles - 0.5))] == pytest.approx(pairs.max(), abs=1e-7)


class TestOpticalState:
    def test_beam_splitter_phase_is_fixed(self):
        # the splitter's pi/2 sends every photon to D2 at zero phase and full contrast
        state = OpticalState()
        assert state.d1_probability() == 0.0
        assert OpticalState(phase=math.pi).d1_probability() == 1.0
        with pytest.raises(Exception):
            object.__delattr__(state, "nonexistent")  # frozen dataclass, no mutation
        with pytest.raises(Exception):
            state.phase = 1.0

    def test_contrast_composition(self):
        state = OpticalState(phase=0.0, intrinsic_visibility=0.9, envelope_gain=envelope(1e-6, 2e-6))
        assert state.d1_probability() == pytest.approx((1 - 0.45) / 2, rel=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            OpticalState(intrinsic_visibility=1.2).d1_probability()
        with pytest.raises(DomainError):
            OpticalState(envelope_gain=-0.1).d1_probability()

    @given(PHASES, UNIT)
    def test_trace_workload_form_is_port_probability(self, phase, v):
        """The keyword form that the benchmark's trace workload builds."""
        state = OpticalState(phase=phase, intrinsic_visibility=v)
        assert state.d1_probability() == port_probability(phase, 1.0, v)
