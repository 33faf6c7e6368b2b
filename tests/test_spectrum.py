import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from casotto.spectrum import (
    CavityConfig,
    SingularFluxError,
    ThermalBath,
    casimir_energy,
    coupling_g,
    coupling_matrix,
    effective_length,
    mode_frequencies,
    mode_frequency,
    mode_frequency_derivative,
    occupations,
    thermal_occupation,
)


class TestModeFrequency:
    def test_fundamental(self):
        assert mode_frequency(1, math.pi) == pytest.approx(1.0, rel=1e-15)

    def test_third_harmonic(self):
        assert mode_frequency(3, 1.0) == pytest.approx(3.0 * math.pi, rel=1e-15)

    def test_scaling_symmetry(self):
        assert mode_frequency(2, 2.0) == pytest.approx(math.pi, rel=1e-15)

    def test_equidistance(self):
        L = 0.7
        base = mode_frequency(1, L)
        for k in range(1, 30):
            assert mode_frequency(k, L) == k * base

    def test_rejects_zero_mode_and_bad_length(self):
        with pytest.raises(ValueError):
            mode_frequency(0, 1.0)
        with pytest.raises(ValueError):
            mode_frequency(1, 0.0)
        with pytest.raises(ValueError):
            mode_frequency(1, -2.0)

    def test_vector_helper_matches_scalar(self):
        ws = mode_frequencies(5, 2.5)
        assert ws == pytest.approx([mode_frequency(k, 2.5) for k in range(1, 6)])

    def test_derivative(self):
        assert mode_frequency_derivative(3, 2.0) == pytest.approx(-3.0 * math.pi / 4.0)


class TestThermalOccupation:
    def test_vacuum(self):
        assert thermal_occupation(math.inf, 1.0) == 0.0

    def test_half_filling_at_log2(self):
        assert thermal_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_unit_argument(self):
        assert thermal_occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
        assert thermal_occupation(1.0, 1.0) == pytest.approx(0.5819767, rel=1e-6)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            thermal_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            thermal_occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            thermal_occupation(1.0, 0.0)

    @given(
        beta=st.floats(0.05, 15.0),
        omega=st.floats(0.05, 15.0),
        factor=st.floats(1.01, 3.0),
    )
    def test_strictly_decreasing_in_beta_and_omega(self, beta, omega, factor):
        n = thermal_occupation(beta, omega)
        assert thermal_occupation(beta * factor, omega) < n
        assert thermal_occupation(beta, omega * factor) < n

    def test_vectorised_matches_scalar(self):
        ws = mode_frequencies(6, 1.0)
        vec = occupations(2.0, ws)
        assert vec == pytest.approx([thermal_occupation(2.0, w) for w in ws])
        assert np.all(occupations(math.inf, ws) == 0.0)


class TestCoupling:
    def test_value_1_2(self):
        assert coupling_g(1, 2) == pytest.approx(-4.0 / 3.0, rel=1e-15)

    def test_antisymmetric_pair(self):
        assert coupling_g(2, 1) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_diagonal_vanishes(self):
        for k in (1, 5, 17):
            assert coupling_g(k, k) == 0.0

    @given(k=st.integers(1, 50), j=st.integers(1, 50))
    def test_antisymmetry(self, k, j):
        assert coupling_g(k, j) == -coupling_g(j, k)

    def test_matrix_matches_scalar(self):
        g = coupling_matrix(12)
        for k in range(1, 13):
            for j in range(1, 13):
                assert g[k - 1, j - 1] == pytest.approx(coupling_g(k, j), abs=1e-15)


class TestCasimirEnergy:
    def test_unit_length(self):
        assert casimir_energy(1.0) == pytest.approx(-math.pi / 24.0, rel=1e-15)

    def test_double_length(self):
        assert casimir_energy(2.0) == pytest.approx(-math.pi / 48.0, rel=1e-15)

    def test_long_cavity_limit(self):
        assert abs(casimir_energy(1e12)) < 1e-12

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            casimir_energy(0.0)


class TestEffectiveLength:
    def test_decoupled_limit(self):
        assert effective_length(0.3, 1.0, 1e-14, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_equal_energies_at_zero_flux(self):
        assert effective_length(0.0, 1.0, 1.0, 2.0) == pytest.approx(3.0, rel=1e-15)

    def test_singular_flux(self):
        with pytest.raises(SingularFluxError):
            effective_length(math.pi / 2.0, 1.0, 1.0, 1.0)

    def test_floor_is_configurable(self):
        f = math.pi / 2.0 - 1e-4
        with pytest.raises(SingularFluxError):
            effective_length(f, 1.0, 1.0, 1.0, cos_floor=1e-3)
        assert effective_length(f, 1.0, 1.0, 1.0, cos_floor=1e-6) > 0


class TestConfigs:
    def test_cavity_validation(self):
        with pytest.raises(ValueError):
            CavityConfig(L0=0.0, epsilon=0.1)
        with pytest.raises(ValueError):
            CavityConfig(L0=1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            CavityConfig(L0=1.0, epsilon=1.0)
        with pytest.raises(ValueError):
            CavityConfig(L0=1.0, epsilon=0.1, n_modes=0)

    def test_derived_lengths(self):
        cfg = CavityConfig(L0=math.pi, epsilon=0.25)
        assert cfg.omega1 == pytest.approx(1.0)
        assert cfg.L1 == pytest.approx(0.75 * math.pi)

    def test_bath_validation(self):
        assert ThermalBath(math.inf).beta == math.inf
        with pytest.raises(ValueError):
            ThermalBath(0.0)
        with pytest.raises(ValueError):
            ThermalBath(-1.0)
