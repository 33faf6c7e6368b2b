import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from casotto.spectrum import (
    CavityConfig,
    SingularFluxError,
    ThermalBath,
    casimir_energy,
    coupling_matrix,
    effective_length,
    mode_frequencies,
    occupations,
)


def occupation(beta: float, omega: float) -> float:
    return float(occupations(beta, [omega])[0])


class TestModeFrequencies:
    def test_fundamental(self):
        assert mode_frequencies(1, math.pi)[0] == pytest.approx(1.0, rel=1e-15)

    def test_third_harmonic(self):
        assert mode_frequencies(3, 1.0)[2] == pytest.approx(3.0 * math.pi, rel=1e-15)

    def test_scaling_symmetry(self):
        assert mode_frequencies(2, 2.0)[1] == pytest.approx(math.pi, rel=1e-15)

    def test_equidistance(self):
        ws = mode_frequencies(29, 0.7)
        assert np.array_equal(ws, np.arange(1, 30) * ws[0])

    def test_rejects_no_modes_and_bad_length(self):
        with pytest.raises(ValueError):
            mode_frequencies(0, 1.0)
        with pytest.raises(ValueError):
            mode_frequencies(1, 0.0)
        with pytest.raises(ValueError):
            mode_frequencies(1, -2.0)

    def test_closed_form(self):
        ws = mode_frequencies(5, 2.5)
        assert ws == pytest.approx([k * math.pi / 2.5 for k in range(1, 6)])


# the betas of the oracle (1 to 5 in the docs' examples), of the benchmark's
# thermal grid (2 and 2 * 0.05..0.9) and of its point queries (0.5 to 10),
# and half filling
_BETAS = sorted({*np.geomspace(0.05, 20.0, 25).tolist(), 2.0, math.log(2.0)})


class TestOccupations:
    def test_vacuum(self):
        assert occupation(math.inf, 1.0) == 0.0
        assert np.all(occupations(math.inf, mode_frequencies(6, 1.0)) == 0.0)

    def test_half_filling_at_log2(self):
        assert occupation(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_unit_argument(self):
        assert occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
        assert occupation(1.0, 1.0) == pytest.approx(0.5819767, rel=1e-6)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            occupations(0.0, [1.0])
        with pytest.raises(ValueError):
            occupations(-1.0, [1.0])
        with pytest.raises(ValueError):
            occupations(1.0, [1.0, 0.0])

    @given(
        beta=st.floats(0.05, 15.0),
        omega=st.floats(0.05, 15.0),
        factor=st.floats(1.01, 3.0),
    )
    def test_strictly_decreasing_in_beta_and_omega(self, beta, omega, factor):
        n = occupation(beta, omega)
        assert occupation(beta * factor, omega) < n
        assert occupation(beta, omega * factor) < n

    def test_divides_by_the_correctly_rounded_expm1(self):
        # Against mpmath at 200 bits on the 256 modes of the command line's
        # cavity (w_1 = 1), up to beta*omega = 709, where expm1 overflows and
        # the occupation reads 0 against an exact value below 1e-308.  The
        # denominator np.expm1 is within 0.5 ulp of mpmath's expm1 (math.expm1,
        # the removed scalar's, reaches 0.77 ulp here), so each occupation is
        # 1 divided by the correctly rounded expm1, bit for bit.  The division
        # rounds once more: 1/expm1 is within 1.5 ulp of the exact occupation
        # (1.44 measured), whichever expm1 it divides by.
        ws = mode_frequencies(256, math.pi)
        worst = 0.0
        with mp.workprec(200):
            for beta in _BETAS:
                omegas = ws[beta * ws <= 709.0]
                got = occupations(beta, omegas)
                denominators = [mp.expm1(mp.mpf(float(x))) for x in beta * omegas]
                assert np.array_equal(got, [1.0 / float(d) for d in denominators]), beta
                for g, d in zip(got, denominators):
                    exact = 1 / d
                    worst = max(worst, float(abs(g - exact)) / math.ulp(float(exact)))
        assert worst <= 1.5


class TestCouplingMatrix:
    def test_value_1_2(self):
        assert coupling_matrix(2)[0, 1] == pytest.approx(-4.0 / 3.0, rel=1e-15)

    def test_antisymmetric_pair(self):
        assert coupling_matrix(2)[1, 0] == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_diagonal_vanishes(self):
        assert np.all(np.diag(coupling_matrix(17)) == 0.0)

    def test_antisymmetry(self):
        g = coupling_matrix(50)
        assert np.array_equal(g, -g.T)

    def test_closed_form(self):
        g = coupling_matrix(12)
        for k in range(1, 13):
            for j in range(1, 13):
                ref = 0.0 if k == j else (-1.0) ** (j + k) * 2.0 * j * k / (j * j - k * k)
                assert g[k - 1, j - 1] == pytest.approx(ref, abs=1e-15)


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
        # inputs outside the mirror picture are refused before the flux
        with pytest.raises(ValueError, match="E_J must be positive"):
            effective_length(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="E_l must be non-negative"):
            effective_length(0.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="L0 must be positive"):
            effective_length(0.0, 1.0, 1.0, 0.0)

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
        with pytest.raises(ValueError, match="tail_tol must be positive"):
            CavityConfig(math.pi, 0.01, 8, tail_tol=0.0)

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
