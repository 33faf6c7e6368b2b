import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.interpolate import PPoly

from casotto.quadrature import QuadratureSpec, integrate_1d
from casotto.trajectory import (
    Trajectory,
    check_boundary_conditions,
    from_samples,
    quintic,
    reverse,
    shortcut,
)


def linear_ramp(tau: float) -> Trajectory:
    return Trajectory(PPoly([[1.0 / tau], [0.0]], [0.0, tau]), label="linear")


def finite_difference(g, t, h):
    return (g(np.asarray([t + h]))[0] - g(np.asarray([t - h]))[0]) / (2.0 * h)


class TestQuintic:
    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            quintic(0.0)
        with pytest.raises(ValueError):
            quintic(-1.0)

    def test_start_conditions(self):
        tr = quintic(2.0)
        t0 = np.array([0.0])
        assert tr.delta(t0)[0] == 0.0
        assert tr.ddelta(t0)[0] == 0.0
        assert tr.d2delta(t0)[0] == 0.0

    def test_end_conditions(self):
        tr = quintic(2.0)
        t1 = np.array([2.0])
        assert tr.delta(t1)[0] == pytest.approx(1.0, abs=1e-14)
        assert tr.ddelta(t1)[0] == pytest.approx(0.0, abs=1e-14)
        assert tr.d2delta(t1)[0] == pytest.approx(0.0, abs=1e-13)

    def test_midpoint_value(self):
        assert quintic(4.0).delta(np.array([2.0]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_derivative_consistency_at_random_points(self):
        tau = 1.7
        tr = quintic(tau)
        rng = np.random.default_rng(42)
        h = 1e-5 * tau
        pts = rng.uniform(0.05 * tau, 0.95 * tau, 100)
        for t in pts:
            fd1 = finite_difference(tr.delta, t, h)
            an1 = tr.ddelta(np.array([t]))[0]
            assert abs(fd1 - an1) <= 1e-6 * max(abs(an1), 1e-3)
            fd2 = finite_difference(tr.ddelta, t, h)
            an2 = tr.d2delta(np.array([t]))[0]
            assert abs(fd2 - an2) <= 1e-6 * max(abs(an2), 1e-3)
            fd3 = finite_difference(tr.d2delta, t, h)
            an3 = tr.d3delta(np.array([t]))[0]
            assert abs(fd3 - an3) <= 1e-6 * max(abs(an3), 1.0)

    def test_monotone_velocity_sign(self):
        tr = quintic(3.0)
        t = np.linspace(0.0, 3.0, 500)
        assert np.all(tr.ddelta(t) >= 0.0)

    @given(u=st.floats(0.0, 0.5))
    def test_point_symmetry_about_midpoint(self, u):
        tau = 1.0
        tr = quintic(tau)
        a = tr.delta(np.array([tau / 2.0 + u * tau]))[0]
        b = tr.delta(np.array([tau / 2.0 - u * tau]))[0]
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_antiderivative_consistency(self):
        tr = quintic(1.3)
        r = integrate_1d(tr.delta, 0.0, 0.9, 0.0, QuadratureSpec())
        assert tr.delta.antiderivative()(0.9) == pytest.approx(r.value, rel=1e-12)


class TestBoundaryChecks:
    def test_quintic_passes_all(self):
        assert check_boundary_conditions(quintic(1.0)).all_pass

    def test_linear_ramp_fails_velocity_checks(self):
        rep = check_boundary_conditions(linear_ramp(1.0))
        assert not rep.start_velocity
        assert not rep.end_velocity
        assert rep.start_value and rep.end_value

    def test_injected_acceleration_fails_start_check(self):
        # the quintic plus 0.05 t**2
        coeffs = quintic(1.0).delta.c.copy()
        coeffs[-3] += 0.05
        bent = Trajectory(PPoly(coeffs, [0.0, 1.0]), label="bent")
        rep = check_boundary_conditions(bent)
        assert not rep.start_acceleration
        assert not rep.all_pass


class TestReverse:
    def test_endpoint_swap(self):
        rev = reverse(quintic(2.0))
        assert rev.delta(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-14)
        assert rev.delta(np.array([2.0]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_involution(self):
        tr = quintic(1.5)
        back = reverse(reverse(tr))
        t = np.linspace(0.0, 1.5, 57)
        assert np.max(np.abs(back.delta(t) - tr.delta(t))) < 1e-12
        assert np.max(np.abs(back.ddelta(t) - tr.ddelta(t))) < 1e-12

    def test_velocity_sign_flip(self):
        tau = 1.1
        tr = quintic(tau)
        rev = reverse(tr)
        rng = np.random.default_rng(3)
        t = rng.uniform(0.0, tau, 20)
        assert rev.ddelta(t) == pytest.approx(-tr.ddelta(tau - t), abs=1e-13)


class TestShortcut:
    def test_velocity_vanishes_at_domain_ends(self):
        sc = shortcut(quintic(1.0), 1.0)
        ends = np.array([sc.t_start, sc.t_end])
        assert np.max(np.abs(sc.ddelta(ends))) < 1e-12

    def test_domain_and_unit_displacement(self):
        sc = shortcut(quintic(1.0), 1.0)
        assert sc.t_start == pytest.approx(-1.0)
        assert sc.t_end == pytest.approx(2.0)
        assert sc.delta(np.array([sc.t_start]))[0] == pytest.approx(0.0, abs=1e-13)
        assert sc.delta(np.array([sc.t_end]))[0] == pytest.approx(1.0, abs=1e-13)

    def test_raw_displacement_is_twice_the_cavity_length(self):
        # the normalisation divides out 2*L0*(ramp rise); undo it by quadrature
        L0 = 0.8
        sc = shortcut(quintic(1.0), L0)
        r = integrate_1d(sc.ddelta, sc.t_start, sc.t_end, 0.0, QuadratureSpec())
        assert r.value * 2.0 * L0 == pytest.approx(2.0 * L0, rel=1e-10)

    def test_resonant_amplitudes_vanish(self):
        from casotto.friction import spectral_amplitudes

        sc = shortcut(quintic(1.0), 1.0)
        for n in (2, 4, 10):
            amp = spectral_amplitudes(sc, n * math.pi)
            assert abs(amp.C) < 1e-10
            assert abs(amp.S) < 1e-10

    def test_rejects_ramp_with_nonflat_ends(self):
        with pytest.raises(ValueError):
            shortcut(linear_ramp(1.0), 1.0)

    def test_derivatives_match_finite_differences(self):
        sc = shortcut(quintic(1.0), 1.0)
        rng = np.random.default_rng(11)
        h = 1e-6
        # stay clear of the piecewise junctions
        pts = [t for t in rng.uniform(-0.95, 1.95, 200)
               if min(abs(t - b) for b in sc.delta.x) > 1e-2][:50]
        for t in pts:
            fd = finite_difference(sc.delta, t, h)
            an = sc.ddelta(np.array([t]))[0]
            assert abs(fd - an) <= 1e-6 * max(abs(an), 1e-3)


class TestFromSamples:
    def _sampled_quintic(self, n=201):
        t = np.linspace(0.0, 1.0, n)
        d = quintic(1.0).delta(t)
        body = "# sampled profile\n" + "\n".join(
            f"{float(ti):.17g}, {float(di):.17g}" for ti, di in zip(t, d)
        )
        return io.StringIO(body)

    def test_roundtrip_values(self):
        tr = from_samples(self._sampled_quintic())
        t = np.linspace(0.0, 1.0, 37)
        assert np.max(np.abs(tr.delta(t) - quintic(1.0).delta(t))) < 1e-8

    def test_loosened_derivative_agreement(self):
        tr = from_samples(self._sampled_quintic())
        rng = np.random.default_rng(5)
        h = 1e-5
        for t in rng.uniform(0.05, 0.95, 30):
            fd = finite_difference(tr.delta, t, h)
            an = tr.ddelta(np.array([t]))[0]
            assert abs(fd - an) <= 1e-3 * max(abs(an), 1.0)

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            from_samples(io.StringIO("0,0\n0.5,0.2\n0.5,0.3\n1,1\n"))

    def test_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            from_samples(io.StringIO("0,0\n0.5\n1,1\n2,2\n"))


def test_domain_validation():
    with pytest.raises(ValueError):
        Trajectory(PPoly([[0.0]], [1.0, 1.0]))
    with pytest.raises(TypeError):
        Trajectory(lambda t: t)


def test_given_derivative_is_kept():
    # callers may wrap an evaluator with dataclasses.replace; only the
    # derivatives left as None are derived from the polynomial
    tr = quintic(1.0)
    wrapped = replace(tr, ddelta=lambda t: 2.0 * tr.ddelta(t))
    t = np.array([0.3])
    assert wrapped.ddelta(t)[0] == 2.0 * tr.ddelta(t)[0]
    assert wrapped.d2delta(t)[0] == tr.d2delta(t)[0]
