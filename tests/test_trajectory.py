import io
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import Polynomial
from scipy import interpolate

from casotto.quadrature import QuadratureSpec, integrate_1d
from casotto import trajectory
from casotto.trajectory import (
    PPoly,
    Trajectory,
    _from_pieces,
    _taylor_shift,
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

    @pytest.mark.parametrize("tau", [1e-300, 1e-200, 1e-64, 1e62, 1e300, math.inf])
    def test_rejects_duration_whose_fifth_power_leaves_floating_point(self, tau):
        # tau**5 underflows or overflows, so a coefficient would be 0, inf or nan
        with pytest.raises(ValueError, match="tau"):
            quintic(tau)

    @pytest.mark.parametrize("tau", [1e-61, 1e61])
    def test_extreme_durations_in_range_keep_finite_coefficients(self, tau):
        c = quintic(tau).delta.c[:3, 0]
        assert np.all(np.isfinite(c)) and np.all(c != 0.0)

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
        # value 0 -> 1, velocity and acceleration zero at both ends
        tr = quintic(1.0)
        ends = np.array([tr.t_start, tr.t_end])
        assert tr.delta(ends) == pytest.approx([0.0, 1.0], abs=1e-9)
        assert tr.ddelta(ends) == pytest.approx([0.0, 0.0], abs=1e-9)
        assert tr.d2delta(ends) == pytest.approx([0.0, 0.0], abs=1e-9)


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
            assert abs(amp.C[0]) < 1e-10
            assert abs(amp.S[0]) < 1e-10

    def test_rejects_ramp_with_nonflat_ends(self):
        with pytest.raises(ValueError):
            shortcut(linear_ramp(1.0), 1.0)
        # a flat ramp has flat ends but no displacement
        with pytest.raises(ValueError, match="endpoint values coincide"):
            shortcut(Trajectory(PPoly([[0.5]], [0.0, 1.0])), 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("L0", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_L0_before_any_arithmetic(self, L0):
        with pytest.raises(ValueError, match="L0 must be positive and finite"):
            shortcut(quintic(1.0), L0)

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

    @pytest.mark.parametrize("n", [4, 5, 21, 201])
    def test_matches_scipy_clamped_spline(self, n):
        # scipy is the oracle here only; the package builds its own spline
        rng = np.random.default_rng(n)
        t = np.cumsum(rng.uniform(0.05, 1.0, n))
        y = rng.normal(size=n)
        text = "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(t, y))
        ours = from_samples(io.StringIO(text)).delta
        theirs = interpolate.CubicSpline(t, y, bc_type="clamped")
        assert ours.x.tolist() == theirs.x.tolist()
        assert ours.c.shape == theirs.c.shape
        assert np.max(np.abs(ours.c - theirs.c)) <= 1e-13 * np.max(np.abs(theirs.c))

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            from_samples(io.StringIO("0,0\n0.5,0.2\n0.5,0.3\n1,1\n"))

    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf", "nan,0.5", "inf,1"])
    def test_rejects_non_finite_samples(self, row):
        with pytest.raises(ValueError, match="finite"):
            from_samples(io.StringIO(f"0,0\n0.25,0.2\n{row}\n0.75,0.8\n"))

    def test_rejects_malformed_rows(self):
        with pytest.raises(ValueError):
            from_samples(io.StringIO("0,0\n0.5\n1,1\n2,2\n"))
        with pytest.raises(ValueError, match="need at least 4 samples"):
            from_samples(io.StringIO("0,0\n0.5,0.5\n1,1\n"))


def test_domain_validation():
    with pytest.raises(ValueError):
        Trajectory(PPoly([[0.0]], [1.0, 1.0]))
    with pytest.raises(ValueError, match="domain must be finite"):
        Trajectory(PPoly([[1.0]], [0.0, math.inf]))
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


def test_replaced_profile_derives_its_own_velocity():
    # the derived ddelta follows a replaced delta; a wrapped one is kept above
    moved = replace(quintic(1.0), delta=quintic(2.0).delta)
    t = np.array([0.5])
    assert moved.ddelta(t)[0] == quintic(2.0).ddelta(t)[0]


def test_higher_derivatives_are_read_only_exact_derivatives():
    # only ddelta is an init field (a tracer may wrap it); d2delta and d3delta
    # are the polynomial's own derivatives, whatever the caller passes
    assert [f.name for f in fields(Trajectory)] == ["delta", "label", "ddelta"]
    with pytest.raises(TypeError):
        Trajectory(PPoly([[1.0], [0.0]], [0.0, 1.0]), d2delta=lambda t: t)
    ramp = quintic(1.3)
    profiles = [ramp, shortcut(ramp, 0.5), reverse(ramp),
                from_samples(TestFromSamples()._sampled_quintic(21))]
    t = np.linspace(-0.6, 2.0, 53)
    for tr in profiles:
        for order, name in ((2, "d2delta"), (3, "d3delta")):
            assert np.array_equal(getattr(tr, name)(t), tr.delta.derivative(order)(t)), name
        with pytest.raises(AttributeError):
            tr.d2delta = tr.delta.derivative(2)


def test_quintic_builds_one_derivative(monkeypatch):
    calls = []
    original = PPoly.derivative

    def counting(self, nu=1):
        calls.append(nu)
        return original(self, nu)

    monkeypatch.setattr(PPoly, "derivative", counting)
    quintic(1.0)
    assert calls == [1]


def _random_ppolys(seed=7, count=40):
    """Random multi-piece polynomials: the in-house one and scipy's, same data."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, n = int(rng.integers(0, 7)), int(rng.integers(1, 6))
        x = np.cumsum(rng.uniform(0.1, 1.0, n + 1)) - 0.5
        c = rng.normal(size=(k + 1, n))
        yield PPoly(c, x), interpolate.PPoly(c, x), rng


def _close(ours, theirs):
    scale = 1.0 + np.max(np.abs(theirs), initial=0.0)
    np.testing.assert_allclose(ours, theirs, rtol=1e-13, atol=1e-13 * scale)


class TestPPolyAgainstScipy:
    def test_values_inside_at_breakpoints_and_outside(self):
        for ours, theirs, rng in _random_ppolys():
            x = ours.x
            t = np.concatenate([rng.uniform(x[0], x[-1], 25), x, [x[0] - 0.7, x[-1] + 0.9]])
            _close(ours(t), theirs(t))
            _close(ours(float(x[-1])), theirs(float(x[-1])))

    def test_no_power_past_the_last_term(self):
        # (1e52)**6 overflows, but no term of a quintic needs it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quintic(1e52).delta(np.array([1e52])).tolist() == [1.0]

    def test_right_continuous_with_closed_last_piece(self):
        p = PPoly([[1.0, 2.0, 3.0]], [0.0, 1.0, 2.0, 3.0])
        assert p(np.array([1.0, 2.0, 3.0, -5.0, 9.0])).tolist() == [2.0, 3.0, 3.0, 1.0, 3.0]

    def test_derivatives_up_to_above_the_degree(self):
        for ours, theirs, rng in _random_ppolys(seed=8):
            t = rng.uniform(ours.x[0] - 0.5, ours.x[-1] + 0.5, 30)
            for nu in range(1, 5):
                _close(ours.derivative(nu)(t), theirs.derivative(nu)(t))
        cubic = PPoly(np.ones((4, 2)), [0.0, 1.0, 2.0])
        assert not np.any(cubic.derivative(4)(np.linspace(-1.0, 3.0, 9)))
        # each row is scaled once, by the falling factorial of its power
        assert cubic.derivative(2).c[:, 0].tolist() == [6.0, 2.0]

    def test_antiderivative_continuous_at_every_breakpoint(self):
        for ours, theirs, rng in _random_ppolys(seed=9):
            anti = ours.antiderivative()
            t = rng.uniform(ours.x[0], ours.x[-1], 25)
            _close(anti(t), theirs.antiderivative()(t))
            assert anti(ours.x[0]) == 0.0
            for i in range(1, len(ours.x) - 1):
                left = PPoly(anti.c[:, i - 1:i], anti.x[i - 1:i + 1])(anti.x[i])
                assert abs(left - anti(anti.x[i])) <= 1e-14 * (1.0 + abs(left))


class TestForeignPolynomials:
    def test_scipy_ppoly_is_converted(self):
        # only explicitly: a foreign polynomial is a TypeError
        c = quintic(1.0).delta.c
        theirs = interpolate.PPoly(c, [0.0, 1.0])
        with pytest.raises(TypeError, match="PPoly"):
            Trajectory(theirs)
        tr = Trajectory(PPoly(theirs.c, theirs.x))
        assert tr.delta.c.tolist() == c.tolist()
        assert tr.delta.x.tolist() == [0.0, 1.0]

    def test_sampled_profile_is_converted(self):
        tr = from_samples(TestFromSamples()._sampled_quintic(21))
        assert type(tr.delta) is PPoly
        assert type(tr.d2delta) is PPoly

    def test_rejects_malformed_coefficients(self):
        with pytest.raises(ValueError):
            PPoly(np.ones((3, 2)), [0.0, 1.0])
        with pytest.raises(ValueError):
            PPoly(np.ones((3, 2)), [0.0, 2.0, 1.0])


def _composed(a, s):
    """Ascending coefficients of ``p(u + s)`` by ``Polynomial`` composition."""
    coef = Polynomial(a)(Polynomial([s, 1.0])).coef
    return np.pad(coef, (0, len(a) - len(coef)))


class TestTaylorShift:
    def test_from_pieces_matches_polynomial_composition(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            order = int(rng.integers(1, 8))
            pieces = []
            for _ in range(int(rng.integers(1, 6))):
                lo = float(rng.uniform(-3.0, 3.0))
                a = rng.normal(size=int(rng.integers(1, order + 1)))
                pieces.append((lo, lo + float(rng.uniform(0.1, 4.0)), a))
            got = _from_pieces(pieces, order)
            x = got.x
            for i in range(len(x) - 1):
                want = np.zeros(order)
                scale = np.zeros(order)
                for lo, hi, a in pieces:
                    if lo <= x[i] and x[i + 1] <= hi:
                        a = np.pad(a, (0, order - len(a)))
                        want += _composed(a, x[i] - lo)
                        scale += _composed(np.abs(a), abs(x[i] - lo))
                # each shifted coefficient is a sum of at most `order` products
                bound = 4.0 * order * np.finfo(float).eps * scale
                assert np.all(np.abs(got.c[::-1, i] - want) <= bound)

    def test_from_pieces_equals_the_window_by_window_sum_bit_for_bit(self):
        # the reference: each window shifted on its own and added in turn
        def by_window(pieces, order):
            x = np.unique([edge for lo, hi, _ in pieces for edge in (lo, hi)])
            c = np.zeros((order, len(x) - 1))
            for lo, hi, a in pieces:
                first, last = np.searchsorted(x, lo), np.searchsorted(x, hi)
                column = np.asarray(a, dtype=float)[:, None] * np.ones(last - first)
                c[order - len(a):, first:last] += _taylor_shift(column, x[first:last] - lo)[::-1]
            return c, x

        rng = np.random.default_rng(29)
        cases = []
        for _ in range(60):
            order = int(rng.integers(1, 8))
            edges = rng.uniform(-3.0, 3.0, size=4)  # shared edges, nested and overlapping windows
            pieces = []
            for _ in range(int(rng.integers(1, 7))):
                lo, hi = sorted(rng.choice(edges, size=2, replace=False))
                pieces.append((lo, hi, rng.normal(size=int(rng.integers(1, order + 1)))))
            cases.append((pieces, order))
        captured = []
        original = trajectory._from_pieces
        try:
            trajectory._from_pieces = lambda p, o: captured.append((p, o)) or original(p, o)
            for tau in (0.1, 0.7, 2.0, 10.0):
                for L0 in (0.3, 1.0, math.pi):
                    shortcut(quintic(tau), L0)
                    shortcut(reverse(quintic(tau)), L0)
        finally:
            trajectory._from_pieces = original
        for pieces, order in cases + captured:
            got = _from_pieces(pieces, order)
            c, x = by_window(pieces, order)
            assert got.x.tobytes() == x.tobytes() and got.c.tobytes() == c.tobytes()

    @pytest.mark.parametrize("tau", [1.0, 2.0, 3.5], ids=["overlap", "touch", "apart"])
    def test_shortcut_windows_and_resonances(self, tau):
        # the two shifted copies of the ramp's window [0, tau] overlap, touch
        # or separate as tau is below, at or above 2 L0
        from casotto.friction import spectral_table
        from casotto.spectrum import CavityConfig

        L0 = 1.0
        sc = shortcut(quintic(tau), L0)
        assert len(sc.delta.x) == (3 if tau == 2 * L0 else 4)
        assert sc.delta.x[0] == -L0 and sc.delta.x[-1] == tau + L0
        assert np.all(np.diff(sc.delta.x) > 0)
        ends = np.array([sc.t_start, sc.t_end])
        assert np.max(np.abs(sc.ddelta(ends))) < 1e-12
        assert np.max(np.abs(sc.delta(ends) - [0.0, 1.0])) < 1e-12
        table = spectral_table(sc, CavityConfig(L0=L0, epsilon=0.01, n_modes=16))
        n = np.arange(1, len(table.omegas))
        assert np.all(np.hypot(table.C[n], table.S[n]) <= table.err[n])

    def test_double_reverse_restores_the_coefficients(self):
        profiles = [shortcut(quintic(t), L0) for t, L0 in ((1.0, 1.0), (2.0, 1.0), (0.4, math.pi))]
        profiles += [Trajectory(ours) for ours, _, _ in _random_ppolys(seed=13, count=20)]
        for tr in profiles:
            back = reverse(reverse(tr))
            x, c = tr.delta.x, tr.delta.c
            np.testing.assert_allclose(back.delta.x, x, rtol=0.0, atol=4e-16 * np.max(np.abs(x)))
            # each coefficient times its power of the piece width, against
            # the largest such term of the piece
            powers = np.diff(x) ** np.arange(c.shape[0] - 1, -1, -1)[:, None]
            scale = np.max(np.abs(c) * powers, axis=0)
            assert np.all(np.abs(back.delta.c - c) * powers <= 1e-13 * scale)
