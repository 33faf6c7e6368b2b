import io
import math

import mpmath
import numpy as np
import pytest
from scipy.interpolate import PPoly

from casotto.friction import (
    FrictionResult,
    export_mode_table,
    friction_bound,
    friction_energy,
    partial_spectral_integral,
    spectral_amplitudes,
    spectral_table,
)
from casotto.quadrature import QuadratureSpec, integrate_1d, integrate_2d_oracle
from casotto.spectrum import (
    CavityConfig,
    ThermalBath,
    coupling_matrix,
    mode_frequencies,
    occupations,
)
from casotto.trajectory import Trajectory, from_samples, quintic, reverse, shortcut

SPEC = QuadratureSpec()

pytestmark = pytest.mark.filterwarnings(
    "ignore::casotto.friction.TruncationWarning"
)

# frozen against the 2-D tensor-product oracle (mode-by-mode kernel
# integration, see test_matches_2d_oracle_mode_by_mode): quintic(tau=1),
# beta*omega1 = 1, eps = 0.01, K = 8, L0 = pi
X_QUINTIC_K8 = 1.2807123252720311e-3


def make_cfg(K=8, eps=0.01):
    return CavityConfig(L0=math.pi, epsilon=eps, n_modes=K)


class TestSpectralAmplitudes:
    def test_zero_frequency_gives_net_displacement(self):
        amp = spectral_amplitudes(quintic(2.0), 0.0)
        assert amp.C == pytest.approx(1.0, rel=1e-12)
        assert amp.S == pytest.approx(0.0, abs=1e-12)

    def test_zero_frequency_shortcut(self):
        amp = spectral_amplitudes(shortcut(quintic(1.0), 1.0), 0.0)
        assert amp.C == pytest.approx(1.0, rel=1e-9)
        assert abs(amp.S) < 1e-12

    def test_shortcut_resonances_vanish(self):
        sc = shortcut(quintic(1.0), 1.0)
        for n in (2, 4, 10):
            amp = spectral_amplitudes(sc, n * math.pi)
            assert abs(amp.C) < 1e-10 and abs(amp.S) < 1e-10

    def test_power_matches_2d_identity(self):
        tr = quintic(1.0)
        omega = 2.0 * math.pi
        amp = spectral_amplitudes(tr, omega)
        two_d = integrate_2d_oracle(
            lambda t1, t2: tr.ddelta(t1) * tr.ddelta(t2) * np.cos(omega * (t1 - t2)),
            0.0,
            1.0,
            omega,
            SPEC,
        )
        assert amp.power == pytest.approx(two_d.value, rel=1e-9)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            spectral_amplitudes(quintic(1.0), -1.0)


def mp_amplitude(traj, omega):
    """``C + iS`` of the velocity by mpmath.quad, piece by piece.

    Up to a few dozen carrier periods per piece the real-axis integral is
    taken directly; beyond, the contour is moved into the upper half plane,
    where the carrier decays: integral_0^h p(u) exp(i w u) du =
    i integral_0^inf [p(i y) - exp(i w h) p(h + i y)] exp(-w y) dy.
    """
    v = traj.delta.derivative()
    total = mpmath.mpc(0)
    with mpmath.workdps(30):
        w = mpmath.mpf(omega)
        for i in range(len(v.x) - 1):
            coeffs = [mpmath.mpf(float(c)) for c in v.c[:, i]]
            x0 = mpmath.mpf(float(v.x[i]))
            h = mpmath.mpf(float(v.x[i + 1])) - x0

            def p(u):
                return mpmath.polyval(coeffs, u)

            if w * h < 200:
                nodes = mpmath.linspace(0, h, 2 + int(w * h))
                piece = mpmath.quad(lambda u: p(u) * mpmath.expj(w * u), nodes)
            else:
                carrier = mpmath.expj(w * h)
                piece = 1j * mpmath.quad(
                    lambda y: (p(1j * y) - carrier * p(h + 1j * y)) * mpmath.exp(-w * y),
                    [0, 1 / w, mpmath.inf],
                )
            total += mpmath.expj(w * x0) * piece
    return complex(total)


def split_quadrature(traj, omega, edges=None):
    """``C + iS`` by the panel-quadrature oracle, split at the breakpoints."""
    v = traj.delta.derivative()
    edges = v.x if edges is None else edges
    total = 0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        C = integrate_1d(lambda t: v(t) * np.cos(omega * t), lo, hi, omega, SPEC)
        S = integrate_1d(lambda t: v(t) * np.sin(omega * t), lo, hi, omega, SPEC)
        total += complex(C.value, S.value)
    return total


def sampled_quintic(n):
    t = np.linspace(0.0, 1.0, n)
    d = quintic(1.0).delta(t)
    return from_samples(io.StringIO("\n".join(f"{a:.17g},{b:.17g}" for a, b in zip(t, d))))


class TestClosedForm:
    # w * tau on both sides of the Taylor / integration-by-parts switch at
    # 3, and deep in the adiabatic regime
    @pytest.mark.parametrize("tau", [0.1, 1.0, 2.5])
    @pytest.mark.parametrize("x", [0.0, 0.4, 2.999, 3.001, 7.5, 40.0, 1e7])
    def test_quintic_matches_mpmath(self, tau, x):
        tr = quintic(tau)
        amp = spectral_amplitudes(tr, x / tau)
        ref = mp_amplitude(tr, x / tau)
        assert abs(complex(amp.C, amp.S) - ref) <= 1e-12 * abs(ref) + amp.err

    @pytest.mark.parametrize("omega", [0.0, 0.7, math.pi, 5.3, 40.0])
    @pytest.mark.parametrize("make", [
        lambda: shortcut(quintic(1.0), 1.0),
        lambda: shortcut(quintic(1.0), 0.3),
        lambda: sampled_quintic(21),
    ], ids=["shortcut", "overlapping-shortcut", "sampled"])
    def test_piecewise_profiles_match_split_quadrature(self, make, omega):
        tr = make()
        amp = spectral_amplitudes(tr, omega)
        ref = split_quadrature(tr, omega)
        assert abs(complex(amp.C, amp.S) - ref) <= 1e-12

    @pytest.mark.parametrize("make", [
        lambda: quintic(1.3),
        lambda: shortcut(quintic(1.0), 1.0),
        lambda: sampled_quintic(21),
    ], ids=["quintic", "shortcut", "sampled"])
    def test_reversal_is_a_phase_rotation(self, make):
        # F_rev(w) = -exp(i w (t_start + t_end)) conj F(w)
        tr = make()
        cfg = CavityConfig(L0=0.9, epsilon=0.01, n_modes=24)
        fwd = spectral_table(tr, cfg)
        rev = spectral_table(reverse(tr), cfg)
        w = np.arange(fwd.n_max + 1) * fwd.omega1
        expected = -np.exp(1j * w * (tr.t_start + tr.t_end)) * (fwd.C - 1j * fwd.S)
        assert np.max(np.abs(rev.C + 1j * rev.S - expected)) <= 1e-14

    @pytest.mark.parametrize("t", [0.37, 2.0])
    def test_partial_integral_matches_split_quadrature(self, t):
        tr = shortcut(quintic(1.0), 1.0)
        edges = [*tr.delta.x[tr.delta.x < t], t]
        I, J = partial_spectral_integral(tr, 3, 1.0, t)
        assert abs(complex(I, J) - split_quadrature(tr, 3.0 * math.pi, edges)) <= 1e-12


class TestPartialSpectralIntegral:
    def test_empty_interval(self):
        sc = shortcut(quintic(1.0), 1.0)
        assert partial_spectral_integral(sc, 2, 1.0, sc.t_start) == (0.0, 0.0)

    def test_full_interval_cancels_for_shortcut(self):
        sc = shortcut(quintic(1.0), 1.0)
        for n in (2, 4, 10):
            I, J = partial_spectral_integral(sc, n, 1.0, sc.t_end)
            assert abs(I) < 1e-10 and abs(J) < 1e-10

    def test_transient_is_nonzero_midway(self):
        sc = shortcut(quintic(1.0), 1.0)
        I, J = partial_spectral_integral(sc, 2, 1.0, 0.2)
        assert math.hypot(I, J) > 1e-3

    def test_rejects_time_outside_domain(self):
        sc = shortcut(quintic(1.0), 1.0)
        with pytest.raises(ValueError):
            partial_spectral_integral(sc, 2, 1.0, sc.t_end + 0.1)


def direct_mode_energy(cfg, bath, traj, k_index):
    """Mode contribution via the unseparated double-time kernel (oracle)."""
    K = cfg.n_modes
    w = mode_frequencies(K, cfg.L0)
    wp = -np.arange(1, K + 1) * math.pi / cfg.L0**2
    nb = occupations(bath.beta, w)
    g = coupling_matrix(K)
    dd = traj.ddelta
    wk, nk = w[k_index], nb[k_index]

    def kernel(t1, t2):
        out = (
            (wp[k_index] ** 2 * cfg.L0**2 / wk**2)
            * dd(t1)
            * dd(t2)
            * np.cos(2.0 * wk * (t1 - t2))
            * (2.0 * nk + 1.0)
        )
        for ji in range(K):
            if ji == k_index:
                continue
            wj, nj = w[ji], nb[ji]
            out += (
                dd(t1)
                * dd(t2)
                * (g[ji, k_index] ** 2 / (wj * wk))
                * (
                    (wk - wj) ** 2 * np.cos((wj + wk) * (t1 - t2)) * (nk + nj + 1.0)
                    + (wj + wk) ** 2 * np.cos((wj - wk) * (t1 - t2)) * (nj - nk)
                )
            )
        return out

    r = integrate_2d_oracle(kernel, traj.t_start, traj.t_end, 2.0 * w[-1], SPEC)
    return cfg.epsilon**2 * wk / 4.0 * r.value


class TestFrictionEnergy:
    def test_static_wall_gives_zero(self):
        flat = Trajectory(PPoly([[1.0]], [0.0, 1.0]), label="static")
        # static wall has zero net displacement; bypass the gate by a
        # one-displacement check on the amplitudes instead
        amp = spectral_amplitudes(flat, 2.0)
        assert amp.power == pytest.approx(0.0, abs=1e-28)

    def test_frozen_oracle_value(self):
        res = friction_energy(make_cfg(), ThermalBath(1.0), quintic(1.0))
        assert res.value == pytest.approx(X_QUINTIC_K8, rel=1e-10)

    def test_matches_2d_oracle_mode_by_mode(self):
        cfg = make_cfg(K=8)
        bath = ThermalBath(1.0)
        tr = quintic(1.0)
        res = friction_energy(cfg, bath, tr)
        for k_index in range(cfg.n_modes):
            direct = direct_mode_energy(cfg, bath, tr, k_index)
            fast = sum(res.per_mode[k_index][1:4])
            assert fast == pytest.approx(direct, rel=1e-6, abs=1e-18)

    def test_adiabatic_limit_is_small(self):
        cfg = make_cfg(K=8)
        bath = ThermalBath(1.0)
        fast = friction_energy(cfg, bath, quintic(1.0)).value
        slow = friction_energy(cfg, bath, quintic(100.0)).value
        assert slow < 1e-6 * fast

    def test_value_equals_per_mode_sum(self):
        res = friction_energy(make_cfg(K=24), ThermalBath(2.0), quintic(0.7))
        total = sum(d + c + s for _, d, c, s in res.per_mode)
        assert res.value == pytest.approx(total, rel=1e-12)

    def test_nonnegative_over_random_cases(self):
        rng = np.random.default_rng(2024)
        cfg = make_cfg(K=16)
        for _ in range(25):
            tau = float(np.exp(rng.uniform(np.log(0.1), np.log(30.0))))
            beta = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
            res = friction_energy(cfg, ThermalBath(beta), quintic(tau))
            assert res.value >= -10.0 * res.err

    def test_direction_independence(self):
        cfg = make_cfg(K=12)
        bath = ThermalBath(0.7)
        tr = quintic(1.3)
        fwd = friction_energy(cfg, bath, tr)
        bwd = friction_energy(cfg, bath, reverse(tr))
        assert abs(fwd.value - bwd.value) <= 1e-10 * fwd.value + 10.0 * (fwd.err + bwd.err)

    def test_scattering_term_nonnegative_as_summed(self):
        # antisymmetrised pair sum of the scattering channel
        cfg = make_cfg(K=20)
        bath = ThermalBath(1.0)
        table = spectral_table(quintic(1.0), cfg)
        K = cfg.n_modes
        w = mode_frequencies(K, cfg.L0)
        nb = occupations(bath.beta, w)
        g2 = coupling_matrix(K) ** 2
        A = table.power
        total = 0.0
        for k in range(K):
            for j in range(K):
                if j == k:
                    continue
                h = g2[j, k] * (w[j] + w[k]) ** 2 * A[abs(j - k)]
                total += (w[k] / 4.0) * h / (w[j] * w[k]) * (nb[j] - nb[k])
        assert total >= -1e-18

    def test_vacuum_limit_finite_and_attained(self):
        cfg = make_cfg(K=16)
        tr = quintic(1.0)
        table = spectral_table(tr, cfg)
        cold = friction_energy(cfg, ThermalBath(80.0), tr, table=table).value
        vac = friction_energy(cfg, ThermalBath(math.inf), tr, table=table).value
        assert math.isfinite(vac) and vac > 0.0
        assert abs(cold - vac) <= 1e-6 * vac

    def test_epsilon_deferred_scaling(self):
        tr = quintic(1.0)
        bath = ThermalBath(1.0)
        table = spectral_table(tr, make_cfg(K=8))
        a = friction_energy(make_cfg(K=8, eps=0.01), bath, tr, table=table)
        b = friction_energy(make_cfg(K=8, eps=0.02), bath, tr, table=table)
        assert a.value_per_eps2 == b.value_per_eps2
        assert b.value == pytest.approx(4.0 * a.value, rel=1e-14)

    def test_shortcut_friction_vanishes_at_order_eps2(self):
        L0 = 1.0
        cfg = CavityConfig(L0=L0, epsilon=0.01, n_modes=12)
        bath = ThermalBath(1.0)
        sc = shortcut(quintic(1.0), L0)
        plain = friction_energy(cfg, bath, quintic(1.0)).value
        cancelled = friction_energy(cfg, bath, sc).value
        assert abs(cancelled) < 1e-10 * plain

    def test_rejects_unnormalised_profile(self):
        half = Trajectory(PPoly(0.5 * quintic(1.0).delta.c, [0.0, 1.0]), label="half")
        with pytest.raises(ValueError):
            friction_energy(make_cfg(), ThermalBath(1.0), half)

    def test_tail_estimate_and_warning(self):
        cfg = CavityConfig(L0=math.pi, epsilon=0.01, n_modes=16, tail_tol=1e-12)
        with pytest.warns(UserWarning):
            res = friction_energy(cfg, ThermalBath(1.0), quintic(0.3))
        assert res.tail_warning
        assert math.isfinite(res.tail_estimate)
        # the tail really is small compared to the kept sum
        big = friction_energy(
            CavityConfig(L0=math.pi, epsilon=0.01, n_modes=48), ThermalBath(1.0),
            quintic(0.3),
        )
        omitted = abs(big.value - res.value)
        assert res.tail_estimate > 0.1 * omitted


class TestFrictionBound:
    def test_quintic_prefactor(self):
        # acceleration extrema of the quintic sit at s = (1 -+ 1/sqrt(3))/2
        # with values +-10/sqrt(3)/tau**2, so the squared swing is 400/(3 tau**4)
        for tau in (0.5, 1.0, 3.0):
            tr = quintic(tau)
            from casotto.friction import _acceleration_extrema

            d2_max, d2_min = _acceleration_extrema(tr)
            assert d2_max == pytest.approx(10.0 / math.sqrt(3.0) / tau**2, rel=1e-9)
            assert d2_min == pytest.approx(-10.0 / math.sqrt(3.0) / tau**2, rel=1e-9)
            assert (d2_max - d2_min) ** 2 == pytest.approx(400.0 / 3.0 / tau**4, rel=1e-8)

    @pytest.mark.filterwarnings("ignore::casotto.friction.TruncationWarning")
    @pytest.mark.parametrize("tau", [0.3, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("beta", [1.0, 5.0, math.inf])
    def test_bound_dominates(self, tau, beta):
        cfg = make_cfg(K=24)
        bath = ThermalBath(beta)
        tr = quintic(tau)
        res = friction_energy(cfg, bath, tr)
        assert res.bound is not None
        assert res.bound >= res.value

    def test_shortcut_bound_from_flat_acceleration_pieces(self):
        # the plateau between the two acceleration bumps has an identically
        # zero jerk; reference value of `friction --tau 1 --modes 32
        # --family shortcut` from an independent 10 000-point scan of the
        # acceleration refined by golden-section search
        cfg = CavityConfig(L0=math.pi, epsilon=0.01, n_modes=32)
        sc = shortcut(quintic(1.0), math.pi)
        bound = friction_bound(cfg, ThermalBath(1.0), sc)
        assert bound == pytest.approx(3.7240322085943306e-4, rel=1e-9)

    def test_vacuum_reduces_to_unit_occupation_factors(self):
        cfg = make_cfg(K=10)
        tr = quintic(1.0)
        vac = friction_bound(cfg, ThermalBath(math.inf), tr)
        # recompute with the occupation factors pinned to their vacuum values
        K = cfg.n_modes
        w = mode_frequencies(K, cfg.L0)
        wp = -np.arange(1, K + 1) * math.pi / cfg.L0**2
        g2 = coupling_matrix(K) ** 2
        diag = cfg.L0**2 * wp**2 / (16.0 * w**5)
        cross = 0.0
        for k in range(K):
            for j in range(K):
                if j == k:
                    continue
                cross += g2[j, k] / w[j] * (w[k] - w[j]) ** 2 / (w[k] + w[j]) ** 4
        manual = (400.0 / 3.0) * cfg.epsilon**2 * (np.sum(diag) + cross)
        assert vac == pytest.approx(manual, rel=1e-6)

    def test_rejects_linear_ramp_shape(self):
        ramp = Trajectory(PPoly([[1.0], [0.0]], [0.0, 1.0]), label="ramp")
        with pytest.raises(ValueError):
            friction_bound(make_cfg(), ThermalBath(1.0), ramp)

    def test_rejects_multi_bump_acceleration(self):
        # two back-to-back quintic half-ramps: four interior extrema
        half = 0.5 * quintic(0.5).delta.c[:, 0]
        second = half.copy()
        second[-1] += 0.5
        wavy = Trajectory(PPoly(np.stack([half, second], axis=1), [0.0, 0.5, 1.0]), label="wavy")
        with pytest.raises(ValueError):
            friction_bound(make_cfg(), ThermalBath(1.0), wavy)


def test_export_mode_table_roundtrip():
    res = friction_energy(make_cfg(K=6), ThermalBath(1.0), quintic(1.0))
    buf = io.StringIO()
    export_mode_table(res, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,diag_term,create_term,scatter_term,cumulative"
    assert len(lines) == 7
    last = lines[-1].split(",")
    assert float(last[-1]) == pytest.approx(res.value, rel=1e-12)
