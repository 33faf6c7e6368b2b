import dataclasses
import io
import math
import runpy
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import interpolate

from casotto import cli
from casotto import friction as friction_module
from casotto.friction import (
    FrictionResult,
    SpectralAmplitudes,
    TruncationWarning,
    _acceleration_variation,
    _bath_kernel,
    friction_bound,
    friction_energy,
    mode_breakdown,
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
from casotto.trajectory import PPoly, Trajectory, from_samples, quintic, reverse, shortcut

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
        assert amp.C[0] == pytest.approx(1.0, rel=1e-12)
        assert amp.S[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_frequency_shortcut(self):
        amp = spectral_amplitudes(shortcut(quintic(1.0), 1.0), 0.0)
        assert amp.C[0] == pytest.approx(1.0, rel=1e-9)
        assert abs(amp.S[0]) < 1e-12

    def test_shortcut_resonances_vanish(self):
        sc = shortcut(quintic(1.0), 1.0)
        for n in (2, 4, 10):
            amp = spectral_amplitudes(sc, n * math.pi)
            assert abs(amp.C[0]) < 1e-10 and abs(amp.S[0]) < 1e-10

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
        assert amp.power[0] == pytest.approx(two_d.value, rel=1e-9)

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError):
            spectral_amplitudes(quintic(1.0), -1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega", [math.nan, math.inf])
    def test_rejects_non_finite_frequency(self, omega):
        with pytest.raises(ValueError, match="finite"):
            spectral_amplitudes(quintic(1.0), omega)

    def test_scalar_gives_one_element_arrays_and_2d_is_refused(self):
        amp = spectral_amplitudes(quintic(1.0), 2.0)
        assert isinstance(amp, SpectralAmplitudes)
        for field in (amp.omegas, amp.C, amp.S, amp.err, amp.power, amp.power_err):
            assert isinstance(field, np.ndarray) and field.shape == (1,)
        assert amp.omegas[0] == 2.0
        with pytest.raises(ValueError, match="at most 1-D"):
            spectral_amplitudes(quintic(1.0), [[1.0, 2.0]])

    @pytest.mark.parametrize("make", [
        lambda: quintic(1.3),
        lambda: shortcut(quintic(1.0), 1.0),
        lambda: sampled_quintic(21),
    ], ids=["quintic", "shortcut", "sampled"])
    def test_on_the_grid_equals_the_table(self, make):
        tr = make()
        cfg = CavityConfig(L0=0.9, epsilon=0.01, n_modes=24)
        table = spectral_table(tr, cfg)
        amp = spectral_amplitudes(tr, np.arange(2 * cfg.n_modes + 1) * cfg.omega1)
        for name in ("omegas", "C", "S", "err"):
            assert np.array_equal(getattr(amp, name), getattr(table, name)), name


def mp_amplitude(traj, omega):
    """``C + iS`` of the velocity by mpmath.quad, piece by piece."""
    return complex(mp_fourier(traj.delta.derivative(), omega))


def mp_fourier(v, omega):
    """``integral v(t) exp(i w t) dt`` of a piecewise polynomial by
    mpmath.quad at 30 digits, piece by piece.

    Up to a few carrier periods per piece the real-axis integral is
    taken directly; beyond, the contour is moved into the upper half plane,
    where the carrier decays: integral_0^h p(u) exp(i w u) du =
    i integral_0^inf [p(i y) - exp(i w h) p(h + i y)] exp(-w y) dy.
    """
    total = mpmath.mpc(0)
    with mpmath.workdps(30):
        w = mpmath.mpf(omega)
        for i in range(len(v.x) - 1):
            coeffs = [mpmath.mpf(float(c)) for c in v.c[:, i]]
            x0 = mpmath.mpf(float(v.x[i]))
            h = mpmath.mpf(float(v.x[i + 1])) - x0

            def p(u):
                return mpmath.polyval(coeffs, u)

            if w * h < 20:
                nodes = mpmath.linspace(0, h, 2 + int(w * h))
                piece = mpmath.quad(lambda u: p(u) * mpmath.expj(w * u), nodes)
            else:
                carrier = mpmath.expj(w * h)
                piece = 1j * mpmath.quad(
                    lambda y: (p(1j * y) - carrier * p(h + 1j * y)) * mpmath.exp(-w * y),
                    [0, 1 / w, mpmath.inf],
                )
            total += mpmath.expj(w * x0) * piece
    return total


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
        assert abs(complex(amp.C[0], amp.S[0]) - ref) <= 1e-12 * abs(ref) + amp.err[0]

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
        assert abs(complex(amp.C[0], amp.S[0]) - ref) <= 1e-12

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
        w = fwd.omegas
        expected = -np.exp(1j * w * (tr.t_start + tr.t_end)) * (fwd.C - 1j * fwd.S)
        assert np.max(np.abs(rev.C + 1j * rev.S - expected)) <= 1e-14

    @pytest.mark.parametrize("t", [0.37, 2.0])
    def test_partial_integral_matches_split_quadrature(self, t):
        tr = shortcut(quintic(1.0), 1.0)
        edges = [*tr.delta.x[tr.delta.x < t], t]
        I, J = partial_spectral_integral(tr, 3, 1.0, t)
        assert abs(complex(I, J) - split_quadrature(tr, 3.0 * math.pi, edges)) <= 1e-12

    @pytest.mark.parametrize("tau", [0.1, 1.7, 9.0])
    @pytest.mark.parametrize("make", [
        quintic,
        lambda tau: shortcut(quintic(tau), math.pi),
    ], ids=["quintic", "shortcut"])
    def test_table_across_the_taylor_switch_matches_mpmath(self, make, tau):
        # omega_1 = 1, so tau * omega_1 = tau; one table holds (frequency,
        # piece) cells on both sides of the Taylor / integration-by-parts switch
        tr = make(tau)
        table = spectral_table(tr, CavityConfig(L0=math.pi, epsilon=0.01, n_modes=16))
        w = table.omegas
        taylor = np.outer(w, np.diff(tr.delta.x)) < friction_module._TAYLOR_BELOW
        assert taylor.any() and not taylor.all()
        # each piece's last Taylor and first integration-by-parts frequency,
        # and the ends of the grid
        first = np.argmin(taylor, axis=0)
        picked = {0, len(table.omegas) - 1, *first.tolist(), *(first - 1).tolist()}
        for n in sorted(k for k in picked if k >= 0):
            ref = mp_amplitude(tr, w[n])
            deviation = abs(complex(table.C[n], table.S[n]) - ref)
            # the reference itself is rounded to double on conversion
            assert deviation <= table.err[n] + friction_module._EPS * abs(ref)


class TestManyPieces:
    # a sampled profile of n samples has n - 1 pieces, and at L0 = pi every
    # (frequency, piece) cell of this table lies below the Taylor switch
    def test_sampled_table_is_the_sum_of_its_pieces_in_linear_memory(self):
        tr = sampled_quintic(401)
        tracemalloc.start()
        try:
            table = spectral_table(tr, make_cfg(K=16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a product over every piece's moment columns held about 126 MiB
        assert peak < 40 * 2**20
        v = tr.delta.derivative()
        w = table.omegas
        pieces = sum(
            friction_module._fourier(PPoly(v.c[:, i : i + 1], v.x[i : i + 2]), w)[0]
            for i in range(v.c.shape[1])
        )
        assert np.all(np.abs(table.C + 1j * table.S - pieces) <= table.err)


def random_ppoly(rng):
    """A piecewise polynomial of degree 0 to 6 with 1 to 4 pieces, each of a
    width between 1e-3 and 10 (log-uniform), starting anywhere in [-5, 5]."""
    degree, pieces = int(rng.integers(0, 7)), int(rng.integers(1, 5))
    widths = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), pieces))
    x = rng.uniform(-5.0, 5.0) + np.concatenate([[0.0], np.cumsum(widths)])
    return PPoly(rng.standard_normal((degree + 1, pieces)), x)


class TestRandomPiecewisePolynomials:
    # each seed: every piece just below and just above the Taylor /
    # integration-by-parts switch at w h = 3, and the zero frequency
    @pytest.mark.parametrize("seed", range(12))
    def test_fourier_matches_mpmath_within_its_bound(self, seed):
        v = random_ppoly(np.random.default_rng(seed))
        h = np.diff(v.x)
        switch = friction_module._TAYLOR_BELOW
        omegas = np.sort(np.concatenate([[0.0], 0.97 * switch / h, 1.03 * switch / h]))
        F, err = friction_module._fourier(v, omegas)
        with mpmath.workdps(30):
            for w, f, e in zip(omegas.tolist(), F.tolist(), err.tolist()):
                assert abs(mpmath.mpc(f) - mp_fourier(v, w)) <= e, (w, f, e)

    def test_both_branches_are_exercised(self):
        sides = set()
        for seed in range(12):
            v = random_ppoly(np.random.default_rng(seed))
            h = np.diff(v.x)
            for w in 0.97 * 3.0 / h:
                sides.add(tuple(sorted(set((w * h < friction_module._TAYLOR_BELOW).tolist()))))
        assert (False, True) in sides
        degrees = {random_ppoly(np.random.default_rng(s)).c.shape[0] - 1 for s in range(12)}
        assert len(degrees) >= 4


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
        with pytest.raises(ValueError, match="non-negative integer"):
            partial_spectral_integral(quintic(1.0), 1.5, 1.0, 0.5)

    @pytest.mark.parametrize("L0", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_length_that_is_not_positive_and_finite(self, L0):
        # as shortcut does; 0 divided by zero, -1 returned numbers and nan nans
        tr = quintic(1.0)
        with pytest.raises(ValueError, match="L0 must be positive and finite"):
            partial_spectral_integral(tr, 2, L0, 0.5)


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


def direct_mode_sums(cfg, bath, table):
    """Per-mode (diag, create, scatter, round-off bound) per unit eps**2 as
    the direct double sum over mode pairs of the module docstring's formula,
    with the general geometric factors (oracle for the per-table weights)."""
    K = cfg.n_modes
    w = mode_frequencies(K, cfg.L0)
    wprime = -np.arange(1, K + 1, dtype=float) * math.pi / cfg.L0**2
    nbar = occupations(bath.beta, w)
    A = table.power
    Aerr = 2.0 * (np.abs(table.C) + np.abs(table.S)) * table.err + 2.0 * table.err**2

    ks = np.arange(1, K + 1)
    diag_geom = (wprime * cfg.L0 / w) ** 2
    diag = (w / 4.0) * diag_geom * A[2 * ks] * (2.0 * nbar + 1.0)
    diag_err = (w / 4.0) * diag_geom * Aerr[2 * ks] * (2.0 * nbar + 1.0)

    g2 = coupling_matrix(K) ** 2
    wk, wj = w[:, None], w[None, :]
    nk, nj = nbar[:, None], nbar[None, :]
    sum_idx = ks[:, None] + ks[None, :]
    diff_idx = np.abs(ks[:, None] - ks[None, :])
    off = ~np.eye(K, dtype=bool)
    base = np.where(off, g2 / (wj * wk), 0.0)
    create = (w / 4.0) * (base * (wk - wj) ** 2 * A[sum_idx] * (nk + nj + 1.0)).sum(axis=1)
    scatter = (w / 4.0) * (base * (wj + wk) ** 2 * A[diff_idx] * (nj - nk)).sum(axis=1)
    create_err = (w / 4.0) * (base * (wk - wj) ** 2 * Aerr[sum_idx] * (nk + nj + 1.0)).sum(axis=1)
    scatter_err = (w / 4.0) * (base * (wj + wk) ** 2 * Aerr[diff_idx] * np.abs(nj - nk)).sum(axis=1)
    return diag, create, scatter, diag_err + create_err + scatter_err


def dense_kernels(K, beta, L0=math.pi):
    """``c_n`` and ``e_n`` as a bincount over the K x K mode pairs of the
    equidistant weights (oracle for the O(K) kernel build)."""
    w1 = math.pi / L0
    ks = np.arange(1, K + 1)
    N = occupations(beta, mode_frequencies(K, L0))
    k, j = ks[:, None], ks[None, :]
    off = k != j
    quarter_w = k * w1 / 4.0
    create = np.where(off, quarter_w * 4.0 * k * j / (k + j) ** 2 * (N[:, None] + N[None, :] + 1.0), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        geom = np.where(off, quarter_w * 4.0 * k * j / (k - j) ** 2, 0.0)
    dn = N[None, :] - N[:, None]
    index = np.concatenate([2 * ks, (k + j).ravel(), np.abs(k - j).ravel()])
    head = np.concatenate([ks * w1 / 4.0 * (2.0 * N + 1.0), create.ravel()])
    c = np.bincount(index, np.concatenate([head, (geom * dn).ravel()]), minlength=2 * K + 1)
    e = np.bincount(index, np.concatenate([head, (geom * np.abs(dn)).ravel()]), minlength=2 * K + 1)
    return c, e


PROFILES = {
    "quintic-0.1": lambda: quintic(0.1),
    "quintic-2": lambda: quintic(2.0),
    "quintic-30": lambda: quintic(30.0),
    "shortcut": lambda: shortcut(quintic(1.0), math.pi),
    "sampled": lambda: sampled_quintic(21),
}


class TestBathKernel:
    @pytest.mark.parametrize("K", [64, 256, 1024])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_matches_direct_double_sum(self, K, profile):
        # L0 = pi, so tau and beta are in units of 1/w1
        cfg = CavityConfig(L0=math.pi, epsilon=0.01, n_modes=K)
        tr = PROFILES[profile]()
        table = spectral_table(tr, cfg)
        eps2 = cfg.epsilon**2
        for beta in (0.02, 1.0, 10.0, math.inf):
            bath = ThermalBath(beta)
            res = friction_energy(cfg, bath, tr, table=table)
            diag, create, scatter, err = direct_mode_sums(cfg, bath, table)
            ref = float(np.sum(diag + create + scatter))
            assert res.value_per_eps2 == pytest.approx(ref, rel=1e-13, abs=0.0)
            assert res.err == pytest.approx(eps2 * float(np.sum(err)), rel=1e-12, abs=0.0)
            rows = np.array(mode_breakdown(cfg, bath, table))
            assert np.array_equal(rows[:, 0], np.arange(1, K + 1))
            for got, want in zip(rows[:, 1:].T, (diag, create, scatter)):
                miss = np.abs(got - eps2 * want)
                assert np.all((miss <= 1e-12 * np.abs(eps2 * want)) | (miss <= res.err))
            # the last modes' totals and round-off bounds, which the tail fit reads
            value_kernel, error_kernel = _bath_kernel(cfg.L0, K, beta)
            totals = value_kernel[1:] @ table.power[: 2 * K + 1]
            want = (diag + create + scatter)[-len(totals):]
            assert np.all(np.abs(totals - want) <= 1e-12 * np.abs(want) + err[-len(totals):])
            noise = error_kernel[1:] @ table.power_err[: 2 * K + 1]
            assert np.allclose(noise, err[-len(noise):], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("K", [8, 64, 256, 512])
    @pytest.mark.parametrize("beta", [0.02, 1.0, math.inf])
    def test_linear_build_matches_pair_bincount(self, K, beta):
        value, error = _bath_kernel(math.pi, K, beta)
        c, e = dense_kernels(K, beta)
        assert value[0, 0] == error[0, 0] == 0.0
        assert np.all(np.abs(value[0] - c) <= 1e-13 * np.abs(c))
        assert np.all(np.abs(error[0] - e) <= 1e-13 * np.abs(e))

    @pytest.mark.parametrize("K", [8, 64, 256, 512])
    @pytest.mark.parametrize("beta", [0.02, 1.0, math.inf])
    def test_kernel_is_nonnegative(self, K, beta):
        value, error = _bath_kernel(1.3, K, beta)
        assert np.all(value[0] >= 0.0)
        # absolute scattering pairs only add to the bound's kernel
        assert np.all(error[0] >= value[0])

    def test_one_kernel_per_bath_cutoff_and_cavity(self, monkeypatch):
        # the kernel build is friction_energy's only occupations call
        built = []
        original = friction_module.occupations

        def counting(beta, omegas):
            built.append((beta, len(omegas), float(omegas[0])))
            return original(beta, omegas)

        _bath_kernel.cache_clear()
        monkeypatch.setattr(friction_module, "occupations", counting)
        tr = quintic(1.0)
        table = spectral_table(tr, make_cfg(K=16))
        for beta in (0.5, 1.0, math.inf):
            for eps in (0.01, 0.02):
                friction_energy(make_cfg(K=16, eps=eps), ThermalBath(beta), tr,
                                table=table)
        assert built == [(beta, 16, 1.0) for beta in (0.5, 1.0, math.inf)]
        # another trajectory's table reuses the kernels
        friction_energy(make_cfg(K=16), ThermalBath(1.0), quintic(2.0))
        assert len(built) == 3
        friction_energy(make_cfg(K=8), ThermalBath(1.0), tr, table=table)
        other = CavityConfig(L0=1.0, epsilon=0.01, n_modes=16)
        friction_energy(other, ThermalBath(1.0), tr)
        assert built[3:] == [(1.0, 8, 1.0), (1.0, 16, math.pi)]

    def test_kernels_are_read_only(self):
        value, error = _bath_kernel(math.pi, 16, 1.0)
        with pytest.raises(ValueError):
            value[0, 1] = 0.0
        with pytest.raises(ValueError):
            error[0, 1] = 0.0

    # 1e-320: the occupations overflow; 1e-307: the kernel's k**3 N_k sums
    # at K = 4, while mode_breakdown's per-mode terms stay finite
    @pytest.mark.parametrize("call, beta", [
        ("friction_energy", 1e-320), ("friction_energy", 1e-307),
        ("friction_bound", 1e-320), ("friction_bound", 1e-307),
        ("mode_breakdown", 1e-320),
    ])
    def test_overflowing_bath_raises_naming_beta(self, call, beta):
        cfg, tr = make_cfg(K=4), quintic(1.0)
        args = (spectral_table(tr, cfg),) if call == "mode_breakdown" else (tr,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"beta = {beta!r} overflows"):
                getattr(friction_module, call)(cfg, ThermalBath(beta), *args)


def test_piece_too_wide_for_its_powers_raises():
    # a shortcut stroke at L0 = 1e300 spans pieces 1e300 wide, whose h**5
    # overflows: the running amplitudes read nan before
    tr = shortcut(quintic(1.0), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="wide overflows the amplitude table"):
            partial_spectral_integral(tr, 2, 1e300, 0.0)
        with pytest.raises(ValueError, match="wide overflows the amplitude table"):
            spectral_table(tr, CavityConfig(L0=1e300, epsilon=0.01, n_modes=2))


class TestFrictionEnergy:
    def test_static_wall_gives_zero(self):
        flat = Trajectory(PPoly([[1.0]], [0.0, 1.0]), label="static")
        # static wall has zero net displacement; bypass the gate by a
        # one-displacement check on the amplitudes instead
        amp = spectral_amplitudes(flat, 2.0)
        assert amp.power[0] == pytest.approx(0.0, abs=1e-28)

    def test_frozen_oracle_value(self):
        res = friction_energy(make_cfg(), ThermalBath(1.0), quintic(1.0))
        assert res.value == pytest.approx(X_QUINTIC_K8, rel=1e-10)

    def test_matches_2d_oracle_mode_by_mode(self):
        cfg = make_cfg(K=8)
        bath = ThermalBath(1.0)
        tr = quintic(1.0)
        rows = mode_breakdown(cfg, bath, spectral_table(tr, cfg))
        for k_index in range(cfg.n_modes):
            direct = direct_mode_energy(cfg, bath, tr, k_index)
            fast = sum(rows[k_index][1:4])
            assert fast == pytest.approx(direct, rel=1e-6, abs=1e-18)

    def test_adiabatic_limit_is_small(self):
        cfg = make_cfg(K=8)
        bath = ThermalBath(1.0)
        fast = friction_energy(cfg, bath, quintic(1.0)).value
        slow = friction_energy(cfg, bath, quintic(100.0)).value
        assert slow < 1e-6 * fast

    def test_value_equals_mode_breakdown_sum(self):
        cfg = make_cfg(K=24)
        table = spectral_table(quintic(0.7), cfg)
        res = friction_energy(cfg, ThermalBath(2.0), quintic(0.7), table=table)
        total = sum(d + c + s for _, d, c, s in mode_breakdown(cfg, ThermalBath(2.0), table))
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

    def test_rejects_table_of_unnormalised_profile(self):
        # the check reads the zero-frequency amplitude of the table passed in
        cfg = make_cfg()
        half = Trajectory(PPoly(0.5 * quintic(1.0).delta.c, [0.0, 1.0]), label="half")
        with pytest.raises(ValueError, match="unit displacement"):
            friction_energy(cfg, ThermalBath(1.0), half, table=spectral_table(half, cfg))

    def test_mode_breakdown_rejects_unnormalised_profile(self):
        # its rows sum to friction_energy's value, so it takes the same checks
        cfg = make_cfg()
        half = Trajectory(PPoly(0.5 * quintic(1.0).delta.c, [0.0, 1.0]), label="half")
        with pytest.raises(ValueError, match="unit displacement, got 0.5"):
            mode_breakdown(cfg, ThermalBath(1.0), spectral_table(half, cfg))

    def test_tail_estimate_and_warning(self):
        cfg = CavityConfig(L0=math.pi, epsilon=0.01, n_modes=16, tail_tol=1e-12)
        with pytest.warns(UserWarning) as caught:
            res = friction_energy(cfg, ThermalBath(1.0), quintic(0.3))
        assert all(w.filename == __file__ for w in caught)
        assert res.tail_warning
        assert math.isfinite(res.tail_estimate)
        # the tail really is small compared to the kept sum
        big = friction_energy(
            CavityConfig(L0=math.pi, epsilon=0.01, n_modes=48), ThermalBath(1.0),
            quintic(0.3),
        )
        omitted = abs(big.value - res.value)
        assert res.tail_estimate > 0.1 * omitted


    @pytest.mark.filterwarnings("error::casotto.friction.TruncationWarning")
    def test_round_off_tail_is_finite_and_silent(self):
        # a shortcut stroke's E_F is round-off: its last per-mode totals sit
        # inside their round-off bound and carry no decay to fit
        cfg = CavityConfig(L0=math.pi, epsilon=0.01, n_modes=32)
        res = friction_energy(cfg, ThermalBath(1.0), shortcut(quintic(1.0), math.pi))
        assert abs(res.value) <= res.err
        assert not res.tail_warning
        assert math.isfinite(res.tail_estimate)
        assert 0.0 <= res.tail_estimate <= res.err

    def test_shortcut_demo_echo_stroke_has_a_finite_silent_tail(self, monkeypatch):
        import casotto

        results = []
        original = casotto.friction_energy

        def recording(cfg, bath, traj, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = original(cfg, bath, traj, **kwargs)
            results.append((traj.label, res, [w.category for w in caught]))
            return res

        monkeypatch.setattr(casotto, "friction_energy", recording)
        demo = Path(__file__).resolve().parent.parent / "demos" / "06_shortcut.py"
        runpy.run_path(str(demo), run_name="__main__")
        echo = [(res, caught) for label, res, caught in results if label.startswith("shortcut")]
        assert len(echo) == 1
        res, caught = echo[0]
        assert TruncationWarning not in caught and not res.tail_warning
        assert 0.0 <= res.tail_estimate <= res.err


def _scalar_truncation_flag(tail, value_per_eps2, eps2, err, tail_tol):
    """The truncation rule as friction_energy stated it on floats."""
    return bool(
        math.isinf(tail)
        or (
            math.isfinite(tail)
            and tail > tail_tol * max(abs(value_per_eps2), 1e-300)
            and eps2 * tail > err
        )
    )


def test_truncation_flag_is_the_scalar_rule_on_floats_and_arrays():
    specials = [0.0, -0.0, 1e-310, 1e-12, 1.0, 1e300, math.inf, -math.inf, math.nan]
    cases = [
        (tail, value, eps2, err)
        for tail in specials
        for value in (0.0, 1e-310, 1e-7, 1.0, math.nan)
        for eps2 in (0.0, 1e-4)
        for err in (0.0, 1e-20, math.inf)
    ]
    expected = [_scalar_truncation_flag(*case, 1e-6) for case in cases]
    assert [bool(friction_module._truncation_flag(*case, 1e-6)) for case in cases] == expected
    with np.errstate(all="ignore"):
        flags = friction_module._truncation_flag(*np.array(cases).T, 1e-6)
    assert flags.tolist() == expected
    assert any(expected) and not all(expected)


def scalar_tail_estimate(k_used, tail, noise):
    """The tail fit of one product, as a loop over scalars (the reference
    for the batched fit)."""
    points = friction_module._TAIL_FIT_POINTS
    if k_used < points + 4:
        return math.nan
    tail = [abs(t) for t in tail]
    if all(t <= n for t, n in zip(tail, noise)):
        return math.fsum(noise)
    if any(t <= 0.0 for t in tail):
        return 0.0
    x = [math.log(k) for k in range(k_used - points + 1, k_used + 1)]
    y = [math.log(t) for t in tail]
    x_mean, y_mean = math.fsum(x) / points, math.fsum(y) / points
    slope = math.fsum((a - x_mean) * (b - y_mean) for a, b in zip(x, y)) / math.fsum(
        (a - x_mean) ** 2 for a in x
    )
    p = -slope
    if not p > 1.0:
        return math.inf
    c = math.exp(y_mean - slope * x_mean)
    k_next = k_used + 1
    return c * (k_next ** (1.0 - p) / (p - 1.0) + 0.5 * k_next**-p)


def mixed_tails(rng, k_used, rows):
    """Per-mode totals and round-off bounds of ``rows`` products: power-law
    decays of random order and sign, and, in turn, a row within its noise,
    a row holding a zero total and a row that grows."""
    k = np.arange(k_used - friction_module._TAIL_FIT_POINTS + 1, k_used + 1, dtype=float)
    p = rng.uniform(1.5, 6.0, (rows, 1))
    totals = rng.choice([-1.0, 1.0], (rows, 1)) * rng.uniform(0.1, 10.0, (rows, 1)) * k**-p
    totals *= 1.0 + 1e-3 * rng.standard_normal(totals.shape)
    noise = 1e-6 * np.abs(totals) * rng.uniform(0.5, 2.0, totals.shape)
    kind = np.arange(rows) % 5
    noise[kind == 1] = 2.0 * np.abs(totals[kind == 1])
    totals[kind == 2, int(rng.integers(0, len(k)))] = 0.0
    totals[kind == 3] = k * rng.uniform(0.1, 1.0)
    return totals, noise


class TestTailEstimates:
    """The batched tail fit, row by row against the scalar loop."""

    def test_special_cases_row_by_row(self):
        totals, noise = mixed_tails(np.random.default_rng(7), 64, 10)
        got = friction_module._tail_estimates(64, totals, noise)
        kind = np.arange(10) % 5
        assert np.all(np.isfinite(got[(kind == 0) | (kind == 4)]))
        assert np.all(got[(kind == 0) | (kind == 4)] > 0.0)
        assert got[kind == 1].tolist() == noise[kind == 1].sum(axis=1).tolist()
        assert got[kind == 2].tolist() == [0.0, 0.0]
        assert got[kind == 3].tolist() == [math.inf, math.inf]

    def test_too_few_modes_give_nan_on_every_row(self):
        k_used = friction_module._TAIL_FIT_POINTS + 3
        totals, noise = mixed_tails(np.random.default_rng(3), k_used, 5)
        assert np.isnan(friction_module._tail_estimates(k_used, totals, noise)).all()

    @pytest.mark.parametrize("k_used", [12, 64, 256, 4096])
    def test_matches_the_scalar_loop(self, k_used):
        totals, noise = mixed_tails(np.random.default_rng(k_used), k_used, 40)
        got = friction_module._tail_estimates(k_used, totals, noise)
        # sums in another order and logs that may differ by an ulp: an ulp of
        # |log total| <= 40, amplified by the slope's 1 / spread of log k
        # (about k / 5) and by log k in the estimate, is below 1e-9 at k = 4096
        for g, t, n in zip(got.tolist(), totals.tolist(), noise.tolist()):
            want = scalar_tail_estimate(k_used, t, n)
            assert g == pytest.approx(want, rel=1e-9) or (math.isnan(g) and math.isnan(want))

    def test_a_row_fits_alike_alone_and_in_any_batch(self):
        rng = np.random.default_rng(11)
        totals, noise = mixed_tails(rng, 256, 37)
        batch = friction_module._tail_estimates(256, totals, noise)
        alone = [friction_module._tail_estimates(256, totals[i:i + 1], noise[i:i + 1]).item()
                 for i in range(len(totals))]
        # repr tells every float apart
        assert repr(batch.tolist()) == repr(alone)
        order = rng.permutation(len(totals))
        shuffled = friction_module._tail_estimates(256, totals[order], noise[order])
        assert repr(shuffled.tolist()) == repr(batch[order].tolist())
        for size in (2, 3, 5, 8, 16):
            part = friction_module._tail_estimates(256, totals[:size], noise[:size])
            assert repr(part.tolist()) == repr(batch[:size].tolist())

    @pytest.mark.filterwarnings("error")
    def test_raises_no_floating_point_warning(self):
        totals, noise = mixed_tails(np.random.default_rng(5), 64, 10)
        totals[0, 3] = math.nan
        got = friction_module._tail_estimates(64, totals, noise)
        assert got[0] == math.inf


class TestPerBathMemo:
    """A reused table gives a fresh table's result: tables keep no per-bath state."""

    def test_one_fit_per_call_over_every_live_table_and_bath(self, monkeypatch):
        fits = []
        original = friction_module._tail_estimates

        def counting(k_used, totals, noise):
            fits.append((k_used, len(totals)))
            return original(k_used, totals, noise)

        monkeypatch.setattr(friction_module, "_tail_estimates", counting)
        cfg = make_cfg(K=16)
        tables = [spectral_table(quintic(1.0), cfg), None, spectral_table(quintic(2.0), cfg)]
        betas = [0.5, 1.0]
        terms = friction_module._per_bath(tables, cfg.L0, 16, betas)
        assert fits == [(16, 4)]
        nan = (math.nan,) * 3
        for beta, row in zip(betas, terms):
            assert repr(row[1]) == repr(nan)
            for table, got in zip(tables[::2], row[::2]):
                alone = friction_module._per_bath([table], cfg.L0, 16, [beta])[0][0]
                assert repr(got) == repr(alone)
        # a second call takes every product again and gives the same terms
        assert repr(friction_module._per_bath(tables, cfg.L0, 16, betas)) == repr(terms)
        assert fits == [(16, 4)] + [(16, 1)] * 4 + [(16, 4)]

    def test_replaced_table_starts_empty(self):
        tr, cfg, bath = quintic(1.0), make_cfg(K=16), ThermalBath(1.0)
        table = spectral_table(tr, cfg)
        first = friction_energy(cfg, bath, tr, table=table)
        C = table.C.copy()
        C[1:] *= 2.0  # keeps the unit displacement at n = 0
        changed = dataclasses.replace(table, C=C)
        res = friction_energy(cfg, bath, tr, table=changed)
        fresh = SpectralAmplitudes(table.omegas, C, table.S, table.err)
        assert repr(res) == repr(friction_energy(cfg, bath, tr, table=fresh))
        assert res.value != first.value

    @pytest.mark.parametrize("order", [(8, 16), (16, 8)])
    def test_one_table_serves_two_cutoffs(self, order):
        tr, bath, big = quintic(0.5), ThermalBath(1.0), make_cfg(K=16)
        table = spectral_table(tr, big)
        for K in order:
            res = friction_energy(make_cfg(K=K), bath, tr, table=table)
            fresh = friction_energy(make_cfg(K=K), bath, tr, table=spectral_table(tr, big))
            # repr tells every float apart, NaN equal to itself
            assert repr(res) == repr(fresh)
            assert res.k_used == K

    def test_each_tail_tol_flags_as_on_a_fresh_table(self):
        # the tail is 1.9e-3 of the value
        tr, bath = quintic(1.0), ThermalBath(1.0)
        strict, loose = (
            CavityConfig(L0=math.pi, epsilon=0.01, n_modes=16, tail_tol=tol)
            for tol in (1e-6, 1e-2)
        )
        table = spectral_table(tr, strict)
        for cfg, flagged in ((strict, True), (loose, False), (strict, True)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = friction_energy(cfg, bath, tr, table=table)
            assert res.tail_warning is flagged
            assert [w.category for w in caught] == [TruncationWarning] * flagged
            assert repr(res) == repr(friction_energy(cfg, bath, tr))


class TestFrictionBound:
    def test_quintic_prefactor(self):
        # acceleration extrema of the quintic sit at s = (1 -+ 1/sqrt(3))/2
        # with values +-10/sqrt(3)/tau**2, so the variation from rest to rest
        # is twice their swing, 40/(sqrt(3) tau**2)
        for tau in (0.5, 1.0, 3.0):
            V = _acceleration_variation(quintic(tau))
            assert V == pytest.approx(40.0 / math.sqrt(3.0) / tau**2, rel=1e-12)

    @pytest.mark.parametrize("family", ["quintic", "shortcut", "reversed-shortcut", "sampled", "random"])
    def test_variation_matches_scipy_turning_points(self, family):
        # reference: scipy's roots of the jerk, piece by piece, with each
        # breakpoint's jump; random pieces have degree up to 6, and flat
        # or low-degree jerks on some of them
        if family == "random":
            rng = np.random.default_rng(10)
            strokes = []
            for _ in range(40):
                k, n = int(rng.integers(0, 7)), int(rng.integers(1, 6))
                c = rng.normal(size=(k + 1, n))
                c[: int(rng.integers(0, k + 1)), int(rng.integers(0, n))] = 0.0
                x = np.cumsum(rng.uniform(0.1, 1.0, n + 1)) - 0.5
                strokes.append(Trajectory(PPoly(c, x)))
        else:
            strokes = [{
                "quintic": lambda: quintic(1.3),
                "shortcut": lambda: shortcut(quintic(1.0), math.pi),
                "reversed-shortcut": lambda: reverse(shortcut(quintic(0.7), 1.0)),
                "sampled": lambda: sampled_quintic(21),
            }[family]()]
        for tr in strokes:
            acceleration = interpolate.PPoly(tr.delta.c, tr.delta.x).derivative(2)
            roots = acceleration.derivative().roots(extrapolate=False)
            x, total, previous = acceleration.x, 0.0, None
            for i in range(len(x) - 1):
                inside = np.sort(roots[(roots > x[i]) & (roots < x[i + 1])])
                u = np.concatenate([[x[i]], inside, [x[i + 1]]]) - x[i]
                values = np.polyval(acceleration.c[:, i], u)
                total += np.abs(np.diff(values)).sum()
                if previous is not None:
                    total += abs(values[0] - previous)
                previous = values[-1]
            V = _acceleration_variation(tr)
            assert V == pytest.approx(total, rel=1e-12, abs=1e-12 * np.abs(acceleration.c).max())

    def test_variation_counts_an_acceleration_jump(self):
        # a quintic ramp on [0, 1] followed by a quartic on [1, 1.5] whose
        # acceleration -96 u**2 + 24 u + 3 starts at 3, where the ramp's is
        # 0; a dense scan of the right-continuous acceleration sees the jump
        c = np.zeros((6, 2))
        c[:, 0] = quintic(1.0).delta.c[:, 0]
        c[1:, 1] = [-8.0, 4.0, 1.5, 0.0, 1.0]
        tr = Trajectory(PPoly(c, [0.0, 1.0, 1.5]), label="jump")
        t = np.linspace(0.0, 1.5, 300_001)
        dense = float(np.abs(np.diff(tr.d2delta(t))).sum())
        V = _acceleration_variation(tr)
        assert V == pytest.approx(dense, rel=1e-9)
        # the quintic's 40/sqrt(3), the jump of 3, then up to 4.5 at
        # u = 1/8 and down to -9 at u = 1/2
        assert V == pytest.approx(40.0 / math.sqrt(3.0) + 3.0 + 1.5 + 13.5, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::casotto.friction.TruncationWarning")
    @pytest.mark.parametrize("beta", [1.0, 5.0, math.inf])
    def test_bound_dominates_with_an_acceleration_jump(self, beta):
        # velocity 12 t**2 up to t = 1/2 and 12 (1 - t)**2 after: at rest at
        # both ends with vanishing acceleration, which jumps from 12 to -12
        # at the breakpoint, so V = 48
        c = [[4.0, 4.0], [0.0, -6.0], [0.0, 3.0], [0.0, 0.5]]
        tr = Trajectory(PPoly(c, [0.0, 0.5, 1.0]), label="jump")
        assert _acceleration_variation(tr) == pytest.approx(48.0, rel=1e-14)
        cfg = CavityConfig(L0=1.0, epsilon=0.01, n_modes=24)
        bound = friction_bound(cfg, ThermalBath(beta), tr)
        assert math.isfinite(bound)
        assert bound >= friction_energy(cfg, ThermalBath(beta), tr).value

    @pytest.mark.filterwarnings("ignore::casotto.friction.TruncationWarning")
    @pytest.mark.parametrize("tau", [0.3, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("beta", [1.0, 5.0, math.inf])
    def test_bound_dominates(self, tau, beta):
        cfg = make_cfg(K=24)
        bath = ThermalBath(beta)
        tr = quintic(tau)
        res = friction_energy(cfg, bath, tr)
        assert friction_bound(cfg, bath, tr) >= res.value

    def test_shortcut_bound_from_flat_acceleration_pieces(self):
        # the plateau between the two acceleration bumps has an identically
        # zero jerk; reference value of `friction --tau 1 --modes 32
        # --family shortcut` from an independent 10 000-point scan of the
        # acceleration refined by golden-section search
        cfg = CavityConfig(L0=math.pi, epsilon=0.01, n_modes=32)
        sc = shortcut(quintic(1.0), math.pi)
        bound = friction_bound(cfg, ThermalBath(1.0), sc)
        assert bound == pytest.approx(3.7240322085943306e-4, rel=1e-9)

    @pytest.mark.parametrize("L0", [1.0, math.pi], ids=["L0=1", "L0=pi"])
    @pytest.mark.parametrize("beta", [1.0, math.inf], ids=["beta=1", "beta=inf"])
    def test_vacuum_reduces_to_unit_occupation_factors(self, beta, L0):
        # the module docstring's E_F double loop in its general geometry
        # (couplings g_jk, w_k', thermal N_k) over the bounding power
        # V**2 / W**4; in the vacuum the occupation
        # factors reduce to 1, 1 and 0
        cfg = CavityConfig(L0=L0, epsilon=0.01, n_modes=10)
        tr = quintic(1.0)
        bound = friction_bound(cfg, ThermalBath(beta), tr)
        V = _acceleration_variation(tr)
        K = cfg.n_modes
        w = mode_frequencies(K, L0)
        wp = -np.arange(1, K + 1) * math.pi / L0**2
        N = occupations(beta, w)
        g2 = coupling_matrix(K) ** 2

        def A(W):
            return V**2 / W**4

        total = 0.0
        for k in range(K):
            term = (wp[k] * L0 / w[k]) ** 2 * A(2.0 * w[k]) * (2.0 * N[k] + 1.0)
            for j in range(K):
                if j == k:
                    continue
                term += g2[j, k] / (w[j] * w[k]) * (
                    (w[k] - w[j]) ** 2 * A(w[j] + w[k]) * (N[k] + N[j] + 1.0)
                    + (w[j] + w[k]) ** 2 * A(abs(w[j] - w[k])) * (N[j] - N[k])
                )
            total += w[k] / 4.0 * term
        assert bound == pytest.approx(cfg.epsilon**2 * total, rel=1e-12)

    def test_rejects_moving_endpoint(self):
        # half a quintic plus half a linear ramp: unit displacement, one
        # acceleration maximum and minimum, vanishing endpoint acceleration,
        # but end velocity 0.5; its E_F grows with K, so no K-independent
        # bound exists
        c = 0.5 * quintic(1.0).delta.c
        c[-2, 0] += 0.5
        kicked = Trajectory(PPoly(c, [0.0, 1.0]), label="kicked")
        cfg = make_cfg(K=64)
        with pytest.raises(ValueError, match="velocity"):
            friction_bound(cfg, ThermalBath(1.0), kicked)
        assert friction_energy(cfg, ThermalBath(1.0), kicked).value > 0.0

    def test_rejects_linear_ramp_shape(self):
        ramp = Trajectory(PPoly([[1.0], [0.0]], [0.0, 1.0]), label="ramp")
        with pytest.raises(ValueError):
            friction_bound(make_cfg(), ThermalBath(1.0), ramp)

    @pytest.mark.filterwarnings("ignore::casotto.friction.TruncationWarning")
    @pytest.mark.parametrize("beta", [1.0, 5.0, math.inf])
    def test_multi_bump_acceleration_is_bounded(self, beta):
        # two back-to-back quintic half-ramps: four interior extrema
        half = 0.5 * quintic(0.5).delta.c[:, 0]
        second = half.copy()
        second[-1] += 0.5
        wavy = Trajectory(PPoly(np.stack([half, second], axis=1), [0.0, 0.5, 1.0]), label="wavy")
        # each half is half a quintic of tau 1/2: 80/sqrt(3) apiece
        assert _acceleration_variation(wavy) == pytest.approx(160.0 / math.sqrt(3.0), rel=1e-12)
        cfg = CavityConfig(L0=1.0, epsilon=0.01, n_modes=24)
        bound = friction_bound(cfg, ThermalBath(beta), wavy)
        assert math.isfinite(bound)
        assert bound >= friction_energy(cfg, ThermalBath(beta), wavy).value


def test_mode_table_roundtrip():
    cfg = make_cfg(K=6)
    res = friction_energy(cfg, ThermalBath(1.0), quintic(1.0))
    buf = io.StringIO()
    cli.run(cli.parse_config(["friction", "--tau", "1", "--beta", "1", "--modes", "6"]), stream=buf)
    lines = [ln for ln in buf.getvalue().strip().splitlines() if not ln.startswith("#")]
    assert lines[0] == "k,diag_term,create_term,scatter_term,cumulative"
    assert len(lines) == 7
    last = lines[-1].split(",")
    assert float(last[-1]) == pytest.approx(res.value, rel=1e-12)


def test_a_table_that_does_not_serve_the_cavity_is_rejected():
    traj, bath = quintic(1.0), ThermalBath(1.0)
    with pytest.raises(ValueError, match="covers n <= 8, need 16"):
        friction_energy(make_cfg(K=8), bath, traj, table=spectral_table(traj, make_cfg(K=4)))
    other = CavityConfig(L0=1.0, epsilon=0.01, n_modes=8)
    with pytest.raises(ValueError, match="different cavity"):
        friction_energy(make_cfg(K=8), bath, traj, table=spectral_table(traj, other))
