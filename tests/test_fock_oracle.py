import math
import tracemalloc
import warnings
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from casotto import fock_oracle, friction
from casotto.fock_oracle import (
    OracleRangeError,
    validate_friction,
    verify_trace_identities,
)
from casotto.fock_oracle import (
    _CF4_X1,
    _CF4_X2,
    _FALL2,
    _FALL3,
    _GAUSS_SHIFT,
    _N,
    _NP1,
    _NP1_SQ,
    _RISE2,
    _RISE2_NP2,
    _embedded_thermal_state,
    _energy,
    _expm,
    _forms,
    _geometric_expectation,
    _ladder_string,
    _propagator,
    _static_parts,
    _symplectic_form,
)
from casotto.friction import TruncationWarning, friction_energy
from casotto.spectrum import (
    CavityConfig,
    ThermalBath,
    mode_frequencies,
    occupations,
)
from casotto.trajectory import PPoly, Trajectory, quintic, shortcut


def cavity(eps=0.01, K=2):
    return CavityConfig(L0=math.pi, epsilon=eps, n_modes=K)


def static_profile(value: float, tau: float = 1.0) -> Trajectory:
    return Trajectory(PPoly([[value]], [0.0, tau]), label=f"static({value})")


# ---------------------------------------------------------------------------
# dense reference: H(t) on a truncated Fock space, one full expm per stage
# ---------------------------------------------------------------------------


class TruncationQualityError(RuntimeError):
    """The reference's occupation cutoff distorts the thermal state."""


@dataclass(frozen=True)
class FockSpace:
    """The dense reference's truncated Fock space: ``n_modes`` modes of
    ``n_max + 1`` levels each."""

    n_modes: int
    n_max: int

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) ** self.n_modes


def lowering_operator(mode: int, fock: FockSpace) -> np.ndarray:
    """Annihilation operator of one mode on the truncated product space."""
    if not 1 <= mode <= fock.n_modes:
        raise ValueError(f"mode {mode} outside 1..{fock.n_modes}")
    a = np.diag(np.sqrt(np.arange(1.0, fock.n_max + 1.0)), k=1)
    eye = np.eye(fock.n_max + 1)
    return reduce(np.kron, [a if m == mode else eye for m in range(1, fock.n_modes + 1)])


def static_parts(cfg: CavityConfig, fock: FockSpace):
    """(H0, M1, M2) with ``H(t) = H0 + dL(t) M1 + dLdot(t) M2``: sums of
    dense products of the embedded ladder operators, term by term as the
    module docstring writes ``H(t)``."""
    w = mode_frequencies(fock.n_modes, cfg.L0)
    a = [lowering_operator(k, fock) for k in range(1, fock.n_modes + 1)]
    H0 = sum(w[k] * a[k].T @ a[k] for k in range(fock.n_modes))
    M1 = sum(
        -(k + 1) * math.pi / cfg.L0**2  # d(omega_k)/dL
        * (a[k].T @ a[k] + 0.5 * (a[k] @ a[k] + a[k].T @ a[k].T))
        for k in range(fock.n_modes)
    )
    Y = np.zeros((fock.dimension,) * 2)
    for k in range(fock.n_modes):
        for j in range(fock.n_modes):
            if j != k:
                ak, aj, kk, jj = a[k], a[j], k + 1, j + 1
                g_kj = (-1.0) ** (jj + kk) * 2.0 * jj * kk / (jj * jj - kk * kk)
                Y += g_kj * math.sqrt(w[k] / w[j]) * (
                    ak @ aj - ak.T @ aj + ak @ aj.T - ak.T @ aj.T
                )
    return H0.astype(complex), M1.astype(complex), Y / (2j * cfg.L0)


def _dense_at(t: float, cfg: CavityConfig, traj: Trajectory, parts) -> np.ndarray:
    H0, M1, M2 = parts
    dl = -cfg.L0 * cfg.epsilon * float(traj.delta(t))
    dldot = -cfg.L0 * cfg.epsilon * float(traj.ddelta(t))
    return H0 + dl * M1 + dldot * M2


def build_hamiltonian(t: float, cfg: CavityConfig, traj: Trajectory, fock: FockSpace):
    """Dense ``H(t)`` on the truncated space, inside the stroke only."""
    if not (traj.t_start <= t <= traj.t_end):
        raise ValueError(f"t={t} outside trajectory domain")
    return _dense_at(t, cfg, traj, static_parts(cfg, fock))


def mode_occupations(rho: np.ndarray, fock: FockSpace) -> np.ndarray:
    ops = [lowering_operator(k, fock) for k in range(1, fock.n_modes + 1)]
    return np.array([np.real(np.trace(rho @ a.T @ a)) for a in ops])


def thermal_state(beta: float, fock: FockSpace, cfg: CavityConfig) -> np.ndarray:
    """The battery's truncated thermal state as a dense matrix; its
    per-mode occupations must match the untruncated ones to 1e-4."""
    w = mode_frequencies(fock.n_modes, cfg.L0)
    rho = np.diag(reduce(np.kron, _embedded_thermal_state(beta, w, fock.n_max, fock.n_max + 1)))
    rho = rho.astype(complex)
    exact = occupations(beta, w)
    worst = float(np.max(np.abs(mode_occupations(rho, fock) - exact)))
    if worst > 1e-4:
        raise TruncationQualityError(f"per-mode occupation off by {worst:.2e}")
    return rho


def evolve(rho0, cfg, traj, fock, dt):
    """The stroke's time-ordered product, one full-space expm per stage,
    with the propagator's step rule and nodes."""
    parts = static_parts(cfg, fock)
    n_steps = max(1, math.ceil(traj.duration / dt))
    h = traj.duration / n_steps
    rho = rho0.astype(complex)
    for t0 in traj.t_start + h * np.arange(n_steps):
        A1 = _dense_at(t0 + (0.5 - _GAUSS_SHIFT) * h, cfg, traj, parts)
        A2 = _dense_at(t0 + (0.5 + _GAUSS_SHIFT) * h, cfg, traj, parts)
        U = expm(-1j * h * (_CF4_X1 * A1 + _CF4_X2 * A2)) @ expm(
            -1j * h * (_CF4_X2 * A1 + _CF4_X1 * A2)
        )
        rho = U @ rho @ U.conj().T
    return 0.5 * (rho + rho.conj().T)


def energy_expectation(rho: np.ndarray, H: np.ndarray) -> float:
    """``Tr(rho H)`` with Hermiticity checks; the imaginary residue must vanish."""
    for name, A in (("rho", rho), ("H", H)):
        scale = max(1.0, float(np.max(np.abs(A))))
        if float(np.max(np.abs(A - A.conj().T))) > 1e-10 * scale:
            raise ValueError(f"{name} is not Hermitian")
    val = complex(np.einsum("ij,ji->", rho, H))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"energy expectation has imaginary residue {val.imag:.2e}")
    return val.real


def dense_excess(
    cfg: CavityConfig, beta: float, traj: Trajectory, fock: FockSpace, dt: float
) -> float:
    """``E_full - E_adiab`` of the reference: the final energy against the
    initial level weights on the sorted final levels."""
    rho0 = thermal_state(beta, fock, cfg)
    H_end = build_hamiltonian(traj.t_end, cfg, traj, fock)
    e_full = energy_expectation(evolve(rho0, cfg, traj, fock, dt), H_end)
    start = np.real(np.diag(build_hamiltonian(traj.t_start, cfg, traj, fock)))
    weights = np.real(np.diag(rho0))[np.argsort(start, kind="stable")]
    return e_full - float(weights @ np.sort(np.linalg.eigvalsh(H_end)))


def _quantised(form: np.ndarray, fock: FockSpace) -> np.ndarray:
    """``xi^T form xi / 2 - Tr(form) / 4`` as a dense operator on ``fock``.

    The quadratures act on ladders one rung longer and the products are cut
    back to ``n_max``, so every quadratic term is exact on the kept states.
    """
    n, rungs = fock.n_modes, fock.n_max + 2
    a = np.diag(np.sqrt(np.arange(1.0, rungs)), k=1)
    quad = [(a + a.T) / math.sqrt(2.0), (a - a.T) / (1j * math.sqrt(2.0))]  # x, p
    eye = np.eye(rungs)

    def lifted(factors: dict[int, np.ndarray]) -> np.ndarray:
        return reduce(np.kron, [factors.get(m, eye) for m in range(n)])

    op = -0.25 * np.trace(form) * lifted({})
    for i, j in zip(*np.nonzero(form)):
        (mi, qi), (mj, qj) = (i % n, i // n), (j % n, j // n)  # mode, x or p
        factors = {mi: quad[qi] @ quad[qj]} if mi == mj else {mi: quad[qi], mj: quad[qj]}
        op = op + 0.5 * form[i, j] * lifted(factors)
    occ = np.unravel_index(np.arange(rungs**n), (rungs,) * n)
    keep = np.all(np.array(occ) <= fock.n_max, axis=0)
    return op[np.ix_(keep, keep)]


def _second_moments(rho: np.ndarray, fock: FockSpace) -> np.ndarray:
    """``sigma_ab = <{xi_a, xi_b}>/2`` of a dense state (first moments
    included)."""
    dim = 2 * fock.n_modes
    sigma = np.empty((dim, dim))
    for a in range(dim):
        for b in range(dim):
            form = np.zeros((dim, dim))
            form[a, b] += 1.0
            form[b, a] += 1.0
            # _quantised subtracts Tr(form)/4, which is 1/2 on the diagonal
            sigma[a, b] = np.real(np.trace(rho @ _quantised(form, fock))) + 0.5 * (a == b)
    return sigma


def _parity(fock: FockSpace) -> np.ndarray:
    """Total photon number mod 2 of each basis state, mode 1 slowest."""
    occ = np.unravel_index(np.arange(fock.dimension), (fock.n_max + 1,) * fock.n_modes)
    return sum(occ) % 2


def _occupations_after(S: np.ndarray, sigma0: np.ndarray) -> np.ndarray:
    """Per-mode ``<N_k>`` of the covariance ``S sigma0 S^T``."""
    sigma = S @ sigma0 @ S.T
    n = len(sigma) // 2
    return 0.5 * (np.diag(sigma)[:n] + np.diag(sigma)[n:]) - 0.5


def _thermal_covariance(beta: float, cfg: CavityConfig) -> np.ndarray:
    n_bar = occupations(beta, mode_frequencies(cfg.n_modes, cfg.L0))
    return np.diag(np.tile(n_bar + 0.5, 2))


class TestBatteryRange:
    def test_dimension_cap(self):
        # the cap belongs to the identity battery, which builds the Fock
        # space; (n_max + 1)**n_modes: 46**3 = 97336 states fit, 47**3 = 103823
        # do not.  The friction check has no cutoff
        assert verify_trace_identities(5.0, cavity(K=3), 45).max_abs_deviation < 1e-12
        with pytest.raises(OracleRangeError, match="103823 exceeds cap") as caught:
            verify_trace_identities(5.0, cavity(K=3), 46)
        assert caught.value.names == ("n_max", "n_modes")
        with pytest.raises(OracleRangeError, match="exceeds cap"):
            verify_trace_identities(2.0, cavity(K=4), 30)

    def test_takes_the_modes_from_the_cavity(self):
        # one mode count per run: the battery's Fock space has cfg.n_modes modes
        for K in (3, 5):
            report = verify_trace_identities(3.0, cavity(K=K), 8)
            assert len(report.checks) == 30
        with pytest.raises(OracleRangeError, match="at least 3") as caught:
            verify_trace_identities(3.0, cavity(K=2), 8)
        assert caught.value.names == ("n_modes",)

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_needs_a_rung_above_the_vacuum(self, n_max):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            verify_trace_identities(20.0, cavity(K=3), n_max)


class TestBuildHamiltonian:
    """The dense reference's ``H(t)`` against hand-built operators."""

    def test_static_wall_is_free_hamiltonian(self):
        fock = FockSpace(n_modes=2, n_max=4)
        cfg = cavity()
        H = build_hamiltonian(0.0, cfg, quintic(1.0), fock)
        w1 = cfg.omega1
        n1 = lowering_operator(1, fock).conj().T @ lowering_operator(1, fock)
        n2 = lowering_operator(2, fock).conj().T @ lowering_operator(2, fock)
        expected = w1 * n1 + 2.0 * w1 * n2
        assert np.max(np.abs(H - expected)) < 1e-14

    def test_single_mode_squeezing_block(self):
        # frozen displaced wall: only the frequency shift and the a^2 + a^+2
        # block survive
        fock = FockSpace(n_modes=1, n_max=5)
        cfg = cavity()
        frozen = static_profile(1.0)
        H = build_hamiltonian(0.5, cfg, frozen, fock)
        a = lowering_operator(1, fock)
        n = a.conj().T @ a
        w1 = cfg.omega1
        wp = -math.pi / cfg.L0**2
        dl = -cfg.L0 * cfg.epsilon
        expected = (w1 + wp * dl) * n + 0.5 * wp * dl * (a @ a + a.conj().T @ a.conj().T)
        assert np.max(np.abs(H - expected)) < 1e-14

    def test_hermiticity_is_exact(self):
        fock = FockSpace(n_modes=3, n_max=3)
        tr = quintic(1.0)
        for t in (0.1, 0.37, 0.9):
            H = build_hamiltonian(t, cavity(K=3), tr, fock)
            assert np.max(np.abs(H - H.conj().T)) <= 1e-15

    def test_rejects_time_outside_domain(self):
        with pytest.raises(ValueError):
            build_hamiltonian(2.0, cavity(), quintic(1.0), FockSpace(n_modes=1, n_max=3))


class TestStaticParts:
    """The phase-space form ``h(t)`` against the dense reference."""

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_free_hamiltonian_is_exactly_diagonal(self, n_modes):
        h0, h1, h2 = _static_parts(cavity(K=n_modes))
        w = mode_frequencies(n_modes, math.pi)
        assert np.array_equal(h0, np.diag(np.concatenate([w, w])))
        # the squeeze term moves x only; the coupling pairs p_k with x_j
        assert np.array_equal(h1, np.diag(np.diag(h1))) and not np.any(np.diag(h1)[n_modes:])
        assert not np.any(h2[:n_modes, :n_modes]) and not np.any(h2[n_modes:, n_modes:])
        assert np.array_equal(h2, h2.T)

    def test_squeeze_term_is_twice_the_frequency_derivative(self):
        # d(omega_k)/dL = -k pi/L0**2, associated as (-k pi)/L0**2 bit for
        # bit: -omega_k/L0 differs in the last bit on about 12 % of the modes
        cfg = cavity(K=40)
        w_prime = np.diag(_static_parts(cfg)[1])[:40] / 2.0
        assert w_prime[2] == pytest.approx(-3.0 / math.pi, rel=1e-15)
        assert np.array_equal(w_prime, [-k * math.pi / cfg.L0**2 for k in range(1, 41)])

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("n_max", [1, 4, 6])
    def test_matches_dense_ladder_products(self, n_modes, n_max):
        fock = FockSpace(n_modes=n_modes, n_max=n_max)
        cfg = cavity(K=n_modes)
        for form, ref in zip(_static_parts(cfg), static_parts(cfg, fock)):
            scale = max(1.0, float(np.max(np.abs(ref))))  # up to 36 at n_max = 6
            assert np.max(np.abs(_quantised(form, fock) - ref)) <= 1e-15 * scale


class TestThermalState:
    """The battery's truncated thermal state, as the dense reference uses it."""

    def test_vacuum_projector(self):
        fock = FockSpace(n_modes=2, n_max=3)
        rho = thermal_state(math.inf, fock, cavity())
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) == 0.0

    def test_half_filling_occupation(self):
        # beta * w_1 = ln 2 puts one quantum in the soft mode; a 30-rung
        # cutoff keeps all but 2^-31 of the weight
        fock = FockSpace(n_modes=1, n_max=30)
        cfg = cavity(K=1)
        beta = math.log(2.0)
        rho = thermal_state(beta, fock, cfg)
        occ = mode_occupations(rho, fock)
        assert occ[0] == pytest.approx(1.0, abs=1e-4)

    def test_weight_capture_guard(self):
        # beta * w_1 = 1 with a short ladder keeps too little weight
        with pytest.raises(ValueError):
            thermal_state(1.0, FockSpace(n_modes=1, n_max=8), cavity(K=1))
        with pytest.raises(OracleRangeError, match="thermal weight"):
            verify_trace_identities(1.0, cavity(K=3), 8)

    def test_unit_trace(self):
        fock = FockSpace(n_modes=2, n_max=8)
        rho = thermal_state(2.0, fock, cavity())
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)

    def test_truncation_quality_error(self):
        # soft enough that the kept weight passes the gate but the realised
        # occupation still misses the untruncated value by more than 1e-4
        fock = FockSpace(n_modes=1, n_max=280)
        with pytest.raises(TruncationQualityError):
            thermal_state(0.05, fock, cavity(K=1))


class TestEvolve:
    """The phase-space propagator."""

    def test_free_evolution_preserves_occupations(self):
        cfg = cavity()
        sigma0 = _thermal_covariance(2.0, cfg)
        S = _propagator(cfg, static_profile(0.0), 0.02, _static_parts(cfg))
        occ0 = occupations(2.0, mode_frequencies(2, cfg.L0))
        assert np.max(np.abs(_occupations_after(S, sigma0) - occ0)) < 1e-12

    def test_free_evolution_energy_conservation(self):
        cfg = cavity()
        frozen = static_profile(0.0)
        parts = _static_parts(cfg)
        sigma0 = _thermal_covariance(2.0, cfg)
        S = _propagator(cfg, frozen, 0.02, parts)
        assert abs(_energy(parts[0], S @ sigma0 @ S.T) - _energy(parts[0], sigma0)) < 1e-12
        # a static wall conserves the energy of every state: S^T h S = h
        assert_conserves_static_wall_energy(S, _forms(np.array(0.0), cfg, frozen, parts))

    def test_motion_between_evenly_spaced_samples_is_not_a_static_wall(self):
        # at rest on [0, 100] except a quintic ramp over [50.05, 50.35], which
        # lies between two of 257 evenly spaced velocity samples; the stroke
        # moves, and the propagation resolves it
        lo, hi = 50.05, 50.35
        c = np.zeros((6, 3))
        c[:, 1] = quintic(hi - lo).delta.c[:, 0]
        c[-1, 2] = 1.0
        ramp = Trajectory(PPoly(c, [0.0, lo, hi, 100.0]), label="late ramp")
        assert not np.any(ramp.ddelta(np.linspace(0.0, 100.0, 257)))
        cfg = cavity(K=2)
        S = _propagator(cfg, ramp, 0.01, _static_parts(cfg))
        # symplectic to the propagation's round-off, n_steps * eps_machine
        # (measured 1.5e-12 over the 10^4 steps)
        J = _symplectic_form(2)
        assert np.max(np.abs(S @ J @ S.T - J)) < 1e4 * np.finfo(float).eps
        report = validate_friction(cfg, ThermalBath(2.0), ramp, 0.01)
        assert all(math.isfinite(row.E_full) for row in report.rows)

    def test_trace_preservation(self):
        # the whole stroke is symplectic: S J S^T = J
        for n_modes in (2, 16):
            cfg = cavity(K=n_modes)
            S = _propagator(cfg, quintic(1.0), 0.1 / n_modes, _static_parts(cfg))
            J = _symplectic_form(n_modes)
            assert np.max(np.abs(S @ J @ S.T - J)) < 1e-12

    def test_compression_grows_occupation_at_second_order(self):
        gains = []
        for eps in (0.01, 0.02):
            cfg = cavity(eps=eps, K=1)
            S = _propagator(cfg, quintic(1.0), 0.01, _static_parts(cfg))
            gains.append(_occupations_after(S, _thermal_covariance(2.0, cfg))[0]
                         - occupations(2.0, [cfg.omega1])[0])
        assert gains[0] > 0
        assert gains[1] / gains[0] == pytest.approx(4.0, rel=0.05)

    def test_unitarity_of_single_step(self):
        # one step's exponential is symplectic to round-off
        cfg = cavity(eps=0.2, K=3)
        J = _symplectic_form(3)
        form = _forms(np.array(0.3), cfg, quintic(1.0), _static_parts(cfg))
        E = _expm(0.1 / 3 * J @ form)
        assert np.max(np.abs(E @ J @ E.T - J)) < 1e-15

    def test_integrator_convergence_order(self):
        # error against a fine reference shrinks by ~2^4 per halving
        cfg = cavity(eps=0.2, K=2)
        tr = quintic(1.0)
        parts = _static_parts(cfg)
        ref = _propagator(cfg, tr, 0.003125, parts)
        errs = []
        for dt in (0.05, 0.025):
            errs.append(np.max(np.abs(_propagator(cfg, tr, dt, parts) - ref)))
        assert abs(math.log2(errs[0] / errs[1]) - 4.0) <= 0.3

    def test_step_size_cap(self):
        cfg = cavity()
        with pytest.raises(OracleRangeError, match="dt") as caught:
            _propagator(cfg, quintic(1.0), 0.2, _static_parts(cfg))
        assert caught.value.names == ("dt",)

    def test_step_count_cap_names_tau_and_dt(self, monkeypatch):
        # 1e62 steps of the default dt: refused before the first step
        # exponential is taken, not after hours of them
        def no_steps(A):
            raise AssertionError("the stroke was stepped")

        monkeypatch.setattr(fock_oracle, "_expm", no_steps)
        with pytest.raises(OracleRangeError, match="more than the cap") as caught:
            validate_friction(cavity(), ThermalBath(2.0), quintic(1e60))
        assert caught.value.names == ("tau", "dt")

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
    def test_step_must_be_positive(self, dt):
        cfg = cavity()
        with pytest.raises(ValueError, match="dt must be positive"):
            _propagator(cfg, quintic(1.0), dt, _static_parts(cfg))


def assert_conserves_static_wall_energy(S, h):
    """``S^T h S = h`` to 1e-10 of ``h``'s largest entry (or of 1), for one
    stroke or a stack of them on the leading axis."""
    drift = np.max(np.abs(np.swapaxes(S, -1, -2) @ h @ S - h))
    assert drift <= 1e-10 * max(1.0, float(np.max(np.abs(h))))


def ordered_loop_propagator(cfg, traj, dt, parts):
    """The stroke's ``S`` with the propagator's step exponentials, multiplied
    one factor at a time in time order."""
    n_steps = max(1, math.ceil(traj.duration / dt))
    dt = traj.duration / n_steps
    dtJ = dt * _symplectic_form(cfg.n_modes)
    S = np.eye(2 * cfg.n_modes)
    for t0 in traj.t_start + dt * np.arange(n_steps):
        early, late = _forms(t0 + np.array([0.5 - _GAUSS_SHIFT, 0.5 + _GAUSS_SHIFT]) * dt,
                             cfg, traj, parts)
        for form in (_CF4_X2 * early + _CF4_X1 * late, _CF4_X1 * early + _CF4_X2 * late):
            # the early-leaning factor acts first
            S = _expm(dtJ @ form) @ S
    return S


class TestTreeProduct:
    """The pairwise tree product against the plain ordered loop."""

    @pytest.mark.parametrize("n_modes", [2, 8])
    @pytest.mark.parametrize("steps_per_block", [None, 7])
    def test_matches_ordered_loop(self, monkeypatch, n_modes, steps_per_block):
        cfg, dt = cavity(eps=0.02, K=n_modes), 0.1 / n_modes
        parts = _static_parts(cfg)
        if steps_per_block is not None:
            # 7 steps a block: 14 factors, an odd count one level up, and a
            # short last block
            dim = 2 * n_modes
            monkeypatch.setattr(fock_oracle, "_BLOCK_ENTRIES", steps_per_block * 2 * dim * dim)
        S = _propagator(cfg, quintic(1.0), dt, parts)
        ref = ordered_loop_propagator(cfg, quintic(1.0), dt, parts)
        assert np.max(np.abs(S - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestStackedPropagation:
    """The friction check's compression ratios, and a third, in one pass."""

    @pytest.mark.parametrize("epsilons", [(0.02, 0.01), (0.02, 0.01, 0.005)],
                             ids=["two", "three"])
    @pytest.mark.parametrize("steps_per_block", [None, 7])
    def test_each_slice_equals_its_stroke_alone(self, monkeypatch, steps_per_block, epsilons):
        n_modes = 4
        cfg, dt = cavity(eps=epsilons[0], K=n_modes), 0.1 / n_modes
        parts = _static_parts(cfg)
        if steps_per_block is not None:
            # 40 steps in blocks of 7: several blocks, the last one short
            dim = 2 * n_modes
            monkeypatch.setattr(fock_oracle, "_BLOCK_ENTRIES", steps_per_block * 2 * dim * dim)
        stacked = _propagator(cfg, quintic(1.0), dt, parts, np.array(epsilons))
        assert stacked.shape == (len(epsilons), 2 * n_modes, 2 * n_modes)
        for S, eps in zip(stacked, epsilons):
            alone = _propagator(replace(cfg, epsilon=eps), quintic(1.0), dt, parts)
            assert np.array_equal(S, alone)

    def test_forms_stack_epsilon_first(self):
        cfg, ts = cavity(eps=0.01, K=2), np.array([[0.2, 0.3, 0.4], [0.5, 0.6, 0.7]])
        parts = _static_parts(cfg)
        stacked = _forms(ts, cfg, quintic(1.0), parts, np.array([0.01, 0.004]))
        assert stacked.shape == (2, 2, 3, 4, 4)
        assert np.array_equal(stacked[0], _forms(ts, cfg, quintic(1.0), parts))
        assert np.array_equal(stacked[1], _forms(ts, cavity(eps=0.004, K=2), quintic(1.0), parts))

    def test_static_wall_check_covers_every_epsilon(self):
        cfg, frozen, eps = cavity(K=2), static_profile(0.0), np.array([0.01, 0.005])
        parts = _static_parts(cfg)
        S = _propagator(cfg, frozen, 0.02, parts, eps)
        assert np.array_equal(S[0], S[1])
        assert_conserves_static_wall_energy(S, _forms(np.array(0.0), cfg, frozen, parts, eps))


class TestParitySectors:
    """Every term of ``H(t)`` is quadratic in the ladder operators: it
    conserves photon-number parity and acts linearly on the quadratures,
    which is what the phase-space propagator rests on."""

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("n_max", [1, 4, 8])
    def test_static_parts_conserve_parity(self, n_modes, n_max):
        fock = FockSpace(n_modes=n_modes, n_max=n_max)
        odd = _parity(fock).astype(bool)
        for X in static_parts(cavity(K=n_modes), fock):
            assert not np.any(X[np.ix_(odd, ~odd)])
            assert not np.any(X[np.ix_(~odd, odd)])

    def test_blockwise_exponential_matches_full_eigh(self):
        # the stacked Taylor exponential against scipy's, one matrix at a time
        cfg = cavity(eps=0.2)
        J = _symplectic_form(2)
        forms = _forms(np.array([0.1, 0.3, 0.77]), cfg, quintic(1.0), _static_parts(cfg))
        stacked = _expm(0.05 * J @ forms)
        for E, form in zip(stacked, forms):
            assert np.max(np.abs(E - expm(0.05 * J @ form))) < 1e-15

    @pytest.mark.parametrize("tau", [1.0, 0.5])
    def test_evolve_matches_dense_propagator_with_coherences(self, tau):
        # quadratures evolve linearly whatever the state, so S carries the
        # second moments of a state with coherences and first moments too;
        # the state sits on the lowest rungs, far below the cutoff
        fock, dt = FockSpace(n_modes=2, n_max=10), 0.02
        cfg = cavity(eps=0.05)
        rng = np.random.default_rng(3)
        low = np.all(np.array(np.unravel_index(np.arange(121), (11, 11))) <= 1, axis=0)
        G = np.zeros((121, 121), dtype=complex)
        G[np.ix_(low, low)] = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0 = G @ G.conj().T
        rho0 /= np.trace(rho0).real
        odd = _parity(fock).astype(bool)
        assert np.max(np.abs(rho0[np.ix_(odd, ~odd)])) > 1e-2
        moments = _second_moments(rho0, fock)
        tr = quintic(tau)
        S = _propagator(cfg, tr, dt, _static_parts(cfg))
        h_end = _forms(np.array(tr.t_end), cfg, tr, _static_parts(cfg))
        dense = energy_expectation(evolve(rho0, cfg, tr, fock, dt), build_hamiltonian(tr.t_end, cfg, tr, fock))
        # measured 1.4e-15 (tau = 1) and 2e-16 (tau = 0.5) at eps = 0.05;
        # 2.9e-9 at eps = 0.2, where the state reaches the cutoff
        assert _energy(h_end, S @ moments @ S.T) == pytest.approx(dense, rel=1e-12)


class TestEnergyExpectation:
    """The dense reference's energy."""

    def test_vacuum_free_energy_is_zero(self):
        fock = FockSpace(n_modes=2, n_max=4)
        cfg = cavity()
        rho = thermal_state(math.inf, fock, cfg)
        H = build_hamiltonian(0.0, cfg, quintic(1.0), fock)
        assert energy_expectation(rho, H) == pytest.approx(0.0, abs=1e-14)

    def test_thermal_single_mode(self):
        # beta * w = ln 2 gives exactly one quantum on average, so <H> = w
        fock = FockSpace(n_modes=1, n_max=40)
        cfg = cavity(K=1)  # w_1 = 1
        beta = math.log(2.0)
        rho = thermal_state(beta, fock, cfg)
        a = lowering_operator(1, fock)
        H = (a.conj().T @ a).astype(complex)
        assert energy_expectation(rho, H) == pytest.approx(1.0, abs=1e-4)

    def test_linearity(self):
        fock = FockSpace(n_modes=1, n_max=6)
        rng = np.random.default_rng(9)
        d = fock.dimension
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        A = 0.5 * (A + A.conj().T)
        B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        B = 0.5 * (B + B.conj().T)
        rho = thermal_state(2.0, fock, cavity(K=1))
        lhs = energy_expectation(rho, A + B)
        assert lhs == pytest.approx(
            energy_expectation(rho, A) + energy_expectation(rho, B), rel=1e-12, abs=1e-12
        )

    def test_rejects_non_hermitian(self):
        fock = FockSpace(n_modes=1, n_max=8)
        rho = thermal_state(2.0, fock, cavity(K=1))
        bad = np.triu(np.ones((9, 9), dtype=complex))
        with pytest.raises(ValueError):
            energy_expectation(rho, bad)


class TestDenseReference:
    """``E_full - E_adiab`` of the propagator against the dense reference of
    the same model; the difference is the reference's Fock cutoff."""

    def test_two_modes(self):
        cfg = cavity(eps=0.01, K=2)
        row = validate_friction(cfg, ThermalBath(2.0), quintic(1.0), 0.01).rows[0]
        dense = dense_excess(cfg, 2.0, quintic(1.0), FockSpace(n_modes=2, n_max=12), 0.01)
        # measured 3.6e-9
        assert row.E_full - row.E_adiab == pytest.approx(dense, rel=1e-8)

    def test_three_modes(self):
        cfg = cavity(eps=0.01, K=3)
        row = validate_friction(cfg, ThermalBath(5.0), quintic(1.0), 0.01).rows[0]
        dense = dense_excess(cfg, 5.0, quintic(1.0), FockSpace(n_modes=3, n_max=4), 0.01)
        # measured 4.6e-7 at this cutoff (6.7e-9 at n_max = 5)
        assert row.E_full - row.E_adiab == pytest.approx(dense, rel=1e-6)


class TestTraceIdentities:
    def test_vacuum_values(self):
        report = verify_trace_identities(math.inf, cavity(K=3), 4)
        # annihilators on the right kill the vacuum; only the fully
        # creation-first strings survive
        values = {c.label: c for c in report.checks}
        assert values["a1^2 ad1^2 N2"].closed_form == 0.0
        assert values["a1^2 ad1^2 N2"].numeric == pytest.approx(0.0, abs=1e-14)
        assert values["a1 a2 N3 ad1 ad2"].closed_form == 0.0
        assert report.max_abs_deviation < 1e-12

    def test_thermal_battery_is_truncation_limited(self):
        report = verify_trace_identities(2.0, cavity(K=3), 8)
        assert report.max_abs_deviation < 1e-4

    def test_deviation_shrinks_with_cutoff(self):
        cfg = cavity(K=3)
        worsts = []
        for n_max in (6, 8, 10):
            worsts.append(verify_trace_identities(2.0, cfg, n_max).max_abs_deviation)
        assert worsts[0] > worsts[1] > worsts[2]

    def test_cap_applies_to_the_state_not_the_headroom(self):
        # 45**3 = 91125 states fit the cap; the operators' two extra rungs
        # (47**3 = 103823) are the battery's own business
        report = verify_trace_identities(5.0, cavity(K=3), 44)
        assert report.max_abs_deviation < 1e-12

    def test_sloppy_mean_field_forms_fail(self):
        # substituting <f(N)> -> f(<N>) is wrong on a thermal state: the
        # correct second factorial moment is 2 Nbar^2, not Nbar (Nbar - 1)
        cfg = cavity(K=3)
        beta = 2.0
        report = verify_trace_identities(beta, cfg, 8)
        values = {c.label: c for c in report.checks}
        n1, n2 = occupations(beta, mode_frequencies(2, cfg.L0))
        naive = n1 * (n1 - 1.0) * n2
        correct = 2.0 * n1**2 * n2
        check = values["ad1^2 a1^2 N2"]
        assert check.closed_form == pytest.approx(correct, rel=1e-10)
        assert abs(check.numeric - naive) > 1e-3
        assert abs(check.numeric - correct) < 1e-6


def series_expectation(beta: float, omega: float, f) -> float:
    """``E[f(N)]`` over the geometric distribution, summed term by term.

    The summation the closed form replaced, with its stop made relative: it
    stopped once a term fell below 1e-18 absolute, which leaves 2e-8 of the
    5.6e-13 moment ``E[N^(3)]`` out at ``beta * omega = 10``.
    """
    if math.isinf(beta):
        return float(f(0))
    q = math.exp(-beta * omega)
    acc, weight, n = 0.0, 1.0 - q, 0
    while True:
        acc += weight * f(n)
        weight *= q
        n += 1
        if acc > 0 and weight * abs(f(n)) < 1e-18 * acc or n > 100_000:
            return acc


def falling_factorial_value(coeffs, n: int) -> int:
    return sum(c * math.perm(n, r) for r, c in enumerate(coeffs))


# each per-mode coefficient tuple and the polynomial its comment names
POLYNOMIALS = {
    "_N": (_N, lambda n: n),
    "_NP1": (_NP1, lambda n: n + 1),
    "_NP1_SQ": (_NP1_SQ, lambda n: (n + 1) ** 2),
    "_FALL2": (_FALL2, lambda n: n * (n - 1)),
    "_FALL3": (_FALL3, lambda n: n * (n - 1) * (n - 2)),
    "_RISE2": (_RISE2, lambda n: (n + 1) * (n + 2)),
    "_RISE2_NP2": (_RISE2_NP2, lambda n: (n + 1) * (n + 2) ** 2),
}


class TestClosedFormMoments:
    @pytest.mark.parametrize("name", POLYNOMIALS)
    def test_coefficients_reproduce_the_polynomial(self, name):
        coeffs, poly = POLYNOMIALS[name]
        assert [falling_factorial_value(coeffs, n) for n in range(21)] == [
            poly(n) for n in range(21)]

    @pytest.mark.parametrize("name", POLYNOMIALS)
    @pytest.mark.parametrize("beta_omega", [0.3, 1.0, 2.0, 10.0, math.inf])
    def test_matches_the_series(self, name, beta_omega):
        coeffs, poly = POLYNOMIALS[name]
        omega = 1.5
        beta = beta_omega / omega
        closed = _geometric_expectation(float(occupations(beta, [omega])[0]), coeffs)
        series = series_expectation(beta, omega, poly)
        assert abs(closed - series) <= 1e-14 * abs(series)


def _dense_identity_values(beta: float, fock: FockSpace, cfg: CavityConfig) -> dict:
    """Each battery string as a dense ``einsum`` trace against the dense state."""
    dim = fock.n_max + 3  # the battery's two rungs of operator headroom
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    small = {"a": a, "ad": a.T, "N": a.T @ a}
    weights = []
    for k in range(1, fock.n_modes + 1):
        p = np.zeros(dim)
        if math.isinf(beta):
            p[0] = 1.0
        else:
            p[: fock.n_max + 1] = np.exp(-beta * k * cfg.omega1 * np.arange(fock.n_max + 1))
        weights.append(p / p.sum())
    state = weights[0]
    for p in weights[1:]:
        state = np.kron(state, p)
    rho = np.diag(state).astype(complex)

    def value(label: str) -> float:
        per_mode = [np.eye(dim) for _ in range(fock.n_modes)]
        for token in label.split():
            name, _, power = token.partition("^")
            kind, mode = name.rstrip("0123456789"), int(name.lstrip("adN"))
            for _ in range(int(power or 1)):
                per_mode[mode - 1] = per_mode[mode - 1] @ small[kind]
        full = per_mode[0]
        for op in per_mode[1:]:
            full = np.kron(full, op)
        return float(np.real(np.einsum("ij,ji->", rho, full)))

    return value


class TestDiagonalTraces:
    def test_label_parser(self):
        assert _ladder_string("ad1^2 N1 a1^2") == (
            (1, "ad"), (1, "ad"), (1, "N"), (1, "a"), (1, "a"))
        assert _ladder_string("a1 a2 N3 ad1 ad2") == (
            (1, "a"), (2, "a"), (3, "N"), (1, "ad"), (2, "ad"))

    def test_labels_are_parsed_once_at_import(self, monkeypatch):
        calls = []

        def counting(label):
            calls.append(label)
            return _ladder_string(label)

        monkeypatch.setattr(fock_oracle, "_ladder_string", counting)
        report = verify_trace_identities(2.0, cavity(K=3), 8)
        assert len(report.checks) == 30
        assert calls == []

    @pytest.mark.parametrize("beta", [2.0, math.inf])
    def test_numeric_equals_dense_trace(self, beta):
        # w_1 = 2, so four rungs keep all but exp(-20) of the thermal weight
        fock = FockSpace(n_modes=3, n_max=4)
        cfg = CavityConfig(L0=math.pi / 2, epsilon=0.01, n_modes=3)
        dense = _dense_identity_values(beta, fock, cfg)
        report = verify_trace_identities(beta, cfg, fock.n_max)
        assert len(report.checks) == 30
        for check in report.checks:
            assert check.numeric == pytest.approx(dense(check.label), abs=1e-15), check.label

    def test_battery_allocates_no_dense_matrices(self):
        # a single 1331 x 1331 complex matrix is 28 MB
        cfg = cavity(K=3)
        tracemalloc.start()
        try:
            verify_trace_identities(2.0, cfg, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_battery_builds_nothing_over_the_product_basis(self):
        # one vector over the 11**5 product states with headroom is 1.3 MB
        tracemalloc.start()
        try:
            report = verify_trace_identities(3.0, cavity(K=5), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.max_abs_deviation < 1e-6
        assert peak < 100e3

    @pytest.mark.parametrize("beta", [2.0, 3.0])
    def test_matches_the_sum_over_the_product_basis(self, beta):
        # the per-mode product against the weights of all 11**5 product
        # states times the string's diagonal there; modes 4 and 5 appear in
        # no string and enter through their weights' sum
        cfg = cavity(K=5)
        weights = _embedded_thermal_state(beta, mode_frequencies(5, cfg.L0), 8, 11)
        a = np.diag(np.sqrt(np.arange(1.0, 11.0)), k=1)
        small = {"a": a, "ad": a.T, "N": a.T @ a}
        report = verify_trace_identities(beta, cfg, 8)
        for check in report.checks:
            per_mode = [np.eye(11) for _ in range(5)]
            for mode, kind in _ladder_string(check.label):
                per_mode[mode - 1] = per_mode[mode - 1] @ small[kind]
            diagonal = reduce(np.kron, [np.diag(op) for op in per_mode])
            summed = float(reduce(np.kron, weights) @ diagonal)
            assert check.numeric == pytest.approx(summed, rel=2e-15), check.label


class TestValidateFriction:
    def test_quintic_two_modes_ratio_near_one(self):
        cfg = cavity(eps=0.01, K=2)
        report = validate_friction(cfg, ThermalBath(2.0), quintic(1.0), 0.01)
        assert 0.95 <= report.richardson_ratio <= 1.05
        for row in report.rows:
            assert row.ratio == pytest.approx(1.0, abs=0.05)
            assert row.E_pert == pytest.approx(row.E_adiab + (row.E_full - row.E_adiab),
                                               rel=0.1)

    def test_compares_epsilon_with_its_half(self):
        cfg = cavity(eps=0.01, K=2)
        report = validate_friction(cfg, ThermalBath(2.0), quintic(1.0))
        assert [row.epsilon for row in report.rows] == [0.01, 0.005]

    def test_takes_no_epsilons(self):
        cfg, bath = cavity(eps=0.01, K=1), ThermalBath(2.0)
        with pytest.raises(TypeError):
            validate_friction(cfg, bath, quintic(1.0), 0.1, epsilons=(0.01, 0.005))

    def test_retains_the_cavity_modes(self):
        # E_F over the cavity's 3 modes, eps**2 times its value per eps**2
        cfg, bath = cavity(eps=0.01, K=3), ThermalBath(2.0)
        report = validate_friction(cfg, bath, quintic(1.0), 0.02)
        per_eps2 = friction_energy(cfg, bath, quintic(1.0)).value_per_eps2
        assert [row.E_pert for row in report.rows] == [
            row.E_adiab + row.epsilon**2 * per_eps2 for row in report.rows]

    def test_static_profile_matches_adiabatic_exactly(self):
        # no wall velocity: evolution is exactly adiabatic, every mode keeps
        # its frequency and its thermal occupation
        cfg = cavity(eps=0.01, K=2)
        parts = _static_parts(cfg)
        S = _propagator(cfg, static_profile(0.0), 0.01, parts)
        w = mode_frequencies(2, cfg.L0)
        e_adiab = float(w @ occupations(2.0, w))
        e_full = _energy(parts[0], S @ _thermal_covariance(2.0, cfg) @ S.T)
        assert e_full == pytest.approx(e_adiab, abs=1e-12)
        assert_conserves_static_wall_energy(S, parts[0])

    def test_stroke_must_start_at_rest(self):
        # a displaced wall at t_start leaves no free Hamiltonian to count
        # adiabatic populations in
        with pytest.raises(ValueError, match="start at rest"):
            validate_friction(cavity(K=1), ThermalBath(2.0), static_profile(1.0), 0.01)

    def test_shortcut_residual_is_higher_order(self):
        # with the resonant amplitudes cancelled the measured excess is far
        # below the plain-stroke friction at the same duration; the residual
        # has no threshold of its own, only this relative smallness
        cfg = CavityConfig(L0=1.0, epsilon=0.01, n_modes=2)
        bath = ThermalBath(2.0 / cfg.omega1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # E_F is round-off
            report = validate_friction(cfg, bath, shortcut(quintic(1.0), cfg.L0), 0.002)
        row = report.rows[0]
        plain = friction_energy(cfg, bath, quintic(1.0)).value
        assert abs(row.E_full - row.E_adiab) < 0.05 * plain

    def test_round_off_friction_gives_nan_ratio(self):
        # the shortcut cancels E_F down to round-off; dividing by it would
        # print a ratio of order 1e28
        cfg = cavity(eps=0.01, K=1)
        sc = shortcut(quintic(1.0), cfg.L0)
        with pytest.warns(RuntimeWarning, match="round-off") as caught:
            report = validate_friction(cfg, ThermalBath(2.0), sc, 0.1)
        assert all(w.filename == __file__ for w in caught)
        assert all(math.isnan(row.ratio) for row in report.rows)
        assert math.isnan(report.richardson_ratio)

    def test_friction_below_the_propagation_round_off_gives_nan_ratio(self):
        # tau = 300: E_F = 1e-17, while 30000 steps leave E_full - E_adiab
        # at -2e-14 of round-off; the ratio read -2016.5 and 482.2
        cfg = cavity(eps=0.01, K=1)
        with pytest.warns(RuntimeWarning, match=r"round-off bound 1\.0[0-9]*e-12") as caught:
            report = validate_friction(cfg, ThermalBath(2.0), quintic(300.0))
        assert len(caught) == 2
        assert all(math.isnan(row.ratio) for row in report.rows)
        assert math.isnan(report.richardson_ratio)

    def test_round_off_floor_leaves_the_workload_request_alone(self):
        # 100 steps: a floor of 4e-15 against E_F = 3.5e-5
        cfg = cavity(eps=0.01, K=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_friction(cfg, ThermalBath(2.0), quintic(1.0))
        assert all(row.E_pert - row.E_adiab > 3e-6 for row in report.rows)

    @pytest.mark.parametrize("eps", [-0.01, 0.0, -0.02])
    def test_epsilon_outside_the_unit_interval(self, eps):
        # the cavity bounds the epsilon, and half of it stays in range
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            validate_friction(cavity(eps=eps, K=1), ThermalBath(2.0), quintic(1.0))

    @pytest.mark.parametrize("eps", [0.03, 0.5, 0.99])
    def test_epsilon_above_the_perturbative_range_names_epsilon(self, eps):
        with pytest.raises(OracleRangeError, match="eps <= 0.02") as caught:
            validate_friction(cavity(eps=eps, K=1), ThermalBath(2.0), quintic(1.0))
        assert caught.value.names == ("epsilon",)

    def test_rejects_non_unit_displacement(self):
        half = quintic(1.0)
        half = Trajectory(PPoly(0.5 * half.delta.c, half.delta.x), label="half")
        with pytest.raises(ValueError, match="unit displacement, got 0.5"):
            validate_friction(cavity(K=2), ThermalBath(2.0), half)

    def test_epsilon_guard(self):
        cfg = cavity(eps=0.1, K=2)
        with pytest.raises(ValueError):
            validate_friction(cfg, ThermalBath(2.0), quintic(1.0))

    def test_mode_cap(self):
        # 64 modes is the most the check takes; the error names n_modes, not
        # the step that 65 modes would also need shrunk
        with pytest.raises(OracleRangeError, match="64") as caught:
            validate_friction(cavity(K=65), ThermalBath(2.0), quintic(1.0), 0.01)
        assert caught.value.names == ("n_modes",)

    def test_no_truncation_warning_for_the_modes_left_out(self):
        # E_F over the 16 retained modes of a tau = 1 stroke misses a tail the
        # friction formula warns about; the comparison leaves it out on purpose
        cfg = cavity(eps=0.01, K=16)
        with pytest.warns(TruncationWarning):
            friction_energy(cfg, ThermalBath(1.0), quintic(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_friction(cfg, ThermalBath(1.0), quintic(1.0), 0.1 / 16)
        assert 0.95 <= report.richardson_ratio <= 1.05

    def test_spectral_table_built_once(self, monkeypatch):
        # the table depends on L0 and the mode count, not on epsilon: one
        # build serves both friction energies, which keep the digits of a
        # table built per epsilon
        cfg, bath = cavity(eps=0.01, K=4), ThermalBath(2.0)
        calls, build = [], friction.spectral_table

        def counted(traj, cfg):
            calls.append(cfg.n_modes)
            return build(traj, cfg)

        monkeypatch.setattr(friction, "spectral_table", counted)
        monkeypatch.setattr(fock_oracle, "spectral_table", counted, raising=False)
        report = validate_friction(cfg, bath, quintic(1.0), 0.025)
        assert calls == [4]
        monkeypatch.undo()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            per_eps = [friction_energy(replace(cfg, epsilon=e), bath, quintic(1.0)).value
                       for e in (0.01, 0.005)]
        assert [row.E_pert for row in report.rows] == [
            row.E_adiab + ef for row, ef in zip(report.rows, per_eps)]

    def test_static_parts_built_once(self, monkeypatch):
        # both epsilons share h0, h1, h2: one build serves both propagations
        calls = []

        def counted(cfg):
            calls.append(cfg.n_modes)
            return _static_parts(cfg)

        monkeypatch.setattr(fock_oracle, "_static_parts", counted)
        validate_friction(cavity(eps=0.01, K=1), ThermalBath(2.0), quintic(1.0), 0.1)
        assert len(calls) == 1
