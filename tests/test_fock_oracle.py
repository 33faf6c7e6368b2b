import math
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import PPoly

from casotto.fock_oracle import (
    FockConfig,
    TruncationQualityError,
    build_hamiltonian,
    energy_expectation,
    evolve,
    lowering_operator,
    mode_occupations,
    thermal_state,
    validate_friction,
    verify_trace_identities,
)
from casotto.fock_oracle import (
    _CF4_X1,
    _CF4_X2,
    _GAUSS_SHIFT,
    _assemble,
    _expm_unitary,
    _ladder_string,
    _sector_parts,
    _static_parts,
)
from casotto.spectrum import (
    CavityConfig,
    ThermalBath,
    coupling_g,
    mode_frequencies,
    mode_frequency_derivative,
    thermal_occupation,
)
from casotto.trajectory import Trajectory, quintic, shortcut


def cavity(eps=0.01, K=2):
    return CavityConfig(L0=math.pi, epsilon=eps, n_modes=K)


def static_profile(value: float, tau: float = 1.0) -> Trajectory:
    return Trajectory(PPoly([[value]], [0.0, tau]), label=f"static({value})")


class TestFockConfig:
    def test_dimension(self):
        assert FockConfig(n_modes=2, n_max=8).dimension == 81
        assert FockConfig(n_modes=3, n_max=8).dimension == 729

    def test_validation(self):
        with pytest.raises(ValueError):
            FockConfig(n_modes=4, n_max=30)  # dimension blow-up
        with pytest.raises(ValueError):
            FockConfig(integrator_order=3)
        with pytest.raises(ValueError):
            FockConfig(dt=0.0)


class TestBuildHamiltonian:
    def test_static_wall_is_free_hamiltonian(self):
        fock = FockConfig(n_modes=2, n_max=4)
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
        fock = FockConfig(n_modes=1, n_max=5)
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
        fock = FockConfig(n_modes=3, n_max=3)
        tr = quintic(1.0)
        for t in (0.1, 0.37, 0.9):
            H = build_hamiltonian(t, cavity(K=3), tr, fock)
            assert np.array_equal(H, H.conj().T)

    def test_rejects_time_outside_domain(self):
        with pytest.raises(ValueError):
            build_hamiltonian(2.0, cavity(), quintic(1.0), FockConfig(n_modes=1, n_max=3))


def _dense_static_parts(cfg: CavityConfig, fock: FockConfig):
    """(H0, M1, M2) as sums of dense products of the embedded ladder
    operators, term by term as the module docstring writes ``H(t)``."""
    w = mode_frequencies(fock.n_modes, cfg.L0)
    a = [lowering_operator(k, fock) for k in range(1, fock.n_modes + 1)]
    H0 = sum(w[k] * a[k].T @ a[k] for k in range(fock.n_modes))
    M1 = sum(
        mode_frequency_derivative(k + 1, cfg.L0)
        * (a[k].T @ a[k] + 0.5 * (a[k] @ a[k] + a[k].T @ a[k].T))
        for k in range(fock.n_modes)
    )
    Y = np.zeros((fock.dimension,) * 2)
    for k in range(fock.n_modes):
        for j in range(fock.n_modes):
            if j != k:
                ak, aj = a[k], a[j]
                Y += coupling_g(k + 1, j + 1) * math.sqrt(w[k] / w[j]) * (
                    ak @ aj - ak.T @ aj + ak @ aj.T - ak.T @ aj.T
                )
    return H0, M1, Y / (2j * cfg.L0)


class TestStaticParts:
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_free_hamiltonian_is_exactly_diagonal(self, n_modes):
        fock = FockConfig(n_modes=n_modes, n_max=8)
        cfg = cavity(K=n_modes)
        H0 = _static_parts(cfg, fock)[0]
        occ = np.unravel_index(np.arange(fock.dimension), (fock.n_max + 1,) * n_modes)
        w = mode_frequencies(n_modes, cfg.L0)
        assert np.array_equal(np.real(np.diag(H0)), sum(w[k] * occ[k] for k in range(n_modes)))
        assert np.array_equal(H0, np.diag(np.diag(H0)))

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("n_max", [1, 4, 6])
    def test_matches_dense_ladder_products(self, n_modes, n_max):
        fock = FockConfig(n_modes=n_modes, n_max=n_max)
        cfg = cavity(K=n_modes)
        for part, ref in zip(_static_parts(cfg, fock), _dense_static_parts(cfg, fock)):
            assert np.max(np.abs(part - ref)) <= 1e-14


class TestThermalState:
    def test_vacuum_projector(self):
        fock = FockConfig(n_modes=2, n_max=3)
        rho = thermal_state(math.inf, fock, cavity())
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) == 0.0

    def test_half_filling_occupation(self):
        # beta * w_1 = ln 2 puts one quantum in the soft mode; a 30-rung
        # cutoff keeps all but 2^-31 of the weight
        fock = FockConfig(n_modes=1, n_max=30)
        cfg = cavity(K=1)
        beta = math.log(2.0)
        rho = thermal_state(beta, fock, cfg)
        occ = mode_occupations(rho, fock)
        assert occ[0] == pytest.approx(1.0, abs=1e-4)

    def test_weight_capture_guard(self):
        # beta * w_1 = 1 with a short ladder keeps too little weight
        with pytest.raises(ValueError):
            thermal_state(1.0, FockConfig(n_modes=1, n_max=8), cavity(K=1))

    def test_unit_trace(self):
        fock = FockConfig(n_modes=2, n_max=8)
        rho = thermal_state(2.0, fock, cavity())
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)

    def test_truncation_quality_error(self):
        # soft enough that the kept weight passes the gate but the realised
        # occupation still misses the untruncated value by more than 1e-4
        fock = FockConfig(n_modes=1, n_max=280)
        with pytest.raises(TruncationQualityError):
            thermal_state(0.05, fock, cavity(K=1))


class TestEvolve:
    def test_free_evolution_preserves_occupations(self):
        fock = FockConfig(n_modes=2, n_max=6, dt=0.02)
        cfg = cavity()
        rho0 = thermal_state(2.0, fock, cfg)
        rho1 = evolve(rho0, cfg, static_profile(0.0), fock)
        assert np.max(np.abs(mode_occupations(rho1, fock) - mode_occupations(rho0, fock))) < 1e-12

    def test_free_evolution_energy_conservation(self):
        fock = FockConfig(n_modes=2, n_max=6, dt=0.02)
        cfg = cavity()
        rho0 = thermal_state(2.0, fock, cfg)
        H = build_hamiltonian(0.0, cfg, static_profile(0.0), fock)
        rho1 = evolve(rho0, cfg, static_profile(0.0), fock)
        assert abs(energy_expectation(rho1, H) - energy_expectation(rho0, H)) < 1e-10

    def test_trace_preservation(self):
        fock = FockConfig(n_modes=2, n_max=8, dt=0.01)
        cfg = cavity()
        rho0 = thermal_state(2.0, fock, cfg)
        rho1 = evolve(rho0, cfg, quintic(1.0), fock)
        assert abs(np.trace(rho1).real - 1.0) < 1e-10

    def test_compression_grows_occupation_at_second_order(self):
        fock = FockConfig(n_modes=1, n_max=12, dt=0.01)
        gains = []
        for eps in (0.01, 0.02):
            cfg = cavity(eps=eps, K=1)
            rho0 = thermal_state(2.0, fock, cfg)
            rho1 = evolve(rho0, cfg, quintic(1.0), fock)
            gains.append(mode_occupations(rho1, fock)[0] - mode_occupations(rho0, fock)[0])
        assert gains[0] > 0
        assert gains[1] / gains[0] == pytest.approx(4.0, rel=0.05)

    def test_unitarity_of_single_step(self):
        fock = FockConfig(n_modes=2, n_max=6)
        cfg = cavity()
        H = build_hamiltonian(0.3, cfg, quintic(1.0), fock)
        odd = _parity(fock).astype(bool)
        for U in _expm_unitary([H[np.ix_(m, m)] for m in (~odd, odd)], 0.05):
            eye = np.eye(len(U))
            assert np.max(np.abs(U.conj().T @ U - eye)) < 1e-12

    def test_integrator_convergence_order(self):
        # error against a fine reference shrinks by ~2^order per halving
        cfg = cavity(eps=0.2, K=2)
        tr = quintic(1.0)
        fock_ref = FockConfig(n_modes=2, n_max=6, dt=0.003125, integrator_order=4)
        rho0 = thermal_state(2.0, fock_ref, cfg)
        ref = evolve(rho0, cfg, tr, fock_ref)
        for order, expected in ((2, 2.0), (4, 4.0)):
            errs = []
            for dt in (0.05, 0.025):
                fock = FockConfig(n_modes=2, n_max=6, dt=dt, integrator_order=order)
                rho1 = evolve(rho0, cfg, tr, fock)
                errs.append(np.max(np.abs(rho1 - ref)))
            measured = math.log2(errs[0] / errs[1])
            assert abs(measured - expected) <= 0.3

    def test_step_size_cap(self):
        fock = FockConfig(n_modes=2, n_max=8, dt=0.2)
        cfg = cavity()
        rho0 = thermal_state(2.0, fock, cfg)
        with pytest.raises(ValueError, match="dt"):
            evolve(rho0, cfg, quintic(1.0), fock)


def _parity(fock: FockConfig) -> np.ndarray:
    """Total photon number mod 2 of each basis state, mode 1 slowest."""
    occ = np.unravel_index(np.arange(fock.dimension), (fock.n_max + 1,) * fock.n_modes)
    return sum(occ) % 2


def _dense_expm(H: np.ndarray, dt: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(H)
    return (vecs * np.exp(-1j * dt * vals)) @ vecs.conj().T


def _dense_evolve(rho0, cfg, traj, fock):
    """The full-matrix propagator: one eigh of the whole generator per stage."""
    H0, M1, M2 = _static_parts(cfg, fock)
    n_steps = max(1, math.ceil(traj.duration / fock.dt))
    h = traj.duration / n_steps
    grid = traj.t_start + h * np.arange(n_steps + 1)
    rho = rho0.astype(complex)
    for t0 in grid[:-1]:
        if fock.integrator_order == 2:
            U = _dense_expm(_assemble(t0 + 0.5 * h, cfg, traj, H0, M1, M2), h)
        else:
            A1 = _assemble(t0 + (0.5 - _GAUSS_SHIFT) * h, cfg, traj, H0, M1, M2)
            A2 = _assemble(t0 + (0.5 + _GAUSS_SHIFT) * h, cfg, traj, H0, M1, M2)
            U = _dense_expm(_CF4_X1 * A1 + _CF4_X2 * A2, h) @ _dense_expm(
                _CF4_X2 * A1 + _CF4_X1 * A2, h
            )
        rho = U @ rho @ U.conj().T
        rho = 0.5 * (rho + rho.conj().T)
    return rho


class TestParitySectors:
    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("n_max", [1, 4, 8])
    def test_static_parts_conserve_parity(self, n_modes, n_max):
        fock = FockConfig(n_modes=n_modes, n_max=n_max)
        odd = _parity(fock).astype(bool)
        for X in _static_parts(cavity(K=n_modes), fock):
            assert not np.any(X[np.ix_(odd, ~odd)])
            assert not np.any(X[np.ix_(~odd, odd)])

    def test_sectors_follow_parity(self):
        fock = FockConfig(n_modes=3, n_max=4)
        order, sectors, blocks = _sector_parts(_static_parts(cavity(K=3), fock), fock)
        parity = _parity(fock)[order]
        assert not np.any(parity[sectors[0]]) and np.all(parity[sectors[1]])
        assert [len(b[0]) for b in blocks] == [63, 62]

    def test_parity_breaking_term_is_rejected(self):
        fock = FockConfig(n_modes=2, n_max=4)
        H0, M1, M2 = _static_parts(cavity(), fock)
        a = lowering_operator(1, fock)
        with pytest.raises(RuntimeError, match="parity"):
            _sector_parts((H0, M1 + a + a.T, M2), fock)

    def test_blockwise_exponential_matches_full_eigh(self):
        fock = FockConfig(n_modes=2, n_max=6)
        cfg = cavity(eps=0.2)
        order, sectors, _ = _sector_parts(_static_parts(cfg, fock), fock)
        for t in (0.1, 0.3, 0.77):
            H = build_hamiltonian(t, cfg, quintic(1.0), fock)[np.ix_(order, order)]
            U = np.zeros_like(H)
            for s, block in zip(sectors, _expm_unitary([H[s, s] for s in sectors], 0.05)):
                U[s, s] = block
            assert np.max(np.abs(U - _dense_expm(H, 0.05))) < 1e-13
            assert np.max(np.abs(U.conj().T @ U - np.eye(len(U)))) < 1e-12

    @pytest.mark.parametrize("order", [2, 4])
    def test_evolve_matches_dense_propagator_with_coherences(self, order):
        fock = FockConfig(n_modes=2, n_max=4, dt=0.02, integrator_order=order)
        cfg = cavity(eps=0.2)
        rng = np.random.default_rng(3)
        G = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        rho0 = G @ G.conj().T
        rho0 /= np.trace(rho0).real
        odd = _parity(fock).astype(bool)
        assert np.max(np.abs(rho0[np.ix_(odd, ~odd)])) > 1e-2
        rho1 = evolve(rho0, cfg, quintic(1.0), fock)
        assert np.max(np.abs(rho1 - _dense_evolve(rho0, cfg, quintic(1.0), fock))) < 1e-12
        assert np.max(np.abs(rho1[np.ix_(odd, ~odd)])) > 1e-2


class TestEnergyExpectation:
    def test_vacuum_free_energy_is_zero(self):
        fock = FockConfig(n_modes=2, n_max=4)
        cfg = cavity()
        rho = thermal_state(math.inf, fock, cfg)
        H = build_hamiltonian(0.0, cfg, quintic(1.0), fock)
        assert energy_expectation(rho, H) == pytest.approx(0.0, abs=1e-14)

    def test_thermal_single_mode(self):
        # beta * w = ln 2 gives exactly one quantum on average, so <H> = w
        fock = FockConfig(n_modes=1, n_max=40)
        cfg = cavity(K=1)  # w_1 = 1
        beta = math.log(2.0)
        rho = thermal_state(beta, fock, cfg)
        a = lowering_operator(1, fock)
        H = (a.conj().T @ a).astype(complex)
        assert energy_expectation(rho, H) == pytest.approx(1.0, abs=1e-4)

    def test_linearity(self):
        fock = FockConfig(n_modes=1, n_max=6)
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
        fock = FockConfig(n_modes=1, n_max=8)
        rho = thermal_state(2.0, fock, cavity(K=1))
        bad = np.triu(np.ones((9, 9), dtype=complex))
        with pytest.raises(ValueError):
            energy_expectation(rho, bad)


class TestTraceIdentities:
    def test_vacuum_values(self):
        fock = FockConfig(n_modes=3, n_max=4)
        report = verify_trace_identities(math.inf, fock, cavity(K=3))
        # annihilators on the right kill the vacuum; only the fully
        # creation-first strings survive
        values = {c.label: c for c in report.checks}
        assert values["a1^2 ad1^2 N2"].closed_form == 0.0
        assert values["a1^2 ad1^2 N2"].numeric == pytest.approx(0.0, abs=1e-14)
        assert values["a1 a2 N3 ad1 ad2"].closed_form == 0.0
        assert report.max_abs_deviation < 1e-12

    def test_thermal_battery_is_truncation_limited(self):
        fock = FockConfig(n_modes=3, n_max=8)
        report = verify_trace_identities(2.0, fock, cavity(K=3))
        assert report.max_abs_deviation < 1e-4

    def test_deviation_shrinks_with_cutoff(self):
        cfg = cavity(K=3)
        worsts = []
        for n_max in (6, 8, 10):
            fock = FockConfig(n_modes=3, n_max=n_max)
            worsts.append(verify_trace_identities(2.0, fock, cfg).max_abs_deviation)
        assert worsts[0] > worsts[1] > worsts[2]

    def test_sloppy_mean_field_forms_fail(self):
        # substituting <f(N)> -> f(<N>) is wrong on a thermal state: the
        # correct second factorial moment is 2 Nbar^2, not Nbar (Nbar - 1)
        fock = FockConfig(n_modes=3, n_max=8)
        cfg = cavity(K=3)
        beta = 2.0
        report = verify_trace_identities(beta, fock, cfg)
        values = {c.label: c for c in report.checks}
        n1 = thermal_occupation(beta, cfg.omega1)
        n2 = thermal_occupation(beta, 2.0 * cfg.omega1)
        naive = n1 * (n1 - 1.0) * n2
        correct = 2.0 * n1**2 * n2
        check = values["ad1^2 a1^2 N2"]
        assert check.closed_form == pytest.approx(correct, rel=1e-10)
        assert abs(check.numeric - naive) > 1e-3
        assert abs(check.numeric - correct) < 1e-6


def _dense_identity_values(beta: float, fock: FockConfig, cfg: CavityConfig) -> dict:
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

    @pytest.mark.parametrize("beta", [2.0, math.inf])
    def test_numeric_equals_dense_trace(self, beta):
        # w_1 = 2, so four rungs keep all but exp(-20) of the thermal weight
        fock = FockConfig(n_modes=3, n_max=4)
        cfg = CavityConfig(L0=math.pi / 2, epsilon=0.01, n_modes=3)
        dense = _dense_identity_values(beta, fock, cfg)
        report = verify_trace_identities(beta, fock, cfg)
        assert len(report.checks) == 30
        for check in report.checks:
            assert check.numeric == pytest.approx(dense(check.label), abs=1e-15), check.label

    def test_battery_allocates_no_dense_matrices(self):
        # a single 1331 x 1331 complex matrix is 28 MB
        fock = FockConfig(n_modes=3, n_max=8)
        cfg = cavity(K=3)
        tracemalloc.start()
        try:
            verify_trace_identities(2.0, fock, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestValidateFriction:
    def test_quintic_two_modes_ratio_near_one(self):
        cfg = cavity(eps=0.01, K=2)
        fock = FockConfig(n_modes=2, n_max=8, dt=0.01, integrator_order=4)
        report = validate_friction(cfg, ThermalBath(2.0), quintic(1.0), fock,
                                   epsilons=(0.01, 0.005))
        assert 0.95 <= report.richardson_ratio <= 1.05
        for row in report.rows:
            assert row.ratio == pytest.approx(1.0, abs=0.05)
            assert row.E_pert == pytest.approx(row.E_adiab + (row.E_full - row.E_adiab),
                                               rel=0.1)

    def test_static_profile_matches_adiabatic_exactly(self):
        # no wall velocity: evolution is exactly adiabatic and E_F = 0
        cfg = cavity(eps=0.01, K=1)
        fock = FockConfig(n_modes=1, n_max=10, dt=0.01)
        rho0 = thermal_state(2.0, fock, cfg)
        frozen = static_profile(0.0)
        rho1 = evolve(rho0, cfg, frozen, fock)
        H_end = build_hamiltonian(frozen.t_end, cfg, frozen, fock)
        e_full = energy_expectation(rho1, H_end)
        e_0 = energy_expectation(rho0, H_end)
        assert e_full == pytest.approx(e_0, abs=1e-12)

    def test_shortcut_residual_is_higher_order(self):
        # with the resonant amplitudes cancelled the measured excess is far
        # below the plain-stroke friction at the same duration; the residual
        # has no threshold of its own, only this relative smallness
        cfg = CavityConfig(L0=1.0, epsilon=0.01, n_modes=2)
        fock = FockConfig(n_modes=2, n_max=8, dt=0.002)
        bath = ThermalBath(2.0 / cfg.omega1)
        sc = shortcut(quintic(1.0), cfg.L0)
        rho0 = thermal_state(bath.beta, fock, cfg)
        H0, M1, M2 = _static_parts(cfg, fock)
        rho1 = evolve(rho0, cfg, sc, fock)
        e_full = energy_expectation(rho1, _assemble(sc.t_end, cfg, sc, H0, M1, M2))
        from casotto.fock_oracle import _adiabatic_energy

        e_adiab = _adiabatic_energy(
            rho0,
            _assemble(sc.t_start, cfg, sc, H0, M1, M2),
            _assemble(sc.t_end, cfg, sc, H0, M1, M2),
        )
        from casotto.friction import friction_energy

        plain = friction_energy(cfg, bath, quintic(1.0), compute_bound=False).value
        assert abs(e_full - e_adiab) < 0.05 * plain

    def test_round_off_friction_gives_nan_ratio(self):
        # the shortcut cancels E_F down to round-off; dividing by it would
        # print a ratio of order 1e28
        cfg = cavity(eps=0.01, K=1)
        fock = FockConfig(n_modes=1, n_max=6, dt=0.1)
        sc = shortcut(quintic(1.0), cfg.L0)
        with pytest.warns(RuntimeWarning, match="round-off") as caught:
            report = validate_friction(cfg, ThermalBath(2.0), sc, fock)
        assert all(w.filename == __file__ for w in caught)
        assert all(math.isnan(row.ratio) for row in report.rows)
        assert math.isnan(report.richardson_ratio)

    @pytest.mark.parametrize("epsilons", [(0.01, 0.01), (0.01,), (0.01, 0.005, 0.0025)])
    def test_needs_two_distinct_epsilons(self, epsilons):
        # checked before any evolution: the extrapolation divides by their gap
        cfg = cavity(eps=0.01, K=1)
        fock = FockConfig(n_modes=1, n_max=6, dt=0.1)
        with pytest.raises(ValueError, match="two distinct epsilons"):
            validate_friction(cfg, ThermalBath(2.0), quintic(1.0), fock, epsilons=epsilons)

    def test_epsilon_guard(self):
        cfg = cavity(eps=0.01, K=2)
        fock = FockConfig(n_modes=2, n_max=6)
        with pytest.raises(ValueError):
            validate_friction(cfg, ThermalBath(2.0), quintic(1.0), fock,
                              epsilons=(0.1, 0.05))
