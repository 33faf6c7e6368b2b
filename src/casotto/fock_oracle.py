"""Brute-force cross-check in a truncated Fock space.

Everything else in this package rests on second-order perturbation theory.
This module validates it from the other side: build the driven Hamiltonian

    H(t) = sum_k w_k N_k
         + dL(t)   * sum_k [ w_k' N_k + (w_k'/2) (a_k^+^2 + a_k^2) ]
         + dLdot(t)/ (2 i L0) * sum_{k!=j} g_kj sqrt(w_k/w_j)
               (a_k a_j - a_k^+ a_j + a_k a_j^+ - a_k^+ a_j^+)

with ``dL(t) = -L0 * eps * delta(t)``, on a small dense truncated space,
evolve a thermal state through the stroke with a time-ordered unitary
product, and compare the measured non-adiabatic energy against the
separable friction formula restricted to the same retained modes.

The matrices are kept dense deliberately: every operator is inspectable and
the arithmetic has no sparsity shortcuts to audit around.  Dimensions are
capped at 1e5 (the default test profile stays below 1e4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .friction import friction_energy
from .spectrum import (
    CavityConfig,
    ThermalBath,
    mode_frequencies,
    mode_frequency_derivative,
    occupations,
)
from .trajectory import Trajectory

__all__ = [
    "FockConfig",
    "TruncationQualityError",
    "StepSizeError",
    "build_hamiltonian",
    "thermal_state",
    "mode_occupations",
    "evolve",
    "energy_expectation",
    "verify_trace_identities",
    "IdentityCheck",
    "IdentityReport",
    "validate_friction",
    "FrictionComparison",
    "export_comparison",
]

_DIM_CAP = 10**5


class TruncationQualityError(RuntimeError):
    """The occupation cutoff distorts the thermal state beyond tolerance."""


class StepSizeError(RuntimeError):
    """Free evolution drifted in energy; the step size is too coarse."""


@dataclass(frozen=True)
class FockConfig:
    """Truncation and integrator parameters for the dense oracle.

    n_modes: field modes retained (2-3 is typical).
    n_max:   per-mode occupation cutoff.
    dt:      evolution step; must satisfy dt * w_max <= 0.1.
    integrator_order: 2 (midpoint exponential) or 4 (two-stage
        commutator-free composition on Gauss nodes).
    """

    n_modes: int = 2
    n_max: int = 8
    dt: float = 0.01
    integrator_order: int = 4

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.dimension > _DIM_CAP:
            raise ValueError(
                f"truncated dimension {self.dimension} exceeds cap {_DIM_CAP}"
            )
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.integrator_order not in (2, 4):
            raise ValueError("integrator_order must be 2 or 4")

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) ** self.n_modes


def _destroy(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1.0)), k=1)


def _embed(op: np.ndarray, mode: int, fock: FockConfig) -> np.ndarray:
    """Lift a single-mode operator to the full product space (modes 1-based)."""
    mats = []
    eye = np.eye(fock.n_max + 1)
    for m in range(1, fock.n_modes + 1):
        mats.append(op if m == mode else eye)
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def lowering_operator(mode: int, fock: FockConfig) -> np.ndarray:
    """Annihilation operator of one mode on the truncated product space."""
    if not 1 <= mode <= fock.n_modes:
        raise ValueError(f"mode {mode} outside 1..{fock.n_modes}")
    return _embed(_destroy(fock.n_max), mode, fock)


def _static_parts(cfg: CavityConfig, fock: FockConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H0, M1, M2): H(t) = H0 + dL(t)*M1 + dLdot(t)*M2, all Hermitian.

    M2 is assembled as Z + Z^+ with Z = Y/(4i) elementwise, which is
    Hermitian by construction in floating point; H0 and M1 are real
    symmetric.
    """
    from .spectrum import coupling_g

    w = mode_frequencies(fock.n_modes, cfg.L0)
    a_ops = [lowering_operator(k, fock) for k in range(1, fock.n_modes + 1)]
    n_ops = [a.conj().T @ a for a in a_ops]

    H0 = sum(w[k] * n_ops[k] for k in range(fock.n_modes))
    M1 = np.zeros_like(H0)
    for k in range(fock.n_modes):
        wp = mode_frequency_derivative(k + 1, cfg.L0)
        a2 = a_ops[k] @ a_ops[k]
        M1 += wp * n_ops[k] + 0.5 * wp * (a2 + a2.T)
    M1 = 0.5 * (M1 + M1.T)

    dim = fock.dimension
    Y = np.zeros((dim, dim))
    for k in range(fock.n_modes):
        ak = a_ops[k]
        for j in range(fock.n_modes):
            if j == k:
                continue
            aj = a_ops[j]
            coeff = coupling_g(k + 1, j + 1) * math.sqrt(w[k] / w[j]) / cfg.L0
            Y += coeff * (
                ak @ aj - ak.T @ aj + ak @ aj.T - ak.T @ aj.T
            )
    Z = Y / 2j
    M2 = 0.5 * (Z + Z.conj().T)
    return H0.astype(complex), M1.astype(complex), M2


def build_hamiltonian(
    t: float, cfg: CavityConfig, traj: Trajectory, fock: FockConfig
) -> np.ndarray:
    """Dense Hermitian ``H(t)`` on the truncated space.

    ``dL(t) = -L0 * eps * delta(t)`` shifts the mode frequencies and drives
    single-mode pair creation; the wall velocity drives inter-mode pair
    creation and scattering.  Hermiticity holds exactly by construction.
    """
    if not (traj.t_start <= t <= traj.t_end):
        raise ValueError(f"t={t} outside trajectory domain")
    H0, M1, M2 = _static_parts(cfg, fock)
    return _assemble(t, cfg, traj, H0, M1, M2)


def _assemble(t, cfg, traj, H0, M1, M2) -> np.ndarray:
    ts = np.asarray([t], dtype=float)
    dl = -cfg.L0 * cfg.epsilon * float(traj.delta(ts)[0])
    dldot = -cfg.L0 * cfg.epsilon * float(traj.ddelta(ts)[0])
    return H0 + dl * M1 + dldot * M2


def thermal_state(beta: float, fock: FockConfig, cfg: CavityConfig) -> np.ndarray:
    """Truncated thermal state ``rho ~ exp(-beta H_free)``, unit trace.

    ``beta = inf`` yields the vacuum projector.  The cutoff must capture all
    but 1e-6 of the geometric occupation weight of the softest mode,
    ``exp(-beta w_1 (n_max+1)) <= 1e-6`` (roughly ``beta * w_1 >= 1`` at the
    default cutoffs); on top of that the realised per-mode occupations are
    compared against the untruncated values and a mismatch beyond 1e-4
    raises :class:`TruncationQualityError`.
    """
    rho = _embedded_thermal_state(beta, fock, fock, cfg)
    occ = mode_occupations(rho, fock)
    exact = occupations(beta, mode_frequencies(fock.n_modes, cfg.L0))
    worst = float(np.max(np.abs(occ - exact)))
    if worst > 1e-4:
        raise TruncationQualityError(
            f"per-mode occupation off by {worst:.2e} (> 1e-4); raise n_max "
            "or beta"
        )
    return rho


def mode_occupations(rho: np.ndarray, fock: FockConfig) -> np.ndarray:
    """Per-mode ``Tr(rho N_k)`` for comparison with the untruncated values."""
    occ = np.empty(fock.n_modes)
    for k in range(1, fock.n_modes + 1):
        a = lowering_operator(k, fock)
        occ[k - 1] = float(np.real(np.einsum("ij,ji->", rho, a.conj().T @ a)))
    return occ


def _expm_unitary(H: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) for Hermitian H via eigendecomposition (exactly unitary)."""
    vals, vecs = np.linalg.eigh(H)
    phase = np.exp(-1j * dt * vals)
    return (vecs * phase) @ vecs.conj().T


# fourth-order two-exponential composition on Gauss nodes
_GAUSS_SHIFT = math.sqrt(3.0) / 6.0
_CF4_X1 = 0.25 - _GAUSS_SHIFT
_CF4_X2 = 0.25 + _GAUSS_SHIFT


def evolve(
    rho0: np.ndarray, cfg: CavityConfig, traj: Trajectory, fock: FockConfig
) -> np.ndarray:
    """Propagate a density operator through the full stroke of ``traj``.

    The time-ordered product uses either the midpoint exponential (order 2)
    or a two-stage commutator-free composition on the two Gauss points of
    each step (order 4).  Each step is exactly unitary, so the trace is
    preserved to roundoff.  When the trajectory is static the energy drift
    is measured and must stay below 1e-10.
    """
    dim = fock.dimension
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho has shape {rho0.shape}, expected {(dim, dim)}")
    w_max = mode_frequencies(fock.n_modes, cfg.L0)[-1]
    n_steps = max(1, math.ceil(traj.duration / fock.dt))
    h = traj.duration / n_steps
    if h * w_max > 0.1 + 1e-12:
        raise ValueError(
            f"dt * omega_max = {h * w_max:.3g} > 0.1; shrink FockConfig.dt"
        )

    H0, M1, M2 = _static_parts(cfg, fock)
    grid = traj.t_start + h * np.arange(n_steps + 1)
    static = bool(np.max(np.abs(traj.ddelta(np.linspace(traj.t_start, traj.t_end, 257)))) == 0.0)
    e_start = float(np.real(np.einsum("ij,ji->", rho0, _assemble(grid[0], cfg, traj, H0, M1, M2))))

    rho = rho0.astype(complex)
    for i in range(n_steps):
        t0 = grid[i]
        if fock.integrator_order == 2:
            U = _expm_unitary(_assemble(t0 + 0.5 * h, cfg, traj, H0, M1, M2), h)
        else:
            A1 = _assemble(t0 + (0.5 - _GAUSS_SHIFT) * h, cfg, traj, H0, M1, M2)
            A2 = _assemble(t0 + (0.5 + _GAUSS_SHIFT) * h, cfg, traj, H0, M1, M2)
            # right factor acts first and leans on the early node
            U = _expm_unitary(_CF4_X1 * A1 + _CF4_X2 * A2, h) @ _expm_unitary(
                _CF4_X2 * A1 + _CF4_X1 * A2, h
            )
        rho = U @ rho @ U.conj().T
        rho = 0.5 * (rho + rho.conj().T)

    if static:
        e_end = float(np.real(np.einsum("ij,ji->", rho, _assemble(grid[-1], cfg, traj, H0, M1, M2))))
        drift = abs(e_end - e_start)
        if drift > 1e-10 * max(1.0, abs(e_start)):
            raise StepSizeError(f"static-wall energy drifted by {drift:.2e}")
    return rho


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


# ---------------------------------------------------------------------------
# operator-ordering identities on a thermal state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """One trace identity: dense-matrix value vs analytic closed form."""

    label: str
    numeric: float
    closed_form: float

    @property
    def deviation(self) -> float:
        return abs(self.numeric - self.closed_form)


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]
    max_abs_deviation: float


def _embedded_thermal_state(
    beta: float, state: FockConfig, work: FockConfig, cfg: CavityConfig
) -> np.ndarray:
    """Thermal state truncated at ``state.n_max``, embedded in ``work``.

    Occupation weights beyond the state cutoff are zero; the distribution is
    renormalised over the kept rungs.  :func:`thermal_state` is the case
    ``work == state``.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive (or inf), got {beta}")
    w = mode_frequencies(state.n_modes, cfg.L0)
    if not math.isinf(beta):
        missed = math.exp(-beta * w[0] * (state.n_max + 1))
        if missed > 1e-6:
            raise ValueError(
                f"occupation cutoff keeps only 1 - {missed:.2e} of the "
                "thermal weight; raise n_max or beta"
            )
    diags = []
    for k in range(state.n_modes):
        weights = np.zeros(work.n_max + 1)
        n = np.arange(state.n_max + 1, dtype=float)
        if math.isinf(beta):
            weights[0] = 1.0
        else:
            weights[: state.n_max + 1] = np.exp(-beta * w[k] * n)
        diags.append(weights / weights.sum())
    full = diags[0]
    for d in diags[1:]:
        full = np.kron(full, d)
    return np.diag(full).astype(complex)


def _geometric_expectation(beta: float, omega: float, f) -> float:
    """``E[f(N)]`` over the untruncated geometric distribution.

    Summed term by term until machine-precision convergence; this side of
    the identity check never touches the truncated matrices.
    """
    if math.isinf(beta):
        return float(f(0))
    q = math.exp(-beta * omega)
    acc = 0.0
    weight = 1.0 - q
    n = 0
    while True:
        term = weight * f(n)
        acc += term
        weight *= q
        n += 1
        if weight * max(1.0, abs(f(n))) < 1e-18 * max(1.0, abs(acc)) or n > 100_000:
            return acc


def verify_trace_identities(
    beta: float, fock: FockConfig, cfg: CavityConfig
) -> IdentityReport:
    """Check normal-ordering trace identities on the truncated thermal state.

    Each bosonic operator string reduces, by the commutation relations, to a
    polynomial in the number operators (with Kronecker-delta corrections
    when the sandwiched ``N_k`` shares a mode); its thermal trace then
    factorises into geometric-distribution moments, evaluated here by
    direct series summation.  The dense-matrix side multiplies the raw
    operator strings on the full product space, so the comparison verifies
    both the operator algebra and the truncation quality.  Deviations are
    truncation-limited: the state carries no weight beyond ``n_max``, so
    they scale with the clipped thermal tail.
    """
    if fock.n_modes < 3:
        raise ValueError("identity battery needs at least 3 retained modes")
    w = mode_frequencies(fock.n_modes, cfg.L0)
    # the state is truncated at n_max; the operators get two rungs of
    # headroom (the largest raising power in the battery) so the reordering
    # identities are probed without edge clipping at the cutoff
    work = FockConfig(
        n_modes=fock.n_modes,
        n_max=fock.n_max + 2,
        dt=fock.dt,
        integrator_order=fock.integrator_order,
    )
    rho = _embedded_thermal_state(beta, fock, work, cfg)
    a_small = _destroy(work.n_max)
    ad_small = a_small.conj().T
    n_small = ad_small @ a_small
    eye = np.eye(work.n_max + 1)

    # operator strings factorise over modes (cross-mode factors commute),
    # so each full-space operator is the kron of per-mode ordered products;
    # the trace is then taken dense on the full product space
    def tr(*ops: tuple[int, str]) -> float:
        per_mode = {m: eye for m in range(1, work.n_modes + 1)}
        small = {"a": a_small, "ad": ad_small, "n": n_small}
        for mode, kind in ops:
            per_mode[mode] = per_mode[mode] @ small[kind]
        full = per_mode[1]
        for m in range(2, work.n_modes + 1):
            full = np.kron(full, per_mode[m])
        return float(np.real(np.einsum("ij,ji->", rho, full)))

    def nbar(m: int) -> float:
        return _geometric_expectation(beta, w[m - 1], lambda n: n)

    def gex(m: int, f) -> float:
        return _geometric_expectation(beta, w[m - 1], f)

    checks: list[IdentityCheck] = []

    def add(label: str, numeric: float, closed: float) -> None:
        checks.append(IdentityCheck(label, numeric, closed))

    # N_k on the right of the string
    for i, k in ((1, 2), (2, 3), (3, 1)):
        add(
            f"ad{i}^2 a{i}^2 N{k}",
            tr((i, "ad"), (i, "ad"), (i, "a"), (i, "a"), (k, "n")),
            gex(i, lambda n: n * (n - 1)) * nbar(k),
        )
        add(
            f"a{i}^2 ad{i}^2 N{k}",
            tr((i, "a"), (i, "a"), (i, "ad"), (i, "ad"), (k, "n")),
            gex(i, lambda n: (n + 1) * (n + 2)) * nbar(k),
        )
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        add(
            f"a{i} a{j} ad{i} ad{j} N{k}",
            tr((i, "a"), (j, "a"), (i, "ad"), (j, "ad"), (k, "n")),
            gex(i, lambda n: n + 1) * gex(j, lambda n: n + 1) * nbar(k),
        )
        add(
            f"ad{i} a{j} a{i} ad{j} N{k}",
            tr((i, "ad"), (j, "a"), (i, "a"), (j, "ad"), (k, "n")),
            nbar(i) * gex(j, lambda n: n + 1) * nbar(k),
        )
        add(
            f"ad{i} ad{j} a{i} a{j} N{k}",
            tr((i, "ad"), (j, "ad"), (i, "a"), (j, "a"), (k, "n")),
            nbar(i) * nbar(j) * nbar(k),
        )

    # N_k sandwiched inside the string: delta corrections appear when k
    # shares a mode with the string
    for i, k in ((1, 2), (1, 1), (2, 1)):
        if k == i:
            closed = gex(i, lambda n: n * (n - 1) * (n - 2))
        else:
            closed = gex(i, lambda n: n * (n - 1)) * nbar(k)
        add(
            f"ad{i}^2 N{k} a{i}^2",
            tr((i, "ad"), (i, "ad"), (k, "n"), (i, "a"), (i, "a")),
            closed,
        )
        if k == i:
            closed = gex(i, lambda n: (n + 1) * (n + 2) * (n + 2))
        else:
            closed = gex(i, lambda n: (n + 1) * (n + 2)) * nbar(k)
        add(
            f"a{i}^2 N{k} ad{i}^2",
            tr((i, "a"), (i, "a"), (k, "n"), (i, "ad"), (i, "ad")),
            closed,
        )

    for i, j, k in ((1, 2, 3), (1, 2, 1), (1, 2, 2)):
        if k == i:
            closed = gex(i, lambda n: (n + 1) * (n + 1)) * gex(j, lambda n: n + 1)
        elif k == j:
            closed = gex(i, lambda n: n + 1) * gex(j, lambda n: (n + 1) * (n + 1))
        else:
            closed = gex(i, lambda n: n + 1) * gex(j, lambda n: n + 1) * nbar(k)
        add(
            f"a{i} a{j} N{k} ad{i} ad{j}",
            tr((i, "a"), (j, "a"), (k, "n"), (i, "ad"), (j, "ad")),
            closed,
        )
        if k == i:
            closed = gex(i, lambda n: n * (n - 1)) * gex(j, lambda n: n + 1)
        elif k == j:
            closed = nbar(i) * gex(j, lambda n: (n + 1) * (n + 1))
        else:
            closed = nbar(i) * gex(j, lambda n: n + 1) * nbar(k)
        add(
            f"ad{i} a{j} N{k} a{i} ad{j}",
            tr((i, "ad"), (j, "a"), (k, "n"), (i, "a"), (j, "ad")),
            closed,
        )
        if k == i:
            closed = gex(i, lambda n: n * (n - 1)) * nbar(j)
        elif k == j:
            closed = nbar(i) * gex(j, lambda n: n * (n - 1))
        else:
            closed = nbar(i) * nbar(j) * nbar(k)
        add(
            f"ad{i} ad{j} N{k} a{i} a{j}",
            tr((i, "ad"), (j, "ad"), (k, "n"), (i, "a"), (j, "a")),
            closed,
        )

    worst = max(c.deviation for c in checks)
    return IdentityReport(checks=tuple(checks), max_abs_deviation=worst)


# ---------------------------------------------------------------------------
# perturbation theory vs direct evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    epsilon: float
    E_full: float
    E_adiab: float
    E_pert: float
    ratio: float


@dataclass(frozen=True)
class FrictionComparison:
    """Direct-evolution energies against the second-order friction formula.

    ``ratio`` per row is ``(E_full - E_adiab) / E_F``; ``richardson_ratio``
    extrapolates the two rows to ``eps -> 0``, removing the leading
    next-order contamination.
    """

    rows: tuple[ComparisonRow, ...]
    richardson_ratio: float


def _adiabatic_energy(
    rho0: np.ndarray, H_start: np.ndarray, H_end: np.ndarray
) -> float:
    """Population-preserving energy: initial level weights on final levels.

    Both spectra are sorted; within degenerate clusters of the initial
    Hamiltonian the thermal weights are equal, so the pairing ambiguity does
    not affect the sum.
    """
    offdiag = H_start - np.diag(np.diag(H_start))
    if float(np.max(np.abs(offdiag))) > 1e-12 * max(1.0, float(np.max(np.abs(H_start)))):
        raise ValueError(
            "adiabatic baseline requires the stroke to start at rest "
            "(delta = ddelta = 0), where H is diagonal in the Fock basis"
        )
    p = np.real(np.diag(rho0)).copy()
    e_start = np.real(np.diag(H_start))
    order = np.argsort(e_start, kind="stable")
    e_end = np.linalg.eigvalsh(H_end)
    return float(np.dot(p[order], np.sort(e_end)))


def validate_friction(
    cfg: CavityConfig,
    bath: ThermalBath,
    traj: Trajectory,
    fock: FockConfig,
    epsilons: tuple[float, float] | None = None,
) -> FrictionComparison:
    """Measure the non-adiabatic energy directly and compare with E_F.

    For each compression ratio the thermal state is evolved through the
    stroke; the excess of the final energy over the population-preserving
    (adiabatic) value of the same truncated model is divided by the
    friction formula restricted to the retained modes.  Mode sums on both
    sides use the same retained set, so the comparison probes the
    perturbative expansion, not the mode cutoff.
    """
    if epsilons is None:
        epsilons = (cfg.epsilon, cfg.epsilon / 2.0)
    if any(e > 0.02 for e in epsilons):
        raise ValueError(
            "validate_friction needs eps <= 0.02 so the second order dominates"
        )
    rows = []
    for eps in epsilons:
        cfg_eps = replace(cfg, epsilon=eps, n_modes=fock.n_modes)
        rho0 = thermal_state(bath.beta, fock, cfg_eps)
        H0, M1, M2 = _static_parts(cfg_eps, fock)
        H_start = _assemble(traj.t_start, cfg_eps, traj, H0, M1, M2)
        H_end = _assemble(traj.t_end, cfg_eps, traj, H0, M1, M2)
        rho_end = evolve(rho0, cfg_eps, traj, fock)
        e_full = energy_expectation(rho_end, H_end)
        e_adiab = _adiabatic_energy(rho0, H_start, H_end)
        ef = friction_energy(cfg_eps, bath, traj, compute_bound=False).value
        ratio = (e_full - e_adiab) / ef if ef != 0.0 else math.nan
        rows.append(ComparisonRow(eps, e_full, e_adiab, e_adiab + ef, ratio))

    r1, r2 = rows[0].ratio, rows[1].ratio
    e1, e2 = epsilons
    richardson = (r2 * e1 - r1 * e2) / (e1 - e2)
    return FrictionComparison(rows=tuple(rows), richardson_ratio=richardson)


def export_comparison(report: FrictionComparison, stream) -> None:
    """Comma-delimited comparison table, one row per compression ratio."""
    stream.write("epsilon,E_full,E_adiab,E_pert,ratio,richardson_ratio\n")
    for row in report.rows:
        stream.write(
            f"{row.epsilon:.17g},{row.E_full:.17g},{row.E_adiab:.17g},"
            f"{row.E_pert:.17g},{row.ratio:.17g},{report.richardson_ratio:.17g}\n"
        )
