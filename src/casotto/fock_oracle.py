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

The operators are dense matrices, so every one is inspectable.  Three exact
structures are used, and the second is checked where it is used:

* the space is a product of per-mode ladders, mode 1 slowest, and every
  operator or diagonal on it is a ``kron`` of per-mode factors, laid out by
  :func:`_product` alone.  Each term of ``H(t)`` is one such product: ``N``
  is the exact diagonal ``0..n_max`` and a coupling pair ``k != j`` is
  ``(a_k - a_k^+)(a_j + a_j^+)``, so no full-space matrix product is formed.
* every term of ``H(t)`` is quadratic in the ladder operators, so it
  conserves the total photon-number parity ``(-1)**sum_k N_k``, also on
  the truncated space.  :func:`evolve` orders the basis by parity and
  takes each step's exponential one sector at a time: two ``eigh`` calls
  of about ``d/2`` states instead of one of ``d``.  The state keeps its
  cross-parity blocks.
* the thermal state is diagonal in the product Fock basis, a ``kron`` of
  per-mode weights.  :func:`verify_trace_identities` takes each trace as
  those weights against the diagonal of the ``kron`` of per-mode operator
  strings, so it builds no ``d x d`` array.

Dimensions are capped at 1e5.  That bounds the identity battery's weight
vectors; :func:`evolve` holds several dense ``d x d`` complex matrices
(``16 d**2`` bytes each), which keeps it to a few thousand states in
practice; the tests go up to 1331.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import reduce
from itertools import permutations

import numpy as np

from .friction import friction_energy
from .spectrum import (
    CavityConfig,
    ThermalBath,
    coupling_g,
    mode_frequencies,
    mode_frequency_derivative,
    occupations,
)
from .trajectory import Trajectory

__all__ = [
    "FockConfig",
    "OracleRangeError",
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


class OracleRangeError(ValueError):
    """An input outside the range the oracle is valid in.

    ``names`` are the parameters whose change brings it back in range:
    ``FockConfig`` fields, ``beta`` or ``epsilon``.
    """

    def __init__(self, message: str, *names: str) -> None:
        super().__init__(message)
        self.names = names


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


def _product(factors: dict[int, np.ndarray], fock: FockConfig, fill: np.ndarray) -> np.ndarray:
    """``kron`` over modes 1..n of ``factors.get(m, fill)``, mode 1 slowest.

    The one place the product basis is laid out: with ``fill`` the identity
    this lifts per-mode operators to the full space, with ``fill`` a vector
    it builds a diagonal (weights, occupations, parities) from per-mode ones.
    """
    return reduce(np.kron, [factors.get(m, fill) for m in range(1, fock.n_modes + 1)])


def lowering_operator(mode: int, fock: FockConfig) -> np.ndarray:
    """Annihilation operator of one mode on the truncated product space."""
    if not 1 <= mode <= fock.n_modes:
        raise ValueError(f"mode {mode} outside 1..{fock.n_modes}")
    return _product({mode: _destroy(fock.n_max)}, fock, np.eye(fock.n_max + 1))


def _static_parts(cfg: CavityConfig, fock: FockConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H0, M1, M2): H(t) = H0 + dL(t)*M1 + dLdot(t)*M2, all Hermitian.

    Every term is a ``kron`` of per-mode factors: ``N`` is the exact
    diagonal ``0..n_max``, and each coupling pair ``k != j`` is the single
    product ``(a_k - a_k^+)(a_j + a_j^+)``.  H0 and M1 are real symmetric
    term by term; M2 is assembled as Z + Z^+ with Z = Y/(4i), which is
    Hermitian by construction in floating point.
    """
    w = mode_frequencies(fock.n_modes, cfg.L0)
    a = _destroy(fock.n_max)
    n = np.diag(np.arange(fock.n_max + 1.0))
    eye = np.eye(fock.n_max + 1)
    modes = range(1, fock.n_modes + 1)

    H0 = sum(w[k - 1] * _product({k: n}, fock, eye) for k in modes)
    squeeze = n + 0.5 * (a @ a + a.T @ a.T)
    M1 = sum(
        mode_frequency_derivative(k, cfg.L0) * _product({k: squeeze}, fock, eye) for k in modes
    )
    Y = np.zeros((fock.dimension,) * 2)
    for k, j in permutations(modes, 2):
        coeff = coupling_g(k, j) * math.sqrt(w[k - 1] / w[j - 1]) / cfg.L0
        Y += coeff * _product({k: a - a.T, j: a + a.T}, fock, eye)
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
    rho = np.diag(_embedded_thermal_state(beta, fock, fock, cfg)).astype(complex)
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
    """Per-mode ``Tr(rho N_k)`` for comparison with the untruncated values.

    ``N_k`` is diagonal, so the trace is ``Re diag(rho)`` against its diagonal.
    """
    p = np.real(np.diag(rho))
    n, ones = np.arange(fock.n_max + 1.0), np.ones(fock.n_max + 1)
    return np.array([p @ _product({k: n}, fock, ones) for k in range(1, fock.n_modes + 1)])


def _expm_unitary(blocks: list[np.ndarray], dt: float) -> list[np.ndarray]:
    """exp(-i dt H) for a block-diagonal Hermitian H, one ``eigh`` per block.

    Returns the exponential's diagonal blocks; each is exactly unitary.
    """
    out = []
    for H in blocks:
        vals, vecs = np.linalg.eigh(H)
        out.append((vecs * np.exp(-1j * dt * vals)) @ vecs.conj().T)
    return out


def _sector_parts(
    static: tuple[np.ndarray, np.ndarray, np.ndarray], fock: FockConfig
) -> tuple[np.ndarray, tuple[slice, slice], list[tuple[np.ndarray, ...]]]:
    """(order, sectors, blocks): ``static = (H0, M1, M2)`` split by
    photon-number parity.

    Every term of ``H(t)`` is quadratic in the ladder operators, so the
    parity ``(-1)**sum_k N_k`` commutes with it; a truncated ``a`` still
    moves ``n`` by exactly one, so this holds on the truncated space too.
    ``blocks[s]`` holds the three matrices restricted to ``sectors[s]`` of
    the basis reordered by ``order``.  Raises if any cross-sector entry is
    non-zero.
    """
    # (-1)**sum_k N_k is the product of the per-mode parities
    odd = _product({}, fock, (-1.0) ** np.arange(fock.n_max + 1)) < 0
    order, n_even = np.argsort(odd, kind="stable"), int(np.count_nonzero(~odd))
    sectors = (slice(0, n_even), slice(n_even, fock.dimension))
    perm = [X[np.ix_(order, order)] for X in static]
    for name, X in zip(("H0", "M1", "M2"), perm):
        if np.any(X[:n_even, n_even:]) or np.any(X[n_even:, :n_even]):
            raise RuntimeError(
                f"{name} couples the photon-number parity sectors; the "
                "blockwise propagator would be wrong"
            )
    return order, sectors, [tuple(X[s, s] for X in perm) for s in sectors]


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
    each step (order 4).  ``H(t)`` conserves photon-number parity, so each
    step's unitary is block-diagonal in the parity sectors and is taken one
    sector at a time; ``rho`` keeps all four blocks, so cross-parity
    coherences of ``rho0`` are propagated, not dropped.  Each step is
    exactly unitary, so the trace is preserved to roundoff.  When the
    trajectory is static the energy drift is measured and must stay below
    1e-10.
    """
    return _evolve(rho0, cfg, traj, fock, _static_parts(cfg, fock))


def _evolve(
    rho0: np.ndarray,
    cfg: CavityConfig,
    traj: Trajectory,
    fock: FockConfig,
    parts: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """:func:`evolve` with the static parts ``(H0, M1, M2)`` of ``H(t)``
    given, so a caller that evolves several states builds them once."""
    dim = fock.dimension
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho has shape {rho0.shape}, expected {(dim, dim)}")
    w_max = mode_frequencies(fock.n_modes, cfg.L0)[-1]
    n_steps = max(1, math.ceil(traj.duration / fock.dt))
    h = traj.duration / n_steps
    if h * w_max > 0.1 + 1e-12:
        raise OracleRangeError(
            f"dt * omega_max = {h * w_max:.3g} > 0.1; shrink FockConfig.dt", "dt"
        )

    H0, M1, M2 = parts
    order, sectors, blocks = _sector_parts(parts, fock)
    grid = traj.t_start + h * np.arange(n_steps + 1)
    static = bool(np.max(np.abs(traj.ddelta(np.linspace(traj.t_start, traj.t_end, 257)))) == 0.0)
    e_start = float(np.real(np.einsum("ij,ji->", rho0, _assemble(grid[0], cfg, traj, H0, M1, M2))))

    if fock.integrator_order == 2:
        offsets = np.array([0.5])
    else:
        offsets = np.array([0.5 - _GAUSS_SHIFT, 0.5 + _GAUSS_SHIFT])
    nodes = grid[:-1, None] + offsets * h
    dl = -cfg.L0 * cfg.epsilon * traj.delta(nodes)
    dldot = -cfg.L0 * cfg.epsilon * traj.ddelta(nodes)

    def generator(i: int, stage: int) -> list[np.ndarray]:
        return [A0 + dl[i, stage] * A1 + dldot[i, stage] * A2 for A0, A1, A2 in blocks]

    rho = rho0[np.ix_(order, order)].astype(complex)
    for i in range(n_steps):
        if fock.integrator_order == 2:
            U = _expm_unitary(generator(i, 0), h)
        else:
            G1, G2 = generator(i, 0), generator(i, 1)
            # right factor acts first and leans on the early node
            late = _expm_unitary([_CF4_X1 * a + _CF4_X2 * b for a, b in zip(G1, G2)], h)
            early = _expm_unitary([_CF4_X2 * a + _CF4_X1 * b for a, b in zip(G1, G2)], h)
            U = [x @ y for x, y in zip(late, early)]
        for s, u in zip(sectors, U):
            rho[s] = u @ rho[s]
        for s, u in zip(sectors, U):
            rho[:, s] = rho[:, s] @ u.conj().T
        rho = 0.5 * (rho + rho.conj().T)
    out = np.empty_like(rho)
    out[np.ix_(order, order)] = rho

    if static:
        e_end = float(np.real(np.einsum("ij,ji->", out, _assemble(grid[-1], cfg, traj, H0, M1, M2))))
        drift = abs(e_end - e_start)
        if drift > 1e-10 * max(1.0, abs(e_start)):
            raise StepSizeError(f"static-wall energy drifted by {drift:.2e}")
    return out


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
    """One trace identity: the truncated thermal trace vs its analytic
    closed form.

    ``numeric`` is ``Tr(rho F)`` for the operator string ``F`` built from
    the truncated ladder matrices, summed over the product Fock basis as
    ``sum_i p_i F_ii`` with ``p`` the diagonal thermal state.
    """

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
    """Weights of the thermal state truncated at ``state.n_max``, embedded
    in ``work``.

    The state is diagonal in the product Fock basis, so it is returned as
    its diagonal: one weight per basis state, in the order of
    :func:`_product`.  Occupation weights beyond the state cutoff are zero;
    the distribution is renormalised over the kept rungs.
    :func:`thermal_state` is the case ``work == state``, as a dense matrix.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive (or inf), got {beta}")
    w = mode_frequencies(state.n_modes, cfg.L0)
    if not math.isinf(beta):
        missed = math.exp(-beta * w[0] * (state.n_max + 1))
        if missed > 1e-6:
            raise OracleRangeError(
                f"occupation cutoff keeps only 1 - {missed:.2e} of the "
                "thermal weight; raise n_max or beta",
                "n_max",
                "beta",
            )
    n = np.arange(state.n_max + 1.0)
    weights = {}
    for k in range(1, state.n_modes + 1):
        p = np.zeros(work.n_max + 1)
        p[: state.n_max + 1] = (n == 0) if math.isinf(beta) else np.exp(-beta * w[k - 1] * n)
        weights[k] = p / p.sum()
    return _product(weights, work, np.ones(work.n_max + 1))


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


# Per-mode factors of the battery's strings, reduced by hand with [a, ad] = 1
# to polynomials in that mode's N (the comment names the factors reduced).
_N = lambda n: n  # N, ad a
_NP1 = lambda n: n + 1  # a ad
_NP1_SQ = lambda n: (n + 1) * (n + 1)  # a N ad
_FALL2 = lambda n: n * (n - 1)  # ad^2 a^2, ad N a
_FALL3 = lambda n: n * (n - 1) * (n - 2)  # ad^2 N a^2
_RISE2 = lambda n: (n + 1) * (n + 2)  # a^2 ad^2
_RISE2_NP2 = lambda n: (n + 1) * (n + 2) * (n + 2)  # a^2 N ad^2

# The identity battery in output order: each operator string with the
# polynomials of its modes, in the order the modes first appear in it.  A
# sandwiched N_k that shares a mode with the string changes that mode's
# polynomial (the Kronecker-delta corrections).
_IDENTITIES = {
    # N_k on the right of the string
    "ad1^2 a1^2 N2": (_FALL2, _N),
    "a1^2 ad1^2 N2": (_RISE2, _N),
    "ad2^2 a2^2 N3": (_FALL2, _N),
    "a2^2 ad2^2 N3": (_RISE2, _N),
    "ad3^2 a3^2 N1": (_FALL2, _N),
    "a3^2 ad3^2 N1": (_RISE2, _N),
    "a1 a2 ad1 ad2 N3": (_NP1, _NP1, _N),
    "ad1 a2 a1 ad2 N3": (_N, _NP1, _N),
    "ad1 ad2 a1 a2 N3": (_N, _N, _N),
    "a2 a3 ad2 ad3 N1": (_NP1, _NP1, _N),
    "ad2 a3 a2 ad3 N1": (_N, _NP1, _N),
    "ad2 ad3 a2 a3 N1": (_N, _N, _N),
    "a3 a1 ad3 ad1 N2": (_NP1, _NP1, _N),
    "ad3 a1 a3 ad1 N2": (_N, _NP1, _N),
    "ad3 ad1 a3 a1 N2": (_N, _N, _N),
    # N_k sandwiched inside the string
    "ad1^2 N2 a1^2": (_FALL2, _N),
    "a1^2 N2 ad1^2": (_RISE2, _N),
    "ad1^2 N1 a1^2": (_FALL3,),
    "a1^2 N1 ad1^2": (_RISE2_NP2,),
    "ad2^2 N1 a2^2": (_FALL2, _N),
    "a2^2 N1 ad2^2": (_RISE2, _N),
    "a1 a2 N3 ad1 ad2": (_NP1, _NP1, _N),
    "ad1 a2 N3 a1 ad2": (_N, _NP1, _N),
    "ad1 ad2 N3 a1 a2": (_N, _N, _N),
    "a1 a2 N1 ad1 ad2": (_NP1_SQ, _NP1),
    "ad1 a2 N1 a1 ad2": (_FALL2, _NP1),
    "ad1 ad2 N1 a1 a2": (_FALL2, _N),
    "a1 a2 N2 ad1 ad2": (_NP1, _NP1_SQ),
    "ad1 a2 N2 a1 ad2": (_N, _NP1_SQ),
    "ad1 ad2 N2 a1 a2": (_N, _FALL2),
}


def _ladder_string(label: str) -> tuple[tuple[int, str], ...]:
    """``(mode, kind)`` per factor of an identity label, left to right:
    ``"ad1^2 N1 a1^2"`` -> ``((1, "ad"), (1, "ad"), (1, "N"), (1, "a"), (1, "a"))``.
    """
    out: list[tuple[int, str]] = []
    for token in label.split():
        name, _, power = token.partition("^")
        kind = name.rstrip("0123456789")
        out += [(int(name[len(kind):]), kind)] * int(power or 1)
    return tuple(out)


def verify_trace_identities(
    beta: float, fock: FockConfig, cfg: CavityConfig
) -> IdentityReport:
    """Check normal-ordering trace identities on the truncated thermal state.

    Each bosonic operator string of ``_IDENTITIES`` reduces, by the
    commutation relations, to a product of per-mode polynomials in the
    number operators; its thermal trace then factorises into
    geometric-distribution moments, evaluated here by direct series
    summation.  The numeric side multiplies the raw truncated ladder
    matrices into one operator string per mode (cross-mode factors commute);
    the thermal state is diagonal, so the trace is its weight vector against
    the ``kron`` of the strings' diagonals, with no full-space matrix.  The
    comparison verifies both the operator algebra and the truncation
    quality.  Deviations are truncation-limited: the state carries no weight
    beyond ``n_max``, so they scale with the clipped thermal tail.
    """
    if fock.n_modes < 3:
        raise OracleRangeError("identity battery needs at least 3 retained modes", "n_modes")
    w = mode_frequencies(fock.n_modes, cfg.L0)
    # the state is truncated at n_max; the operators get two rungs of
    # headroom (the largest raising power in the battery) so the reordering
    # identities are probed without edge clipping at the cutoff
    work = replace(fock, n_max=fock.n_max + 2)
    p = _embedded_thermal_state(beta, fock, work, cfg)
    a = _destroy(work.n_max)
    ladder = {"a": a, "ad": a.T, "N": a.T @ a}  # N too from the raw ladder matrices
    eye, ones = np.eye(work.n_max + 1), np.ones(work.n_max + 1)

    checks = []
    for label, polys in _IDENTITIES.items():
        per_mode: dict[int, np.ndarray] = {}
        for mode, kind in _ladder_string(label):
            per_mode[mode] = per_mode.get(mode, eye) @ ladder[kind]
        numeric = float(p @ _product({m: np.diag(op) for m, op in per_mode.items()}, work, ones))
        closed = math.prod(
            _geometric_expectation(beta, w[m - 1], f) for m, f in zip(per_mode, polys, strict=True)
        )
        checks.append(IdentityCheck(label, numeric, closed))
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
    perturbative expansion, not the mode cutoff.  Where ``E_F`` does not
    exceed its round-off bound (a shortcut stroke), the ratio and its
    extrapolation are NaN and a RuntimeWarning says so.
    """
    if epsilons is None:
        epsilons = (cfg.epsilon, cfg.epsilon / 2.0)
    if len(epsilons) != 2 or epsilons[0] == epsilons[1]:
        raise ValueError(
            f"validate_friction needs two distinct epsilons to extrapolate, got {epsilons}"
        )
    if any(e > 0.02 for e in epsilons):
        raise OracleRangeError(
            "validate_friction needs eps <= 0.02 so the second order dominates", "epsilon"
        )
    # the static parts depend on L0 and the truncation, not on epsilon
    parts = _static_parts(cfg, fock)
    rows = []
    for eps in epsilons:
        cfg_eps = replace(cfg, epsilon=eps, n_modes=fock.n_modes)
        rho0 = thermal_state(bath.beta, fock, cfg_eps)
        H_start = _assemble(traj.t_start, cfg_eps, traj, *parts)
        H_end = _assemble(traj.t_end, cfg_eps, traj, *parts)
        rho_end = _evolve(rho0, cfg_eps, traj, fock, parts)
        e_full = energy_expectation(rho_end, H_end)
        e_adiab = _adiabatic_energy(rho0, H_start, H_end)
        res = friction_energy(cfg_eps, bath, traj, compute_bound=False)
        ef = res.value
        if abs(ef) > res.err:
            ratio = (e_full - e_adiab) / ef
        else:
            ratio = math.nan
            warnings.warn(
                f"E_F = {ef:.3e} at epsilon = {eps:g} does not exceed its "
                f"round-off bound {res.err:.3e}; ratio set to NaN",
                RuntimeWarning,
                stacklevel=2,
            )
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
