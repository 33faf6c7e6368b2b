"""Independent cross-checks of the perturbative friction energy.

Everything else in this package rests on second-order perturbation theory.
This module validates it from the other side.  The driven Hamiltonian of
``n`` retained modes is

    H(t) = sum_k w_k N_k
         + dL(t)   * sum_k [ w_k' N_k + (w_k'/2) (a_k^+^2 + a_k^2) ]
         + dLdot(t)/ (2 i L0) * sum_{k!=j} g_kj sqrt(w_k/w_j)
               (a_k a_j - a_k^+ a_j + a_k a_j^+ - a_k^+ a_j^+)

with ``dL(t) = -L0 * eps * delta(t)``.  Every term is quadratic in the
ladder operators.  With ``xi = (x_1..x_n, p_1..p_n)`` and
``a = (x + i p)/sqrt(2)`` it reads ``H = xi^T h(t) xi / 2 - Tr h(t) / 4``,
where ``h = h0 + dL h1 + dLdot h2`` is real symmetric ``2n x 2n``:

* ``h0 = diag(w, w)``;
* ``h1`` holds ``2 w_k'`` on the ``x`` diagonal;
* ``h2 = [[0, C^T], [C, 0]]`` with ``C_kj = g_kj sqrt(w_k/w_j) / L0``.

The constant keeps ``H`` normal-ordered: ``<0|H|0> = 0``.  The Heisenberg
equation ``d xi/dt = J h(t) xi``, ``J = [[0, I], [-I, 0]]``, is linear, so
the stroke acts on the quadratures as one symplectic matrix ``S`` and a
covariance matrix evolves as ``sigma -> S sigma S^T`` (Serafini, *Quantum
Continuous Variables*, CRC 2017, ch. 3-5).  :func:`validate_friction`
propagates the thermal covariance through the stroke this way, with no
occupation cutoff, and compares the measured non-adiabatic energy against
the separable friction formula restricted to the same retained modes.

:func:`verify_trace_identities` tests operator ordering, so it stays in a
truncated Fock space: a product of per-mode ladders, mode 1 slowest, laid
out by :func:`_product` alone.  The thermal state is diagonal there, an
outer product of per-mode weights, and each trace is those weights against
the outer product of the per-mode strings' diagonals, so no ``d x d``
array is built.  Its dimension is capped at 1e5.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .friction import TruncationWarning, friction_energy, spectral_table
from .spectrum import (
    CavityConfig,
    ThermalBath,
    _warn,
    coupling_matrix,
    mode_frequencies,
    mode_frequency_derivative,
    occupations,
    thermal_occupation,
)
from .trajectory import Trajectory

__all__ = [
    "FockConfig",
    "OracleRangeError",
    "StepSizeError",
    "verify_trace_identities",
    "IdentityCheck",
    "IdentityReport",
    "validate_friction",
    "FrictionComparison",
    "export_comparison",
]

_DIM_CAP = 10**5
_FRICTION_MODES_MAX = 64


class OracleRangeError(ValueError):
    """An input outside the range the oracle is valid in.

    ``names`` are the parameters whose change brings it back in range:
    ``FockConfig`` fields, ``beta`` or ``epsilon``.
    """

    def __init__(self, message: str, *names: str) -> None:
        super().__init__(message)
        self.names = names


class StepSizeError(RuntimeError):
    """Free evolution drifted in energy; the step size is too coarse."""


@dataclass(frozen=True)
class FockConfig:
    """Mode count, Fock cutoff and integrator of the oracle.

    n_modes: retained field modes; 1..64 for the friction check, at least 3
        for the identity battery.
    n_max:   per-mode occupation cutoff of the identity battery, with
        ``(n_max + 1)**n_modes <= 1e5``; the friction check has no cutoff.
    dt:      propagation step; must satisfy dt * w_max <= 0.1.
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
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.integrator_order not in (2, 4):
            raise ValueError("integrator_order must be 2 or 4")

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) ** self.n_modes


def _destroy(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1.0)), k=1)


def _product(factors: dict[int, np.ndarray], fock: FockConfig) -> np.ndarray:
    """Flattened outer product (``np.kron``) over modes 1..n of the vectors
    ``factors.get(m, ones)``, mode 1 slowest: the one place the product
    basis is laid out, for diagonals (weights, operator-string diagonals).
    """
    ones = np.ones(fock.n_max + 1)
    vectors = [factors.get(m, ones) for m in range(1, fock.n_modes + 1)]
    return reduce(lambda a, b: np.multiply.outer(a, b).ravel(), vectors)


# ---------------------------------------------------------------------------
# the driven stroke in phase space
# ---------------------------------------------------------------------------

# the step exponential's Taylor degree: with dt * omega_max <= 0.1 the step
# generator has norm about 0.1 and the remainder is about 0.1**11 / 11!, 3e-19
_TAYLOR_DEGREE = 10
# step exponentials are stacked in blocks of about this many entries (8 MB):
# all 640 steps of 64 modes at once would hold several 170 MB arrays
_BLOCK_ENTRIES = 2**20

# fourth-order two-exponential composition on Gauss nodes
_GAUSS_SHIFT = math.sqrt(3.0) / 6.0
_CF4_X1 = 0.25 - _GAUSS_SHIFT
_CF4_X2 = 0.25 + _GAUSS_SHIFT


def _static_parts(cfg: CavityConfig, n_modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h0, h1, h2) with ``h(t) = h0 + dL(t) h1 + dLdot(t) h2`` on
    ``xi = (x_1..x_n, p_1..p_n)``; the wall motion does not enter them."""
    w = mode_frequencies(n_modes, cfg.L0)
    w_prime = np.array([mode_frequency_derivative(k, cfg.L0) for k in range(1, n_modes + 1)])
    C = coupling_matrix(n_modes) * np.sqrt(w[:, None] / w[None, :]) / cfg.L0
    zero = np.zeros((n_modes, n_modes))
    h0 = np.diag(np.concatenate([w, w]))
    h1 = np.diag(np.concatenate([2.0 * w_prime, np.zeros(n_modes)]))
    h2 = np.block([[zero, C.T], [C, zero]])
    return h0, h1, h2


def _forms(ts: np.ndarray, cfg: CavityConfig, traj: Trajectory, parts) -> np.ndarray:
    """``h(t)`` at every time of ``ts``, stacked along the leading axes."""
    h0, h1, h2 = parts
    dl = -cfg.L0 * cfg.epsilon * traj.delta(ts)
    dldot = -cfg.L0 * cfg.epsilon * traj.ddelta(ts)
    return h0 + dl[..., None, None] * h1 + dldot[..., None, None] * h2


def _symplectic_form(n_modes: int) -> np.ndarray:
    """``J = [[0, I], [-I, 0]]``."""
    eye, zero = np.eye(n_modes), np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


def _expm(A: np.ndarray) -> np.ndarray:
    """``exp(A)`` over the last two axes: its Taylor polynomial of degree
    ``_TAYLOR_DEGREE``, in Horner form."""
    eye = np.eye(A.shape[-1])
    E = eye + A / _TAYLOR_DEGREE
    for n in range(_TAYLOR_DEGREE - 1, 0, -1):
        E = eye + A @ E / n
    return E


def _propagator(
    cfg: CavityConfig,
    traj: Trajectory,
    fock: FockConfig,
    parts: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Symplectic matrix ``S`` of the stroke, ``xi(t_end) = S xi(t_start)``.

    Each step is the exponential of ``dt J h`` at the step midpoint (order
    2) or a two-stage commutator-free composition on the two Gauss points
    of the step (order 4), whose right factor acts first and leans on the
    early node.  The exponentials are taken stacked, a block of steps at a
    time, and multiplied as a pairwise tree of batched products, later
    factor on the left, an odd count carrying its last one up a level.  On
    a static wall the energy must be conserved to 1e-10.
    """
    w_max = mode_frequencies(fock.n_modes, cfg.L0)[-1]
    n_steps = max(1, math.ceil(traj.duration / fock.dt))
    dt = traj.duration / n_steps
    if dt * w_max > 0.1 + 1e-12:
        raise OracleRangeError(
            f"dt * omega_max = {dt * w_max:.3g} > 0.1; shrink FockConfig.dt", "dt"
        )
    if fock.integrator_order == 2:
        offsets, weights = np.array([0.5]), np.eye(1)
    else:
        offsets = np.array([0.5 - _GAUSS_SHIFT, 0.5 + _GAUSS_SHIFT])
        # row 0 is the late factor, row 1 the early one
        weights = np.array([[_CF4_X1, _CF4_X2], [_CF4_X2, _CF4_X1]])
    dim = 2 * fock.n_modes
    dtJ = dt * _symplectic_form(fock.n_modes)
    block = max(1, _BLOCK_ENTRIES // (len(offsets) * dim * dim))
    S = np.eye(dim)
    for first in range(0, n_steps, block):
        starts = traj.t_start + dt * np.arange(first, min(first + block, n_steps))
        forms = _forms(starts[:, None] + offsets * dt, cfg, traj, parts)
        steps = _expm(dtJ @ np.einsum("sr,nrij->nsij", weights, forms))
        factors = steps[:, ::-1].reshape(-1, dim, dim)  # earliest first
        while len(factors) > 1:
            n = len(factors)
            paired = factors[1::2] @ factors[: n - 1 : 2]
            factors = np.concatenate([paired, factors[n - 1 :]]) if n % 2 else paired
        S = factors[0] @ S
    if not np.any(traj.ddelta(np.linspace(traj.t_start, traj.t_end, 257))):
        # a static wall conserves the energy of every state: S^T h S = h
        h_wall = _forms(np.array(traj.t_start), cfg, traj, parts)
        drift = float(np.max(np.abs(S.T @ h_wall @ S - h_wall)))
        if drift > 1e-10 * max(1.0, float(np.max(np.abs(h_wall)))):
            raise StepSizeError(f"static-wall energy drifted by {drift:.2e}")
    return S


def _energy(h: np.ndarray, sigma: np.ndarray) -> float:
    """``<H> = Tr(h sigma)/2 - Tr(h)/4`` of a state with covariance ``sigma``."""
    return 0.5 * float(np.sum(h * sigma)) - 0.25 * float(np.trace(h))


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
    return _product(weights, work)


def _geometric_expectation(beta: float, omega: float, coeffs: tuple[int, ...]) -> float:
    """``E[f(N)]`` over the untruncated geometric distribution, exactly:
    ``f(n) = sum_r c_r n^(r)`` in falling factorials, whose moments are
    ``r! nbar**r``; this side of the check never touches the truncated
    matrices."""
    nbar = thermal_occupation(beta, omega)
    return sum(c * math.factorial(r) * nbar**r for r, c in enumerate(coeffs))


# Per-mode factors of the battery's strings, reduced by hand with [a, ad] = 1
# to polynomials in that mode's N, as the coefficients (c_0, c_1, ...) of
# sum_r c_r N^(r), N^(r) = N (N - 1) ... (N - r + 1); each comment names the
# factors reduced and the polynomial.
_N = (0, 1)  # N, ad a
_NP1 = (1, 1)  # a ad: n + 1
_NP1_SQ = (1, 3, 1)  # a N ad: (n + 1)^2
_FALL2 = (0, 0, 1)  # ad^2 a^2, ad N a: n (n - 1)
_FALL3 = (0, 0, 0, 1)  # ad^2 N a^2: n (n - 1) (n - 2)
_RISE2 = (2, 4, 1)  # a^2 ad^2: (n + 1) (n + 2)
_RISE2_NP2 = (4, 14, 8, 1)  # a^2 N ad^2: (n + 1) (n + 2)^2

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


# the battery with each label's factors parsed once
_IDENTITY_STRINGS = tuple(
    (label, _ladder_string(label), polys) for label, polys in _IDENTITIES.items()
)


def verify_trace_identities(
    beta: float, fock: FockConfig, cfg: CavityConfig
) -> IdentityReport:
    """Check normal-ordering trace identities on the truncated thermal state.

    Each bosonic operator string of ``_IDENTITIES`` reduces, by the
    commutation relations, to a product of per-mode polynomials in the
    number operators; its thermal trace then factorises into
    geometric-distribution moments, taken here as exact factorial moments
    ``E[N^(r)] = r! nbar**r``.  The numeric side multiplies the raw
    truncated ladder matrices into one operator string per mode (cross-mode
    factors commute); the thermal state is diagonal, so the trace is its
    weight vector against the outer product of the strings' diagonals
    (:func:`_product`), with no full-space matrix.  The
    comparison verifies both the operator algebra and the truncation
    quality.  Deviations are truncation-limited: the state carries no weight
    beyond ``n_max``, so they scale with the clipped thermal tail.
    """
    if fock.n_modes < 3:
        raise OracleRangeError("identity battery needs at least 3 retained modes", "n_modes")
    if fock.dimension > _DIM_CAP:
        raise OracleRangeError(
            f"truncated dimension {fock.dimension} exceeds cap {_DIM_CAP}", "n_max", "n_modes"
        )
    w = mode_frequencies(fock.n_modes, cfg.L0)
    # the state is truncated at n_max; the operators get two rungs of
    # headroom (the largest raising power in the battery) so the reordering
    # identities are probed without edge clipping at the cutoff
    work = replace(fock, n_max=fock.n_max + 2)
    p = _embedded_thermal_state(beta, fock, work, cfg)
    a = _destroy(work.n_max)
    ladder = {"a": a, "ad": a.T, "N": a.T @ a}  # N too from the raw ladder matrices
    eye = np.eye(work.n_max + 1)

    checks = []
    for label, factors, polys in _IDENTITY_STRINGS:
        per_mode: dict[int, np.ndarray] = {}
        for mode, kind in factors:
            per_mode[mode] = per_mode.get(mode, eye) @ ladder[kind]
        numeric = float(p @ _product({m: np.diag(op) for m, op in per_mode.items()}, work))
        closed = math.prod(
            _geometric_expectation(beta, w[m - 1], c) for m, c in zip(per_mode, polys, strict=True)
        )
        checks.append(IdentityCheck(label, numeric, closed))
    worst = max(c.deviation for c in checks)
    return IdentityReport(checks=tuple(checks), max_abs_deviation=worst)


# ---------------------------------------------------------------------------
# perturbation theory vs phase-space propagation
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
    """Phase-space energies against the second-order friction formula.

    ``ratio`` per row is ``(E_full - E_adiab) / E_F``; ``richardson_ratio``
    extrapolates the two rows to ``eps -> 0``, removing the leading
    next-order contamination.
    """

    rows: tuple[ComparisonRow, ...]
    richardson_ratio: float


def validate_friction(
    cfg: CavityConfig,
    bath: ThermalBath,
    traj: Trajectory,
    fock: FockConfig,
    epsilons: tuple[float, float] | None = None,
) -> FrictionComparison:
    """Measure the non-adiabatic energy directly and compare with E_F.

    For each compression ratio the thermal covariance
    ``diag(N + 1/2, N + 1/2)`` is propagated through the stroke.  The
    excess of the final energy over the population-preserving (adiabatic)
    value ``sum_k nu_k (N_k + 1/2) - Tr(h_end)/4``, with ``nu`` the sorted
    symplectic eigenvalues of the final ``h``, is divided by the friction
    formula restricted to the retained modes.  Mode sums on both sides use
    the same retained set, so the comparison probes the perturbative
    expansion, not the mode cutoff.  Where ``E_F`` does not exceed its
    round-off bound (a shortcut stroke), the ratio and its extrapolation
    are NaN and a RuntimeWarning says so.
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
    if fock.n_modes > _FRICTION_MODES_MAX:
        raise OracleRangeError(
            f"validate_friction retains at most {_FRICTION_MODES_MAX} modes", "n_modes"
        )
    # the static parts and the table depend on L0 and the mode count only
    parts = _static_parts(cfg, fock.n_modes)
    table = spectral_table(traj, replace(cfg, n_modes=fock.n_modes))
    h0 = parts[0]
    n_bar = occupations(bath.beta, mode_frequencies(fock.n_modes, cfg.L0))
    sigma0 = np.diag(np.tile(n_bar + 0.5, 2))
    J = _symplectic_form(fock.n_modes)
    rows = []
    for eps in epsilons:
        cfg_eps = replace(cfg, epsilon=eps, n_modes=fock.n_modes)
        h_start, h_end = _forms(np.array([traj.t_start, traj.t_end]), cfg_eps, traj, parts)
        if np.max(np.abs(h_start - h0)) > 1e-12 * float(np.max(h0)):
            raise ValueError(
                "adiabatic baseline requires the stroke to start at rest "
                "(delta = ddelta = 0), where H is the free Hamiltonian"
            )
        S = _propagator(cfg_eps, traj, fock, parts)
        e_full = _energy(h_end, S @ sigma0 @ S.T)
        # J h_end has the eigenvalues +-i nu_k
        nu = np.sort(np.abs(np.linalg.eigvals(J @ h_end).imag))[::2]
        e_adiab = float(nu @ (n_bar + 0.5)) - 0.25 * float(np.trace(h_end))
        with warnings.catch_warnings():
            # E_F is restricted to the retained modes on purpose, so the
            # modes it leaves out are no truncation to warn about here
            warnings.simplefilter("ignore", TruncationWarning)
            res = friction_energy(cfg_eps, bath, traj, table=table)
        ef = res.value
        if abs(ef) > res.err:
            ratio = (e_full - e_adiab) / ef
        else:
            ratio = math.nan
            _warn(
                f"E_F = {ef:.3e} at epsilon = {eps:g} does not exceed its "
                f"round-off bound {res.err:.3e}; ratio set to NaN",
                RuntimeWarning,
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
