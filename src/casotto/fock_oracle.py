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
propagates the thermal covariance of the cavity's ``n_modes`` modes
through the stroke this way, with no occupation cutoff, for the cavity's
``epsilon`` and half of it in one stacked pass, and compares the measured
non-adiabatic energy against the separable friction formula restricted to
the same retained modes.

:func:`verify_trace_identities` tests operator ordering, so it stays in a
truncated Fock space of the cavity's modes, ``n_max`` quanta each.  The
thermal state there is a product of per-mode weights and each operator
string a product of per-mode strings, so each trace is the product over
modes of the weights against that mode's string diagonal; no vector over
the product basis is built.  Its dimension is capped at 1e5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .friction import _per_bath, _stroke_cutoff, spectral_table
from .spectrum import (
    CavityConfig,
    ThermalBath,
    _warn,
    coupling_matrix,
    mode_frequencies,
    occupations,
)
from .trajectory import Trajectory

__all__ = [
    "OracleRangeError",
    "verify_trace_identities",
    "IdentityCheck",
    "IdentityReport",
    "validate_friction",
    "FrictionComparison",
]

_DIM_CAP = 10**5
# the most steps a stroke takes: 10**6 steps of 2 modes take 4-6 s on a
# 2-core Xeon host
_STEP_CAP = 10**6
_FRICTION_MODES_MAX = 64


class OracleRangeError(ValueError):
    """An input outside the range the oracle is valid in.

    ``names`` are the parameters whose change brings it back in range:
    ``n_modes``, ``n_max``, ``tau``, ``dt``, ``beta`` or ``epsilon``.
    """

    def __init__(self, message: str, *names: str) -> None:
        super().__init__(message)
        self.names = names


# ---------------------------------------------------------------------------
# the driven stroke in phase space
# ---------------------------------------------------------------------------

# the step exponential's Taylor degree: with dt * omega_max <= 0.1 the step
# generator has norm about 0.1 and the remainder is about 0.1**11 / 11!, 3e-19
_TAYLOR_DEGREE = 10
# step exponentials are stacked in blocks of about this many entries (8 MB):
# all 640 steps of 64 modes at once would hold several 170 MB arrays
_BLOCK_ENTRIES = 2**20

# fourth-order two-exponential commutator-free step on Gauss nodes (Blanes &
# Moan, Appl. Numer. Math. 56, 1519 (2006)): the nodes as fractions of the
# step and each factor's stage weights, row 0 the late factor, row 1 the early
_GAUSS_SHIFT = math.sqrt(3.0) / 6.0
_CF4_X1 = 0.25 - _GAUSS_SHIFT
_CF4_X2 = 0.25 + _GAUSS_SHIFT
_CF4_NODES = np.array([0.5 - _GAUSS_SHIFT, 0.5 + _GAUSS_SHIFT])
_CF4_WEIGHTS = np.array([[_CF4_X1, _CF4_X2], [_CF4_X2, _CF4_X1]])


def _static_parts(cfg: CavityConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h0, h1, h2) with ``h(t) = h0 + dL(t) h1 + dLdot(t) h2`` on
    ``xi = (x_1..x_n, p_1..p_n)`` of the cavity's ``n = cfg.n_modes`` modes;
    the wall motion does not enter them."""
    n_modes = cfg.n_modes
    w = mode_frequencies(n_modes, cfg.L0)
    # dw_k/dL as (-k pi)/L**2: -w_k/L differs in the last bit on about 12 % of modes
    w_prime = -np.arange(1, n_modes + 1) * math.pi / cfg.L0**2
    C = coupling_matrix(n_modes) * np.sqrt(w[:, None] / w[None, :]) / cfg.L0
    h0 = np.diag(np.concatenate([w, w]))
    h1 = np.diag(np.concatenate([2.0 * w_prime, np.zeros(n_modes)]))
    h2 = np.zeros((2 * n_modes, 2 * n_modes))  # assigned blockwise: np.block is slow
    h2[:n_modes, n_modes:], h2[n_modes:, :n_modes] = C.T, C
    return h0, h1, h2


def _forms(ts: np.ndarray, cfg: CavityConfig, traj: Trajectory, parts, eps=None) -> np.ndarray:
    """``h(t)`` at every time of ``ts``, stacked along the leading axes; an
    array ``eps`` of compression ratios replaces ``cfg.epsilon``, axis first."""
    h0, h1, h2 = parts
    eps = np.asarray(cfg.epsilon if eps is None else eps)
    scale = -cfg.L0 * eps.reshape(eps.shape + (1,) * np.ndim(ts))
    # einsum outer products summed in place: a broadcast product would take two buffers more
    forms = np.einsum("...,ij->...ij", scale * traj.delta(ts), h1)
    forms += h0
    forms += np.einsum("...,ij->...ij", scale * traj.ddelta(ts), h2)
    return forms


def _symplectic_form(n_modes: int) -> np.ndarray:
    """``J = [[0, I], [-I, 0]]``."""
    return np.eye(2 * n_modes, k=n_modes) - np.eye(2 * n_modes, k=-n_modes)


def _expm(A: np.ndarray) -> np.ndarray:
    """``exp(A)`` over the last two axes: its Taylor polynomial of degree
    ``_TAYLOR_DEGREE``, in Horner form, updated in place so that no more
    than three arrays the size of ``A`` are held at a time."""
    eye = np.eye(A.shape[-1])
    E = A / _TAYLOR_DEGREE
    E += eye
    for n in range(_TAYLOR_DEGREE - 1, 0, -1):
        E = A @ E
        E /= n
        E += eye
    return E


def _propagator(
    cfg: CavityConfig,
    traj: Trajectory,
    dt: float,
    parts: tuple[np.ndarray, np.ndarray, np.ndarray],
    eps: np.ndarray | None = None,
) -> np.ndarray:
    """Symplectic matrix ``S`` of the stroke on the cavity's ``n_modes``
    modes, ``xi(t_end) = S xi(t_start)``.

    The stroke takes equal steps of at most ``dt``, with ``dt * omega_max``
    at most 0.1.  Each step is the fourth-order two-stage commutator-free
    composition of exponentials of ``dt J h`` on the two Gauss points of
    the step, whose right factor acts first and leans on the early node.
    The exponentials are taken stacked, a block of steps at a time, and
    multiplied as a pairwise tree of batched products, later factor on the
    left, an odd count carrying its last one up a level.  An array ``eps``
    (see :func:`_forms`) stacks its strokes on a leading axis of ``S``,
    each slice that stroke's ``S`` bit for bit: a block keeps its step
    count.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    w_max = mode_frequencies(cfg.n_modes, cfg.L0)[-1]
    steps = traj.duration / dt
    if not steps <= _STEP_CAP:
        raise OracleRangeError(
            f"a stroke lasting {traj.duration:.3g} takes {steps:.3g} steps of "
            f"dt = {dt:.3g}, more than the cap {_STEP_CAP}", "tau", "dt"
        )
    n_steps = max(1, math.ceil(steps))
    dt = traj.duration / n_steps
    if dt * w_max > 0.1 + 1e-12:
        raise OracleRangeError(f"dt * omega_max = {dt * w_max:.3g} > 0.1; shrink dt", "dt")
    dim = 2 * cfg.n_modes
    dtJ = dt * _symplectic_form(cfg.n_modes)
    block = max(1, _BLOCK_ENTRIES // (len(_CF4_NODES) * dim * dim))
    S = np.eye(dim)
    for first in range(0, n_steps, block):
        starts = traj.t_start + dt * np.arange(first, min(first + block, n_steps))
        forms = _forms(starts[:, None] + _CF4_NODES * dt, cfg, traj, parts, eps)
        forms = dtJ @ np.einsum("sr,...nrij->...nsij", _CF4_WEIGHTS, forms)  # the generators
        # earliest first, one row of factors per epsilon
        factors = _expm(forms)[..., ::-1, :, :]
        factors = factors.reshape(-1, len(starts) * len(_CF4_NODES), dim, dim)
        while factors.shape[1] > 1:
            n = factors.shape[1]
            paired = factors[:, 1::2] @ factors[:, : n - 1 : 2]
            factors = np.concatenate([paired, factors[:, n - 1 :]], axis=1) if n % 2 else paired
        S = factors[:, 0] @ S
    return S.reshape(np.shape(eps) + (dim, dim))


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
    the truncated ladder matrices, taken as ``prod_m p_m . diag(F_m)``.
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
    beta: float, w: np.ndarray, n_max: int, rungs: int
) -> list[np.ndarray]:
    """Weights of the thermal state of modes with frequencies ``w``,
    truncated at ``n_max`` quanta per mode, on ``rungs`` levels per mode.

    The state is a product over modes of diagonal states, so it is returned
    as one weight vector per mode, mode 1 first.  Occupation weights beyond
    the cutoff are zero; the distribution is renormalised over the kept
    rungs.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive (or inf), got {beta}")
    if not math.isinf(beta):
        missed = math.exp(-beta * w[0] * (n_max + 1))
        if missed > 1e-6:
            raise OracleRangeError(
                f"occupation cutoff keeps only 1 - {missed:.2e} of the "
                "thermal weight; raise n_max or beta",
                "n_max",
                "beta",
            )
    n = np.arange(n_max + 1.0)
    weights = []
    for omega in w:
        p = np.zeros(rungs)
        p[: n_max + 1] = (n == 0) if math.isinf(beta) else np.exp(-beta * omega * n)
        weights.append(p / p.sum())
    return weights


def _geometric_expectation(nbar: float, coeffs: tuple[int, ...]) -> float:
    """``E[f(N)]`` over the untruncated geometric distribution of mean
    ``nbar``, exactly: ``f(n) = sum_r c_r n^(r)`` in falling factorials,
    whose moments are ``r! nbar**r``; this side of the check never touches
    the truncated matrices."""
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


# the battery with each label parsed once into per-mode strings, modes in the
# order they first appear; its distinct per-mode strings (the empty one too)
# and its distinct (mode, polynomial) moments
_IDENTITY_STRINGS = tuple(
    (label, {m: tuple(k for n, k in fs if n == m) for m, _ in fs}, polys)
    for label, polys in _IDENTITIES.items() for fs in [_ladder_string(label)]
)
_MODE_STRINGS = {()} | {k for _, per_mode, _ in _IDENTITY_STRINGS for k in per_mode.values()}
_MOMENTS = {mc for _, modes, polys in _IDENTITY_STRINGS for mc in zip(modes, polys, strict=True)}


def verify_trace_identities(beta: float, cfg: CavityConfig, n_max: int) -> IdentityReport:
    """Check normal-ordering trace identities on the thermal state of the
    cavity's ``n_modes`` modes, truncated at ``n_max`` quanta per mode.

    Each bosonic operator string of ``_IDENTITIES`` reduces, by the
    commutation relations, to a product of per-mode polynomials in the
    number operators; its thermal trace then factorises into
    geometric-distribution moments, taken here as exact factorial moments
    ``E[N^(r)] = r! nbar**r``.  The numeric side multiplies the raw
    truncated ladder matrices into one operator string per mode (cross-mode
    factors commute), each distinct string once per call; state and string
    are products over modes and the state is diagonal, so the trace is the
    product over modes of the weights against the string's diagonal, with
    nothing built over the product basis.  The comparison verifies both the
    operator algebra and the truncation quality.  Deviations are
    truncation-limited: the state carries no weight beyond ``n_max``, so
    they scale with the clipped thermal tail.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if cfg.n_modes < 3:
        raise OracleRangeError("identity battery needs at least 3 retained modes", "n_modes")
    # n_max >= 1, so from _DIM_CAP.bit_length() modes on even 2**n_modes
    # exceeds the cap: the power is formed only below that
    large = cfg.n_modes >= _DIM_CAP.bit_length()
    dimension = f"{n_max + 1}**{cfg.n_modes}" if large else (n_max + 1) ** cfg.n_modes
    if large or dimension > _DIM_CAP:
        raise OracleRangeError(
            f"truncated dimension {dimension} exceeds cap {_DIM_CAP}", "n_max", "n_modes"
        )
    w = mode_frequencies(cfg.n_modes, cfg.L0)
    # the state is truncated at n_max; the operators get two rungs of
    # headroom (the largest raising power in the battery) so the reordering
    # identities are probed without edge clipping at the cutoff
    rungs = n_max + 3
    p = _embedded_thermal_state(beta, w, n_max, rungs)
    a = np.diag(np.sqrt(np.arange(1.0, rungs)), k=1)
    ladder = {"a": a, "ad": a.T, "N": a.T @ a}  # N too from the raw ladder matrices
    eye = np.eye(rungs)
    diagonals = {k: np.diag(reduce(np.matmul, [ladder[f] for f in k], eye)) for k in _MODE_STRINGS}
    # each per-mode trace and each moment once, every string a product of them
    traces = {k: [float(q @ d) for q in p] for k, d in diagonals.items()}
    nbar = occupations(beta, w)
    moments = {(m, c): _geometric_expectation(float(nbar[m - 1]), c) for m, c in _MOMENTS}

    checks = []
    for label, per_mode, polys in _IDENTITY_STRINGS:
        numeric = math.prod(traces[per_mode.get(m, ())][m - 1] for m in range(1, len(p) + 1))
        closed = math.prod(moments[m, c] for m, c in zip(per_mode, polys))
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
    cfg: CavityConfig, bath: ThermalBath, traj: Trajectory, dt: float = 0.01
) -> FrictionComparison:
    """Measure the non-adiabatic energy directly and compare with E_F.

    The cavity's ``n_modes`` modes are retained, at most 64, and its
    ``epsilon``, at most 0.02, is compared with ``epsilon / 2``.  For each
    the thermal covariance ``diag(N + 1/2, N + 1/2)`` is propagated
    through the stroke in steps of at most ``dt`` (see :func:`_propagator`),
    both in one stacked pass.  The excess of the final energy over the
    population-preserving (adiabatic) value ``sum_k nu_k (N_k + 1/2) -
    Tr(h_end)/4``, with ``nu`` the sorted symplectic eigenvalues of the
    final ``h``, is divided by the friction formula restricted to the
    same modes, one (table, bath) product scaled by each ``eps**2``, so
    the comparison probes the perturbative expansion, not the mode
    cutoff.  Where ``E_F``
    does not exceed its round-off bound (a shortcut stroke) or the
    propagation's, ``n_steps * eps_machine * |E_full|`` (a slow stroke),
    the ratio and its extrapolation are NaN and a RuntimeWarning says so.
    """
    if cfg.epsilon > 0.02:
        raise OracleRangeError(
            "validate_friction needs eps <= 0.02 so the second order dominates", "epsilon"
        )
    if cfg.n_modes > _FRICTION_MODES_MAX:
        raise OracleRangeError(
            f"validate_friction retains at most {_FRICTION_MODES_MAX} modes", "n_modes"
        )
    epsilons = (cfg.epsilon, cfg.epsilon / 2.0)
    # the static parts and the table depend on L0 and the mode count only
    parts = _static_parts(cfg)
    table = spectral_table(traj, cfg)
    h0, stacked = parts[0], np.array(epsilons)
    h_start, h_end = np.swapaxes(
        _forms(np.array([traj.t_start, traj.t_end]), cfg, traj, parts, stacked), 0, 1
    )
    if np.max(np.abs(h_start - h0)) > 1e-12 * float(np.max(h0)):
        raise ValueError(
            "adiabatic baseline requires the stroke to start at rest "
            "(delta = ddelta = 0), where H is the free Hamiltonian"
        )
    # E_F / eps**2 and its round-off bound; E_F is restricted to the
    # retained modes on purpose, so its tail estimate is left unused
    value, noise, _ = _per_bath([table], cfg.L0, _stroke_cutoff(cfg, table), [bath.beta])[0][0]
    S = _propagator(cfg, traj, dt, parts, stacked)
    n_bar = occupations(bath.beta, mode_frequencies(cfg.n_modes, cfg.L0))
    sigma0 = np.diag(np.tile(n_bar + 0.5, 2))
    # J h_end has the eigenvalues +-i nu_k
    nus = np.sort(np.abs(np.linalg.eigvals(_symplectic_form(cfg.n_modes) @ h_end).imag))[:, ::2]
    # the propagation's round-off, n_steps * eps_machine, per unit |E_full|
    floor = max(1, math.ceil(traj.duration / dt)) * np.finfo(float).eps
    rows = []
    for eps, h, s, nu in zip(epsilons, h_end, S, nus):
        e_full = _energy(h, s @ sigma0 @ s.T)
        e_adiab = float(nu @ (n_bar + 0.5)) - 0.25 * float(np.trace(h))
        ef = eps**2 * value
        bound = max(eps**2 * noise, floor * abs(e_full))
        if abs(ef) > bound:
            ratio = (e_full - e_adiab) / ef
        else:
            ratio = math.nan
            _warn(
                f"E_F = {ef:.3e} at epsilon = {eps:g} does not exceed the "
                f"round-off bound {bound:.3e} of it and of the propagation; ratio set to NaN",
                RuntimeWarning,
            )
        rows.append(ComparisonRow(eps, e_full, e_adiab, e_adiab + ef, ratio))

    r1, r2 = rows[0].ratio, rows[1].ratio
    e1, e2 = epsilons
    richardson = (r2 * e1 - r1 * e2) / (e1 - e2)
    return FrictionComparison(rows=tuple(rows), richardson_ratio=richardson)
