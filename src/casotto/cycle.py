"""Four-stroke cycle thermodynamics of the cavity field.

The cycle alternates thermal contact and isolated wall strokes:

  A. thermalise with the cold bath (inverse temperature ``beta_A``) at L0;
  B. compress L0 -> L1 = L0(1 - eps) along a profile of duration tau;
  C. thermalise with the hot bath (``beta_C``) at L1;
  D. expand back L1 -> L0 along the time-reversed profile.

In the adiabatic limit mode populations are frozen during the strokes and
the equidistant spectrum gives the closed results: engine efficiency
``eta = eps`` (independent of the baths) and refrigerator coefficient of
performance ``1/eps - 1``.  At finite stroke time the friction energies of
the two strokes enter with the sign dictated by the machine's bookkeeping:

  engine:       Q = Q_ad - E_F(A),  W = W_ad - (E_F(A) + E_F(C))
  refrigerator: Q = Q_ad - E_F(C),  W = W_ad + E_F(A) + E_F(C)

where E_F(A) is generated compressing out of the cold thermal state and
E_F(C) expanding out of the hot one.  Time reversal only rotates the phase
of the wall velocity's spectral amplitudes, so the friction kernel is
direction independent and both energies are read from one spectral table
of the forward profile.

Heat and work are assembled directly from occupation differences, never
from stroke energies, so the static vacuum offsets cancel identically: the
reported Q and W are bit-for-bit independent of whether the Casimir energy
is included in the stroke energies E_A..E_D.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .friction import (
    SpectralTable,
    TruncationWarning,
    _per_bath,
    _stroke_cutoff,
    _truncation_flag,
    _warn_truncation,
    spectral_table,
)
from .spectrum import (
    CavityConfig,
    _require_finite,
    _warn,
    casimir_energy,
    mode_frequencies,
    occupations,
)
from .trajectory import Trajectory

__all__ = [
    "BathPair",
    "CycleReport",
    "ConditionWarning",
    "adiabatic_engine",
    "nonadiabatic_engine",
    "adiabatic_refrigerator",
    "nonadiabatic_refrigerator",
    "sweep",
    "SweepRow",
]


class ConditionWarning(UserWarning):
    """The bath pair sits outside the stated operating window of the machine."""


@dataclass(frozen=True)
class BathPair:
    """Cold (A) and hot (C) baths; A must not be hotter than C."""

    beta_A: float
    beta_C: float

    def __post_init__(self) -> None:
        if not self.beta_C > 0:
            raise ValueError(f"beta_C must be positive, got {self.beta_C}")
        if not self.beta_A >= self.beta_C:
            raise ValueError(
                f"bath A must be the colder one: beta_A={self.beta_A} < beta_C={self.beta_C}"
            )

    @property
    def ratio(self) -> float:
        """Temperature ratio ``beta_C / beta_A`` (cold over hot, <= 1)."""
        if math.isinf(self.beta_A):
            return 0.0
        return self.beta_C / self.beta_A

    @property
    def carnot_efficiency(self) -> float:
        return 1.0 - self.ratio


@dataclass
class CycleReport:
    """One full cycle: stroke energies, heat, work, figures of merit.

    Engine convention: ``Q`` is the heat absorbed from the hot bath and
    ``W`` the work extracted.  Refrigerator convention: ``Q`` is the heat
    pulled from the cold bath and ``W`` the work consumed.  ``eta`` is the
    efficiency (engine) or coefficient of performance (refrigerator);
    ``eta_defined`` is False when the denominator is degenerate, in which
    case ``eta`` holds the analytic limiting value.  ``power`` is
    ``W / (2 tau + thermalization_time)`` for finite-time cycles and NaN for
    adiabatic ones.  ``err`` is the summed round-off bound of the two stroke
    frictions (0.0 for adiabatic cycles).  ``tail_estimate`` is the
    truncation tail of the population-frozen heat sum only; the strokes'
    friction tails are not in it.  ``tail_warning`` is set by that tail
    exceeding ``tail_tol * |Q_ad|`` or by either stroke's own truncation
    flag, so it can be True beside a negligible ``tail_estimate``.
    """

    E_A: float
    E_B: float
    E_C: float
    E_D: float
    Q: float
    W: float
    eta: float
    eta_adiabatic: float
    power: float
    mode: str
    E_F_A: float
    E_F_C: float
    k_used: int
    eta_defined: bool = True
    eta_second_order: float = math.nan
    tail_estimate: float = math.nan
    tail_warning: bool = False
    q_convention: str = ""
    err: float = 0.0


@functools.lru_cache(maxsize=1024)
@np.errstate(over="ignore", invalid="ignore")
def _otto_sums(
    cfg: CavityConfig, baths: BathPair, machine: str = "engine"
) -> tuple[float, ...]:
    """Population-frozen heat/work in ``machine``'s bookkeeping and stroke sums.

    Returns the seven floats ``(Q_ad, W_ad, tail, sum_w0_nA, sum_w1_nA,
    sum_w1_nC, sum_w0_nC)``, the last four the occupation-weighted
    frequency sums needed for the stroke energies.
    Occupations of the hot bath are evaluated at the compressed-cavity
    frequencies exactly.  The engine takes its heat at the compressed
    frequencies, the refrigerator at the rest frequencies.

    The sums do not depend on the stroke, so they are cached: a sweep
    computes them once per (bath, eps) cell, not once per tau.  The result
    is read-only; the tail warning is raised by the caller on every call.
    Raises ValueError naming the bath whose sums overflow.
    """
    K = cfg.n_modes
    w0 = mode_frequencies(K, cfg.L0)
    w1 = mode_frequencies(K, cfg.L1)
    nA = occupations(baths.beta_A, w0)
    nC = occupations(baths.beta_C, w1)
    if machine == "engine":
        dn = nC - nA
        terms_Q = w1 * dn
    else:
        dn = nA - nC
        terms_Q = w0 * dn
    Q_ad = float(np.sum(terms_Q))
    # w1 - w0 = w0 * eps / (1 - eps), evaluated without cancellation
    dw = w0 * (cfg.epsilon / (1.0 - cfg.epsilon))
    W_ad = float(np.sum(dw * dn))
    # geometric tail of the last heat terms (occupation differences decay
    # exponentially in k)
    tail = math.nan
    if K >= 4 and abs(terms_Q[-2]) > 0:
        rho = abs(terms_Q[-1]) / abs(terms_Q[-2])
        if 0.0 < rho < 1.0:
            tail = abs(terms_Q[-1]) * rho / (1.0 - rho)
        else:
            tail = math.inf
    cold = (float(np.sum(w0 * nA)), float(np.sum(w1 * nA)))
    hot = (float(np.sum(w1 * nC)), float(np.sum(w0 * nC)))
    what = "population-frozen sums"
    _require_finite(all(map(math.isfinite, cold)), "beta_A", baths.beta_A, what, K)
    _require_finite(all(map(math.isfinite, (Q_ad, W_ad, *hot))), "beta_C", baths.beta_C, what, K)
    return (Q_ad, W_ad, tail, *cold, *hot)


def _safe_ratio(num, den, limit):
    """num/den with a degeneracy guard, elementwise; returns (value, defined).

    Where the quotient is not finite, as it never is for a zero ``den``,
    the value is ``limit``; call under ``np.errstate`` that ignores the
    division."""
    ratio = num / den
    defined = np.isfinite(ratio)
    return np.where(defined, ratio, limit)[()], defined


@dataclass(frozen=True)
class _Machine:
    """What tells the engine's bookkeeping from the refrigerator's.

    ``heat`` and ``work`` take the population-frozen value and the two
    stroke frictions (E_F(A), E_F(C)); each keeps its own floating-point
    association.  ``merit`` orders (Q, W) as (numerator, denominator) of
    the figure of merit, whose population-frozen value is ``limit(eps)``.
    These and ``runs`` work elementwise on arrays; ``in_window`` takes one
    bath ratio and one eps.
    """

    heat: Callable
    work: Callable
    merit: Callable
    limit: Callable
    runs: Callable
    in_window: Callable[[float, float], bool]
    window_text: str
    q_convention: str
    second_order: Callable | None = None


_MACHINES = {
    "engine": _Machine(
        heat=lambda Q_ad, ef_a, ef_c: Q_ad - ef_a,
        work=lambda W_ad, ef_a, ef_c: W_ad - (ef_a + ef_c),
        merit=lambda Q, W: (W, Q),
        limit=lambda eps: eps,
        runs=lambda Q, W: (Q > 0) & (W > 0),
        # Q_ad > 0 requires beta_C * w_k(L1) <= beta_A * w_k, i.e. the Otto
        # efficiency eps must not exceed the Carnot efficiency 1 - beta_C/beta_A
        in_window=lambda ratio, eps: ratio <= 1.0 - eps,
        window_text=(
            "bath ratio beta_C/beta_A = {ratio:.4g} exceeds 1 - eps = {rest:.4g}: "
            "no positive heat intake, not an engine regime"
        ),
        q_convention="Q = Q_adiabatic - E_F(cold compression stroke)",
        second_order=lambda eta_ad, Q_ad, friction: eta_ad - friction / Q_ad,
    ),
    "refrigerator": _Machine(
        heat=lambda Q_ad, ef_a, ef_c: Q_ad - ef_c,
        work=lambda W_ad, ef_a, ef_c: W_ad + ef_a + ef_c,
        merit=lambda Q, W: (Q, W),
        limit=lambda eps: 1.0 / eps - 1.0,
        runs=lambda Q, W: Q > 0,
        in_window=lambda ratio, eps: 1.0 - eps <= ratio <= 1.0,
        window_text=(
            "refrigerator needs 1 - eps <= beta_C/beta_A <= 1, got {ratio:.4g} "
            "with eps = {eps:.4g}"
        ),
        q_convention="Q = Q_adiabatic - E_F(hot expansion stroke)",
    ),
}


def _operands(stack: np.ndarray) -> list:
    """The operands stacked on the first axis of ``stack``; one-element
    operands as numpy scalars, which broadcast alike but skip the array
    machinery, so a one-cell grid costs little more than scalar code."""
    return list(stack.reshape(len(stack)) if stack[0].size == 1 else stack)


def _cycles(
    cavities: Sequence[CavityConfig],
    baths: Sequence[BathPair],
    machine: str,
    tables: Sequence[SpectralTable | None] = (),
    periods: Sequence[float] = (),
    *,
    include_casimir: bool,
) -> tuple[list[CycleReport], object, object, tuple, tuple]:
    """Cycles of ``machine`` over a (bath, eps, tau) grid, each rule run once.

    ``cavities`` (one per eps) differ only in epsilon.  Without ``tables``
    the strokes are adiabatic (one tau column, zero friction, NaN power);
    else tau ``t`` takes both frictions from the checked ``tables[t]`` (None
    for a failed tau: NaN cells) and has cycle period ``periods[t]``.  Each
    (table, bath) product is taken once, in one :func:`_per_bath` call.
    Returns the reports in (bath, eps, tau) order, the population-frozen
    heat and its truncation flag, and the flags and tail estimates (per
    unit ``eps**2``) of strokes A and C; both empty without ``tables``.
    """
    m = _MACHINES[machine]
    cfg = cavities[0]
    B, E, T = len(baths), len(cavities), max(len(tables), 1)
    sums = np.array([_otto_sums(c, bath, machine) for bath in baths for c in cavities])
    Q_ad, W_ad, tail, w0_nA, w1_nA, w1_nC, w0_nC = _operands(sums.T.reshape(7, B, E, 1))
    e0 = casimir_energy(cfg.L0) if include_casimir else 0.0
    eps, eps2, e1 = _operands(np.array([
        (c.epsilon, c.epsilon**2, casimir_energy(c.L1) if include_casimir else 0.0)
        for c in cavities
    ]).T.reshape(3, E, 1))
    if tables:
        # betas outside taus: each kernel is built once, even when there
        # are more of them than the kernel cache keeps; one tail fit for all
        betas = list(dict.fromkeys(b for bath in baths for b in (bath.beta_A, bath.beta_C)))
        terms = dict(zip(betas, _per_bath(tables, cfg.L0, cfg.n_modes, betas)))
        # per stroke A then C: E_F / eps**2, round-off bound, tail estimate
        value_a, noise_a, tail_a, value_c, noise_c, tail_c = _operands(
            np.array([(terms[b.beta_A], terms[b.beta_C]) for b in baths])
            .transpose(1, 3, 0, 2).reshape(6, B, 1, T)
        )
    with np.errstate(all="ignore"):
        otto_flag = _truncation_flag(tail, Q_ad, 1.0, 0.0, cfg.tail_tol)
        tail_warning, stroke_flags, stroke_tails = otto_flag, (), ()
        ef_a = ef_c = err = 0.0
        period = math.nan
        if tables:
            ef_a, ef_c = eps2 * value_a, eps2 * value_c
            err_a, err_c = eps2 * noise_a, eps2 * noise_c
            err = err_a + err_c
            stroke_flags = (
                _truncation_flag(tail_a, value_a, eps2, err_a, cfg.tail_tol),
                _truncation_flag(tail_c, value_c, eps2, err_c, cfg.tail_tol),
            )
            stroke_tails = (tail_a, tail_c)
            tail_warning = tail_warning | stroke_flags[0] | stroke_flags[1]
            (period,) = _operands(np.array([periods]))
        Q = m.heat(Q_ad, ef_a, ef_c)
        W = m.work(W_ad, ef_a, ef_c)
        eta_ad, _ = _safe_ratio(*m.merit(Q_ad, W_ad), m.limit(eps))
        eta, defined = _safe_ratio(*m.merit(Q, W), eta_ad)
        eta2 = math.nan
        if m.second_order is not None:
            eta2 = np.where(Q_ad != 0.0, m.second_order(eta_ad, Q_ad, ef_a + ef_c), math.nan)[()]
        power = W / period
    # one block per type, each filled by broadcasting, then one row per cell
    floats = np.empty((14, B, E, T))
    for i, column in enumerate((
        w0_nA + e0, w1_nA + ef_a + e1, w1_nC + e1, w0_nC + ef_c + e0,
        Q, W, eta, eta_ad, power, ef_a, ef_c, eta2, tail, err,
    )):
        floats[i] = column
    flags = np.empty((3, B, E, T), dtype=bool)
    flags[0], flags[1], flags[2] = defined, tail_warning, m.runs(Q, W)
    K, convention = cfg.n_modes, m.q_convention
    reports = [
        CycleReport(
            *f[:9], machine if runs else "dissipator", f[9], f[10], K, defined_,
            f[11], f[12], warned, convention, f[13],
        )
        for f, (defined_, warned, runs) in zip(
            floats.reshape(14, -1).T.tolist(), flags.reshape(3, -1).T.tolist()
        )
    ]
    return reports, Q_ad, otto_flag, stroke_flags, stroke_tails


def _single_cycle(
    cfg: CavityConfig,
    baths: BathPair,
    machine: str,
    traj: Trajectory | None = None,
    *,
    include_casimir: bool,
    thermalization_time: float = 0.0,
) -> CycleReport:
    """One cycle of ``machine``, adiabatic without a trajectory:
    :func:`_cycles` on a one-cell grid, with the warnings its flags call for."""
    m = _MACHINES[machine]
    tables = periods = ()
    if traj is not None:
        periods = (_cycle_time(traj.duration, thermalization_time),)
        # compression out of the cold state, expansion out of the hot one;
        # reversal leaves the spectral power unchanged, so one table serves both
        table = spectral_table(traj, cfg)
        _stroke_cutoff(cfg, table)
        tables = (table,)
    if not m.in_window(baths.ratio, cfg.epsilon):
        _warn(
            m.window_text.format(
                ratio=baths.ratio, eps=cfg.epsilon, rest=1.0 - cfg.epsilon
            ),
            ConditionWarning,
        )
    (report,), Q_ad, otto_flag, stroke_flags, stroke_tails = _cycles(
        [cfg], [baths], machine, tables, periods, include_casimir=include_casimir
    )
    if otto_flag:
        _warn(
            f"mode-sum tail estimate {report.tail_estimate:.3e} exceeds tail_tol * |Q| "
            f"= {cfg.tail_tol * abs(Q_ad):.3e}; increase n_modes",
            TruncationWarning,
        )
    eps2 = cfg.epsilon**2
    for flag, value, tail in zip(stroke_flags, (report.E_F_A, report.E_F_C), stroke_tails):
        if flag:
            _warn_truncation(eps2 * tail if math.isfinite(tail) else tail, value, cfg.tail_tol)
    return report


def adiabatic_engine(
    cfg: CavityConfig, baths: BathPair, include_casimir: bool = True
) -> CycleReport:
    """Population-frozen engine cycle; efficiency equals ``eps`` exactly."""
    return _single_cycle(cfg, baths, "engine", include_casimir=include_casimir)


def nonadiabatic_engine(
    cfg: CavityConfig,
    baths: BathPair,
    traj: Trajectory,
    *,
    include_casimir: bool = True,
    thermalization_time: float = 0.0,
) -> CycleReport:
    """Finite-time engine cycle with friction from both strokes.

    The heat intake is reduced by the compression-stroke friction
    ``E_F(A)`` (the expansion stroke deposits its friction after the hot
    contact, where it does not touch Q); both frictions reduce the work.
    """
    return _single_cycle(
        cfg, baths, "engine", traj, include_casimir=include_casimir,
        thermalization_time=thermalization_time,
    )


def adiabatic_refrigerator(
    cfg: CavityConfig, baths: BathPair, include_casimir: bool = True
) -> CycleReport:
    """Population-frozen refrigerator; COP equals ``1/eps - 1`` exactly."""
    return _single_cycle(cfg, baths, "refrigerator", include_casimir=include_casimir)


def nonadiabatic_refrigerator(
    cfg: CavityConfig,
    baths: BathPair,
    traj: Trajectory,
    *,
    include_casimir: bool = True,
    thermalization_time: float = 0.0,
) -> CycleReport:
    """Finite-time refrigerator: friction eats the cooling and adds to the bill.

    The heat drawn from the cold bath loses the expansion-stroke friction
    ``E_F(C)``; the work consumed gains both frictions.
    """
    return _single_cycle(
        cfg, baths, "refrigerator", traj, include_casimir=include_casimir,
        thermalization_time=thermalization_time,
    )


def _cycle_time(tau: float, thermalization_time: float) -> float:
    """Cycle period ``2 tau + thermalization_time``, both strokes counted."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not thermalization_time >= 0:
        raise ValueError("thermalization_time must be non-negative")
    return 2.0 * tau + thermalization_time


@dataclass(frozen=True)
class SweepRow:
    """One grid cell of a parameter sweep."""

    tau_omega1: float
    beta_ratio: float
    epsilon: float
    report: CycleReport | None
    error: str = ""


def sweep(
    cfg: CavityConfig,
    baths: Sequence[BathPair],
    taus: Sequence[float],
    traj_family: Callable[[float], Trajectory],
    *,
    epsilons: Iterable[float] | None = None,
    machine: str = "engine",
    include_casimir: bool = True,
    thermalization_time: float = 0.0,
) -> list[SweepRow]:
    """Cycle reports over a (bath, epsilon, tau) grid.

    Every tau's trajectory and spectral table are built first (three arrays
    of ``2K + 1`` floats per tau).  Then, one distinct bath temperature at a
    time, each table takes one product with its friction kernel (each kernel
    is built once), the tails of all products are fitted in one pass, and
    the bookkeeping of all cells is one pass of array
    arithmetic over the (bath, eps, tau) grid, doing a single cell's
    floating-point operations, so a row equals the single-cell call bit for
    bit.  The population-frozen sums of each (bath, eps) pair are cached.
    Rows come out in a fixed order: outer bath ratio, then epsilon, then
    tau ascending.  A tau whose trajectory, table or cycle period fails is
    recorded in each of its rows and does not abort the sweep; warnings are
    silenced.
    """
    if machine not in _MACHINES:
        raise ValueError(f"machine must be 'engine' or 'refrigerator', got {machine!r}")
    eps_list = list(epsilons) if epsilons is not None else [cfg.epsilon]
    if not baths or len(taus) == 0 or not eps_list:
        raise ValueError("sweep needs non-empty bath, epsilon and tau grids")
    cavities = [replace(cfg, epsilon=eps) for eps in eps_list]
    taus = sorted(float(t) for t in taus)
    strokes = []  # (table, period, failure) per tau
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for tau in taus:
            try:
                traj = traj_family(tau)
                table = spectral_table(traj, cfg)
                period = _cycle_time(traj.duration, thermalization_time)
                _stroke_cutoff(cfg, table)
                strokes.append((table, period, None))
            except Exception as exc:  # a failing tau is recorded, not raised
                strokes.append((None, math.nan, exc))
        tables, periods, failures = zip(*strokes)
        reports = _cycles(
            cavities, baths, machine, tables, periods, include_casimir=include_casimir
        )[0]
    where = [
        (tau * cfg.omega1, bath.ratio, cell.epsilon)
        for bath in baths for cell in cavities for tau in taus
    ]
    return [
        SweepRow(*at, report) if failure is None else SweepRow(*at, None, error=str(failure))
        for at, report, failure in zip(where, reports, failures * (len(baths) * len(cavities)))
    ]
