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
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .friction import SpectralTable, TruncationWarning, friction_energy, spectral_table
from .spectrum import (
    CavityConfig,
    ThermalBath,
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
    "power",
    "sweep",
    "SweepRow",
    "write_sweep_csv",
    "SWEEP_COLUMNS",
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
    frictions (0.0 for adiabatic cycles).
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
def _otto_sums(
    cfg: CavityConfig, baths: BathPair, machine: str = "engine"
) -> tuple[float, float, float, Mapping[str, float]]:
    """Population-frozen heat/work in ``machine``'s bookkeeping and stroke sums.

    Returns (Q_ad, W_ad, tail, pieces) where pieces holds the four
    occupation-weighted frequency sums needed for the stroke energies.
    Occupations of the hot bath are evaluated at the compressed-cavity
    frequencies exactly.  The engine takes its heat at the compressed
    frequencies, the refrigerator at the rest frequencies.

    The sums do not depend on the stroke, so they are cached: a sweep
    computes them once per (bath, eps) cell, not once per tau.  The result
    is read-only; the tail warning is raised by the caller on every call.
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
    pieces = MappingProxyType({
        "sum_w0_nA": float(np.sum(w0 * nA)),
        "sum_w1_nA": float(np.sum(w1 * nA)),
        "sum_w1_nC": float(np.sum(w1 * nC)),
        "sum_w0_nC": float(np.sum(w0 * nC)),
    })
    return Q_ad, W_ad, tail, pieces


def _tail_flag(cfg: CavityConfig, tail: float, scale: float) -> bool:
    flag = bool(math.isfinite(tail) and tail > cfg.tail_tol * max(abs(scale), 1e-300))
    if flag:
        _warn(
            f"mode-sum tail estimate {tail:.3e} exceeds tail_tol * |Q| "
            f"= {cfg.tail_tol * abs(scale):.3e}; increase n_modes",
            TruncationWarning,
        )
    return flag


def _safe_ratio(num: float, den: float, limit: float) -> tuple[float, bool]:
    """num/den with a degeneracy guard; returns (value, defined)."""
    if den != 0.0 and math.isfinite(num / den):
        return num / den, True
    return limit, False


@dataclass(frozen=True)
class _Machine:
    """What tells the engine's bookkeeping from the refrigerator's.

    ``heat`` and ``work`` take the population-frozen value and the two
    stroke frictions (E_F(A), E_F(C)); each keeps its own floating-point
    association.  ``merit`` orders (Q, W) as (numerator, denominator) of
    the figure of merit, whose population-frozen value is ``limit(eps)``.
    """

    heat: Callable[[float, float, float], float]
    work: Callable[[float, float, float], float]
    merit: Callable[[float, float], tuple[float, float]]
    limit: Callable[[float], float]
    runs: Callable[[float, float], bool]
    in_window: Callable[[float, float], bool]
    window_text: str
    q_convention: str
    second_order: Callable[[float, float, float], float] | None = None


_MACHINES = {
    "engine": _Machine(
        heat=lambda Q_ad, ef_a, ef_c: Q_ad - ef_a,
        work=lambda W_ad, ef_a, ef_c: W_ad - (ef_a + ef_c),
        merit=lambda Q, W: (W, Q),
        limit=lambda eps: eps,
        runs=lambda Q, W: Q > 0 and W > 0,
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


def _cycle(
    cfg: CavityConfig,
    baths: BathPair,
    machine: str,
    traj: Trajectory | None = None,
    *,
    include_casimir: bool,
    table: SpectralTable | None = None,
    thermalization_time: float = 0.0,
) -> CycleReport:
    """One cycle of ``machine``: population-frozen sums plus stroke friction.

    Without a trajectory the strokes are adiabatic (zero friction, NaN
    power); with one, both frictions come from its spectral table and enter
    through the machine's ``heat`` and ``work`` rules.
    """
    m = _MACHINES[machine]
    period = math.nan if traj is None else _cycle_time(traj.duration, thermalization_time)
    if not m.in_window(baths.ratio, cfg.epsilon):
        _warn(
            m.window_text.format(
                ratio=baths.ratio, eps=cfg.epsilon, rest=1.0 - cfg.epsilon
            ),
            ConditionWarning,
        )
    Q_ad, W_ad, tail, pieces = _otto_sums(cfg, baths, machine)
    tail_warning = _tail_flag(cfg, tail, Q_ad)
    ef_a = ef_c = err = 0.0
    if traj is not None:
        # compression out of the cold state, expansion out of the hot one;
        # reversal leaves the spectral power unchanged, so one table serves both
        if table is None:
            table = spectral_table(traj, cfg)
        res_A, res_C = (
            friction_energy(cfg, ThermalBath(beta), traj, table=table, compute_bound=False)
            for beta in (baths.beta_A, baths.beta_C)
        )
        ef_a, ef_c, err = res_A.value, res_C.value, res_A.err + res_C.err
        tail_warning = tail_warning or res_A.tail_warning or res_C.tail_warning

    Q = m.heat(Q_ad, ef_a, ef_c)
    W = m.work(W_ad, ef_a, ef_c)
    eta_ad, _ = _safe_ratio(*m.merit(Q_ad, W_ad), limit=m.limit(cfg.epsilon))
    eta, defined = _safe_ratio(*m.merit(Q, W), limit=eta_ad)
    eta2 = math.nan
    if m.second_order is not None and Q_ad != 0.0:
        eta2 = m.second_order(eta_ad, Q_ad, ef_a + ef_c)
    e0 = casimir_energy(cfg.L0) if include_casimir else 0.0
    e1 = casimir_energy(cfg.L1) if include_casimir else 0.0
    return CycleReport(
        E_A=pieces["sum_w0_nA"] + e0,
        E_B=pieces["sum_w1_nA"] + ef_a + e1,
        E_C=pieces["sum_w1_nC"] + e1,
        E_D=pieces["sum_w0_nC"] + ef_c + e0,
        Q=Q,
        W=W,
        eta=eta,
        eta_adiabatic=eta_ad,
        power=W / period,
        mode=machine if m.runs(Q, W) else "dissipator",
        E_F_A=ef_a,
        E_F_C=ef_c,
        k_used=cfg.n_modes,
        eta_defined=defined,
        eta_second_order=eta2,
        tail_estimate=tail,
        tail_warning=tail_warning,
        q_convention=m.q_convention,
        err=err,
    )


def adiabatic_engine(
    cfg: CavityConfig, baths: BathPair, include_casimir: bool = True
) -> CycleReport:
    """Population-frozen engine cycle; efficiency equals ``eps`` exactly."""
    return _cycle(cfg, baths, "engine", include_casimir=include_casimir)


def nonadiabatic_engine(
    cfg: CavityConfig,
    baths: BathPair,
    traj: Trajectory,
    *,
    include_casimir: bool = True,
    table: SpectralTable | None = None,
    thermalization_time: float = 0.0,
) -> CycleReport:
    """Finite-time engine cycle with friction from both strokes.

    The heat intake is reduced by the compression-stroke friction
    ``E_F(A)`` (the expansion stroke deposits its friction after the hot
    contact, where it does not touch Q); both frictions reduce the work.
    """
    return _cycle(
        cfg, baths, "engine", traj, include_casimir=include_casimir,
        table=table, thermalization_time=thermalization_time,
    )


def adiabatic_refrigerator(
    cfg: CavityConfig, baths: BathPair, include_casimir: bool = True
) -> CycleReport:
    """Population-frozen refrigerator; COP equals ``1/eps - 1`` exactly."""
    return _cycle(cfg, baths, "refrigerator", include_casimir=include_casimir)


def nonadiabatic_refrigerator(
    cfg: CavityConfig,
    baths: BathPair,
    traj: Trajectory,
    *,
    include_casimir: bool = True,
    table: SpectralTable | None = None,
    thermalization_time: float = 0.0,
) -> CycleReport:
    """Finite-time refrigerator: friction eats the cooling and adds to the bill.

    The heat drawn from the cold bath loses the expansion-stroke friction
    ``E_F(C)``; the work consumed gains both frictions.
    """
    return _cycle(
        cfg, baths, "refrigerator", traj, include_casimir=include_casimir,
        table=table, thermalization_time=thermalization_time,
    )


def _cycle_time(tau: float, thermalization_time: float) -> float:
    """Cycle period ``2 tau + thermalization_time``, both strokes counted."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    if thermalization_time < 0:
        raise ValueError("thermalization_time must be non-negative")
    return 2.0 * tau + thermalization_time


def power(report: CycleReport, tau: float, thermalization_time: float = 0.0) -> float:
    """Average output ``W / (2 tau + thermalization_time)``.

    The factor two counts both wall strokes; thermal contact is
    instantaneous by default but its duration can be charged here.
    """
    return report.W / _cycle_time(tau, thermalization_time)


@dataclass(frozen=True)
class SweepRow:
    """One grid cell of a parameter sweep."""

    tau_omega1: float
    beta_ratio: float
    epsilon: float
    report: CycleReport | None
    error: str = ""


SWEEP_COLUMNS = (
    "tau_omega1",
    "beta_ratio",
    "epsilon",
    "Q",
    "W",
    "eta",
    "eta_adiabatic",
    "power",
    "mode",
    "EF_A",
    "EF_C",
    "tail_warning",
)


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

    Every tau's trajectory and spectral table are built first (five arrays
    of ``2K + 1`` floats per tau), then the cells run bath by bath.  The
    friction kernel of each distinct bath temperature is thus built once,
    however many baths the grid has, and each table takes one product per
    bath (kept on the table), which every compression ratio then only
    scales.  The population-frozen sums of each (bath, eps) cell are cached
    too.  A sweep costs one table per tau, one kernel per distinct beta and
    a scaling per cell.  Rows come out in a fixed order: outer bath ratio,
    then epsilon, then tau ascending.  Failures of individual cells, a
    tau whose trajectory or table fails included, are recorded in the row
    and do not abort the sweep; warnings are silenced.
    """
    if machine not in _MACHINES:
        raise ValueError(f"machine must be 'engine' or 'refrigerator', got {machine!r}")
    if not baths or len(taus) == 0:
        raise ValueError("sweep needs non-empty bath and tau grids")
    eps_list = list(epsilons) if epsilons is not None else [cfg.epsilon]
    cells = [(bath, replace(cfg, epsilon=eps)) for bath in baths for eps in eps_list]
    strokes = []  # (tau, trajectory, table, failure) per tau, ascending
    for tau in sorted(float(t) for t in taus):
        try:
            traj = traj_family(tau)
            strokes.append((tau, traj, spectral_table(traj, cfg), None))
        except Exception as exc:  # cell failures are recorded, not raised
            strokes.append((tau, None, None, exc))

    run = nonadiabatic_engine if machine == "engine" else nonadiabatic_refrigerator
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for bath, cfg_eps in cells:
            for tau, traj, table, failure in strokes:
                where = (tau * cfg.omega1, bath.ratio, cfg_eps.epsilon)
                if failure is not None:
                    rows.append(SweepRow(*where, None, error=str(failure)))
                    continue
                try:
                    report = run(
                        cfg_eps,
                        bath,
                        traj,
                        include_casimir=include_casimir,
                        table=table,
                        thermalization_time=thermalization_time,
                    )
                    rows.append(SweepRow(*where, report))
                except Exception as exc:  # record and continue
                    rows.append(SweepRow(*where, None, error=str(exc)))
    return rows


def write_sweep_csv(rows: Iterable[SweepRow], stream) -> None:
    """Emit the sweep table; one row per grid cell, header row first."""
    stream.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        r = row.report
        cells = [_fmt(row.tau_omega1), _fmt(row.beta_ratio), _fmt(row.epsilon)]
        if r is None:
            cells += ["nan"] * 5 + ["failed", "nan", "nan", "1"]
        else:
            cells += [_fmt(x) for x in (r.Q, r.W, r.eta, r.eta_adiabatic, r.power)]
            cells += [r.mode, _fmt(r.E_F_A), _fmt(r.E_F_C), "1" if r.tail_warning else "0"]
        stream.write(",".join(cells) + "\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")
