"""The workloads: CLI requests plus a checker for each one's output.

Every workload is a list of :class:`Request`.  Building the list computes
each request's reference values (see :mod:`reference`), so that work stays
outside the timed region; only parsing and comparing the output is timed.

A *unit* is what ``attempted`` and ``failed`` count: a sweep cell, a single
request, or an oracle check.  A unit fails on a non-zero exit status, a
``failed`` or missing sweep row, or an output check that does not hold.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference

NAMES = ("thermal_grid", "point_queries", "fock_oracle")

# E_F and cycle figures must match the reference to this relative error; the
# quadrature's own target is 1e-10 per amplitude, and the seed matches the
# references to about 1e-12.
REL_TOL = 1e-9
# eta_adiabatic == eps (engine), COP_adiabatic == 1/eps - 1 (refrigerator)
IDENTITY_TOL = 1e-12
SHORTCUT_RATIO = 1e-8
RICHARDSON_WINDOW = (0.95, 1.05)
IDENTITY_DEVIATION_MAX = 1e-4

BETA_A = 2.0
THERMAL_RATIOS = tuple(float(r) for r in np.linspace(0.05, 0.9, 16))
THERMAL_EPSILONS = (0.005, 0.01, 0.02, 0.04)
THERMAL_GRID = (
    "sweep --family quintic --tau-grid 0.5:2:2 --beta-ratio "
    + ",".join(map(repr, THERMAL_RATIOS))
    + " --beta-a 2.0 --epsilon " + ",".join(map(repr, THERMAL_EPSILONS))
    + " --modes 256"
)
ORACLE_FRICTION = "oracle --tau 1 --beta 2 --epsilon 0.01 --fock-modes 2 --n-max 8"
ORACLE_IDENTITIES = "oracle --check identities --beta 2 --fock-modes 3 --n-max 8"
POINT_KINDS = ("friction", "shortcut", "engine", "refrigerator")
POINT_PER_KIND = 25
POINT_MODES = 32
POINT_EPSILON = 0.01


@dataclass
class Outcome:
    """Checked units of one or more requests and the worst relative error."""

    units: int = 0
    failed: int = 0
    max_rel_err: float = 0.0
    problems: list[str] = field(default_factory=list)

    def unit(self, ok: bool, problem: str) -> None:
        self.units += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def error(self, got: float, ref: float, scale: float | None = None) -> float:
        """``|got - ref| / |scale|`` (default ``scale = ref``), folded into the maximum."""
        scale = ref if scale is None else scale
        err = abs(got - ref) / abs(scale) if scale != 0.0 else abs(got - ref)
        if not math.isfinite(err):
            err = math.inf
        self.max_rel_err = max(self.max_rel_err, err)
        return err

    def merge(self, other: "Outcome") -> None:
        self.units += other.units
        self.failed += other.failed
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)
        self.problems.extend(other.problems)


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the checker of its exit status and output."""

    argv: tuple[str, ...]
    kind: str
    check: Callable[[int, str], Outcome]


def header_values(text: str) -> dict[str, str]:
    """``# key = value`` lines of a CLI output header."""
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, val = line[2:].partition(" = ")
            out[key.strip()] = val.strip()
    return out


def table_rows(text: str) -> list[dict[str, str]]:
    """Data rows of a CLI output, keyed by the header row's column names."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def _label(value) -> str:
    """Grid coordinate as a lookup key, insensitive to the last digits."""
    return format(float(value), ".10g")


def _key(tau, ratio, eps) -> tuple[str, ...]:
    return _label(tau), _label(ratio), _label(eps)


@dataclass(frozen=True)
class CellRef:
    eps: float
    ef_a: float
    ef_c: float
    figure: float


def _cell_refs(machine, taus, ratios, epsilons, beta_a, n_modes) -> dict[tuple[str, ...], CellRef]:
    """Reference values of every (tau, beta ratio, eps) cell of a grid."""
    betas = [beta_a] + [r * beta_a for r in ratios]
    cells = {}
    for tau in taus:
        per_eps2 = reference.friction_per_eps2(reference.quintic_power(tau, n_modes), betas, n_modes)
        for i, ratio in enumerate(ratios):
            for eps in epsilons:
                ef_a = eps**2 * per_eps2[0]
                ef_c = eps**2 * per_eps2[i + 1]
                q_ad, w_ad = reference.adiabatic_sums(machine, eps, beta_a, ratio * beta_a, n_modes)
                fig = reference.cycle_figure(machine, q_ad, w_ad, ef_a, ef_c)
                cells[_key(tau, ratio, eps)] = CellRef(eps, ef_a, ef_c, fig)
    return cells


class CycleCheck:
    """Rows of ``sweep``, ``engine`` and ``refrigerator`` against references.

    Each expected cell must appear, with ``eta_adiabatic`` equal to its
    closed form, non-negative friction energies, and ``EF_A``, ``EF_C`` and
    ``eta`` within ``REL_TOL`` of the reference.  ``eta`` is compared
    relative to the larger of its own size and the adiabatic figure: the
    latter stays finite where friction drives the efficiency through zero,
    the former where friction dwarfs the adiabatic heat and ``Q_ad - E_F``
    in the denominator cancels, costing round-off digits in both programs.
    """

    def __init__(self, machine: str, cells: dict[tuple[str, ...], CellRef]):
        self.machine = machine
        self.cells = cells

    def __call__(self, status: int, text: str) -> Outcome:
        out = Outcome()
        rows = {}
        for row in table_rows(text):
            try:
                rows[_key(row["tau_omega1"], row["beta_ratio"], row["epsilon"])] = row
            except (KeyError, ValueError):
                continue
        for key, ref in self.cells.items():
            row = rows.get(key)
            if status != 0 or row is None or row.get("mode") == "failed":
                out.unit(False, f"{self.machine} cell {key}: status {status}, row {row}")
                continue
            eta_ad = float(row["eta_adiabatic"])
            if self.machine == "engine":
                ident = abs(eta_ad - ref.eps)
            else:
                ident = abs(eta_ad / (1.0 / ref.eps - 1.0) - 1.0)
            ef_a, ef_c, eta = float(row["EF_A"]), float(row["EF_C"]), float(row["eta"])
            worst = max(
                out.error(ef_a, ref.ef_a),
                out.error(ef_c, ref.ef_c),
                out.error(eta, ref.figure, scale=max(abs(eta_ad), abs(ref.figure))),
            )
            ok = ident <= IDENTITY_TOL and ef_a >= 0.0 and ef_c >= 0.0 and worst <= REL_TOL
            out.unit(ok, f"{self.machine} cell {key}: identity off by {ident:.2e}, "
                         f"EF_A {ef_a}, EF_C {ef_c}, worst rel err {worst:.2e}")
        return out


class FrictionCheck:
    """``friction`` output: E_F >= 0 within ``REL_TOL`` of the quintic
    reference and under the bound; for a shortcut, ``|E_F|`` below
    ``SHORTCUT_RATIO`` times the quintic reference at the same point."""

    def __init__(self, shortcut: bool, quintic_ef: float):
        self.shortcut = shortcut
        self.quintic_ef = quintic_ef

    def __call__(self, status: int, text: str) -> Outcome:
        out = Outcome()
        head = header_values(text)
        try:
            ef = float(head["E_F"])
            bound = head.get("bound", "none")
            under_bound = bound == "none" or ef <= float(bound)
        except (KeyError, ValueError):
            out.unit(False, f"friction: status {status}, no E_F in output")
            return out
        if self.shortcut:
            ok = abs(ef) <= SHORTCUT_RATIO * self.quintic_ef
        else:
            ok = ef >= 0.0 and out.error(ef, self.quintic_ef) <= REL_TOL
        out.unit(status == 0 and ok and under_bound,
                 f"friction shortcut={self.shortcut}: status {status}, E_F {ef}, "
                 f"bound {bound}, quintic reference {self.quintic_ef}")
        return out


class OracleFrictionCheck:
    """``oracle --check friction``: the Richardson ratio lies in the window
    and ``E_pert - E_adiab`` is the reference E_F of the retained modes."""

    def __init__(self, ef_by_eps: dict[str, float]):
        self.ef_by_eps = ef_by_eps

    def __call__(self, status: int, text: str) -> Outcome:
        out = Outcome()
        rows = table_rows(text)
        try:
            rich = float(rows[0]["richardson_ratio"])
            worst = max(
                out.error(float(r["E_pert"]) - float(r["E_adiab"]), self.ef_by_eps[_label(r["epsilon"])])
                for r in rows
            )
            ok = len(rows) == len(self.ef_by_eps) and worst <= REL_TOL
        except (IndexError, KeyError, ValueError):
            out.unit(False, f"oracle friction: status {status}, unreadable output")
            return out
        lo, hi = RICHARDSON_WINDOW
        out.unit(status == 0 and ok and lo <= rich <= hi,
                 f"oracle friction: status {status}, Richardson {rich}, E_F rel err {worst:.2e}")
        return out


def check_identities(status: int, text: str) -> Outcome:
    """``oracle --check identities``: every deviation under the limit."""
    out = Outcome()
    rows = table_rows(text)
    try:
        worst = max(float(r["deviation"]) for r in rows)
        reported = float(header_values(text)["max_abs_deviation"])
    except (KeyError, ValueError):
        out.unit(False, f"oracle identities: status {status}, unreadable output")
        return out
    out.unit(status == 0 and worst == reported and worst < IDENTITY_DEVIATION_MAX,
             f"oracle identities: status {status}, max deviation {worst} (header {reported})")
    return out


def _thermal_grid(seed: int) -> list[Request]:
    cells = _cell_refs("engine", (0.5, 2.0), THERMAL_RATIOS, THERMAL_EPSILONS, BETA_A, 256)
    return [Request(tuple(THERMAL_GRID.split()), "sweep", CycleCheck("engine", cells))]


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool) -> list[float]:
    """One draw from each of ``n`` equal strata of [lo, hi], shuffled.

    Latin-hypercube sampling keeps each input's marginal uniform (or
    log-uniform) while the mix of cheap and costly requests varies little
    from seed to seed.
    """
    cells = list(range(n))
    rng.shuffle(cells)
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    draws = [a + (b - a) * (c + rng.random()) / n for c in cells]
    return [math.exp(x) for x in draws] if log else draws


def _point_queries(seed: int) -> list[Request]:
    rng = random.Random(seed)
    K, eps = POINT_MODES, POINT_EPSILON
    requests = []
    for kind in POINT_KINDS:
        taus = _strata(rng, POINT_PER_KIND, 0.1, 10.0, log=True)
        betas = _strata(rng, POINT_PER_KIND, 0.5, 10.0, log=True)
        if kind == "engine":
            ratios = _strata(rng, POINT_PER_KIND, 0.2, 0.8, log=False)
        else:
            ratios = _strata(rng, POINT_PER_KIND, 1.0 - 0.9 * eps, 1.0 - 0.1 * eps, log=False)
        for tau, beta, ratio in zip(taus, betas, ratios):
            common = ["--tau", repr(tau), "--epsilon", repr(eps), "--modes", str(K)]
            if kind in ("friction", "shortcut"):
                ef = eps**2 * reference.friction_per_eps2(reference.quintic_power(tau, K), [beta], K)[0]
                family = ["--family", "shortcut"] if kind == "shortcut" else []
                argv = ["friction", "--beta", repr(beta), *common, *family]
                check = FrictionCheck(kind == "shortcut", ef)
            else:
                cells = _cell_refs(kind, (tau,), (ratio,), (eps,), beta, K)
                argv = [kind, "--beta-a", repr(beta), "--beta-ratio", repr(ratio), *common]
                check = CycleCheck(kind, cells)
            requests.append(Request(tuple(argv), kind, check))
    rng.shuffle(requests)
    return requests


def _fock_oracle(seed: int) -> list[Request]:
    eps = 0.01
    per_eps2 = reference.friction_per_eps2(reference.quintic_power(1.0, 2), [2.0], 2)[0]
    ef_by_eps = {_label(e): e**2 * per_eps2 for e in (eps, eps / 2.0)}
    return [
        Request(tuple(ORACLE_FRICTION.split()), "oracle_friction", OracleFrictionCheck(ef_by_eps)),
        Request(tuple(ORACLE_IDENTITIES.split()), "oracle_identities", check_identities),
    ]


def build(name: str, seed: int) -> list[Request]:
    """Requests of one workload; only ``point_queries`` draws from the seed."""
    return {
        "thermal_grid": _thermal_grid,
        "point_queries": _point_queries,
        "fock_oracle": _fock_oracle,
    }[name](seed)
