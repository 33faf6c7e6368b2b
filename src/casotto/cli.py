"""Command-line front end.

Every command emits comma-separated text: a ``#``-prefixed header block
(tool version, fully resolved configuration, column descriptions), one
header row, then data rows.  All numerical inputs are dimensionless, in
units of the fundamental frequency (``tau`` means ``tau * omega_1``,
``beta`` means ``beta * omega_1``); internally the cavity length is pi so
that ``omega_1 = 1``.  The exception is ``shortcut-check``, whose geometry
is stated directly through ``--L0`` in natural units.

Value resolution order: command-line flag > ``CASOTTO_<FLAG>`` environment
variable > config file (flat ``key = value`` text, ``#`` comments) >
built-in default.  Unknown keys anywhere are hard errors.  Exit status: 0
success (``--help`` included), 2 usage error, 3 numerical failure or out of
memory (partial output is flagged).

Output is deterministic: fixed summation orders inside the library, 17
significant digits, no timestamps.  Identical configurations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from . import fock_oracle as _fock_oracle
from . import friction as _friction
from .cycle import BathPair, nonadiabatic_engine, nonadiabatic_refrigerator, sweep
from .friction import friction_bound, friction_energy, mode_breakdown, partial_spectral_integral
from .fock_oracle import OracleRangeError, validate_friction
from .spectrum import PERTURBATIVE_EPSILON_MAX, CavityConfig, ThermalBath, _warn
from .trajectory import Trajectory, from_samples, quintic, shortcut

ENV_PREFIX = "CASOTTO_"
# cavity length of every command but shortcut-check: omega_1 = pi/L0 = 1
_L0 = math.pi

COMMANDS = (
    "friction",
    "bound",
    "engine",
    "refrigerator",
    "sweep",
    "shortcut-check",
    "oracle",
)

# flag name -> (type, default, help); shared across commands that use them
_OPTION_SPECS: dict[str, tuple] = {
    "tau": (float, 1.0, "stroke duration in units of 1/omega_1"),
    "beta": (float, 1.0, "inverse bath temperature in units of 1/omega_1 ('inf' for vacuum)"),
    "beta-a": (float, 1.0, "cold-bath inverse temperature (units 1/omega_1)"),
    "beta-ratio": (str, "0.5", "comma list of beta_C/beta_A ratios"),
    "epsilon": (str, "0.01", "compression ratio(s), comma list where a grid is accepted"),
    "modes": (int, 64, "mode cutoff K"),
    "tail-tol": (float, 1e-6, "relative mode-sum tail tolerance"),
    "family": (str, "quintic", "trajectory family: quintic | shortcut | sampled"),
    "trajectory-file": (str, "", "two-column 't, delta' file for --family sampled"),
    "tau-grid": (str, "", "sweep grid lo:hi:N with optional 'log' suffix"),
    "mode": (str, "engine", "machine type for sweep: engine | refrigerator"),
    "output": (str, "-", "output file path, '-' for stdout"),
    "L0": (float, 1.0, "cavity length for shortcut-check (natural units)"),
    "n": (str, "2,4,10", "comma list of harmonic indices for shortcut-check"),
    "points": (int, 200, "time samples per trace for shortcut-check"),
    "fock-modes": (int, 2, "retained modes in the oracle"),
    "n-max": (int, 8, "per-mode occupation cutoff of --check identities"),
    "dt": (float, 0.01, "oracle evolution step (units 1/omega_1)"),
    "check": (str, "friction", "oracle check: friction | identities"),
    "thermalization-time": (float, 0.0, "bath-contact time charged to the cycle period"),
}

# lower-cased flag -> flag: CASOTTO_L0 names the mixed-case --L0
_ENV_FLAGS = {flag.lower(): flag for flag in _OPTION_SPECS}

_COMMAND_OPTIONS: dict[str, tuple[str, ...]] = {
    "friction": ("tau", "beta", "epsilon", "modes", "tail-tol", "family",
                 "trajectory-file", "output"),
    "bound": ("tau", "beta", "epsilon", "modes", "family", "trajectory-file",
              "output"),
    "engine": ("tau", "beta-a", "beta-ratio", "epsilon", "modes", "tail-tol",
               "family", "trajectory-file", "thermalization-time", "output"),
    "refrigerator": ("tau", "beta-a", "beta-ratio", "epsilon", "modes",
                     "tail-tol", "family", "trajectory-file",
                     "thermalization-time", "output"),
    "sweep": ("tau-grid", "beta-a", "beta-ratio", "epsilon", "modes",
              "tail-tol", "family", "trajectory-file", "mode",
              "thermalization-time", "output"),
    "shortcut-check": ("tau", "L0", "n", "points", "output"),
    "oracle": ("tau", "beta", "epsilon", "family", "trajectory-file",
               "fock-modes", "n-max", "dt", "check", "output"),
}


class UsageError(Exception):
    """Bad flags, config keys or values; exits with status 2."""


class PerturbativeWarning(UserWarning):
    """A compression ratio lies beyond the range of the second-order friction."""


@dataclass
class RunConfig:
    """Fully resolved invocation: one command plus its option values."""

    command: str
    options: dict[str, object] = field(default_factory=dict)


def _coerce(key: str, raw: str):
    typ = _OPTION_SPECS[key][0]
    try:
        if typ is float:
            return float(raw)
        if typ is int:
            return int(raw)
        return str(raw)
    except ValueError as exc:
        raise UsageError(f"invalid value for '{key}': {raw!r}") from exc


def _parse_config_file(path: str, allowed: Sequence[str]) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key == "command":
            continue
        if key not in allowed:
            raise UsageError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = val.strip()
    return values


@functools.lru_cache(maxsize=None)
def _parser(command: str) -> argparse.ArgumentParser:
    """The argument parser of one command, built on first use."""
    parser = argparse.ArgumentParser(
        prog="casotto",
        description="moving-wall cavity cycle thermodynamics",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="flat key = value file")
    for flag in _COMMAND_OPTIONS[command]:
        typ, default, helptext = _OPTION_SPECS[flag]
        parser.add_argument(f"--{flag}", default=None, help=f"{helptext} (default {default})")
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Resolve a command line into a :class:`RunConfig`.

    Precedence: flag > environment > config file > default.  The resolved
    configuration is echoed into every output header and re-parses to the
    same RunConfig.  Each command's parser is built once and reused; the
    environment and the config file are read afresh on every call.  A help
    request prints the usage and raises ``SystemExit(0)``.
    """
    known = _pre_scan_command(argv)
    allowed = _COMMAND_OPTIONS[known]
    try:
        ns = _parser(known).parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            raise UsageError("bad command line") from exc
        raise  # --help: argparse has printed the usage

    file_values = {} if ns.config is None else _parse_config_file(ns.config, allowed)

    env_values: dict[str, str] = {}
    for key in os.environ:
        if not key.startswith(ENV_PREFIX):
            continue
        name = key[len(ENV_PREFIX):].lower().replace("_", "-")
        if name in ("config", "command"):
            continue
        flag = _ENV_FLAGS.get(name)
        if flag is None:
            raise UsageError(f"unknown environment variable {key}")
        if flag in allowed:
            env_values[flag] = os.environ[key]

    options: dict[str, object] = {}
    for flag in allowed:
        typ, default, _ = _OPTION_SPECS[flag]
        raw = getattr(ns, flag.replace("-", "_"))
        if raw is not None:
            options[flag] = _coerce(flag, raw)
        elif flag in env_values:
            options[flag] = _coerce(flag, env_values[flag])
        elif flag in file_values:
            options[flag] = _coerce(flag, file_values[flag])
        else:
            options[flag] = default

    cfg = RunConfig(command=known, options=options)
    _validate(cfg)
    return cfg


def _pre_scan_command(argv: Sequence[str]) -> str:
    """The first token that is neither an option nor an option's value.

    Every option but ``-h``/``--help`` takes a value, so an option token
    without ``=`` consumes the next token.
    """
    tokens = iter(argv)
    for tok in tokens:
        if not tok.startswith("-"):
            if tok not in COMMANDS:
                raise UsageError(
                    f"unknown command {tok!r}; choose from {', '.join(COMMANDS)}"
                )
            return tok
        if "=" not in tok and tok not in ("-h", "--help"):
            next(tokens, None)
    raise UsageError(f"missing command; choose from {', '.join(COMMANDS)}")


def _parse_float_list(raw: str, key: str) -> list[float]:
    """Comma list of floats, at least one."""
    try:
        values = [float(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise UsageError(f"{key} must be a non-empty comma list of numbers, got {raw!r}")
    return values


def _parse_harmonics(raw: str) -> list[int]:
    """Comma list of non-negative harmonic indices, at least one."""
    try:
        harmonics = [int(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        harmonics = []
    if not harmonics or min(harmonics) < 0:
        raise UsageError(f"n must be a comma list of non-negative integers, got {raw!r}")
    return harmonics


def _parse_grid(raw: str) -> list[float]:
    """Grid syntax ``lo:hi:N`` with optional ``log`` suffix on N."""
    parts = str(raw).split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be lo:hi:N[log], got {raw!r}")
    count = parts[2]
    logspace = count.endswith("log")
    if logspace:
        count = count[:-3]
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(count)
    except ValueError as exc:
        raise UsageError(f"grid must be lo:hi:N[log], got {raw!r}") from exc
    if n < 1 or not -math.inf < lo < hi < math.inf:
        raise UsageError(f"bad grid {raw!r}")
    if n == 1:
        return [lo]
    if logspace:
        if lo <= 0:
            raise UsageError("log grid needs positive endpoints")
        ratio = (hi / lo) ** (1.0 / (n - 1))
        return [lo * ratio**i for i in range(n)]
    step = (hi - lo) / (n - 1)
    return [lo + step * i for i in range(n)]


def _single(opts, key: str) -> float:
    values = _parse_float_list(str(opts[key]), key)
    if len(values) != 1:
        raise UsageError(f"this command takes a single {key}")
    return values[0]


def _validate(cfg: RunConfig) -> None:
    opts = cfg.options
    if "epsilon" in opts:
        for e in _parse_float_list(str(opts["epsilon"]), "epsilon"):
            if not 0.0 < e < 1.0:
                raise UsageError(f"epsilon must lie in (0, 1), got {e}")
    if cfg.command != "sweep":  # the only command that takes lists
        for key in ("epsilon", "beta-ratio"):
            if key in opts:
                _single(opts, key)
    for key in ("beta", "beta-a", "tail-tol"):
        if key in opts and not float(opts[key]) > 0:
            raise UsageError(f"{key} must be positive, got {opts[key]}")
    # the hot bath is beta-ratio * beta-a: at inf both baths are the vacuum
    if "beta-a" in opts and not math.isfinite(float(opts["beta-a"])):
        raise UsageError(f"beta-a must be finite, got {opts['beta-a']}")
    if "beta-ratio" in opts:
        for r in _parse_float_list(str(opts["beta-ratio"]), "beta-ratio"):
            if not 0.0 < r <= 1.0:
                raise UsageError(f"beta-ratio must lie in (0, 1], got {r}")
    if "tau" in opts and not 0 < float(opts["tau"]) < math.inf:
        raise UsageError("tau must be positive and finite")
    if "modes" in opts and int(opts["modes"]) < 1:
        raise UsageError("modes must be >= 1")
    if "thermalization-time" in opts and not float(opts["thermalization-time"]) >= 0:
        raise UsageError("thermalization-time must be non-negative")
    if "points" in opts and int(opts["points"]) < 1:
        raise UsageError("points must be >= 1")
    if "L0" in opts and not 0 < float(opts["L0"]) < math.inf:
        raise UsageError("L0 must be positive and finite")
    if cfg.command == "oracle":
        for key in ("fock-modes", "n-max"):
            if int(opts[key]) < 1:
                raise UsageError(f"{key} must be >= 1")
        if not float(opts["dt"]) > 0:
            raise UsageError("dt must be positive")
    if "n" in opts:
        _parse_harmonics(str(opts["n"]))
    if "mode" in opts and opts["mode"] not in ("engine", "refrigerator"):
        raise UsageError("mode must be engine or refrigerator")
    if "check" in opts and opts["check"] not in ("friction", "identities"):
        raise UsageError("check must be friction or identities")
    if "family" in opts:
        fam = str(opts["family"])
        if fam not in ("quintic", "shortcut", "sampled"):
            raise UsageError(f"unknown trajectory family {fam!r}")
        if fam == "sampled":
            path = str(opts.get("trajectory-file", ""))
            if not path:
                raise UsageError("--family sampled requires --trajectory-file")
            if not Path(path).is_file():
                raise UsageError(f"trajectory file not found or not a file: {path}")
    if cfg.command == "sweep":
        if not str(opts.get("tau-grid", "")):
            raise UsageError("sweep requires --tau-grid lo:hi:N[log]")
        if not _parse_grid(str(opts["tau-grid"]))[0] > 0:
            raise UsageError(f"tau-grid must start above 0, got {opts['tau-grid']!r}")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _cavity(opts, epsilon: float) -> CavityConfig:
    return CavityConfig(
        L0=_L0,
        epsilon=epsilon,
        n_modes=int(opts["modes"]),
        tail_tol=float(opts.get("tail-tol", _OPTION_SPECS["tail-tol"][1])),
    )


def _trajectory_family(opts) -> Callable[[float], Trajectory]:
    """tau -> stroke profile of the configured family; a sampled file is read
    once and serves every tau."""
    fam = str(opts["family"])
    if fam == "sampled":
        path = str(opts["trajectory-file"])
        try:
            fixed = from_samples(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read trajectory file {path}: {exc}") from exc
        return lambda tau: fixed
    if fam == "shortcut":
        return lambda tau: shortcut(quintic(tau), _L0)
    return quintic


def _trajectory(opts) -> Trajectory:
    return _trajectory_family(opts)(float(opts["tau"]))


def _fmt(value) -> str:
    """An option or note value: a float at 17 significant digits."""
    return "%.17g" % value if isinstance(value, float) else str(value)


# Each table is one (name, row format, description) triple per column; the
# row format is ``%.17g``, ``%d`` or ``%s``.
_MODE_TABLE = (
    ("k", "%d", "mode index"),
    ("diag_term", "%.17g", "single-mode pair-creation energy"),
    ("create_term", "%.17g", "inter-mode pair-creation energy"),
    ("scatter_term", "%.17g", "inter-mode scattering energy"),
    ("cumulative", "%.17g", "running total of the friction energy"),
)
_BOUND_TABLE = (
    ("tau_omega1", "%.17g", "stroke duration"),
    ("beta_omega1", "%.17g", "inverse temperature"),
    ("epsilon", "%.17g", "compression ratio"),
    ("bound", "%.17g", "upper bound on the friction energy"),
)
_CYCLE_TABLE = (
    ("tau_omega1", "%.17g", "stroke duration in 1/omega_1"),
    ("beta_ratio", "%.17g", "beta_C / beta_A"),
    ("epsilon", "%.17g", "compression ratio"),
    ("Q", "%.17g", "heat intake (engine) or heat extracted from the cold bath (refrigerator)"),
    ("W", "%.17g", "work extracted (engine) or consumed (refrigerator)"),
    ("eta", "%.17g", "efficiency (engine) or coefficient of performance (refrigerator)"),
    ("eta_adiabatic", "%.17g", "population-frozen limit of eta"),
    ("power", "%.17g", "W / (2 tau + thermalization_time)"),
    ("mode", "%s", "operating regime classification"),
    ("EF_A", "%.17g", "friction energy of the compression stroke"),
    ("EF_C", "%.17g", "friction energy of the expansion stroke"),
    ("tail_warning", "%d", "1 when the mode-sum tail exceeded tail_tol"),
)
# what follows a failed cell's coordinates: nan,nan,nan,nan,nan,failed,nan,nan,1
_FAILED_CELL = (math.nan,) * 5 + ("failed", math.nan, math.nan, True)
_SHORTCUT_TABLE = (
    ("n", "%d", "harmonic index of the probe frequency n*pi/L0"),
    ("t", "%.17g", "upper limit of the running integral"),
    ("I_n", "%.17g", "running cosine amplitude of the wall velocity"),
    ("J_n", "%.17g", "running sine amplitude of the wall velocity"),
)
_IDENTITY_TABLE = (
    ("identity", "%s", "operator string"),
    ("numeric", "%.17g", "thermal trace over the product Fock basis"),
    ("closed_form", "%.17g", "geometric-moment closed form"),
    ("deviation", "%.17g", "absolute deviation"),
)
_COMPARISON_TABLE = (
    ("epsilon", "%.17g", "compression ratio"),
    ("E_full", "%.17g", "energy after phase-space propagation"),
    ("E_adiab", "%.17g", "population-preserving adiabatic energy"),
    ("E_pert", "%.17g", "E_adiab plus the friction formula"),
    ("ratio", "%.17g", "(E_full - E_adiab) / E_F"),
    ("richardson_ratio", "%.17g", "ratio extrapolated to epsilon -> 0"),
)


def _write_table(cfg: RunConfig, out, table, rows, notes=()) -> None:
    """Write ``rows`` of ``table`` in the layout of ``docs/formats.md``.

    The ``#`` header (version, command, sorted options, one ``# column``
    line per column), the ``# key = value`` ``notes``, the column row, and
    each row through one ``%`` template built from the column formats.
    """
    lines = [f"# casotto {__version__}", f"# command = {cfg.command}"]
    lines += [f"# {key} = {_fmt(cfg.options[key])}" for key in sorted(cfg.options)]
    lines += [f"# column {name}: {doc}" for name, _, doc in table]
    lines += [f"# {key} = {_fmt(value)}" for key, value in notes]
    lines.append(",".join(name for name, _, _ in table))
    template = ",".join(fmt for _, fmt, _ in table)
    lines += [template % row for row in rows]
    out.write("\n".join(lines) + "\n")


def _warn_if_beyond_perturbative(opts) -> None:
    """One :class:`PerturbativeWarning` naming the largest epsilon, if it is
    too large for the second-order treatment."""
    if "epsilon" not in opts:
        return
    eps = max(_parse_float_list(str(opts["epsilon"]), "epsilon"))
    if eps > PERTURBATIVE_EPSILON_MAX:
        _warn(
            f"epsilon = {eps} exceeds {PERTURBATIVE_EPSILON_MAX}: the friction "
            "energy is second order in epsilon, so results are outside its validity",
            PerturbativeWarning,
        )


def run(cfg: RunConfig, stream=None) -> int:
    """Execute a resolved configuration; returns the exit status.

    A compression ratio above ``PERTURBATIVE_EPSILON_MAX`` raises one
    :class:`PerturbativeWarning` (on stderr); the output is unchanged.
    """
    opts = cfg.options
    _warn_if_beyond_perturbative(opts)
    out = io.StringIO()
    status = _RUNNERS[cfg.command](cfg, out)
    text = out.getvalue()
    target = str(opts.get("output", "-"))
    if stream is not None:
        stream.write(text)
    elif target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text)
    return status


def _run_friction(cfg: RunConfig, out) -> int:
    opts = cfg.options
    cavity = _cavity(opts, _single(opts, "epsilon"))
    traj = _trajectory(opts)
    bath = ThermalBath(float(opts["beta"]))
    # through the module attribute, so that a wrapped friction.spectral_table sees it
    table = _friction.spectral_table(traj, cavity)
    result = friction_energy(cavity, bath, traj, table=table)
    try:
        bound = friction_bound(cavity, bath, traj)
    except ValueError:
        bound = "none"
    rows, running = [], 0.0
    for k, d, c, s in mode_breakdown(cavity, bath, table):
        running += d + c + s
        rows.append((k, d, c, s, running))
    _write_table(cfg, out, _MODE_TABLE, rows, (
        ("E_F", result.value), ("quadrature_err", result.err),
        ("tail_estimate", result.tail_estimate), ("bound", bound),
    ))
    return 0


def _run_bound(cfg: RunConfig, out) -> int:
    opts = cfg.options
    cavity = _cavity(opts, _single(opts, "epsilon"))
    tau, beta = float(opts["tau"]), float(opts["beta"])
    value = friction_bound(cavity, ThermalBath(beta), _trajectory(opts))
    _write_table(cfg, out, _BOUND_TABLE, [(tau, beta, cavity.epsilon, value)])
    return 0


def _cycle_row(tau: float, ratio: float, epsilon: float, r) -> tuple:
    """One row of the cycle table; ``r`` is the cell's report, None if it failed."""
    if r is None:
        return (tau, ratio, epsilon, *_FAILED_CELL)
    return (tau, ratio, epsilon, r.Q, r.W, r.eta, r.eta_adiabatic, r.power, r.mode,
            r.E_F_A, r.E_F_C, r.tail_warning)


def _run_single_cycle(cfg: RunConfig, out) -> int:
    opts = cfg.options
    ratio = _single(opts, "beta-ratio")
    beta_a = float(opts["beta-a"])
    baths = BathPair(beta_a, ratio * beta_a)
    cavity = _cavity(opts, _single(opts, "epsilon"))
    runner = nonadiabatic_engine if cfg.command == "engine" else nonadiabatic_refrigerator
    report = runner(
        cavity, baths, _trajectory(opts),
        thermalization_time=float(opts["thermalization-time"]),
    )
    _write_table(cfg, out, _CYCLE_TABLE,
                 [_cycle_row(float(opts["tau"]), ratio, cavity.epsilon, report)])
    return 0


def _run_sweep(cfg: RunConfig, out) -> int:
    opts = cfg.options
    taus = _parse_grid(str(opts["tau-grid"]))
    ratios = _parse_float_list(str(opts["beta-ratio"]), "beta-ratio")
    epsilons = _parse_float_list(str(opts["epsilon"]), "epsilon")
    beta_a = float(opts["beta-a"])
    baths = [BathPair(beta_a, r * beta_a) for r in ratios]
    rows = sweep(
        _cavity(opts, epsilons[0]),
        baths,
        taus,
        _trajectory_family(opts),
        epsilons=epsilons,
        machine=str(opts["mode"]),
        thermalization_time=float(opts["thermalization-time"]),
    )
    _write_table(cfg, out, _CYCLE_TABLE, [
        _cycle_row(r.tau_omega1, r.beta_ratio, r.epsilon, r.report) for r in rows
    ])
    return 3 if any(r.report is None for r in rows) else 0


def _run_shortcut_check(cfg: RunConfig, out) -> int:
    opts = cfg.options
    L0 = float(opts["L0"])
    tau = float(opts["tau"])
    points = int(opts["points"])
    traj = shortcut(quintic(tau), L0)
    rows = []
    for n in _parse_harmonics(str(opts["n"])):
        for i in range(points + 1):
            t = traj.t_start + traj.duration * i / points
            rows.append((n, t, *partial_spectral_integral(traj, n, L0, t)))
    _write_table(cfg, out, _SHORTCUT_TABLE, rows)
    return 0


# oracle parameter -> the flag that sets it
_ORACLE_FLAGS = {
    "n_max": "n-max", "beta": "beta", "dt": "dt", "epsilon": "epsilon", "n_modes": "fock-modes",
}


def _run_oracle(cfg: RunConfig, out) -> int:
    opts = cfg.options
    cavity = CavityConfig(
        L0=_L0, epsilon=_single(opts, "epsilon"), n_modes=int(opts["fock-modes"])
    )
    identities = str(opts["check"]) == "identities"
    beta = float(opts["beta"])
    try:
        if identities:
            # through the module attribute: perfbench/tracing.py wraps a
            # cli.verify_trace_identities name with a hook that reads a
            # .dimension off the second argument, now the cavity
            report = _fock_oracle.verify_trace_identities(beta, cavity, int(opts["n-max"]))
        else:
            traj = _trajectory(opts)
            comparison = validate_friction(cavity, ThermalBath(beta), traj, float(opts["dt"]))
    except OracleRangeError as exc:
        flags = " or ".join(f"--{_ORACLE_FLAGS[name]}" for name in exc.names)
        raise UsageError(f"{exc} (change {flags})") from exc
    if identities:
        rows = [(c.label, c.numeric, c.closed_form, c.deviation) for c in report.checks]
        _write_table(cfg, out, _IDENTITY_TABLE, rows,
                     (("max_abs_deviation", report.max_abs_deviation),))
    else:
        rich = comparison.richardson_ratio
        rows = [(r.epsilon, r.E_full, r.E_adiab, r.E_pert, r.ratio, rich) for r in comparison.rows]
        _write_table(cfg, out, _COMPARISON_TABLE, rows)
    return 0


_RUNNERS = {
    "friction": _run_friction,
    "bound": _run_bound,
    "engine": _run_single_cycle,
    "refrigerator": _run_single_cycle,
    "sweep": _run_sweep,
    "shortcut-check": _run_shortcut_check,
    "oracle": _run_oracle,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return run(parse_config(argv))
    except SystemExit:  # a help request: parse_config has printed the usage
        return 0
    except UsageError as exc:
        print(f"casotto: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"casotto: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
