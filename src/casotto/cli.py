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
success, 2 usage error, 3 numerical failure (partial output is flagged).

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
from . import friction as _friction
from .cycle import (
    SWEEP_COLUMNS,
    BathPair,
    SweepRow,
    _fmt,
    nonadiabatic_engine,
    nonadiabatic_refrigerator,
    sweep,
    write_sweep_csv,
)
from .friction import (
    export_mode_table,
    friction_bound,
    friction_energy,
    mode_breakdown,
    partial_spectral_integral,
)
from .fock_oracle import (
    FockConfig,
    OracleRangeError,
    export_comparison,
    validate_friction,
    verify_trace_identities,
)
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

    def __getitem__(self, key: str):
        return self.options[key]


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
    text = Path(path).read_text()
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
    environment and the config file are read afresh on every call.
    """
    known = _pre_scan_command(argv)
    allowed = _COMMAND_OPTIONS[known]
    try:
        ns = _parser(known).parse_args(argv)
    except SystemExit as exc:
        raise UsageError("bad command line") from exc

    file_values: dict[str, str] = {}
    if ns.config is not None:
        if not Path(ns.config).exists():
            raise UsageError(f"config file not found: {ns.config}")
        file_values = _parse_config_file(ns.config, allowed)

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
    for tok in argv:
        if not tok.startswith("-"):
            if tok not in COMMANDS:
                raise UsageError(
                    f"unknown command {tok!r}; choose from {', '.join(COMMANDS)}"
                )
            return tok
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


def _fock(opts) -> FockConfig:
    """The oracle's modes, cutoff and step; its own range checks become usage errors."""
    try:
        return FockConfig(
            n_modes=int(opts["fock-modes"]),
            n_max=int(opts["n-max"]),
            dt=float(opts["dt"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


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
    if "tau" in opts and not float(opts["tau"]) > 0:
        raise UsageError("tau must be positive")
    if "modes" in opts and int(opts["modes"]) < 1:
        raise UsageError("modes must be >= 1")
    if "thermalization-time" in opts and not float(opts["thermalization-time"]) >= 0:
        raise UsageError("thermalization-time must be non-negative")
    if "points" in opts and int(opts["points"]) < 1:
        raise UsageError("points must be >= 1")
    if "L0" in opts and not 0 < float(opts["L0"]) < math.inf:
        raise UsageError("L0 must be positive and finite")
    if cfg.command == "oracle":
        _fock(opts)
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
            if not Path(path).exists():
                raise UsageError(f"trajectory file not found: {path}")
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
        fixed = from_samples(str(opts["trajectory-file"]))
        return lambda tau: fixed
    if fam == "shortcut":
        return lambda tau: shortcut(quintic(tau), _L0)
    return quintic


def _trajectory(opts) -> Trajectory:
    return _trajectory_family(opts)(float(opts["tau"]))


def _header(cfg: RunConfig, columns: Sequence[str], descriptions: Sequence[str]) -> str:
    lines = [f"# casotto {__version__}", f"# command = {cfg.command}"]
    for key in sorted(cfg.options):
        lines.append(f"# {key} = {_fmt_opt(cfg.options[key])}")
    for col, desc in zip(columns, descriptions):
        lines.append(f"# column {col}: {desc}")
    return "\n".join(lines) + "\n"


def _fmt_opt(value) -> str:
    return _fmt(value) if isinstance(value, float) else str(value)


def _warn_if_beyond_perturbative(opts) -> None:
    """One :class:`PerturbativeWarning` naming the largest epsilon, if it is
    too large for the second-order treatment."""
    if "epsilon" not in opts:
        return
    eps = max(_parse_float_list(str(opts["epsilon"]), "epsilon"))
    if CavityConfig(L0=_L0, epsilon=eps).perturbative_warning:
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
        bound = _fmt(friction_bound(cavity, bath, traj))
    except ValueError:
        bound = "none"
    out.write(_header(
        cfg,
        ("k", "diag_term", "create_term", "scatter_term", "cumulative"),
        (
            "mode index",
            "single-mode pair-creation energy",
            "inter-mode pair-creation energy",
            "inter-mode scattering energy",
            "running total of the friction energy",
        ),
    ))
    out.write(f"# E_F = {_fmt(result.value)}\n")
    out.write(f"# quadrature_err = {_fmt(result.err)}\n")
    out.write(f"# tail_estimate = {_fmt(result.tail_estimate)}\n")
    out.write(f"# bound = {bound}\n")
    export_mode_table(mode_breakdown(cavity, bath, table), out)
    return 0


def _run_bound(cfg: RunConfig, out) -> int:
    opts = cfg.options
    cavity = _cavity(opts, _single(opts, "epsilon"))
    traj = _trajectory(opts)
    bath = ThermalBath(float(opts["beta"]))
    value = friction_bound(cavity, bath, traj)
    out.write(_header(
        cfg,
        ("tau_omega1", "beta_omega1", "epsilon", "bound"),
        ("stroke duration", "inverse temperature", "compression ratio",
         "upper bound on the friction energy"),
    ))
    out.write(
        ",".join(map(_fmt, (float(opts["tau"]), float(opts["beta"]), cavity.epsilon, value))) + "\n"
    )
    return 0


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
    out.write(_header(cfg, SWEEP_COLUMNS, _CYCLE_COLUMN_DOCS))
    write_sweep_csv([SweepRow(float(opts["tau"]), ratio, cavity.epsilon, report)], out)
    return 0


_CYCLE_COLUMN_DOCS = (
    "stroke duration in 1/omega_1",
    "beta_C / beta_A",
    "compression ratio",
    "heat intake (engine) or heat extracted from the cold bath (refrigerator)",
    "work extracted (engine) or consumed (refrigerator)",
    "efficiency (engine) or coefficient of performance (refrigerator)",
    "population-frozen limit of eta",
    "W / (2 tau + thermalization_time)",
    "operating regime classification",
    "friction energy of the compression stroke",
    "friction energy of the expansion stroke",
    "1 when the mode-sum tail exceeded tail_tol",
)


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
    out.write(_header(cfg, SWEEP_COLUMNS, _CYCLE_COLUMN_DOCS))
    write_sweep_csv(rows, out)
    return 3 if any(r.report is None for r in rows) else 0


def _run_shortcut_check(cfg: RunConfig, out) -> int:
    opts = cfg.options
    L0 = float(opts["L0"])
    tau = float(opts["tau"])
    harmonics = _parse_harmonics(str(opts["n"]))
    points = int(opts["points"])
    traj = shortcut(quintic(tau), L0)
    out.write(_header(
        cfg,
        ("n", "t", "I_n", "J_n"),
        (
            "harmonic index of the probe frequency n*pi/L0",
            "upper limit of the running integral",
            "running cosine amplitude of the wall velocity",
            "running sine amplitude of the wall velocity",
        ),
    ))
    out.write("n,t,I_n,J_n\n")
    for n in harmonics:
        for i in range(points + 1):
            t = traj.t_start + traj.duration * i / points
            I, J = partial_spectral_integral(traj, n, L0, t)
            out.write(f"{n},{_fmt(t)},{_fmt(I)},{_fmt(J)}\n")
    return 0


# oracle parameter -> the flag that sets it
_ORACLE_FLAGS = {
    "n_max": "n-max", "beta": "beta", "dt": "dt", "epsilon": "epsilon", "n_modes": "fock-modes",
}


def _run_oracle(cfg: RunConfig, out) -> int:
    opts = cfg.options
    fock = _fock(opts)
    cavity = CavityConfig(L0=_L0, epsilon=_single(opts, "epsilon"), n_modes=fock.n_modes)
    identities = str(opts["check"]) == "identities"
    beta, eps = float(opts["beta"]), cavity.epsilon
    try:
        if identities:
            report = verify_trace_identities(beta, fock, cavity)
        else:
            traj = _trajectory(opts)
            comparison = validate_friction(cavity, ThermalBath(beta), traj, fock, epsilons=(eps, eps / 2.0))
    except OracleRangeError as exc:
        flags = " or ".join(f"--{_ORACLE_FLAGS[name]}" for name in exc.names)
        raise UsageError(f"{exc} (change {flags})") from exc
    if identities:
        out.write(_header(
            cfg,
            ("identity", "numeric", "closed_form", "deviation"),
            ("operator string", "thermal trace over the product Fock basis",
             "geometric-moment closed form", "absolute deviation"),
        ))
        out.write(f"# max_abs_deviation = {_fmt(report.max_abs_deviation)}\n")
        out.write("identity,numeric,closed_form,deviation\n")
        for c in report.checks:
            out.write(
                f"{c.label},{_fmt(c.numeric)},{_fmt(c.closed_form)},{_fmt(c.deviation)}\n"
            )
        return 0
    out.write(_header(
        cfg,
        ("epsilon", "E_full", "E_adiab", "E_pert", "ratio", "richardson_ratio"),
        (
            "compression ratio",
            "energy after phase-space propagation",
            "population-preserving adiabatic energy",
            "E_adiab plus the friction formula",
            "(E_full - E_adiab) / E_F",
            "ratio extrapolated to epsilon -> 0",
        ),
    ))
    export_comparison(comparison, out)
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
    except UsageError as exc:
        print(f"casotto: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"casotto: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
