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
built-in default.  Unknown keys anywhere are hard errors.  Each option's
type, default and range are declared once, in ``_OPTION_SPECS``; the header
echoes a comma list (``epsilon``, ``beta-ratio``, ``n``) as its shortest
round-trip numbers, so ``--epsilon 0.010,1e-2`` echoes ``0.01,0.01``.  Exit
status: 0 success (``--help`` included), 2 usage error, 3 numerical failure
or out of memory (partial output is flagged).

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
from .cycle import BathPair, _cell, _listed, _sweep_grid
from .friction import friction_bound, friction_energy, mode_breakdown, partial_spectral_integral
from .fock_oracle import OracleRangeError, validate_friction
from .spectrum import PERTURBATIVE_EPSILON_MAX, CavityConfig, ThermalBath, _warn
from .trajectory import Trajectory, from_samples, quintic, shortcut

ENV_PREFIX = "CASOTTO_"
# cavity length of every command but shortcut-check: omega_1 = pi/L0 = 1
_L0 = math.pi


def _list_of(typ) -> Callable[[str], tuple]:
    """The type of a comma list of at least one ``typ``."""
    def parse(raw: str) -> tuple:
        values = tuple(typ(tok) for tok in raw.split(",") if tok.strip())
        if not values:
            raise ValueError(raw)
        return values
    return parse


class _Grid(str):
    """The text of a ``lo:hi:N[log]`` grid, echoed as typed, with its points."""

    def __new__(cls, raw: str):
        grid = super().__new__(cls, raw)
        grid.points = _parse_grid(raw)
        return grid


def _one_of(*choices: str) -> tuple:
    """The rule of an option that takes one of ``choices``."""
    return choices.__contains__, "be one of " + " | ".join(choices)


_POSITIVE = (lambda v: v > 0, "be positive")
_POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "be positive and finite")
_AT_LEAST_ONE = (lambda v: v >= 1, "be >= 1")

# flag name -> (type, default, help, rule), shared across the commands that
# take it.  The type turns the option's text into its value, the default is
# that value, and the rule, None or (predicate, what the value must do),
# holds for each element of a list.
_OPTION_SPECS: dict[str, tuple] = {
    "tau": (float, 1.0, "stroke duration in units of 1/omega_1", _POSITIVE_FINITE),
    "beta": (float, 1.0, "inverse bath temperature in units of 1/omega_1 ('inf' for vacuum)",
             _POSITIVE),
    # the hot bath is beta-ratio * beta-a: at inf both baths are the vacuum
    "beta-a": (float, 1.0, "cold-bath inverse temperature (units 1/omega_1)", _POSITIVE_FINITE),
    "beta-ratio": (_list_of(float), (0.5,), "comma list of beta_C/beta_A ratios",
                   (lambda v: 0 < v <= 1, "lie in (0, 1]")),
    "epsilon": (_list_of(float), (0.01,),
                "compression ratio(s), comma list where a grid is accepted",
                (lambda v: 0 < v < 1, "lie in (0, 1)")),
    "modes": (int, 64, "mode cutoff K", _AT_LEAST_ONE),
    "tail-tol": (float, 1e-6, "relative mode-sum tail tolerance", _POSITIVE),
    "family": (str, "quintic", "trajectory family: quintic | shortcut | sampled",
               _one_of("quintic", "shortcut", "sampled")),
    "trajectory-file": (str, "", "two-column 't, delta' file for --family sampled", None),
    "tau-grid": (_Grid, "", "sweep grid lo:hi:N with optional 'log' suffix",
                 (lambda v: v.points[0] > 0, "start above 0")),
    "mode": (str, "engine", "machine type for sweep: engine | refrigerator",
             _one_of("engine", "refrigerator")),
    "output": (str, "-", "output file path, '-' for stdout", None),
    "L0": (float, 1.0, "cavity length for shortcut-check (natural units)", _POSITIVE_FINITE),
    "n": (_list_of(int), (2, 4, 10), "comma list of harmonic indices for shortcut-check",
          (lambda v: v >= 0, "be non-negative")),
    "points": (int, 200, "time samples per trace for shortcut-check", _AT_LEAST_ONE),
    "fock-modes": (int, 2, "retained modes in the oracle", _AT_LEAST_ONE),
    "n-max": (int, 8, "per-mode occupation cutoff of --check identities", _AT_LEAST_ONE),
    "dt": (float, 0.01, "oracle evolution step (units 1/omega_1)", _POSITIVE),
    "check": (str, "friction", "oracle check: friction | identities",
              _one_of("friction", "identities")),
    "thermalization-time": (float, 0.0, "bath-contact time charged to the cycle period",
                            (lambda v: v >= 0, "be non-negative")),
}

# lower-cased flag -> flag: CASOTTO_L0 names the mixed-case --L0
_ENV_FLAGS = {flag.lower(): flag for flag in _OPTION_SPECS}

# command -> its options, in the order of the usage line's command choices
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
COMMANDS = tuple(_COMMAND_OPTIONS)


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
    """The value of option ``key`` from its text, checked against its rule."""
    typ, _, _, rule = _OPTION_SPECS[key]
    try:
        value = typ(raw)
    except ValueError as exc:
        raise UsageError(f"invalid value for '{key}': {raw!r}") from exc
    if rule is not None:
        holds, what = rule
        for item in value if isinstance(value, tuple) else (value,):
            if not holds(item):
                raise UsageError(f"{key} must {what}, got {item!r}")
    return value


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
        _, default, helptext, _ = _OPTION_SPECS[flag]
        shown = _fmt(default) if isinstance(default, tuple) else default
        parser.add_argument(f"--{flag}", default=None, help=f"{helptext} (default {shown})")
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
        flag = _ENV_FLAGS.get(key[len(ENV_PREFIX):].lower().replace("_", "-"))
        if flag is None:
            raise UsageError(f"unknown environment variable {key}")
        if flag in allowed:
            env_values[flag] = os.environ[key]

    options: dict[str, object] = {}
    for flag in allowed:
        raw = getattr(ns, flag.replace("-", "_"))
        if raw is None:
            raw = env_values.get(flag, file_values.get(flag))
        options[flag] = _OPTION_SPECS[flag][1] if raw is None else _coerce(flag, raw)

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


def _validate(cfg: RunConfig) -> None:
    """The rules that join two options, or an option and the command."""
    opts = cfg.options
    if cfg.command != "sweep":  # the only command that takes lists
        for key in ("epsilon", "beta-ratio"):
            if len(opts.get(key, ())) > 1:
                raise UsageError(f"this command takes a single {key}")
    elif not opts["tau-grid"]:
        raise UsageError("sweep requires --tau-grid lo:hi:N[log]")
    if opts.get("family") == "sampled":
        path = opts["trajectory-file"]
        if not path:
            raise UsageError("--family sampled requires --trajectory-file")
        if not Path(path).is_file():
            raise UsageError(f"trajectory file not found or not a file: {path}")
        # a sampled stroke spans its file, so a second tau would repeat a row
        if cfg.command == "sweep" and len(opts["tau-grid"].points) > 1:
            raise UsageError("a sampled stroke ignores tau: --tau-grid must have one point")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _cavity(opts, epsilon: float) -> CavityConfig:
    return CavityConfig(
        L0=_L0,
        epsilon=epsilon,
        n_modes=opts["modes"],
        tail_tol=opts.get("tail-tol", _OPTION_SPECS["tail-tol"][1]),
    )


def _trajectory_family(opts) -> Callable[[float], Trajectory]:
    """tau -> stroke profile of the configured family; a sampled stroke
    spans its file and ignores tau."""
    fam = opts["family"]
    if fam == "sampled":
        path = opts["trajectory-file"]
        try:
            fixed = from_samples(path)
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read trajectory file {path}: {exc}") from exc
        return lambda tau: fixed
    if fam == "shortcut":
        return lambda tau: shortcut(quintic(tau), _L0)
    return quintic


def _trajectory(opts) -> Trajectory:
    return _trajectory_family(opts)(opts["tau"])


def _fmt(value) -> str:
    """An option or note value: a float at 17 significant digits, a list as
    its shortest round-trip floats."""
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
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
# the cycle rows carry their coordinates formatted once per distinct value
_CYCLE_TABLE = (
    ("tau_omega1", "%s", "the family's tau in 1/omega_1; a shortcut stroke lasts tau + 2 L0, "
                         "a sampled stroke spans its file and ignores tau"),
    ("beta_ratio", "%s", "beta_C / beta_A"),
    ("epsilon", "%s", "compression ratio"),
    ("Q", "%.17g", "heat intake (engine) or heat extracted from the cold bath (refrigerator)"),
    ("W", "%.17g", "work extracted (engine) or consumed (refrigerator)"),
    ("eta", "%.17g", "efficiency (engine) or coefficient of performance (refrigerator)"),
    ("eta_adiabatic", "%.17g", "population-frozen limit of eta"),
    ("power", "%.17g", "W over the cycle period: twice the stroke's own duration plus "
                       "thermalization_time"),
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
    eps = max(opts["epsilon"])
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
    target = opts.get("output", "-")
    if stream is not None:
        stream.write(text)
    elif target == "-":
        sys.stdout.write(text)
    else:
        Path(target).write_text(text)
    return status


def _run_friction(cfg: RunConfig, out) -> int:
    opts = cfg.options
    cavity = _cavity(opts, opts["epsilon"][0])
    traj = _trajectory(opts)
    bath = ThermalBath(opts["beta"])
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
    cavity = _cavity(opts, opts["epsilon"][0])
    tau, beta = opts["tau"], opts["beta"]
    value = friction_bound(cavity, ThermalBath(beta), _trajectory(opts))
    _write_table(cfg, out, _BOUND_TABLE, [(tau, beta, cavity.epsilon, value)])
    return 0


def _run_cycle(cfg: RunConfig, out) -> int:
    opts = cfg.options
    ratios, epsilons, beta_a = opts["beta-ratio"], opts["epsilon"], opts["beta-a"]
    baths = [BathPair(beta_a, r * beta_a) for r in ratios]
    cavity = _cavity(opts, epsilons[0])
    family = _trajectory_family(opts)
    thermalization_time = opts["thermalization-time"]
    if cfg.command == "sweep":
        g, taus, failures = _sweep_grid(
            cavity, baths, opts["tau-grid"].points, family, epsilons, opts["mode"],
            thermalization_time,
        )
    else:  # _validate has left one ratio and one epsilon
        taus, failures = [opts["tau"]], (None,)
        g = _cell(cavity, baths[0], cfg.command, family(taus[0]), include_casimir=True,
                  thermalization_time=thermalization_time)
    # every coordinate, as requested, formatted once and every column listed
    # once, in cycle.sweep's row order; omega_1 = 1, so tau is tau_omega1
    B, E, T = g.shape
    floats = _listed(g, g.Q, g.W, g.eta, g.eta_ad, g.power, g.ef_a, g.ef_c)
    runs, warned = _listed(g, g.runs, g.tail_warning, dtype=bool)
    rows = zip(
        ["%.17g" % tau for tau in taus] * (B * E),
        [text for text in ("%.17g" % ratio for ratio in ratios) for _ in range(E * T)],
        [text for text in ("%.17g" % eps for eps in epsilons) for _ in taus] * B,
        *floats[:5], [g.machine if r else "dissipator" for r in runs], *floats[5:], warned,
    )
    failed = [failure is not None for failure in failures]
    if any(failed):
        rows = [(*row[:3], *_FAILED_CELL) if bad else row for row, bad in zip(rows, failed * B * E)]
    _write_table(cfg, out, _CYCLE_TABLE, rows)
    return 3 if any(failed) else 0


def _run_shortcut_check(cfg: RunConfig, out) -> int:
    opts = cfg.options
    L0, points = opts["L0"], opts["points"]
    traj = shortcut(quintic(opts["tau"]), L0)
    rows = []
    for n in opts["n"]:
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
        L0=_L0, epsilon=opts["epsilon"][0], n_modes=opts["fock-modes"]
    )
    identities = opts["check"] == "identities"
    beta = opts["beta"]
    try:
        if identities:
            # through the module attribute: perfbench/tracing.py wraps a
            # cli.verify_trace_identities name with a hook that reads a
            # .dimension off the second argument, now the cavity
            report = _fock_oracle.verify_trace_identities(beta, cavity, opts["n-max"])
        else:
            traj = _trajectory(opts)
            comparison = validate_friction(cavity, ThermalBath(beta), traj, opts["dt"])
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
    "engine": _run_cycle,
    "refrigerator": _run_cycle,
    "sweep": _run_cycle,
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
