"""Wall-motion profiles as piecewise polynomials.

A :class:`Trajectory` is the dimensionless displacement profile ``delta(t)``
of the moving wall, normalised so that a full compression stroke runs from
``delta = 0`` to ``delta = 1``.  ``delta`` is a
:class:`scipy.interpolate.PPoly`: its breakpoints ``delta.x`` are the only
places where the profile loses smoothness, and its derivatives are again
exact piecewise polynomials (``delta.derivative(m)``).  The friction layer
relies on this to take the spectral amplitudes in closed form and the
bound's acceleration extrema as exact roots; differentiating a sampled
profile numerically would instead dominate the error budget.

Families provided here:

* :func:`quintic` - the lowest-order polynomial with vanishing velocity and
  acceleration at both ends.
* :func:`shortcut` - the echo-type profile ``ddelta(t) = (Gdot(t+L0) -
  Gdot(t-L0)) / (2 L0)`` whose spectral amplitudes vanish at every multiple
  of ``pi/L0``, so the second-order friction energy cancels: photons created
  early in the stroke are reabsorbed before it ends.
* :func:`from_samples` - clamped cubic-spline interpolation of a
  user-supplied sampled profile (approximate; see the loosened derivative
  guarantee below).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import Polynomial
from scipy.interpolate import CubicSpline, PPoly

__all__ = [
    "Trajectory",
    "BoundaryReport",
    "quintic",
    "check_boundary_conditions",
    "reverse",
    "shortcut",
    "from_samples",
]

Evaluator = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Trajectory:
    """Dimensionless wall profile on ``[t_start, t_end] = [delta.x[0], delta.x[-1]]``.

    ``delta`` is the profile as a piecewise polynomial.  ``ddelta``,
    ``d2delta`` and ``d3delta`` evaluate its first three time derivatives
    on numpy arrays; left as None they are the exact derivatives
    ``delta.derivative(m)``.
    """

    delta: PPoly
    label: str = "trajectory"
    ddelta: Evaluator | None = None
    d2delta: Evaluator | None = None
    d3delta: Evaluator | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.delta, PPoly):
            raise TypeError("delta must be a scipy.interpolate.PPoly")
        t0, t1 = self.delta.x[0], self.delta.x[-1]
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ValueError("trajectory domain must be finite")
        if not t1 > t0:
            raise ValueError(f"empty trajectory domain [{t0}, {t1}]")
        for order, name in enumerate(("ddelta", "d2delta", "d3delta"), start=1):
            if getattr(self, name) is None:
                object.__setattr__(self, name, self.delta.derivative(order))

    @property
    def t_start(self) -> float:
        return float(self.delta.x[0])

    @property
    def t_end(self) -> float:
        return float(self.delta.x[-1])

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def displacement(self) -> float:
        """Net displacement delta(t_end) - delta(t_start)."""
        ends = self.delta(np.array([self.t_start, self.t_end]))
        return float(ends[1] - ends[0])


@dataclass(frozen=True)
class BoundaryReport:
    """Endpoint checks for cycle-grade profiles (all within ``tol``).

    start_value/start_velocity/start_acceleration: delta, ddelta, d2delta
    vanish at t_start.  end_velocity/end_acceleration: ddelta, d2delta vanish
    at t_end.  end_value: delta(t_end) = 1.
    """

    start_value: bool
    start_velocity: bool
    start_acceleration: bool
    end_velocity: bool
    end_acceleration: bool
    end_value: bool
    measured: dict[str, float]

    @property
    def all_pass(self) -> bool:
        return (
            self.start_value
            and self.start_velocity
            and self.start_acceleration
            and self.end_velocity
            and self.end_acceleration
            and self.end_value
        )


def _piece(poly: PPoly, i: int) -> Polynomial:
    """Piece ``i`` of ``poly`` as a polynomial in ``t - poly.x[i]``."""
    return Polynomial(poly.c[::-1, i])


def _from_pieces(pieces: Sequence[tuple[float, float, Polynomial]], order: int) -> PPoly:
    """Sum of polynomials, each supported on its own window, as one PPoly.

    Each entry ``(lo, hi, p)`` contributes ``p(t - lo)`` on ``[lo, hi]``;
    the breakpoints are the union of the window edges.
    """
    x = np.unique([edge for lo, hi, _ in pieces for edge in (lo, hi)])
    c = np.zeros((order, len(x) - 1))
    for lo, hi, p in pieces:
        for i in range(np.searchsorted(x, lo), np.searchsorted(x, hi)):
            # re-expand about the piece's own left end; composition trims
            # vanishing leading coefficients, so pad from the top
            coef = p(Polynomial([x[i] - lo, 1.0])).coef
            c[order - len(coef):, i] += coef[::-1]
    return PPoly(c, x)


def quintic(tau: float) -> Trajectory:
    """Smoothest fifth-order ramp: ``10 s**3 - 15 s**4 + 6 s**5``, s = t/tau.

    Velocity and acceleration vanish at both endpoints, making the profile
    eligible for the friction bound and for cycle strokes.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    coeffs = np.array([6.0, -15.0, 10.0, 0.0, 0.0, 0.0]) / tau ** np.arange(5, -1, -1)
    return Trajectory(PPoly(coeffs[:, None], [0.0, tau]), label=f"quintic(tau={tau:g})")


def check_boundary_conditions(traj: Trajectory, tol: float = 1e-9) -> BoundaryReport:
    """Verify the six endpoint conditions of a cycle-grade profile."""
    t0 = np.array([traj.t_start])
    t1 = np.array([traj.t_end])
    measured = {
        "start_value": float(traj.delta(t0)[0]),
        "start_velocity": float(traj.ddelta(t0)[0]),
        "start_acceleration": float(traj.d2delta(t0)[0]),
        "end_velocity": float(traj.ddelta(t1)[0]),
        "end_acceleration": float(traj.d2delta(t1)[0]),
        "end_value": float(traj.delta(t1)[0]),
    }
    return BoundaryReport(
        start_value=abs(measured["start_value"]) <= tol,
        start_velocity=abs(measured["start_velocity"]) <= tol,
        start_acceleration=abs(measured["start_acceleration"]) <= tol,
        end_velocity=abs(measured["end_velocity"]) <= tol,
        end_acceleration=abs(measured["end_acceleration"]) <= tol,
        end_value=abs(measured["end_value"] - 1.0) <= tol,
        measured=measured,
    )


def reverse(traj: Trajectory) -> Trajectory:
    """Time-reversed profile ``delta(t_end + t_start - t)`` on the same domain.

    Each piece is reflected exactly, so odd derivatives flip sign and
    reversing twice restores the original up to round-off.
    """
    x = traj.delta.x
    edges = (x[0] + x[-1]) - x[::-1]
    edges[0], edges[-1] = x[0], x[-1]
    # piece i, p(u) on [x_i, x_i+1], becomes p(h_i - u) on the mirrored window
    pieces = [
        (edges[-2 - i], edges[-1 - i], _piece(traj.delta, i)(Polynomial([x[i + 1] - x[i], -1.0])))
        for i in range(len(x) - 1)
    ]
    return Trajectory(_from_pieces(pieces, traj.delta.c.shape[0]), label=f"reversed({traj.label})")


def shortcut(ramp: Trajectory, L0: float) -> Trajectory:
    """Friction-cancelling profile built from a monotone ramp.

    The ramp plays the role of the velocity shape ``Gdot`` on ``[t0, t0 +
    tau]``; outside that interval it is extended by its endpoint values.
    The resulting profile lives on ``[t0 - L0, t0 + tau + L0]`` with

        ddelta(t) = (Gdot(t + L0) - Gdot(t - L0)) / (2 L0 (r1 - r0))

    normalised to unit net displacement (the raw displacement of the
    construction is ``2 L0 (r1 - r0)``).  Every spectral amplitude of
    ``ddelta`` at a multiple of ``pi/L0`` vanishes identically: the two
    shifted copies acquire the same phase factor ``(-1)**n`` and cancel.

    The ramp must be flat at its own endpoints (its velocity there is the
    mismatch between the interior and the constant extension, which would
    put kinks in ``ddelta``), and its endpoint values must differ.
    """
    if not L0 > 0:
        raise ValueError(f"L0 must be positive, got {L0}")
    t0, t1 = ramp.t_start, ramp.t_end
    ends = ramp.delta(np.array([t0, t1]))
    r0, r1 = float(ends[0]), float(ends[1])
    slopes = ramp.ddelta(np.array([t0, t1]))
    if max(abs(float(slopes[0])), abs(float(slopes[1]))) > 1e-9:
        raise ValueError(
            "ramp exterior slopes differ from its endpoint derivatives: "
            "the constant extension would kink and ddelta would not vanish "
            "at the domain ends"
        )
    if abs(r1 - r0) < 1e-12:
        raise ValueError("ramp endpoint values coincide; zero net displacement")

    norm = 2.0 * L0 * (r1 - r0)
    x = ramp.delta.x
    pieces = [(t0 - L0, t0 + L0, Polynomial([-r0 / norm])),
              (t1 - L0, t1 + L0, Polynomial([r1 / norm]))]
    for i in range(len(x) - 1):
        p = _piece(ramp.delta, i) / norm
        pieces.append((x[i] - L0, x[i + 1] - L0, p))
        pieces.append((x[i] + L0, x[i + 1] + L0, -p))
    velocity = _from_pieces(pieces, ramp.delta.c.shape[0])
    return Trajectory(velocity.antiderivative(), label=f"shortcut({ramp.label}, L0={L0:g})")


def from_samples(source: str | Path | io.TextIOBase, label: str | None = None) -> Trajectory:
    """Build a profile from a two-column delimited text file ``t, delta``.

    Comma-separated, ``#`` starts a comment, times strictly increasing.  The
    samples are interpolated by a clamped cubic spline (endpoint velocity
    zero), so derivatives are approximate: the analytic-vs-finite-difference
    agreement is only guaranteed to about 1e-3 instead of the 1e-6 of the
    closed-form families.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
        label = label or str(source)
    else:
        text = source.read()
        label = label or "sampled"
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p for p in line.split(",") if p.strip()]
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 't, delta', got {raw!r}")
        rows.append((float(parts[0]), float(parts[1])))
    if len(rows) < 4:
        raise ValueError("need at least 4 samples for a cubic profile")
    t = np.array([r[0] for r in rows])
    d = np.array([r[1] for r in rows])
    if np.any(np.diff(t) <= 0):
        raise ValueError("sample times must be strictly increasing")
    return Trajectory(CubicSpline(t, d, bc_type="clamped"), label=label)
