"""Wall-motion profiles as piecewise polynomials.

A :class:`Trajectory` is the dimensionless displacement profile ``delta(t)``
of the moving wall, normalised so that a full compression stroke runs from
``delta = 0`` to ``delta = 1``.  ``delta`` is a :class:`PPoly`, the small
piecewise polynomial defined here: its breakpoints ``delta.x`` are the only
places where the profile loses smoothness, and its derivatives are again
exact piecewise polynomials (``delta.derivative(m)``).  The friction layer
relies on this to take the spectral amplitudes in closed form and the
bound's acceleration variation from exact roots; differentiating a sampled
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

__all__ = [
    "PPoly",
    "Trajectory",
    "quintic",
    "reverse",
    "shortcut",
    "from_samples",
]

Evaluator = Callable[[np.ndarray], np.ndarray]


class PPoly:
    """Piecewise polynomial in scipy's layout: ``c[m, i]`` multiplies
    ``(t - x[i])**(k - m)`` on piece ``i``, with ``k = c.shape[0] - 1``.

    Pieces are right-continuous, the last one is closed, and points outside
    ``[x[0], x[-1]]`` use the nearest end piece.  Values are summed in
    ascending powers, as ``scipy.interpolate.PPoly`` sums them.
    """

    __slots__ = ("c", "x")

    def __init__(self, c, x) -> None:
        self.c = np.array(c, dtype=float)
        self.x = np.array(x, dtype=float)
        if self.c.ndim != 2 or self.c.shape[0] == 0 or self.x.shape != (self.c.shape[1] + 1,):
            raise ValueError(
                f"need c of shape (k + 1, n) and n + 1 breakpoints, got {self.c.shape} and {self.x.shape}"
            )
        if np.any(np.diff(self.x) < 0):
            raise ValueError("breakpoints must be non-decreasing")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.x[1:-1], t, side="right")  # the piece holding t
        return _ascending_sum(self.c[:, i], t - self.x[i])

    def derivative(self, nu: int = 1) -> "PPoly":
        """Order-``nu`` derivative; above the degree it is zero on every piece."""
        k = self.c.shape[0] - 1
        if nu > k:
            return PPoly(np.zeros((1, self.c.shape[1])), self.x)
        factor = np.array([math.perm(p, nu) for p in range(k, nu - 1, -1)], dtype=float)
        return PPoly(self.c[: k + 1 - nu] * factor[:, None], self.x)

    def antiderivative(self) -> "PPoly":
        """Antiderivative that vanishes at ``x[0]`` and is continuous across
        every breakpoint."""
        k = self.c.shape[0] - 1
        c = np.zeros((k + 2, self.c.shape[1]))
        c[:-1] = self.c / np.arange(k + 1, 0, -1.0)[:, None]
        for i in range(1, c.shape[1]):
            c[-1, i] = _ascending_sum(c[:, i - 1], self.x[i] - self.x[i - 1])
        return PPoly(c, self.x)


def _ascending_sum(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``sum_m c[k - m] * s**m``, accumulated from the constant term up."""
    value, power = 0.0 + c[-1], s
    for row in c[-2::-1]:
        value = value + row * power
        power = power * s
    return value


@dataclass(frozen=True)
class Trajectory:
    """Dimensionless wall profile on ``[t_start, t_end] = [delta.x[0], delta.x[-1]]``.

    ``delta`` is the profile as a :class:`PPoly`; another piecewise
    polynomial in the same layout converts as ``PPoly(p.c, p.x)``.
    ``ddelta`` evaluates its velocity on numpy arrays.  Left None or given
    as a ``PPoly``, it is the exact ``delta.derivative()``, so
    ``dataclasses.replace(traj, delta=...)`` re-derives it; any other
    callable, such as a wrapper passed through ``dataclasses.replace``, is
    kept.
    The read-only ``d2delta`` and ``d3delta`` are ``delta.derivative(2)``
    and ``(3)``, built on each access.
    """

    delta: PPoly
    label: str = "trajectory"
    ddelta: Evaluator | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.delta, PPoly):
            raise TypeError(f"delta must be a PPoly, got {type(self.delta).__name__}")
        t0, t1 = self.delta.x[0], self.delta.x[-1]
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ValueError("trajectory domain must be finite")
        if not t1 > t0:
            raise ValueError(f"empty trajectory domain [{t0}, {t1}]")
        if self.ddelta is None or isinstance(self.ddelta, PPoly):
            object.__setattr__(self, "ddelta", self.delta.derivative())

    @property
    def d2delta(self) -> PPoly:
        return self.delta.derivative(2)

    @property
    def d3delta(self) -> PPoly:
        return self.delta.derivative(3)

    @property
    def t_start(self) -> float:
        return float(self.delta.x[0])

    @property
    def t_end(self) -> float:
        return float(self.delta.x[-1])

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def _taylor_shift(a: np.ndarray, s) -> np.ndarray:
    """Ascending coefficients of ``p(u + s)`` from those of ``p(u)``.

    ``a[j]`` multiplies ``u**j``; its columns (one polynomial each) are
    shifted by the matching entries of ``s``.  Row ``k`` of the result is
    the binomial Taylor-shift matrix applied to ``a``,
    ``sum_{j >= k} binomial(j, k) s**(j - k) a[j]``, accumulated along its
    diagonals ``d = j - k`` in ascending order.
    """
    n = a.shape[0]
    q = a.copy()
    power = s
    for d in range(1, n):
        binomial = np.array([math.comb(k + d, d) for k in range(n - d)], dtype=float)
        q[: n - d] += binomial[:, None] * a[d:] * power
        power = power * s
    return q


def _from_pieces(pieces: Sequence[tuple[float, float, np.ndarray]], order: int) -> PPoly:
    """Sum of polynomials, each supported on its own window, as one PPoly.

    Each entry ``(lo, hi, a)`` contributes ``p(t - lo)`` on ``[lo, hi]``,
    where ``a`` holds the ascending coefficients of ``p`` (at most
    ``order``); the breakpoints are the union of the window edges.
    """
    x = np.unique([edge for lo, hi, _ in pieces for edge in (lo, hi)])
    lo, hi = np.array([(lo, hi) for lo, hi, _ in pieces]).T
    first, last = np.searchsorted(x, lo), np.searchsorted(x, hi)
    # one shift re-expands each window, zero-padded to ``order``, about each
    # covered piece's left end; summed in window order, as one window at a time
    k = np.arange(len(x) - 1)
    window, piece = np.nonzero((first[:, None] <= k) & (k < last[:, None]))
    coeffs = np.array([[*a, *[0.0] * (order - len(a))] for _, _, a in pieces]).T
    shifted = _taylor_shift(coeffs[:, window], x[piece] - lo[window])[::-1]
    c = np.zeros((order, len(x) - 1))
    np.add.at(c.T, piece, shifted.T)
    return PPoly(c, x)


def quintic(tau: float) -> Trajectory:
    """Smoothest fifth-order ramp: ``10 s**3 - 15 s**4 + 6 s**5``, s = t/tau.

    Velocity and acceleration vanish at both endpoints, making the profile
    eligible for the friction bound and for cycle strokes.
    """
    # tau**5 must stay a normal float, or a coefficient is 0, inf or nan
    if not tau > 0 or not -307.0 < 5.0 * math.log10(tau) < 308.0:
        raise ValueError(f"tau must be positive with tau**5 in floating-point range, got {tau}")
    coeffs = np.array([6.0, -15.0, 10.0, 0.0, 0.0, 0.0]) / tau ** np.arange(5, -1, -1)
    return Trajectory(PPoly(coeffs[:, None], [0.0, tau]), label=f"quintic(tau={tau:g})")


def reverse(traj: Trajectory) -> Trajectory:
    """Time-reversed profile ``delta(t_end + t_start - t)`` on the same domain.

    Each piece is reflected exactly, so odd derivatives flip sign and
    reversing twice restores the original up to round-off.
    """
    x = traj.delta.x
    edges = (x[0] + x[-1]) - x[::-1]
    edges[0], edges[-1] = x[0], x[-1]
    # piece i, p(u) on [x_i, x_i+1], becomes p(h_i - u) on the mirrored
    # window: shift by h_i, then flip the sign of the odd powers
    a = _taylor_shift(traj.delta.c[::-1], np.diff(x))
    a[1::2] *= -1.0
    return Trajectory(PPoly(a[::-1, ::-1], edges), label=f"reversed({traj.label})")


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
    if not 0 < L0 < math.inf:
        raise ValueError(f"L0 must be positive and finite, got {L0}")
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
    pieces = [(t0 - L0, t0 + L0, [-r0 / norm]), (t1 - L0, t1 + L0, [r1 / norm])]
    for i in range(len(x) - 1):
        p = ramp.delta.c[::-1, i] / norm
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
        text = Path(source).read_text(encoding="utf-8")
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
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(d))):
        raise ValueError("samples must be finite")
    if np.any(np.diff(t) <= 0):
        raise ValueError("sample times must be strictly increasing")
    return Trajectory(_clamped_spline(t, d), label=label)


def _clamped_spline(t: np.ndarray, y: np.ndarray) -> PPoly:
    """Cubic spline through ``(t, y)`` with zero slope at both ends.

    With knot gaps ``h`` and secant slopes ``d``, the interior knot slopes
    solve ``h_i m_{i-1} + 2 (h_{i-1} + h_i) m_i + h_{i-1} m_{i+1} =
    3 (h_i d_{i-1} + h_{i-1} d_i)``, a diagonally dominant tridiagonal
    system: one elimination pass, no pivoting.  Each piece is then the cubic
    Hermite interpolant of its end values and slopes.
    """
    h = np.diff(t)
    d = np.diff(y) / h
    lower, upper = h[1:].tolist(), h[:-1].tolist()
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    rhs = (3.0 * (h[1:] * d[:-1] + h[:-1] * d[1:])).tolist()
    for i in range(1, len(diag)):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    m = [0.0] * len(t)
    for i in range(len(diag) - 1, -1, -1):
        m[i + 1] = (rhs[i] - upper[i] * m[i + 2]) / diag[i]
    m = np.array(m)
    cubic = (m[:-1] + m[1:] - 2.0 * d) / h
    return PPoly([cubic / h, (d - m[:-1]) / h - cubic, m[:-1], y[:-1]], t)
