"""Energy pumped into the field by non-adiabatic wall motion.

A wall stroke of normalised profile ``delta(t)`` deposits, at second order
in the compression ratio ``eps``, the energy

    E_F = sum_k (eps**2 w_k / 4) * {
        (w_k'**2 L0**2 / w_k**2) * A(2 w_k) * (2 N_k + 1)
        + sum_{j != k} (g_jk**2 / (w_j w_k)) * [
              (w_k - w_j)**2 * A(w_j + w_k) * (N_k + N_j + 1)
            + (w_j + w_k)**2 * A(|w_j - w_k|) * (N_j - N_k) ] }

where ``A(W) = C(W)**2 + S(W)**2`` is the spectral power of the wall
velocity, ``C``/``S`` its cosine/sine amplitudes, and ``N_k`` the initial
thermal occupations.  The double time integral of the underlying kernel
separates exactly into ``A(W)``; the tensor-product check against the
unseparated kernel lives in the tests.

That leaves the bath only in the occupations and the trajectory only in
``A``.  For the equidistant spectrum ``w_k = k w_1`` every frequency above
is a grid point ``n w_1`` (``n = 2k``, ``j + k`` or ``|j - k|``) and the
geometric factors collapse, ``(w_k' L0 / w_k)**2 = 1`` and
``g_jk**2 (w_k -+ w_j)**2 / (w_j w_k) = 4jk / (j +- k)**2``.  Grouping the
double sum by ``n`` gives, with ``A[n] = A(n w_1)``,

    E_F / eps**2 = sum_{n=1}^{2K} c_n A[n]
    c_n = (w_1 / n) [ sum_k k (n - k) (N_k + 1/2)
                      + sum_{i=1}^{K-n} i (i + n) (N_i - N_{i+n}) ]

with ``k`` running over ``max(1, n - K) <= k <= min(K, n - 1)``.  The first
sum is pair creation: its ``k = n/2`` term is single-mode squeezing, the
others correlated pairs across modes.  The second is photon scattering
between modes ``i`` and ``i + n``, which only moves energy when the modes
are unequally populated; the occupations fall with ``k``, so every
``c_n >= 0``.  The round-off bound takes the amplitudes' bound ``A_err[n]``
through the twin kernel ``e_n``: the same pair-creation sum, with the
scattering pairs added in absolute value,
``(1 / n**2) sum_i i (i + n) (w_i + w_{i+n}) |N_i - N_{i+n}|``.

Both kernels depend on the cavity, the bath and K only.  Each is built once,
in ``O(K)`` from head and tail sums of ``k**p N_k``, and cached, so a
(table, bath) pair costs one product of length ``2K + 1``.  The kernels
also carry the per-mode rows of the last few modes, which the tail fit
below reads; the full per-mode split is an ``O(K**2)`` pass taken only when
asked for (:func:`mode_breakdown`).  The analytic upper bound
(:func:`friction_bound`) is the same dot product over a bounding power
spectrum.  The stroke can only heat the field, never cool it, and the
deposit is identical for the forward and the time-reversed stroke.

Mode sums run to the configured cutoff K; the truncated remainder is
estimated by extrapolating a power-law fit of the last per-mode
contributions.  Everything is computed per unit ``eps**2`` internally and
scaled at the boundary.  The amplitudes on the grid ``n * pi / L0``,
``n <= 2K``, are computed once per trajectory in :func:`spectral_table`.
A call takes each (table, bath) product it needs once, on its own, and
fits their tails together in one array pass; every compression ratio and
cell with that bath then costs an ``eps**2`` scaling and the tail flag.

Every profile is a piecewise polynomial (:mod:`casotto.trajectory`), so the
amplitudes have a finite closed form per piece (repeated integration by
parts, the exact limit of Filon-type quadrature; Filon 1928, Iserles &
Norsett, Proc. R. Soc. A 461 (2005) 1383), and their only error is
round-off.  The by-parts factor ``(-1)**m / (i w)**(m+1)`` is the fixed
phase ``-i**(m+1)`` of derivative order ``m`` times the real power
``w**-(m+1)``, so a whole table is a few small real matrix products over
tables of each piece's end derivatives, which do not depend on frequency.
Time reversal maps ``C + iS`` to ``-exp(i w (t_start + t_end)) (C - iS)``,
leaving ``A`` unchanged, which is why one table serves both strokes of a
cycle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectrum import CavityConfig, ThermalBath, _require_finite, _warn
from .spectrum import mode_frequencies, occupations
from .trajectory import PPoly, Trajectory, _ascending_sum

__all__ = [
    "SpectralAmplitudes",
    "FrictionResult",
    "TruncationWarning",
    "spectral_amplitudes",
    "spectral_table",
    "partial_spectral_integral",
    "friction_energy",
    "friction_bound",
    "mode_breakdown",
]


class TruncationWarning(UserWarning):
    """Mode-sum tail estimate exceeds the configured relative tolerance."""


@dataclass(frozen=True)
class SpectralAmplitudes:
    """Cosine/sine amplitudes of the wall velocity, one entry per frequency.

    ``C = integral ddelta(t) cos(omega t) dt`` and likewise ``S`` with sine;
    ``err`` bounds the round-off of each.  At ``omega = 0`` the cosine
    amplitude is the net displacement and ``S`` vanishes.
    """

    omegas: np.ndarray
    C: np.ndarray
    S: np.ndarray
    err: np.ndarray

    @property
    def power(self) -> np.ndarray:
        """Spectral power ``C**2 + S**2``."""
        return self.C * self.C + self.S * self.S

    @property
    def power_err(self) -> np.ndarray:
        """Round-off bound of ``power``: the amplitude bounds propagated to
        first and second order."""
        return 2.0 * (np.abs(self.C) + np.abs(self.S)) * self.err + 2.0 * self.err**2


@dataclass(frozen=True)
class FrictionResult:
    """Friction energy of one stroke.

    ``err`` is the amplitudes' round-off bound propagated through the mode
    sums, and ``value_per_eps2`` the compression-independent core.  The
    per-mode split is :func:`mode_breakdown`, the analytic upper bound
    :func:`friction_bound`.
    """

    value: float
    k_used: int
    tail_estimate: float
    beta: float
    err: float
    value_per_eps2: float
    tail_warning: bool


# Below this w*h a piece's integral is summed from the Taylor series of its
# moments: the integration-by-parts boundary terms would cancel there.
_TAYLOR_BELOW = 3.0
# (w h)**n / n! < 1e-18 beyond this many terms while w h < 3
_TAYLOR_TERMS = 32
_EPS = float(np.finfo(float).eps)
# i**n of the Taylor term n, exact
_TAYLOR_PHASE = np.array([1.0, 1j, -1.0, -1j])[np.arange(_TAYLOR_TERMS) % 4, None]


@functools.lru_cache(maxsize=16)
def _order_tables(order: int):
    """Constants of a piece with ``order`` polynomial coefficients.

    ``shift[m, k] = m + k`` and ``rise[m, k] = (m + k)! / k!`` give the
    coefficient of ``u**k`` in the m-th derivative as
    ``rise[m, k] * a[shift[m, k]]`` (``rise`` is 0 past the degree).
    ``phase[m] = -i**(m + 1)`` is the phase of the integration-by-parts
    factor ``(-1)**m / (i w)**(m + 1) = phase[m] * w**-(m + 1)``, and
    ``moment[n, j] = 1 / (n + j + 1)`` weighs coefficient ``j`` in the n-th
    Taylor moment.  The arrays are read-only.
    """
    m = np.arange(order)
    shift = m[:, None] + m[None, :]
    rise = np.array([[math.perm(j, i) if j < order else 0.0 for j in row] for i, row in enumerate(shift)])
    phase = np.array([-1j, 1.0, 1j, -1.0])[m % 4, None]
    moment = 1.0 / (np.arange(_TAYLOR_TERMS)[:, None] + m[None, :] + 1.0)
    tables = (np.minimum(shift, order - 1), rise[:, :, None], phase, moment)
    for t in tables:
        t.flags.writeable = False
    return tables


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _fourier(v: PPoly, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``F(w) = integral v(t) exp(i w t) dt`` over ``v``'s domain, in closed form.

    Piece ``i`` of ``v``, the polynomial ``p(u)`` in ``u = t - x_i`` on a
    width ``h``, contributes ``exp(i w x_i) J(w)`` with
    ``J = integral_0^h p(u) exp(i w u) du``.  For ``w h >= 3`` that is the
    finite integration-by-parts sum
    ``sum_m (-1)**m [p^(m)(u) exp(i w u)]_0^h / (i w)**(m+1)``, whose
    frequency factor is ``-i**(m+1) w**-(m+1)``: a fixed phase per
    derivative order times a real power.  So with the end-derivative tables
    ``p^(m)(h)`` and ``p^(m)(0)`` of every piece, built once, and the real
    ``R[w, m] = w**-(m+1)``, the whole branch is
    ``(R @ (phase * ends)) exp(i w h) - R @ (phase * starts)``.  Below, it
    is the Taylor series ``h sum_n (i w h)**n / n! sum_j a_j h**j / (j + n + 1)``
    of the moments: the real ``(w h)**n / n!`` of each (frequency, piece)
    cell against its own piece's moments only, each moment turned by
    ``i**n`` once, so work and memory grow linearly in the pieces.  Returns
    ``F`` and a first-order round-off bound on it: unit round-off times the
    terms evaluated with absolute coefficients (weighted by the polynomial
    order), plus the phase arguments' rounding times the terms that carry
    each phase.  The absolute terms are the same products over the twin
    tables of absolute coefficients.
    """
    a = v.c[::-1]  # ascending powers of u; one column per piece
    order, pieces = a.shape
    shift, rise, phase, moment = _order_tables(order)
    x0 = v.x[:-1]
    h = v.x[1:] - x0
    w = np.asarray(omegas, dtype=float)[:, None]
    wh = w * h

    powers = h ** np.arange(order)[:, None]  # h**k, one column per piece
    if not np.isfinite(powers).all():
        raise ValueError(f"a piece {np.max(h):g} wide overflows the amplitude table")
    # [m, k]: the coefficient of u**k in the m-th derivative, per piece
    derivative = a[shift] * rise
    ends = (derivative * powers).sum(axis=1)
    starts = derivative[:, 0]
    ends_abs = (np.abs(derivative) * powers).sum(axis=1)
    # the phased end-derivative tables as interleaved real and imaginary
    # parts, then the terms with absolute coefficients and those carried by
    # exp(i w h); R is real, so one real product takes them all
    tables = np.concatenate([
        (phase * np.concatenate([ends, starts], axis=1)).view(float),
        ends_abs + np.abs(starts),
        np.abs(ends),
    ], axis=1)
    R = np.empty((len(w), order))
    # integration by parts on every cell; a cell below the switch may come
    # out non-finite (a zero frequency always does, silently under the
    # decorator), and each of those is overwritten by its Taylor sum below
    R[:, 0] = 1.0 / w[:, 0]
    for m in range(1, order):
        np.multiply(R[:, m - 1], R[:, 0], out=R[:, m])
    terms = R @ tables
    phased = terms[:, : 4 * pieces].view(complex)
    J = phased[:, :pieces] * np.exp(1j * wh) - phased[:, pieces:]
    size = terms[:, 4 * pieces : 5 * pieces]  # terms with absolute coefficients
    carried = terms[:, 5 * pieces :]  # terms multiplied by exp(i w h)

    iw, ip = np.nonzero(wh < _TAYLOR_BELOW)
    if len(iw):
        b = a * powers
        x = wh[iw, ip]
        # (w h)**n / n! for n < _TAYLOR_TERMS, one row per (frequency, piece)
        real = np.empty((len(x), _TAYLOR_TERMS))
        real[:, 0] = 1.0
        real[:, 1:] = x[:, None] / np.arange(1.0, _TAYLOR_TERMS)
        np.cumprod(real, axis=1, out=real)
        # row-wise dots: a product with every piece's moments would keep one
        # entry per row of a (cells x pieces) result
        hp = h[ip]
        J[iw, ip] = hp * np.einsum("cn,cn->c", real, (_TAYLOR_PHASE * (moment @ b)).T[ip])
        size[iw, ip] = carried[iw, ip] = hp * np.einsum(
            "cn,cn->c", real, (moment @ np.abs(b)).T[ip]
        )

    bound = (order + 4) * size + wh * carried
    if not x0.any():  # one piece starting at t = 0: no phase to apply
        return J.sum(axis=1), _EPS * bound.sum(axis=1)
    bound += w * np.abs(x0) * np.abs(J)
    return (np.exp(1j * w * x0) * J).sum(axis=1), _EPS * bound.sum(axis=1)


def spectral_amplitudes(traj: Trajectory, omegas) -> SpectralAmplitudes:
    """Amplitudes of ``ddelta`` at a scalar or 1-D array of frequencies."""
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    if w.ndim != 1 or not ((w >= 0.0) & (w < math.inf)).all():
        raise ValueError(f"omegas must be finite, non-negative and at most 1-D, got {omegas}")
    F, err = _fourier(traj.delta.derivative(), w)
    return SpectralAmplitudes(omegas=w, C=F.real, S=F.imag, err=err)


def spectral_table(traj: Trajectory, cfg: CavityConfig) -> SpectralAmplitudes:
    """Amplitudes at every multiple of ``pi/L0`` up to ``2 * cfg.n_modes``."""
    # valid by construction: no detour through spectral_amplitudes' checks
    w = np.arange(2 * cfg.n_modes + 1) * cfg.omega1
    F, err = _fourier(traj.delta.derivative(), w)
    return SpectralAmplitudes(omegas=w, C=F.real, S=F.imag, err=err)


def partial_spectral_integral(
    traj: Trajectory, n: int, L0: float, t: float
) -> tuple[float, float]:
    """Running amplitudes ``(I_n(t), J_n(t))`` of ``ddelta`` up to time ``t``.

    ``I_n(t) = integral_{t_start}^{t} ddelta(t') cos(n pi t'/L0) dt'`` and
    ``J_n`` with sine.  For a shortcut profile both transients return to
    zero at ``t_end``: the photons created early in the stroke are
    reabsorbed.
    """
    if int(n) != n or n < 0:
        raise ValueError("n must be a non-negative integer")
    if not 0 < L0 < math.inf:
        raise ValueError(f"L0 must be positive and finite, got {L0}")
    if not (traj.t_start <= t <= traj.t_end):
        raise ValueError(f"t={t} outside trajectory domain")
    if t == traj.t_start:
        return 0.0, 0.0
    v = traj.delta.derivative()
    k = int(np.searchsorted(v.x, t))  # pieces that start before t
    F, _ = _fourier(PPoly(v.c[:, :k], np.append(v.x[:k], t)), [n * math.pi / L0])
    return float(F[0].real), float(F[0].imag)


# the truncation-tail fit reads the per-mode totals of this many top modes
_TAIL_FIT_POINTS = 8


def _tail_estimates(k_used: int, totals: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Extrapolated remainder of each mode sum beyond the cutoff ``k_used``.

    Row ``r`` of ``totals`` holds one product's per-mode totals of the last
    ``_TAIL_FIT_POINTS`` modes and ``noise`` their round-off bounds.  Fits
    ``|contribution| ~ c * k**-p`` to each row (least squares in ``log k``)
    and sums the extrapolation.  When every fitted contribution of a row lies
    within its round-off bound there is no decay to fit, and the remainder is
    not resolvable above round-off: the row's summed bound is returned.  A
    row with a zero total gives 0.0 and one whose fit does not decay inf;
    every row is NaN when too few modes are available.  Each row takes the
    same elementwise operations and sums of its own, so its estimate does
    not depend on the rows fitted beside it.
    """
    if k_used < _TAIL_FIT_POINTS + 4:
        return np.full(len(totals), math.nan)
    x = np.log(np.arange(k_used - _TAIL_FIT_POINTS + 1.0, k_used + 1.0))
    x_mean = x.sum() / _TAIL_FIT_POINTS
    dx = x - x_mean
    k_next = k_used + 1
    tail = np.abs(totals)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = np.log(tail)
        y_mean = y.sum(axis=1) / _TAIL_FIT_POINTS
        slope = ((y - y_mean[:, None]) * dx).sum(axis=1) / (dx @ dx)
        # with p = -slope: the integral remainder c k**(1-p) / (p-1) plus
        # half the first omitted term c k**-p, at k = k_used + 1
        estimate = np.exp(y_mean + slope * (math.log(k_next) - x_mean)) * (
            0.5 - k_next / (slope + 1.0)
        )
    estimate[~(slope < -1.0)] = math.inf  # p <= 1 or NaN: no decay
    estimate[(tail <= 0.0).any(axis=1)] = 0.0
    within = (tail <= noise).all(axis=1)
    estimate[within] = noise.sum(axis=1)[within]
    return estimate


def _pair_layout(modes: np.ndarray, K: int, omega1: float):
    """Bath-independent grid indices and weights of the per-mode terms.

    Row ``r`` belongs to mode ``k = modes[r]``, column ``c`` to the partner
    mode ``j = c + 1`` of the ``K`` kept.  Returns ``(index, weight)`` pairs
    for single-mode pair creation ``(2k, w_k/4)``, cross-mode pair creation
    ``(k + j, (w_k/4) 4jk/(j + k)**2)`` and scattering
    ``(|j - k|, (w_k/4) 4jk/(j - k)**2)``, the last two zero at ``j = k``.
    A bath multiplies them by ``2 N_k + 1``, ``N_k + N_j + 1`` and
    ``N_j - N_k``; mode k's contribution is the sum of ``term * A[index]``.
    """
    k = modes[:, None]
    j = np.arange(1, K + 1)
    quarter_w = k * omega1 / 4.0
    off = j != k
    gap = np.abs(j - k)
    create = np.where(off, quarter_w * (4.0 * k * j / (k + j) ** 2), 0.0)
    scatter = np.where(off, quarter_w * (4.0 * k * j / np.maximum(gap, 1) ** 2), 0.0)
    return (2 * k, quarter_w), (k + j, create), (gap, scatter)


@functools.lru_cache(maxsize=8)
def _tail_layout(L0: float, K: int):
    """:func:`_pair_layout` of the last ``T = min(_TAIL_FIT_POINTS, K)`` modes.

    Returns the three weights and the flat :func:`numpy.bincount` index that
    places each term of row ``r`` at ``r * (2K + 1) + index``.  The arrays
    are read-only.
    """
    T = min(_TAIL_FIT_POINTS, K)
    layout = _pair_layout(np.arange(K - T + 1, K + 1), K, math.pi / L0)
    offset = (2 * K + 1) * np.arange(T)[:, None]
    index = np.concatenate([(offset + i).ravel() for i, _ in layout])
    weights = tuple(w for _, w in layout)
    for a in (index, *weights):
        a.flags.writeable = False
    return weights, index


@functools.lru_cache(maxsize=32)
@np.errstate(over="ignore", invalid="ignore")
def _bath_kernel(L0: float, K: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """E_F weights of one bath at cutoff K over the grid n = 0..2K, per unit eps**2.

    Returns the value and round-off kernels, each ``1 + T`` rows by
    ``2K + 1``: row 0 is ``c_n`` (``e_n``) of the module docstring, rows
    1..T the per-mode kernels of the last ``T = min(_TAIL_FIT_POINTS, K)``
    modes.  ``value @ A`` gives ``E_F / eps**2`` and those modes' totals,
    ``error @ A_err`` their round-off bounds.  The arrays are read-only.
    Raises ValueError where the sums overflow.
    """
    w1 = math.pi / L0
    N = occupations(beta, mode_frequencies(K, L0))
    k = np.arange(1.0, K + 1.0)
    terms = np.empty((5, K))  # k (N + 1/2), k**2 (N + 1/2), k N, k**2 N, k**3 N
    terms[0] = k * (N + 0.5)
    terms[2] = k * N
    terms[1], terms[3] = k * terms[0], k * terms[2]
    terms[4] = k * terms[3]
    # [:, m] = sum over i <= m (head) and over i > m (rest), m = 0..K-1;
    # every window below is one of them, never a difference of two
    head = np.zeros((5, K))
    np.cumsum(terms[:, :-1], axis=1, out=head[:, 1:])
    rest = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]

    x = np.arange(1.0, 2 * K + 1.0)  # n
    T = min(_TAIL_FIT_POINTS, K)
    kernels = np.zeros((2, 1 + T, 2 * K + 1))
    value, error = kernels
    # pair creation: k (n - k) (N_k + 1/2) over max(1, n - K) <= k <= min(K, n - 1),
    # a head window for n <= K and a rest window above
    window = np.concatenate([head[:2], rest[:2]], axis=1)
    value[0, 1:] = error[0, 1:] = x * window[0] - window[1]
    # scattering between i and i + n for i <= K - n: i (i + n) (N_i - N_{i+n}),
    # and i (i + n) (2i + n) (N_i - N_{i+n}) / n for the bound (N falls with k)
    a, b, t = head[2:, K - 1:0:-1], rest[2:, 1:], x[: K - 1]
    value[0, 1:K] += (a[1] + t * a[0]) - (b[1] - t * b[0])
    error[0, 1:K] += (
        (2.0 * a[2] + 3.0 * t * a[1] + t * t * a[0])
        - (2.0 * b[2] - 3.0 * t * b[1] + t * t * b[0])
    ) / t
    value[0, 1:] *= w1 / x
    error[0, 1:] *= w1 / x

    (diag, create, scatter), index = _tail_layout(L0, K)
    Nk = N[K - T:, None]
    dn = N - Nk
    paired = [(diag * (2.0 * Nk + 1.0)).ravel(), (create * (Nk + N + 1.0)).ravel()]
    size = T * (2 * K + 1)
    for kernel, scattered in ((value, dn), (error, np.abs(dn))):
        weight = np.concatenate(paired + [(scatter * scattered).ravel()])
        kernel[1:] = np.bincount(index, weight, minlength=size).reshape(T, 2 * K + 1)
    _require_finite(np.isfinite(kernels).all(), "beta", beta, "friction mode sums", K)
    value.flags.writeable = error.flags.writeable = False
    return value, error


def _stroke_cutoff(cfg: CavityConfig, table: SpectralAmplitudes) -> int:
    """The cutoff K of ``cfg``, once ``table`` is known to describe a stroke of
    unit net displacement (either direction) on the grid ``n * pi / L0`` up
    to n = 2K at least; the grid is judged by its length, step and 2K-th point."""
    # the zero-frequency cosine amplitude is the net displacement
    disp = float(table.C[0])
    if abs(abs(disp) - 1.0) > 1e-6:
        raise ValueError(
            f"trajectory must be normalised to unit displacement, got {disp:.6g}"
        )
    K = cfg.n_modes
    w = table.omegas
    if len(w) < 2 * K + 1:
        raise ValueError(f"spectral table covers n <= {len(w) - 1}, need {2 * K}")
    if not math.isclose(w[1], cfg.omega1, rel_tol=1e-12) or w[2 * K] != 2 * K * w[1]:
        raise ValueError("spectral table was built for a different cavity")
    return K


def _truncation_flag(tail, value_per_eps2, eps2, err, tail_tol):
    """Whether a mode sum's tail estimate flags truncation; floats or arrays.

    The one rule for every truncated sum.  ``tail`` and ``value_per_eps2``
    are per unit ``eps**2``, ``err`` is the scaled round-off bound (a sum
    without one passes ``eps2 = 1`` and ``err = 0``).  An infinite estimate
    (no decay to fit) flags, a NaN one (too few modes) does not, and neither
    does a tail within ``err``.
    """
    return np.isinf(tail) | (
        (tail > tail_tol * np.maximum(np.abs(value_per_eps2), 1e-300))
        & (eps2 * tail > err)
    )


def _warn_truncation(tail: float, value: float, tail_tol: float) -> None:
    """Warn that friction energy ``value``'s scaled tail estimate is flagged."""
    _warn(
        f"mode-sum tail estimate {tail:.3e} exceeds "
        f"tail_tol * value = {tail_tol * abs(value):.3e}",
        TruncationWarning,
    )


def _per_bath(tables, L0: float, K: int, betas) -> list[list[tuple[float, float, float]]]:
    """``E_F / eps**2``, its round-off bound and the tail estimate, per bath and table.

    None depends on the compression ratio.  Each (table, bath) product is
    one pair of kernel products of its own, so its value does not depend on
    what else is computed; all tails are fitted in one :func:`_tail_estimates`
    call.  Betas run outside tables, so each kernel is fetched once.  Returns
    ``[beta][table]`` terms; a None table (a stroke that failed) has NaN terms.
    """
    powers = [(t.power[: 2 * K + 1], t.power_err[: 2 * K + 1]) for t in tables if t is not None]
    values, noise = [], []
    for beta in betas:
        value_kernel, error_kernel = _bath_kernel(L0, K, beta)
        for power, power_err in powers:
            values.append(value_kernel @ power)
            noise.append(error_kernel @ power_err)
    terms = iter(())  # in the order taken: betas outer, live tables inner
    if values:
        values, noise = np.array(values), np.array(noise)
        tails = _tail_estimates(K, values[:, 1:], noise[:, 1:])
        terms = zip(values[:, 0].tolist(), noise[:, 0].tolist(), tails.tolist())
    nan = (math.nan,) * 3
    return [[nan if t is None else next(terms) for t in tables] for _ in betas]


def friction_energy(
    cfg: CavityConfig,
    bath: ThermalBath,
    traj: Trajectory,
    *,
    table: SpectralAmplitudes | None = None,
) -> FrictionResult:
    """Friction energy of one stroke of ``traj`` starting from a thermal state.

    The profile must carry unit net displacement (either direction).  A
    precomputed :func:`spectral_table` of ``traj`` may be passed to share it
    across baths and compression ratios.
    """
    if table is None:
        table = spectral_table(traj, cfg)
    K = _stroke_cutoff(cfg, table)
    value_per_eps2, noise_per_eps2, tail = _per_bath([table], cfg.L0, K, [bath.beta])[0][0]
    eps2 = cfg.epsilon**2
    value = eps2 * value_per_eps2
    err = eps2 * noise_per_eps2

    tail_scaled = eps2 * tail
    tail_warning = bool(_truncation_flag(tail, value_per_eps2, eps2, err, cfg.tail_tol))
    if tail_warning:
        _warn_truncation(tail_scaled, value, cfg.tail_tol)

    return FrictionResult(
        value=value,
        k_used=K,
        tail_estimate=tail_scaled,
        beta=bath.beta,
        err=err,
        value_per_eps2=value_per_eps2,
        tail_warning=tail_warning,
    )


@np.errstate(over="ignore", invalid="ignore")
def mode_breakdown(
    cfg: CavityConfig, bath: ThermalBath, table: SpectralAmplitudes
) -> list[tuple[int, float, float, float]]:
    """Per-mode rows ``(k, diag, create, scatter)`` of ``E_F``, scaled by ``eps**2``.

    ``diag`` is mode k's single-mode pair creation, ``create`` its pair
    creation with the other modes and ``scatter`` its scattering; the rows
    sum to :func:`friction_energy`'s ``value``, and ``table`` must pass the
    same checks.  One ``O(K**2)`` pass.  Raises ValueError where the terms
    overflow.
    """
    K = _stroke_cutoff(cfg, table)
    N = occupations(bath.beta, mode_frequencies(K, cfg.L0))
    modes = np.arange(1, K + 1)
    (i_d, diag), (i_c, create), (i_s, scatter) = _pair_layout(modes, K, cfg.omega1)
    Nk = N[:, None]
    A = table.power
    eps2 = cfg.epsilon**2
    columns = (
        eps2 * (diag * (2.0 * Nk + 1.0) * A[i_d])[:, 0],
        eps2 * (create * (Nk + N + 1.0) * A[i_c]).sum(axis=1),
        eps2 * (scatter * A[i_s] * (N - Nk)).sum(axis=1),
    )
    _require_finite(np.isfinite(columns).all(), "beta", bath.beta, "per-mode friction terms", K)
    return list(zip(modes.tolist(), *(c.tolist() for c in columns)))


def _acceleration_variation(traj: Trajectory) -> float:
    """Exact total variation of ``d2delta`` over the stroke, jumps included.

    Each piece's acceleration is monotone between its ends and the real
    roots of its jerk.  Those points, sorted within each piece and the pieces
    in order, give a sequence of values whose absolute steps sum to the
    variation; the step from one piece's end to the next piece's start is
    the jump at their breakpoint.  The roots are the eigenvalues of every
    piece's companion matrix, taken in one batched call.  A jerk with leading
    zero coefficients is multiplied by the matching power of ``u``, which
    only adds roots at ``u = 0``.  Each eigenvalue's real part is clipped
    into its piece: a point that is not a turning point lies where the
    acceleration is monotone, so it leaves the sum unchanged.
    """
    acceleration = traj.d2delta
    h = np.diff(acceleration.x)
    jerk = traj.d3delta.c.T  # descending coefficients, one row per piece
    d = jerk.shape[1] - 1
    points = [np.zeros((len(h), 1)), h[:, None]]
    if d > 0:
        if not jerk[:, 0].all():
            # shift each row's leading zeros to its end; a flat piece becomes u**d
            shift = np.arange(d + 1) + np.argmax(jerk != 0.0, axis=1)[:, None]
            jerk = np.take_along_axis(jerk, np.minimum(shift, d), axis=1) * (shift <= d)
            jerk[jerk[:, 0] == 0.0, 0] = 1.0
        companion = np.zeros((len(h), d, d))
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, :, -1] = -jerk[:, :0:-1] / jerk[:, :1]
        points.append(np.clip(np.linalg.eigvals(companion).real, 0.0, h[:, None]))
    u = np.sort(np.concatenate(points, axis=1), axis=1)
    values = _ascending_sum(acceleration.c[:, :, None], u).ravel()
    return float(np.abs(np.diff(values)).sum())


def friction_bound(cfg: CavityConfig, bath: ThermalBath, traj: Trajectory) -> float:
    """Analytic upper bound on the friction energy of one stroke.

    The ``E_F`` sum of the module docstring with ``A(W)`` replaced by
    ``V**2 / W**4``, i.e. ``eps**2 c . A_b``, where ``V`` is the exact total
    variation of ``d2delta`` (:func:`_acceleration_variation`).  For a
    stroke that starts and ends at rest with vanishing acceleration,
    integrating by parts twice gives ``|C(W) + i S(W)| <= V / W**2``, with
    every acceleration jump at a breakpoint counted in ``V``.  ``E_F`` is a
    non-negative combination of the ``A(n w_1)`` (every ``c_n >= 0``), so the
    bound dominates it at every bath temperature.  Raises ValueError for a
    non-vanishing endpoint velocity or acceleration, judged against
    ``V / 2`` (times the duration for the velocity).
    """
    V = _acceleration_variation(traj)
    tol = 1e-9 * (V / 2.0)  # V / 2 is a single-bump acceleration's swing
    ends = np.array([traj.t_start, traj.t_end])
    if np.max(np.abs(traj.ddelta(ends))) > tol * traj.duration:
        raise ValueError("bound requires vanishing endpoint velocity")
    if np.max(np.abs(traj.d2delta(ends))) > tol:
        raise ValueError("bound requires vanishing endpoint acceleration")

    K = cfg.n_modes
    W = np.arange(1, 2 * K + 1) * cfg.omega1
    A = np.concatenate([[0.0], V**2 / W**4])
    c = _bath_kernel(cfg.L0, K, bath.beta)[0][0]
    return float(cfg.epsilon**2 * (c @ A))
