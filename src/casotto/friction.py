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

That leaves the bath only in the occupations, and every term is linear in
them.  For the equidistant spectrum ``w_k = k w_1`` the geometric factors
collapse, ``(w_k' L0 / w_k)**2 = 1`` and ``g_jk**2 (w_k -+ w_j)**2 /
(w_j w_k) = 4jk / (j +- k)**2``, so the fast path splits in two.  Once per
spectral table and cutoff K it builds the bath-independent weights

    D_k = (w_k / 4) A[2k]
    Cm_kj = (w_k / 4) 4jk / (j + k)**2 A[j + k]      (j != k)
    Sm_kj = (w_k / 4) 4jk / (j - k)**2 A[|j - k|]    (j != k)

with ``A[n] = A(n w_1)``, and keeps them on the table.  Each bath then only
applies its occupations: ``diag = D (2N + 1)``, ``create = Cm N + (N + 1)
rowsum(Cm)`` and ``scatter_k = sum_j Sm_kj (N_j - N_k)``, the last summed
elementwise because ``Sm N - N rowsum(Sm)`` cancels.  A bath costs one
``K x K`` elementwise pass; the per-mode rows come from the same sums.
The analytic upper bound (:func:`friction_bound`) is this sum over a
bounding power spectrum, so it is built from the same weights.

The three per-mode pieces have distinct physics: the ``A(2 w_k)`` term is
single-mode pair creation (squeezing), the ``(N_k + N_j + 1)`` term is
correlated pair creation across modes, and the ``(N_j - N_k)`` term is
photon scattering between modes, which only moves energy when the modes are
unequally populated.  Each piece is non-negative once summed as below, so
the stroke can only heat the field, never cool it, and the deposit is
identical for the forward and the time-reversed stroke.

Mode sums run to the configured cutoff K; the truncated remainder is
estimated by extrapolating a power-law fit of the last per-mode
contributions.  Everything is computed per unit ``eps**2`` internally and
scaled at the boundary, so one spectral table serves every compression
ratio.  The frequencies needed are the even multiples ``2 w_k`` plus all
sums and differences ``w_j +- w_k``; for the equidistant cavity spectrum
those collapse onto the integer grid ``n * pi / L0``, ``n <= 2K``, which is
precomputed once per trajectory in :func:`spectral_table`.

Every profile is a piecewise polynomial (:mod:`casotto.trajectory`), so the
amplitudes have a finite closed form per piece (repeated integration by
parts, the exact limit of Filon-type quadrature; Filon 1928, Iserles &
Norsett, Proc. R. Soc. A 461 (2005) 1383), and their only error is
round-off.  Time reversal maps ``C + iS`` to
``-exp(i w (t_start + t_end)) (C - iS)``, leaving ``A`` unchanged, which is
why one table serves both strokes of a cycle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.interpolate import PPoly

from .spectrum import CavityConfig, ThermalBath, mode_frequencies, occupations
from .trajectory import Trajectory

__all__ = [
    "SpectralAmplitudes",
    "SpectralTable",
    "FrictionResult",
    "TruncationWarning",
    "spectral_amplitudes",
    "spectral_table",
    "partial_spectral_integral",
    "friction_energy",
    "friction_bound",
    "export_mode_table",
]


class TruncationWarning(UserWarning):
    """Mode-sum tail estimate exceeds the configured relative tolerance."""


@dataclass(frozen=True)
class SpectralAmplitudes:
    """Cosine/sine amplitudes of the wall velocity at one frequency.

    ``C = integral ddelta(t) cos(omega t) dt`` and likewise ``S`` with sine;
    ``err`` bounds the round-off of each.  At ``omega = 0`` the
    cosine amplitude is the net displacement and ``S`` vanishes.
    """

    omega: float
    C: float
    S: float
    err: float

    @property
    def power(self) -> float:
        """Spectral power ``C**2 + S**2``."""
        return self.C * self.C + self.S * self.S


@dataclass(frozen=True)
class SpectralTable:
    """Amplitudes of one trajectory on the grid ``n * pi / L0``, n = 0..2K.

    Precomputing the grid lets one table serve every mode pair (the needed
    sums and differences of equidistant frequencies are again grid points)
    and every bath and compression ratio.  The mode-sum weights built from
    it are kept per cutoff K, so the arrays must not be changed in place.
    """

    omega1: float
    C: np.ndarray
    S: np.ndarray
    err: np.ndarray
    label: str
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def power(self) -> np.ndarray:
        return self.C * self.C + self.S * self.S

    @property
    def n_max(self) -> int:
        return len(self.C) - 1


@dataclass(frozen=True)
class FrictionResult:
    """Friction energy of one stroke with its per-mode decomposition.

    ``per_mode`` rows are ``(k, diag, create, scatter)`` already scaled by
    ``eps**2``; their sum reproduces ``value``.  ``bound`` is the analytic
    upper bound when the profile shape admits one, else None.  ``err`` is
    the amplitudes' round-off bound propagated through the mode sums, and
    ``value_per_eps2`` the compression-independent core.
    """

    value: float
    per_mode: list[tuple[int, float, float, float]]
    bound: float | None
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


def _fourier(v: PPoly, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``F(w) = integral v(t) exp(i w t) dt`` over ``v``'s domain, in closed form.

    Piece ``i`` of ``v``, the polynomial ``p(u)`` in ``u = t - x_i`` on a
    width ``h``, contributes ``exp(i w x_i) J(w)`` with
    ``J = integral_0^h p(u) exp(i w u) du``.  For ``w h >= 3`` that is the
    finite integration-by-parts sum
    ``sum_m (-1)**m [p^(m)(u) exp(i w u)]_0^h / (i w)**(m+1)``; below, the
    Taylor series ``h sum_n (i w h)**n / n! sum_j a_j h**j / (j + n + 1)``
    of the moments.  Returns ``F`` and a first-order round-off bound on it:
    unit round-off times the terms evaluated with absolute coefficients
    (weighted by the polynomial order), plus the phase arguments' rounding
    times the terms that carry each phase.
    """
    a = v.c[::-1]  # ascending powers of u; one column per piece
    order = a.shape[0]
    x0 = v.x[:-1]
    h = np.diff(v.x)
    w = np.asarray(omegas, dtype=float)[:, None]
    wh = w * h
    J = np.empty(wh.shape, dtype=complex)
    size = np.empty(wh.shape)  # terms with absolute coefficients
    carried = np.empty(wh.shape)  # terms multiplied by exp(i w h)

    iw, ip = np.nonzero(wh < _TAYLOR_BELOW)
    b = a * h ** np.arange(order)[:, None]
    inv = 1.0 / (np.arange(_TAYLOR_TERMS)[:, None] + np.arange(order)[None, :] + 1.0)
    moments, moments_abs = inv @ b, inv @ np.abs(b)
    x = wh[iw, ip]
    term = np.ones(x.shape, dtype=complex)
    acc = np.zeros(x.shape, dtype=complex)
    mag = np.zeros(x.shape)
    for n in range(_TAYLOR_TERMS):
        acc += term * moments[n, ip]
        mag += np.abs(term) * moments_abs[n, ip]
        term *= 1j * x / (n + 1)
    J[iw, ip] = h[ip] * acc
    size[iw, ip] = carried[iw, ip] = h[ip] * mag

    iw, ip = np.nonzero(wh >= _TAYLOR_BELOW)
    wl = w[iw, 0]
    carrier = np.exp(1j * wh[iw, ip])
    acc = np.zeros(wl.shape, dtype=complex)
    mag = np.zeros(wl.shape)
    end_mag = np.zeros(wl.shape)
    d = a
    for m in range(order):
        end, start = P.polyval(h, d, tensor=False)[ip], d[0, ip]
        acc += (end * carrier - start) * ((-1) ** m / (1j * wl) ** (m + 1))
        mag += (P.polyval(h, np.abs(d), tensor=False)[ip] + np.abs(start)) / wl ** (m + 1)
        end_mag += np.abs(end) / wl ** (m + 1)
        d = P.polyder(d)
    J[iw, ip] = acc
    size[iw, ip] = mag
    carried[iw, ip] = end_mag

    F = (np.exp(1j * w * x0) * J).sum(axis=1)
    bound = (order + 4) * size + wh * carried + w * np.abs(x0) * np.abs(J)
    return F, _EPS * bound.sum(axis=1)


def spectral_amplitudes(traj: Trajectory, omega: float) -> SpectralAmplitudes:
    """Cosine and sine amplitudes of ``ddelta`` at one frequency."""
    if omega < 0:
        raise ValueError("omega must be non-negative")
    F, err = _fourier(traj.delta.derivative(), [omega])
    return SpectralAmplitudes(
        omega=omega, C=float(F[0].real), S=float(F[0].imag), err=float(err[0])
    )


def spectral_table(traj: Trajectory, cfg: CavityConfig) -> SpectralTable:
    """Amplitudes at every multiple of ``pi/L0`` up to ``2 * cfg.n_modes``."""
    w1 = cfg.omega1
    F, err = _fourier(traj.delta.derivative(), np.arange(2 * cfg.n_modes + 1) * w1)
    return SpectralTable(omega1=w1, C=F.real, S=F.imag, err=err, label=traj.label)


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
    if not (traj.t_start <= t <= traj.t_end):
        raise ValueError(f"t={t} outside trajectory domain")
    if t == traj.t_start:
        return 0.0, 0.0
    v = traj.delta.derivative()
    k = int(np.searchsorted(v.x, t))  # pieces that start before t
    F, _ = _fourier(PPoly(v.c[:, :k], np.append(v.x[:k], t)), [n * math.pi / L0])
    return float(F[0].real), float(F[0].imag)


def _tail_estimate(
    totals: np.ndarray, noise: np.ndarray, tail_fit_points: int = 8
) -> float:
    """Extrapolated remainder of the mode sum beyond the cutoff.

    Fits ``|contribution| ~ c * k**-p`` to the last few modes and sums the
    extrapolation.  When every fitted contribution lies within its
    round-off bound ``noise`` there is no decay to fit, and the remainder is
    not resolvable above round-off: the fitted modes' bound is returned.
    Returns NaN when too few modes are available and inf when the fit does
    not decay.
    """
    k_used = len(totals)
    if k_used < tail_fit_points + 4:
        return math.nan
    tail = np.abs(totals[-tail_fit_points:])
    if np.all(tail <= noise[-tail_fit_points:]):
        return float(np.sum(noise[-tail_fit_points:]))
    if np.any(tail <= 0.0):
        return 0.0
    ks = np.arange(k_used - tail_fit_points + 1, k_used + 1, dtype=float)
    slope, intercept = np.polyfit(np.log(ks), np.log(tail), 1)
    p = -slope
    if not np.isfinite(p) or p <= 1.0:
        return math.inf
    c = math.exp(intercept)
    k_next = k_used + 1
    # integral remainder plus half the first omitted term
    return c * (k_next ** (1.0 - p) / (p - 1.0) + 0.5 * k_next**-p)


def _mode_weights(omega1: float, A: np.ndarray, K: int) -> tuple[np.ndarray, ...]:
    """Bath-independent weights of the mode sums at cutoff K, per unit eps**2.

    Returns ``(D, Cm, rowsum(Cm), Sm)`` of the module docstring for the
    power ``A[n] = A(n omega1)``, n = 0..2K.  The diagonals of ``Cm`` and
    ``Sm`` are zero (``j != k``), so ``A[0]`` must be finite.
    """
    ks = np.arange(1, K + 1)
    quarter_w = ks * omega1 / 4.0
    k, j = ks[:, None], ks[None, :]
    create_geom = quarter_w[:, None] * (4.0 * k * j / (k + j) ** 2)
    with np.errstate(divide="ignore"):
        scatter_geom = quarter_w[:, None] * (4.0 * k * j / (k - j) ** 2)
    np.fill_diagonal(create_geom, 0.0)
    np.fill_diagonal(scatter_geom, 0.0)
    Cm = create_geom * A[k + j]
    Sm = scatter_geom * A[np.abs(k - j)]
    return quarter_w * A[2 * ks], Cm, Cm.sum(axis=1), Sm


def _apply_occupations(weights, n: np.ndarray, dn: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-mode (diag, create, scatter) of one set of weights for occupations
    ``n``; ``dn[k, j]`` multiplies ``Sm[k, j]``."""
    D, Cm, Cm_rows, Sm = weights
    # Sm @ n - n * rowsum(Sm) would cancel: the scattering sum stays elementwise
    return D * (2.0 * n + 1.0), Cm @ n + (n + 1.0) * Cm_rows, np.einsum("kj,kj->k", Sm, dn)


def _mode_terms(
    cfg: CavityConfig,
    bath: ThermalBath,
    table: SpectralTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-mode (diag, create, scatter, round-off bound) per unit eps**2."""
    K = cfg.n_modes
    if table.n_max < 2 * K:
        raise ValueError(
            f"spectral table covers n <= {table.n_max}, need {2 * K}"
        )
    if not math.isclose(table.omega1, cfg.omega1, rel_tol=1e-12):
        raise ValueError("spectral table was built for a different cavity")
    if K not in table._weights:
        # first- and second-order propagation of the amplitude bounds into C**2 + S**2
        Aerr = 2.0 * (np.abs(table.C) + np.abs(table.S)) * table.err + 2.0 * table.err**2
        table._weights[K] = (
            _mode_weights(table.omega1, table.power, K),
            _mode_weights(table.omega1, Aerr, K),
        )
    values, bounds = table._weights[K]

    n = occupations(bath.beta, mode_frequencies(K, cfg.L0))
    dn = n[None, :] - n[:, None]  # N_j - N_k
    diag, create, scatter = _apply_occupations(values, n, dn)
    err = sum(_apply_occupations(bounds, n, np.abs(dn)))
    return diag, create, scatter, err


def friction_energy(
    cfg: CavityConfig,
    bath: ThermalBath,
    traj: Trajectory,
    *,
    table: SpectralTable | None = None,
    compute_bound: bool = True,
) -> FrictionResult:
    """Friction energy of one stroke of ``traj`` starting from a thermal state.

    The profile must carry unit net displacement (either direction).  A
    precomputed :func:`spectral_table` may be passed to share it across
    baths and compression ratios.
    """
    disp = traj.displacement()
    if abs(abs(disp) - 1.0) > 1e-6:
        raise ValueError(
            f"trajectory must be normalised to unit displacement, got {disp:.6g}"
        )
    if table is None:
        table = spectral_table(traj, cfg)

    diag, create, scatter, err_modes = _mode_terms(cfg, bath, table)
    totals = diag + create + scatter
    value_per_eps2 = float(np.sum(totals))
    eps2 = cfg.epsilon**2
    value = eps2 * value_per_eps2
    err = eps2 * float(np.sum(err_modes))

    tail = _tail_estimate(totals, err_modes)
    tail_scaled = eps2 * tail if math.isfinite(tail) else tail
    # an infinite estimate means the fitted contributions do not decay;
    # that is as much a truncation red flag as a large finite tail.  A tail
    # within the round-off bound flags nothing the value does not already
    # carry in ``err``.
    tail_warning = bool(
        math.isinf(tail)
        or (
            math.isfinite(tail)
            and tail > cfg.tail_tol * max(abs(value_per_eps2), 1e-300)
            and eps2 * tail > err
        )
    )
    if tail_warning:
        warnings.warn(
            f"mode-sum tail estimate {tail_scaled:.3e} exceeds "
            f"tail_tol * value = {cfg.tail_tol * abs(value):.3e}",
            TruncationWarning,
            stacklevel=2,
        )

    bound = None
    if compute_bound:
        try:
            bound = friction_bound(cfg, bath, traj)
        except ValueError:
            bound = None

    per_mode = list(zip(
        range(1, cfg.n_modes + 1),
        (eps2 * diag).tolist(),
        (eps2 * create).tolist(),
        (eps2 * scatter).tolist(),
    ))
    return FrictionResult(
        value=value,
        per_mode=per_mode,
        bound=bound,
        k_used=cfg.n_modes,
        tail_estimate=tail_scaled,
        beta=bath.beta,
        err=err,
        value_per_eps2=value_per_eps2,
        tail_warning=tail_warning,
    )


def _acceleration_extrema(traj: Trajectory) -> tuple[float, float]:
    """Values of the single interior maximum and minimum of ``d2delta``.

    The extrema sit where the third derivative changes sign: at its exact
    roots or at breakpoints.  Between consecutive such points the jerk keeps
    one sign, read off at the midpoint (zero on flat pieces, where
    ``PPoly.roots`` reports NaN).  Raises ValueError when the acceleration
    does not have exactly one strict interior maximum and one strict
    interior minimum.
    """
    jerk = traj.delta.derivative(3)
    roots = jerk.roots(extrapolate=False)
    points = np.unique(np.concatenate([roots[np.isfinite(roots)], jerk.x]))
    # a root found an ulp beside a breakpoint would leave a sliver whose
    # midpoint sign is round-off
    points = points[np.concatenate([[True], np.diff(points) > 1e-9 * traj.duration])]
    signs = np.sign(jerk(0.5 * (points[:-1] + points[1:])))
    inner = points[1:-1]
    maxima = inner[(signs[:-1] > 0) & (signs[1:] < 0)]
    minima = inner[(signs[:-1] < 0) & (signs[1:] > 0)]
    if len(maxima) != 1 or len(minima) != 1:
        raise ValueError(
            "acceleration must have exactly one interior maximum and one "
            f"interior minimum; found {len(maxima)} maxima and {len(minima)} minima"
        )
    acceleration = traj.delta.derivative(2)
    d2_max, d2_min = float(acceleration(maxima[0])), float(acceleration(minima[0]))
    if not (d2_max > 0.0 > d2_min):
        raise ValueError("acceleration extrema must straddle zero")
    return d2_max, d2_min


def friction_bound(cfg: CavityConfig, bath: ThermalBath, traj: Trajectory) -> float:
    """Analytic upper bound on the friction energy of one stroke.

    The ``E_F`` sum of the module docstring with ``A(W)`` replaced by
    ``4 (d2_max - d2_min)**2 / W**4``.  For a stroke that starts and ends at
    rest with vanishing acceleration, integrating by parts twice gives
    ``|C(W) + i S(W)| <= TV(d2delta) / W**2``, and with exactly one interior
    acceleration maximum and minimum the total variation is
    ``2 (d2_max - d2_min)``.  ``E_F`` is a non-negative combination of the
    ``A(n w_1)`` (each scattering pair ``j, k`` combines to
    ``(w_k - w_j) (N_j - N_k) >= 0``), so the bound dominates it at every
    bath temperature.  Raises ValueError for any other acceleration shape or
    for a non-vanishing endpoint acceleration.
    """
    d2_max, d2_min = _acceleration_extrema(traj)
    ends = np.array([traj.t_start, traj.t_end])
    d2_ends = np.asarray(traj.d2delta(ends), dtype=float)
    if np.max(np.abs(d2_ends)) > 1e-9 * (d2_max - d2_min):
        raise ValueError("bound requires vanishing endpoint acceleration")

    K = cfg.n_modes
    W = np.arange(1, 2 * K + 1) * cfg.omega1
    # A[0] only meets the zero diagonal of Sm, but must stay finite there
    A = np.concatenate([[0.0], 4.0 * (d2_max - d2_min) ** 2 / W**4])
    n = occupations(bath.beta, mode_frequencies(K, cfg.L0))
    weights = _mode_weights(cfg.omega1, A, K)
    per_mode = sum(_apply_occupations(weights, n, n[None, :] - n[:, None]))
    return float(cfg.epsilon**2 * np.sum(per_mode))


def export_mode_table(result: FrictionResult, stream) -> None:
    """Write the per-mode breakdown as comma-delimited text.

    Columns: k, diag_term, create_term, scatter_term, cumulative.
    """
    stream.write("k,diag_term,create_term,scatter_term,cumulative\n")
    running = 0.0
    for k, d, c, s in result.per_mode:
        running += d + c + s
        stream.write(
            f"{k},{d:.17g},{c:.17g},{s:.17g},{running:.17g}\n"
        )
