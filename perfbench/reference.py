"""Independent references for the benchmark's output checks.

Nothing here calls casotto: the amplitudes come from a closed form, the
mode sums from the E_F formula in the ``casotto.friction`` module docstring
rearranged into matrix products, and the cycle bookkeeping from the
population-frozen Otto sums.  Units follow the CLI: ``L0 = pi`` so that
``omega_1 = 1`` and mode ``k`` has frequency ``k``.
"""

from __future__ import annotations

import math

import numpy as np

# ddelta of the quintic ramp, times tau, as a polynomial in s = t / tau
_QUINTIC_VELOCITY = np.polynomial.Polynomial([0.0, 0.0, 30.0, -60.0, 30.0])
# below this omega * tau the integration-by-parts sum cancels badly
_TAYLOR_BELOW = 3.0
_TAYLOR_TERMS = 60


def quintic_amplitudes(x: np.ndarray) -> np.ndarray:
    """``C + iS`` of the quintic ramp's velocity at ``x = omega * tau``.

    ``integral_0^1 p(s) exp(i x s) ds`` for the velocity polynomial ``p``:
    for ``x >= 3`` the finite integration-by-parts sum
    ``sum_m (-1)^m [p^(m) e^{ixs}]_0^1 / (ix)^(m+1)``; below, the Taylor
    series of the moments ``integral s^n p(s) ds``, which avoids the
    cancellation of the boundary terms.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    small = x < _TAYLOR_BELOW

    xs = x[small]
    acc = np.zeros(xs.shape, dtype=complex)
    term = np.ones(xs.shape, dtype=complex)
    for n in range(_TAYLOR_TERMS):
        moment = 30.0 * (1.0 / (n + 3) - 2.0 / (n + 4) + 1.0 / (n + 5))
        acc += term * moment
        term = term * (1j * xs) / (n + 1)
    out[small] = acc

    xl = x[~small]
    phase = np.exp(1j * xl)
    acc = np.zeros(xl.shape, dtype=complex)
    deriv = _QUINTIC_VELOCITY
    for m in range(_QUINTIC_VELOCITY.degree() + 1):
        acc += (-1) ** m * (deriv(1.0) * phase - deriv(0.0)) / (1j * xl) ** (m + 1)
        deriv = deriv.deriv()
    out[~small] = acc
    return out


def quintic_power(tau: float, n_modes: int) -> np.ndarray:
    """Spectral power ``A(n) = C^2 + S^2`` on the grid n = 0..2K."""
    amp = quintic_amplitudes(np.arange(2 * n_modes + 1) * tau)
    return amp.real**2 + amp.imag**2


def occupations(beta: float, omegas: np.ndarray) -> np.ndarray:
    """Bose-Einstein occupations; ``beta = inf`` is the vacuum."""
    if math.isinf(beta):
        return np.zeros_like(omegas)
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(beta * omegas)


def friction_per_eps2(power: np.ndarray, betas, n_modes: int) -> np.ndarray:
    """``E_F / eps^2`` of one stroke for each inverse temperature in ``betas``.

    With ``w_k = k`` the docstring formula's inter-mode weights reduce to
    ``4jk/(j+k)^2 A(j+k)`` (pair creation) and ``4jk/(j-k)^2 A(|j-k|)``
    (scattering), and every term is linear in the occupations, so all baths
    are evaluated together as matrix products.
    """
    K = n_modes
    k = np.arange(1, K + 1, dtype=float)
    idx = np.arange(1, K + 1)
    N = np.stack([occupations(float(b), k) for b in np.atleast_1d(betas)])
    off = idx[:, None] != idx[None, :]
    jk = np.outer(k, k)
    total = idx[:, None] + idx[None, :]
    gap = np.abs(idx[:, None] - idx[None, :])
    create_w = np.where(off, 4.0 * jk / total**2 * power[total], 0.0)
    scatter_w = np.where(off, 4.0 * jk / np.maximum(gap, 1) ** 2 * power[gap], 0.0)
    diag = power[2 * idx] * (2.0 * N + 1.0)
    create = (N + 1.0) * create_w.sum(axis=1) + N @ create_w.T
    scatter = N @ scatter_w.T - N * scatter_w.sum(axis=1)
    return (k / 4.0 * (diag + create + scatter)).sum(axis=1)


def adiabatic_sums(machine: str, eps: float, beta_a: float, beta_c: float, n_modes: int) -> tuple[float, float]:
    """``(Q_ad, W_ad)`` of the population-frozen cycle in ``machine``'s convention.

    Cold bath A thermalises the field at ``w_k = k``, hot bath C at the
    compressed frequencies ``k / (1 - eps)``.  The engine takes heat at the
    compressed frequencies, the refrigerator at the rest frequencies.
    """
    w0 = np.arange(1, n_modes + 1, dtype=float)
    w1 = w0 / (1.0 - eps)
    dn = occupations(beta_c, w1) - occupations(beta_a, w0)
    if machine == "engine":
        return float(np.sum(w1 * dn)), float(np.sum((w1 - w0) * dn))
    return float(np.sum(-w0 * dn)), float(np.sum((w0 - w1) * dn))


def cycle_figure(machine: str, q_ad: float, w_ad: float, ef_a: float, ef_c: float) -> float:
    """Efficiency (engine) or coefficient of performance (refrigerator)."""
    if machine == "engine":
        return (w_ad - ef_a - ef_c) / (q_ad - ef_a)
    return (q_ad - ef_c) / (w_ad + ef_a + ef_c)
