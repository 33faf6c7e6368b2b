"""Oscillation-aware panel quadrature, kept as an independent oracle.

The production paths never integrate numerically: every wall profile is a
piecewise polynomial, and :mod:`casotto.friction` takes its spectral
amplitudes in closed form.  This module is the reference the tests and the
acceptance criteria compare those closed forms against.  The integrands
are smooth products of a wall-velocity profile with ``cos``/``sin``
carriers of known maximum frequency; a fixed high-order Gauss-Legendre
rule per panel, with panels sized to guarantee a minimum number of nodes
per oscillation period, converges fast on them and keeps every evaluation
auditable.  Integrate piecewise profiles piece by piece (split at
``delta.x``) to keep that convergence.

Refinement halves every panel until two successive estimates agree to the
requested relative tolerance; the last refinement delta is reported as the
error estimate.  Integrals that cancel exactly (resonant spectral
amplitudes of shortcut trajectories) can never satisfy a purely relative
criterion, so convergence is also granted once the delta falls below a
roundoff floor of ``2**-48`` times the integral of ``|f|`` — below that the
result is indistinguishable from zero at working precision.

:func:`integrate_2d_oracle` is a deliberately slow tensor-product rule that
brute-forces double time integrals; its cost is quadratic in the node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "ConvergenceError",
    "integrate_1d",
    "integrate_2d_oracle",
]

# Relative roundoff floor: deltas below _FLOOR * integral(|f|) count as converged.
_FLOOR = 2.0**-48


@dataclass(frozen=True)
class QuadratureSpec:
    """Tuning knobs for the panel rule.

    nodes_per_period: minimum quadrature nodes per oscillation period 2*pi/omega_max.
    panel_order:      Gauss-Legendre nodes per panel.
    rel_tol:          target relative agreement between successive refinements.
    max_panels:       hard cap before a convergence failure is raised.
    """

    nodes_per_period: int = 16
    panel_order: int = 10
    rel_tol: float = 1e-10
    max_panels: int = 10**6

    def __post_init__(self) -> None:
        if self.nodes_per_period < 4:
            raise ValueError("nodes_per_period must be >= 4")
        if self.panel_order < 2:
            raise ValueError("panel_order must be >= 2")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_panels < 16:
            raise ValueError("max_panels must be >= 16")


@dataclass(frozen=True)
class QuadratureResult:
    """Integral estimate with the last refinement delta as error bar."""

    value: float
    error: float
    panels: int


class ConvergenceError(RuntimeError):
    """Panel refinement hit ``max_panels`` without meeting the tolerance.

    The best available estimate (value, error, panels; value and error may be
    arrays for vector integrands) is carried in :attr:`value`, :attr:`error`
    and :attr:`panels`.
    """

    def __init__(self, message: str, value, error, panels: int):
        super().__init__(message)
        self.value = value
        self.error = error
        self.panels = panels


@lru_cache(maxsize=32)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _initial_panels(a: float, b: float, omega_max: float, spec: QuadratureSpec) -> int:
    if omega_max > 0:
        dense = (b - a) * omega_max * spec.nodes_per_period / (2.0 * math.pi * spec.panel_order)
        n = max(8, math.ceil(dense))
    else:
        n = 8
    # leave room for at least one refinement below the cap
    return min(n, spec.max_panels // 2)


def _panel_grid(a: float, b: float, n_panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaled Gauss-Legendre nodes/weights, shape (n_panels, order)."""
    x, w = _gauss_nodes(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes, weights


def integrate_vector(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    omega_max: float,
    spec: QuadratureSpec,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Integrate a vector-valued ``f`` component-wise on shared nodes.

    ``f`` maps an array of times ``(n,)`` to values ``(n, m)``.  Returns
    ``(values, errors, panels)`` with shapes ``(m,)``.  All components must
    converge; they share one panel subdivision so correlated integrands (the
    cosine and sine amplitudes of one profile) cost a single set of
    evaluations.
    """
    if not b > a:
        raise ValueError(f"integration interval is empty: [{a}, {b}]")
    if omega_max < 0:
        raise ValueError("omega_max must be non-negative")

    n = _initial_panels(a, b, omega_max, spec)
    prev: np.ndarray | None = None
    while True:
        nodes, weights = _panel_grid(a, b, n, spec.panel_order)
        vals = np.asarray(f(nodes.ravel()), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        vals = vals.reshape(n, spec.panel_order, -1)
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand returned non-finite values")
        per_panel = np.einsum("po,pom->pm", weights, vals)
        est = per_panel.sum(axis=0)  # ascending panel index, pairwise
        l1 = float(np.einsum("po,pom->", weights, np.abs(vals)))
        if prev is not None:
            delta = np.abs(est - prev)
            err = np.maximum(delta, _FLOOR * l1)
            ok = (delta <= spec.rel_tol * np.abs(est)) | (delta <= _FLOOR * l1)
            if np.all(ok):
                return est, err, n
            if n >= spec.max_panels:
                raise ConvergenceError(
                    f"no convergence after {n} panels (rel_tol={spec.rel_tol:g})",
                    est, err, n,
                )
        prev = est
        n = min(2 * n, spec.max_panels)


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    omega_max: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Integrate a scalar function of time over ``[a, b]``.

    ``omega_max`` is the highest oscillation frequency present in ``f``; it
    controls the initial panel density.  ``f`` must accept numpy arrays.
    """
    spec = spec or QuadratureSpec()
    val, err, panels = integrate_vector(lambda t: np.asarray(f(t), dtype=float)[:, None], a, b, omega_max, spec)
    return QuadratureResult(float(val[0]), float(err[0]), panels)


def integrate_2d_oracle(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b: float,
    omega_max: float,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Tensor-product rule on the square ``[a, b]**2``; validation only.

    ``f(t1, t2)`` must broadcast over same-shape arrays.  The refinement
    contract matches :func:`integrate_1d`, but every halving quadruples the
    work.
    """
    spec = spec or QuadratureSpec()
    if not b > a:
        raise ValueError(f"integration interval is empty: [{a}, {b}]")

    n = _initial_panels(a, b, omega_max, spec)
    prev: float | None = None
    while True:
        nodes, weights = _panel_grid(a, b, n, spec.panel_order)
        t = nodes.ravel()
        w = weights.ravel()
        vals = np.asarray(f(t[:, None], t[None, :]), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand returned non-finite values")
        est = float(w @ vals @ w)
        l1 = float(w @ np.abs(vals) @ w)
        if prev is not None:
            delta = abs(est - prev)
            err = max(delta, _FLOOR * l1)
            if delta <= spec.rel_tol * abs(est) or delta <= _FLOOR * l1:
                return QuadratureResult(est, err, n)
            if n >= spec.max_panels:
                raise ConvergenceError(
                    f"no convergence after {n} panels per axis (rel_tol={spec.rel_tol:g})",
                    est, err, n,
                )
        prev = est
        n = min(2 * n, spec.max_panels)
