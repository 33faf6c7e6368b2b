"""Static-cavity physics for a massless scalar field between perfect mirrors.

Natural units (hbar = c = k_B = 1) are used throughout the package.  A cavity
of length ``L`` with Dirichlet walls carries the equidistant spectrum
``omega_k = k*pi/L``, ``k = 1, 2, ...`` (there is no zero mode).  The wall
position enters every other module only through these frequencies, their
derivative with respect to ``L``, the antisymmetric inter-mode couplings
``g_kj`` and the vacuum (Casimir) energy ``-pi/(24 L)``.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CavityConfig",
    "ThermalBath",
    "SingularFluxError",
    "mode_frequencies",
    "occupations",
    "coupling_matrix",
    "casimir_energy",
    "effective_length",
]

#: Compression ratios above this value lie beyond the second-order friction.
PERTURBATIVE_EPSILON_MAX = 0.1

# a path prefix, so that ``python -m casotto.cli``'s __main__ counts as inside
_PACKAGE_PREFIX = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _warn(message: str, category: type[Warning]) -> None:
    """``warnings.warn`` attributed to the first caller outside casotto.

    Every frame whose code lies under the package directory is skipped, the
    rule of Python 3.12's ``skip_file_prefixes``, so a warning names the
    user's line however deep in the package it was raised.
    """
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_PREFIX):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class SingularFluxError(ValueError):
    """The flux phase sits too close to cos(f) = 0 for the moving-mirror map."""


@dataclass(frozen=True)
class CavityConfig:
    """Static geometry and truncation parameters of one cavity.

    Attributes
    ----------
    L0:
        Rest length of the cavity (natural units).
    epsilon:
        Dimensionless compression ratio; the compressed length is
        ``L1 = L0*(1 - epsilon)``.
    n_modes:
        Mode cutoff K for all mode sums.
    tail_tol:
        Relative tolerance on the estimated mode-sum truncation tail before a
        warning is attached to results.
    """

    L0: float
    epsilon: float
    n_modes: int = 64
    tail_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not self.L0 > 0:
            raise ValueError(f"L0 must be positive, got {self.L0}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if not self.tail_tol > 0:
            raise ValueError("tail_tol must be positive")

    @property
    def omega1(self) -> float:
        """Fundamental frequency pi/L0 of the uncompressed cavity."""
        return math.pi / self.L0

    @property
    def L1(self) -> float:
        """Compressed cavity length L0*(1 - epsilon)."""
        return self.L0 * (1.0 - self.epsilon)


@dataclass(frozen=True)
class ThermalBath:
    """A heat bath characterised by its inverse temperature.

    ``beta = math.inf`` denotes the vacuum (zero-temperature) bath.
    """

    beta: float

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError(f"beta must be positive (or inf), got {self.beta}")


def mode_frequencies(n_modes: int, L: float) -> np.ndarray:
    """Frequencies ``k*pi/L`` of modes ``k = 1..n_modes``; ``k * (pi/L)``,
    not ``(k*pi)/L``, keeps ``w_k = k * w_1`` exact in floating point."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if not L > 0:
        raise ValueError(f"cavity length must be positive, got {L}")
    return np.arange(1, n_modes + 1, dtype=float) * (math.pi / L)


def occupations(beta: float, omegas: np.ndarray) -> np.ndarray:
    """Bose-Einstein occupations ``1/(exp(beta*omega) - 1)`` of positive
    frequencies; ``beta = inf`` (the vacuum) gives exactly 0."""
    if not beta > 0:
        raise ValueError(f"beta must be positive (or inf), got {beta}")
    omegas = np.asarray(omegas, dtype=float)
    if np.any(omegas <= 0):
        raise ValueError("all frequencies must be positive")
    if math.isinf(beta):
        return np.zeros_like(omegas)
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(beta * omegas)


def _require_finite(finite: bool, name: str, beta: float, what: str, K: int) -> None:
    """ValueError naming ``name = beta`` unless ``finite`` says ``what`` is:
    the occupations overflow below ``beta w_1`` of about 5.6e-309, and their
    weighted sums at larger betas and K.  Callers silence numpy there."""
    if not finite:
        raise ValueError(f"{name} = {float(beta)!r} overflows the {what} at K = {K}")


def coupling_matrix(n_modes: int) -> np.ndarray:
    """Antisymmetric inter-mode couplings ``g[k-1, j-1] = (-1)**(j+k) *
    2jk/(j**2 - k**2)`` for 1 <= k, j <= n_modes.

    The diagonal ``g_kk`` is zero: the closed form is indeterminate there and
    the normalisation of the mode functions fixes the derivative overlap to
    vanish.
    """
    idx = np.arange(1, n_modes + 1, dtype=float)
    k = idx[:, None]
    j = idx[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (-1.0) ** (j + k) * 2.0 * j * k / (j * j - k * k)
    np.fill_diagonal(g, 0.0)
    return g


def casimir_energy(L: float) -> float:
    """Vacuum energy ``-pi/(24 L)`` of the static cavity."""
    if not L > 0:
        raise ValueError(f"cavity length must be positive, got {L}")
    return -math.pi / (24.0 * L)


def effective_length(
    f: float,
    E_J: float,
    E_l: float,
    L0: float,
    cos_floor: float = 1e-6,
) -> float:
    """Effective mirror position of a flux-driven boundary.

    A tunable boundary element with Josephson energy ``E_J`` threaded by flux
    phase ``f`` acts, for small inductive energy ``E_l``, like a perfect
    mirror displaced to ``L0 * (1 + E_l / (2 E_J cos f))``.

    Raises
    ------
    SingularFluxError
        When ``|cos f|`` falls below ``cos_floor``; the moving-mirror picture
        breaks down near cos(f) = 0.
    """
    if not E_J > 0:
        raise ValueError(f"E_J must be positive, got {E_J}")
    if not E_l >= 0:
        raise ValueError(f"E_l must be non-negative, got {E_l}")
    if not L0 > 0:
        raise ValueError(f"L0 must be positive, got {L0}")
    c = math.cos(f)
    if abs(c) < cos_floor:
        raise SingularFluxError(
            f"|cos f| = {abs(c):.3e} below floor {cos_floor:.1e}; "
            "effective-length map is singular"
        )
    return L0 * (1.0 + E_l / (2.0 * E_J * c))
