"""Quantum Otto cycle for a scalar field in a moving-wall cavity.

The package computes, in natural units (hbar = c = k_B = 1):

* static-cavity quantities (:mod:`casotto.spectrum`);
* wall-motion profiles as piecewise polynomials with exact derivatives,
  including the friction-cancelling shortcut family
  (:mod:`casotto.trajectory`);
* the second-order friction energy deposited by non-adiabatic strokes,
  its per-mode decomposition and its analytic upper bound
  (:mod:`casotto.friction`);
* heat, work, efficiency, coefficient of performance and power of the
  four-stroke cycle (:mod:`casotto.cycle`);
* an exact phase-space propagation of the driven quadratic Hamiltonian,
  and operator-ordering identities in a truncated Fock space, used as
  independent cross-checks of the perturbative results
  (:mod:`casotto.fock_oracle`).

Spectral amplitudes are taken in closed form; :mod:`casotto.quadrature` is
the numerical-integration oracle the tests compare them against.  The
command-line front end lives in :mod:`casotto.cli`.
"""

__version__ = "0.1.0"

from .cycle import (
    BathPair,
    CycleReport,
    adiabatic_engine,
    adiabatic_refrigerator,
    nonadiabatic_engine,
    nonadiabatic_refrigerator,
    power,
    sweep,
)
from .friction import (
    FrictionResult,
    SpectralAmplitudes,
    friction_bound,
    friction_energy,
    spectral_amplitudes,
    spectral_table,
)
from .quadrature import ConvergenceError, QuadratureSpec, integrate_1d, integrate_2d_oracle
from .spectrum import (
    CavityConfig,
    ThermalBath,
    casimir_energy,
    coupling_g,
    effective_length,
    mode_frequency,
    thermal_occupation,
)
from .trajectory import Trajectory, check_boundary_conditions, from_samples, quintic, reverse, shortcut

__all__ = [
    "__version__",
    "BathPair",
    "CavityConfig",
    "ConvergenceError",
    "CycleReport",
    "FrictionResult",
    "QuadratureSpec",
    "SpectralAmplitudes",
    "ThermalBath",
    "Trajectory",
    "adiabatic_engine",
    "adiabatic_refrigerator",
    "casimir_energy",
    "check_boundary_conditions",
    "coupling_g",
    "effective_length",
    "friction_bound",
    "friction_energy",
    "from_samples",
    "integrate_1d",
    "integrate_2d_oracle",
    "mode_frequency",
    "nonadiabatic_engine",
    "nonadiabatic_refrigerator",
    "power",
    "quintic",
    "reverse",
    "shortcut",
    "spectral_amplitudes",
    "spectral_table",
    "sweep",
    "thermal_occupation",
]
