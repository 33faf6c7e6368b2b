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

Spectral amplitudes are taken in closed form.  :mod:`casotto.quadrature` is
the numerical-integration oracle the tests compare them against; the
package itself does not import it.  The command-line front end lives in
:mod:`casotto.cli`.
"""

__version__ = "0.1.0"

from .cycle import (
    BathPair,
    CycleReport,
    otto_cycle,
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
from .spectrum import (
    CavityConfig,
    ThermalBath,
    casimir_energy,
    effective_length,
)
from .trajectory import Trajectory, from_samples, quintic, reverse, shortcut

__all__ = [
    "__version__",
    "BathPair",
    "CavityConfig",
    "CycleReport",
    "FrictionResult",
    "SpectralAmplitudes",
    "ThermalBath",
    "Trajectory",
    "casimir_energy",
    "effective_length",
    "friction_bound",
    "friction_energy",
    "from_samples",
    "otto_cycle",
    "quintic",
    "reverse",
    "shortcut",
    "spectral_amplitudes",
    "spectral_table",
    "sweep",
]
