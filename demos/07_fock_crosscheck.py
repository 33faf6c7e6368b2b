"""Independent validation: dense Fock-space evolution vs perturbation theory.

Nothing in the production path is trusted here.  A small truncated Fock
space is evolved step by step through the stroke under the full driven
Hamiltonian; the excess of the final energy over the population-preserving
adiabatic value is compared against the second-order friction formula
restricted to the same retained modes.  Extrapolating the ratio of the two
to eps -> 0 should give 1.  The operator-ordering identities used in the
derivation are checked separately against geometric-moment closed forms.
"""

import math
import sys

from casotto import CavityConfig, ThermalBath, quintic
from casotto.fock_oracle import (
    FockConfig,
    export_comparison,
    validate_friction,
    verify_trace_identities,
)

cfg = CavityConfig(L0=math.pi, epsilon=0.01, n_modes=2)
fock = FockConfig(n_modes=2, n_max=8, dt=0.01, integrator_order=4)
bath = ThermalBath(2.0)

print("direct evolution vs friction formula (2 modes, dimension 81):")
report = validate_friction(cfg, bath, quintic(1.0), fock, epsilons=(0.01, 0.005))
export_comparison(report, sys.stdout)
print(f"-> ratio extrapolated to eps -> 0: {report.richardson_ratio:.6f}")

print("\noperator-ordering identities on a 3-mode thermal state:")
idrep = verify_trace_identities(2.0, FockConfig(n_modes=3, n_max=8),
                                CavityConfig(L0=math.pi, epsilon=0.01, n_modes=3))
worst = max(idrep.checks, key=lambda c: c.deviation)
print(f"  {len(idrep.checks)} strings checked, "
      f"max deviation {idrep.max_abs_deviation:.2e} "
      f"(worst: {worst.label})")
print("  deviations are pure truncation: the state carries no weight above n_max")
