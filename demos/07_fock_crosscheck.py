"""Independent validation: phase-space propagation vs perturbation theory.

Nothing in the production path is trusted here.  The full driven
Hamiltonian is quadratic in the ladder operators, so the stroke acts on the
field quadratures as one symplectic matrix; the thermal covariance matrix
is propagated through it in fourth-order commutator-free steps, with no
Fock cutoff.  The excess of the final energy over the population-preserving
adiabatic value is compared against the second-order friction formula
restricted to the same retained modes.  Extrapolating the ratio of the two
to eps -> 0 should give 1, at 2 retained modes and at 32.  The
operator-ordering identities used in the derivation are checked separately
in a truncated Fock space against geometric-moment closed forms.
"""

import math

from casotto import CavityConfig, ThermalBath, quintic
from casotto.fock_oracle import validate_friction, verify_trace_identities

bath = ThermalBath(2.0)
for n_modes, dt in ((2, 0.01), (32, 0.003)):
    cfg = CavityConfig(L0=math.pi, epsilon=0.01, n_modes=n_modes)
    print(f"phase-space propagation vs friction formula ({n_modes} modes, "
          f"{2 * n_modes} x {2 * n_modes} symplectic matrix):")
    # eps = 0.01 against eps / 2
    report = validate_friction(cfg, bath, quintic(1.0), dt)
    print(f"  {'eps':>7} {'E_full':>16} {'E_adiab':>16} {'E_pert':>16} {'ratio':>9}")
    for row in report.rows:
        print(f"  {row.epsilon:>7.4f} {row.E_full:>16.10e} {row.E_adiab:>16.10e} "
              f"{row.E_pert:>16.10e} {row.ratio:>9.6f}")
    print(f"-> ratio extrapolated to eps -> 0: {report.richardson_ratio:.6f}\n")

print("operator-ordering identities on a 3-mode thermal state:")
idrep = verify_trace_identities(2.0, CavityConfig(L0=math.pi, epsilon=0.01, n_modes=3), n_max=8)
worst = max(idrep.checks, key=lambda c: c.deviation)
print(f"  {len(idrep.checks)} strings checked, "
      f"max deviation {idrep.max_abs_deviation:.2e} "
      f"(worst: {worst.label})")
print("  deviations are pure truncation: the state carries no weight above n_max")
