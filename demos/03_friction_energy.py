"""Friction energy of a single stroke: decay with duration, bath dependence.

A finite-time stroke creates photons; the deposited energy falls steeply as
the stroke slows, saturates to a finite vacuum value as the initial state
cools, and sits below its analytic bound throughout.  The per-mode table
splits the deposit into single-mode pair creation, cross-mode pair
creation, and scattering (the last one can be locally negative -- only the
total is sign-definite).
"""

import math

from casotto import CavityConfig, ThermalBath, friction_bound, friction_energy, quintic
from casotto.friction import mode_breakdown, spectral_table

L0 = math.pi
cfg = CavityConfig(L0=L0, epsilon=0.01, n_modes=40)

print("friction energy vs stroke duration (beta*w1 = 1, eps = 0.01, K = 40):")
print(f"  {'tau*w1':>8} {'E_F':>14} {'bound':>14}")
for tau in (0.3, 1.0, 3.0, 10.0, 30.0):
    res = friction_energy(cfg, ThermalBath(1.0), quintic(tau))
    bound = friction_bound(cfg, ThermalBath(1.0), quintic(tau))
    print(f"  {tau:>8.1f} {res.value:>14.6e} {bound:>14.6e}")

print("\nfriction energy vs bath temperature (tau*w1 = 1):")
table = spectral_table(quintic(1.0), cfg)
print(f"  {'beta*w1':>8} {'E_F':>14}")
for beta in (0.5, 1.0, 2.0, 5.0, 20.0, math.inf):
    res = friction_energy(cfg, ThermalBath(beta), quintic(1.0), table=table)
    label = "inf" if math.isinf(beta) else f"{beta:g}"
    print(f"  {label:>8} {res.value:>14.6e}")
print("(converges to the finite vacuum value: pair creation needs no photons)")

print("\nper-mode breakdown at tau*w1 = 1, beta*w1 = 1 (first 8 modes):")
cfg8 = CavityConfig(L0=L0, epsilon=0.01, n_modes=8)
print(f"  {'k':>3} {'diag':>13} {'create':>13} {'scatter':>13} {'cumulative':>13}")
running = 0.0
for k, d, c, s in mode_breakdown(cfg8, ThermalBath(1.0), spectral_table(quintic(1.0), cfg8)):
    running += d + c + s
    print(f"  {k:>3} {d:>13.5e} {c:>13.5e} {s:>13.5e} {running:>13.5e}")
