"""Finite-time refrigerator: COP hierarchy and the cooling window.

Friction taxes the refrigerator twice: it reduces the heat extracted from
the cold bath and adds to the work bill.  Below a minimum stroke time the
extraction goes negative and the machine stops cooling.  Closer bath
temperatures buy a larger coefficient of performance, with the adiabatic
ceiling 1/eps - 1.
"""

import math
import warnings

import numpy as np

from casotto import BathPair, CavityConfig, sweep
from casotto.friction import TruncationWarning
from casotto.trajectory import quintic

warnings.simplefilter("ignore", TruncationWarning)

L0 = math.pi
cfg = CavityConfig(L0=L0, epsilon=0.06, n_modes=64)
ratios = (0.95, 0.97, 0.99)
baths = [BathPair(2.0, 2.0 * r) for r in ratios]
taus = list(np.exp(np.linspace(np.log(0.2), np.log(30.0), 18)))

rows = sweep(cfg, baths, taus, quintic, machine="refrigerator")
ceiling = 1.0 / cfg.epsilon - 1.0
print(f"adiabatic ceiling: COP = 1/eps - 1 = {ceiling:.4f}\n")
print(f"{'ratio':>6} {'tau*w1':>8} {'Q':>12} {'COP':>10}  mode")
for r in rows:
    if r.tau_omega1 not in (taus[0], taus[6], taus[12], taus[-1]):
        continue
    rep = r.report
    print(f"{r.beta_ratio:>6.2f} {r.tau_omega1:>8.3f} {rep.Q:>12.4e} "
          f"{rep.eta:>10.4f}  {rep.mode}")

print("\ncooling power Q/(2 tau) along the ratio-0.99 curve:")
curve = [r for r in rows if abs(r.beta_ratio - 0.99) < 1e-9]
cooling = [(r.tau_omega1, r.report.Q / (2.0 * r.tau_omega1)) for r in curve]
best = max(cooling, key=lambda p: p[1])
for tau_w, p in cooling[::3]:
    print(f"  tau*w1 = {tau_w:>7.3f}: {p:+.4e}")
print(f"peak cooling power at tau*w1 = {best[0]:.3f}")
