"""Finite-time engine: efficiency loss, power peak, death by friction.

Sweeping the stroke time shows the three regimes: friction-dominated (the
work goes negative and the machine dissipates), an intermediate window with
a power maximum near unit stroke time, and the adiabatic plateau where the
efficiency approaches the compression ratio as 1/tau**4-ish friction dies.

The small-tau scaling of the friction part of the power is reported as a
measured exponent rather than asserted: with a fixed mode cutoff the
friction energy saturates in the sudden limit, so clean power laws only
live in intermediate windows.
"""

import math
import warnings

import numpy as np

from casotto import BathPair, CavityConfig, sweep
from casotto.friction import TruncationWarning
from casotto.trajectory import quintic

warnings.simplefilter("ignore", TruncationWarning)

L0 = math.pi
cfg = CavityConfig(L0=L0, epsilon=0.01, n_modes=64)
baths = [BathPair(2.0, 1.0)]
taus = list(np.exp(np.linspace(np.log(0.1), np.log(30.0), 25)))

rows = sweep(cfg, baths, taus, quintic)
print(f"{'tau*w1':>8} {'W':>12} {'eta':>12} {'power':>12}  mode")
for r in rows:
    rep = r.report
    print(f"{r.tau_omega1:>8.3f} {rep.W:>12.4e} {rep.eta:>12.4e} "
          f"{rep.power:>12.4e}  {rep.mode}")

peak = max(rows, key=lambda r: r.report.power)
print(f"\npower peak at tau*w1 = {peak.tau_omega1:.3f} "
      f"(P = {peak.report.power:.4e})")

sign_change = next(
    (a.tau_omega1, b.tau_omega1)
    for a, b in zip(rows, rows[1:])
    if a.report.W < 0.0 <= b.report.W
)
print(f"engine/dissipator boundary between tau*w1 = {sign_change[0]:.3f} "
      f"and {sign_change[1]:.3f}")

# measured scaling of the friction contribution to the power in the window
# where the mode sum is far from saturated
window = [r for r in rows if 1.0 <= r.tau_omega1 <= 8.0]
tau_w = np.array([r.tau_omega1 for r in window])
fric_power = np.array(
    [(r.report.E_F_A + r.report.E_F_C) / (2.0 * r.tau_omega1) for r in window]
)
slope = np.polyfit(np.log(tau_w), np.log(fric_power), 1)[0]
print(f"\nmeasured scaling of the friction part of the power over "
      f"tau*w1 in [1, 8]: exponent {slope:+.2f}")
print("(the adiabatic part scales as 1/tau exactly)")
