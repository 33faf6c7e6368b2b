"""Friction-free strokes: echo profiles that reabsorb their own photons.

A stroke whose velocity is the difference of one smooth ramp evaluated at
t + L0 and t - L0 has spectral amplitudes that vanish at every multiple of
pi/L0 -- exactly the frequencies the cavity can absorb at second order.
Photons created early in the stroke are taken back before it ends, as the
running amplitudes I_n(t), J_n(t) show: they swing through finite values
and return to zero.  The price is a longer stroke (duration tau + 2 L0).
"""

import math

from casotto import CavityConfig, ThermalBath, friction_energy, quintic, shortcut
from casotto.friction import partial_spectral_integral, spectral_amplitudes

L0 = 1.0
tau = 1.0
sc = shortcut(quintic(tau), L0)
print(f"profile domain: [{sc.t_start:g}, {sc.t_end:g}] (duration tau + 2 L0)")

print("\nresonant spectral amplitudes (all vanish):")
for n in (1, 2, 4, 10):
    amp = spectral_amplitudes(sc, n * math.pi / L0)
    print(f"  n={n:>2}: C = {amp.C:+.2e}   S = {amp.S:+.2e}")

print("\nrunning amplitudes for n = 2 (create, then reabsorb):")
for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
    t = sc.t_start + frac * sc.duration
    I, J = partial_spectral_integral(sc, 2, L0, t)
    print(f"  t = {t:+6.2f}: |amplitude| = {math.hypot(I, J):.4e}")

cfg = CavityConfig(L0=L0, epsilon=0.01, n_modes=24)
bath = ThermalBath(1.0)
plain = friction_energy(cfg, bath, quintic(tau), compute_bound=False)
echo = friction_energy(cfg, bath, sc, compute_bound=False)
print(f"\nfriction energy, plain stroke:    {plain.value:.4e}")
print(f"friction energy, echo stroke:     {echo.value:.4e}")
print(f"suppression factor:               {abs(echo.value) / plain.value:.2e}")
