"""Static-cavity basics: spectrum, occupations, vacuum energy, flux map.

Everything is in natural units (hbar = c = k_B = 1).  A cavity of length L
carries modes at k*pi/L; thermal baths populate them with Bose-Einstein
weights; the vacuum itself carries the (negative) Casimir energy -pi/(24L).
A flux-tunable boundary element steers the effective cavity length, which
is how the "moving wall" is realised without moving anything.
"""

import math

from casotto import casimir_energy, effective_length
from casotto.spectrum import mode_frequencies, occupations

L0 = math.pi  # fundamental frequency w_1 = pi/L0 = 1
w = mode_frequencies(8, L0)

print("mode frequencies (L0 = pi):")
for k in (1, 2, 3, 8):
    print(f"  w_{k} = {w[k - 1]:.6f}")

print("\nthermal occupations at w_1:")
for beta in (0.5, 1.0, 2.0, 10.0, math.inf):
    (n,) = occupations(beta, w[:1])
    label = "vacuum" if math.isinf(beta) else f"beta*w1 = {beta:g}"
    print(f"  {label:>14}: N = {n:.6f}")

print(f"\nvacuum (Casimir) energy at L0:      {casimir_energy(L0):+.6f}")
print(f"vacuum energy at the compressed L1: {casimir_energy(0.99 * L0):+.6f}")
print("(the offsets cancel in every heat and work below; see demo 02)")

print("\neffective length vs flux phase (E_l/E_J = 0.02):")
for f in (0.0, 0.8, 1.2, 1.5):
    L = effective_length(f, E_J=1.0, E_l=0.02, L0=L0)
    print(f"  f = {f:>4.2f}: L_eff/L0 = {L / L0:.5f}")
print("near f = pi/2 the map is singular and the library refuses to answer")
