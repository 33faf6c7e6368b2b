"""The population-frozen cycle: two exact identities and Carnot matching.

With the equidistant cavity spectrum, every mode contributes work in the
same proportion to its heat, so the engine efficiency collapses to the
compression ratio alone and the refrigerator's coefficient of performance
to 1/eps - 1 -- independent of the bath temperatures.  Matching eps to
1 - beta_C/beta_A saturates the Carnot value exactly.
"""

import math

from casotto import BathPair, CavityConfig, otto_cycle

L0 = math.pi

print("engine: eta = eps for any valid bath pair")
for eps in (0.01, 0.06, 0.2):
    for baths in (BathPair(2.0, 1.0), BathPair(5.0, 0.5)):
        cfg = CavityConfig(L0=L0, epsilon=eps, n_modes=64)
        r = otto_cycle(cfg, baths)
        print(f"  eps={eps:<5} beta_A={baths.beta_A:<3} beta_C={baths.beta_C:<4}"
              f" Q={r.Q:+.4f}  W={r.W:+.6f}  eta={r.eta:.12f}")

print("\nrefrigerator: COP = 1/eps - 1 (needs 1 - eps <= beta_C/beta_A <= 1)")
for eps in (0.06, 0.1):
    cfg = CavityConfig(L0=L0, epsilon=eps, n_modes=64)
    r = otto_cycle(cfg, BathPair(2.0, 2.0 * (1.0 - eps / 2.0)), machine="refrigerator")
    print(f"  eps={eps:<5} COP = {r.eta:.10f}   (1/eps - 1 = {1/eps - 1:.10f})")

print("\nCarnot matching: eps = 1 - beta_C/beta_A")
for beta_A, ratio in ((2.0, 0.3), (1.0, 0.7)):
    baths = BathPair(beta_A, ratio * beta_A)
    cfg = CavityConfig(L0=L0, epsilon=1.0 - ratio, n_modes=64)
    r = otto_cycle(cfg, baths)
    print(f"  ratio={ratio}: eta = {r.eta:.12f} = eta_Carnot = "
          f"{baths.carnot_efficiency:.12f}")

print("\nheat and work never see the vacuum offsets:")
cfg = CavityConfig(L0=L0, epsilon=0.05, n_modes=64)
on = otto_cycle(cfg, BathPair(2.0, 1.0), include_casimir=True)
off = otto_cycle(cfg, BathPair(2.0, 1.0), include_casimir=False)
print(f"  Q identical bitwise: {on.Q == off.Q}; W identical: {on.W == off.W}")
print(f"  stroke energies differ, as they should: E_A {on.E_A:.4f} vs {off.E_A:.4f}")
