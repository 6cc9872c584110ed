#!/usr/bin/env python3
"""The non-smooth conjugacy example on T^4.

f(x, y) = (Ax + phi(y) v, By) has the same periodic data as
L = diag(A, B), yet its conjugacy H(x, y) = (x + psi(y) v, y) is only
Holder: psi solves phi(y) + psi(By) = lambda psi(y) by a geometric
series whose Holder exponent is log(lambda)/log(mu) < 1.
"""

import numpy as np

from toralab import conjugacy
from toralab.torusfn import TrigPoly, estimate_holder, \
    finite_difference_ratio

phi = TrigPoly.sin_mode((1, 0), 0.01)      # 0.01 sin(2 pi y1)
ce = conjugacy.build_counterexample([[2, 1], [1, 1]], [[3, 1], [2, 1]],
                                    phi, k_trunc=60)
print(f"lambda = {ce.lam:.6f}, mu = {ce.mu:.6f}, "
      f"series tail bound = {ce.tail_bound:.2e}")

rng = np.random.default_rng(0)
print("cohomological identity residual (1e4 points):",
      f"{ce.cohomological_residual(rng.random((10000, 2))):.2e}")
print("conjugacy identity residual (1e4 points):   ",
      f"{ce.conjugacy_residual(rng.random((10000, 4))):.2e}")

est = estimate_holder(lambda p: ce.psi(p)[..., None], dim=2, pairs=10000)
print(f"\nestimated Holder exponent of psi: {est.exponent:.4f} "
      f"(expected log lam / log mu = {ce.holder_expected:.4f})")

print("\nfinite-difference ratios sup |psi(x+du)-psi(x)| / d:")
exps = (4, 8, 12, 16, 20)
ratios = finite_difference_ratio(lambda p: ce.psi(p)[..., None], 2,
                                 [2.0 ** -j for j in exps], pairs=4000)
for j, r in zip(exps, ratios):
    print(f"  scale 2^-{j:<2d}: {r:10.4f}")
print("a Lipschitz function would keep these bounded; the growth rate "
      "matches d^(beta - 1)")

print("\nperiodic data is nevertheless conjugate at every fixed point:")
from toralab import maps
for orbit in maps.periodic_points(ce.f, 1).orbits:
    verdict = maps.periodic_data_check(ce.f, orbit)
    print(f"  p = {np.round(orbit.representative, 6)}: {verdict.verdict}, "
          f"cond(C_p) = {verdict.conjugator_cond:.3f}")
