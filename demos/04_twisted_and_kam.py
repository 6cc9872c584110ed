#!/usr/bin/env python3
"""The twisted cohomological equation in Fourier space, plus KAM steps.

L h' - h' o L = Q decouples along orbits of the dual action n -> L^T n;
the bounded solution sums geometrically in the convergent direction of
each Lyapunov component.  One KAM step conjugates f by Id - h' and lands
much closer to L; a second step keeps shrinking the distance.
"""

import numpy as np

from toralab import maps, spectral, twisted
from toralab.torusfn import TrigPoly

cat = spectral.automorphism([[2, 1], [1, 1]])

print("=== dual orbit structure over the frequency ball |n| <= 4 ===")
dec = twisted.dual_orbit_decomposition(cat, 4)
print(f"{dec.segment_count()} orbit segments partition the ball; "
      f"the longest:")
longest = max(dec.segments, key=len)
print("  " + " -> ".join(str(n) for n in longest))

print("\n=== solve the linearized equation for a single-mode Q ===")
q = TrigPoly.sin_mode((0, 1), [0.5, 0.1])
sol = twisted.solve_linearized(cat, q, radius=8)
print(f"retained support: {len(sol.h.coeffs)} modes; per-coefficient "
      f"substitution residual {sol.residual_max:.2e}")
print(f"dropped mass outside |n| <= 8: {sol.dropped_beyond_f:.3e}; "
      f"tail bound beyond |n| <= {sol.extended_radius}: "
      f"{sol.tail_bound:.3e}")

print("\n=== constructed solvable case recovers its solution ===")
rng = np.random.default_rng(1)
coeffs = {}
for _ in range(5):
    n = tuple(int(v) for v in rng.integers(-2, 3, size=2))
    if n != (0, 0):
        coeffs[n] = rng.normal(size=2) + 1j * rng.normal(size=2)
g = TrigPoly(2, 2, coeffs).symmetrize_real()
qg = g.matrix_apply(cat.as_array()) - g.compose_affine(cat.rows())
sol_g = twisted.solve_linearized(cat, qg, radius=8)
err = max(float(np.max(np.abs(g[n] - sol_g.h[n])))
          for n in set(list(g.coeffs) + list(sol_g.h.coeffs)))
print(f"|h' - g| over all modes: {err:.2e}")

print("\n=== two KAM steps on the perturbed cat map ===")
f = maps.build(cat, TrigPoly.sin_mode((0, 1), [1e-3, 0.0]))
current = f
for step in (1, 2):
    current, rep = twisted.kam_step(current, radius=16, grid_n=128)
    print(f"step {step}: ||f - L|| {rep.input_c0:.3e} -> "
          f"{rep.output_c0:.3e}  (ratio {rep.improvement:.4f}, "
          f"orientation {rep.orientation})")
    print(f"         linearized residual {rep.linearized_residual:.2e}, "
          f"projection errors Q/f' = {rep.projection_error_q:.1e}/"
          f"{rep.projection_error_f:.1e}")
