"""Certified complex roots of integer polynomials.

Aberth-Ehrlich simultaneous iteration in mpmath arbitrary precision,
seeded from the float64 companion-matrix roots, followed by an
a-posteriori certification: around each approximation z_i we place a
disc of radius n * |W_i| where W_i = p(z_i) / prod_{j != i} (z_i - z_j)
is the Weierstrass correction.  The union of these discs contains all
roots (Gershgorin-style bound for the companion system), and when the
discs are pairwise disjoint each one isolates exactly one root.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import intpoly
from .errors import ConvergenceFailure


@dataclass(frozen=True)
class RootDisc:
    """An isolating disc for one root of a squarefree polynomial."""
    center: complex
    radius: float
    center_mp: object = None  # mpmath.mpc at working precision

    @property
    def modulus_interval(self):
        m = abs(self.center)
        return (max(m - self.radius, 0.0), m + self.radius)


def _initial_guesses(coeffs):
    arr = np.array(coeffs[::-1], dtype=float)
    if len(arr) <= 1:
        return np.array([], dtype=complex)
    guesses = np.roots(arr)
    # deterministic tiny perturbation to break exact coincidences
    off = 1e-6 * (1 + np.arange(len(guesses)))
    return guesses + off * (0.5 + 0.5j)


def certified_roots(coeffs, dps=30):
    """Roots with certified isolating discs for a squarefree integer polynomial.

    Returns a list of RootDisc sorted by (real, imag) of the centers.
    Raises ConvergenceFailure if the Aberth iteration stalls or the
    final discs overlap.
    """
    coeffs = intpoly.trim(list(coeffs))
    n = intpoly.degree(coeffs)
    if n <= 0:
        return []
    dcoeffs = intpoly.derivative(coeffs)

    with mp.workdps(dps):
        z = [mp.mpc(c) for c in _initial_guesses(coeffs)]
        if len(z) != n:
            z = [mp.mpc(mp.cos(2 * mp.pi * k / n), mp.sin(2 * mp.pi * k / n))
                 for k in range(n)]
        tol = mp.mpf(10) ** (-dps + 3)
        for _ in range(400):
            moved = mp.mpf(0)
            for i in range(n):
                pv = intpoly.eval_at(coeffs, z[i])
                dv = intpoly.eval_at(dcoeffs, z[i])
                if dv == 0:
                    z[i] = z[i] + tol
                    continue
                newton = pv / dv
                s = mp.mpc(0)
                for j in range(n):
                    if j != i:
                        s += 1 / (z[i] - z[j])
                denom = 1 - newton * s
                step = newton / denom if denom != 0 else newton
                z[i] = z[i] - step
                moved = max(moved, abs(step))
            if moved < tol:
                break
        else:
            res = [float(abs(intpoly.eval_at(coeffs, zi))) for zi in z]
            raise ConvergenceFailure(
                f"Aberth iteration stalled at dps={dps}", residuals=res)

        # pair complex-conjugate approximations and snap the real ones
        n_real = intpoly.count_real_roots(coeffs)
        order = sorted(range(n), key=lambda i: abs(mp.im(z[i])))
        for i in order[:n_real]:
            zr = mp.re(z[i])
            for _ in range(4):  # real Newton polish
                dv = intpoly.eval_at(dcoeffs, zr)
                if dv == 0:
                    break
                zr = zr - intpoly.eval_at(coeffs, zr) / dv
            z[i] = mp.mpc(zr, 0)

        lc = coeffs[-1]
        discs = []
        for i in range(n):
            prod = mp.mpc(lc)
            for j in range(n):
                if j != i:
                    prod *= (z[i] - z[j])
            w = intpoly.eval_at(coeffs, z[i]) / prod if prod != 0 else mp.mpf(1)
            # include the float64 rounding of the reported center
            radius = float(n * abs(w)) + 4e-16 * (1.0 + float(abs(z[i])))
            discs.append(RootDisc(center=complex(z[i]), radius=float(radius),
                                  center_mp=z[i]))

        for i in range(n):
            for j in range(i + 1, n):
                sep = float(abs(discs[i].center_mp - discs[j].center_mp))
                if sep <= discs[i].radius + discs[j].radius:
                    raise ConvergenceFailure(
                        f"isolating discs overlap at dps={dps}",
                        residuals=[discs[i].radius, discs[j].radius])

    return sorted(discs, key=lambda rd: (rd.center.real, rd.center.imag))
