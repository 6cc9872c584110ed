"""Perturbations f = L + R of a hyperbolic toral automorphism.

PerturbedMap wraps the lift f~(x) = Lx + R(x) with R a real Z^d-periodic
trig polynomial: evaluation, derivative, Newton local inverse, a
cone-field hyperbolicity check on a verification grid with an explicit
Lipschitz slack, and exact enumeration of periodic points.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import exactalg
from .errors import (NewtonDivergence, NotHyperbolic,
                     VerificationInconclusive)
from .spectral import IntegerAutomorphism, lyapunov_splitting
from .torusfn import TrigPoly, _chunks, _mod1, c0_norm, uniform_grid

CONE_APERTURE = 0.25    # adapted-norm aperture of the stable/unstable cones

def _newton_step(jac, res):
    """Solve jac @ step = res for a component-major stack of d x d systems,
    for every d consuming both: jac is scratch, and the step is written
    into res, which is returned.

    jac has shape (d, d, P), res (d, P): entry (i, j) of the P systems is
    the contiguous row jac[i, j].  For d = 2 the step is Cramer's rule on
    those rows.  For d >= 3 it is Gaussian elimination with partial
    pivoting per point, vectorised over the points.  An exactly singular
    system raises LinAlgError, as np.linalg.solve does.
    """
    if jac.shape[0] != 2:
        return _eliminate(jac, res)
    a, b = jac[0]
    c, e = jac[1]
    det = a * e
    det -= b * c
    if not np.all(det):
        raise np.linalg.LinAlgError("Singular matrix")
    r0, r1 = res               # each row rounds as (e r0 - b r1) / det
    c *= r0
    b *= r1
    r0 *= e
    r0 -= b
    r1 *= a
    r1 -= c
    res /= det
    return res


def _eliminate(a, b):
    """Solve a @ x = b in place for a (d, d, P) stack and (d, P) rows.

    Column k takes as pivot, per point, the entry of largest modulus on or
    below the diagonal, the first of equal ones (a running strict >, as
    np.argmax picks).  Rows are swapped, by mask over the points, only
    where some point's pivot is off the diagonal: near a hyperbolic L that
    pivots on its own, no swap runs.  A zero pivot means a zero column
    below the diagonal, a singular system.  b is overwritten by x, the
    multipliers go into a's unread entries below the diagonal and the
    products into one scratch (d, P) array.
    """
    d = a.shape[0]
    tmp = np.empty_like(b)
    for k in range(d):
        mod = np.abs(a[k:, k], out=tmp[k:])
        off = np.zeros(mod.shape[1], dtype=np.intp)
        for i in range(1, d - k):
            greater = mod[i] > mod[0]
            np.copyto(mod[0], mod[i], where=greater)
            np.copyto(off, i, where=greater)
        if off.any():
            for i in range(k + 1, d):
                swap = off == i - k
                if not swap.any():
                    continue
                # rows i and k of a, from column k on, and of b
                for rows in (a[:, k:], b[:, None]):
                    top = np.where(swap, rows[i], rows[k])
                    rows[i] = np.where(swap, rows[k], rows[i])
                    rows[k] = top
        pivot = a[k, k]
        if not np.all(pivot):
            raise np.linalg.LinAlgError("Singular matrix")
        prod = tmp[k + 1:]
        for i in range(k + 1, d):
            lower = np.divide(a[i, k], pivot, out=a[i, k])
            np.multiply(lower, a[k, k + 1:], out=prod)
            a[i, k + 1:] -= prod
            np.multiply(lower, b[k], out=prod[0])
            b[i] -= prod[0]
    prod = tmp[0]
    for k in range(d - 1, -1, -1):
        for j in range(k + 1, d):
            np.multiply(a[k, j], b[j], out=prod)
            b[k] -= prod
        b[k] /= a[k, k]
    return b


@dataclass
class SmallnessReport:
    r_c0: float            # grid sup of |R|
    r_c0_upper: float      # coefficient l1 bound
    dr_c0: float           # grid sup of ||DR||_2
    dr_c0_upper: float     # coefficient bound sum 2 pi |n| |R_n|
    dr_lipschitz: float    # bound on the Lipschitz constant of DR
    cone_ok: bool
    cone_margin: float


class PerturbedMap:
    """f = L + R on the torus, with lift, derivative, and local inverse."""

    def __init__(self, base: IntegerAutomorphism, displacement: TrigPoly,
                 warn=True):
        self.base = base
        self.spec = lyapunov_splitting(base)
        if displacement.dim_domain != base.dim or \
                displacement.dim_range != base.dim:
            raise ValueError("displacement must map T^d to R^d")
        if not displacement.is_real(1e-10):
            raise ValueError("displacement must be real-valued")
        self.disp = displacement.symmetrize_real()
        self._mat = base.as_array()
        self._mat_inv = base.inverse().as_array()
        self._check_lift_equivariance()
        if warn and not self.smallness.cone_ok:
            warnings.warn(
                "perturbation too large for the coefficient-level cone "
                f"bound (margin {self.smallness.cone_margin:.3g}); "
                "hyperbolicity of f is not certified", stacklevel=2)

    @property
    def dim(self):
        return self.base.dim

    @functools.cached_property
    def smallness(self):
        """The SmallnessReport of R, built on first read: the warning of a
        map built with warn=True reads it at construction, and a map that
        nobody asks (a KAM step's f', lyapunov's map) never pays its grid
        sup and Jacobian."""
        return self._smallness()

    # -- evaluation --------------------------------------------------------

    def displacement_at(self, x):
        return self.disp.eval_real(x)

    def apply_lift(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self._mat.T + self.disp.eval_real(x)

    def apply(self, x):
        return _mod1(self.apply_lift(x))

    def apply_with_displacement(self, x):
        """(f(x), R(x)) from one evaluation of R, both shaped like x."""
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, self.dim).T
        r = self.displacement_at(rows.T).T
        fx = self._mat @ rows
        fx += r
        fx -= np.floor(fx)                              # _mod1, in place
        return fx.T.reshape(x.shape), r.T.reshape(x.shape)

    def jacobian(self, x):
        """Df at points x of shape (..., d), as (..., d, d).

        L is added in place to the fresh DR of eval_jacobian, so for flat
        points the result is the (P, d, d) transpose of a contiguous
        component-major (d, d, P) array, as _newton_step reads it.
        """
        jac = self.disp.eval_jacobian(np.asarray(x, dtype=float)).real
        jac += self._mat
        return jac

    def invert(self, y):
        """Torus inverse: for y of shape (..., d), the x in [0,1)^d with
        f(x) = y mod Z^d, and R(x), both shaped like y.

        Newton's method from L^-1 y, run component-major on the (d, P)
        transpose of the points and returned as views of it.  Each iterate
        evaluates R once and Df once (sharing one trig table, which
        torusfn._kept keys by the points' bytes, so the iterate can change
        in place), and _newton_step solves the (d, d, P) Df systems.  The
        residual L x + R(x) - y mod Z^d is formed in a (d, P) workspace
        that the step overwrites, its roundings and the floors of x in a
        second, and x is updated in place.  R(x) is from the last residual
        evaluation, as apply_with_displacement makes R for f, unless the
        final reduction mod 1 turns a coordinate 1.0 into 0.0: then R is
        evaluated again, at the returned x.
        """
        y = np.asarray(y, dtype=float)
        rows = y.reshape(-1, self.dim).T
        x = _mod1(self._mat_inv @ rows)
        res, tmp = np.empty_like(x), np.empty_like(x)
        for it in range(61):
            r = self.displacement_at(x.T).T
            np.matmul(self._mat, x, out=res)
            res += r
            res -= rows
            res -= np.round(res, out=tmp)
            if res.max() < 1e-13 and res.min() > -1e-13:
                break
            if it == 60:
                worst = np.max(np.abs(res))
                if not worst <= 1e-8:
                    raise NewtonDivergence(
                        f"torus inverse stalled (residual {worst:.2e})",
                        points=x.T.reshape(y.shape))
                break
            x -= _newton_step(self.jacobian(x.T).transpose(1, 2, 0), res)
            x -= np.floor(x, out=tmp)                   # _mod1, in place
        # x is a reduction already, in [0, 1] and never -0.0: only a 1.0
        # changes in the final one
        if np.floor(x, out=tmp).any():
            x -= tmp
            r = self.displacement_at(x.T).T
        return x.T.reshape(y.shape), r.T.reshape(y.shape)

    # -- diagnostics -------------------------------------------------------

    def _check_lift_equivariance(self):
        rng = np.random.default_rng(1234)
        x = rng.random((8, self.dim))
        k = rng.integers(-2, 3, size=(8, self.dim)).astype(float)
        resid = self.apply_lift(x + k) - self.apply_lift(x) - k @ self._mat.T
        scale = 1.0 + float(np.max(np.abs(self.apply_lift(x))))
        if np.max(np.abs(resid)) > 1e-12 * scale:
            raise ValueError("displacement is not Z^d-periodic: lift "
                             "equivariance fails")

    def _smallness(self):
        bounds_r = c0_norm(self.disp, grid_n=64)
        freqs, coeffs = self.disp.modes()
        norms = np.linalg.norm(coeffs, axis=1)
        fl = np.linalg.norm(freqs.astype(float), axis=1) if len(freqs) else \
            np.zeros(0)
        dr_upper = float(np.sum(2 * np.pi * fl * norms))
        dr_lip = float(np.sum((2 * np.pi * fl) ** 2 * norms))
        grid = uniform_grid(self.dim, 16 if self.dim <= 2 else 6)
        dr_grid = max_norm2(self.disp.eval_jacobian(grid).real) \
            if len(freqs) else 0.0

        margin = self._cone_margin_global(dr_upper)
        return SmallnessReport(r_c0=bounds_r.lower, r_c0_upper=bounds_r.upper,
                               dr_c0=dr_grid, dr_c0_upper=dr_upper,
                               dr_lipschitz=dr_lip,
                               cone_ok=margin > 0, cone_margin=margin)

    def _cone_margin_global(self, dr_upper):
        """Margin of the cone conditions using only coefficient bounds."""
        (t, t_inv), du = self.spec.adapted_transform, self.spec.unstable_dim
        kappa = np.linalg.norm(t, 2) * np.linalg.norm(t_inv, 2)
        eps = kappa * dr_upper
        lam = t @ self._mat @ t_inv
        m_u = 1.0 / np.linalg.norm(np.linalg.inv(lam[:du, :du]), 2)
        c_s = np.linalg.norm(lam[du:, du:], 2)
        a = CONE_APERTURE
        grow = m_u - eps * (1 + a)
        shrink = eps * (1 + a) + a * c_s
        invariance = a * grow - shrink
        expansion = grow - 1.0
        return float(min(invariance, expansion))


def build(base, displacement, warn=True):
    """Construct f = L + R with a smallness report; warns if the cheap
    cone bound fails (a warning, not an error)."""
    if not isinstance(base, IntegerAutomorphism):
        base = IntegerAutomorphism(base)
    return PerturbedMap(base, displacement, warn=warn)


# ---------------------------------------------------------------------------
# Cone-field verification
# ---------------------------------------------------------------------------

@dataclass
class AnosovReport:
    passed: bool
    grid_n: int
    aperture: float
    expansion_min: float       # unstable-cone growth of Df
    inverse_expansion_min: float   # stable-cone growth of Df^-1
    invariance_margin: float
    slack: float
    theta: float
    k_const: float

    def as_dict(self):
        return self.__dict__.copy()


def verify_anosov(f: PerturbedMap, grid_n=24):
    """Finite-grid cone-field check with Lipschitz slack.

    Verifies that Df maps the unstable cone (adapted-norm aperture
    a = CONE_APERTURE around E^u) into itself and expands it, and mirror
    conditions for Df^-1 on the stable cone, at every grid point with a
    slack covering the variation of DR inside each grid cell.  Raises
    VerificationInconclusive when the bounds do not close; that is not a
    verdict that f fails to be Anosov.
    """
    (t, t_inv), du = f.spec.adapted_transform, f.spec.unstable_dim
    d = f.dim
    a = CONE_APERTURE
    kappa = np.linalg.norm(t, 2) * np.linalg.norm(t_inv, 2)
    cell = np.sqrt(d) / (2 * grid_n)
    slack = kappa * f.smallness.dr_lipschitz * cell

    pts = uniform_grid(d, grid_n)
    jac = f.jacobian(pts)                      # (P, d, d)
    jt = np.einsum("ij,pjk,kl->pil", t, jac, t_inv)
    jti = np.linalg.inv(jt)

    a_uu = jt[:, :du, :du]
    a_us = jt[:, :du, du:]
    a_su = jt[:, du:, :du]
    a_ss = jt[:, du:, du:]
    m_u = _sigma_min(a_uu) - a * _norm2(a_us) - slack * (1 + a)
    b_s = _norm2(a_su) + a * _norm2(a_ss) + slack * (1 + a)
    grow_u = float(np.min(m_u))
    inv_u = float(np.min(a * m_u - b_s))

    p_uu = jti[:, :du, :du]
    p_us = jti[:, :du, du:]
    q_su = jti[:, du:, :du]
    q_ss = jti[:, du:, du:]
    slack_i = slack * max_norm2(jti) ** 2
    m_s = _sigma_min(q_ss) - a * _norm2(q_su) - slack_i * (1 + a)
    b_u = _norm2(p_us) + a * _norm2(p_uu) + slack_i * (1 + a)
    grow_s = float(np.min(m_s))
    inv_s = float(np.min(a * m_s - b_u))

    margin = min(inv_u, inv_s)
    expansion = min(grow_u, grow_s)
    if margin <= 0 or expansion <= 1.0:
        raise VerificationInconclusive(
            f"cone conditions not closed on a {grid_n}^{d} grid "
            f"(invariance margin {margin:.3g}, expansion {expansion:.4g}); "
            "refine the grid or shrink the perturbation")
    theta = 1.0 / expansion
    return AnosovReport(passed=True, grid_n=grid_n, aperture=a,
                        expansion_min=grow_u, inverse_expansion_min=grow_s,
                        invariance_margin=margin, slack=slack,
                        theta=float(theta), k_const=float(kappa))


# Matrices per block of max_norm2's SVDs.  On a smooth stack the largest
# 2-norm sits among the largest Frobenius norms, so one or two blocks
# decide: on a 12^4 grid of 4 x 4 Jacobians, blocks of 64 take 2.6 ms,
# of 1024 6.4 ms, against 76 ms for the SVDs of the whole stack.
NORM2_BLOCK = 64


def max_norm2(stack):
    """max over a stack (..., p, q) of the spectral norms ||A||_2, with the
    bits of float(np.max(np.linalg.norm(stack, ord=2, axis=(-2, -1)))).

    ||A||_2 <= ||A||_F, so the SVDs run on blocks of NORM2_BLOCK matrices
    taken in descending Frobenius order, and stop once the next F times
    1 + 1e-12, which covers the rounding of both norms, is below the best
    2-norm so far.  Each matrix's SVD is its own, so the max is the same
    number.  An empty stack or a non-finite F takes the full expression,
    which raises or returns what it always has.
    """
    a = np.asarray(stack)
    fro = np.linalg.norm(a, axis=(-2, -1)).reshape(-1)
    if not a.size or not np.isfinite(fro).all():
        return float(np.max(np.linalg.norm(a, ord=2, axis=(-2, -1))))
    flat = a.reshape((len(fro),) + a.shape[-2:])
    order = np.argsort(fro)[::-1]
    best = 0.0
    for sl in _chunks(len(order), NORM2_BLOCK):
        if fro[order[sl.start]] * (1 + 1e-12) < best:
            break
        best = max(best, float(np.max(np.linalg.norm(
            flat[order[sl]], ord=2, axis=(-2, -1)))))
    return best


def _norm2(batch):
    return np.linalg.norm(batch, ord=2, axis=(-2, -1)) if batch.shape[-1] \
        else np.zeros(batch.shape[0])


def _sigma_min(batch):
    if batch.shape[-1] == 0:
        return np.full(batch.shape[0], np.inf)
    return np.linalg.svd(batch, compute_uv=False)[..., -1]


# ---------------------------------------------------------------------------
# Periodic points
# ---------------------------------------------------------------------------

@dataclass
class PeriodicOrbit:
    period: int                # minimal period
    points: np.ndarray         # (period, d), on the torus
    residual: float            # ||f~^n(p) - p - k|| for the search period n
    k_vector: tuple
    deriv_product: np.ndarray  # D_p f^period

    @property
    def representative(self):
        return self.points[0]


@dataclass
class PeriodicSearch:
    orbits: list
    point_count: int
    expected_count: int
    newton_failures: int
    period: int
    newton_iterations: int = 0


MAX_SEARCH_PERIOD = 16
PERIODIC_TOL = 1e-12    # sup residual that ends periodic_points' Newton
PERIODIC_ITER = 60      # and the most Newton steps it takes


def _periodic_seeds(lni, det):
    """Integer k and seeds x = (L^n - I)^{-1} k in [0,1)^d, k sorted: two
    (det, d) arrays, one row per seed, k integer and x float.

    The k are one representative per coset of Z^d / A Z^d, A = L^n - I.
    column_reduce gives a unimodular U with A U lower triangular (a Hermite
    form without the reduction of the off-diagonal entries), so the k'
    with 0 <= k'_i < |(A U)_ii| are a full set of coset representatives
    (det = |det A| of them).  Each maps exactly to the canonical
    k = A frac(A^-1 k') = k' - A floor(A^-1 k'), in integers via
    A^-1 = adj / det, for all k' in one array expression.  The integers
    are int64 when no product or partial sum can reach 2^63: |adj k'| <=
    d max|adj| max k', each term of A floor(adj k' / det) is at most
    max|A| (|adj k'| + 1), and |det floor(adj k' / det)| is below
    |adj k'| + det.  Otherwise they are Python ints (object dtype),
    as in torusfn._int_rows.  Each x_i is (adj k' - det floor) / det, an
    integer in [0, det) over det, both exact in float64, so its one
    rounding is that of the exact quotient.
    """
    d = len(lni)
    adj = [[int(c * det) for c in row]
           for row in exactalg.inverse_fraction(lni)]
    tri = exactalg.mat_mul(lni, exactalg.column_reduce(lni, d)[0])
    sizes = [abs(tri[i][i]) for i in range(d)]
    y_max = d * max(map(abs, itertools.chain(*adj))) * (max(sizes) - 1)
    big = d * max(map(abs, itertools.chain(*lni))) * (y_max + 1) + \
        y_max + det
    dtype = np.int64 if big < 2 ** 63 else object
    kp = np.indices(sizes).reshape(d, -1).T.astype(dtype)
    y = kp @ np.array(adj, dtype=dtype).T
    fl = y // det
    k = kp - fl @ np.array(lni, dtype=dtype).T
    x = np.asarray((y - det * fl) / det, dtype=float)
    order = np.lexsort(k.T[::-1])
    return k[order], x[order]


def periodic_points(f: PerturbedMap, n):
    """All period-n points of f, seeded at the periodic points of L.

    The seeds are the |det(L^n - I)| points (L^n - I)^{-1} k in [0,1)^d,
    k integer, in lexicographic order of k: one k per coset of
    Z^d / (L^n - I) Z^d, read off a triangular column form of L^n - I
    (see _periodic_seeds), with no search over a bounding box.
    Newton-solves f~^n(x) = x + k from each seed, deduplicates into orbits
    with minimal periods, and reports the count against |det(L^n - I)|.

    The orbits of the P converged seeds are recorded together, as one
    (n, P, d) array of the points f^k(p), k < n, filled by one batched
    f.apply per step: n P d floats.  Each seed's minimal period is the
    least divisor m of n with f^m(p) = p to 1e-8, and its key the least
    of its period's points rounded to 8 digits; the first seed of each
    key, in the order of k, gives the orbit.  D_p f^period is the
    product of batched Jacobians along the kept orbits, one period at a
    time.
    """
    if n > MAX_SEARCH_PERIOD:
        raise ValueError(f"period {n} exceeds the configured cap "
                         f"{MAX_SEARCH_PERIOD} (the seed count grows like "
                         "|det(L^n - I)|)")
    d = f.dim
    ln = f.base.power(n).rows()
    lni = [[ln[i][j] - (1 if i == j else 0) for j in range(d)]
           for i in range(d)]
    expected = abs(exactalg.det_bareiss(lni))
    kept_k, x = _periodic_seeds(lni, expected)
    if len(x) != expected:
        raise ArithmeticError(
            f"seed enumeration found {len(x)} != |det| = {expected}")
    kv = kept_k.astype(float)
    # the walk of the last iterate gives the final residuals
    for iterations in range(PERIODIC_ITER + 1):
        y = x.copy()
        prod = np.broadcast_to(np.eye(d), (len(x), d, d)).copy()
        for _step in range(n):
            prod = f.jacobian(y) @ prod
            y = f.apply_lift(y)
        res = y - x - kv
        if iterations == PERIODIC_ITER or np.max(np.abs(res)) < PERIODIC_TOL:
            break
        x = x - _newton_step((prod - np.eye(d)).transpose(1, 2, 0), res.T).T
    res = np.linalg.norm(res, axis=1)

    good = np.flatnonzero(res <= 100 * PERIODIC_TOL)
    failures = len(x) - len(good)
    # the orbits of the converged seeds, one batched step at a time
    pts = np.empty((n, len(good), d))
    pts[0] = _mod1(x[good])
    for k in range(1, n):
        pts[k] = f.apply(pts[k - 1])
    # minimal periods: the least divisor m of n with f^m(p) = p
    period = np.full(len(good), n)
    for m in range(1, n):
        if n % m == 0:
            dd = pts[m] - pts[0]
            dd -= np.round(dd)
            period[(period == n) &
                   (np.max(np.abs(dd), axis=1) < 1e-8)] = m
    rounded = _mod1(np.round(_mod1(pts), 8))
    kept = {}                   # key -> index into good, first in k order
    for j, per in enumerate(period.tolist()):
        kept.setdefault(min(map(tuple, rounded[:per, j].tolist())), j)
    kept = np.array(list(kept.values()), dtype=int)
    deriv = {}
    for per in sorted(set(period[kept].tolist())):
        sel = kept[period[kept] == per]
        dp = np.broadcast_to(np.eye(d), (len(sel), d, d))
        for k in range(per):
            dp = f.jacobian(pts[k, sel]) @ dp
        deriv.update(zip(sel.tolist(), dp))

    orbits = [PeriodicOrbit(period=int(period[j]),
                            points=pts[:period[j], j].copy(),
                            residual=float(res[good[j]]),
                            k_vector=tuple(int(v) for v in kv[good[j]]),
                            deriv_product=deriv[j]) for j in kept.tolist()]
    count = int(period[kept].sum())
    return PeriodicSearch(orbits=sorted(orbits,
                                        key=lambda o: tuple(o.points[0])),
                          point_count=count, expected_count=expected,
                          newton_failures=failures, period=n,
                          newton_iterations=iterations)


def fixed_point_near_zero(f: PerturbedMap):
    """The fixed point of f closest to 0 (torus metric)."""
    search = periodic_points(f, 1)
    if not search.orbits:
        raise NewtonDivergence("no fixed point found")
    def torus_dist(p):
        q = p - np.round(p)
        return np.linalg.norm(q)
    return min((o.representative for o in search.orbits), key=torus_dist)


# ---------------------------------------------------------------------------
# Periodic data
# ---------------------------------------------------------------------------

@dataclass
class PeriodicDataVerdict:
    verdict: str               # "conjugate" | "not_conjugate" | "indeterminate"
    period: int
    charpoly_distance: float
    conjugator: np.ndarray | None
    conjugator_cond: float | None
    details: str = ""


def periodic_data_check(f: PerturbedMap, orbit: PeriodicOrbit):
    """Compare D_p f^n with L^n up to similarity, n the orbit's period.

    Checks the characteristic polynomials coefficientwise, then searches
    the intertwiner space {X : L^n X = X D} for a well-conditioned
    invertible element (a rank-test proxy for matching Jordan structure).
    When found, returns the conjugator C_p with its condition number.
    """
    d = f.dim
    n = orbit.period
    dmat = orbit.deriv_product
    tol = 1e-8
    ln_exact = f.base.power(n).rows()
    ln = np.array(ln_exact, dtype=float)

    cp_l = np.array(exactalg.charpoly(ln_exact), dtype=float)
    cp_d = np.poly(dmat)[::-1]
    scale = max(1.0, np.max(np.abs(cp_l)))
    dist = float(np.max(np.abs(cp_l - cp_d)) / scale)
    if dist > 100 * tol:
        return PeriodicDataVerdict("not_conjugate", n, dist, None, None,
                                   "characteristic polynomials differ")

    # intertwiner space: vec(X) in ker(I (x) L^n - D^T (x) I)
    op = np.kron(np.eye(d), ln) - np.kron(dmat.T, np.eye(d))
    _, s, vh = np.linalg.svd(op)
    null_dim = int(np.sum(s < tol * max(s[0], 1.0)))
    if null_dim == 0:
        return PeriodicDataVerdict("not_conjugate", n, dist, None, None,
                                   "no intertwiner (Jordan structures differ)")
    basis = vh[-null_dim:]
    rng = np.random.default_rng(0)
    best = None
    best_smin = 0.0
    for _ in range(400):
        c = rng.normal(size=null_dim)
        x = (c @ basis).reshape(d, d)
        x /= np.linalg.norm(x)
        smin = np.linalg.svd(x, compute_uv=False)[-1]
        if smin > best_smin:
            best_smin = smin
            best = x
    if best is None or best_smin < 1e-9:
        return PeriodicDataVerdict("not_conjugate", n, dist, None, None,
                                   "intertwiners all singular")
    if best_smin < 1e-5:
        return PeriodicDataVerdict("indeterminate", n, dist, None, None,
                                   f"best intertwiner near-singular "
                                   f"({best_smin:.2e})")
    cond = float(np.linalg.cond(best))
    return PeriodicDataVerdict("conjugate", n, dist, best, cond, "")
