"""Independent oracles used by the test suite.

Deliberately separate algorithms from the ones in the package:
Kronecker interpolation for factorization, a boundary-value sequence
solve for orbit shadowing, the conjugacy as the fixed point of a sweep on
grid values composed by trigonometric interpolation, random-restart
optimization for conformal
similarity, the direct complex-exponential sum for trig polynomials, LLL
over Fractions, periodic-point seeds from a bounding-box search and one
coset representative at a time, the
conjugacy's orbit walk with every trig table built afresh, f^-1 as a
map over L^-1 for a second conjugacy solve, the Newton inverse and the
orbit walk on row-major points, the out-of-place component-major Newton
inverse with argmax-pivoted elimination, an exact Fraction linear solve,
the KAM
step's Q and the conjugacy residual each from two orbit walks,
periodic orbits and QR exponents computed one point and one step at a time
(with the random perturbed maps their property tests draw), TrigPoly's
bulk operations as per-key loops into dicts, the grid sup with all range
components on one grid, the twisted equation keyed
by a dict of frequency tuples, the reader of save_grid's text format,
a lacunary Weierstrass-type profile with a known Holder exponent, and
the diagnostics one piece at a time: the skew series psi on row-major
points, periodic exponents and conformality one orbit at a time, and
save_grid one row at a time.
"""

import contextlib
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np

from toralab import cocycles, exactalg, intpoly, maps, spectral, torusfn, \
    twisted
from toralab.errors import (LostOrthogonality, NotHyperbolic,
                            ToleranceNotReached)
from toralab.torusfn import GridFunction, TrigPoly, _mod1, uniform_grid


# ---------------------------------------------------------------------------
# Kronecker factorization by integer interpolation (degree <= 8)
# ---------------------------------------------------------------------------

def _divisors_signed(n):
    n = abs(n)
    out = []
    for k in range(1, n + 1):
        if n % k == 0:
            out.extend([k, -k])
    return out


def _interpolate(points, values):
    """Lagrange interpolation over Q; returns integer coeffs or None."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        num = [Fraction(values[i])]
        den = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            num = _fmul(num, [Fraction(-points[j]), Fraction(1)])
            den *= Fraction(points[i] - points[j])
        num = [c / den for c in num]
        coeffs = [a + b for a, b in
                  zip(coeffs + [Fraction(0)] * (n - len(coeffs)),
                      num + [Fraction(0)] * (n - len(num)))]
    out = []
    for c in coeffs:
        if c.denominator != 1:
            return None
        out.append(int(c))
    return intpoly.trim(out)


def _fmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def kronecker_factor(p, max_degree=8):
    """Irreducible factors over Q of a monic-up-to-sign integer polynomial,
    found by exhausting divisor interpolations (exponential; oracle only)."""
    p = intpoly.primitive(p)
    deg = intpoly.degree(p)
    if deg > max_degree:
        raise ValueError("Kronecker oracle capped at degree 8")
    if deg <= 1:
        return [p] if deg == 1 else []
    points = [0, 1, -1, 2, -2, 3, -3, 4, -4]
    # linear factors from integer roots first
    for x0 in points:
        if intpoly.eval_at(p, x0) == 0:
            lin = [-x0, 1]
            return sorted([lin] + kronecker_factor(
                intpoly.exact_div(p, lin), max_degree))
    for s in range(2, deg // 2 + 1):
        pts = points[:s + 1]
        vals = [intpoly.eval_at(p, x) for x in pts]
        choices = [_divisors_signed(v) for v in vals]
        seen = set()
        for combo in itertools.product(*choices):
            g = _interpolate(pts, list(combo))
            if g is None or intpoly.degree(g) != s or abs(g[-1]) != 1:
                continue
            key = tuple(g)
            if key in seen:
                continue
            seen.add(key)
            if intpoly.divides(g, p):
                rest = intpoly.exact_div(p, g)
                return sorted([intpoly.primitive(g)] +
                              kronecker_factor(rest, max_degree))
    return [p]


# ---------------------------------------------------------------------------
# Orbit shadowing by a boundary-value linear solve in sequence space
# ---------------------------------------------------------------------------

def shadow_conjugacy(f, x, window=40):
    """H(x) from shadowing: the L-orbit (z_k) with z_{k+1} = L z_k staying
    near the f-orbit of x.

    Solved as one dense linear system for the corrections u_k = z_k - w_k
    over k in [-M, M], with the defects d_k = L w_k - w_{k+1} = -R(w_k)
    and boundary conditions killing the unstable component at +M and the
    stable one at -M.  z_0 = x + u_0 = H(x).
    """
    sd = f.spec
    d = f.dim
    lmat = f.base.as_array()
    m = window
    orbit = [np.asarray(x, dtype=float) % 1.0]
    for _ in range(m):
        orbit.append(f.apply(orbit[-1]))
    back = [orbit[0]]
    for _ in range(m):
        back.append(f.invert(back[-1])[0])
    points = back[::-1][:-1] + orbit          # w_{-M} ... w_{M}
    defects = [-f.displacement_at(w) for w in points[:-1]]

    n_pts = 2 * m + 1
    size = n_pts * d
    a = np.zeros((size, size))
    rhs = np.zeros(size)
    row = 0
    for k in range(n_pts - 1):
        a[row:row + d, (k + 1) * d:(k + 2) * d] = np.eye(d)
        a[row:row + d, k * d:(k + 1) * d] = -lmat
        rhs[row:row + d] = defects[k]
        row += d
    pu = sd.unstable_basis.T      # rows span E^u coordinates
    ps = sd.stable_basis.T
    du = pu.shape[0]
    a[row:row + du, (n_pts - 1) * d:] = pu
    row += du
    a[row:row + d - du, 0:d] = ps
    u = np.linalg.solve(a, rhs)
    return points[m] + u[m * d:(m + 1) * d]


# ---------------------------------------------------------------------------
# The conjugacy by the alternating sweep on grid values
# ---------------------------------------------------------------------------

def interpolated_conjugacy(f, grid_n, tol, initial=None, max_sweeps=400,
                           residual_samples=100, seed=0, threshold=1e-13):
    """h on the N^d grid as the fixed point of the alternating sweep

        h^u <- L_u^-1 (h + R)^u o f,    h^s <- L_s (h^s o f^-1) - R^s o f^-1,

    with h composed with f and f^-1 by trigonometric interpolation of its
    grid values, started from `initial` (a TrigPoly, or h = 0).  The fixed
    point carries the grid's aliasing error.  Returns the grid values,
    shape (N,)*d + (d,), and max |L H(x) - H(f~ x)| over a seeded sample
    with H interpolated from them.
    """
    sd = f.spec
    d = f.dim
    shape = (grid_n,) * d + (d,)
    grid = uniform_grid(d, grid_n)
    w, w_inv, du = sd.basis_full, sd.basis_full_inv, sd.unstable_dim
    au = np.linalg.inv(sd.restricted_unstable())
    als = sd.restricted_stable()
    chol_u, chol_s = sd.unstable_norm.chol, sd.stable_norm.chol
    y1 = f.apply(grid)
    z1 = f.invert(grid)[0]
    r_grid = f.displacement_at(grid)
    r_z = f.displacement_at(z1)
    h_vals = np.zeros((grid.shape[0], d)) if initial is None else \
        np.asarray(initial.eval_real(grid))
    for sweep in range(max_sweeps):
        tp = GridFunction(h_vals.reshape(shape)).to_trig(threshold=threshold)
        coords = h_vals @ w_inv.T
        coords[:, :du] = ((tp.eval_real(y1) + r_grid) @ w_inv.T)[:, :du] @ \
            au.T
        h_mid = coords @ w.T
        tp = GridFunction(h_mid.reshape(shape)).to_trig(threshold=threshold)
        coords = h_mid @ w_inv.T
        coords[:, du:] = (tp.eval_real(z1) @ w_inv.T)[:, du:] @ als.T - \
            (r_z @ w_inv.T)[:, du:]
        new_vals = coords @ w.T
        # sup over the grid of the adapted norm of the sweep's step
        step = (new_vals - h_vals) @ w_inv.T
        diff = max(float(np.max(np.linalg.norm(step[:, :du] @ chol_u.T,
                                                axis=1))) if du else 0.0,
                   float(np.max(np.linalg.norm(step[:, du:] @ chol_s.T,
                                               axis=1))) if d - du else 0.0)
        h_vals = new_vals
        if diff < tol and sweep >= 2:
            break
    else:
        raise ToleranceNotReached(
            f"sweep differences {diff:.2e} after {max_sweeps} sweeps")

    tp = GridFunction(h_vals.reshape(shape)).to_trig(threshold=threshold)
    x = np.random.default_rng(seed).random((residual_samples, d))
    lhs = (x + tp.eval_real(x)) @ f.base.as_array().T
    fx = f.apply_lift(x)
    residual = np.max(np.abs(lhs - fx - tp.eval_real(fx)))
    return h_vals.reshape(shape), float(residual)


# ---------------------------------------------------------------------------
# The orbit walk with every trig table built afresh
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def table_memo_off():
    """TrigPoly evaluation with no kept [cos | sin] table: every call builds
    its own, as each did before tables were kept between calls."""
    with mock.patch.object(torusfn, "TABLE_MEMO", -1):
        yield


def orbit_terms_reference(f, points):
    """The terms L_u^-(k+1) R^u(f^k x) and L_s^k R^s(f^-(k+1) x) of the
    conjugacy's one-sided sums, k = 0, 1, ..., in splitting coordinates,
    walked with separate displacement_at, apply and invert calls.  Consume
    it under table_memo_off() to build every trig table anew."""
    sd = f.spec
    du, w_inv = sd.unstable_dim, sd.basis_full_inv
    au = np.linalg.inv(sd.restricted_unstable())
    als = sd.restricted_stable()
    y = points
    z = f.invert(points)[0]
    mu = au.copy()
    ms = np.eye(f.dim - du)
    while True:
        yield ((f.displacement_at(y) @ w_inv.T)[:, :du] @ mu.T,
               (f.displacement_at(z) @ w_inv.T)[:, du:] @ ms.T)
        y = f.apply(y)
        z = f.invert(z)[0]
        mu = au @ mu
        ms = als @ ms


class InverseMap:
    """f^-1 over the base L^-1, built on f.invert, f.apply_with_displacement
    and f.jacobian alone.  Since H o f^-1 = L^-1 o H, solve_conjugacy on it
    gives the h of f.  Its displacement at y is f^-1(y) - L^-1 y reduced
    mod Z^d."""

    def __init__(self, f):
        self.forward = f
        self.base = f.base.inverse()
        self.spec = spectral.lyapunov_splitting(self.base)
        self._mat = self.base.as_array()
        self.dim = f.dim

    def apply_with_displacement(self, y):
        y = np.asarray(y, dtype=float)
        x = self.forward.invert(y)[0]
        r = x - y @ self._mat.T
        return x, r - np.round(r)

    def apply(self, y):
        return self.forward.invert(y)[0]

    def displacement_at(self, y):
        return self.apply_with_displacement(y)[1]

    def apply_lift(self, y):
        return np.asarray(y, dtype=float) @ self._mat.T + \
            self.displacement_at(y)

    def jacobian(self, y):
        return np.linalg.inv(self.forward.jacobian(self.apply(y)))

    def invert(self, x):
        fx = self.forward.apply_with_displacement(x)[0]
        return fx, self.apply_with_displacement(fx)[1]


# ---------------------------------------------------------------------------
# The row-major Newton inverse and orbit walk, and an exact linear solve
# ---------------------------------------------------------------------------

def newton_step_rows(jac, res):
    """Solve jac @ step = res for a row-major (P, d, d) stack: Cramer's rule
    for d = 2, np.linalg.solve otherwise (oracle only)."""
    if jac.shape[-1] != 2:
        return np.linalg.solve(jac, res[..., None])[..., 0]
    a, b = jac[..., 0, 0], jac[..., 0, 1]
    c, e = jac[..., 1, 0], jac[..., 1, 1]
    det = a * e - b * c
    if not np.all(det):
        raise np.linalg.LinAlgError("Singular matrix")
    r0, r1 = res[..., 0], res[..., 1]
    return np.stack(((e * r0 - b * r1) / det, (a * r1 - c * r0) / det),
                    axis=-1)


def invert_rows(f, y):
    """f.invert on row-major (P, d) points, one point per row, with the
    step of newton_step_rows; returns x alone (oracle only)."""
    y = np.asarray(y, dtype=float)
    x = _mod1(y @ f._mat_inv.T)
    for _ in range(60):
        res = f.apply_lift(x) - y
        res = res - np.round(res)
        if np.max(np.abs(res)) < 1e-13:
            break
        x = _mod1(x - newton_step_rows(f.jacobian(x), res))
    else:
        res = f.apply_lift(x) - y
        if not np.max(np.abs(res - np.round(res))) <= 1e-8:
            raise ToleranceNotReached("row-major torus inverse stalled")
    return _mod1(x)


def walk_rows(f, points):
    """_OrbitSeries._walk on row-major (P, d) points: R(x), R(f^-1 x),
    R(f x), ... in splitting coordinates, one point per row, with R at
    f^-1 x evaluated after invert_rows (oracle only)."""
    w_inv = f.spec.basis_full_inv
    y = z = points
    while True:
        r_y = f.displacement_at(y)
        y = _mod1(y @ f._mat.T + r_y)
        yield r_y @ w_inv.T
        z = invert_rows(f, z)
        yield f.displacement_at(z) @ w_inv.T


def solve_fraction_float(jac, res):
    """The exact solution of jac @ x = res for one d x d system of floats,
    by Gauss-Jordan elimination over Fractions, rounded to float at the end
    (oracle only)."""
    d = len(res)
    rows = [[Fraction(float(v)) for v in jac[i]] + [Fraction(float(res[i]))]
            for i in range(d)]
    for k in range(d):
        piv = next(i for i in range(k, d) if rows[i][k] != 0)
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(d):
            if i != k and rows[i][k] != 0:
                rows[i] = [a - rows[i][k] * b
                           for a, b in zip(rows[i], rows[k])]
    return np.array([float(row[d]) for row in rows])


# ---------------------------------------------------------------------------
# The component-major Newton inverse out of place, pivoting by argmax
# ---------------------------------------------------------------------------

def eliminate_argmax(a, b):
    """maps._eliminate with the pivot row found by np.argmax over the
    moduli and the products formed as temporaries: solves a @ x = b for a
    (d, d, P) stack and (d, P) rows, overwriting both (oracle only)."""
    d = a.shape[0]
    for k in range(d):
        off = np.argmax(np.abs(a[k:, k]), axis=0)
        if off.any():
            for i in range(k + 1, d):
                swap = off == i - k
                if not swap.any():
                    continue
                for rows in (a[:, k:], b[:, None]):
                    top = np.where(swap, rows[i], rows[k])
                    rows[i] = np.where(swap, rows[k], rows[i])
                    rows[k] = top
        pivot = a[k, k]
        if not np.all(pivot):
            raise np.linalg.LinAlgError("Singular matrix")
        for i in range(k + 1, d):
            lower = a[i, k] / pivot
            a[i, k + 1:] -= lower * a[k, k + 1:]
            b[i] -= lower * b[k]
    for k in range(d - 1, -1, -1):
        for j in range(k + 1, d):
            b[k] -= a[k, j] * b[j]
        b[k] /= a[k, k]
    return b


def invert_out_of_place(f, y):
    """f.invert with a fresh iterate, residual and reduction per Newton
    step, and eliminate_argmax for d >= 3: (x, R(x)) shaped like y, R
    evaluated again when the final reduction changes a bit of x (oracle
    only)."""
    y = np.asarray(y, dtype=float)
    rows = y.reshape(-1, f.dim).T

    def residual(x):
        r = f.displacement_at(x.T).T
        res = f._mat @ x
        res += r
        res -= rows
        res -= np.round(res)
        return r, res

    x = _mod1(f._mat_inv @ rows)
    for _ in range(60):
        r, res = residual(x)
        if np.max(np.abs(res)) < 1e-13:
            break
        jac = f.jacobian(x.T).transpose(1, 2, 0)
        step = maps._newton_step(jac, res) if f.dim == 2 else \
            eliminate_argmax(jac, res)
        x = x - step
        x -= np.floor(x)
    else:
        r, res = residual(x)
        if not np.max(np.abs(res)) <= 1e-8:
            raise ToleranceNotReached("out-of-place torus inverse stalled")
    out = _mod1(x)
    if not np.array_equal(out, x):
        r = f.displacement_at(out.T).T
    return out.T.reshape(y.shape), r.T.reshape(y.shape)


# ---------------------------------------------------------------------------
# The KAM step's Q and the conjugacy residual, each from two orbit walks
# ---------------------------------------------------------------------------

def kam_q_walked(f, conj, grid_n):
    """Q = R + h o f - h o L at the points of the N^d grid, with h o f and
    h o L each read off a walk of the conjugacy's evaluator."""
    pts = uniform_grid(f.dim, grid_n)
    lmat = f.base.as_array()
    return f.displacement_at(pts) + conj.evaluate_h(f.apply(pts)) - \
        conj.evaluate_h(_mod1(pts @ lmat.T))


def conjugacy_residual_two_walks(f, evaluator, points):
    """||L H(x) - H(f~ x)||_inf on the lift, rowwise, with h(x) and
    h(f~ x) from separate walks (the backward points of f~ x from Newton
    inverses of f~ x)."""
    lmat = f.base.as_array()
    fx = f.apply_lift(points)
    return np.max(np.abs((points + evaluator(points)) @ lmat.T -
                         fx - evaluator(fx)), axis=1)


# ---------------------------------------------------------------------------
# Brute-force conformal-similarity optimizer
# ---------------------------------------------------------------------------

def _conformality_distance(c_flat, m):
    c = c_flat.reshape(m.shape)
    det = np.linalg.det(c)
    if abs(det) < 1e-6:
        return 1e6
    x = np.linalg.solve(c, m @ c)
    r2 = abs(np.linalg.det(x)) ** (2.0 / m.shape[0])
    return float(np.linalg.norm(x.T @ x - r2 * np.eye(m.shape[0]), "fro") /
                 max(r2, 1e-12))


def _conformality_distances(cs, m):
    """_conformality_distance of each row of cs, as array operations."""
    k = m.shape[0]
    c = cs.reshape(-1, k, k)
    out = np.full(len(c), 1e6)
    ok = np.abs(np.linalg.det(c)) >= 1e-6
    x = np.linalg.solve(c[ok], m @ c[ok])
    r2 = np.abs(np.linalg.det(x)) ** (2.0 / k)
    gap = np.swapaxes(x, 1, 2) @ x - r2[:, None, None] * np.eye(k)
    out[ok] = np.linalg.norm(gap, "fro", axis=(1, 2)) / np.maximum(r2, 1e-12)
    return out


def brute_force_conformality(m, restarts=10000, refine_best=6, seed=0):
    """min over conjugators of the distance of C^-1 M C to the conformal
    group, by random restarts plus Nelder-Mead polish of the best few."""
    from scipy.optimize import minimize
    m = np.asarray(m, dtype=float)
    rng = np.random.default_rng(seed)
    k = m.shape[0]
    cs = rng.normal(size=(restarts, k * k))
    vals = _conformality_distances(cs, m)
    order = np.argsort(vals, kind="stable")
    out = float(vals[order[0]])
    for c in cs[order[:refine_best]]:
        res = minimize(_conformality_distance, c, args=(m,),
                       method="Nelder-Mead",
                       options={"maxiter": 2000, "fatol": 1e-14,
                                "xatol": 1e-12})
        out = min(out, float(res.fun))
    return out


def brute_force_verdict(m, seed=0):
    dist = brute_force_conformality(m, seed=seed)
    if dist < 1e-6:
        return "conformal"
    if dist > 1e-3:
        return "not_conformal"
    return "indeterminate"


# ---------------------------------------------------------------------------
# Trig polynomials by the direct complex-exponential sum
# ---------------------------------------------------------------------------

def _direct_terms(tp, points):
    """exp(2 pi i <n, x>) for every point and stored mode, (P, K), and the
    frequencies as floats, (K, d)."""
    pts = np.asarray(points, dtype=float).reshape(-1, tp.dim_domain)
    freqs = tp.freqs.astype(float)
    return np.exp(2j * np.pi * (pts @ freqs.T)), freqs


def trig_eval_direct(tp, points):
    """sum_n c_n exp(2 pi i <n, x>) over every stored mode; (P, m) complex."""
    e, _ = _direct_terms(tp, points)
    return e @ tp.coefs


def trig_jacobian_direct(tp, points):
    """sum_n c_n (2 pi i n) exp(2 pi i <n, x>) over every stored mode;
    (P, m, d) complex."""
    e, freqs = _direct_terms(tp, points)
    terms = tp.coefs[:, :, None] * (2j * np.pi * freqs)[:, None, :]
    m, d = tp.dim_range, tp.dim_domain
    return (e @ terms.reshape(len(freqs), m * d)).reshape(len(e), m, d)


# ---------------------------------------------------------------------------
# TrigPoly's bulk operations, one coefficient at a time
# ---------------------------------------------------------------------------

def _put(out, n, c):
    """out[n] = c as a per-key store keeps it: a complex vector, and an
    all-zero vector removes n (a later store of n appends it again)."""
    c = np.asarray(c, dtype=complex)
    if np.any(c != 0):
        out[n] = c
    else:
        out.pop(n, None)


def _zero(tp):
    return np.zeros(tp.dim_range, dtype=complex)


def is_real_per_key(tp, tol):
    for n, c in tp.coeffs.items():
        cc = tp[tuple(-x for x in n)]
        if np.max(np.abs(cc - np.conj(c))) > tol:
            return False
    return True


def symmetrize_real_per_key(tp):
    out = {}
    seen = set()
    for n in list(tp.coeffs):
        if n in seen:
            continue
        neg = tuple(-x for x in n)
        seen.add(n)
        seen.add(neg)
        avg = 0.5 * (tp[n] + np.conj(tp[neg]))
        _put(out, n, avg)
        if neg != n:
            _put(out, neg, np.conj(avg))
        else:
            _put(out, n, avg.real)
    return out


def restrict_per_key(tp, radius):
    out = {}
    dropped = 0.0
    for n, c in tp.coeffs.items():
        if max(abs(x) for x in n) <= radius:
            _put(out, n, c)
        else:
            dropped += float(np.max(np.abs(c)))
    return out, dropped


def threshold_per_key(tp, cutoff):
    out = {}
    for n, c in tp.coeffs.items():
        if np.max(np.abs(c)) > cutoff:
            _put(out, n, c)
    return out


def combine_per_key(tp, other, op):
    """tp + other (op np.add) or tp - other (np.subtract): a copy of tp,
    then op(c_n, c'_n) stored per key of other."""
    out = dict(tp.coeffs)
    for n, c in other.coeffs.items():
        _put(out, n, op(out.get(n, _zero(tp)), c))
    return out


def scale_per_key(tp, scalar):
    out = {}
    for n, c in tp.coeffs.items():
        _put(out, n, scalar * c)
    return out


def matrix_apply_per_key(tp, mat):
    mat = np.asarray(mat, dtype=complex)
    out = {}
    for n, c in tp.coeffs.items():
        _put(out, n, mat @ c)
    return out


def derivative_per_key(tp, direction):
    v = np.asarray(direction, dtype=float)
    out = {}
    for n, c in tp.coeffs.items():
        _put(out, n, (2j * np.pi * float(np.dot(n, v))) * c)
    return out


def compose_affine_per_key(tp, mat, shift=None):
    """The modes of x -> f(M x + c) summed one by one into a dict.  A
    frequency whose running sum is exactly zero before a later mode lands
    on it moves to the end here; TrigPoly.compose_affine keeps it where it
    was first reached."""
    mt = np.asarray(mat, dtype=np.int64)
    c_shift = np.zeros(tp.dim_domain) if shift is None else \
        np.asarray(shift, dtype=float)
    out = {}
    for n, c in tp.coeffs.items():
        n_arr = np.array(n, dtype=np.int64)
        new_n = tuple(int(x) for x in (mt.T @ n_arr))
        phase = np.exp(2j * np.pi * float(np.dot(n_arr, c_shift)))
        _put(out, new_n, out.get(new_n, _zero(tp)) + phase * c)
    return out


def c0_upper_per_key(tp):
    if not tp.coeffs:
        return 0.0
    total = np.zeros(tp.dim_range)
    for c in tp.coeffs.values():
        total += np.abs(c)
    return float(np.max(total))


def to_grid_per_key(tp, grid_n):
    """Grid values of tp, each mode added at its aliased bin in turn."""
    d = tp.dim_domain
    arr = np.zeros((grid_n,) * d + (tp.dim_range,), dtype=complex)
    for n, c in tp.coeffs.items():
        idx = tuple(x % grid_n for x in n)
        arr[idx] += c
    return np.fft.ifftn(arr, axes=tuple(range(d))) * (grid_n ** d)


def grid_sup_all_columns(tp, grid_n):
    """grid_sup with every range component on one grid: the rank reduction
    of exactalg.column_reduce, then all m columns through to_grid_per_key
    at once and one max over the whole grid."""
    d, m = tp.dim_domain, tp.dim_range
    u, r = exactalg.column_reduce(tp.modes()[0].tolist(), d)
    if r == 0:
        vals = tp[(0,) * d][None, :]
    else:
        g = tp if r == d else tp.compose_affine(u)
        vals = to_grid_per_key(
            TrigPoly.from_arrays(r, m, g.freqs[:, :r], g.coefs), grid_n)
    return np.max(np.abs(vals.real)) if tp.is_real(1e-9) else \
        np.max(np.abs(vals))


def load_grid(path):
    """Read back the text format of torusfn.save_grid: one JSON header
    line, then one sample row per line."""
    import json
    with open(path) as fh:
        header = json.loads(fh.readline())
        rows = [line.split() for line in fh if line.strip()]
    d, m, n = header["dim_domain"], header["dim_range"], header["grid_n"]
    data = np.array(rows, dtype=float)
    if header["complex"]:
        vals = data[:, 0::2] + 1j * data[:, 1::2]
    else:
        vals = data
    return GridFunction(vals.reshape((n,) * d + (m,)))


def weierstrass_type(alpha, base=3, terms=30):
    """Self-similar profile sum_k base^(-alpha k) sin(2 pi base^k x).

    Classical lacunary series with Holder exponent alpha by construction
    (matched amplitude/frequency base); the standard test family for the
    exponent estimator.
    """
    def fn(points):
        pts = np.asarray(points, dtype=float)
        x = pts[..., 0] if pts.ndim > 1 else pts
        out = np.zeros_like(x)
        for k in range(terms):
            out += base ** (-alpha * k) * np.sin(
                2.0 * np.pi * (base ** k) * x)
        return out[..., None]
    return fn


# ---------------------------------------------------------------------------
# The twisted equation with every frequency keyed by a dict of tuples
# ---------------------------------------------------------------------------

def _sup(n):
    return max(abs(x) for x in n)


def solve_linearized_dict_keyed(automorphism, q, radius=None,
                                extended_radius=None, drop_tol=1e-17):
    """twisted.solve_linearized with Python-int frequencies stepped one
    power at a time, a dict from frequency tuples to accumulator rows, h
    and the annulus filled one key at a time, and the residual one mode at a
    time with exactalg.mat_vec (oracle only)."""
    sd = spectral.lyapunov_splitting(automorphism)
    d = automorphism.dim
    radius = radius or max(q.support_radius, 1)
    f_prime = extended_radius or 4 * radius

    lt = [list(r) for r in zip(*automorphism.entries)]
    lti = exactalg.inverse_unimodular(lt)
    w, du = sd.basis_full, sd.unstable_dim
    sigma = max(sd.unstable_norm.contraction, sd.stable_norm.contraction)

    qmap = {n: c for n, c in q.coeffs.items() if any(n)}
    q_arr = np.array(list(qmap.values()), dtype=complex).reshape(-1, d)
    q_scale = float(np.max(np.abs(q_arr), initial=0.0))

    lmat = automorphism.as_array()
    q0 = q[(0,) * d]
    h0 = np.linalg.solve(lmat - np.eye(d), q0)
    zero_res = float(np.max(np.abs((lmat - np.eye(d)) @ h0 - q0)))

    support = np.array(list(qmap), dtype=object).reshape(-1, d)
    l_int = np.array(automorphism.entries, dtype=object)
    li_int = np.array(lti, dtype=object).T
    au = np.linalg.inv(sd.restricted_unstable())
    q_split = q_arr @ sd.basis_full_inv.T
    index, rows, blocks = {}, [], [np.zeros((0, d), dtype=complex)]
    for freqs, step, factor, power, cols in (
            (support, l_int, au, au, slice(None, du)),
            (support @ li_int, li_int, sd.restricted_stable(),
             -np.eye(d - du), slice(du, None))):
        while np.linalg.norm(power, 2) * q_scale >= drop_tol:
            blocks.append(q_split[:, cols] @ (w[:, cols] @ power).T)
            rows += [index.setdefault(n, len(index))
                     for n in map(tuple, freqs.tolist())]
            freqs = freqs @ step
            power = factor @ power
    acc = np.zeros((len(index), d), dtype=complex)
    np.add.at(acc, rows, np.concatenate(blocks))
    peak = np.abs(acc).max(axis=1, initial=0.0)
    kept = np.flatnonzero(peak >= drop_tol / 10)
    keys = list(index)
    values = {keys[i]: acc[i] for i in kept.tolist()}

    h, annulus = {}, {}
    _put(h, (0,) * d, h0)
    beyond_f, beyond_fp = [], []
    for (n, c), top in zip(values.items(), peak[kept].tolist()):
        s = _sup(n)
        if s <= radius:
            _put(h, n, c)
            continue
        if s <= f_prime:
            _put(annulus, n, c)
        else:
            beyond_fp.append(top)
        beyond_f.append(top)
    h, annulus = TrigPoly(d, d, h), TrigPoly(d, d, annulus)
    dropped_f, dropped_fp = math.fsum(beyond_f), math.fsum(beyond_fp)
    tail_geo = q_scale * (sigma / max(1.0 - sigma, 1e-9)) * \
        sigma ** max(f_prime // max(radius, 1), 1)
    tail_bound = dropped_fp + len(qmap) * drop_tol / max(1 - sigma, 1e-9) \
        + tail_geo

    def coeff_at(nn):
        if nn == (0,) * d:
            return h0.astype(complex)
        return values.get(nn, np.zeros(d, dtype=complex))

    res_max = zero_res
    for n in list(h.coeffs) + list(qmap):
        if not any(n) or _sup(n) > radius:
            continue
        pred = tuple(exactalg.mat_vec(lti, n))
        r = lmat @ coeff_at(n) - coeff_at(pred) - \
            np.asarray(qmap.get(n, np.zeros(d, dtype=complex)))
        res_max = max(res_max, float(np.max(np.abs(r))))

    return twisted.LinearizedSolution(
        h=TrigPoly(d, d, symmetrize_real_per_key(h))
        if is_real_per_key(q, 1e-12) else h,
        annulus=annulus, radius=radius, extended_radius=f_prime,
        residual_max=res_max, dropped_beyond_f=dropped_f,
        dropped_beyond_fprime=dropped_fp, tail_bound=tail_bound,
        zero_mode_residual=zero_res)


# ---------------------------------------------------------------------------
# LLL with Gram-Schmidt recomputed over Fractions
# ---------------------------------------------------------------------------

def lll_reduce_fraction(rows, delta=Fraction(3, 4)):
    """LLL-reduce integer basis rows, recomputing all of Gram-Schmidt over
    Fractions after every size reduction (textbook; oracle only)."""
    b = [[int(x) for x in r] for r in rows]
    n = len(b)
    if n <= 1:
        return b

    def gram_schmidt():
        star = []
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            s = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    continue
                mu[i][j] = sum(Fraction(b[i][t]) * star[j][t]
                               for t in range(len(s))) / norms[j]
                s = [s[t] - mu[i][j] * star[j][t] for t in range(len(s))]
            star.append(s)
            norms.append(sum(x * x for x in s))
        return mu, norms

    k = 1
    while k < n:
        mu, norms = gram_schmidt()
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = round(mu[k][j])
                b[k] = [b[k][t] - r * b[j][t] for t in range(len(b[k]))]
                mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            k = max(k - 1, 1)
    return b


# ---------------------------------------------------------------------------
# Periodic-point seeds by enumerating a bounding box
# ---------------------------------------------------------------------------

def periodic_seeds_loop(lni, det):
    """maps._periodic_seeds one coset representative k' at a time, in
    Python integers: the k as tuples and the seeds as lists of floats,
    sorted by k (oracle only)."""
    d = len(lni)
    adj = [[int(c * det) for c in row]
           for row in exactalg.inverse_fraction(lni)]
    tri = exactalg.mat_mul(lni, exactalg.column_reduce(lni, d)[0])
    found = []
    for kp in itertools.product(*(range(abs(tri[i][i])) for i in range(d))):
        y = [sum(a * v for a, v in zip(row, kp)) for row in adj]
        fl = [v // det for v in y]
        k = tuple(kp[i] - sum(lni[i][j] * fl[j] for j in range(d))
                  for i in range(d))
        found.append((k, [(v - det * f) / det for v, f in zip(y, fl)]))
    found.sort()
    return [k for k, _ in found], [x for _, x in found]


def periodic_seeds_box(lni):
    """The integer k with x = A^-1 k in [0,1)^d, A = lni = L^n - I, and
    their x as floats: every integer point of the bounding box of
    A [0,1]^d is tested exactly (oracle only).  Memory grows like the box,
    so a box of more than 2 10^5 points raises ValueError."""
    d = len(lni)
    lni_inv = exactalg.inverse_fraction(lni)
    corners = np.array(np.meshgrid(*[[0, 1]] * d, indexing="ij"),
                       dtype=float).reshape(d, -1).T
    image = corners @ np.array(lni, dtype=float).T
    lo = np.floor(image.min(axis=0)).astype(int)
    hi = np.ceil(image.max(axis=0)).astype(int)
    if np.prod((hi - lo + 1).astype(float)) > 2e5:
        raise ValueError("bounding box too large for the oracle")
    grids = np.meshgrid(*[np.arange(lo[i], hi[i] + 1) for i in range(d)],
                        indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=-1)
    inv_float = np.array([[float(x) for x in row] for row in lni_inv])
    seeds_float = ks @ inv_float.T
    near = np.all((seeds_float > -1e-9) & (seeds_float < 1 + 1e-9), axis=1)
    kept_k, seeds = [], []
    for k in ks[near]:
        x = [sum(lni_inv[i][j] * int(k[j]) for j in range(d))
             for i in range(d)]
        if all(Fraction(0) <= xi < Fraction(1) for xi in x):
            kept_k.append(tuple(int(v) for v in k))
            seeds.append([float(xi) for xi in x])
    return kept_k, seeds


# ---------------------------------------------------------------------------
# Periodic orbits one seed at a time, QR exponents one step at a time
# ---------------------------------------------------------------------------

def small_perturbation(d, rng, n=1, max_points=300, eps=1e-3):
    """L + R with L drawn by random_unimodular until it is hyperbolic with
    at most max_points points of period n, and R two sin and cos pairs of
    size eps."""
    while True:
        base = spectral.random_unimodular(d, steps=4 * d, rng=rng,
                                          entry_cap=4)
        try:
            spectral.lyapunov_splitting(base)
        except NotHyperbolic:
            continue
        ln = base.power(n).rows()
        if abs(exactalg.det_bareiss([[ln[i][j] - (i == j) for j in range(d)]
                                     for i in range(d)])) <= max_points:
            break
    disp = TrigPoly.zero(d, d)
    for _ in range(2):
        freq = rng.integers(-2, 3, size=d)
        freq[0] += not freq.any()
        amp = eps * rng.uniform(-1, 1, size=d)
        disp = disp + TrigPoly.sin_mode(freq, amp) + \
            TrigPoly.cos_mode(rng.permutation(freq), amp[::-1])
    return maps.PerturbedMap(base, disp, warn=False)


def conformal_bundles(base):
    """True when L's eigenvalues on E^u share one modulus, and so do its
    eigenvalues on E^s.  Only then is h Lipschitz down to rounding scale.
    Otherwise h is Holder with exponent log|mu_min| / log|mu_max| over
    the bundle, below 1.  Two walks from points a rounding apart then
    differ by far more than the solve's tolerance: at 1e-16 apart, 1.6e-6
    with unstable moduli 1.46 and 8.54, and 1.8e-9 with stable moduli 0.26
    and 0.58."""
    mods = np.abs(np.linalg.eigvals(base.as_array()))
    return all(np.ptp(m) <= 1e-9 * np.max(m)
               for m in (mods[mods > 1], mods[mods < 1]))


def periodic_points_per_seed(f, n, newton_tol=1e-12, dedupe_tol=1e-8,
                             max_iter=60):
    """maps.periodic_points with each converged seed's orbit walked by
    single-point f.apply, its minimal period and dedupe key found by a
    scan of that orbit, and its D_p f^period by single-point f.jacobian
    (oracle only)."""
    d = f.dim
    ln = f.base.power(n).rows()
    lni = [[ln[i][j] - (1 if i == j else 0) for j in range(d)]
           for i in range(d)]
    expected = abs(exactalg.det_bareiss(lni))
    kept_k, seeds = maps._periodic_seeds(lni, expected)
    x = np.array(seeds, dtype=float)
    kv = np.array(kept_k, dtype=float)
    failures = 0
    iterations = 0
    for _ in range(max_iter):
        y = x.copy()
        prod = np.broadcast_to(np.eye(d), (len(x), d, d)).copy()
        for _step in range(n):
            prod = f.jacobian(y) @ prod
            y = f.apply_lift(y)
        res = y - x - kv
        if np.max(np.abs(res)) < newton_tol:
            break
        x = x - maps._newton_step((prod - np.eye(d)).transpose(1, 2, 0),
                                  res.T).T
        iterations += 1
    y = x.copy()
    for _step in range(n):
        y = f.apply_lift(y)
    res = np.linalg.norm(y - x - kv, axis=1)

    orbits = {}
    count = 0
    for i in range(len(x)):
        if res[i] > 100 * newton_tol:
            failures += 1
            continue
        p = _mod1(x[i])
        orbit_pts = [p]
        for _ in range(n - 1):
            orbit_pts.append(f.apply(orbit_pts[-1]))
        period = n
        for m in range(1, n):
            if n % m == 0:
                dd = orbit_pts[m] - p
                dd -= np.round(dd)
                if np.max(np.abs(dd)) < dedupe_tol:
                    period = m
                    break
        cycle = orbit_pts[:period]
        key = min(tuple(_mod1(np.round(_mod1(q), 8))) for q in cycle)
        if key in orbits:
            continue
        dp = np.eye(d)
        q = p.copy()
        for _ in range(period):
            dp = f.jacobian(q) @ dp
            q = f.apply(q)
        orbits[key] = maps.PeriodicOrbit(
            period=period, points=np.array(cycle), residual=float(res[i]),
            k_vector=tuple(int(v) for v in kv[i]), deriv_product=dp)
        count += period
    return maps.PeriodicSearch(
        orbits=sorted(orbits.values(), key=lambda o: tuple(o.points[0])),
        point_count=count, expected_count=expected,
        newton_failures=failures, period=n, newton_iterations=iterations)


def lyapunov_batch_per_step(spec, xs, n):
    """cocycles._lyapunov_batch with one generator call, one QR and one
    running sum per step (oracle only)."""
    s_count, m = xs.shape[0], spec.m
    q = np.broadcast_to(np.eye(m), (s_count, m, m)).copy()
    sums = np.zeros((s_count, m))
    tail = np.zeros((s_count, m))
    logdet = np.zeros(s_count)
    tail_start = n // 2
    y = xs.copy()
    for k in range(n):
        a = spec.generator(y)
        q, r = cocycles._qr_positive(a @ q)
        diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
        if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
            raise LostOrthogonality(f"degenerate QR frame at step {k}")
        steps = np.log(diag)
        sums += steps
        if k >= tail_start:
            tail += steps
        logdet += np.log(np.abs(np.linalg.det(a)))
        y = spec.f.apply(y)
    full = np.sort(sums / n, axis=1)
    refined = np.sort(tail / max(n - tail_start, 1), axis=1)
    osc = float(np.max(np.abs(full - refined)))
    det = np.abs(full.sum(axis=1) - logdet / n)
    return {"exps": refined, "full": full, "osc": osc, "det": det}


# ---------------------------------------------------------------------------
# Diagnostics one piece at a time: psi on row-major points, periodic
# exponents one orbit at a time, save_grid one row at a time
# ---------------------------------------------------------------------------

def skew_series_rows(psi, points):
    """conjugacy.SkewSeries.__call__ with y walked as (P, 2) rows and a new
    array per step (oracle only)."""
    pts = np.asarray(points, dtype=float)
    y = _mod1(pts.reshape(-1, 2))
    acc = np.zeros(y.shape[0])
    coef = 1.0 / psi.lam
    for _ in range(psi.terms):
        acc += coef * psi.phi.eval_real(y)[:, 0]
        y = _mod1(y @ psi.b_mat.T)
        coef /= psi.lam
    return acc.reshape(pts.shape[:-1])


def periodic_diagnostics_per_orbit(spec, orbits, reference):
    """cocycles.periodic_diagnostics one orbit at a time: for each orbit its
    product, the exponents from eigvals and det of that one matrix, and
    conformality_check of it (oracle only)."""
    out = []
    for orbit in orbits:
        prod = cocycles._periodic_product(spec, orbit)
        eig = np.linalg.eigvals(prod)
        exps = np.sort(np.log(np.abs(eig)) / orbit.period)
        logdet = np.log(abs(np.linalg.det(prod))) / orbit.period
        rep = cocycles.ExponentReport(
            exponents=exps, n=orbit.period, oscillation=0.0,
            det_consistency=float(abs(exps.sum() - logdet)))
        if reference is not None:
            rep.compare(reference)
        out.append((rep, cocycles.conformality_check(prod)))
    return out


def save_grid_rows(gf, path, extra_header=None):
    """torusfn.save_grid with one f-string per value and one write per row
    (oracle only)."""
    import json
    header = {"dim_domain": gf.dim_domain, "dim_range": gf.dim_range,
              "grid_n": gf.grid_n, "interpolation": "trig",
              "convention": "samples at k/N, row-major",
              "complex": bool(np.iscomplexobj(gf.values))}
    if extra_header:
        header.update(extra_header)
    flat = gf.values.reshape(-1, gf.dim_range)
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for row in flat:
            if header["complex"]:
                fh.write(" ".join(f"{v.real:.17g} {v.imag:.17g}"
                                  for v in row) + "\n")
            else:
                fh.write(" ".join(f"{float(v):.17g}" for v in row) + "\n")
