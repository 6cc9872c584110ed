"""The conjugacy H = Id + h between L and a perturbation f = L + R.

h is the unique bounded solution of the twisted equation
L h - h o f = R.  The solver splits it along the invariant splitting of
L and accumulates the two convergent one-sided sums:

    h^u(x) =   sum_k  L_u^-(k+1) R^u(f^k x)          (unstable part)
    h^s(x) = - sum_k  L_s^k      R^s(f^-(k+1) x)      (stable part)

which is the alternating unstable/stable contraction sweep unrolled from
h_0 = 0; each added term is one sweep, and successive-difference norms,
contraction factors, and a geometric tail estimate are reported.  The
estimate is the last term's norm at the grid points times sigma/(1-sigma),
not a bound computed from the coefficients of R.
The sums are taken pointwise along orbits, so h is evaluated off the grid
at full accuracy, which grid interpolation of a merely Holder h cannot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from . import exactalg
from .errors import NoContraction, OrderViolation, ToleranceNotReached
from .maps import (PerturbedMap, fixed_point_near_zero, max_norm2,
                   periodic_points)
from .spectral import IntegerAutomorphism, lyapunov_splitting
from .torusfn import (GridFunction, TrigPoly, _mod1, estimate_holder,
                      sobolev_norm, uniform_grid)

MAX_TERMS = 400     # orbit-series sweeps before ToleranceNotReached
JACOBIAN_SAMPLE_N = 48  # jacobian_dh's sample points per axis, at most


@dataclass
class ConjugacyResult:
    """H = Id + h on the solve grid, its evaluator, and solve telemetry.

    tail_bound is an estimate (see solve_conjugacy).  The residual
    consistency check at other points is residual_check.
    """

    f: object
    h_grid: GridFunction
    grid_n: int
    tol: float
    n_terms: int
    tail_bound: float
    contraction_u: float
    contraction_s: float
    anchor_point: np.ndarray
    anchor_shift: np.ndarray
    anchor_residual: float
    telemetry: dict
    h_c0: float
    _evaluator: object = field(default=None, repr=False)
    _jacobian_report: object = field(default=None, repr=False)

    @cached_property
    def h_trig(self):
        """h_grid's Fourier coefficients above 1e-13, made exactly real by
        symmetrize_real and formed on first read: the evaluator of Dh off
        the grid, in real arithmetic.  The FFT keeps each Nyquist row
        n_i = -N/2 without a +N/2 partner; Re(c e^{-i t}) equals the
        symmetrized (c e^{-i t} + conj(c) e^{i t}) / 2, so the real
        polynomial is the .real of the raw one."""
        return self.h_grid.to_trig(threshold=1e-13).symmetrize_real()

    def dh_rows(self, points):
        """Dh at points of shape (..., d) from h_trig, flattened to
        (..., d * d): the function holder_dh samples."""
        pts = np.asarray(points)
        return self.h_trig.eval_jacobian(pts).reshape(
            pts.shape[:-1] + (self.f.dim ** 2,))

    @cached_property
    def holder_dh(self):
        """The one Holder fit of Dh, formed on first read: dh_rows at 5000
        pairs from seed 2, down to scale 2^-max(8, log2 N - 1)."""
        return estimate_holder(self.dh_rows, dim=self.f.dim, pairs=5000,
                               seed=2,
                               j_max=max(8, int(np.log2(self.grid_n)) - 1))

    @cached_property
    def dh_grid(self):
        """Dh at the grid points, shape grid + (d, d), from h_grid's
        spectral Jacobian, formed on first read."""
        return self.h_grid.jacobian_grid()

    @cached_property
    def dh_c0(self):
        """max over the grid of ||Dh||_2."""
        return max_norm2(self.dh_grid)

    def evaluate_h(self, points):
        return self._evaluator(np.asarray(points, dtype=float))

    def evaluate(self, points):
        pts = np.asarray(points, dtype=float)
        return pts + self.evaluate_h(pts)

    def summary(self):
        return {
            "grid_n": self.grid_n, "tol": self.tol, "n_terms": self.n_terms,
            "tail_bound": self.tail_bound,
            "contraction": [self.contraction_u, self.contraction_s],
            "anchor_point": list(map(float, self.anchor_point)),
            "anchor_residual": self.anchor_residual,
            "h_c0": self.h_c0, "dh_c0": self.dh_c0, "mode": "orbit",
        }


class _OrbitSeries:
    """The two one-sided sums of h, walked along forward and backward orbits.

    `_walk` is the one walk.  The grid solve consumes its `terms` until its
    stopping rule holds, a call at other points consumes `n_terms` of them,
    and `with_image` reads h(x) and h(f x) off one walk from x.  Points,
    terms and sums are component-major, one contiguous row per coordinate,
    and `combine` transposes h back to rows of points.
    """

    def __init__(self, f):
        self.f = f
        sd = f.spec
        self.w = sd.basis_full
        self.w_inv = sd.basis_full_inv
        self.du = sd.unstable_dim
        self.au = sd.restricted_unstable_inv
        self.als = sd.restricted_stable()
        self.n_terms = None          # set by the grid solve
        self.shift = np.zeros(f.dim)  # set by the anchor normalization

    def _walk(self, points):
        """Yield R(x), R(f^-1 x), R(f x), R(f^-2 x), R(f^2 x), ... at the
        points x, in splitting coordinates: the forward and backward orbits
        alternately, each point computed when its value is asked for.

        Component-major: points is (d, P) and so is every yielded array.
        f takes rows, so the walk hands it the (P, d) transposes and takes
        back the transposes of what it returns: views, no copies.  R is
        evaluated once per orbit point: f(y) is formed from R(y), and the
        Newton inverse returns R at the point it returns.
        """
        f = self.f
        y = z = points
        while True:
            y, r_y = (a.T for a in f.apply_with_displacement(y.T))
            yield self.w_inv @ r_y
            z, r_z = (a.T for a in f.invert(z.T))
            yield self.w_inv @ r_z

    def terms(self, points):
        """Yield the k-th unstable and stable terms at points, k = 0, 1, ...

        In splitting coordinates: L_u^-(k+1) R^u(f^k x) and
        L_s^k R^s(f^-(k+1) x), as (du, P) and (d - du, P) rows for (d, P)
        points.  Term k takes the walk to f^k x forward and f^-(k+1) x
        backward.
        """
        du = self.du
        walk = self._walk(points)
        mu = self.au.copy()
        ms = np.eye(self.f.dim - du)
        for r_fwd in walk:
            yield mu @ r_fwd[:du], ms @ next(walk)[du:]
            mu = self.au @ mu
            ms = self.als @ ms

    def _rows(self, points):
        """Points of shape (..., d) reduced mod 1, as their (d, P)
        transpose."""
        return _mod1(np.asarray(points, dtype=float)
                     .reshape(-1, self.f.dim).T)

    def with_image(self, points):
        """h(x) and h(f x) from one walk of n_terms + 1 forward and n_terms
        backward points of x.

        The forward points of f x are those of x after the first, and the
        backward points of f x are x and those of x before the last.  So
        R(f^j x) enters h(x) with L_u^-(j+1) for j < N and h(f x) with
        L_u^-j for j >= 1, and R(f^-j x) enters h(x) with L_s^(j-1) for
        j >= 1 and h(f x) with L_s^j for j < N (N = n_terms).  h(x) is
        summed in the order of __call__, so it is evaluate_h(x) bit for
        bit; h(f x) differs from evaluate_h(f x) by the rounding of the
        Newton inverse that a walk from f x would take back to x.
        """
        shape = np.shape(points)
        rows = self._rows(points)
        du, n = self.du, self.n_terms
        walk = self._walk(rows)
        r_fwd = next(walk)                       # R(x)
        hx_u = np.zeros((du, rows.shape[1]))
        hx_s = np.zeros((self.f.dim - du, rows.shape[1]))
        hf_u = np.zeros_like(hx_u)
        hf_s = -r_fwd[du:]                       # L_s^0 R^s(x)
        mu = self.au.copy()                      # L_u^-(k+1)
        ms = np.eye(self.f.dim - du)             # L_s^k
        for k in range(n):
            hx_u += mu @ r_fwd[:du]
            r_bwd = next(walk)                   # R(f^-(k+1) x)
            hx_s -= ms @ r_bwd[du:]
            r_fwd = next(walk)                   # R(f^(k+1) x)
            hf_u += mu @ r_fwd[:du]
            ms = self.als @ ms
            if k + 1 < n:
                hf_s -= ms @ r_bwd[du:]
            mu = self.au @ mu
        return (self.combine(hx_u, hx_s).reshape(shape),
                self.combine(hf_u, hf_s).reshape(shape))

    def combine(self, acc_u, acc_s):
        """h as (P, d) rows of points from the accumulated (du, P) and
        (d - du, P) coordinates of its two parts: the one transpose back
        from component-major."""
        return np.concatenate([acc_u, acc_s]).T @ self.w.T - self.shift

    def __call__(self, points):
        rows = self._rows(points)
        acc_u = np.zeros((self.du, rows.shape[1]))
        acc_s = np.zeros((self.f.dim - self.du, rows.shape[1]))
        for term_u, term_s in islice(self.terms(rows), self.n_terms):
            acc_u += term_u
            acc_s -= term_s
        return self.combine(acc_u, acc_s).reshape(np.shape(points))


def solve_conjugacy(f: PerturbedMap, tol=1e-10, grid_n=256):
    """Solve L o H = H o f for H = Id + h close to the identity.

    Returns a ConjugacyResult whose h is sampled on an N^d grid and whose
    evaluator gives h at arbitrary points from the same number of series
    terms.  The tail is estimated as the last term's sup over the grid
    points times sigma/(1-sigma): an estimate, not a certified bound at
    arbitrary points.  h is normalized so that H(p) is the L-fixed point
    nearest p, for the f-fixed point p near 0 (anchor_residual is the
    distance left).  The residual at other points is residual_check's.
    Raises NoContraction if rounding puts L's adapted contraction factor
    at or above 1, which its Stein-equation norms rule out for every
    hyperbolic L.
    """
    sd = f.spec
    sigma_u = sd.unstable_norm.contraction
    sigma_s = sd.stable_norm.contraction
    sigma = max(sigma_u, sigma_s)
    if sigma >= 1.0:
        raise NoContraction(f"adapted contraction factor {sigma:.4f} >= 1")

    d = f.dim
    grid = uniform_grid(d, grid_n)
    du = sd.unstable_dim
    chol_u = sd.unstable_norm.chol
    chol_s = sd.stable_norm.chol

    evaluator = _OrbitSeries(f)
    acc_u = np.zeros((du, grid.shape[0]))
    acc_s = np.zeros((d - du, grid.shape[0]))
    term_norms_u, term_norms_s = [], []
    stop_at = tol * (1.0 - sigma) / (2.0 * max(sigma, 1e-6))
    # the walk reads the grid's transpose, a view: no second copy of it
    for k, (term_u, term_s) in enumerate(
            islice(evaluator.terms(grid.T), MAX_TERMS)):
        acc_u += term_u
        acc_s -= term_s
        tn_u = float(np.max(np.linalg.norm(chol_u @ term_u, axis=0))) \
            if du else 0.0
        tn_s = float(np.max(np.linalg.norm(chol_s @ term_s, axis=0))) \
            if d - du else 0.0
        term_norms_u.append(tn_u)
        term_norms_s.append(tn_s)
        if max(tn_u, tn_s) < stop_at and k >= 2:
            evaluator.n_terms = k + 1
            break
    else:
        raise ToleranceNotReached(
            f"term norms {max(term_norms_u[-1], term_norms_s[-1]):.2e} "
            f"after {MAX_TERMS} sweeps (target {stop_at:.2e})")
    tail = max(term_norms_u[-1], term_norms_s[-1]) * sigma / (1.0 - sigma)

    # normalization: H(p) must be the L-fixed point nearest p (usually 0)
    anchor_pt = fixed_point_near_zero(f)
    h_anchor = evaluator(anchor_pt)
    hp = anchor_pt + h_anchor
    lmat = f.base.as_array()
    k_int = np.round((lmat - np.eye(d)) @ hp)
    rows = [[f.base.rows()[i][j] - (1 if i == j else 0)
             for j in range(d)] for i in range(d)]
    q = exactalg.solve_fraction(rows, [int(x) for x in k_int])
    # q is only defined mod Z^d; an integer part adds (L - I) q to h
    shift = np.array([float(x - round(x)) for x in q])
    evaluator.shift = shift
    # combine subtracts the shift last: h_anchor - shift is, bit for bit,
    # what a second walk would now give
    hp_new = anchor_pt + (h_anchor - shift)
    anchor_res = float(np.max(np.abs(hp_new - np.round(hp_new))))
    h_vals = evaluator.combine(acc_u, acc_s)

    h_grid = GridFunction(h_vals.reshape((grid_n,) * d + (d,)))
    return ConjugacyResult(
        f=f, h_grid=h_grid, grid_n=grid_n, tol=tol, n_terms=evaluator.n_terms,
        tail_bound=float(tail), contraction_u=float(sigma_u),
        contraction_s=float(sigma_s), anchor_point=anchor_pt,
        anchor_shift=shift, anchor_residual=anchor_res,
        telemetry={"term_norms_unstable": term_norms_u,
                   "term_norms_stable": term_norms_s,
                   "stop_threshold": stop_at},
        h_c0=float(np.max(np.abs(h_vals))),
        _evaluator=evaluator)


def residual_check(result: ConjugacyResult, samples, seed):
    """Max and mean of |L H(x) - H(f x)| over `samples` >= 1 seeded random
    points, none of them on the solver grid.

    The residual telescopes to the last terms of the two sums at x, so it
    checks that the series were summed consistently; it is not independent
    evidence for h.
    """
    if samples < 1:
        raise ValueError("residual samples must be at least 1")
    f = result.f
    points = np.random.default_rng(seed).random((samples, f.dim))
    res = _conjugacy_residual(f, result._evaluator, points)
    return {"residual_max": float(res.max()),
            "residual_mean": float(res.mean())}


def _conjugacy_residual(f, evaluator, points):
    """||L H(x) - H(f~ x)||_inf on the lift, rowwise.

    h(x) and h(f x) share one orbit walk from x (_OrbitSeries.with_image):
    f x and its forward points are the forward points of x, and the
    backward points of f x are x and the backward points of x.
    """
    lmat = f.base.as_array()
    h_x, h_fx = evaluator.with_image(points)
    lhs = (points + h_x) @ lmat.T
    rhs = f.apply_lift(points) + h_fx
    return np.max(np.abs(lhs - rhs), axis=1)


def regularity_metrics(result: ConjugacyResult):
    """Holder fits for h (10^4 seeded pairs) and Dh (the result's
    holder_dh), the W^(1,d+1) Sobolev indicator, and sup norms."""
    d = result.f.dim
    est_h = estimate_holder(result.evaluate_h, dim=d, pairs=10000, seed=1)
    return {
        "holder_h": est_h,
        "holder_dh": result.holder_dh,
        "sobolev_q": d + 1,
        "sobolev_h": sobolev_norm(result.h_grid, d + 1),
        "h_c0": result.h_c0,
        "dh_c0": result.dh_c0,
    }


def periodic_covariance(result: ConjugacyResult, n_max=3):
    """Max over found f-orbits of period 1..n_max of the distance of H(p)
    from L^n-periodicity."""
    f = result.f
    searches = [periodic_points(f, n) for n in range(1, n_max + 1)]
    powers, reps = [], []
    for s in searches:
        ln = f.base.power(s.period).as_array()
        powers += [ln] * len(s.orbits)
        reps += [o.representative for o in s.orbits]
    worst = 0.0
    if not reps:
        return worst
    # one walk takes the representatives of every orbit of every period
    reps = np.array(reps)
    for ln, q in zip(powers, reps + result.evaluate_h(reps)):
        r = ln @ q - q
        r -= np.round(r)
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


# ---------------------------------------------------------------------------
# The skew counterexample: f(x, y) = (Ax + phi(y) v, By)
# ---------------------------------------------------------------------------

def _leading_eigen(mat2):
    """Real eigenvalue of largest modulus and a unit eigenvector (2x2)."""
    (a, b), (c, dd) = mat2
    tr = a + dd
    det = a * dd - b * c
    disc = tr * tr - 4 * det
    if disc <= 0:
        raise OrderViolation("block has no real hyperbolic eigenvalue")
    root = float(np.sqrt(disc))
    lam = (tr + root) / 2 if abs(tr + root) >= abs(tr - root) else \
        (tr - root) / 2
    if abs(b) > 1e-14:
        v = np.array([b, lam - a], dtype=float)
    elif abs(c) > 1e-14:
        v = np.array([lam - dd, c], dtype=float)
    else:
        v = np.array([1.0, 0.0]) if abs(a) >= abs(dd) else \
            np.array([0.0, 1.0])
    v = v / np.linalg.norm(v)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    return float(lam), v


class SkewSeries:
    """psi(y) = lam^-1 sum_{k>=0} lam^-k phi(B^k y), truncated at `terms`.

    The dropped tail is bounded by lam^-terms * ||phi||_C0 / (lam - 1).
    Points are (..., 2) rows in and (...) values out.  The walk
    y -> B y mod 1 runs component-major on (2, P) rows, reduced mod 1 in
    place, and phi reads them through eval_real(y.T), a view.
    """

    def __init__(self, phi: TrigPoly, b_mat, lam, terms):
        self.phi = phi
        self.b_mat = np.array(b_mat, dtype=float)
        self.lam = float(lam)
        self.terms = int(terms)
        self.tail_bound = (abs(lam) ** (-terms)) * phi.c0_upper() / \
            (abs(lam) - 1.0)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        # a copy always: for one point the transposed view is contiguous,
        # and the in-place mod 1 below would reduce the caller's points
        y = np.array(pts.reshape(-1, 2).T, order="C")
        tmp = np.empty_like(y)
        y -= np.floor(y, out=tmp)
        acc = np.zeros(y.shape[1])
        coef = 1.0 / self.lam
        for k in range(self.terms):
            acc += coef * self.phi.eval_real(y.T)[:, 0]
            if k + 1 < self.terms:
                y = self.b_mat @ y
                y -= np.floor(y, out=tmp)
            coef /= self.lam
        return acc.reshape(pts.shape[:-1])


class SkewConjugacy:
    """H(x, y) = (x + psi(y) v, y)."""

    def __init__(self, psi: SkewSeries, v):
        self.psi = psi
        self.v = np.asarray(v, dtype=float)

    def evaluate_h(self, points):
        pts = np.asarray(points, dtype=float)
        vals = self.psi(pts[..., 2:])
        out = np.zeros_like(pts)
        out[..., 0] = vals * self.v[0]
        out[..., 1] = vals * self.v[1]
        return out

    def evaluate(self, points):
        return np.asarray(points, dtype=float) + self.evaluate_h(points)


@dataclass
class Counterexample:
    f: PerturbedMap
    conjugacy: SkewConjugacy
    psi: SkewSeries
    lam: float
    mu: float
    eigvec: np.ndarray
    tail_bound: float
    holder_expected: float

    def cohomological_residual(self, points2):
        """phi(y) + psi(B y) - lam psi(y), max abs over the sample."""
        y = np.asarray(points2, dtype=float)
        by = (y @ np.array(self.psi.b_mat).T)
        vals = self.f_phi.eval_real(y)[..., 0] + self.psi(by) - \
            self.lam * self.psi(y)
        return float(np.max(np.abs(vals)))

    def conjugacy_residual(self, points4):
        lmat = self.f.base.as_array()
        hx = self.conjugacy.evaluate(points4)
        lhs = hx @ lmat.T
        fx = self.f.apply_lift(np.asarray(points4, dtype=float))
        rhs = self.conjugacy.evaluate(fx)
        return float(np.max(np.abs(lhs - rhs)))

    @property
    def f_phi(self):
        return self.psi.phi


def build_counterexample(a_block, b_block, phi: TrigPoly, k_trunc=60):
    """The skew product f(x,y) = (Ax + phi(y) v, By) and its conjugacy.

    Requires mu > lam > 1 for the leading eigenvalues; the conjugacy
    H(x,y) = (x + psi(y) v, y) then solves L o H = H o f with
    psi given by the geometric series, evaluated with a certified
    truncation tail.
    """
    if not isinstance(a_block, IntegerAutomorphism):
        a_block = IntegerAutomorphism(a_block)
    if not isinstance(b_block, IntegerAutomorphism):
        b_block = IntegerAutomorphism(b_block)
    lyapunov_splitting(a_block)
    lyapunov_splitting(b_block)
    lam, v = _leading_eigen(a_block.rows())
    mu, _ = _leading_eigen(b_block.rows())
    if not (abs(mu) > abs(lam) > 1.0):
        raise OrderViolation(
            f"need mu > lam > 1, got lam={lam:.6f}, mu={mu:.6f}")
    if phi.dim_domain != 2 or phi.dim_range != 1:
        raise ValueError("phi must be a scalar function on T^2")

    from .spectral import block_diagonal
    base = block_diagonal(a_block, b_block)
    disp = TrigPoly(4, 4, {(0, 0) + n: [c[0] * v[0], c[0] * v[1], 0.0, 0.0]
                           for n, c in phi.coeffs.items()})
    f = PerturbedMap(base, disp)
    psi = SkewSeries(phi, b_block.rows(), lam, k_trunc)
    conj = SkewConjugacy(psi, v)
    return Counterexample(f=f, conjugacy=conj, psi=psi, lam=lam, mu=float(mu),
                          eigvec=v, tail_bound=psi.tail_bound,
                          holder_expected=float(np.log(abs(lam)) /
                                                np.log(abs(mu))))


# ---------------------------------------------------------------------------
# Jacobian diagnostics
# ---------------------------------------------------------------------------

@dataclass
class JacobianReport:
    grid_n: int
    sample_n: int
    residual_eq: float      # max |L DH(x) - DH(f x) Df(x)| over the sample
    min_det: float          # min |det DH| on the grid


def jacobian_dh(result: ConjugacyResult):
    """DH = I + Dh by spectral differentiation, with the residual of the
    linearized equation L DH = (DH o f) Df on a subsampled point set and
    the invertibility indicator min |det DH|.

    The sample is every stride-th grid point along each axis, stride =
    N // min(JACOBIAN_SAMPLE_N, N).  The report is kept on the result: the
    regularity scan and dh_as_cocycle_conjugacy share it.
    """
    if result._jacobian_report is not None:
        return result._jacobian_report
    f, n, d = result.f, result.grid_n, result.f.dim
    eye, lmat = np.eye(d), f.base.as_array()
    det = np.linalg.det(eye + result.dh_grid.reshape(-1, d, d))
    sample = (slice(None, None, n // min(JACOBIAN_SAMPLE_N, n)),) * d
    pts = uniform_grid(d, n).reshape((n,) * d + (d,))[sample].reshape(-1, d)
    dh_pts = result.dh_grid[sample].reshape(-1, d, d)
    dh_fx = result.h_trig.eval_jacobian(f.apply(pts))
    resid = lmat @ (eye + dh_pts) - (eye + dh_fx) @ f.jacobian(pts)
    result._jacobian_report = JacobianReport(
        grid_n=n, sample_n=len(pts), residual_eq=float(np.max(np.abs(resid))),
        min_det=float(np.min(np.abs(det))))
    return result._jacobian_report
