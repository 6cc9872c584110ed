"""Fourier-space solution of L h' - h' o L = Q and one KAM-style step.

In frequencies the equation decouples along orbits of the dual action
n -> L^T n: with c_m the coefficient of h' at m,

    L c_m - c_{(L^T)^-1 m} = Q_m.

The zero mode is (L - I)^-1 Q_0.  The equation is linear, so the
bounded solution is a superposition: each nonzero mode s of Q spreads
along its own dual orbit as a one-sided geometric sum per Lyapunov
component of the twist, forward in L_u^-1 on the expanding side and
backward in L_s on the contracting side (de la Llave, Marco & Moriyon,
Ann. of Math. 123, 1986).  All modes step together, each side until its
matrix power times max|Q_s| falls below a drop tolerance.  Coefficients
are retained inside the ball |n| <= F, and everything dropped is
reported with a certified geometric tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exactalg
from .conjugacy import solve_conjugacy
from .errors import InvalidInput, ToleranceNotReached, TruncationInsufficient
from .maps import PerturbedMap, max_norm2
from .spectral import lyapunov_splitting
from .torusfn import GridFunction, TrigPoly, _mod1, _row_keys, uniform_grid

DROP_TOL = 1e-17    # a dual-orbit walk stops below this coefficient size
MAX_WALK = 2000     # dual_orbit_decomposition's cap on one walk's steps


def _sup(n):
    return max(abs(x) for x in n)


@dataclass
class DualOrbitDecomposition:
    """Partition of the ball |n| <= F (n != 0) into dual-orbit segments.

    Each segment lists consecutive frequencies under n -> L^T n, extended
    in both directions until the orbit leaves the ball |n| <= F'.
    """
    radius: int
    extended_radius: int
    segments: list

    def segment_count(self):
        return len(self.segments)

    def as_dict(self):
        return {"radius": self.radius,
                "extended_radius": self.extended_radius,
                "segments": [[list(n) for n in seg] for seg in self.segments]}


def dual_orbit_decomposition(automorphism, radius, extended_radius=None):
    """Walk the dual action over the frequency ball; verifies no cycles.

    A picture of the orbit structure; solve_linearized does not use it.
    """
    f_prime = extended_radius or 4 * radius
    lt = [list(r) for r in zip(*automorphism.entries)]
    lti = exactalg.inverse_unimodular(lt)
    d = automorphism.dim

    ball = []
    ranges = [range(-radius, radius + 1)] * d
    import itertools
    for n in itertools.product(*ranges):
        if any(n):
            ball.append(n)
    ball.sort()

    visited = set()
    segments = []
    for seed in ball:
        if seed in visited:
            continue
        back = []
        cur = tuple(exactalg.mat_vec(lti, seed))
        steps = 0
        seen_walk = {seed}
        while _sup(cur) <= f_prime:
            if cur in seen_walk:
                raise ArithmeticError("dual action has a finite cycle; "
                                      "the automorphism is not hyperbolic")
            seen_walk.add(cur)
            back.append(cur)
            cur = tuple(exactalg.mat_vec(lti, cur))
            steps += 1
            if steps > MAX_WALK:
                raise ArithmeticError("dual orbit walk exceeded the cap")
        fwd = [seed]
        cur = tuple(exactalg.mat_vec(lt, seed))
        steps = 0
        while _sup(cur) <= f_prime:
            if cur in seen_walk:
                raise ArithmeticError("dual action has a finite cycle; "
                                      "the automorphism is not hyperbolic")
            seen_walk.add(cur)
            fwd.append(cur)
            cur = tuple(exactalg.mat_vec(lt, cur))
            steps += 1
            if steps > MAX_WALK:
                raise ArithmeticError("dual orbit walk exceeded the cap")
        seg = back[::-1] + fwd
        segments.append(seg)
        visited.update(seg)
    return DualOrbitDecomposition(radius=radius, extended_radius=f_prime,
                                  segments=segments)


@dataclass
class LinearizedSolution:
    h: TrigPoly                # retained: support in the ball |n| <= F
    annulus: TrigPoly          # tracked coefficients with F < |n| <= F'
    radius: int
    extended_radius: int
    residual_max: float        # per-coefficient residual over retained modes
    dropped_beyond_f: float    # observed coefficient mass outside ball F
    dropped_beyond_fprime: float
    tail_bound: float          # geometric bound on everything never tracked
    zero_mode_residual: float

    def report(self):
        return {"radius": self.radius,
                "extended_radius": self.extended_radius,
                "residual_max": self.residual_max,
                "dropped_beyond_f": self.dropped_beyond_f,
                "dropped_beyond_fprime": self.dropped_beyond_fprime,
                "tail_bound": self.tail_bound,
                "zero_mode_residual": self.zero_mode_residual}


def _accumulate(index, values, count):
    """The (count, d) complex sums of the rows of values by index: row j
    is the sum of values[i] over index[i] = j, added one by one in
    occurrence order from 0, as np.add.at adds them (a fancy-indexed +=
    would keep only the last).  np.bincount runs the same running sum on
    each real and imaginary column, several times faster than add.at on
    complex rows, so the bits are those of add.at."""
    acc = np.empty((count, values.shape[1]), dtype=complex)
    for j in range(values.shape[1]):
        acc[:, j].real = np.bincount(index, values[:, j].real, count)
        acc[:, j].imag = np.bincount(index, values[:, j].imag, count)
    return acc


def solve_linearized(automorphism, q: TrigPoly, radius=None,
                     extended_radius=None, tol=None):
    """Solve L h' - h' o L = Q coefficientwise along dual orbits.

    The solution is the superposition of one contribution per nonzero
    mode s of Q, with q^u_s, q^s_s its splitting coordinates: the
    unstable part L_u^-(k+1) q^u_s lands at (L^T)^k s for k >= 0, the
    stable part -L_s^(k-1) q^s_s at (L^T)^-k s for k >= 1.  A side stops
    at the first k whose running power A has ||A||_2 * max|Q_s| < DROP_TOL,
    so the step counts are fixed before any frequency moves.  All modes of
    Q then step together as exact integer frequencies.

    The frequencies are int64 rows when an exact Python-int bound keeps
    every one below 2^62: max|s| times the largest sup-norm gain of the
    exact powers S^j of a side's step matrix S, j up to its step count,
    and radius times the gain of L^-1 for the residual's step back from
    the ball.  The bound also covers the partial sums of each product.
    One lexsort keys the int64 rows; past the bound the rows are Python
    ints (object dtype), keyed by a dict.  Both routes then add the
    contributions with _accumulate in occurrence order, so every sum is
    formed alike.

    Q must be a real vector-valued trig polynomial supported in the ball
    |n| <= radius, with finite coefficients.  Raises
    TruncationInsufficient when `tol` is given and the certified tail at
    the extended radius exceeds it.
    """
    sd = lyapunov_splitting(automorphism)
    d = automorphism.dim
    if q.dim_domain != d or q.dim_range != d:
        raise ValueError("Q must map T^d to R^d")
    radius = radius or max(q.support_radius, 1)
    if q.support_radius > radius:
        raise ValueError("Q support exceeds the declared radius")
    f_prime = extended_radius or 4 * radius

    w, du = sd.basis_full, sd.unstable_dim
    sigma = max(sd.unstable_norm.contraction, sd.stable_norm.contraction)

    freqs, coefs = q.freqs, q.coefs
    nonzero = np.any(freqs != 0, axis=1)
    support, q_arr = freqs[nonzero], coefs[nonzero]
    if not np.all(np.isfinite(q_arr)):
        raise ValueError("Q has a non-finite coefficient")
    q_scale = float(np.max(np.abs(q_arr), initial=0.0))

    # zero mode
    lmat = automorphism.as_array()
    q0 = q[(0,) * d]
    h0 = np.linalg.solve(lmat - np.eye(d), q0)
    zero_res = float(np.max(np.abs((lmat - np.eye(d)) @ h0 - q0)))

    # one (K_q, d) block of contributions per step of each side
    au = sd.restricted_unstable_inv
    q_split = q_arr @ sd.basis_full_inv.T
    blocks, counts = [np.zeros((0, d), dtype=complex)], []
    for factor, power, cols in (
            (au, au, slice(None, du)),
            (sd.restricted_stable(), -np.eye(d - du), slice(du, None))):
        count = 0
        while np.linalg.norm(power, 2) * q_scale >= DROP_TOL:
            blocks.append(q_split[:, cols] @ (w[:, cols] @ power).T)
            power = factor @ power
            count += 1
        counts.append(count)

    # frequencies are rows n^T, so the unstable side's step k lands at
    # s^T L^k and the stable side's at s^T L^-(k+1); the exact powers
    # bound every row before one is formed
    l_int = np.array(automorphism.entries, dtype=object)
    li_int = np.array(exactalg.inverse_unimodular(automorphism.rows()),
                      dtype=object)
    powers = []
    for p, step, count in ((np.identity(d, dtype=object), l_int, counts[0]),
                           (li_int, li_int, counts[1])):
        for _ in range(count):
            powers.append(p)
            p = p @ step

    def sup_gain(p):        # max |(n^T p)_j| / max |n_i|
        return max(sum(abs(x) for x in col) for col in p.T.tolist())

    s_max = int(np.abs(support).max(initial=0))
    bound = max([s_max * sup_gain(p) for p in powers] +
                [radius * sup_gain(li_int)])
    exact = np.int64 if bound < 2 ** 62 else object
    support, li_exact = support.astype(exact), li_int.astype(exact)
    stepped = np.matmul(support, np.array(powers, dtype=exact).reshape(
        -1, d, d)).reshape(-1, d)
    keyed = _row_keys(stepped)
    keys = keyed.keys

    acc = _accumulate(keyed.inverse, np.concatenate(blocks), len(keys))
    peak = np.abs(acc).max(axis=1, initial=0.0)
    # sums below DROP_TOL / 10 are rounding-level and not retained; the
    # rest are listed in the order the walk first reached them
    kept = np.flatnonzero(peak >= DROP_TOL / 10)
    kept = kept[np.argsort(keyed.first[kept])]
    sup = np.abs(keys[kept]).max(axis=1)
    inside, beyond = sup <= radius, sup > f_prime
    ball, annular = kept[inside], kept[~inside & ~beyond]

    h = TrigPoly.from_arrays(
        d, d, np.concatenate([np.zeros((1, d), dtype=keys.dtype), keys[ball]]),
        np.concatenate([h0[None], acc[ball]]))
    annulus = TrigPoly.from_arrays(d, d, keys[annular], acc[annular])
    # exactly rounded sums: order-free
    dropped_f = math.fsum(peak[kept[~inside]])
    dropped_fp = math.fsum(peak[kept[beyond]])
    tail_geo = q_scale * (sigma / max(1.0 - sigma, 1e-9)) * \
        sigma ** max(f_prime // max(radius, 1), 1)
    tail_bound = dropped_fp + len(support) * DROP_TOL / max(1 - sigma, 1e-9) \
        + tail_geo
    if tol is not None and dropped_fp + tail_geo > tol:
        raise TruncationInsufficient(
            f"dropped mass beyond F'={f_prime} is "
            f"{dropped_fp + tail_geo:.3e} > tol {tol:.3e}")

    # per-coefficient substitution residual L c_n - c_{L^-T n} - Q_n over
    # the retained modes and the modes of Q in the ball; coef's extra last
    # row, index -1, is the zero of a frequency that is not retained
    coef = np.zeros((len(keys) + 1, d), dtype=complex)
    coef[kept] = acc[kept]
    at_q = keyed.find(support)
    qtab = np.zeros((len(keys), d), dtype=complex)
    qtab[at_q[at_q >= 0]] = q_arr[at_q >= 0]
    ids = np.concatenate([ball, at_q])
    pred = keyed.find(np.concatenate([keys[ball], support]) @ li_exact)
    r = np.matmul(lmat, coef[ids][..., None])[..., 0] - coef[pred] - \
        np.concatenate([qtab[ball], q_arr])
    res_max = max(zero_res, float(np.abs(r).max(initial=0.0)))

    return LinearizedSolution(h=h.symmetrize_real() if q.is_real() else h,
                              annulus=annulus, radius=radius,
                              extended_radius=f_prime,
                              residual_max=res_max,
                              dropped_beyond_f=dropped_f,
                              dropped_beyond_fprime=dropped_fp,
                              tail_bound=tail_bound,
                              zero_mode_residual=zero_res)


# ---------------------------------------------------------------------------
# KAM step
# ---------------------------------------------------------------------------

@dataclass
class KamStepReport:
    input_c0: float
    input_c1: float
    output_c0: float
    output_c1: float
    hprime_c0: float
    hprime_c1: float
    truncation_radius: int
    linearized_residual: float
    projection_error_q: float
    projection_error_f: float
    orientation: str               # always "inverse_then_forward"
    improvement: float             # output_c0 / input_c0
    no_improvement: bool
    solver_report: dict

    def as_dict(self):
        out = self.__dict__.copy()
        return out


def _map_distances(f, grid_pts):
    disp = f.displacement_at(grid_pts)
    c0 = float(np.max(np.abs(disp)))
    jac = f.disp.eval_jacobian(grid_pts).real
    c1 = c0 + max_norm2(jac)
    return c0, c1


def invert_id_minus(hp, target):
    """The z with z - h'(z) = target, i.e. (Id - h')^-1, by the fixed-point
    iteration z <- target + h'(z).

    Returns the iterate whose update falls below 1e-14; raises
    ToleranceNotReached if no update does within 200 iterations.
    """
    z = target.copy()
    for _ in range(200):
        z_new = target + hp.eval_real(z)
        update = np.max(np.abs(z_new - z))
        if update < 1e-14:
            return z
        z = z_new
    raise ToleranceNotReached(
        f"(Id - h')^-1 not reached in 200 iterations (last update "
        f"{update:.2e}, tolerance 1e-14)")


def _q_on_grid(h_grid, base):
    """Q = L h - h o L at the grid points of h_grid, reduced mod Z^d.

    L is an integer matrix, so x -> L x mod 1 permutes the grid k/N: the
    value of h o L at k/N is the sample of h at (L k mod N)/N.
    """
    n, d = h_grid.grid_n, h_grid.dim_domain
    h = h_grid.values.reshape(-1, d)
    k = np.indices((n,) * d).reshape(d, -1)
    image = np.ravel_multi_index(tuple(np.array(base.entries) @ k % n),
                                 (n,) * d)
    q = h @ base.as_array().T - h[image]
    return q - np.round(q)


def kam_step(f: PerturbedMap, radius=16, grid_n=128, tol=None):
    """One improvement step: solve the linearized equation and conjugate.

    Q = R + (h o f - h o L) is projected to the ball |n| <= radius, the
    linearized equation is solved for h', and f is conjugated by
    H' = Id - h' to f' = H'^-1 o f o H', which is L exactly when h'
    reproduces h.  A step that does not bring f closer to L is reported
    as no_improvement.

    Q is taken on the grid of the conjugacy solve, where R drops out: the
    conjugacy equation L h - h o f = R gives R + h o f = L h, so
    Q = L h - h o L, and h o L reads h at the grid points that L permutes
    (_q_on_grid), with no orbit walk.  h is only defined mod Z^d (an
    anchor shift s adds the integer vector (L - I) s to L h - h o L), so
    Q is reduced mod Z^d.  It differs from R + h o f - h o L with both h
    walked by the terms one past the last summed ones, L_u^-N R^u(f^N x)
    and L_s^N R^s(f^-N x), of the size of the solve's stopping threshold.

    The grid holds the projected modes only when grid_n > 2 radius; a
    coarser grid raises InvalidInput before any solve.
    """
    if 2 * radius >= grid_n:
        raise InvalidInput(f"grid_n ({grid_n}) must exceed twice the "
                           f"radius ({radius})")
    d = f.dim
    el = f.base
    lmat = el.as_array()
    conj = solve_conjugacy(f, tol=1e-11, grid_n=grid_n)
    pts = uniform_grid(d, grid_n)
    in_c0, in_c1 = _map_distances(f, pts)

    q_vals = _q_on_grid(conj.h_grid, el)
    q_full = GridFunction(q_vals.reshape((grid_n,) * d + (d,))).to_trig(
        threshold=1e-15)
    q_tp, proj_q = q_full.restrict(radius)
    q_tp = q_tp.symmetrize_real()

    sol = solve_linearized(el, q_tp, radius=radius, tol=tol)
    hp = sol.h

    # function-level residual of the linearized equation on the grid
    hp_pts = hp.eval_real(pts)
    hp_l = hp.eval_real(_mod1(pts @ lmat.T))
    lin_res = float(np.max(np.abs(hp_pts @ lmat.T - hp_l
                                  - q_tp.eval_real(pts))))

    # f' = H'^-1 o f o H', with H' = Id - h'
    w = f.apply_lift(pts - hp_pts)
    disp_vals = invert_id_minus(hp, w) - pts @ lmat.T

    r_full = GridFunction(disp_vals.reshape((grid_n,) * d + (d,))).to_trig(
        threshold=1e-15)
    r_tp, proj_f = r_full.restrict(radius)
    f_prime = PerturbedMap(el, r_tp, warn=False)

    out_c0, out_c1 = _map_distances(f_prime, pts)
    hp_c0 = float(np.max(np.abs(hp_pts)))
    hp_c1 = hp_c0 + max_norm2(hp.eval_jacobian(pts).real)
    report = KamStepReport(
        input_c0=in_c0, input_c1=in_c1, output_c0=out_c0, output_c1=out_c1,
        hprime_c0=hp_c0, hprime_c1=hp_c1, truncation_radius=radius,
        linearized_residual=lin_res, projection_error_q=float(proj_q),
        projection_error_f=float(proj_f),
        orientation="inverse_then_forward",
        improvement=out_c0 / in_c0 if in_c0 > 0 else 0.0,
        no_improvement=bool(out_c0 >= in_c0 > 0),
        solver_report=sol.report())
    return f_prime, report


def kam_iterate(f: PerturbedMap, steps=3, radius=16, grid_n=128, tol=None):
    """Finitely many KAM steps with per-step telemetry (no convergence
    claim beyond what the reports show)."""
    reports = []
    current = f
    for _ in range(steps):
        current, rep = kam_step(current, radius=radius, grid_n=grid_n,
                                tol=tol)
        reports.append(rep)
    return current, reports
