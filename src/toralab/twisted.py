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
from .errors import ToleranceNotReached, TruncationInsufficient
from .maps import PerturbedMap
from .spectral import lyapunov_splitting
from .torusfn import GridFunction, TrigPoly, _mod1, uniform_grid


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


def dual_orbit_decomposition(automorphism, radius, extended_radius=None,
                             max_walk=2000):
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
            if steps > max_walk:
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
            if steps > max_walk:
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


def solve_linearized(automorphism, q: TrigPoly, radius=None,
                     extended_radius=None, drop_tol=1e-17, tol=None):
    """Solve L h' - h' o L = Q coefficientwise along dual orbits.

    The solution is the superposition of one contribution per nonzero
    mode s of Q, with q^u_s, q^s_s its splitting coordinates: the
    unstable part L_u^-(k+1) q^u_s lands at (L^T)^k s for k >= 0, the
    stable part -L_s^(k-1) q^s_s at (L^T)^-k s for k >= 1.  All modes of
    Q step together as exact integer frequencies; a side stops at the
    first k whose running power A has ||A||_2 * max|Q_s| < drop_tol.

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
    if not drop_tol > 0:
        raise ValueError("drop_tol must be positive")
    f_prime = extended_radius or 4 * radius

    lt = [list(r) for r in zip(*automorphism.entries)]
    lti = exactalg.inverse_unimodular(lt)      # L^-T n: the predecessor of n
    w, du = sd.basis_full, sd.unstable_dim
    sigma = max(sd.unstable_norm.contraction, sd.stable_norm.contraction)

    qmap = {n: c for n, c in q.coeffs.items() if any(n)}
    q_arr = np.array(list(qmap.values()), dtype=complex).reshape(-1, d)
    if not np.all(np.isfinite(q_arr)):
        raise ValueError("Q has a non-finite coefficient")
    q_scale = float(np.max(np.abs(q_arr), initial=0.0))

    # zero mode
    lmat = automorphism.as_array()
    q0 = q[(0,) * d]
    h0 = np.linalg.solve(lmat - np.eye(d), q0)
    zero_res = float(np.max(np.abs((lmat - np.eye(d)) @ h0 - q0)))

    # frequencies are the rows n^T of Python-int arrays (no overflow), so
    # a step of L^T is a right product with L, and of L^-T with L^-1
    support = np.array(list(qmap), dtype=object).reshape(-1, d)
    l_int = np.array(automorphism.entries, dtype=object)
    li_int = np.array(lti, dtype=object).T
    au = np.linalg.inv(sd.restricted_unstable())
    q_split = q_arr @ sd.basis_full_inv.T
    values = {}          # freq -> solved coefficient (complex d-vector)
    for freqs, step, factor, power, cols in (
            (support, l_int, au, au, slice(None, du)),
            (support @ li_int, li_int, sd.restricted_stable(),
             -np.eye(d - du), slice(du, None))):
        while np.linalg.norm(power, 2) * q_scale >= drop_tol:
            contrib = q_split[:, cols] @ (w[:, cols] @ power).T
            for n, c in zip(map(tuple, freqs.tolist()), contrib):
                values[n] = values.get(n, 0) + c
            freqs = freqs @ step
            power = factor @ power
    # sums below drop_tol / 10 are rounding-level and not retained
    values = {n: c for n, c in values.items()
              if np.max(np.abs(c)) >= drop_tol / 10}

    h = TrigPoly(d, d)
    h[(0,) * d] = h0
    annulus = TrigPoly(d, d)
    beyond_f, beyond_fp = [], []     # exactly rounded sums: order-free
    for n, c in values.items():
        s = _sup(n)
        if s <= radius:
            h[n] = c
            continue
        if s <= f_prime:
            annulus[n] = c
        else:
            beyond_fp.append(float(np.max(np.abs(c))))
        beyond_f.append(float(np.max(np.abs(c))))
    dropped_f, dropped_fp = math.fsum(beyond_f), math.fsum(beyond_fp)
    tail_geo = q_scale * (sigma / max(1.0 - sigma, 1e-9)) * \
        sigma ** max(f_prime // max(radius, 1), 1)
    tail_bound = dropped_fp + len(qmap) * drop_tol / max(1 - sigma, 1e-9) \
        + tail_geo
    if tol is not None and dropped_fp + tail_geo > tol:
        raise TruncationInsufficient(
            f"dropped mass beyond F'={f_prime} is "
            f"{dropped_fp + tail_geo:.3e} > tol {tol:.3e}")

    # per-coefficient substitution residual over retained modes
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
    c1 = c0 + float(np.max(np.linalg.norm(jac, ord=2, axis=(-2, -1))))
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


def kam_step(f: PerturbedMap, radius=16, grid_n=128, conj=None,
             tol=None, drop_tol=1e-17):
    """One improvement step: solve the linearized equation and conjugate.

    Q = R + (h o f - h o L) is projected to the ball |n| <= radius, the
    linearized equation is solved for h', and f is conjugated by
    H' = Id - h' to f' = H'^-1 o f o H', which is L exactly when h'
    reproduces h.  A step that does not bring f closer to L is reported
    as no_improvement.
    """
    d = f.dim
    el = f.base
    lmat = el.as_array()
    if conj is None:
        conj = solve_conjugacy(f, tol=1e-11, grid_n=grid_n,
                               residual_samples=500, regularity=False)
    pts = uniform_grid(d, grid_n)
    in_c0, in_c1 = _map_distances(f, pts)

    h_f = conj.evaluate_h(f.apply(pts))
    h_l = conj.evaluate_h(_mod1(pts @ lmat.T))
    q_vals = f.displacement_at(pts) + h_f - h_l
    q_full = GridFunction(q_vals.reshape((grid_n,) * d + (d,))).to_trig(
        threshold=1e-15)
    q_tp, proj_q = q_full.restrict(radius)
    q_tp = q_tp.symmetrize_real()

    sol = solve_linearized(el, q_tp, radius=radius, drop_tol=drop_tol,
                           tol=tol)
    hp = sol.h

    # function-level residual of the linearized equation on the grid
    hp_l = hp.eval_real(_mod1(pts @ lmat.T))
    lin_res = float(np.max(np.abs(hp.eval_real(pts) @ lmat.T - hp_l
                                  - q_tp.eval_real(pts))))

    # f' = H'^-1 o f o H', with H' = Id - h'
    w = f.apply_lift(pts - hp.eval_real(pts))
    disp_vals = invert_id_minus(hp, w) - pts @ lmat.T

    r_full = GridFunction(disp_vals.reshape((grid_n,) * d + (d,))).to_trig(
        threshold=1e-15)
    r_tp, proj_f = r_full.restrict(radius)
    r_tp = r_tp.symmetrize_real()
    f_prime = PerturbedMap(el, r_tp, warn=False)

    out_c0, out_c1 = _map_distances(f_prime, pts)
    hp_c0 = float(np.max(np.abs(hp.eval_real(pts))))
    hp_c1 = hp_c0 + float(np.max(np.linalg.norm(
        hp.eval_jacobian(pts).real, ord=2, axis=(-2, -1))))
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
