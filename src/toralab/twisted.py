"""Fourier-space solution of L h' - h' o L = Q and one KAM-style step.

In frequencies the equation decouples along orbits of the dual action
n -> L^T n: with c_m the coefficient of h' at m,

    L c_m - c_{(L^T)^-1 m} = Q_m.

The zero mode is (L - I)^-1 Q_0.  On each dual orbit the bounded
solution is the one-sided geometric sum per Lyapunov component of the
twist: expanding components sum forward in L^-1, contracting components
backward in L.  Coefficients are tracked along the orbit until they
decay below a drop tolerance, retained inside the ball |n| <= F, and
everything dropped is reported with a certified geometric tail.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exactalg
from .conjugacy import solve_conjugacy
from .errors import ToleranceNotReached, TruncationInsufficient
from .maps import PerturbedMap
from .spectral import lyapunov_splitting
from .torusfn import GridFunction, TrigPoly, _mod1, uniform_grid


def _mat_vec_int(rows, v):
    return tuple(sum(rows[i][j] * v[j] for j in range(len(v)))
                 for i in range(len(rows)))


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
    """Walk the dual action over the frequency ball; verifies no cycles."""
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
        cur = _mat_vec_int(lti, seed)
        steps = 0
        seen_walk = {seed}
        while _sup(cur) <= f_prime:
            if cur in seen_walk:
                raise ArithmeticError("dual action has a finite cycle; "
                                      "the automorphism is not hyperbolic")
            seen_walk.add(cur)
            back.append(cur)
            cur = _mat_vec_int(lti, cur)
            steps += 1
            if steps > max_walk:
                raise ArithmeticError("dual orbit walk exceeded the cap")
        fwd = [seed]
        cur = _mat_vec_int(lt, seed)
        steps = 0
        while _sup(cur) <= f_prime:
            if cur in seen_walk:
                raise ArithmeticError("dual action has a finite cycle; "
                                      "the automorphism is not hyperbolic")
            seen_walk.add(cur)
            fwd.append(cur)
            cur = _mat_vec_int(lt, cur)
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
    decomposition: DualOrbitDecomposition = field(repr=False, default=None)

    def report(self):
        return {"radius": self.radius,
                "extended_radius": self.extended_radius,
                "residual_max": self.residual_max,
                "dropped_beyond_f": self.dropped_beyond_f,
                "dropped_beyond_fprime": self.dropped_beyond_fprime,
                "tail_bound": self.tail_bound,
                "zero_mode_residual": self.zero_mode_residual,
                "orbit_segments": self.decomposition.segment_count()
                if self.decomposition else None}


def solve_linearized(automorphism, q: TrigPoly, radius=None,
                     extended_radius=None, drop_tol=1e-17, tol=None,
                     max_walk=800):
    """Solve L h' - h' o L = Q coefficientwise along dual orbits.

    Q must be a real vector-valued trig polynomial supported in the ball
    |n| <= radius.  Raises TruncationInsufficient when `tol` is given and
    the certified tail at the extended radius exceeds it.
    """
    sd = lyapunov_splitting(automorphism)
    d = automorphism.dim
    if q.dim_domain != d or q.dim_range != d:
        raise ValueError("Q must map T^d to R^d")
    radius = radius or max(q.support_radius, 1)
    if q.support_radius > radius:
        raise ValueError("Q support exceeds the declared radius")
    f_prime = extended_radius or 4 * radius

    lt = [list(r) for r in zip(*automorphism.entries)]
    lti = exactalg.inverse_unimodular(lt)
    w, w_inv, du = sd.basis_full, sd.basis_full_inv, sd.unstable_dim
    lu = sd.restricted_unstable()
    ls = sd.restricted_stable()
    au = np.linalg.inv(lu)
    sig_u = sd.unstable_norm.contraction
    sig_s = sd.stable_norm.contraction
    sigma = max(sig_u, sig_s)

    qmap = {n: c for n, c in q.coeffs.items() if any(n)}
    q_scale = max((float(np.max(np.abs(c))) for c in qmap.values()),
                  default=0.0)

    # zero mode
    lmat = automorphism.as_array()
    q0 = q[(0,) * d]
    h0 = np.linalg.solve(lmat - np.eye(d), q0)
    zero_res = float(np.max(np.abs((lmat - np.eye(d)) @ h0 - q0)))

    # contributions decay by sigma per orbit step: support further than
    # `horizon` steps away couples below drop_tol and may split off
    horizon = int(np.log(max(drop_tol, 1e-300) / max(q_scale, 1e-300)) /
                  np.log(max(sigma, 1e-9))) + 1
    values = {}          # freq -> solved coefficient (complex d-vector)
    ls_norm = {}         # k -> ||L_s^k||_2, the backward stopping probe
    unassigned = set(qmap)
    while unassigned:
        seed = sorted(unassigned)[0]
        # walk backward to the earliest support within the horizon
        start = seed
        cur = seed
        gap = 0
        steps = 0
        while gap < horizon and steps < max_walk:
            cur = _mat_vec_int(lti, cur)
            gap += 1
            steps += 1
            if cur in qmap and cur in unassigned:
                start = cur
                gap = 0
        # forward pass: walk from `start`, accumulating both components
        pos = start
        cu = np.zeros(du, dtype=complex)
        fwd_positions = [start]
        fwd_cu = []
        qs_list = [np.asarray(w_inv @ np.asarray(qmap.get(start,
                   np.zeros(d, dtype=complex))), dtype=complex)]
        cu = au @ (qs_list[0][:du] + cu)
        fwd_cu.append(cu.copy())
        since_support = 0
        steps = 0
        while True:
            pos = _mat_vec_int(lt, pos)
            steps += 1
            if steps > max_walk:
                break
            qc = qmap.get(pos)
            qcoords = np.asarray(w_inv @ np.asarray(
                qc if qc is not None else np.zeros(d, dtype=complex)),
                dtype=complex)
            cu = au @ (qcoords[:du] + cu)
            fwd_positions.append(pos)
            fwd_cu.append(cu.copy())
            qs_list.append(qcoords)
            if qc is not None and pos in unassigned:
                since_support = 0
            else:
                since_support += 1
            if since_support > 3 and np.max(np.abs(cu)) < drop_tol:
                break
        # backward pass for the stable component along the same stretch,
        # extended backward until it decays
        back_positions = []
        back_qs = []
        pos = start
        steps = 0
        while True:
            pos = _mat_vec_int(lti, pos)
            steps += 1
            if steps > max_walk:
                break
            qc = qmap.get(pos)
            back_positions.append(pos)
            back_qs.append(np.asarray(w_inv @ np.asarray(
                qc if qc is not None else np.zeros(d, dtype=complex)),
                dtype=complex))
            k = len(back_positions)
            if qc is None and k > 3:
                # once past all support, the stable sum only decays
                if k not in ls_norm:
                    ls_norm[k] = np.linalg.norm(
                        np.linalg.matrix_power(ls, k), 2)
                if ls_norm[k] * max(q_scale, 0.0) < drop_tol:
                    break
        positions = back_positions[::-1] + fwd_positions
        qcoords_all = back_qs[::-1] + qs_list
        n_pos = len(positions)
        # stable component spreads backward: c_j = L_s c_{j+1} - q_{j+1}
        cs = np.zeros((n_pos, d - du), dtype=complex)
        nxt = np.zeros(d - du, dtype=complex)
        for j in range(n_pos - 2, -1, -1):
            nxt = ls @ nxt - qcoords_all[j + 1][du:]
            cs[j] = nxt
        # unstable component is zero before `start` (no support earlier)
        cu_all = np.zeros((n_pos, du), dtype=complex)
        offset = len(back_positions)
        for j, c in enumerate(fwd_cu):
            cu_all[offset + j] = c
        for j, posn in enumerate(positions):
            coeff = w @ np.concatenate([cu_all[j], cs[j]])
            if np.max(np.abs(coeff)) < drop_tol / 10:
                continue
            values[posn] = values.get(posn, 0) + coeff
        for posn in positions:
            unassigned.discard(posn)
        unassigned.discard(seed)

    h = TrigPoly(d, d)
    h[(0,) * d] = h0
    annulus = TrigPoly(d, d)
    dropped_f = 0.0
    dropped_fp = 0.0
    for n, c in values.items():
        s = _sup(n)
        if s <= radius:
            h[n] = h[n] + c
        elif s <= f_prime:
            annulus[n] = annulus[n] + c
            dropped_f += float(np.max(np.abs(c)))
        else:
            dropped_f += float(np.max(np.abs(c)))
            dropped_fp += float(np.max(np.abs(c)))
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
        pred = _mat_vec_int(lti, n)
        r = lmat @ coeff_at(n) - coeff_at(pred) - \
            np.asarray(qmap.get(n, np.zeros(d, dtype=complex)))
        res_max = max(res_max, float(np.max(np.abs(r))))

    small = (d <= 2 and radius <= 20) or (d <= 4 and radius <= 6)
    decomp = dual_orbit_decomposition(automorphism, radius, f_prime) \
        if small else None
    return LinearizedSolution(h=h.symmetrize_real() if q.is_real() else h,
                              annulus=annulus, radius=radius,
                              extended_radius=f_prime,
                              residual_max=res_max,
                              dropped_beyond_f=dropped_f,
                              dropped_beyond_fprime=dropped_fp,
                              tail_bound=tail_bound,
                              zero_mode_residual=zero_res,
                              decomposition=decomp)


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
    orientation: str
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
    H' = Id - h'.  Both conjugation orientations are computed and the
    contracting one is reported (the intended one is H'^-1 o f o H',
    which sends f to L exactly when h' reproduces h).
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

    # orientation A: f' = H'^-1 o f o H', with H' = Id - h'
    u = pts - hp.eval_real(pts)
    w = f.apply_lift(u)
    z = invert_id_minus(hp, w)
    disp_a = z - pts @ lmat.T

    # orientation B: f' = H' o f o H'^-1
    u2 = invert_id_minus(hp, pts)
    w2 = f.apply_lift(u2)
    z2 = w2 - hp.eval_real(w2)
    disp_b = z2 - pts @ lmat.T

    da = float(np.max(np.abs(disp_a)))
    db = float(np.max(np.abs(disp_b)))
    if da <= db:
        disp_vals, orientation = disp_a, "inverse_then_forward"
    else:
        disp_vals, orientation = disp_b, "forward_then_inverse"

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
        projection_error_f=float(proj_f), orientation=orientation,
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
