"""Linear cocycles over a perturbed toral automorphism.

Products along orbits, finite-time Lyapunov exponents (QR
reorthogonalized, pointwise / volume-averaged / at periodic points),
conformality and fiber-bunching diagnostics, and singular-subspace
estimates of the invariant subbundles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (GapTooSmall, LostOrthogonality, SingularGenerator)
from .maps import PerturbedMap, PeriodicOrbit, verify_anosov
from .torusfn import estimate_holder, uniform_grid


class CocycleSpec:
    """Generator A: T^d -> GL(m, R) over a base map f.

    kind is one of "constant", "derivative", "restriction"; the
    restriction uses the orthogonal projection onto one Lyapunov subspace
    of the base automorphism (exact restriction when f = L).  Every kind
    is smooth, so the reported Holder exponent of the generator is 1.
    """

    def __init__(self, base_map: PerturbedMap, kind="derivative",
                 matrix=None, cluster_index=None):
        self.f = base_map
        self.kind = kind
        if kind == "constant":
            self.matrix = np.asarray(matrix, dtype=float)
            self.m = self.matrix.shape[0]
        elif kind == "derivative":
            self.m = base_map.dim
        elif kind == "restriction":
            if cluster_index is None:
                raise ValueError("restriction needs a cluster index")
            self.cluster_index = cluster_index
            self.basis = base_map.spec.cluster_bases[cluster_index]
            self.m = self.basis.shape[1]
        else:
            raise ValueError(f"unknown cocycle kind {kind!r}")
        self.holder_exponent = 1.0

    def generator(self, x):
        """A(x) for x of shape (..., d); returns (..., m, m)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(self.matrix,
                                   x.shape[:-1] + self.matrix.shape).copy()
        if self.kind == "derivative":
            return self.f.jacobian(x)
        jac = self.f.jacobian(x)
        return np.einsum("ia,...ij,jb->...ab", self.basis, jac, self.basis)

    def invertibility_report(self, grid_n=24):
        pts = uniform_grid(self.f.dim, grid_n)
        dets = np.linalg.det(self.generator(pts))
        return float(np.min(np.abs(dets)))


def cocycle_product(spec: CocycleSpec, x, n):
    """Ordered product A(f^{n-1}x) ... A(x); negative n via the inverse
    of the forward product started at f^n x."""
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.eye(spec.m)
    if n < 0:
        y = x.copy()
        for _ in range(-n):
            y = spec.f.invert(y)
        return np.linalg.inv(cocycle_product(spec, y, -n))
    acc = np.eye(spec.m)
    y = x.copy()
    for _ in range(n):
        a = spec.generator(y)
        if abs(np.linalg.det(a)) < 1e-14 * max(np.linalg.norm(a), 1.0):
            raise SingularGenerator(f"generator singular near {y}")
        acc = a @ acc
        y = spec.f.apply(y)
    return acc


@dataclass
class ExponentReport:
    """Finite-time exponents per direction.

    `exponents` discards the first half of the run (the frame-alignment
    transient of the QR scheme), which is exact for a constant normal
    generator; `full_average` keeps the plain (1/n) sums and
    `oscillation` is the gap between the two.
    """
    exponents: np.ndarray          # ascending, transient-discarded
    n: int
    oscillation: float
    det_consistency: float         # |sum full - (1/n) log|det product||
    full_average: np.ndarray | None = None
    birkhoff: np.ndarray | None = None   # one long orbit, lyapunov_volume
    reference: np.ndarray | None = None
    max_deviation: float | None = None
    per_sample: np.ndarray | None = field(default=None, repr=False)

    def compare(self, reference):
        ref = np.sort(np.asarray(reference, dtype=float))
        self.reference = ref
        self.max_deviation = float(np.max(np.abs(self.exponents - ref)))
        return self.max_deviation


def _qr_positive(mats):
    q, r = np.linalg.qr(mats)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    sign = np.where(diag >= 0, 1.0, -1.0)
    q = q * sign[..., None, :]
    r = r * sign[..., :, None]
    return q, r


MAX_ITER = 10 ** 4


def lyapunov_qr(spec: CocycleSpec, x, n, reference=None):
    """Finite-time exponents at one point by QR reorthogonalization."""
    if n > MAX_ITER:
        raise ValueError(f"n exceeds the configured bound {MAX_ITER}")
    rep = _lyapunov_batch(spec, np.asarray(x, float)[None, :], n)
    report = ExponentReport(exponents=rep["exps"][0], n=n,
                            oscillation=rep["osc"],
                            det_consistency=rep["det"][0],
                            full_average=rep["full"][0])
    if reference is not None:
        report.compare(reference)
    return report


def _lyapunov_batch(spec, xs, n):
    s_count, m = xs.shape[0], spec.m
    q = np.broadcast_to(np.eye(m), (s_count, m, m)).copy()
    sums = np.zeros((s_count, m))
    tail = np.zeros((s_count, m))
    logdet = np.zeros(s_count)
    tail_start = n // 2
    y = xs.copy()
    for k in range(n):
        a = spec.generator(y)
        mats = a @ q
        q, r = _qr_positive(mats)
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


def lyapunov_volume(spec: CocycleSpec, n, grid_per_axis=8, reference=None,
                    birkhoff_factor=8, seed=0):
    """Volume proxy: exponents averaged over a uniform grid of seeds.

    Also runs one long Birkhoff orbit (birkhoff_factor * n steps from a
    seeded random point) as an independent estimate; both are reported.
    """
    if n > MAX_ITER:
        raise ValueError(f"n exceeds the configured bound {MAX_ITER}")
    d = spec.f.dim
    axes = [np.arange(grid_per_axis) / grid_per_axis +
            0.5 / grid_per_axis] * d
    xs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    batch = _lyapunov_batch(spec, xs, n)
    exps = np.mean(batch["exps"], axis=0)
    report = ExponentReport(exponents=exps, n=n, oscillation=batch["osc"],
                            det_consistency=float(np.max(batch["det"])),
                            full_average=np.mean(batch["full"], axis=0),
                            per_sample=batch["exps"])
    if reference is not None:
        report.compare(reference)
    rng = np.random.default_rng(seed)
    x0 = rng.random((1, d))
    report.birkhoff = _lyapunov_batch(spec, x0, birkhoff_factor * n)["exps"][0]
    return report


def exponents_at_periodic(spec: CocycleSpec, orbit: PeriodicOrbit,
                          reference=None):
    """Exact periodic exponents: log-moduli of eig(A_p^n) / n."""
    prod = cocycle_product(spec, orbit.representative, orbit.period)
    eig = np.linalg.eigvals(prod)
    exps = np.sort(np.log(np.abs(eig)) / orbit.period)
    logdet = np.log(abs(np.linalg.det(prod))) / orbit.period
    report = ExponentReport(exponents=exps, n=orbit.period, oscillation=0.0,
                            det_consistency=float(abs(exps.sum() - logdet)))
    if reference is not None:
        report.compare(reference)
    return report


# ---------------------------------------------------------------------------
# Conformality
# ---------------------------------------------------------------------------

@dataclass
class ConformalityVerdict:
    verdict: str                  # "conformal" | "not_conformal" | "indeterminate"
    conjugator: np.ndarray | None
    conjugator_cond: float | None
    moduli_spread: float
    conformality_error: float | None
    details: str = ""


def conformality_check(matrix, tol=1e-8):
    """Is the matrix similar to a scalar multiple of an orthogonal one?

    Requires all eigenvalue moduli equal (within tol) and semisimplicity
    (rank test); when both hold the real canonical conjugator C_p is
    returned with its condition number.
    """
    m = np.asarray(matrix, dtype=float)
    k = m.shape[0]
    eig, vec = np.linalg.eig(m)
    moduli = np.abs(eig)
    scale = float(np.max(moduli))
    if scale == 0:
        return ConformalityVerdict("not_conformal", None, None, 0.0, None,
                                   "singular matrix")
    spread = float((np.max(moduli) - np.min(moduli)) / scale)
    if spread > 10 * tol:
        return ConformalityVerdict("not_conformal", None, None, spread, None,
                                   "eigenvalue moduli differ")
    if spread > tol:
        return ConformalityVerdict("indeterminate", None, None, spread, None,
                                   "moduli equal only near tolerance")

    # semisimplicity via rank of (M - lambda I) per eigenvalue cluster
    used = np.zeros(k, dtype=bool)
    for i in range(k):
        if used[i]:
            continue
        lam = eig[i]
        cluster = np.abs(eig - lam) < 1e-6 * scale
        used |= cluster
        alg = int(np.sum(cluster))
        if alg == 1:
            continue
        mat = m - np.real(lam) * np.eye(k) if abs(lam.imag) < 1e-9 * scale \
            else None
        if mat is None:
            continue
        rank = int(np.sum(np.linalg.svd(mat, compute_uv=False)
                          > tol * scale))
        if k - rank < alg:
            return ConformalityVerdict(
                "not_conformal", None, None, spread, None,
                "repeated eigenvalue is defective")

    # real canonical conjugator; complex pairs keep one joint scale so the
    # [[a, b], [-b, a]] block survives the change of basis
    cols = []
    skip = np.zeros(k, dtype=bool)
    for i in range(k):
        if skip[i]:
            continue
        lam, v = eig[i], vec[:, i]
        if abs(lam.imag) < 1e-9 * scale:
            w = np.real(v)
            cols.append(w / np.linalg.norm(w))
            skip[i] = True
        else:
            j = int(np.argmin(np.abs(eig - np.conj(lam)) +
                              np.where(skip, 1e18, 0.0) +
                              np.where(np.arange(k) == i, 1e18, 0.0)))
            w = v / np.linalg.norm(v)
            cols.append(np.real(w))
            cols.append(np.imag(w))
            skip[i] = True
            skip[j] = True
    c = np.stack(cols, axis=1)
    smin = np.linalg.svd(c, compute_uv=False)[-1]
    if smin < 1e-10:
        return ConformalityVerdict("not_conformal", None, None, spread, None,
                                   "canonical frame degenerate")
    x = np.linalg.solve(c, m @ c)
    r = abs(np.linalg.det(x)) ** (1.0 / k)
    err = float(np.linalg.norm(x.T @ x - (r ** 2) * np.eye(k), 2) /
                max(r ** 2, 1e-300))
    if err < 1e-6:
        return ConformalityVerdict("conformal", c, float(np.linalg.cond(c)),
                                   spread, err)
    if err > 1e-3:
        return ConformalityVerdict("not_conformal", None, None, spread, err,
                                   "canonical form is not conformal")
    return ConformalityVerdict("indeterminate", None, None, spread, err,
                               "conformality residual near tolerance")


def conformality_at_periodic(spec: CocycleSpec, orbit: PeriodicOrbit,
                             tol=1e-8):
    prod = cocycle_product(spec, orbit.representative, orbit.period)
    return conformality_check(prod, tol=tol)


# ---------------------------------------------------------------------------
# Fiber bunching
# ---------------------------------------------------------------------------

@dataclass
class FiberBunchingReport:
    value: float            # sup ||A|| ||A^-1|| theta^beta
    margin: float           # 1 - value
    bunched: bool
    theta: float
    beta: float
    grid_n: int


def fiber_bunching_check(spec: CocycleSpec, beta=1.0, theta=None, grid_n=16,
                         anosov_report=None):
    """sup_x ||A(x)|| ||A(x)^-1|| theta^beta against 1."""
    if theta is None:
        if anosov_report is None:
            anosov_report = verify_anosov(spec.f)
        theta = anosov_report.theta
    d = spec.f.dim
    pts = uniform_grid(d, grid_n)
    a = spec.generator(pts)
    na = np.linalg.norm(a, ord=2, axis=(-2, -1))
    nai = np.linalg.norm(np.linalg.inv(a), ord=2, axis=(-2, -1))
    value = float(np.max(na * nai) * theta ** beta)
    return FiberBunchingReport(value=value, margin=1.0 - value,
                               bunched=value < 1.0, theta=float(theta),
                               beta=beta, grid_n=grid_n)


# ---------------------------------------------------------------------------
# Subbundle estimation
# ---------------------------------------------------------------------------

@dataclass
class SubbundleEstimate:
    basis: np.ndarray            # d x dim, orthonormal
    cluster_index: int
    n: int
    angle_to_linear: float       # principal angle to L's subspace (radians)
    convergence: float           # angle between the n/2 and n estimates
    singular_gap: float


def _product_svd(spec, x, n):
    """SVD factors of A(f^-n x, n), accumulated with rescaling."""
    y = np.asarray(x, dtype=float).copy()
    back = []
    for _ in range(n):
        y = spec.f.invert(y)
        back.append(y.copy())
    prod = np.eye(spec.m)
    log_scale = 0.0
    for y in reversed(back):
        prod = spec.generator(y) @ prod
        s = np.max(np.abs(prod))
        if s > 1e100 or s < 1e-100:
            prod = prod / s
            log_scale += np.log(s)
    u, sv, _ = np.linalg.svd(prod)
    return u, sv, log_scale


def oseledets_subbundle(spec: CocycleSpec, x, n, cluster_index,
                        gap_factor=2.0):
    """Finite-time subbundle estimate from singular subspaces of the
    backward-forward product A(f^-n x, n).

    Works for the derivative cocycle; the requested cluster must be
    separated from its neighbours by more than gap_factor times the
    oscillation diagnostic, else GapTooSmall.
    """
    sd = spec.f.spec
    clusters = sd.clusters
    if not 0 <= cluster_index < len(clusters):
        raise ValueError("cluster index out of range")
    dims = [c.total_multiplicity for c in clusters]
    exps = [c.exponent for c in clusters]
    order = np.argsort(exps)[::-1]          # fast to slow
    start = 0
    for idx in order:
        if idx == cluster_index:
            break
        start += dims[idx]
    dim_i = dims[cluster_index]

    qr_rep = lyapunov_qr(spec, x, max(n // 2, 2))
    osc = qr_rep.oscillation
    sorted_exps = np.sort(exps)[::-1]
    pos = list(order).index(cluster_index)
    gaps = []
    if pos > 0:
        gaps.append(sorted_exps[pos - 1] - sorted_exps[pos])
    if pos < len(sorted_exps) - 1:
        gaps.append(sorted_exps[pos] - sorted_exps[pos + 1])
    if gaps and min(gaps) < gap_factor * max(osc, 1e-12):
        raise GapTooSmall(
            f"exponent gap {min(gaps):.3e} below {gap_factor} x oscillation "
            f"{osc:.3e}")

    u_full, sv_full, _ = _product_svd(spec, x, n)
    est = u_full[:, start:start + dim_i]
    u_half, _, _ = _product_svd(spec, x, max(n // 2, 1))
    est_half = u_half[:, start:start + dim_i]
    conv = _principal_angle(est, est_half)

    if spec.kind == "derivative":
        target = sd.cluster_bases[cluster_index]
        angle = _principal_angle(est, target)
    else:
        angle = float("nan")
    lo = start + dim_i
    gap = sv_full[start - 1] / sv_full[start] if start > 0 else np.inf
    gap2 = sv_full[lo - 1] / sv_full[lo] if lo < len(sv_full) else np.inf
    return SubbundleEstimate(basis=est, cluster_index=cluster_index, n=n,
                             angle_to_linear=float(angle),
                             convergence=float(conv),
                             singular_gap=float(min(gap, gap2)))


def _principal_angle(a, b):
    sv = np.linalg.svd(a.T @ b, compute_uv=False)
    sv = np.clip(sv, -1.0, 1.0)
    return float(np.arccos(np.min(sv)))


# ---------------------------------------------------------------------------
# DH as a conjugacy between Df and L
# ---------------------------------------------------------------------------

@dataclass
class CocycleConjugacyReport:
    residual: float
    min_det: float
    holder_dh: object
    grid_n: int

    def as_dict(self):
        return {"residual": self.residual, "min_det": self.min_det,
                "holder_exponent_dh": self.holder_dh.exponent,
                "holder_reliable": self.holder_dh.reliable,
                "grid_n": self.grid_n}


def dh_as_cocycle_conjugacy(conj_result, sample_n=48, pairs=4000, seed=2):
    """Residual of L DH(x) = DH(f x) Df(x) plus a modulus-of-continuity
    fit for DH (the numerical counterpart of Holder continuity of the
    transfer map)."""
    from .conjugacy import jacobian_dh
    rep = jacobian_dh(conj_result, sample_n=sample_n)
    f = conj_result.f
    d = f.dim
    tp = conj_result.h_grid.to_trig(threshold=1e-13)
    jac_eval = lambda p: tp.eval_jacobian(p).real.reshape(
        np.asarray(p).shape[:-1] + (d * d,))
    est = estimate_holder(jac_eval, dim=d, pairs=pairs, seed=seed,
                          j_max=max(6, int(np.log2(conj_result.grid_n)) - 1))
    return CocycleConjugacyReport(residual=rep.residual_eq,
                                  min_det=rep.min_det, holder_dh=est,
                                  grid_n=rep.sample_n)
