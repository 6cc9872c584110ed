"""Linear cocycles over a perturbed toral automorphism.

Products along orbits, finite-time Lyapunov exponents (QR
reorthogonalized once per chunk of steps, pointwise / volume-averaged /
at periodic points), conformality and fiber-bunching diagnostics, and
singular-subspace estimates of the invariant subbundles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conjugacy import jacobian_dh
from .errors import (GapTooSmall, LostOrthogonality, SingularGenerator)
from .maps import PerturbedMap, PeriodicOrbit, verify_anosov
from .torusfn import uniform_grid


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

    def invertibility_report(self):
        pts = uniform_grid(self.f.dim, 24)
        dets = np.linalg.det(self.generator(pts))
        return float(np.min(np.abs(dets)))


def cocycle_product(spec: CocycleSpec, x, n):
    """Ordered product A(f^{n-1}x) ... A(x); negative n via the inverse
    of the forward product started at f^n x.

    For n > 0 the orbit x, f x, ..., f^{n-1} x is walked first, and the
    product is taken over it by _orbit_product, from one generator call.
    """
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.eye(spec.m)
    if n < 0:
        y = x.copy()
        for _ in range(-n):
            y = spec.f.invert(y)[0]
        return np.linalg.inv(cocycle_product(spec, y, -n))
    pts = np.empty((n,) + x.shape)
    pts[0] = x
    for k in range(1, n):
        pts[k] = spec.f.apply(pts[k - 1])
    return _orbit_product(spec, pts)


def _orbit_product(spec, points):
    """A(p_{n-1}) ... A(p_0) over the orbit points p_k = points[k].

    The generator is evaluated at all n points in one call.  A generator
    with |det A| < 1e-14 max(||A||_F, 1) at some point raises
    SingularGenerator naming the first such point.
    """
    a = spec.generator(points)
    small = np.abs(np.linalg.det(a)) < \
        1e-14 * np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1.0)
    if np.any(small):
        raise SingularGenerator(
            f"generator singular near {points[np.argmax(small)]}")
    acc = np.eye(spec.m)
    for ak in a:
        acc = ak @ acc
    return acc


@dataclass
class ExponentReport:
    """Finite-time exponents per direction.

    `exponents` discards the first half of the run (the frame-alignment
    transient of the QR scheme), which is exact for a constant normal
    generator; `full_average` keeps the plain (1/n) sums and
    `oscillation` is the gap between the two.  `det_consistency` is
    |sum full_average - (1/n) log |det product||.  The QR scheme takes its
    last diagonal from log |det|, so there it holds by construction and
    reads the rounding of the sums, not an independent check of the frame;
    at periodic points it compares the eigenvalues with the determinant.
    """
    exponents: np.ndarray          # ascending, transient-discarded
    n: int
    oscillation: float
    det_consistency: float
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
BIRKHOFF_FACTOR = 8     # lyapunov_volume's Birkhoff orbit: 8 n steps
# Matrix entries of the largest block of generator values _lyapunov_batch
# holds at once (256 KB): n steps at S points take about n S m^2 / 2^15
# generator calls, never one (n, S, m, m) stack.  Blocks of 2^17 entries
# were no faster on the lyapunov scenario and raised its peak RSS by 3 MB.
LYAPUNOV_BLOCK = 1 << 15
# Log budget of one chunk of _lyapunov_batch (m <= 2).  Every
# singular value of a product P of steps a_j lies between
# prod 1/||a_j^-1||_F and prod ||a_j||_F.  While the chunk's sum of
# |log ||a_j||_F| + |log ||a_j^-1||_F| stays under ln 2^500, every partial
# product of its tree, and B q, has its singular values in [2^-500, 2^500].
# The square of an entry, or the product of two, is then below 2^1000, so
# nothing overflows (2^1024), and what underflows (below 2^-1022) is under
# 2^-522 eps of the product's norm, so no direction is lost to it.
CHUNK_LOG_BUDGET = 500 * np.log(2.0)


def lyapunov_qr(spec: CocycleSpec, x, n):
    """Finite-time exponents at one point by QR reorthogonalization."""
    if n > MAX_ITER:
        raise ValueError(f"n exceeds the configured bound {MAX_ITER}")
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    rep = _lyapunov_batch(spec, np.asarray(x, float)[None, :], n)
    return ExponentReport(exponents=rep["exps"][0], n=n,
                          oscillation=rep["osc"],
                          det_consistency=rep["det"][0],
                          full_average=rep["full"][0])


def _lyapunov_batch(spec, xs, n):
    """QR exponents over n steps from each of the S points xs (S, d).

    The orbit is walked a block of steps at a time, at most
    LYAPUNOV_BLOCK matrix entries of generator values per block, and each
    block's generators come from one call.  A block is cut into chunks of
    consecutive steps, none crossing the tail start n // 2, and the frame
    is reorthonormalized once per chunk (Benettin, Galgani, Giorgilli &
    Strelcyn, Meccanica 15, 1980): Q R = B q for the chunk's product
    B = a_{j+k-1} ... a_j, whose diag R is the product of the per-step
    ones.  For m <= 2 each chunk is the longest run of steps from its
    start with sum |log ||a_j||_F| + |log ||a_j^-1||_F| <= CHUNK_LOG_BUDGET
    at every point, so that B neither overflows nor underflows.  No other
    bound is needed there: the one diagonal read from the QR is
    r_11 = |B q_1|, a column norm, accurate whatever cond(B) is.  For
    m >= 3 the middle diagonals lose about eps cond(B), so every chunk is
    one step.  The last diagonal is never read: log r_mm =
    sum log |det a_j| - sum_{i<m} log r_ii, with log |det a_j| from
    slogdet.  The products of a block's chunks come from pairwise trees
    of batched matmuls (_chunk_products).

    A step whose det a_j is zero or whose log |det a_j| is not finite
    raises LostOrthogonality naming that step, and so does a chunk with
    an r_ii, i < m, that is not finite and positive.
    """
    s_count, m = xs.shape[0], spec.m
    q = np.broadcast_to(np.eye(m), (s_count, m, m)).copy()
    sums = np.zeros((s_count, m))
    tail = np.zeros((s_count, m))
    logdet = np.zeros(s_count)
    tail_start = n // 2
    block = max(1, LYAPUNOV_BLOCK // (s_count * m * m))
    y = xs.copy()
    for start in range(0, n, block):
        count = min(block, n - start)
        ys = np.empty((count,) + xs.shape)
        for j in range(count):
            if start + j:
                y = spec.f.apply(y)
            ys[j] = y
        a = spec.generator(ys)
        sign, step_logdet = np.linalg.slogdet(a)
        bad = np.any((sign == 0) | ~np.isfinite(step_logdet), axis=1)
        if np.any(bad):
            raise LostOrthogonality(
                f"degenerate QR frame at step {start + int(np.argmax(bad))}")
        starts = _chunk_starts(a, step_logdet,
                               min(max(tail_start - start, 0), count))
        chunk_logdet = np.add.reduceat(step_logdet, starts, axis=0)
        for lo, prod, ld in zip(starts + start, _chunk_products(a, starts),
                                chunk_logdet):
            q, r = _qr_positive(prod @ q)
            diag = np.diagonal(r, axis1=-2, axis2=-1)[:, :m - 1]
            if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
                raise LostOrthogonality(
                    f"degenerate QR frame in the chunk from step {lo}")
            logs = np.log(diag)
            logs = np.concatenate([logs, (ld - logs.sum(axis=1))[:, None]],
                                  axis=1)
            sums += logs
            if lo >= tail_start:
                tail += logs
        logdet += step_logdet.sum(axis=0)
    full = np.sort(sums / n, axis=1)
    refined = np.sort(tail / max(n - tail_start, 1), axis=1)
    osc = float(np.max(np.abs(full - refined)))
    det = np.abs(full.sum(axis=1) - logdet / n)
    return {"exps": refined, "full": full, "osc": osc, "det": det}


def _chunk_starts(a, logdet, cut):
    """First steps of the chunks of one block of generators a (k, S, m, m)
    with log |det| logdet (k, S), none crossing step cut: for m <= 2 each
    chunk the longest run of steps from its start that keeps
    _lyapunov_batch's log budget at every point, for m >= 3 one step."""
    m = a.shape[-1]
    if m >= 3:
        return np.arange(len(a))
    with np.errstate(over="ignore", under="ignore", divide="ignore",
                     invalid="ignore"):
        log_a = np.log(np.sqrt(np.einsum("...ij,...ij->...", a, a)))
        # a^-1 = adj(a) / det a, and adj(a) has a's entries for m = 2 and
        # is [1] for m = 1
        log_inv = log_a - logdet if m == 2 else -logdet
        cost = np.max(np.abs(log_a) + np.abs(log_inv), axis=1)
    # a step over the budget (or NaN, from inf - inf, or with a norm that
    # over- or underflows) is a chunk of its own
    cum = np.concatenate([[0.0], np.cumsum(np.fmin(cost, CHUNK_LOG_BUDGET))])
    starts = []
    for lo, hi in ((0, cut), (cut, len(a))):
        j = lo
        while j < hi:
            starts.append(j)
            j = min(hi, max(j + 1, int(np.searchsorted(
                cum, cum[j] + CHUNK_LOG_BUDGET, side="right")) - 1))
    return np.array(starts, dtype=int)


def _chunk_products(a, starts):
    """B = a[e-1] ... a[s] for each chunk [s, e) of the steps a (k, ...),
    chunk i starting at starts[i] and ending where the next starts.

    Chunks are padded at the end with exact identities to a power-of-two
    length w and multiplied in pairs, log2 w batched matmuls for all the
    chunks of that length at once; one tree per length keeps the padding
    under half of each tree.
    """
    lengths = np.diff(np.append(starts, len(a)))
    widths = np.array([1 << (int(k) - 1).bit_length() for k in lengths])
    out = np.empty((len(starts),) + a.shape[1:])
    eye = np.eye(a.shape[-1])
    for w in sorted(set(widths.tolist())):
        sel = np.flatnonzero(widths == w)
        ks = lengths[sel]
        offset = np.repeat(np.cumsum(ks) - ks, ks)
        pos = np.arange(ks.sum()) - offset
        tree = np.broadcast_to(eye, (len(sel), w) + a.shape[1:]).copy()
        tree[np.repeat(np.arange(len(sel)), ks), pos] = \
            a[np.repeat(starts[sel], ks) + pos]
        while tree.shape[1] > 1:
            tree = tree[:, 1::2] @ tree[:, ::2]
        out[sel] = tree[:, 0]
    return out


def lyapunov_volume(spec: CocycleSpec, n, grid_per_axis=8, reference=None,
                    seed=0):
    """Volume proxy: exponents averaged over a uniform grid of seeds.

    Also runs one long Birkhoff orbit (BIRKHOFF_FACTOR * n steps from a
    seeded random point) as an independent estimate; both are reported.
    """
    if n > MAX_ITER:
        raise ValueError(f"n exceeds the configured bound {MAX_ITER}")
    if n < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    d = spec.f.dim
    xs = uniform_grid(d, grid_per_axis) + 0.5 / grid_per_axis
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
    report.birkhoff = _lyapunov_batch(spec, x0,
                                      BIRKHOFF_FACTOR * n)["exps"][0]
    return report


def _periodic_product(spec, orbit):
    """A(p_{n-1}) ... A(p_0) around a periodic orbit of spec.f.

    The derivative cocycle reads the orbit's deriv_product, which
    periodic_points formed, and raises SingularGenerator when
    |det| < 1e-14 max(||P||_F, 1); the other kinds take _orbit_product.
    """
    if spec.kind != "derivative":
        return _orbit_product(spec, orbit.points)
    prod = orbit.deriv_product
    if abs(np.linalg.det(prod)) < 1e-14 * max(np.linalg.norm(prod), 1.0):
        raise SingularGenerator(
            f"derivative product singular near {orbit.representative}")
    return prod


def _exponent_reports(prods, periods, reference):
    """ExponentReport of each product in the (K, m, m) stack prods, the
    k-th taken around an orbit of period periods[k]: one eigvals and one
    det over the stack."""
    periods = np.asarray(periods)
    exps = np.sort(np.log(np.abs(np.linalg.eigvals(prods))) /
                   periods[:, None], axis=-1)
    logdet = np.log(np.abs(np.linalg.det(prods))) / periods
    reports = []
    for row, n, ld in zip(exps, periods.tolist(), logdet):
        report = ExponentReport(exponents=row, n=n, oscillation=0.0,
                                det_consistency=float(abs(row.sum() - ld)))
        if reference is not None:
            report.compare(reference)
        reports.append(report)
    return reports


def exponents_at_periodic(spec: CocycleSpec, orbit: PeriodicOrbit,
                          reference=None):
    """Periodic exponents: log-moduli of the float eigenvalues of the
    float orbit product A_p^n, divided by n.  They are as accurate as the
    product and LAPACK's eigenvalues; no enclosure backs them.

    orbit must come from periodic_points(spec.f, ...).  For the derivative
    kind the product is the orbit's deriv_product, and the singularity
    test (SingularGenerator) applies to D f^period, not to each step.
    periodic_diagnostics gives the same report for many orbits at once.
    """
    prod = _periodic_product(spec, orbit)
    return _exponent_reports(prod[None], [orbit.period], reference)[0]


def periodic_diagnostics(spec: CocycleSpec, orbits, reference):
    """(exponents_at_periodic, conformality_at_periodic) of each orbit,
    bit for bit, from one product per orbit.

    The products are formed in orbit order, so a SingularGenerator names
    the first singular orbit, and the eigenvalues, determinants and
    eigenvectors of all of them come from one eigvals, one det and one
    eig over their stack.  eigvals and eig stay separate calls: LAPACK
    may round eigenvalues differently when it also computes eigenvectors.
    """
    if not orbits:
        return []
    prods = np.stack([_periodic_product(spec, o) for o in orbits])
    reports = _exponent_reports(prods, [o.period for o in orbits],
                                reference)
    eig, vec = np.linalg.eig(prods)
    return [(rep, _conformality_verdict(p, e, v))
            for rep, p, e, v in zip(reports, prods, eig, vec)]


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


def conformality_check(matrix):
    """Is the matrix similar to a scalar multiple of an orthogonal one?

    Requires all eigenvalue moduli equal (within tol = 1e-8) and
    semisimplicity (rank test); when both hold the real canonical
    conjugator C_p is returned with its condition number.
    """
    m = np.asarray(matrix, dtype=float)
    return _conformality_verdict(m, *np.linalg.eig(m))


def _conformality_verdict(m, eig, vec):
    """conformality_check of the matrix m from its eigenvalues eig and
    eigenvectors vec, as np.linalg.eig returns them for m alone or for a
    stack holding m.  A stack with complex eigenvalues anywhere returns
    complex arrays for every matrix; every step below reads real ones
    with zero imaginary parts to the same bits."""
    tol = 1e-8
    k = m.shape[0]
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


def conformality_at_periodic(spec: CocycleSpec, orbit: PeriodicOrbit):
    """conformality_check of the product around orbit, which must come
    from periodic_points(spec.f, ...); for the derivative kind that is the
    orbit's deriv_product, tested for singularity as a whole."""
    return conformality_check(_periodic_product(spec, orbit))


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


def fiber_bunching_check(spec: CocycleSpec, beta=1.0, anosov_report=None):
    """sup_x ||A(x)|| ||A(x)^-1|| theta^beta against 1, on a grid of 16^d
    points, theta read off anosov_report (verify_anosov(spec.f) if None)."""
    if anosov_report is None:
        anosov_report = verify_anosov(spec.f)
    theta = anosov_report.theta
    pts = uniform_grid(spec.f.dim, 16)
    a = spec.generator(pts)
    na = np.linalg.norm(a, ord=2, axis=(-2, -1))
    nai = np.linalg.norm(np.linalg.inv(a), ord=2, axis=(-2, -1))
    value = float(np.max(na * nai) * theta ** beta)
    return FiberBunchingReport(value=value, margin=1.0 - value,
                               bunched=value < 1.0, theta=float(theta),
                               beta=beta, grid_n=16)


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


def _product_svd(spec, back):
    """SVD of A(f^-n x, n) from back = [f^-1 x, ..., f^-n x], rescaled."""
    prod = np.eye(spec.m)
    for y in reversed(back):
        prod = spec.generator(y) @ prod
        s = np.max(np.abs(prod))
        if s > 1e100 or s < 1e-100:
            prod = prod / s
    return np.linalg.svd(prod)


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

    y = np.asarray(x, dtype=float).copy()
    back = []                               # f^-1 x, ..., f^-n x
    for _ in range(max(n, 1)):
        y = spec.f.invert(y)[0]
        back.append(y.copy())
    u_full, sv_full, _ = _product_svd(spec, back[:n])
    est = u_full[:, start:start + dim_i]
    u_half, _, _ = _product_svd(spec, back[:max(n // 2, 1)])
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


def dh_as_cocycle_conjugacy(conj_result):
    """Residual of L DH(x) = DH(f x) Df(x), from the result's jacobian_dh
    report, plus its modulus-of-continuity fit for DH, holder_dh (the
    numerical counterpart of Holder continuity of the transfer map)."""
    rep = jacobian_dh(conj_result)
    return CocycleConjugacyReport(residual=rep.residual_eq,
                                  min_det=rep.min_det,
                                  holder_dh=conj_result.holder_dh,
                                  grid_n=rep.sample_n)
