"""Exact spectral analysis and classification of integer toral automorphisms.

The exact layer (characteristic polynomial, factorization over Q,
structured root tests) runs in integer/rational arithmetic; eigenvalue
locations come from certified discs with escalating precision, so no
modulus comparison is ever decided inside its own error bar.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import exactalg, factor, intpoly, roots
from .errors import ConvergenceFailure, Indeterminate, NotHyperbolic

MODULUS_TOL = 1e-9          # moduli closer than this are one Lyapunov cluster
RADIUS_TARGET = 1e-12       # certification radius required before deciding
PRECISION_RETRIES = 3       # doublings of the root discs' 30 digits
LATTICE_RADIUS = 20         # search ball for the definitional cross-check


# ---------------------------------------------------------------------------
# The automorphism itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegerAutomorphism:
    """A d x d integer matrix with determinant +-1, acting on the torus."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.entries)
        object.__setattr__(self, "entries", rows)
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise ValueError("entries must form a square matrix")
        if abs(exactalg.det_bareiss([list(r) for r in rows])) != 1:
            raise ValueError("matrix must be invertible over Z (|det| = 1)")

    @property
    def dim(self):
        return len(self.entries)

    @property
    def det(self):
        return exactalg.det_bareiss([list(r) for r in self.entries])

    def as_array(self):
        return np.array(self.entries, dtype=float)

    def rows(self):
        return [list(r) for r in self.entries]

    def inverse(self):
        return IntegerAutomorphism(exactalg.inverse_unimodular(self.rows()))

    def power(self, n):
        if n == 0:
            return IntegerAutomorphism(exactalg.identity(self.dim))
        base = self if n > 0 else self.inverse()
        return IntegerAutomorphism(exactalg.mat_pow(base.rows(), abs(n)))

    def __matmul__(self, other):
        return IntegerAutomorphism(exactalg.mat_mul(self.rows(), other.rows()))


def automorphism(rows):
    """Build an IntegerAutomorphism from any nested-iterable of ints."""
    return IntegerAutomorphism(rows)


def block_diagonal(a, b):
    ra, rb = a.rows(), b.rows()
    da, db = len(ra), len(rb)
    rows = []
    for i in range(da):
        rows.append(ra[i] + [0] * db)
    for i in range(db):
        rows.append([0] * da + rb[i])
    return automorphism(rows)


def block_upper_identity(a):
    """The block matrix [[A, I], [0, A]]."""
    ra = a.rows()
    d = len(ra)
    rows = []
    for i in range(d):
        rows.append(ra[i] + [1 if j == i else 0 for j in range(d)])
    for i in range(d):
        rows.append([0] * d + ra[i])
    return automorphism(rows)


def random_unimodular(d, steps=12, rng=None, entry_cap=30):
    """Random element of GL(d, Z) from elementary row operations.

    Shears are rejected when entries would exceed entry_cap, keeping the
    corpus at desk scale.
    """
    rng = np.random.default_rng(rng)
    m = exactalg.identity(d)
    for _ in range(steps):
        i, j = rng.integers(0, d, size=2)
        if i == j:
            continue
        c = int(rng.integers(-2, 3))
        if c == 0:
            c = 1
        cand = [row[:] for row in m]
        for k in range(d):
            cand[i][k] += c * cand[j][k]
        if max(abs(x) for row in cand for x in row) <= entry_cap:
            m = cand
    return automorphism(m)


# ---------------------------------------------------------------------------
# Characteristic polynomial and factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharPolyFactorization:
    charpoly: tuple                  # det(xI - M), monic, low-to-high
    factors: tuple                   # ((coeffs,), multiplicity) pairs


def char_poly(m):
    """Exact characteristic polynomial det(xI - M), low-to-high coefficients."""
    return exactalg.charpoly(m.rows())


def factorization(m):
    p = char_poly(m)
    facs = tuple((tuple(g), mult) for g, mult in factor.factor_over_q(p))
    return CharPolyFactorization(charpoly=tuple(p), factors=facs)


# ---------------------------------------------------------------------------
# Certified spectral data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifiedRoot:
    value: complex
    radius: float
    factor_index: int
    multiplicity: int
    modulus_exact_one: bool = False

    @property
    def modulus(self):
        return 1.0 if self.modulus_exact_one else abs(self.value)

    @property
    def modulus_interval(self):
        if self.modulus_exact_one:
            return (1.0, 1.0)
        m = abs(self.value)
        return (max(m - self.radius, 0.0), m + self.radius)


@dataclass(frozen=True)
class ModulusCluster:
    rho: float
    root_indices: tuple
    total_multiplicity: int
    factor_indices: frozenset

    @property
    def exponent(self):
        return float(np.log(self.rho))


@dataclass
class AdaptedNorm:
    """Inner-product norm |c|_G^2 = c^T G c = |R c|^2 on a subspace, in the
    coordinates c of its basis, that makes A strictly contract.

    A is the restricted map (or its inverse on an expanding subspace) and
    sigma = (rho(A) + 1) / 2.  G = sum_k sigma^(-2k) (A^k)^T A^k is the
    unique solution of the Stein equation G - B^T G B = I with B = A/sigma,
    so |A c|_G^2 = sigma^2 (|c|_G^2 - |c|^2) < sigma^2 |c|_G^2, Jordan
    blocks included.
    """
    chol: np.ndarray           # upper-triangular R with G = R^T R
    contraction: float         # factor of A in the G-norm, below sigma


def _adapted_norm(restricted, spectral_radius):
    """The adapted norm of `restricted` from one Stein solve:
    (I - kron(B^T, B^T)) vec G = vec I, with B = restricted / sigma."""
    sigma = 0.5 * (spectral_radius + 1.0)
    k = restricted.shape[0]
    bt = restricted.T / sigma
    gram = np.linalg.solve(np.eye(k * k) - np.kron(bt, bt),
                           np.eye(k).ravel()).reshape(k, k)
    chol = np.linalg.cholesky(0.5 * (gram + gram.T), upper=True)
    # contraction of `restricted` in the G-norm = 2-norm of R A R^-1
    contraction = float(np.linalg.norm(chol @ restricted @
                                       np.linalg.inv(chol), 2))
    return AdaptedNorm(chol=chol, contraction=contraction)


@dataclass
class SpectralData:
    """Certified spectral data of one automorphism.  The cached properties
    (adapted norms, splitting basis) are built on first read, and are read
    only for a hyperbolic automorphism: classification never reads them."""
    automorphism: IntegerAutomorphism
    factorization: CharPolyFactorization
    roots: list
    clusters: list
    cluster_bases: list            # real orthonormal basis per cluster
    stable_basis: np.ndarray
    unstable_basis: np.ndarray
    hyperbolic: bool

    @property
    def unstable_dim(self):
        return self.unstable_basis.shape[1]

    @property
    def exponents(self):
        """Lyapunov exponents log rho_i with multiplicity, ascending."""
        out = []
        for c in self.clusters:
            out.extend([c.exponent] * c.total_multiplicity)
        return sorted(out)

    def restricted_unstable(self):
        b = self.unstable_basis
        return b.T @ self.automorphism.as_array() @ b

    def restricted_stable(self):
        b = self.stable_basis
        return b.T @ self.automorphism.as_array() @ b

    @functools.cached_property
    def restricted_unstable_inv(self):
        """L_u^-1 on E^u, in the coordinates of unstable_basis."""
        return np.linalg.inv(self.restricted_unstable())

    @functools.cached_property
    def stable_norm(self):
        """Adapted norm of L_s on E^s."""
        rho = max(c.rho for c in self.clusters if c.rho < 1.0)
        return _adapted_norm(self.restricted_stable(), rho)

    @functools.cached_property
    def unstable_norm(self):
        """Adapted norm of L_u^-1 on E^u."""
        rho = min(c.rho for c in self.clusters if c.rho > 1.0)
        return _adapted_norm(self.restricted_unstable_inv, 1.0 / rho)

    @functools.cached_property
    def basis_full(self):
        """[B_u | B_s]: splitting coordinates to standard ones."""
        return np.concatenate([self.unstable_basis, self.stable_basis], 1)

    @functools.cached_property
    def basis_full_inv(self):
        return np.linalg.inv(self.basis_full)

    @functools.cached_property
    def adapted_transform(self):
        """(T, T^-1), T = diag(R_u, R_s) [B_u | B_s]^-1: standard
        coordinates to adapted ones, where both norms are Euclidean."""
        du = self.unstable_dim
        t = np.zeros((self.automorphism.dim,) * 2)
        t[:du, :] = self.unstable_norm.chol @ self.basis_full_inv[:du, :]
        t[du:, :] = self.stable_norm.chol @ self.basis_full_inv[du:, :]
        return t, np.linalg.inv(t)


def _real_poly_from_roots(root_list):
    """Real monic polynomial (float coeffs) with the given root multiset."""
    poly = np.array([1.0])
    used = [False] * len(root_list)
    for i, z in enumerate(root_list):
        if used[i]:
            continue
        if abs(z.imag) < 1e-14:
            poly = np.convolve(poly, [1.0, -z.real])
            used[i] = True
        else:
            # pair with its conjugate (must exist in the multiset)
            j = min((k for k in range(len(root_list))
                     if not used[k] and k != i
                     and abs(root_list[k] - z.conjugate()) < 1e-8),
                    default=None)
            poly = np.convolve(poly, [1.0, -2 * z.real, abs(z) ** 2])
            used[i] = True
            if j is not None:
                used[j] = True
    return poly[::-1]  # low-to-high


def _eval_poly_matrix(coeffs_low, m):
    d = m.shape[0]
    acc = np.zeros_like(m)
    for c in reversed(coeffs_low):
        acc = acc @ m + c * np.eye(d)
    return acc


def _certify_roots_all(facs, dps):
    out = []
    for idx, (coeffs, mult) in enumerate(facs):
        cyclo = intpoly.is_cyclotomic(list(coeffs))
        for disc in roots.certified_roots(list(coeffs), dps=dps):
            out.append(CertifiedRoot(value=disc.center, radius=disc.radius,
                                     factor_index=idx, multiplicity=mult,
                                     modulus_exact_one=cyclo))
    return out


def _try_cluster(certified):
    """Group certified roots by modulus; None if any decision is uncertified."""
    order = sorted(range(len(certified)), key=lambda i: certified[i].modulus)
    groups = []
    for i in order:
        r = certified[i]
        if groups:
            prev = certified[groups[-1][-1]]
            gap = abs(r.modulus - prev.modulus)
            margin = r.radius + prev.radius
            if gap + margin <= MODULUS_TOL:
                groups[-1].append(i)
                continue
            if gap - margin <= MODULUS_TOL:
                return None  # ambiguous at this precision
        groups.append([i])
    clusters = []
    for g in groups:
        rho = float(np.mean([certified[i].modulus for i in g]))
        if any(certified[i].modulus_exact_one for i in g):
            rho = 1.0
        clusters.append(ModulusCluster(
            rho=rho,
            root_indices=tuple(g),
            total_multiplicity=sum(certified[i].multiplicity for i in g),
            factor_indices=frozenset(certified[i].factor_index for i in g)))
    return clusters


def _hyperbolicity(certified):
    """True/False when certified, None when ambiguous."""
    verdict = True
    for r in certified:
        if r.modulus_exact_one:
            verdict = False
            continue
        lo, hi = r.modulus_interval
        if hi <= 1.0 + MODULUS_TOL and lo >= 1.0 - MODULUS_TOL:
            verdict = False
        elif lo > 1.0 + MODULUS_TOL or hi < 1.0 - MODULUS_TOL:
            continue
        else:
            return None
    return verdict


@functools.lru_cache(maxsize=256)
def _spectral_cached(entries):
    m = IntegerAutomorphism(entries)
    facs = factorization(m)
    certified = clusters = None
    hyperbolic = None
    for attempt in range(PRECISION_RETRIES + 1):
        cur_dps = 30 * (2 ** attempt)
        try:
            certified = _certify_roots_all(facs.factors, cur_dps)
        except ConvergenceFailure:
            if attempt == PRECISION_RETRIES:
                raise
            continue
        if max((r.radius for r in certified), default=0.0) > RADIUS_TARGET \
                and attempt < PRECISION_RETRIES:
            continue
        clusters = _try_cluster(certified)
        hyperbolic = _hyperbolicity(certified)
        if clusters is not None and hyperbolic is not None:
            break
    if clusters is None or hyperbolic is None:
        raise Indeterminate(
            "modulus comparison not certified at maximum precision")

    mf = m.as_array()
    d = m.dim
    # real invariant subspace per cluster via products of the other clusters'
    # annihilating polynomials
    cluster_polys = []
    for c in clusters:
        rs = []
        for idx in c.root_indices:
            rs.extend([certified[idx].value] * certified[idx].multiplicity)
        cluster_polys.append(_real_poly_from_roots(rs))
    cluster_mats = [_eval_poly_matrix(q, mf) for q in cluster_polys]

    def _annihilated(skip):
        """SVD of the normalized product of the unskipped clusters' q(M)."""
        t = np.eye(d)
        for j, q_m in enumerate(cluster_mats):
            if skip(j):
                continue
            t = q_m @ t
            nrm = np.linalg.norm(t, 2)
            if nrm > 0:
                t = t / nrm
        u, s, _ = np.linalg.svd(t)
        return u, s

    bases = []
    for i, c in enumerate(clusters):
        dim_i = c.total_multiplicity
        u, s = _annihilated(lambda j: j == i)
        if dim_i < d and s[dim_i] > 1e-6 * s[0]:
            raise Indeterminate("cluster subspace rank not well separated")
        basis = u[:, :dim_i]
        resid = np.linalg.norm(mf @ basis - basis @ (basis.T @ mf @ basis), 2)
        if resid > 1e-7 * np.linalg.norm(mf, 2):
            raise Indeterminate("cluster subspace not numerically invariant")
        bases.append(basis)

    def _side_basis(selector):
        k = sum(c.total_multiplicity for c in clusters if selector(c.rho))
        if not k:
            return np.zeros((d, 0))
        return _annihilated(lambda j: selector(clusters[j].rho))[0][:, :k]

    stable_basis = _side_basis(lambda rho: rho < 1.0 - MODULUS_TOL)
    unstable_basis = _side_basis(lambda rho: rho > 1.0 + MODULUS_TOL)

    if hyperbolic and not (stable_basis.size and unstable_basis.size):
        # purely expanding or purely contracting cannot happen for |det|=1
        raise Indeterminate("hyperbolic automorphism with one-sided spectrum")

    return SpectralData(automorphism=m, factorization=facs, roots=certified,
                        clusters=clusters, cluster_bases=bases,
                        stable_basis=stable_basis,
                        unstable_basis=unstable_basis, hyperbolic=hyperbolic)


def spectral_data(m):
    """Certified roots, modulus clusters, and invariant subspaces of m."""
    return _spectral_cached(m.entries)


def lyapunov_splitting(m):
    """SpectralData of a hyperbolic automorphism; raises NotHyperbolic."""
    sd = spectral_data(m)
    if not sd.hyperbolic:
        raise NotHyperbolic("automorphism has eigenvalues on the unit circle")
    return sd


# ---------------------------------------------------------------------------
# Classification flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationFlags:
    hyperbolic: bool
    irreducible: bool
    weakly_irreducible: bool
    no_three_same_modulus: bool
    no_forbidden_pairs: bool
    diagonalizable: bool
    moduli_by_factor: tuple      # per factor: sorted tuple of cluster moduli
    cluster_moduli: tuple        # (rho, multiplicity) ascending

    def as_dict(self):
        return {
            "hyperbolic": self.hyperbolic,
            "irreducible": self.irreducible,
            "weakly_irreducible": self.weakly_irreducible,
            "no_three_same_modulus": self.no_three_same_modulus,
            "no_forbidden_pairs": self.no_forbidden_pairs,
            "diagonalizable": self.diagonalizable,
            "moduli_by_factor": [list(t) for t in self.moduli_by_factor],
            "cluster_moduli": [list(t) for t in self.cluster_moduli],
        }


def classify(m):
    """All hypothesis flags used downstream, from certified spectral data."""
    sd = spectral_data(m)
    facs = sd.factorization
    d = m.dim

    irreducible = (len(facs.factors) == 1 and facs.factors[0][1] == 1 and
                   intpoly.degree(list(facs.factors[0][0])) == d)

    # Delta per factor: the set of cluster moduli touched by its roots
    per_factor = []
    for idx in range(len(facs.factors)):
        touched = sorted({c.rho for c in sd.clusters
                          if idx in c.factor_indices})
        per_factor.append(tuple(touched))
    weakly = all(t == per_factor[0] for t in per_factor)

    no_three = all(c.total_multiplicity <= 2 for c in sd.clusters)

    p = list(facs.charpoly)
    forbidden = intpoly.has_real_plus_minus_pair(p) or \
        intpoly.has_imaginary_pair(p)

    radical = [1]
    for coeffs, _ in facs.factors:
        radical = intpoly.mul(radical, list(coeffs))
    diag = all(x == 0 for row in exactalg.eval_matrix(radical, m.rows())
               for x in row)

    return ClassificationFlags(
        hyperbolic=sd.hyperbolic,
        irreducible=irreducible,
        weakly_irreducible=weakly,
        no_three_same_modulus=no_three,
        no_forbidden_pairs=not forbidden,
        diagonalizable=diag,
        moduli_by_factor=tuple(per_factor),
        cluster_moduli=tuple((c.rho, c.total_multiplicity)
                             for c in sd.clusters))


# ---------------------------------------------------------------------------
# Definitional weak-irreducibility cross-check (lattice search)
# ---------------------------------------------------------------------------

def _lattice_candidates(projector_rows):
    """Integer vectors likely to lie near the kernel of the projector.

    LLL on the embedding {(v, 10^10 P v)}; returns the reduced basis
    vectors plus small pairwise combinations.
    """
    p = np.asarray(projector_rows, float)
    m, d = p.shape
    rows = []
    for j in range(d):
        emb = [int(round(p[i, j] * 10 ** 10)) for i in range(m)]
        rows.append([1 if t == j else 0 for t in range(d)] + emb)
    reduced = exactalg.lll_reduce(rows)
    cands = []
    vecs = [r[:d] for r in reduced]
    for v in vecs:
        cands.append(v)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            cands.append([a + b for a, b in zip(vecs[i], vecs[j])])
            cands.append([a - b for a, b in zip(vecs[i], vecs[j])])
    return cands


def _vector_in_hat_subspace_exact(m, v, facs, cluster_factor_indices):
    """Exact test: does integer v lie in the sum of the other clusters'
    generalized eigenspaces (i.e. has no component on cluster i)?

    Uses the minimal polynomial of v: membership holds iff no factor
    owning a root of cluster i divides it.
    """
    if all(x == 0 for x in v):
        return False
    mv = exactalg.minimal_poly_of_vector(m.rows(), list(v))
    for idx in cluster_factor_indices:
        g = list(facs.factors[idx][0])
        if intpoly.divides(g, mv):
            return False
    return True


def weakly_irreducible_definitional(m):
    """Lattice-search verdict on weak irreducibility, with witness.

    Heuristic search (LLL + small combinations, sup-norm ball LATTICE_RADIUS)
    for a nonzero integer vector inside some hat E^i; every candidate is
    verified exactly before being accepted.  Returns (verdict, witness).
    """
    sd = spectral_data(m)
    facs = sd.factorization
    d = m.dim
    for i, cluster in enumerate(sd.clusters):
        others = [sd.cluster_bases[j] for j in range(len(sd.clusters))
                  if j != i]
        if not others:
            continue
        hat = np.concatenate(others, axis=1)
        # rows span (hat E)^perp: scipy's null_space rank rule on hat^T
        _, sv, vh = np.linalg.svd(hat.T, full_matrices=True)
        rank = int(np.sum(sv > max(hat.shape) * np.finfo(float).eps *
                          sv.max(initial=0.0)))
        projector = vh[rank:]
        if projector.size == 0:
            continue
        for v in _lattice_candidates(projector):
            if all(x == 0 for x in v):
                continue
            if max(abs(x) for x in v) > LATTICE_RADIUS:
                continue
            vf = np.array(v, float)
            if np.linalg.norm(projector @ vf) > 1e-6 * max(
                    1.0, np.linalg.norm(vf)):
                continue
            if _vector_in_hat_subspace_exact(m, v, facs,
                                             cluster.factor_indices):
                return False, tuple(v)
    return True, None


# ---------------------------------------------------------------------------
# Structured text records
# ---------------------------------------------------------------------------

def classification_report(m):
    """JSON-compatible record with all flags and certified moduli."""
    sd = spectral_data(m)
    flags = classify(m)
    return {
        "matrix": [list(r) for r in m.entries],
        "dim": m.dim,
        "det": m.det,
        "charpoly": list(sd.factorization.charpoly),
        "factors": [{"coeffs": list(c), "multiplicity": mult,
                     "degree": intpoly.degree(list(c))}
                    for c, mult in sd.factorization.factors],
        "roots": [{"re": r.value.real, "im": r.value.imag,
                   "radius": r.radius, "factor": r.factor_index,
                   "multiplicity": r.multiplicity,
                   "modulus": r.modulus}
                  for r in sd.roots],
        "clusters": [{"rho": c.rho, "multiplicity": c.total_multiplicity,
                      "exponent": c.exponent}
                     for c in sd.clusters],
        "flags": flags.as_dict(),
    }
