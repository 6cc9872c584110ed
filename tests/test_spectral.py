import dataclasses

import numpy as np
import pytest

from toralab import spectral
from toralab.errors import NotHyperbolic

CAT = spectral.automorphism([[2, 1], [1, 1]])
B_BLOCK = spectral.automorphism([[3, 1], [2, 1]])
GOLDEN = (3 + np.sqrt(5)) / 2
# smallest unstable modulus 1.0051: L_u^-1 contracts by a factor near 1,
# and its adapted norm's Gram matrix has condition number 912
SLOW_UNSTABLE = spectral.automorphism(
    [[0, 0, 0, -1, 0], [-1, -4, 0, 4, -2], [4, 2, 2, -2, 1],
     [0, -1, 0, 1, 0], [-2, 0, -1, 0, 0]])
# unstable moduli 1.555 and 3.247: a non-conformal E^u
NONCONFORMAL_3 = spectral.automorphism([[1, 1, 0], [1, 2, 1], [0, 1, 2]])


def test_validation():
    with pytest.raises(ValueError):
        spectral.automorphism([[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        spectral.automorphism([[1, 2, 3], [4, 5, 6]])


def test_cat_classification():
    flags = spectral.classify(CAT)
    assert flags.hyperbolic and flags.irreducible and flags.weakly_irreducible
    assert flags.no_three_same_modulus and flags.no_forbidden_pairs
    assert flags.diagonalizable


def test_block_diagonal_weakly_irreducible():
    m = spectral.block_diagonal(CAT, CAT)
    flags = spectral.classify(m)
    assert flags.weakly_irreducible and not flags.irreducible
    assert flags.diagonalizable


def test_jordan_block_weakly_irreducible():
    m = spectral.block_upper_identity(CAT)
    flags = spectral.classify(m)
    assert flags.weakly_irreducible and not flags.irreducible
    assert not flags.diagonalizable


def test_mixed_blocks_not_weakly_irreducible():
    m = spectral.block_diagonal(CAT, B_BLOCK)
    flags = spectral.classify(m)
    assert not flags.weakly_irreducible and not flags.irreducible


def test_non_hyperbolic_cyclotomic():
    comp = spectral.automorphism(
        [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
    flags = spectral.classify(comp)
    assert not flags.hyperbolic
    assert flags.cluster_moduli == ((1.0, 4),)
    with pytest.raises(NotHyperbolic):
        spectral.lyapunov_splitting(comp)


def test_forbidden_pair_flag():
    # [[0,1],[1,0]] has eigenvalues 1, -1: the pair lambda, -lambda
    m = spectral.automorphism([[0, 1], [1, 0]])
    flags = spectral.classify(m)
    assert not flags.no_forbidden_pairs


def test_splitting_cat():
    sd = spectral.lyapunov_splitting(CAT)
    assert sd.stable_basis.shape[1] == sd.unstable_dim == 1
    rho = [c.rho for c in sd.clusters]
    assert np.allclose(sorted(rho), [1 / GOLDEN, GOLDEN], atol=1e-12)
    # unstable direction is the golden-ratio eigenvector
    v = sd.unstable_basis[:, 0]
    lv = CAT.as_array() @ v
    assert np.allclose(lv, GOLDEN * v, atol=1e-10)


def test_splitting_growth_rates():
    # (1/n) log ||L^n v|| -> log rho_i at n = 200.  The iteration is
    # re-projected onto the cluster subspace each step (float leakage into
    # faster clusters otherwise takes over near n ~ 90).  The 1e-6 bound
    # is attainable exactly for one-dimensional real clusters; Jordan or
    # complex-pair clusters carry an intrinsic (log n)/n-size transient.
    n = 200
    for m in [CAT, spectral.block_diagonal(CAT, B_BLOCK),
              spectral.block_upper_identity(CAT)]:
        sd = spectral.lyapunov_splitting(m)
        mf = m.as_array()
        for cluster, basis in zip(sd.clusters, sd.cluster_bases):
            proj = basis @ basis.T
            simple = basis.shape[1] == 1
            for j in range(basis.shape[1]):
                w = basis[:, j].copy()
                acc = 0.0
                for _ in range(n):
                    w = proj @ (mf @ w)
                    nrm = np.linalg.norm(w)
                    acc += np.log(nrm)
                    w /= nrm
                tol = 1e-6 if simple else 0.05
                assert abs(acc / n - cluster.exponent) < tol


def test_adapted_norm_contracts_on_sample():
    # on E^s (A = L_s) and on E^u (A = L_u^-1): G = R^T R solves the Stein
    # equation G - B^T G B = I with B = A / sigma, and A contracts by the
    # reported factor, below sigma, on random vectors
    rng = np.random.default_rng(0)
    for m in [CAT, spectral.block_upper_identity(CAT), SLOW_UNSTABLE,
              NONCONFORMAL_3]:
        sd = spectral.lyapunov_splitting(m)
        rhos = [c.rho for c in sd.clusters]
        for basis, mf, norm, rho in (
                (sd.stable_basis, m.as_array(), sd.stable_norm,
                 max(r for r in rhos if r < 1)),
                (sd.unstable_basis, m.inverse().as_array(), sd.unstable_norm,
                 1 / min(r for r in rhos if r > 1))):
            sigma = (rho + 1) / 2
            b = basis.T @ mf @ basis / sigma
            gram = norm.chol.T @ norm.chol
            stein = gram - b.T @ gram @ b - np.eye(len(b))
            assert np.linalg.norm(stein, 2) <= 1e-12 * np.linalg.cond(gram)
            coords = rng.normal(size=(1000, basis.shape[1]))
            vecs = coords @ basis.T
            before = np.linalg.norm(norm.chol @ basis.T @ vecs.T, axis=0)
            after = np.linalg.norm(norm.chol @ basis.T @ mf @ vecs.T, axis=0)
            assert norm.contraction < sigma
            assert np.all(after <= norm.contraction * before * (1 + 1e-9))


def test_classify_builds_no_adapted_norm():
    # no cached property of SpectralData (adapted norms, splitting basis)
    # is built by the classification
    spectral._spectral_cached.cache_clear()
    flags = spectral.classify(SLOW_UNSTABLE)
    spectral.classification_report(SLOW_UNSTABLE)
    assert flags.hyperbolic
    sd = spectral.spectral_data(SLOW_UNSTABLE)
    assert sd.__dict__.keys() == {f.name for f in dataclasses.fields(sd)}


def test_jordan_adapted_norm_handles_defect():
    m = spectral.block_upper_identity(CAT)
    sd = spectral.lyapunov_splitting(m)
    assert sd.unstable_dim == 2
    assert sd.unstable_norm.contraction < 1.0   # contraction of L^-1 on E^u


def _random_corpus(count=50, seed=11):
    """Mixed corpus: random unimodular conjugates of structured blocks
    plus raw random unimodular matrices, dimensions up to 6."""
    rng = np.random.default_rng(seed)
    chol = []
    a2 = [[2, 1], [1, 1]]
    b2 = [[3, 1], [2, 1]]
    c2 = [[1, 1], [1, 2]]
    out = []
    while len(out) < count:
        kind = rng.integers(0, 4)
        if kind == 0:
            m = spectral.random_unimodular(int(rng.integers(2, 7)),
                                           steps=14, rng=rng)
        else:
            blocks = [a2, b2, c2]
            i, j = rng.integers(0, 3, size=2)
            base = spectral.block_diagonal(
                spectral.automorphism(blocks[i]),
                spectral.automorphism(blocks[j]))
            u = spectral.random_unimodular(4, steps=6, rng=rng, entry_cap=8)
            m = u @ base @ u.inverse()
        out.append(m)
    return out


def test_lemma_vs_definitional_on_corpus():
    corpus = _random_corpus(50)
    disagreements = []
    for m in corpus:
        try:
            flags = spectral.classify(m)
        except Exception:
            continue
        verdict, witness = spectral.weakly_irreducible_definitional(m)
        if verdict != flags.weakly_irreducible:
            disagreements.append((m.entries, flags.weakly_irreducible,
                                  verdict, witness))
    assert not disagreements, disagreements[:3]


def test_irreducible_implies_weakly_irreducible():
    for m in _random_corpus(30, seed=5):
        try:
            flags = spectral.classify(m)
        except Exception:
            continue
        if flags.irreducible:
            assert flags.weakly_irreducible


def test_classification_report_roundtrip():
    import json
    rep = spectral.classification_report(CAT)
    blob = json.dumps(rep)
    back = json.loads(blob)
    assert back["flags"]["hyperbolic"] is True
    assert back["charpoly"] == [1, -3, 1]
