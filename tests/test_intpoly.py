from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_helpers import lll_reduce_fraction
from toralab import exactalg, intpoly
from toralab.exactalg import charpoly, det_bareiss, inverse_unimodular, \
    lll_reduce, minimal_poly_of_vector


def test_charpoly_cat_map():
    assert charpoly([[2, 1], [1, 1]]) == [1, -3, 1]


def test_charpoly_identity():
    assert charpoly([[1, 0], [0, 1]]) == [1, -2, 1]


def test_charpoly_block_product():
    # diag(A, B) charpoly = product of block charpolys, exactly
    m = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 2, 1]]
    assert charpoly(m) == intpoly.mul([1, -3, 1], [1, -4, 1])


def test_cayley_hamilton_exact():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = [[int(x) for x in row] for row in rng.integers(-4, 5, size=(4, 4))]
        p = charpoly(m)
        val = exactalg.eval_matrix(p, m)
        assert all(x == 0 for row in val for x in row)


def test_det_and_inverse():
    m = [[2, 1], [1, 1]]
    assert det_bareiss(m) == 1
    inv = inverse_unimodular(m)
    assert inv == [[1, -1], [-1, 2]]
    with pytest.raises(ValueError):
        inverse_unimodular([[2, 0], [0, 2]])


def test_squarefree_decomposition():
    p = intpoly.mul(intpoly.mul([1, -3, 1], [1, -3, 1]), [-1, 1])
    parts = dict()
    for fac, mult in intpoly.squarefree_decomposition(p):
        parts[tuple(fac)] = mult
    assert parts[(1, -3, 1)] == 2
    assert parts[(-1, 1)] == 1


def test_sturm_real_root_count():
    assert intpoly.count_real_roots([1, -3, 1]) == 2        # golden pair
    assert intpoly.count_real_roots([1, 0, 1]) == 0         # x^2 + 1
    assert intpoly.count_real_roots([0, -1, 0, 1]) == 3     # x^3 - x


def test_plus_minus_pair_detection():
    # x^2 - 4 has the pair 2, -2
    assert intpoly.has_real_plus_minus_pair([-4, 0, 1])
    # golden-mean polynomial has roots lam, 1/lam: no pair
    assert not intpoly.has_real_plus_minus_pair([1, -3, 1])
    # x^2 + 4 has the pair 2i, -2i
    assert intpoly.has_imaginary_pair([4, 0, 1])
    assert not intpoly.has_imaginary_pair([1, -3, 1])


def test_cyclotomic_detection():
    assert intpoly.is_cyclotomic([1, 1, 1, 1, 1])       # Phi_5
    assert intpoly.is_cyclotomic([-1, 1])               # x - 1
    assert intpoly.is_cyclotomic([1, -1, 1])            # Phi_6
    assert not intpoly.is_cyclotomic([1, -3, 1])
    # Lehmer's polynomial is reciprocal but not cyclotomic
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    assert not intpoly.is_cyclotomic(lehmer)


def test_minimal_poly_of_vector():
    m = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 2, 1]]
    assert minimal_poly_of_vector(m, [1, 0, 0, 0]) == [1, -3, 1]
    assert minimal_poly_of_vector(m, [0, 0, 1, 0]) == [1, -4, 1]
    assert minimal_poly_of_vector(m, [1, 0, 1, 0]) == \
        intpoly.mul([1, -3, 1], [1, -4, 1])


def test_lll_finds_short_vector():
    # lattice with a hidden short vector (3, 1, 0) + noise dimensions
    rows = [[3, 1, 0], [4, 7, 1], [9, 8, 5]]
    red = lll_reduce(rows)
    norms = [sum(x * x for x in r) for r in red]
    assert min(norms) <= 10


def lattice_candidate_rows(d, m, seed):
    """Rows (e_j | round(10^10 P e_j)) for a random P with m orthonormal
    rows in R^d, as spectral._lattice_candidates embeds a projector."""
    p = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, m)))[0].T
    return [[int(t == j) for t in range(d)] +
            [int(round(p[i, j] * 10 ** 10)) for i in range(m)]
            for j in range(d)]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(2, 7).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(1, d - 1), st.integers(0, 2 ** 32 - 1))))
def test_lll_matches_fraction_oracle_on_projector_embeddings(case):
    rows = lattice_candidate_rows(*case)
    assert lll_reduce(rows) == lll_reduce_fraction(rows)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(2, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n + 2, max_size=n + 2),
    min_size=n, max_size=n)), st.integers(0, 2))
def test_lll_matches_fraction_oracle_on_small_bases(rows, drop):
    # small entries make exact half-integer mu common
    rows = [r[:len(r) - drop] for r in rows]
    gram = [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]
    assume(det_bareiss(gram) != 0)
    assert lll_reduce(rows) == lll_reduce_fraction(rows)


@pytest.mark.parametrize("rows, reduced", [
    ([[2, 0], [3, 1]], [[-1, 1], [1, 1]]),       # mu = 3/2 rounds to 2
    ([[2, 0], [-3, 1]], [[1, 1], [1, -1]]),      # mu = -3/2 rounds to -2
    ([[2, 0], [5, 1]], [[1, 1], [1, -1]]),       # mu = 5/2 rounds to 2
    ([[2, 0], [1, 3]], [[2, 0], [1, 3]]),        # mu = 1/2 is reduced
])
def test_lll_half_integer_ties_round_to_even(rows, reduced):
    assert lll_reduce(rows) == reduced
    assert lll_reduce_fraction(rows) == reduced


@pytest.mark.parametrize("rows", [[[1, 2], [2, 4]],
                                  [[1, 0, 0], [0, 1, 0], [1, 1, 0]]])
def test_lll_rejects_dependent_rows(rows):
    with pytest.raises(ValueError, match="dependent"):
        lll_reduce(rows)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(2, 12).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(1, d - 1), st.integers(0, 2 ** 32 - 1))))
def test_lll_conditions_hold_exactly_up_to_dimension_12(case):
    d = case[0]
    rows = lattice_candidate_rows(*case)
    red = lll_reduce(rows)
    # same lattice: the identity block records the unimodular transform
    t = [r[:d] for r in red]
    assert abs(det_bareiss(t)) == 1
    assert red == [[sum(t[i][j] * rows[j][c] for j in range(d))
                    for c in range(len(rows[0]))] for i in range(d)]
    star, norms = [], []
    for i, b in enumerate(red):
        s = [Fraction(x) for x in b]
        for j in range(i):
            mu = sum(x * y for x, y in zip(b, star[j])) / norms[j]
            assert abs(mu) <= Fraction(1, 2)
            s = [x - mu * y for x, y in zip(s, star[j])]
            if j == i - 1:
                assert norms[i - 1] * (Fraction(3, 4) - mu * mu) <= \
                    sum(x * x for x in s)
        star.append(s)
        norms.append(sum(x * x for x in s))
