import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_helpers import kronecker_factor
from toralab import factor, intpoly
from toralab.errors import DegreeTooLarge


def test_irreducible_quadratic():
    assert factor.factor_over_q([1, -3, 1]) == [([1, -3, 1], 1)]


def test_perfect_square():
    p = intpoly.mul([1, -3, 1], [1, -3, 1])
    assert factor.factor_over_q(p) == [([1, -3, 1], 2)]


def test_block_charpoly_splits():
    p = intpoly.mul([1, -3, 1], [1, -4, 1])
    facs = factor.factor_over_q(p)
    assert facs == [([1, -4, 1], 1), ([1, -3, 1], 1)]
    # oracle agreement
    assert sorted(g for g, _ in facs) == kronecker_factor(p)


def test_reconstitution_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        # random product of small monic polynomials with unit constant term
        parts = []
        for _ in range(rng.integers(1, 4)):
            deg = int(rng.integers(1, 4))
            coeffs = [int(x) for x in rng.integers(-3, 4, size=deg)]
            coeffs[0] = int(rng.choice([-1, 1]))
            parts.append(coeffs + [1])
        p = [1]
        for part in parts:
            p = intpoly.mul(p, part)
        facs = factor.factor_over_q(p)
        recon = [1]
        for g, mult in facs:
            for _ in range(mult):
                recon = intpoly.mul(recon, g)
        assert recon == p


def test_kronecker_oracle_agreement():
    rng = np.random.default_rng(7)
    for _ in range(12):
        parts = []
        for _ in range(rng.integers(1, 3)):
            deg = int(rng.integers(1, 4))
            coeffs = [int(x) for x in rng.integers(-2, 3, size=deg)]
            coeffs[0] = int(rng.choice([-1, 1]))
            parts.append(coeffs + [1])
        p = [1]
        for part in parts:
            p = intpoly.mul(p, part)
        if intpoly.degree(p) > 8:
            continue
        mine = []
        for g, mult in factor.factor_over_q(p):
            mine.extend([g] * mult)
        assert sorted(mine) == kronecker_factor(p)


def test_degree_cap():
    with pytest.raises(DegreeTooLarge):
        factor.factor_over_q([1] + [0] * 24 + [1])


def test_cyclotomic_product():
    # x^4 - 1 = (x-1)(x+1)(x^2+1)
    facs = factor.factor_over_q([-1, 0, 0, 0, 1])
    degs = sorted(intpoly.degree(g) for g, _ in facs)
    assert degs == [1, 1, 2]


def _reduce(a, m):
    return intpoly.trim([x % m for x in a])


def _modular_product(parts, m):
    out = [1]
    for part in parts:
        out = factor._pmul(out, part, m)
    return out


_MONIC = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(
    lambda low: low + [1])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(_MONIC, min_size=2, max_size=4))
def test_modular_factors_and_hensel_lifts_multiply_to_f(parts):
    # the Cantor-Zassenhaus factors multiply to f mod p; the Hensel lifts
    # multiply to f mod p^k and each reduces mod p to its modular factor
    f = [1]
    for part in parts:
        f = intpoly.mul(f, part)
    assume(intpoly.degree(intpoly.gcd_q(f, intpoly.derivative(f))) == 0)
    p = factor._good_prime(f)
    modular = factor.factor_mod_p(f, p)
    assert all(g[-1] == 1 and all(0 <= c < p for c in g) for g in modular)
    assert _modular_product(modular, p) == _reduce(f, p)
    # division by a non-monic multiple of a factor is exact mod p
    q, r = factor._pdivmod(f, [2 * c for c in modular[0]], p)
    assert r == [] and _modular_product([q, modular[0], [2]], p) == \
        _reduce(f, p)
    target = 2 * factor._mignotte_bound(f) + 1
    m = factor._next_power(p, target)
    assert m >= target
    lifted = factor._hensel_lift_tree(_reduce(f, m), modular, p, target)
    assert _modular_product(lifted, m) == _reduce(f, m)
    assert [_reduce(g, p) for g in lifted] == modular
