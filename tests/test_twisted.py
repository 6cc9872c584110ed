import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toralab import exactalg, maps, spectral, twisted
from toralab.errors import (NotHyperbolic, ToleranceNotReached,
                            TruncationInsufficient)
from toralab.torusfn import TrigPoly

CAT = spectral.automorphism([[2, 1], [1, 1]])
# Its dual orbits pass |n| ~ 1e38 before the contributions fall below
# drop_tol: far beyond int64.
BIG = spectral.automorphism([[1, 2, 2, 1], [2, 1, 0, 0], [1, 3, 3, 1],
                             [1, 0, 0, 2]])


def test_zero_mode_constant():
    q = TrigPoly.constant_fn(2, [0.3, -0.2])
    sol = twisted.solve_linearized(CAT, q, radius=2)
    want = np.linalg.solve(CAT.as_array() - np.eye(2), [0.3, -0.2])
    assert np.allclose(sol.h[(0, 0)].real, want, atol=1e-13)
    assert sol.residual_max < 1e-13


def test_zero_mode_solvable_over_corpus():
    # (L - I) invertible for every hyperbolic automorphism encountered
    rng = np.random.default_rng(0)
    count = 0
    while count < 12:
        m = spectral.random_unimodular(int(rng.integers(2, 5)), steps=10,
                                       rng=rng)
        try:
            sd = spectral.lyapunov_splitting(m)
        except Exception:
            continue
        count += 1
        det = np.linalg.det(m.as_array() - np.eye(m.dim))
        assert abs(det) > 1e-9


def test_single_mode_substitution_residual():
    q = TrigPoly.sin_mode((0, 1), [0.5, 0.1])
    sol = twisted.solve_linearized(CAT, q, radius=8)
    assert sol.residual_max < 1e-12
    assert sol.zero_mode_residual < 1e-14
    # support lies on the dual orbit through +-(0,1)
    lt = np.array(CAT.rows()).T
    lti = np.linalg.inv(lt)
    orbit = set()
    for seed in [(0, 1), (0, -1)]:
        cur = np.array(seed, dtype=float)
        for _ in range(12):
            orbit.add(tuple(int(round(v)) for v in cur))
            cur = lt @ cur
        cur = lti @ np.array(seed, dtype=float)
        for _ in range(12):
            orbit.add(tuple(int(round(v)) for v in cur))
            cur = lti @ cur
    for n in sol.h.coeffs:
        assert n in orbit
    # geometric decay along the forward orbit
    c1 = np.max(np.abs(sol.h[(1, 1)]))
    c2 = np.max(np.abs(sol.h[(3, 2)]))
    assert c2 < 0.6 * c1


def test_solvable_case_recovers_g():
    rng = np.random.default_rng(5)
    g = TrigPoly(2, 2)
    for _ in range(6):
        n = tuple(int(x) for x in rng.integers(-2, 3, size=2))
        if n == (0, 0):
            continue
        g[n] = rng.normal(size=2) + 1j * rng.normal(size=2)
    g = g.symmetrize_real()
    q = g.matrix_apply(CAT.as_array()) - g.compose_affine(CAT.rows())
    sol = twisted.solve_linearized(CAT, q, radius=8)
    assert sol.residual_max < 1e-12
    for n in set(list(g.coeffs) + list(sol.h.coeffs)):
        assert np.max(np.abs(g[n] - sol.h[n])) < 1e-12


def _solvable_q(base, rng):
    """A real g with a few modes in |n| <= 2, and Q = L g - g o L."""
    d = base.dim
    g = TrigPoly(d, d)
    for _ in range(3):
        n = tuple(int(x) for x in rng.integers(-2, 3, size=d))
        if any(n):
            g[n] = rng.normal(size=d) + 1j * rng.normal(size=d)
    g = g.symmetrize_real()
    return g, g.matrix_apply(base.as_array()) - g.compose_affine(base.rows())


def _assert_recovers(base, g, q):
    sol = twisted.solve_linearized(base, q)
    assert sol.residual_max < 1e-12
    for n in set(g.coeffs) | set(sol.h.coeffs):
        assert np.max(np.abs(g[n] - sol.h[n])) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_solvable_case_recovers_g_over_random_automorphisms(d, seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):         # most draws are not hyperbolic
        base = spectral.random_unimodular(d, steps=4 * d, rng=rng,
                                          entry_cap=4)
        try:
            spectral.lyapunov_splitting(base)
            break
        except NotHyperbolic:
            pass
    else:
        assume(False)
    _assert_recovers(base, *_solvable_q(base, rng))


def test_frequencies_beyond_int64_stay_exact():
    _assert_recovers(BIG, *_solvable_q(BIG, np.random.default_rng(7)))
    # with F' this large every tracked coefficient lands in the annulus,
    # at its exact frequency on the dual orbit of +-s
    s = (0, 1, 0, 0)
    q = TrigPoly.sin_mode(s, [0.5, 0.1, 0.2, 0.3])
    sol = twisted.solve_linearized(BIG, q, radius=1, extended_radius=10 ** 60)
    lt = [list(r) for r in zip(*BIG.rows())]
    orbit = set()
    for step in (lt, exactalg.inverse_unimodular(lt)):
        for cur in (s, tuple(-x for x in s)):
            for _ in range(200):
                orbit.add(cur)
                cur = tuple(exactalg.mat_vec(step, cur))
    assert set(sol.annulus.coeffs) <= orbit
    assert max(max(abs(x) for x in n) for n in sol.annulus.coeffs) > 2 ** 63


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_q_raises(bad):
    q = TrigPoly.sin_mode((0, 1), [0.5, 0.1])
    q[(1, 1)] = [bad, 0.0]
    with pytest.raises(ValueError, match="non-finite"):
        twisted.solve_linearized(CAT, q, radius=2)


@pytest.mark.parametrize("drop_tol", [0.0, -1e-17, np.nan])
def test_non_positive_drop_tol_raises(drop_tol):
    # no side of the walk could stop (or, for NaN, start)
    q = TrigPoly.sin_mode((0, 1), [0.5, 0.1])
    with pytest.raises(ValueError, match="drop_tol"):
        twisted.solve_linearized(CAT, q, drop_tol=drop_tol)


def test_dual_orbit_partition():
    dec = twisted.dual_orbit_decomposition(CAT, 6)
    ball = [n for seg in dec.segments for n in seg
            if max(abs(x) for x in n) <= 6]
    assert len(ball) == len(set(ball)) == 13 * 13 - 1
    # L^T-equivariance: consecutive segment entries map to each other
    lt = np.array(CAT.rows()).T
    for seg in dec.segments:
        for a, b in zip(seg, seg[1:]):
            assert tuple(int(v) for v in (lt @ np.array(a))) == b


def test_tail_bound_dominates_doubled_radius_mass():
    q = TrigPoly.sin_mode((0, 1), [0.5, 0.1]) + \
        TrigPoly.sin_mode((2, -1), [0.0, 0.3])
    sol = twisted.solve_linearized(CAT, q, radius=4, extended_radius=16)
    wide = twisted.solve_linearized(CAT, q, radius=4, extended_radius=32)
    observed = 0.0
    for n, c in wide.annulus.coeffs.items():
        if max(abs(x) for x in n) > 16:
            observed += float(np.max(np.abs(c)))
    assert sol.tail_bound >= observed


def test_truncation_insufficient_error():
    q = TrigPoly.sin_mode((0, 1), [0.5, 0.1])
    with pytest.raises(TruncationInsufficient):
        twisted.solve_linearized(CAT, q, radius=1, extended_radius=2,
                                 tol=1e-12)


def test_kam_trivial():
    f = maps.build(CAT, TrigPoly.zero(2, 2))
    f2, rep = twisted.kam_step(f, radius=8, grid_n=32)
    assert rep.input_c0 == 0.0
    assert rep.output_c0 == 0.0
    assert rep.hprime_c0 == 0.0


def test_kam_step_contracts():
    f = maps.build(CAT, TrigPoly.sin_mode((0, 1), [1e-3, 0.0]), warn=False)
    f2, rep = twisted.kam_step(f, radius=8, grid_n=64)
    assert rep.output_c0 <= 0.5 * rep.input_c0
    assert not rep.no_improvement
    assert rep.orientation == "inverse_then_forward"
    assert rep.linearized_residual < 0.1 * rep.input_c0


def test_kam_report_recomputed_from_output():
    f = maps.build(CAT, TrigPoly.sin_mode((0, 1), [1e-3, 0.0]), warn=False)
    f2, rep = twisted.kam_step(f, radius=8, grid_n=64)
    pts = np.random.default_rng(1).random((500, 2))
    measured = float(np.max(np.abs(f2.displacement_at(pts))))
    assert measured <= rep.output_c0 * (1 + 1e-9)


def test_invert_id_minus_solves_and_raises_when_not_contracting():
    pts = np.random.default_rng(4).random((200, 2))
    small = TrigPoly.sin_mode((1, 1), [1e-3, -2e-3])
    z = twisted.invert_id_minus(small, pts)
    assert np.max(np.abs(z - small.eval_real(z) - pts)) < 1e-13
    # z <- target + sin(2 pi z_1) e_1 has slope up to 2 pi: no contraction
    large = TrigPoly.sin_mode((1, 0), [1.0, 0.0])
    with pytest.raises(ToleranceNotReached, match="200 iterations"):
        twisted.invert_id_minus(large, pts)
