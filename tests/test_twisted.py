import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_helpers import (conformal_bundles, kam_q_walked,
                            small_perturbation, solve_linearized_dict_keyed)
from toralab import conjugacy, exactalg, maps, spectral, twisted
from toralab.errors import (InvalidInput, NotHyperbolic,
                            ToleranceNotReached, TruncationInsufficient)
from toralab.torusfn import TrigPoly

CAT = spectral.automorphism([[2, 1], [1, 1]])
# Its dual orbits pass |n| ~ 1e38 before the contributions fall below
# drop_tol: far beyond int64.
BIG = spectral.automorphism([[1, 2, 2, 1], [2, 1, 0, 0], [1, 3, 3, 1],
                             [1, 0, 0, 2]])


def test_zero_mode_constant():
    q = TrigPoly(2, 2, {(0, 0): [0.3, -0.2]})
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
    coeffs = {}
    for _ in range(6):
        n = tuple(int(x) for x in rng.integers(-2, 3, size=2))
        if n == (0, 0):
            continue
        coeffs[n] = rng.normal(size=2) + 1j * rng.normal(size=2)
    g = TrigPoly(2, 2, coeffs)
    # g with modes s and L^T s: Q has three modes on one dual orbit, so
    # many contributions land on each frequency and must all be summed
    s = (0, 1)
    lts = tuple(exactalg.mat_vec([list(r) for r in zip(*CAT.rows())], s))
    chain = TrigPoly(2, 2, {s: [0.3 + 0.1j, -0.2j], lts: [0.5, 0.4 - 0.1j]})
    for g in (g.symmetrize_real(), chain.symmetrize_real()):
        q = g.matrix_apply(CAT.as_array()) - g.compose_affine(CAT.rows())
        sol = twisted.solve_linearized(CAT, q, radius=8)
        assert sol.residual_max < 1e-12
        for n in set(list(g.coeffs) + list(sol.h.coeffs)):
            assert np.max(np.abs(g[n] - sol.h[n])) < 1e-12


def _solvable_q(base, rng):
    """A real g with a few modes in |n| <= 2, and Q = L g - g o L."""
    d = base.dim
    coeffs = {}
    for _ in range(3):
        n = tuple(int(x) for x in rng.integers(-2, 3, size=d))
        if any(n):
            coeffs[n] = rng.normal(size=d) + 1j * rng.normal(size=d)
    g = TrigPoly(d, d, coeffs).symmetrize_real()
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


def _assert_matches_dict_keyed(base, q, **kwargs):
    got = twisted.solve_linearized(base, q, **kwargs)
    want = solve_linearized_dict_keyed(base, q, **kwargs)
    for name in ("h", "annulus"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert list(mine.coeffs) == list(theirs.coeffs), name
        for n, c in theirs.coeffs.items():
            assert np.array_equal(mine.coeffs[n], c), (name, n)
    # the residual's rows L c_n come from one stacked matmul here and one
    # matrix-vector product per mode in the oracle; numpy computes both
    # row by row in the same order, so the residual is equal, not close
    assert got.report() == want.report()
    return got


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(2, 3), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_solve_linearized_matches_dict_keyed_oracle(d, real, seed):
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
    coeffs = {}
    for _ in range(int(rng.integers(1, 8))):
        n = rng.integers(-3, 4, size=d)
        coeffs[tuple(n)] = rng.normal(size=d) + 1j * rng.normal(size=d)
    q = TrigPoly(d, d, coeffs)
    if real:
        q = q.symmetrize_real()
    radius = max(q.support_radius, 1) + int(rng.integers(0, 3))
    _assert_matches_dict_keyed(base, q, radius=radius,
                               extended_radius=int(rng.integers(0, 3)) *
                               radius or None)


def test_solve_linearized_matches_dict_keyed_oracle_beyond_int64():
    # BIG's orbits pass 2^63, so the frequencies are Python ints keyed by
    # a dict; the annulus holds some of them
    q = TrigPoly.sin_mode((0, 1, 0, 0), [0.5, 0.1, 0.2, 0.3]) + \
        TrigPoly.cos_mode((1, 0, -1, 0), [0.0, 0.2, 0.0, 0.1])
    sol = _assert_matches_dict_keyed(BIG, q, radius=1,
                                     extended_radius=10 ** 60)
    assert max(max(map(abs, n)) for n in sol.annulus.coeffs) > 2 ** 63


def test_kam_step_takes_no_residual_walk(monkeypatch):
    # kam_step reads only the conjugacy's grid, so the one-walk residual
    # (the only caller of with_image) is never taken
    f = maps.build(CAT, TrigPoly.sin_mode((0, 1), [1e-3, 0.0]), warn=False)
    calls = []
    with_image = conjugacy._OrbitSeries.with_image

    def counted(self, points):
        calls.append(len(points))
        return with_image(self, points)

    monkeypatch.setattr(conjugacy._OrbitSeries, "with_image", counted)
    twisted.kam_step(f, radius=4, grid_n=16)
    assert calls == []


def test_kam_iterate_builds_no_smallness_report(monkeypatch):
    # neither step's f' is asked for its smallness report, so none is built
    f = maps.build(CAT, TrigPoly.sin_mode((0, 1), [1e-3, 0.0]), warn=False)
    calls = []
    monkeypatch.setattr(maps.PerturbedMap, "_smallness",
                        lambda self: calls.append(self))
    twisted.kam_iterate(f, steps=2, radius=4, grid_n=16)
    assert calls == []


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 300), st.integers(1, 40), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_accumulate_matches_add_at_bit_for_bit(rows, keys, d, seed):
    # repeated, unordered indices and values over many magnitudes, so a
    # sum in another order would round otherwise; -0.0 included
    rng = np.random.default_rng(seed)
    index = rng.integers(0, keys, rows)
    vals = (rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d))) \
        * 10.0 ** rng.integers(-17, 3, (rows, 1))
    vals[rng.random(rows) < 0.1] = -0.0
    want = np.zeros((keys + 2, d), dtype=complex)
    np.add.at(want, index, vals)
    got = twisted._accumulate(index, vals, keys + 2)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_q_raises(bad):
    q = TrigPoly.sin_mode((0, 1), [0.5, 0.1]) + \
        TrigPoly(2, 2, {(1, 1): [bad, 0.0]})
    with pytest.raises(ValueError, match="non-finite"):
        twisted.solve_linearized(CAT, q, radius=2)


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


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.sampled_from([(2, 16), (3, 8)]), st.integers(0, 2 ** 32 - 1))
def test_q_on_the_grid_matches_the_walked_q(case, seed):
    # Q = L h - h o L on the grid against R + h o f - h o L from two walks.
    # They differ by L h - h o f - R, the two terms one past the last
    # summed ones: L_u^-N R^u(f^N x) and L_s^N R^s(f^-N x).  In the adapted
    # norms each is about as small as the last summed term, which stopped
    # the solve below stop_at = tol (1 - sigma) / (2 sigma); the unstable
    # one is taken at f x, off the grid whose maximum stopped the solve, so
    # allow twice that, and ||T^-1|| to come back to coordinates.
    d, grid_n = case
    rng = np.random.default_rng(seed)
    while True:     # redraw until the series contract briskly and h is
        f = small_perturbation(d, rng)      # Lipschitz at rounding scale
        sd = f.spec
        sigma = max(sd.unstable_norm.contraction, sd.stable_norm.contraction)
        if sigma < 0.8 and conformal_bundles(f.base):
            break
    tol = 1e-11
    conj = conjugacy.solve_conjugacy(f, tol=tol, grid_n=grid_n)
    stop_at = tol * (1 - sigma) / (2 * sigma)
    t_inv = sd.adapted_transform[1]
    bound = 2 * np.linalg.norm(t_inv, 2) * stop_at
    q = twisted._q_on_grid(conj.h_grid, f.base)
    assert np.max(np.abs(q - kam_q_walked(f, conj, grid_n))) <= bound


@pytest.mark.parametrize("matrix, offset", [
    ([[2, 1], [1, 1]], [1.0, 0.0]),       # L - I unimodular: s integer
    ([[3, 1], [2, 1]], [0.5, 0.0])],      # det(L - I) = -2: (L - I) s = (1, 1)
    ids=["cat", "det2"])
def test_kam_step_ignores_an_offset_of_h_by_an_integer_image(
        matrix, offset, monkeypatch):
    # h is defined mod Z^d, and h + s with (L - I) s in Z^d \ {0} solves the
    # same conjugacy equation mod Z^d; Q is reduced mod Z^d, so the step is
    # the same up to the rounding of h + s
    base = spectral.automorphism(matrix)
    f = maps.build(base, TrigPoly.sin_mode((0, 1), [1e-3, 0.0]), warn=False)
    step = lambda: twisted.kam_step(f, radius=8, grid_n=32)
    f_ref, rep_ref = step()
    solve = twisted.solve_conjugacy

    def offset_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.h_grid.values = res.h_grid.values + np.array(offset)
        return res

    monkeypatch.setattr(twisted, "solve_conjugacy", offset_solve)
    f_off, rep_off = step()
    pts = np.random.default_rng(5).random((300, 2))
    assert np.max(np.abs(f_off.displacement_at(pts) -
                         f_ref.displacement_at(pts))) < 1e-13
    for key, value in rep_ref.as_dict().items():
        if isinstance(value, float):
            assert rep_off.as_dict()[key] == pytest.approx(
                value, rel=1e-9, abs=1e-15), key


@pytest.mark.parametrize("grid_n, radius", [(8, 4), (16, 8), (9, 5)])
def test_kam_step_rejects_a_grid_of_at_most_twice_the_radius(
        grid_n, radius, monkeypatch):
    # at N <= 2F the grid aliases the projected modes, and f' would get a
    # complex displacement; the step says so before it solves anything
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the truncation was checked")

    monkeypatch.setattr(twisted, "solve_conjugacy", no_solve)
    f = maps.build(CAT, TrigPoly.sin_mode((0, 1), [1e-3, 0.0]), warn=False)
    with pytest.raises(InvalidInput, match=rf"grid_n \({grid_n}\) must "
                       rf"exceed twice the radius \({radius}\)") as err:
        twisted.kam_iterate(f, steps=1, radius=radius, grid_n=grid_n)
    assert isinstance(err.value, ValueError)
