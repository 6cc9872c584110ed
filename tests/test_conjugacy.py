from functools import lru_cache
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import (InverseMap, conformal_bundles,
                            conjugacy_residual_two_walks,
                            interpolated_conjugacy, orbit_terms_reference,
                            shadow_conjugacy, skew_series_rows,
                            small_perturbation, table_memo_off, walk_rows)
from toralab import cli, conjugacy, maps, spectral
from toralab.errors import NotHyperbolic, OrderViolation, ToleranceNotReached
from toralab.torusfn import TrigPoly, estimate_holder, uniform_grid

CAT = spectral.automorphism([[2, 1], [1, 1]])


def small_map(eps=1e-3):
    return maps.build(CAT, TrigPoly.sin_mode((0, 1), [eps, 0.0]), warn=False)


def test_trivial_identity():
    f = maps.build(CAT, TrigPoly.zero(2, 2))
    res = conjugacy.solve_conjugacy(f, grid_n=16)
    assert res.h_c0 == 0.0
    assert conjugacy.residual_check(res, 100, 0)["residual_max"] == 0.0


def test_solve_past_max_terms_raises_and_the_cli_exits_3(tmp_path):
    # the stopping rule needs a third term, so a cap of two sweeps is
    # never met: the solve raises, and a conjugate run exits 3 unwritten
    with mock.patch.object(conjugacy, "MAX_TERMS", 2):
        with pytest.raises(ToleranceNotReached, match="after 2 sweeps"):
            conjugacy.solve_conjugacy(small_map(), grid_n=16)
        rc = cli.main(["conjugate", "--eps", "1e-3", "--n-grid", "16",
                       "--out", str(tmp_path)])
    assert rc == 3
    assert not (tmp_path / "conjugate_result.json").exists()


def test_solver_residual_small_perturbation():
    f = small_map()
    res = conjugacy.solve_conjugacy(f, tol=1e-10, grid_n=64)
    assert conjugacy.residual_check(res, 2000, 0)["residual_max"] < 1e-9
    assert res.h_c0 < 5e-3 and res.h_c0 > 1e-5
    assert res.anchor_residual < 1e-9
    # degree one: H(x + e_i) - H(x) = e_i, i.e. h is periodic
    probe = np.random.default_rng(1).random((16, 2))
    h_probe = res.evaluate_h(probe)
    winding = max(np.max(np.abs(res.evaluate_h(probe + e) - h_probe))
                  for e in np.eye(2))
    assert winding < 1e-12


# the d=4 conjugate manifest
D4_PARAMS = {"matrix": [[2, 1, 0, 0], [1, 1, 0, 0],
                        [0, 0, 3, 1], [0, 0, 2, 1]],
             "eps": 1e-3,
             "modes": [{"freq": [0, 1, 0, 0], "amplitude": [1.0],
                        "kind": "sin"},
                       {"freq": [0, 0, 0, 1], "amplitude": [1.0],
                        "kind": "sin"},
                       {"freq": [1, 0, 1, 0], "amplitude": [1.0],
                        "kind": "cos"}]}


def test_d4_anchor_shift_reduced_mod_lattice():
    # (L - I)^-1 k is only defined mod Z^4, and an unreduced integer part
    # used to put 2.0 into the lift residual
    f = cli._build_map(D4_PARAMS)
    res = conjugacy.solve_conjugacy(f, tol=1e-10, grid_n=12)
    assert conjugacy.residual_check(res, 2000, 0)["residual_max"] < 1e-9
    assert res.h_c0 < 0.01
    assert np.all(np.abs(res.anchor_shift) <= 0.5)
    assert res.anchor_residual < 1e-9


def test_shadowing_oracle_agreement():
    f = small_map()
    res = conjugacy.solve_conjugacy(f, tol=1e-10, grid_n=32)
    rng = np.random.default_rng(2)
    pts = rng.random((100, 2))
    hs = res.evaluate(pts)
    for i in range(pts.shape[0]):
        oracle = shadow_conjugacy(f, pts[i], window=40)
        diff = hs[i] - oracle
        diff -= np.round(diff)
        assert np.max(np.abs(diff)) < 1e-7


def test_linear_response_scaling():
    norms = {}
    for eps in (1e-4, 1e-3, 1e-2):
        res = conjugacy.solve_conjugacy(small_map(eps), tol=1e-11,
                                        grid_n=32)
        norms[eps] = res.h_c0
    ratios = [norms[e] / e for e in (1e-4, 1e-3, 1e-2)]
    assert max(ratios) / min(ratios) < 1.2
    eps_arr = np.array([1e-4, 1e-3, 1e-2])
    slope = np.polyfit(np.log(eps_arr),
                       np.log([norms[e] for e in eps_arr]), 1)[0]
    assert abs(slope - 1.0) < 0.05


def test_equivariance_inverse_solve():
    f = small_map()
    res = conjugacy.solve_conjugacy(f, tol=1e-10, grid_n=16)
    res_inv = conjugacy.solve_conjugacy(InverseMap(f), tol=1e-10,
                                        grid_n=16)
    pts = np.random.default_rng(3).random((100, 2))
    assert np.max(np.abs(res.evaluate_h(pts) -
                         res_inv.evaluate_h(pts))) < 1e-9


def test_interpolated_mode_cross_validation():
    # the literal grid-interpolated sweep and the orbit form agree up to
    # the grid's aliasing error
    f = small_map()
    orbit_res = conjugacy.solve_conjugacy(f, tol=1e-10, grid_n=64)
    interp_h, interp_residual = interpolated_conjugacy(f, grid_n=64,
                                                       tol=1e-10)
    diff = np.max(np.abs(orbit_res.h_grid.values - interp_h))
    assert diff < 1e-4
    assert interp_residual < 1e-4


def test_uniqueness_from_initial_guesses():
    # interpolated sweeps from two initial guesses converge to the same
    # fixed point
    f = small_map()
    h0, _ = interpolated_conjugacy(f, grid_n=32, tol=1e-11,
                                   residual_samples=50)
    guess = TrigPoly.sin_mode((1, 1), [0.01, -0.02])
    h1, _ = interpolated_conjugacy(f, grid_n=32, tol=1e-11, initial=guess,
                                   residual_samples=50)
    assert np.max(np.abs(h0 - h1)) < 1e-9


@pytest.mark.parametrize("make_map, grid_n", [
    (small_map, 32), (lambda: cli._build_map(D4_PARAMS), 12)],
    ids=["cat", "conjugate4"])
def test_evaluate_h_on_grid_is_the_solve_grid(make_map, grid_n):
    # one orbit walk serves the grid solve and off-grid evaluation, so at
    # the grid points the evaluator reproduces h_grid bit for bit
    f = make_map()
    res = conjugacy.solve_conjugacy(f, tol=1e-10, grid_n=grid_n)
    d = f.dim
    assert np.array_equal(res.evaluate_h(uniform_grid(d, grid_n)),
                          res.h_grid.values.reshape(-1, d))


@pytest.mark.parametrize("make_map, grid_n", [
    (small_map, 32), (lambda: cli._build_map(D4_PARAMS), 12),
    (lambda: InverseMap(small_map()), 16)],
    ids=["cat", "conjugate4", "inverse"])
def test_orbit_walk_matches_fresh_tables(make_map, grid_n):
    # the walk builds one trig table per orbit point; its terms are those of
    # the walk that calls displacement_at, apply and invert and builds every
    # table anew, bit for bit, on f and on f^-1 (which
    # test_equivariance_inverse_solve solves)
    f = make_map()
    grid = uniform_grid(f.dim, grid_n)
    if f.dim == 2:              # for f, L^-1 of it reduces to (1.0, 2^-59)
        grid[0] = [0.0, 2.0 ** -60]
    walk = list(islice(conjugacy._OrbitSeries(f).terms(grid.T), 20))
    with table_memo_off():
        ref = list(islice(orbit_terms_reference(f, grid), 20))
    for k, ((u, s), (u_ref, s_ref)) in enumerate(zip(walk, ref)):
        assert np.array_equal(u.T, u_ref) and np.array_equal(s.T, s_ref), k


@pytest.mark.parametrize("make_map", [
    small_map, lambda: small_perturbation(2, np.random.default_rng(6))],
    ids=["cat", "random d=2"])
def test_d2_walk_matches_the_row_major_walk(make_map):
    # the component-major walk, R from invert and all, yields the values of
    # the row-major walk with its own Newton inverse, bit for bit
    f = make_map()
    pts = np.random.default_rng(10).random((500, 2))
    pts[0] = [0.0, 2.0 ** -60]
    walk = islice(conjugacy._OrbitSeries(f)._walk(pts.T), 24)
    for k, (got, want) in enumerate(zip(walk, walk_rows(f, pts))):
        assert np.array_equal(got.T, want), k


@lru_cache(maxsize=None)
def _solved(name):
    f, grid_n = {"cat": (small_map(), 32),
                 "conjugate4": (cli._build_map(D4_PARAMS), 12)}[name]
    return f, conjugacy.solve_conjugacy(f, tol=1e-10, grid_n=grid_n)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.sampled_from(["cat", "conjugate4"]), st.integers(0, 2 ** 32 - 1))
def test_one_walk_residual_matches_two_walks(name, seed):
    # h(x) and h(f x) from one walk from x against two walks, one from x and
    # one from f x: h(x) is evaluate_h(x) bit for bit, and the rows differ
    # only by the Newton inverses that took the second walk back to x
    f, res = _solved(name)
    pts = np.random.default_rng(seed).random((300, f.dim))
    ev = res._evaluator
    assert np.array_equal(ev.with_image(pts)[0], ev(pts))
    one = conjugacy._conjugacy_residual(f, ev, pts)
    two = conjugacy_residual_two_walks(f, ev, pts)
    assert np.max(np.abs(one - two)) <= 1e-12


@pytest.mark.parametrize("samples", [0, -1])
def test_residual_samples_below_one_raise_before_any_walk(samples,
                                                          monkeypatch):
    res = conjugacy.solve_conjugacy(small_map(), grid_n=16)
    monkeypatch.setattr(conjugacy, "_conjugacy_residual", None)  # no walk
    with pytest.raises(ValueError, match="samples must be at least 1"):
        conjugacy.residual_check(res, samples, 0)


def _hyperbolic_perturbation(d, rng, eps=1e-4):
    """L + R with L drawn by random_unimodular until it is hyperbolic with
    adapted contraction <= 0.8 and conformal bundles, and R two sin and cos
    pairs of size eps."""
    for _ in range(500):
        base = spectral.random_unimodular(d, steps=4 * d, rng=rng,
                                          entry_cap=6)
        try:
            sd = spectral.lyapunov_splitting(base)
        except NotHyperbolic:
            continue
        if max(sd.unstable_norm.contraction,
               sd.stable_norm.contraction) <= 0.8 and conformal_bundles(base):
            break
    else:
        raise AssertionError("no hyperbolic draw in 500")
    disp = TrigPoly.zero(d, d)
    for _ in range(2):
        freq = rng.integers(-2, 3, size=d)
        freq[0] += not freq.any()
        amp = eps * rng.uniform(-1, 1, size=d)
        disp = disp + TrigPoly.sin_mode(freq, amp) + \
            TrigPoly.cos_mode(rng.permutation(freq), amp[::-1])
    return maps.PerturbedMap(base, disp, warn=False)


@settings(derandomize=True, deadline=None, max_examples=24)
@given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1))
def test_conjugacy_is_equivariant_and_of_degree_one(d, seed):
    rng = np.random.default_rng(seed)
    f = _hyperbolic_perturbation(d, rng)
    res = conjugacy.solve_conjugacy(f, tol=1e-10, grid_n=16 if d == 2 else 6)
    x = rng.random((200, d))
    hx = res.evaluate(x)
    # degree one: H(x + k) - H(x) = k for k in Z^d.  x + k rounds x, and
    # the Newton inverses along the two walks stop at 1e-13 residuals, so
    # the two sides differ by up to about 3e-13; h is Lipschitz at that
    # scale only because the bundles are conformal
    k = rng.integers(-3, 4, size=(200, d)).astype(float)
    assert np.max(np.abs(res.evaluate(x + k) - hx - k)) < res.tol
    # equivariance: L H(x) = H(f x) mod Z^d, to the solve's tolerance
    diff = hx @ f.base.as_array().T - res.evaluate(f.apply(x))
    assert np.max(np.abs(diff - np.round(diff))) < 10 * res.tol


def test_periodic_covariance():
    f = small_map()
    res = conjugacy.solve_conjugacy(f, tol=1e-10, grid_n=32)
    assert conjugacy.periodic_covariance(res, n_max=2) < 1e-8


# ---------------------------------------------------------------------------
# Counterexample
# ---------------------------------------------------------------------------

A2 = [[2, 1], [1, 1]]
B2 = [[3, 1], [2, 1]]


def test_counterexample_trivial_phi():
    ce = conjugacy.build_counterexample(A2, B2, TrigPoly.zero(2, 1),
                                        k_trunc=10)
    pts = np.random.default_rng(4).random((100, 2))
    assert np.max(np.abs(ce.psi(pts))) == 0.0


def test_counterexample_identities():
    ce = conjugacy.build_counterexample(A2, B2,
                                        TrigPoly.sin_mode((1, 0), 0.01),
                                        k_trunc=60)
    rng = np.random.default_rng(5)
    assert ce.cohomological_residual(rng.random((2000, 2))) < 1e-12
    assert ce.conjugacy_residual(rng.random((2000, 4))) < 1e-10
    assert ce.tail_bound < 1e-24


def test_counterexample_holder_exponent():
    ce = conjugacy.build_counterexample(A2, B2,
                                        TrigPoly.sin_mode((1, 0), 0.01),
                                        k_trunc=60)
    est = estimate_holder(lambda p: ce.psi(p)[..., None], dim=2,
                          pairs=10000, seed=1)
    assert abs(est.exponent - ce.holder_expected) < 0.05


def test_order_violation():
    with pytest.raises(OrderViolation):
        conjugacy.build_counterexample(B2, A2, TrigPoly.sin_mode((1, 0), 0.01))


def test_smooth_case_recovery():
    # phi = lam psi - psi o B for a finite psi: the skew series recovers
    # psi, and the resulting conjugacy is a finite trig polynomial
    lam, _ = conjugacy._leading_eigen(A2)
    psi_poly = TrigPoly.sin_mode((1, 0), 0.004) + \
        TrigPoly.cos_mode((0, 1), 0.002)
    phi = lam * psi_poly - psi_poly.compose_affine(B2)
    ce = conjugacy.build_counterexample(A2, B2, phi, k_trunc=80)
    pts = np.random.default_rng(7).random((500, 2))
    want = psi_poly.eval_real(pts)[:, 0]
    got = ce.psi(pts)
    assert np.max(np.abs(got - want)) < 1e-10


def _hyperbolic_2x2(rng):
    while True:
        b = spectral.random_unimodular(2, steps=6, rng=rng, entry_cap=4)
        if abs(b.rows()[0][0] + b.rows()[1][1]) > 2:
            return b


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 40),
       st.sampled_from([(2,), (1, 2), (37, 2), (5, 7, 2)]))
def test_skew_series_matches_the_row_major_walk(seed, n_modes, terms, shape):
    # psi walks y as (2, P) rows in place; the row-major walk with a new
    # array per step gives the same bits, for points inside and outside
    # [0, 1)^2 and for every point shape
    rng = np.random.default_rng(seed)
    b = _hyperbolic_2x2(rng)
    mu = max(abs(np.linalg.eigvals(b.as_array())))
    lam = rng.choice([-1.0, 1.0]) * rng.uniform(1.0 + 1e-3, mu)
    phi = TrigPoly.zero(2, 1)
    for _ in range(n_modes):
        mode = TrigPoly.sin_mode if rng.random() < 0.5 else TrigPoly.cos_mode
        phi = phi + mode(rng.integers(-3, 4, size=2), rng.normal())
    psi = conjugacy.SkewSeries(phi, b.rows(), lam, terms)
    pts = rng.uniform(-3.0, 3.0, size=shape)
    before = pts.copy()
    want = skew_series_rows(psi, pts.copy())
    got = psi(pts)
    assert got.shape == want.shape == shape[:-1]
    assert got.tobytes() == want.tobytes()
    assert pts.tobytes() == before.tobytes()   # the caller's points stay


@pytest.mark.parametrize("shape", [(4,), (1, 4)])
def test_one_point_conjugacy_matches_the_batch(shape):
    # one point outside [0, 1)^4 gives the same H and residual as the same
    # point inside a batch, and neither call changes the caller's points
    ce = conjugacy.build_counterexample(A2, B2,
                                        TrigPoly.sin_mode((1, 0), 0.01),
                                        k_trunc=60)
    batch = np.random.default_rng(11).uniform(-2.5, 2.5, size=(9, 4))
    one = batch[3].reshape(shape).copy()
    kept = one.copy()
    h_one = ce.conjugacy.evaluate(one)
    assert one.tobytes() == kept.tobytes()
    assert h_one.reshape(4).tobytes() == \
        ce.conjugacy.evaluate(batch)[3].tobytes()
    res_one = ce.conjugacy_residual(one)
    assert one.tobytes() == kept.tobytes()
    assert res_one < 1e-10
    assert ce.conjugacy_residual(batch) < 1e-10


def test_jacobian_trivial():
    f = maps.build(CAT, TrigPoly.zero(2, 2))
    res = conjugacy.solve_conjugacy(f, grid_n=32)
    rep = conjugacy.jacobian_dh(res)
    assert rep.residual_eq < 1e-12
    assert abs(rep.min_det - 1.0) < 1e-12


def test_jacobian_equation_residual_small_perturbation():
    f = small_map()
    res = conjugacy.solve_conjugacy(f, tol=1e-10, grid_n=64)
    rep = conjugacy.jacobian_dh(res)
    assert rep.min_det > 0.5
    # h is only Holder: the equation residual is far above the conjugacy
    # residual and does not vanish with resolution (non-C1 telemetry is
    # exercised at acceptance level)
    assert rep.residual_eq > 1e-6
