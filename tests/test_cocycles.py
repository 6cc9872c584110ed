import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_helpers import (lyapunov_batch_per_step,
                            periodic_diagnostics_per_orbit,
                            small_perturbation)
from toralab import cli, cocycles, conjugacy, maps, spectral
from toralab.errors import GapTooSmall, LostOrthogonality, SingularGenerator
from toralab.torusfn import TrigPoly

CAT = spectral.automorphism([[2, 1], [1, 1]])
GOLDEN = (3 + np.sqrt(5)) / 2
MU = 2 + np.sqrt(3)


def linear_map():
    return maps.build(CAT, TrigPoly.zero(2, 2))


def small_map(eps=1e-3):
    return maps.build(CAT, TrigPoly.sin_mode((0, 1), [eps, 0.0]), warn=False)


def test_constant_generator_powers():
    a0 = np.array([[1.0, 1.0], [0.0, 1.0]])
    spec = cocycles.CocycleSpec(linear_map(), "constant", matrix=a0)
    prod = cocycles.cocycle_product(spec, [0.1, 0.2], 5)
    assert np.allclose(prod, np.linalg.matrix_power(a0, 5), atol=1e-12)


def test_derivative_cocycle_linear():
    spec = cocycles.CocycleSpec(linear_map(), "derivative")
    prod = cocycles.cocycle_product(spec, [0.3, 0.7], 4)
    assert np.allclose(prod, np.linalg.matrix_power(CAT.as_array(), 4),
                       atol=1e-12)


def test_cocycle_identity_property():
    spec = cocycles.CocycleSpec(small_map(), "derivative")
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.random(2)
        n, k = int(rng.integers(1, 51)), int(rng.integers(1, 51))
        lhs = cocycles.cocycle_product(spec, x, n + k)
        y = x.copy()
        for _ in range(n):
            y = spec.f.apply(y)
        rhs = cocycles.cocycle_product(spec, y, k) @ \
            cocycles.cocycle_product(spec, x, n)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


def test_negative_n_inverse_formula():
    spec = cocycles.CocycleSpec(small_map(), "derivative")
    x = np.array([0.25, 0.6])
    prod = cocycles.cocycle_product(spec, x, -3)
    y = x.copy()
    for _ in range(3):
        y = spec.f.invert(y)[0]
    direct = np.linalg.inv(cocycles.cocycle_product(spec, y, 3))
    assert np.max(np.abs(prod - direct)) < 1e-9


def test_lyapunov_qr_linear_exact():
    spec = cocycles.CocycleSpec(linear_map(), "derivative")
    rep = cocycles.lyapunov_qr(spec, [0.2, 0.5], 400)
    assert rep.compare([-np.log(GOLDEN), np.log(GOLDEN)]) < 1e-12
    assert rep.det_consistency < 1e-10


def test_lyapunov_volume_perturbed():
    spec = cocycles.CocycleSpec(small_map(), "derivative")
    rep = cocycles.lyapunov_volume(spec, 1000, grid_per_axis=6,
                                   reference=[-np.log(GOLDEN),
                                              np.log(GOLDEN)])
    assert rep.max_deviation < 5e-3
    assert np.max(np.abs(np.sort(rep.birkhoff) - rep.reference)) < 5e-2


def test_block_map_four_exponents():
    l4 = spectral.block_diagonal(CAT, spectral.automorphism([[3, 1], [2, 1]]))
    f4 = maps.build(l4, TrigPoly.zero(4, 4))
    spec = cocycles.CocycleSpec(f4, "derivative")
    ref = [-np.log(MU), -np.log(GOLDEN), np.log(GOLDEN), np.log(MU)]
    rep = cocycles.lyapunov_qr(spec, [0.1, 0.2, 0.3, 0.4], 300)
    assert rep.compare(ref) < 1e-12


def _random_spec(d, kind, rng):
    """A cocycle of the given kind over a random small perturbation."""
    f = small_perturbation(d, rng)
    if kind == "constant":
        return cocycles.CocycleSpec(f, kind, matrix=rng.normal(size=(3, 3)))
    if kind == "restriction":
        return cocycles.CocycleSpec(f, kind, cluster_index=0)
    return cocycles.CocycleSpec(f, kind)


def _assert_matches_per_step(got, ref):
    # chunked products and the log |det| diagonal round differently from
    # one QR per step; 1e-12 is the exponent tolerance of the chunking
    assert abs(got["osc"] - ref["osc"]) <= 1e-12
    for key in ("exps", "full", "det"):
        assert np.max(np.abs(got[key] - ref[key])) <= 1e-12, key


_SEEDS = st.integers(0, 2 ** 32 - 1)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.tuples(st.integers(2, 4),
                 st.sampled_from(["derivative", "restriction", "constant"]),
                 st.sampled_from([1, 4]), st.integers(3, 40) |
                 st.integers(100, 600), st.integers(1, 8) |
                 st.integers(64, 600), _SEEDS) |
       st.tuples(st.just(2), st.sampled_from(["derivative", "restriction"]),
                 st.sampled_from([1, 4]), st.integers(400, 600),
                 st.integers(200, 600), _SEEDS))
@example((2, "derivative", 4, 600, 600, 0))
@example((3, "derivative", 1, 600, 600, 0))
@example((2, "restriction", 1, 1, 1, 0))
def test_lyapunov_batch_matches_per_step_reference(case):
    # blocks of 1-8 steps cross block boundaries in most draws of the first
    # form; the second form runs m <= 2 with halves of 200 or more steps in
    # one block, so that its chunks are as long as the log budget allows
    # (100 to 180 steps here); the examples give chunks of about 100 steps
    # (m = 2), the one-step chunks of m = 3, and n = 1, whose tail is the
    # whole orbit
    d, kind, s_count, n, block_steps, seed = case
    rng = np.random.default_rng(seed)
    spec = _random_spec(d, kind, rng)
    xs = rng.random((s_count, d))
    with mock.patch.object(cocycles, "LYAPUNOV_BLOCK",
                           block_steps * s_count * spec.m ** 2):
        got = cocycles._lyapunov_batch(spec, xs, n)
    _assert_matches_per_step(got, lyapunov_batch_per_step(spec, xs, n))


def test_lyapunov_batch_matches_reference_across_the_block_cap():
    # 36 points and m = 2 give blocks of 227 steps, as in the lyapunov
    # scenario; one point gives one block of 1000
    spec = cocycles.CocycleSpec(small_map(), "derivative")
    grid = (np.stack(np.meshgrid(*[np.arange(6) / 6 + 1 / 12] * 2,
                                 indexing="ij"), axis=-1).reshape(-1, 2))
    for xs in (grid, grid[:1]):
        _assert_matches_per_step(cocycles._lyapunov_batch(spec, xs, 1000),
                                 lyapunov_batch_per_step(spec, xs, 1000))


@pytest.mark.parametrize("matrix, want", [
    # singular values 1e300 apart: without the log budget a chunk of 20
    # steps would overflow to inf and underflow to 0
    (np.diag([1e150, 1e-150]), [-np.log(1e150), np.log(1e150)]),
    # det a underflows to 0 (m = 2, 3) or overflows to inf, while each
    # step is well conditioned
    (1e-170 * np.eye(2), [np.log(1e-170)] * 2),
    (1e-110 * np.eye(3), [np.log(1e-110)] * 3),
    (1e200 * np.eye(2), [np.log(1e200)] * 2),
    (np.array([[1e-200]]), [np.log(1e-200)]),
])
def test_lyapunov_chunks_stay_in_range(matrix, want):
    spec = cocycles.CocycleSpec(small_map(), "constant", matrix=matrix)
    rep = cocycles.lyapunov_qr(spec, [0.1, 0.2], 20)
    assert np.allclose(rep.exponents, want, rtol=1e-12, atol=0)
    assert np.allclose(rep.full_average, want, rtol=1e-12, atol=0)
    assert rep.det_consistency <= 1e-12 * abs(sum(want))


def test_lyapunov_scenario_reorthonormalizes_per_chunk(tmp_path):
    # the bench's seed-3 lyapunov manifest: 1000 steps at 36 points and
    # 8000 Birkhoff steps, 9000 QR calls at one per step
    manifest = {"scenario": "lyapunov", "seed": 3,
                "params": {"matrix": [[2, 1], [1, 1]], "eps": 1e-3,
                           "modes": [{"freq": [0, 1], "amplitude": [1.0],
                                      "kind": "sin"}],
                           "n": 1000, "grid_per_axis": 6}}
    path = tmp_path / "ly.json"
    path.write_text(json.dumps(manifest))
    with mock.patch.object(cocycles, "_qr_positive",
                           wraps=cocycles._qr_positive) as spy:
        assert cli.main(["lyapunov", "--manifest", str(path),
                         "--out", str(tmp_path)]) == 0
    assert 0 < spy.call_count <= 200


def test_lyapunov_rejects_runs_without_steps():
    spec = cocycles.CocycleSpec(small_map(), "derivative")
    with pytest.raises(ValueError, match="at least 1"):
        cocycles.lyapunov_qr(spec, [0.2, 0.5], 0)
    with pytest.raises(ValueError, match="at least 1"):
        cocycles.lyapunov_volume(spec, 0, grid_per_axis=2)


SINGULAR = [[1.0, 0.0], [0.0, 0.0]]


def test_singular_generator_raises_on_products():
    f = small_map()
    spec = cocycles.CocycleSpec(f, "constant", matrix=SINGULAR)
    with pytest.raises(SingularGenerator, match=r"near \[0.1 0.2\]"):
        cocycles.cocycle_product(spec, [0.1, 0.2], 5)
    orbit = maps.periodic_points(f, 2).orbits[-1]
    with pytest.raises(SingularGenerator, match="singular near"):
        cocycles.exponents_at_periodic(spec, orbit)
    with pytest.raises(SingularGenerator, match="singular near"):
        cocycles.conformality_at_periodic(spec, orbit)


def test_derivative_periodic_diagnostics_read_the_orbit_product():
    # the derivative kind makes no generator call: it reads deriv_product
    # and applies the singularity test to it
    f = small_map()
    orbit = maps.periodic_points(f, 1).orbits[0]
    spec = cocycles.CocycleSpec(f, "derivative")
    singular = dataclasses.replace(orbit, deriv_product=np.array(SINGULAR))
    diagnostics = (cocycles.exponents_at_periodic,
                   cocycles.conformality_at_periodic)
    with mock.patch.object(spec, "generator", side_effect=AssertionError):
        for diagnostic in diagnostics:
            diagnostic(spec, orbit)
            with pytest.raises(SingularGenerator, match="singular near"):
                diagnostic(spec, singular)


def _assert_same_bits(got, want):
    # every field of two report records, arrays and floats bit for bit
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if a is None or b is None or isinstance(b, str):
            assert a == b, field.name
        else:
            assert np.shape(a) == np.shape(b), field.name
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), \
                field.name


def _assert_diagnostics_match_per_orbit(spec, orbits, reference):
    got = cocycles.periodic_diagnostics(spec, orbits, reference)
    want = periodic_diagnostics_per_orbit(spec, orbits, reference)
    assert len(got) == len(want) == len(orbits)
    for (rep, conf), (rep0, conf0) in zip(got, want):
        _assert_same_bits(rep, rep0)
        _assert_same_bits(conf, conf0)


def _d3_map():
    # L has a real stable eigenvalue and an expanding complex pair, with
    # 4 fixed points and 32 points of period dividing 2
    return small_perturbation(3, np.random.default_rng(0), n=2,
                              max_points=60)


def _orbits_of_period(f, n):
    return [o for o in maps.periodic_points(f, n).orbits if o.period == n]


@pytest.mark.parametrize("kind", ["derivative", "constant", "restriction"])
def test_periodic_diagnostics_match_one_orbit_at_a_time(kind):
    # one eigvals, det and eig over the stack of products read the same
    # bits as those calls on each product: cat-map periods 1-4 (1, 2, 5
    # and 15 orbits) and d = 3 periods 1-2, whose products have a complex
    # pair
    matrix = {2: [[0.6, -1.3], [0.9, 0.4]], 3: np.arange(9.0).reshape(3, 3)
              + np.eye(3)}
    for f, periods in ((small_map(), (1, 2, 3, 4)), (_d3_map(), (1, 2))):
        if kind == "constant":
            spec = cocycles.CocycleSpec(f, kind, matrix=matrix[f.dim])
        elif kind == "restriction":
            spec = cocycles.CocycleSpec(f, kind, cluster_index=1)
        else:
            spec = cocycles.CocycleSpec(f, kind)
        ref = f.spec.exponents if kind == "derivative" else None
        for n in periods:
            _assert_diagnostics_match_per_orbit(spec, _orbits_of_period(f, n),
                                                ref)


class _TwoMatrices(cocycles.CocycleSpec):
    """A(x) is a scaled rotation for x_1 < 1/2 and a diagonal matrix
    otherwise, so orbit products mix real and complex spectra."""

    def __init__(self, f):
        super().__init__(f, "constant", matrix=np.eye(2))

    def generator(self, x):
        rot = 1.5 * np.array([[np.cos(1.1), -np.sin(1.1)],
                              [np.sin(1.1), np.cos(1.1)]])
        left = np.asarray(x)[..., 0] < 0.5
        return np.where(left[..., None, None], rot, np.diag([2.0, 0.5]))


def test_periodic_diagnostics_match_on_mixed_spectra():
    # np.linalg.eig returns complex arrays for the whole stack once one
    # product has a complex pair; the verdicts of the real-spectrum
    # products keep their bits
    f = small_map()
    spec = _TwoMatrices(f)
    for n in (1, 2, 3, 4):
        orbits = _orbits_of_period(f, n)
        prods = [cocycles._periodic_product(spec, o) for o in orbits]
        if n == 4:
            real = [not np.linalg.eigvals(p).imag.any() for p in prods]
            assert any(real) and not all(real)
        _assert_diagnostics_match_per_orbit(spec, orbits, None)


def test_periodic_diagnostics_form_one_product_per_orbit():
    # 5 period-3 orbits of the benchmark's cocycle map with the expanding
    # restriction: one generator call per orbit, shared by the exponents
    # and the conformality check (10 when each forms its own product)
    f = cli._build_map({"matrix": [[2, 1], [1, 1]], "eps": 1e-3,
                        "modes": [{"freq": [0, 1], "amplitude": [1.0],
                                   "kind": "sin"}]})
    spec = cocycles.CocycleSpec(f, "restriction", cluster_index=1)
    orbits = _orbits_of_period(f, 3)
    assert len(orbits) == 5
    with mock.patch.object(spec, "generator",
                           wraps=spec.generator) as generator:
        diagnostics = cocycles.periodic_diagnostics(spec, orbits, None)
    assert generator.call_count == 5
    assert [c.args[0].shape for c in generator.call_args_list] == \
        [(3, 2)] * 5
    assert len(diagnostics) == 5
    assert cocycles.periodic_diagnostics(spec, [], None) == []


def test_singular_generator_loses_the_qr_frame():
    spec = cocycles.CocycleSpec(small_map(), "constant", matrix=SINGULAR)
    with pytest.raises(LostOrthogonality, match="at step 0$"):
        cocycles.lyapunov_qr(spec, [0.1, 0.2], 10)


class _SingularAt(cocycles.CocycleSpec):
    """The identity cocycle, singular at one point."""

    def __init__(self, f, point):
        super().__init__(f, "constant", matrix=np.eye(2))
        self.point = point

    def generator(self, x):
        a = super().generator(x)
        a[np.all(np.asarray(x) == self.point, axis=-1)] = SINGULAR
        return a


@pytest.mark.parametrize("block_steps", [1, 4, 100])
def test_lost_orthogonality_names_the_step(block_steps):
    f = small_map()
    y = np.array([[0.1, 0.2]])
    for _ in range(7):
        y = f.apply(y)
    spec = _SingularAt(f, y[0])
    with mock.patch.object(cocycles, "LYAPUNOV_BLOCK", block_steps * 4):
        with pytest.raises(LostOrthogonality, match="at step 7$"):
            cocycles.lyapunov_qr(spec, [0.1, 0.2], 20)
    with pytest.raises(SingularGenerator, match="singular near"):
        cocycles.cocycle_product(spec, [0.1, 0.2], 9)
    assert np.array_equal(cocycles.cocycle_product(spec, [0.1, 0.2], 7),
                          np.eye(2))


def test_periodic_exponents_linear_exact():
    f = linear_map()
    spec = cocycles.CocycleSpec(f, "derivative")
    orbit = maps.periodic_points(f, 1).orbits[0]
    rep = cocycles.exponents_at_periodic(
        spec, orbit, reference=[-np.log(GOLDEN), np.log(GOLDEN)])
    assert rep.max_deviation < 1e-14


def test_periodic_exponents_counterexample_match_linear():
    ce = conjugacy.build_counterexample([[2, 1], [1, 1]], [[3, 1], [2, 1]],
                                        TrigPoly.sin_mode((1, 0), 0.01),
                                        k_trunc=40)
    spec = cocycles.CocycleSpec(ce.f, "derivative")
    ref = ce.f.spec.exponents
    for n in (1, 2):
        for orbit in maps.periodic_points(ce.f, n).orbits:
            rep = cocycles.exponents_at_periodic(spec, orbit, reference=ref)
            assert rep.max_deviation < 1e-8


def test_periodic_exponents_generic_mismatch():
    disp = TrigPoly.sin_mode((0, 1), [0.05, 0.0]) + \
        TrigPoly.cos_mode((1, 0), [0.0, 0.05])
    f = maps.build(CAT, disp, warn=False)
    spec = cocycles.CocycleSpec(f, "derivative")
    orbit = maps.periodic_points(f, 1).orbits[0]
    rep = cocycles.exponents_at_periodic(spec, orbit,
                                         reference=f.spec.exponents)
    assert rep.max_deviation > 1e-4


def test_conformality_examples():
    rot = 1.7 * np.array([[np.cos(0.6), -np.sin(0.6)],
                          [np.sin(0.6), np.cos(0.6)]])
    assert cocycles.conformality_check(rot).verdict == "conformal"
    assert cocycles.conformality_check(rot).conjugator_cond < 1.01
    assert cocycles.conformality_check(np.diag([2.0, 3.0])).verdict == \
        "not_conformal"
    assert cocycles.conformality_check(
        np.array([[2.0, 1.0], [0.0, 2.0]])).verdict == "not_conformal"
    assert cocycles.conformality_check(np.diag([2.0, -2.0])).verdict == \
        "conformal"


def test_fiber_bunching_cat_derivative():
    spec = cocycles.CocycleSpec(linear_map(), "derivative")
    rep = cocycles.fiber_bunching_check(spec, beta=1.0)
    assert not rep.bunched
    assert abs(rep.value - GOLDEN) < 1e-8


def test_fiber_bunching_restriction():
    f = linear_map()
    idx = [i for i, c in enumerate(f.spec.clusters) if c.rho > 1][0]
    spec = cocycles.CocycleSpec(f, "restriction", cluster_index=idx)
    rep = cocycles.fiber_bunching_check(spec, beta=1.0)
    assert rep.bunched
    assert abs(rep.value - 1 / GOLDEN) < 1e-8


def test_fiber_bunching_perturbed_restriction():
    f0 = linear_map()
    idx = [i for i, c in enumerate(f0.spec.clusters) if c.rho > 1][0]
    base = cocycles.fiber_bunching_check(
        cocycles.CocycleSpec(f0, "restriction", cluster_index=idx), beta=1.0)
    f = small_map()
    spec = cocycles.CocycleSpec(f, "restriction", cluster_index=idx)
    rep = cocycles.fiber_bunching_check(spec, beta=1.0)
    assert rep.bunched
    assert abs(rep.value - base.value) / base.value < 0.1


def test_constant_conformal_always_bunched():
    a0 = 2.0 * np.array([[np.cos(1.0), -np.sin(1.0)],
                         [np.sin(1.0), np.cos(1.0)]])
    spec = cocycles.CocycleSpec(linear_map(), "constant", matrix=a0)
    rep = cocycles.fiber_bunching_check(spec, beta=0.5)
    assert rep.bunched


def test_oseledets_linear_exact():
    f = linear_map()
    spec = cocycles.CocycleSpec(f, "derivative")
    for i in range(2):
        est = cocycles.oseledets_subbundle(spec, np.array([0.3, 0.4]), 40, i)
        assert est.angle_to_linear < 1e-10
        assert est.convergence < 1e-10


def test_oseledets_skew_tilt_scales_linearly():
    angles = {}
    x0 = np.array([0.1, 0.2, 0.3, 0.4])
    for eps in (1e-3, 1e-2):
        ce = conjugacy.build_counterexample(
            [[2, 1], [1, 1]], [[3, 1], [2, 1]],
            TrigPoly.sin_mode((1, 0), eps), k_trunc=50)
        spec = cocycles.CocycleSpec(ce.f, "derivative")
        rhos = [c.rho for c in ce.f.spec.clusters]
        i_mu = int(np.argmax(rhos))
        angles[eps] = cocycles.oseledets_subbundle(spec, x0, 50,
                                                   i_mu).angle_to_linear
    ratio = (angles[1e-2] / 1e-2) / (angles[1e-3] / 1e-3)
    assert 0.5 < ratio < 2.0          # O(eps) scaling
    assert angles[1e-3] < 5e-3


def test_oseledets_gap_error():
    # diag(L, L) has equal exponents in two clusters? no: one cluster of
    # multiplicity 2, so use a tiny run where oscillation dwarfs the gap
    f = small_map()
    spec = cocycles.CocycleSpec(f, "derivative")
    with pytest.raises(GapTooSmall):
        cocycles.oseledets_subbundle(spec, np.array([0.3, 0.7]), 4, 0,
                                     gap_factor=1e6)


def test_dh_cocycle_conjugacy_trivial():
    f = linear_map()
    res = conjugacy.solve_conjugacy(f, grid_n=32)
    rep = cocycles.dh_as_cocycle_conjugacy(res)
    assert rep.residual < 1e-12
    assert rep.min_det > 0.99


def test_smooth_constructed_case_has_small_dh_residual():
    # finite-mode psi gives a smooth conjugacy; the Jacobian equation
    # residual is tiny once the grid resolves the modes
    lam, _ = conjugacy._leading_eigen([[2, 1], [1, 1]])
    psi_poly = TrigPoly.sin_mode((1, 0), 0.003)
    phi = lam * psi_poly - psi_poly.compose_affine([[3, 1], [2, 1]])
    ce = conjugacy.build_counterexample([[2, 1], [1, 1]], [[3, 1], [2, 1]],
                                        phi, k_trunc=80)
    # evaluate L DH - (DH o f) Df at random points with the exact skew DH
    rng = np.random.default_rng(8)
    pts = rng.random((200, 4))
    v = ce.eigvec
    lmat = ce.f.base.as_array()

    def dh(points):
        jac = psi_poly.eval_jacobian(points[..., 2:]).real  # (., 1, 2)
        out = np.tile(np.eye(4), points.shape[:-1] + (1, 1))
        out[..., 0, 2:] = v[0] * jac[..., 0, :]
        out[..., 1, 2:] = v[1] * jac[..., 0, :]
        return out

    dfx = ce.f.jacobian(pts)
    resid = lmat @ dh(pts) - dh(ce.f.apply(pts)) @ dfx
    assert np.max(np.abs(resid)) < 1e-8
