import numpy as np
import pytest

from toralab import cocycles, conjugacy, maps, spectral
from toralab.errors import GapTooSmall
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
        y = spec.f.invert(y)
    direct = np.linalg.inv(cocycles.cocycle_product(spec, y, 3))
    assert np.max(np.abs(prod - direct)) < 1e-9


def test_lyapunov_qr_linear_exact():
    spec = cocycles.CocycleSpec(linear_map(), "derivative")
    rep = cocycles.lyapunov_qr(spec, [0.2, 0.5], 400,
                               reference=[-np.log(GOLDEN), np.log(GOLDEN)])
    assert rep.max_deviation < 1e-12
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
    rep = cocycles.lyapunov_qr(spec, [0.1, 0.2, 0.3, 0.4], 300, reference=ref)
    assert rep.max_deviation < 1e-12


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
    res = conjugacy.solve_conjugacy(f, grid_n=32, residual_samples=50)
    rep = cocycles.dh_as_cocycle_conjugacy(res, sample_n=16, pairs=500)
    assert rep.residual < 1e-12
    assert rep.min_det > 0.99


def test_smooth_constructed_case_has_small_dh_residual():
    # finite-mode psi gives a smooth conjugacy; the Jacobian equation
    # residual is tiny once the grid resolves the modes
    lam, _ = conjugacy._leading_eigen([[2, 1], [1, 1]])
    psi_poly = TrigPoly.sin_mode((1, 0), 0.003)
    phi = conjugacy.skew_phi_from_finite_psi(
        psi_poly, lam, spectral.automorphism([[3, 1], [2, 1]]))
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
