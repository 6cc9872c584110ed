import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import trig_eval_direct, trig_jacobian_direct
from toralab import exactalg
from toralab import torusfn as tf
from toralab.errors import UnreliableFit


def test_eval_zero():
    z = tf.TrigPoly.zero(2, 2)
    assert np.allclose(z.eval_real(np.random.default_rng(0).random((5, 2))), 0)


def test_eval_scaled_sin():
    phi = tf.TrigPoly.sin_mode((1, 0), 0.25)
    assert np.allclose(phi.eval_real([0.25, 0.9])[0], 0.25, atol=1e-15)


def test_eval_half_period_mode():
    single = tf.TrigPoly(2, 1, {(1, 2): np.array([1.0 + 0j])})
    val = single.eval(np.array([0.5, 0.0]))
    assert np.allclose(val, [-1.0], atol=1e-14)


def test_transform_constant():
    gf = tf.GridFunction(np.full((8, 8, 1), 3.5))
    tp = gf.to_trig()
    assert np.allclose(tp[(0, 0)], [3.5])
    assert len(tp.coeffs) == 1


def test_transform_sin_coefficients():
    n = 16
    x = np.arange(n) / n
    vals = np.sin(2 * np.pi * x)[:, None, None] * np.ones((1, n, 1))
    tp = tf.GridFunction(vals).to_trig(threshold=1e-12)
    assert np.allclose(tp[(1, 0)], [-0.5j], atol=1e-14)
    assert np.allclose(tp[(-1, 0)], [0.5j], atol=1e-14)


def test_roundtrip_identity_under_nyquist():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(16, 16, 2))
    gf = tf.GridFunction(vals)
    back = gf.to_trig().to_grid(16, allow_alias=True)
    assert np.max(np.abs(back.values.real - vals)) < 1e-12
    # and through a finer grid once the support fits strictly
    tp = gf.to_trig().threshold(1e-9)
    tp2, _ = tp.restrict(7)
    again = tp2.to_grid(16).to_trig(threshold=0.0)
    for n in tp2.coeffs:
        assert np.allclose(tp2[n], again[n], atol=1e-12)


def test_plancherel():
    rng = np.random.default_rng(4)
    gf = tf.GridFunction(rng.normal(size=(32, 32, 3)))
    assert abs(gf.to_trig().l2_norm() - gf.l2_norm()) < 1e-12


def test_compose_affine_matches_pointwise():
    s = tf.TrigPoly.sin_mode((1, 0), 1.0)
    comp = s.compose_affine([[2, 1], [1, 1]])
    pts = np.random.default_rng(5).random((200, 2))
    want = np.sin(2 * np.pi * (2 * pts[:, 0] + pts[:, 1]))
    assert np.max(np.abs(comp.eval_real(pts)[:, 0] - want)) < 1e-12


def test_compose_affine_group_action():
    rng = np.random.default_rng(6)
    tp = tf.TrigPoly(2, 2)
    for _ in range(5):
        n = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        tp[n] = rng.normal(size=2) + 1j * rng.normal(size=2)
    l1 = [[2, 1], [1, 1]]
    l2 = [[1, 1], [1, 2]]
    l12 = [[3, 4], [5, 7]]   # wrong on purpose? no: compute below
    l12 = (np.array(l1) @ np.array(l2)).tolist()
    lhs = tp.compose_affine(l1).compose_affine(l2)
    rhs = tp.compose_affine(np.array(l2) @ np.array(l1))
    # (f o L1) o L2 (x) = f(L1 L2 x): exact coefficient equality
    direct = tp.compose_affine(np.array(l1) @ np.array(l2))
    for n in set(list(lhs.coeffs) + list(direct.coeffs)):
        assert np.allclose(lhs[n], direct[n], atol=0)


def test_identity_compose():
    tp = tf.TrigPoly.sin_mode((2, -1), [0.3, 0.7])
    same = tp.compose_affine(np.eye(2, dtype=int))
    assert set(same.coeffs) == set(tp.coeffs)
    for n in tp.coeffs:
        assert np.allclose(same[n], tp[n], atol=0)


def test_derivative_simple():
    s = tf.TrigPoly.sin_mode((1,), 1.0)
    ds = s.partial(0)
    x = np.array([[0.0], [0.1]])
    assert np.allclose(ds.eval_real(x)[:, 0],
                       2 * np.pi * np.cos(2 * np.pi * x[:, 0]), atol=1e-12)


def test_derivative_finite_difference_oracle():
    rng = np.random.default_rng(7)
    tp = tf.TrigPoly(2, 1)
    for _ in range(8):
        n = tuple(int(v) for v in rng.integers(-4, 5, size=2))
        tp[n] = rng.normal(size=1) + 1j * rng.normal(size=1)
    tp = tp.symmetrize_real()
    pts = rng.random((100, 2))
    h = 1e-5
    jac = tp.eval_jacobian(pts).real
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (tp.eval_real(pts + e) - tp.eval_real(pts - e)) / (2 * h)
        assert np.max(np.abs(fd[:, 0] - jac[:, 0, axis])) < 1e-6


def test_derivative_commutes_with_compose():
    # chain rule for linear substitutions, coefficientwise
    rng = np.random.default_rng(8)
    tp = tf.TrigPoly(2, 1)
    for _ in range(6):
        n = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        tp[n] = rng.normal(size=1) + 1j * rng.normal(size=1)
    m = np.array([[2, 1], [1, 1]])
    v = np.array([1.0, -2.0])
    lhs = tp.compose_affine(m).derivative(v)
    rhs = tp.derivative(m @ v).compose_affine(m)
    for n in set(list(lhs.coeffs) + list(rhs.coeffs)):
        assert np.allclose(lhs[n], rhs[n], atol=1e-12)


def test_c0_bounds_bracket():
    eps = 1e-3
    b = tf.c0_norm(tf.TrigPoly.sin_mode((1, 0), eps))
    assert b.lower <= eps + 1e-15
    assert abs(b.upper - eps) < 1e-15
    assert b.lower > 0.99 * eps


@st.composite
def sparse_real_polys(draw):
    """Real TrigPoly on T^d, d in 2..4, with 1-6 modes of |n|_inf <= 3."""
    d = draw(st.integers(2, 4))
    m = draw(st.integers(1, 2))
    tp = tf.TrigPoly(d, m)
    for _ in range(draw(st.integers(1, 6))):
        freq = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        amp = draw(st.lists(st.floats(-1, 1), min_size=m, max_size=m))
        mode = tf.TrigPoly.sin_mode(freq, amp) if draw(st.booleans()) else \
            tf.TrigPoly.cos_mode(freq, amp)
        tp = tp + mode
    return tp


def _full_grid_sup(tp, grid_n):
    vals = tp.to_grid(grid_n, allow_alias=True).values
    return np.max(np.abs(vals.real)) if tp.is_real(1e-9) else \
        np.max(np.abs(vals))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(sparse_real_polys(), st.integers(4, 10))
def test_grid_sup_rank_reduction_matches_full_grid(tp, grid_n):
    # N <= 2 * support_radius (aliased) is drawn as well as exact grids
    expected = _full_grid_sup(tp, grid_n)
    assert tf.grid_sup(tp, grid_n) == pytest.approx(expected, rel=1e-13,
                                                    abs=1e-15)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.lists(st.integers(-4, 4), min_size=d, max_size=d),
    min_size=0, max_size=7).map(lambda rows: (d, rows))))
def test_column_reduce_unimodular_and_rank(case):
    d, rows = case
    u, r = exactalg.column_reduce(rows, d)
    assert exactalg.det_bareiss(u) in (1, -1)
    assert r == (np.linalg.matrix_rank(np.array(rows, dtype=float))
                 if rows else 0)
    for n in rows:
        assert not any(exactalg.mat_vec(list(zip(*u)), n)[r:])


def test_grid_sup_zero_and_constant():
    assert tf.grid_sup(tf.TrigPoly.zero(4, 4), 64) == 0.0
    const = tf.TrigPoly.constant_fn(4, [0.5, -2.0])
    assert tf.grid_sup(const, 64) == 2.0


def test_grid_sup_low_rank_d4_map():
    # orbit's d=4 displacement: frequencies span a rank-3 lattice
    tp = tf.TrigPoly.sin_mode((0, 1, 0, 0), [1e-3, 0, 0, 0]) + \
        tf.TrigPoly.sin_mode((0, 0, 0, 1), [1e-3, 0, 0, 0]) + \
        tf.TrigPoly.cos_mode((1, 0, 1, 0), [1e-3, 0, 0, 0])
    assert exactalg.column_reduce(sorted(tp.coeffs), 4)[1] == 3
    assert tf.grid_sup(tp, 16) == pytest.approx(_full_grid_sup(tp, 16),
                                                rel=1e-13)
    assert tf.c0_norm(tp, 64).lower == pytest.approx(3e-3, rel=1e-13)


def test_separable_eval_matches_direct():
    rng = np.random.default_rng(9)
    tp = tf.TrigPoly(2, 2)
    for i in range(-6, 7):
        for j in range(-6, 7):
            tp[(i, j)] = rng.normal(size=2) + 1j * rng.normal(size=2)
    tp = tp.symmetrize_real()
    pts = rng.random((500, 2))
    dense = tp.eval(pts)            # triggers the separable path
    # direct reference
    n, c = tp.modes()
    direct = np.exp(2j * np.pi * (pts @ n.T)) @ c
    assert np.max(np.abs(dense - direct)) < 1e-10
    jd = tp.eval_jacobian(pts)
    jref = np.einsum("pk,km,kd->pmd", np.exp(2j * np.pi * (pts @ n.T)), c,
                     2j * np.pi * n.astype(float))
    assert np.max(np.abs(jd - jref)) < 1e-8


@st.composite
def sparse_polys(draw):
    """TrigPoly on T^d, d in 1..4, with 1-8 modes of |n|_inf <= 3: real
    (symmetrized) or complex, where some modes have no -n partner."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    tp = tf.TrigPoly(d, m)
    parts = st.floats(-1, 1)
    for _ in range(draw(st.integers(1, 8))):
        freq = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        re = draw(st.lists(parts, min_size=m, max_size=m))
        im = draw(st.lists(parts, min_size=m, max_size=m))
        tp[freq] = np.array(re) + 1j * np.array(im)
    return tp.symmetrize_real() if draw(st.booleans()) else tp


def _exactly_real(tp):
    return all(np.array_equal(tp[tuple(-x for x in n)], np.conj(c))
               for n, c in tp.coeffs.items())


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sparse_polys(), st.integers(0, 2 ** 32 - 1))
def test_pair_eval_matches_exponential_sum(tp, seed):
    pts = np.random.default_rng(seed).uniform(-2, 2, (37, tp.dim_domain))
    val, jac = tp.eval(pts), tp.eval_jacobian(pts)
    real = _exactly_real(tp)
    assert np.isrealobj(val) == real and np.isrealobj(jac) == real
    n, c = tp.modes()
    scale = 1 + float(np.sum(np.abs(c)))
    jscale = 1 + float(np.sum(2 * np.pi * np.abs(n).max(axis=1)[:, None] *
                              np.abs(c)))
    assert np.max(np.abs(val - trig_eval_direct(tp, pts))) < 1e-13 * scale
    assert np.max(np.abs(jac - trig_jacobian_direct(tp, pts))) < \
        1e-13 * jscale
    assert val.shape == (37, tp.dim_range)
    assert jac.shape == (37, tp.dim_range, tp.dim_domain)


def test_eval_dtype_and_shapes():
    z = tf.TrigPoly.zero(3, 2)
    pts = np.zeros((4, 5, 3))
    assert z.eval(pts).shape == (4, 5, 2) and not np.any(z.eval(pts))
    assert z.eval_jacobian(pts).shape == (4, 5, 2, 3)
    tp = tf.TrigPoly.constant_fn(2, [1.5, -2.0j])
    assert np.iscomplexobj(tp.eval(pts[..., :2]))
    assert np.all(tp.eval(pts[..., :2]) == np.array([1.5, -2.0j]))
    # a full 13 x 13 box takes the separable path, with the same dtype rule
    rng = np.random.default_rng(8)
    box = tf.TrigPoly(2, 2)
    for i in range(-6, 7):
        for j in range(-6, 7):
            box[(i, j)] = rng.normal(size=2) + 1j * rng.normal(size=2)
    x = rng.random((9, 2))
    for tp in (box, box.symmetrize_real()):
        real = _exactly_real(tp)
        assert np.isrealobj(tp.eval(x)) == real
        assert np.isrealobj(tp.eval_jacobian(x)) == real
        assert np.max(np.abs(tp.eval(x) - trig_eval_direct(tp, x))) < 1e-10


def test_setitem_clears_cached_modes_radius_and_pairs():
    tp = tf.TrigPoly.sin_mode((0, 1), [1.0, 0.0])
    pts = np.random.default_rng(3).random((20, 2))
    assert tp.support_radius == 1 and len(tp.modes()[0]) == 2
    assert np.isrealobj(tp.eval(pts))
    tp[(3, -2)] = [0.5, 0.25j]          # no (-3, 2) partner: complex now
    n, c = tp.modes()
    assert [tuple(k) for k in n] == [(0, -1), (0, 1), (3, -2)]
    assert np.array_equal(c[2], [0.5, 0.25j])
    assert tp.support_radius == 3
    val = tp.eval(pts)
    assert np.iscomplexobj(val)
    assert np.max(np.abs(val - trig_eval_direct(tp, pts))) < 1e-14
    assert np.max(np.abs(tp.eval_jacobian(pts) -
                         trig_jacobian_direct(tp, pts))) < 1e-12
    tp[(3, -2)] = [0.0, 0.0]            # removing the mode restores both
    assert tp.support_radius == 1 and len(tp.modes()[0]) == 2
    assert np.isrealobj(tp.eval(pts))
    assert not tp.modes()[1].flags.writeable


def test_sobolev_constant():
    gf = tf.GridFunction(np.full((16, 1), 2.5))
    for q in (1.5, 2, 4):
        assert abs(tf.sobolev_norm(gf, q) - 2.5) < 1e-12


def test_sobolev_sin_closed_form():
    s = tf.TrigPoly.sin_mode((1,), 1.0)
    want = np.sqrt(0.5 + 2 * np.pi ** 2)
    assert abs(tf.sobolev_norm(s, 2) - want) < 1e-10


def test_sobolev_refinement_stability():
    rng = np.random.default_rng(10)
    tp = tf.TrigPoly(2, 1)
    for _ in range(6):
        n = tuple(int(v) for v in rng.integers(-5, 6, size=2))
        tp[n] = rng.normal(size=1)
    tp = tp.symmetrize_real()
    v1 = tf.sobolev_norm(tp, 3, grid_n=32)
    v2 = tf.sobolev_norm(tp, 3, grid_n=64)
    assert abs(v2 - v1) / max(v1, 1e-12) < 0.01


def test_holder_smooth_saturates():
    s = tf.TrigPoly.sin_mode((1,), 1.0)
    est = tf.estimate_holder(s, pairs=2000, j_max=12, seed=0)
    assert est.exponent >= 0.99
    assert est.reliable


def test_holder_weierstrass_family():
    w = tf.weierstrass_type(0.5, base=3, terms=25)
    est = tf.estimate_holder(w, dim=1, pairs=5000, seed=1)
    assert 0.45 <= est.exponent <= 0.55


def test_holder_scale_stability():
    # halving the scale range (keeping the finer half, where the Holder
    # behavior lives) moves the estimate by < 0.05
    for alpha in (0.4, 0.7):
        w = tf.weierstrass_type(alpha, base=3, terms=25)
        full = tf.estimate_holder(w, dim=1, pairs=4000, seed=2)
        half = tf.estimate_holder(w, dim=1, pairs=4000, seed=2,
                                  j_min=10, j_max=16)
        assert abs(full.exponent - half.exponent) < 0.05


def test_holder_strict_raises_on_bad_fit():
    # two regimes (smooth at coarse scales, alpha = 0.2 roughness below
    # the crossover): the log-log increments are kinked, no single power
    # law fits
    rough = tf.weierstrass_type(0.2, base=3, terms=25)

    def kinked(p):
        x = np.asarray(p)[..., 0]
        return np.sin(2 * np.pi * x)[..., None] + 0.01 * rough(p)

    with pytest.raises(UnreliableFit):
        tf.estimate_holder(kinked, dim=1, pairs=2000, strict=True, seed=3)
    est = tf.estimate_holder(kinked, dim=1, pairs=2000, seed=3)
    assert not est.reliable


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    tp = tf.TrigPoly(2, 2)
    for _ in range(4):
        n = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        tp[n] = rng.normal(size=2) + 1j * rng.normal(size=2)
    rec = tf.trig_to_record(tp)
    back = tf.trig_from_record(rec)
    for n in tp.coeffs:
        assert np.allclose(back[n], tp[n], atol=0)
    gf = tf.GridFunction(rng.normal(size=(8, 8, 2)))
    path = tmp_path / "grid.txt"
    tf.save_grid(gf, str(path))
    loaded = tf.load_grid(str(path))
    assert np.max(np.abs(loaded.values - gf.values)) < 1e-15
