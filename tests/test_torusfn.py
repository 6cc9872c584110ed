import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from oracle_helpers import (c0_upper_per_key, combine_per_key,
                            compose_affine_per_key, derivative_per_key,
                            grid_sup_all_columns, is_real_per_key, load_grid,
                            matrix_apply_per_key, restrict_per_key,
                            save_grid_rows, scale_per_key,
                            symmetrize_real_per_key, table_memo_off,
                            threshold_per_key,
                            to_grid_per_key, trig_eval_direct,
                            trig_jacobian_direct, weierstrass_type)
from toralab import exactalg, spectral
from toralab import torusfn as tf


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


def test_zero_frequency_modes_are_the_constant_and_zero():
    # the +n and -n halves of a mode coincide at n = 0: cos gives the
    # constant amplitude, sin the zero polynomial
    x = np.random.default_rng(0).random((5, 2))
    cos0 = tf.TrigPoly.cos_mode((0, 0), [1.0, -0.5])
    assert np.array_equal(cos0.eval_real(x), np.tile([1.0, -0.5], (5, 1)))
    assert list(cos0.coeffs) == [(0, 0)]
    assert tf.TrigPoly.sin_mode((0, 0), [1.0, -0.5]).coeffs == {}


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
    # to_trig divides by N^d: the coefficients' l2 norm is the grid's
    # root mean square
    rng = np.random.default_rng(4)
    gf = tf.GridFunction(rng.normal(size=(32, 32, 3)))
    coef_l2 = np.sqrt(np.sum(np.abs(gf.to_trig().coefs) ** 2))
    grid_rms = np.sqrt(np.mean(np.sum(np.abs(gf.values) ** 2, axis=-1)))
    assert abs(coef_l2 - grid_rms) < 1e-12


def test_compose_affine_matches_pointwise():
    s = tf.TrigPoly.sin_mode((1, 0), 1.0)
    comp = s.compose_affine([[2, 1], [1, 1]])
    pts = np.random.default_rng(5).random((200, 2))
    want = np.sin(2 * np.pi * (2 * pts[:, 0] + pts[:, 1]))
    assert np.max(np.abs(comp.eval_real(pts)[:, 0] - want)) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 4), st.integers(1, 6), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_compose_affine_matches_pointwise_for_unimodular_maps(d, count, shift,
                                                              seed):
    # f(M x + c) evaluated at M x + c against the coefficients of
    # compose_affine; the phases 2 pi <n, M x + c> reach about 10^3, so the
    # two sides agree to a few 1e-13 times the l1 size of f
    rng = np.random.default_rng(seed)
    coeffs = {}
    for _ in range(count):
        coeffs[tuple(rng.integers(-3, 4, size=d))] = rng.normal(size=2) + \
            1j * rng.normal(size=2)
    tp = tf.TrigPoly(d, 2, coeffs)
    mat = np.array(spectral.random_unimodular(d, steps=4 * d, rng=rng,
                                              entry_cap=6).rows())
    c = rng.uniform(-1, 1, size=d) if shift else None
    comp = tp.compose_affine(mat, c)
    pts = rng.uniform(-2, 2, (50, d))
    want = tp.eval(pts @ mat.T + (0 if c is None else c))
    assert np.max(np.abs(comp.eval(pts) - want)) < 1e-11 * _l1_scales(tp)[0]


def test_compose_affine_group_action():
    rng = np.random.default_rng(6)
    coeffs = {}
    for _ in range(5):
        n = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        coeffs[n] = rng.normal(size=2) + 1j * rng.normal(size=2)
    tp = tf.TrigPoly(2, 2, coeffs)
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
    ds = s.derivative([1.0])
    x = np.array([[0.0], [0.1]])
    assert np.allclose(ds.eval_real(x)[:, 0],
                       2 * np.pi * np.cos(2 * np.pi * x[:, 0]), atol=1e-12)


def test_derivative_finite_difference_oracle():
    rng = np.random.default_rng(7)
    coeffs = {}
    for _ in range(8):
        n = tuple(int(v) for v in rng.integers(-4, 5, size=2))
        coeffs[n] = rng.normal(size=1) + 1j * rng.normal(size=1)
    tp = tf.TrigPoly(2, 1, coeffs).symmetrize_real()
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
    coeffs = {}
    for _ in range(6):
        n = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        coeffs[n] = rng.normal(size=1) + 1j * rng.normal(size=1)
    tp = tf.TrigPoly(2, 1, coeffs)
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
    const = tf.TrigPoly(4, 2, {(0, 0, 0, 0): [0.5, -2.0]})
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


@st.composite
def grid_sup_cases(draw):
    """(TrigPoly, N): d in 1..4, m in 1..4; frequencies of full rank, in
    the span of fewer than d random rows, or none but 0 (a constant), or
    no mode at all; complex coefficients, or their real symmetrization,
    with some range components zero; N in 2..9, aliased when N <= 2 |n|."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["full", "deficient", "constant", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = int(rng.integers(1, 7))
    if kind == "full":
        freqs = rng.integers(-3, 4, size=(k + d, d))
    elif kind == "deficient" and d > 1:
        rank = int(rng.integers(1, d))
        freqs = rng.integers(-2, 3, size=(k, rank)) @ \
            rng.integers(-2, 3, size=(rank, d))
    else:
        freqs = np.zeros((1, d), dtype=int)
    live = rng.random(m) < 0.6
    live[rng.integers(m)] = True
    coeffs = {} if kind == "zero" else {
        tuple(n): (rng.normal(size=m) + 1j * rng.normal(size=m)) * live
        for n in freqs.tolist()}
    tp = tf.TrigPoly(d, m, coeffs)
    if draw(st.booleans()):
        tp = tp.symmetrize_real()
    return tp, draw(st.integers(2, 9))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(grid_sup_cases())
def test_grid_sup_one_column_at_a_time_changes_no_bit(case):
    tp, grid_n = case
    assert float(tf.grid_sup(tp, grid_n)).hex() == \
        float(grid_sup_all_columns(tp, grid_n)).hex()


def test_c0_norm_of_d4_displacement_holds_one_grid():
    # orbit's conjugate4 displacement: rank-3 frequencies and one nonzero
    # component of four, so grid_sup transforms one 64^3 complex grid
    # (4.2 MB); on all four components at once it peaked at 50.3 MB
    e = [1e-3, 0, 0, 0]
    tp = (tf.TrigPoly.sin_mode((0, 1, 0, 0), e) +
          tf.TrigPoly.sin_mode((0, 0, 0, 1), e) +
          tf.TrigPoly.cos_mode((1, 0, 1, 0), e)).symmetrize_real()
    expected = tf.c0_norm(tp, 64)       # forms the cached pairs and keys
    tracemalloc.start()
    try:
        got = tf.c0_norm(tp, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak <= 1.5 * 64 ** 3 * np.dtype(complex).itemsize


@st.composite
def sparse_polys(draw):
    """TrigPoly on T^d, d in 1..4, with 1-8 modes of |n|_inf <= 3: real
    (symmetrized) or complex, where some modes have no -n partner."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    coeffs = {}
    parts = st.floats(-1, 1)
    for _ in range(draw(st.integers(1, 8))):
        freq = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        re = draw(st.lists(parts, min_size=m, max_size=m))
        im = draw(st.lists(parts, min_size=m, max_size=m))
        coeffs[tuple(freq)] = np.array(re) + 1j * np.array(im)
    tp = tf.TrigPoly(d, m, coeffs)
    return tp.symmetrize_real() if draw(st.booleans()) else tp


def _exactly_real(tp):
    return all(np.array_equal(tp[tuple(-x for x in n)], np.conj(c))
               for n, c in tp.coeffs.items())


def _l1_scales(tp):
    """1 + the coefficient l1 sums that bound |f| and |Df|."""
    n, c = tp.modes()
    return (1 + float(np.sum(np.abs(c))),
            1 + float(np.sum(2 * np.pi * np.abs(n).max(axis=1)[:, None] *
                             np.abs(c))))


def _assert_matches_direct(tp, pts):
    val, jac = tp.eval(pts), tp.eval_jacobian(pts)
    real = _exactly_real(tp)
    assert np.isrealobj(val) == real and np.isrealobj(jac) == real
    scale, jscale = _l1_scales(tp)
    assert np.max(np.abs(val - trig_eval_direct(tp, pts))) < 1e-13 * scale
    assert np.max(np.abs(jac - trig_jacobian_direct(tp, pts))) < \
        1e-13 * jscale
    assert val.shape == (len(pts), tp.dim_range)
    assert jac.shape == (len(pts), tp.dim_range, tp.dim_domain)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sparse_polys(), st.integers(0, 2 ** 32 - 1))
def test_pair_eval_matches_exponential_sum(tp, seed):
    pts = np.random.default_rng(seed).uniform(-2, 2, (37, tp.dim_domain))
    _assert_matches_direct(tp, pts)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(sparse_polys(), st.integers(1, 4))
def test_grid_roundtrip_below_nyquist(tp, extra):
    # support radius F <= 3 on a grid of N > 2F points per axis: the
    # coefficients come back, and so do the grid values
    n = 2 * tp.support_radius + extra
    gf = tp.to_grid(n)
    back = gf.to_trig()
    scale = _l1_scales(tp)[0]
    for freq in set(tp.coeffs) | set(back.coeffs):
        assert np.max(np.abs(back[freq] - tp[freq])) < 1e-13 * scale
    again = back.to_grid(n, allow_alias=True)
    assert np.max(np.abs(again.values - gf.values)) < 1e-13 * scale


@settings(derandomize=True, deadline=None, max_examples=60)
@given(sparse_polys())
def test_symmetrize_real_is_idempotent(tp):
    once = tp.symmetrize_real()
    twice = once.symmetrize_real()
    assert once.is_real(0.0)
    assert list(twice.coeffs) == list(once.coeffs)
    for freq, c in once.coeffs.items():
        assert np.array_equal(twice[freq], c)


def _box_poly(f, m, count, seed, real, d=2):
    """TrigPoly on T^d with count random cells of the frequency box
    |n| <= F filled (and always the cell of (F, 0, ..., 0), so the support
    radius is F); symmetrized when real."""
    size = 2 * f + 1
    rng = np.random.default_rng(seed)
    cells = np.union1d(rng.choice(size ** d, count, replace=False),
                       [np.ravel_multi_index((2 * f,) + (f,) * (d - 1),
                                             (size,) * d)])
    coefs = [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in cells]
    freqs = np.stack(np.unravel_index(cells, (size,) * d), axis=1) - f
    tp = tf.TrigPoly.from_arrays(d, m, freqs, coefs)
    return tp.symmetrize_real() if real else tp


# the largest support radius drawn per dimension: at d = 3 and 4 a box
# line of 2F + 1 cells holds more than 12 rows from F = 6 on
_BOX_RADII = {2: 32, 3: 7, 4: 6}


@st.composite
def box_dense_polys(draw, d=2, real=None):
    """F in 6..32 (d = 2), 6..7 (d = 3) or 6 (d = 4), filled above the
    separable threshold, real or complex (drawn unless given)."""
    f = draw(st.integers(6, _BOX_RADII[d]))
    size = 2 * f + 1
    return _box_poly(f, draw(st.integers(1, 3)),
                     draw(st.integers(12 * size ** (d - 1) + 1, size ** d)),
                     draw(st.integers(0, 2 ** 32 - 1)),
                     draw(st.booleans()) if real is None else real, d)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(box_dense_polys(), st.integers(0, 2 ** 32 - 1))
@example(_box_poly(32, 2, 65 * 65, 0, real=True), 1)
@example(_box_poly(32, 2, 13 * 65, 0, real=False), 2)
def test_separable_eval_matches_direct(tp, seed):
    assert tp._box_dense()
    pts = np.random.default_rng(seed).uniform(-4, 4, (37, 2))
    _assert_matches_direct(tp, pts)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(box_dense_polys(), st.integers(0, 2 ** 32 - 1))
def test_complex_box_sum_is_its_real_parts(tp, seed):
    # f = g + i h with g = (f + conj f) / 2 and h = (f - conj f) / 2i, the
    # symmetrizations of f and of -i f, each evaluated as a real polynomial
    assume(not tp.is_real(0.0))
    g, h = tp.symmetrize_real(), (-1j * tp).symmetrize_real()
    assert g._box_dense() and h._box_dense()
    pts = np.random.default_rng(seed).uniform(-4, 4, (37, 2))
    scale, jscale = _l1_scales(tp)
    val, jac = tp.eval(pts), tp.eval_jacobian(pts)
    assert np.isrealobj(g.eval(pts)) and np.isrealobj(h.eval_jacobian(pts))
    assert np.max(np.abs(val - (g.eval(pts) + 1j * h.eval(pts)))) < \
        1e-13 * scale
    assert np.max(np.abs(jac - (g.eval_jacobian(pts) +
                                1j * h.eval_jacobian(pts)))) < 1e-13 * jscale


@settings(derandomize=True, deadline=None, max_examples=30)
@given(box_dense_polys(), st.integers(0, 1), st.integers(0, 2 ** 32 - 1))
def test_box_jacobian_is_the_box_value_of_the_derivative(tp, axis, seed):
    # the Jacobian block differentiates the tables; the derivative's value
    # block differentiates the coefficients
    deriv = tp.derivative(np.eye(2)[axis])
    assume(deriv._box_dense())
    assert deriv.support_radius == tp.support_radius
    pts = np.random.default_rng(seed).uniform(-4, 4, (37, 2))
    assert np.max(np.abs(tp.eval_jacobian(pts)[..., axis] -
                         deriv.eval(pts))) < 1e-13 * _l1_scales(tp)[1]


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("real", [True, False])
@settings(derandomize=True, deadline=None, max_examples=3)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_separable_eval_matches_direct_in_d3_and_d4(d, real, data, seed):
    # the same fold and row/column groups as at d = 2: rows (k, c/s) of
    # the first two axes, columns those of the last one or two
    tp = data.draw(box_dense_polys(d, real))
    assert tp._box_dense()
    pts = np.random.default_rng(seed).uniform(-4, 4, (37, d))
    _assert_matches_direct(tp, pts)


def _sparse_many(d, radius, count, seed, real):
    """count random cells of the frequency box |n| <= radius on T^d (d != 2
    or too sparse for the separable path), symmetrized when real."""
    rng = np.random.default_rng(seed)
    size = 2 * radius + 1
    coeffs = {}
    for cell in rng.choice(size ** d, count, replace=False):
        freq = np.unravel_index(cell, (size,) * d)
        coeffs[tuple(np.array(freq) - radius)] = rng.normal(size=2) + \
            1j * rng.normal(size=2)
    tp = tf.TrigPoly(d, 2, coeffs)
    return tp.symmetrize_real() if real else tp


@st.composite
def shared_table_cases(draw):
    """A sparse (d 1..4) or box-dense (d = 2, 3) polynomial, real or
    complex, and a point count: one or several."""
    if draw(st.booleans()):
        return draw(sparse_polys()), draw(st.sampled_from([1, 2, 37]))
    return draw(box_dense_polys(draw(st.sampled_from([2, 3])))), \
        draw(st.sampled_from([1, 5]))


# 3000 pairs at 1408 points: the blocks of eval (1398 points) and
# eval_jacobian (699) end on the same 10 points, a table small enough to
# keep.  The box-dense polynomials take the separable path in blocks of
# BOX_CHUNK / (2 (F + 1) m') points for eval and half that for
# eval_jacobian, m' = m for a real polynomial and 2m for a complex one.
# The F = 31 boxes with m = 2 run in blocks of 2048 and 1024 points (real)
# or 1024 and 512 (complex): at 2058 points both end on the same 10
# points, and at 1400 points eval keeps the tables of all of them while
# no block of eval_jacobian matches.  The F = 32 boxes run in blocks of
# 1985 and 992 points (real) or 992 and 496 (complex).  Every one of these
# blocks is small enough to keep, so each call's first block meets the
# tables of the last block of the call before.
@settings(derandomize=True, deadline=None, max_examples=60)
@given(shared_table_cases(), st.integers(0, 2 ** 32 - 1))
@example((_sparse_many(3, 12, 3000, 0, real=True), 1408), 1)
@example((_sparse_many(3, 12, 3000, 1, real=False), 1408), 2)
@example((_box_poly(32, 2, 65 * 65, 0, real=True), 1400), 3)
@example((_box_poly(32, 2, 65 * 65, 0, real=True), 2026), 4)
@example((_box_poly(32, 2, 13 * 65, 1, real=False), 2026), 5)
@example((_box_poly(31, 2, 63 * 63, 0, real=True), 1400), 6)
@example((_box_poly(31, 2, 63 * 63, 0, real=True), 2058), 7)
@example((_box_poly(31, 2, 13 * 63, 1, real=False), 2058), 8)
def test_kept_table_changes_no_bit(case, seed):
    tp, count = case
    pts = np.random.default_rng(seed).uniform(-2, 2, (count, tp.dim_domain))
    with table_memo_off():
        want = tp.eval(pts), tp.eval_jacobian(pts)
        moved = pts.copy()
        moved[-1, 0] += 0.5
        want_moved = tp.eval(moved)
    # value then Jacobian, Jacobian then value, and the F-ordered points
    got = [tp.eval(pts), tp.eval_jacobian(pts), tp.eval_jacobian(pts),
           tp.eval(pts), tp.eval(np.asfortranarray(pts)),
           tp.eval_jacobian(np.asfortranarray(pts))]
    for out, ref in zip(got, [want[i] for i in (0, 1, 1, 0, 0, 1)]):
        assert out.dtype == ref.dtype and np.array_equal(out, ref)
    # the kept table is keyed by the points' values, not by the array
    tp.eval(pts)
    pts[-1, 0] += 0.5
    assert np.array_equal(tp.eval(pts), want_moved)


def _kernel(u):
    u = np.asarray(u, dtype=float)
    cos, sin = np.empty_like(u), np.empty_like(u)
    tf._cos_sin(u, cos, sin)
    return cos, sin


def _kernel_error(u, cos, sin):
    """Largest |cos 2 pi u - cos|, |sin 2 pi u - sin| against mpmath."""
    worst = 0.0
    with mpmath.workprec(113):
        for ui, ci, si in zip(u.ravel(), cos.ravel(), sin.ravel()):
            a = 2 * mpmath.pi * mpmath.mpf(float(ui))
            worst = max(worst, abs(float(mpmath.cos(a) - mpmath.mpf(ci))),
                        abs(float(mpmath.sin(a) - mpmath.mpf(si))))
    return worst


_HALF_BELOW = np.nextafter(0.5, 0.0)
_KERNEL_EDGES = [0.5, -0.5, 0.25, -0.25, 0.0, -0.0, 1e-300, -1e-300,
                 _HALF_BELOW, -_HALF_BELOW, np.nextafter(0.5, 1.0),
                 np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0), 1.5, 2.75]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=40))
def test_cos_sin_kernel_is_within_5e16_of_mpmath(turns):
    u = np.array(turns + _KERNEL_EDGES)
    cos, sin = _kernel(u)
    assert np.all(np.abs(cos) <= 1.0) and np.all(np.abs(sin) <= 1.0)
    assert _kernel_error(u, cos, sin) <= 5e-16


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(-2 ** 30, 2 ** 30), st.integers(0, 20),
       st.integers(-1000, 1000))
@example(1, 1, 1)
@example(-1, 1, 1)
@example(3, 1, -2)
@example(1, 2, 5)
def test_cos_sin_kernel_is_exactly_one_periodic(num, scale, m):
    # u = num 2^-scale and u + m are exact (below 2^53 units of 2^-scale),
    # so they are the same angle and must give the same bits, half turns
    # included
    u = np.array([np.ldexp(float(num), -scale)])
    assert (u + m - m)[0] == u[0]
    for a, b in zip(_kernel(u), _kernel(u + m)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=1, max_size=6),
       st.lists(st.lists(st.integers(-2048, 2048), min_size=4, max_size=4),
                min_size=1, max_size=8))
def test_d4_pair_table_matches_mpmath(freqs, cells):
    # dyadic points x = j/1024 make every angle <n, x> exact, so each
    # table entry is the kernel's alone: within 5e-16 of cos and sin
    tp = tf.TrigPoly(4, 1, {tuple(n): [0.5] for n in freqs if any(n)})
    reps = tp._pairs[1]
    pts = np.array(cells, dtype=float) / 1024
    table = tp._pair_table(pts.T)
    k = len(reps)
    worst = 0.0
    with mpmath.workprec(113):
        for i, n in enumerate(reps):
            for j, x in enumerate(pts):
                a = 2 * mpmath.pi * mpmath.fsum(
                    mpmath.mpf(float(ni)) * mpmath.mpf(float(xi))
                    for ni, xi in zip(n, x))
                worst = max(worst,
                            abs(float(mpmath.cos(a) - table[i, j])),
                            abs(float(mpmath.sin(a) - table[k + i, j])))
    assert worst <= 5e-16


def test_kept_table_is_dropped_when_a_coefficient_changes():
    # a polynomial is immutable: a changed coefficient makes a new one,
    # which keeps no table, and the old one keeps its own
    tp = tf.TrigPoly.sin_mode((1, 2), [0.5, -0.25])
    pts = np.random.default_rng(12).random((50, 2))
    want = tp.eval(pts)
    kept = tp._table
    assert kept is not None
    changed = tp + tf.TrigPoly(2, 2, {(3, 0): [0.125, 0.0]})
    assert changed._table is None and tp._table is kept
    fresh = tf.TrigPoly.from_arrays(2, 2, changed.freqs, changed.coefs)
    assert np.array_equal(changed.eval(pts), fresh.eval(pts))
    assert np.array_equal(tp.eval(pts), want)


@pytest.mark.parametrize("real", [True, False])
def test_box_dense_power_tables_are_shared_then_dropped(real):
    # a Newton step's f and Df at one point set share one pair of power
    # tables, and the polynomial a coefficient change makes has none
    tp = _box_poly(16, 2, 33 * 33, 0, real=real)
    assert tp._box_dense()
    pts = np.random.default_rng(13).random((40, 2))
    tp.eval(pts)
    kept = tp._powers
    assert kept is not None
    tp.eval_jacobian(pts)
    assert tp._powers is kept
    changed = tp + tf.TrigPoly(2, 2, {(3, 0): [0.125, 0.0]})
    assert changed._box_dense() and changed._powers is None
    assert tp._powers is kept


def test_to_trig_matches_per_coefficient_build():
    # a constant and a sampled cosine: most FFT rows are exactly zero
    x = np.arange(8) / 8
    vals = np.empty((8, 8, 2))
    vals[..., 0] = 1.5
    vals[..., 1] = np.cos(2 * np.pi * x)[:, None] + 0.25 * x[None, :]
    gf = tf.GridFunction(vals)
    coef = np.fft.fftn(vals, axes=(0, 1)) / 64
    freqs = np.fft.fftfreq(8, 1 / 8).astype(int)
    for threshold in (0.0, -1.0, 0.05):
        want = {}
        for i, j in np.argwhere(np.max(np.abs(coef), axis=-1) > threshold):
            if np.any(coef[i, j]):
                want[(int(freqs[i]), int(freqs[j]))] = coef[i, j]
        _assert_same_coeffs(gf.to_trig(threshold), want)
    assert 1 < len(gf.to_trig(-1.0).coeffs) < 64


@pytest.mark.parametrize("d, n", [(1, 100), (2, 24), (2, 36), (3, 12)])
def test_to_trig_keys_every_bin_of_a_non_power_of_two_grid(d, n):
    # fftfreq(n) * n reads 6.999... at bin 7 of a 36-grid: truncated, two
    # bins would share a key and one would be lost
    vals = np.random.default_rng(n).normal(size=(n,) * d + (2,))
    tp = tf.GridFunction(vals).to_trig()
    assert len(tp.coeffs) == n ** d
    assert np.max(np.abs(tp.eval(tf.uniform_grid(d, n)) -
                         vals.reshape(-1, 2))) < 1e-12


def test_eval_dtype_and_shapes():
    z = tf.TrigPoly.zero(3, 2)
    pts = np.zeros((4, 5, 3))
    assert z.eval(pts).shape == (4, 5, 2) and not np.any(z.eval(pts))
    assert z.eval_jacobian(pts).shape == (4, 5, 2, 3)
    tp = tf.TrigPoly(2, 2, {(0, 0): [1.5, -2.0j]})
    assert np.iscomplexobj(tp.eval(pts[..., :2]))
    assert np.all(tp.eval(pts[..., :2]) == np.array([1.5, -2.0j]))
    # a full 13 x 13 box takes the separable path, with the same dtype rule
    rng = np.random.default_rng(8)
    coeffs = {}
    for i in range(-6, 7):
        for j in range(-6, 7):
            coeffs[(i, j)] = rng.normal(size=2) + 1j * rng.normal(size=2)
    box = tf.TrigPoly(2, 2, coeffs)
    x = rng.random((9, 2))
    for tp in (box, box.symmetrize_real()):
        assert tp._box_dense()
        _assert_matches_direct(tp, x)
        assert tp.eval(np.zeros((0, 2))).shape == (0, 2)
        assert tp.eval_jacobian(np.zeros((0, 2))).shape == (0, 2, 2)
    # one coefficient off its conjugate: complex, with a box of its own
    tp = tp + tf.TrigPoly(2, 2, {(6, 6): [1j, 1j]})
    _assert_matches_direct(tp, x)


def test_modes_radius_and_eval_dtype_of_each_polynomial():
    tp = tf.TrigPoly.sin_mode((0, 1), [1.0, 0.0])
    pts = np.random.default_rng(3).random((20, 2))
    assert tp.support_radius == 1 and len(tp.modes()[0]) == 2
    assert np.isrealobj(tp.eval(pts))
    # no (-3, 2) partner: complex
    tp = tp + tf.TrigPoly(2, 2, {(3, -2): [0.5, 0.25j]})
    n, c = tp.modes()
    assert [tuple(k) for k in n] == [(0, -1), (0, 1), (3, -2)]
    assert np.array_equal(c[2], [0.5, 0.25j])
    assert tp.support_radius == 3
    val = tp.eval(pts)
    assert np.iscomplexobj(val)
    assert np.max(np.abs(val - trig_eval_direct(tp, pts))) < 1e-14
    assert np.max(np.abs(tp.eval_jacobian(pts) -
                         trig_jacobian_direct(tp, pts))) < 1e-12


def test_stored_arrays_and_coeffs_view_are_read_only():
    tp = tf.TrigPoly(2, 2, {(1, 0): [1.0, 2j], (-1, 0): [1.0, -2j]})
    assert not tp.freqs.flags.writeable and not tp.coefs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        tp.freqs[0, 0] = 2
    with pytest.raises(ValueError, match="read-only"):
        tp.coefs[0] = 0.0
    with pytest.raises(TypeError):
        tp.coeffs[(2, 0)] = [1.0, 0.0]
    with pytest.raises(ValueError, match="read-only"):
        tp.coeffs[(1, 0)][0] = 5.0
    assert tp.coeffs is tp.coeffs
    assert list(tp.coeffs) == [(1, 0), (-1, 0)]
    assert not hasattr(tp, "__setitem__")
    # an array handed to from_arrays is copied, not frozen or aliased
    freqs, coefs = np.array([[2, 1]]), np.array([[1.0, 0.5]])
    built = tf.TrigPoly.from_arrays(2, 2, freqs, coefs)
    coefs[0, 0] = 7.0
    assert freqs.flags.writeable and built[(2, 1)][0] == 1.0


def test_wrong_length_frequency_raises():
    tp = tf.TrigPoly.sin_mode((1, 0), [1.0, 0.0])
    with pytest.raises(ValueError, match="length 2"):
        tp[(1,)]
    with pytest.raises(ValueError, match="length 2"):
        tp[(1, 0, 0)]
    with pytest.raises(ValueError, match="length 2"):
        tf.TrigPoly(2, 2, {(1,): [1.0, 0.0]})
    with pytest.raises(ValueError, match="length 2"):
        tf.TrigPoly(2, 2, {(1, 0): [1.0, 0.0], (1, 0, 0): [1.0, 0.0]})
    with pytest.raises(ValueError, match="shape"):
        tf.TrigPoly.from_arrays(2, 2, [[1]], [[1.0, 0.0]])
    with pytest.raises(ValueError, match="shape"):
        tf.TrigPoly.from_arrays(2, 2, [[1.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(ValueError, match="repeated"):
        tf.TrigPoly.from_arrays(2, 1, [[1, 0], [1, 0]], [[1.0], [2.0]])


@st.composite
def coefficient_rows(draw, d=None, m=None, dense=False):
    """(d, m, freqs, coefs) with 1 to 12 distinct frequency rows
    |n|_inf <= 2 (or those times 2^70, beyond int64), among them all-zero
    rows, a complex c_0, and -n partners that are missing, exactly
    conjugate or not.  dense draws 20 to 40 rows |n|_inf <= 5 in d >= 2,
    where <n, v> rounds for a non-dyadic v and sums over rows round by
    their order."""
    d = d or draw(st.integers(2 if dense else 1, 3))
    m = m or draw(st.integers(1, 3))
    radius, sizes = (5, (20, 40)) if dense else (2, (1, 12))
    keys = draw(st.lists(st.tuples(*[st.integers(-radius, radius)] * d),
                         unique=True, min_size=sizes[0], max_size=sizes[1]))
    part = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-1, 1)
    vec = st.lists(part, min_size=m, max_size=m)
    coefs = np.array([np.array(draw(vec)) + 1j * np.array(draw(vec))
                      for _ in keys], dtype=complex).reshape(len(keys), m)
    for i, n in enumerate(keys):
        neg = tuple(-x for x in n)
        if neg in keys[:i] and draw(st.booleans()):
            coefs[i] = np.conj(coefs[keys.index(neg)])
    freqs = np.array(keys, dtype=np.int64).reshape(len(keys), d)
    if draw(st.booleans()):
        freqs = freqs.astype(object) * 2 ** 70
    return d, m, freqs, coefs


def _per_key(d, m, freqs, coefs):
    """The rows stored one key at a time, as a dict."""
    out = {}
    for n, c in zip(freqs.tolist(), coefs):
        if np.any(c != 0):
            out[tuple(n)] = c
        else:
            out.pop(tuple(n), None)
    return out


def _bits(c):
    return np.ascontiguousarray(c, dtype=complex).view(np.int64)


def _assert_same_coeffs(got, want):
    """got's keys, their order and its coefficients, signs of zero
    included, are want's (a dict of frequency tuples)."""
    assert list(got.coeffs) == list(want)
    for n, c in want.items():
        assert got.coeffs[n].dtype == complex
        assert np.array_equal(_bits(got.coeffs[n]), _bits(c))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(coefficient_rows())
def test_from_arrays_matches_setitem(case):
    # from_arrays against the rows stored one key at a time, and the dict
    # constructor against from_arrays
    d, m, freqs, coefs = case
    got = tf.TrigPoly.from_arrays(d, m, freqs, coefs)
    want = _per_key(*case)
    _assert_same_coeffs(got, want)
    assert all(type(x) is int for n in got.coeffs for x in n)
    big = any(abs(x) >= 2 ** 63 for n in want for x in n)
    assert got.freqs.dtype == (object if big else np.int64)
    _assert_same_coeffs(tf.TrigPoly(d, m, want), want)


_SCALARS = st.sampled_from([0.0, -1.0, 2.5, 1j, 0.3 - 0.7j]) | \
    st.floats(-2, 2)


# no shrinking: a failure on a dense draw (20-40 rows) cannot shrink to a
# small draw, and shrinking it ran for minutes before the report
@settings(derandomize=True, deadline=None, max_examples=150,
          phases=(Phase.explicit, Phase.generate))
@given(coefficient_rows() | coefficient_rows(dense=True),
       st.sampled_from([0.0, 1e-12, 0.5, 3.0]),
       st.integers(0, 2), st.sampled_from([0.0, 0.3, 0.9]), st.data())
def test_bulk_operations_match_per_key_loops(case, tol, radius, cutoff,
                                             data):
    d, m, freqs, _ = case
    tp = tf.TrigPoly.from_arrays(*case)
    assert tp.is_real(tol) == is_real_per_key(tp, tol)
    _assert_same_coeffs(tp.symmetrize_real(), symmetrize_real_per_key(tp))
    got, dropped = tp.restrict(radius)
    want, want_dropped = restrict_per_key(tp, radius)
    _assert_same_coeffs(got, want)
    assert dropped == want_dropped
    _assert_same_coeffs(tp.threshold(cutoff), threshold_per_key(tp, cutoff))
    # + and - with shared, new and cancelling keys
    other = tf.TrigPoly.from_arrays(*data.draw(coefficient_rows(d, m)))
    for op, got in ((np.add, tp + other), (np.subtract, tp - other)):
        _assert_same_coeffs(got, combine_per_key(tp, other, op))
    kept = tp.threshold(cutoff)         # cancels some keys or all of them
    _assert_same_coeffs(tp - kept, combine_per_key(tp, kept, np.subtract))
    scalar = data.draw(_SCALARS)
    _assert_same_coeffs(scalar * tp, scale_per_key(tp, scalar))
    parts = st.lists(st.floats(-2, 2), min_size=d, max_size=d)
    out_m = data.draw(st.integers(1, 3))
    mat = np.array([[complex(*data.draw(st.tuples(st.floats(-2, 2),
                                                  st.floats(-2, 2))))
                     for _ in range(m)] for _ in range(out_m)])
    _assert_same_coeffs(tp.matrix_apply(mat), matrix_apply_per_key(tp, mat))
    direction = data.draw(parts)
    _assert_same_coeffs(tp.derivative(direction),
                        derivative_per_key(tp, direction))
    assert tp.c0_upper() == c0_upper_per_key(tp)
    # grids of 3 and 4 points alias |n| <= 2, and 2^70 n always aliases
    grid_n = data.draw(st.sampled_from([3, 4, 5]))
    assert np.array_equal(_bits(tp.to_grid(grid_n, allow_alias=True).values),
                          _bits(to_grid_per_key(tp, grid_n)))
    if freqs.dtype == object:       # the per-key loop works in int64
        return
    # entries in -1..1 make many M singular, so that modes collide
    mat = np.array(data.draw(st.lists(
        st.lists(st.integers(-1, 1), min_size=d, max_size=d),
        min_size=d, max_size=d)))
    shift = data.draw(st.none() | parts)
    _assert_same_coeffs(tp.compose_affine(mat, shift),
                        compose_affine_per_key(tp, mat, shift))


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
    coeffs = {}
    for _ in range(6):
        n = tuple(int(v) for v in rng.integers(-5, 6, size=2))
        coeffs[n] = rng.normal(size=1)
    tp = tf.TrigPoly(2, 1, coeffs).symmetrize_real()
    v1 = tf.sobolev_norm(tp, 3, grid_n=32)
    v2 = tf.sobolev_norm(tp, 3, grid_n=64)
    assert abs(v2 - v1) / max(v1, 1e-12) < 0.01


def test_holder_smooth_saturates():
    s = tf.TrigPoly.sin_mode((1,), 1.0)
    est = tf.estimate_holder(s, pairs=2000, j_max=12, seed=0)
    assert est.exponent >= 0.99
    assert est.reliable


def test_holder_weierstrass_family():
    w = weierstrass_type(0.5, base=3, terms=25)
    est = tf.estimate_holder(w, dim=1, pairs=5000, seed=1)
    assert 0.45 <= est.exponent <= 0.55


def test_holder_scale_stability():
    # halving the scale range (keeping the finer half, where the Holder
    # behavior lives) moves the estimate by < 0.05
    for alpha in (0.4, 0.7):
        w = weierstrass_type(alpha, base=3, terms=25)
        full = tf.estimate_holder(w, dim=1, pairs=4000, seed=2)
        half = tf.estimate_holder(w, dim=1, pairs=4000, seed=2,
                                  j_min=10, j_max=16)
        assert abs(full.exponent - half.exponent) < 0.05


def test_holder_fit_of_kinked_increments_is_unreliable():
    # two regimes (smooth at coarse scales, alpha = 0.2 roughness below
    # the crossover): the log-log increments are kinked, no single power
    # law fits
    rough = weierstrass_type(0.2, base=3, terms=25)

    def kinked(p):
        x = np.asarray(p)[..., 0]
        return np.sin(2 * np.pi * x)[..., None] + 0.01 * rough(p)

    est = tf.estimate_holder(kinked, dim=1, pairs=2000, seed=3)
    assert not est.reliable
    assert est.residual > est.threshold


def test_serialization_roundtrip(tmp_path):
    # save_grid's text format, read back by the test-side reader
    rng = np.random.default_rng(12)
    gf = tf.GridFunction(rng.normal(size=(8, 8, 2)))
    path = tmp_path / "grid.txt"
    tf.save_grid(gf, str(path))
    loaded = load_grid(str(path))
    assert np.max(np.abs(loaded.values - gf.values)) < 1e-15


@pytest.mark.parametrize("shape, dtype", [((40, 40, 1), float),
                                          ((33, 33, 2), float),
                                          ((36, 36, 1), complex),
                                          ((12, 12, 12, 2), complex)])
def test_save_grid_blocks_write_the_per_row_bytes(tmp_path, shape, dtype):
    # more than one block of SAVE_BLOCK rows, with -0.0, a subnormal and
    # values that need all 17 digits
    rng = np.random.default_rng(sum(shape))
    vals = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    if dtype is complex:
        vals = vals + 1j * rng.normal(size=shape)
    flat = vals.reshape(-1)
    flat[:3] = [-0.0, 5e-324, 0.1]
    gf = tf.GridFunction(vals)
    assert gf.grid_n ** gf.dim_domain > tf.SAVE_BLOCK
    got, want = tmp_path / "blocks.txt", tmp_path / "rows.txt"
    tf.save_grid(gf, str(got), extra_header={"manifest_sha256": "ab"})
    save_grid_rows(gf, str(want), extra_header={"manifest_sha256": "ab"})
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("fn, dim", [
    (tf.TrigPoly.sin_mode((1, 2), 0.3) + tf.TrigPoly.cos_mode((0, 3), 0.1),
     None),
    (weierstrass_type(0.5, terms=12), 1)])
def test_finite_difference_ratio_takes_all_scales_in_one_pass(fn, dim):
    # one call for several scales equals one call per scale, with f at the
    # base points evaluated once
    scales = [2.0 ** -j for j in (2, 5, 9, 14, 20)]
    calls = []

    def counted(p):
        calls.append(len(p))
        return fn.eval_real(p) if isinstance(fn, tf.TrigPoly) else fn(p)

    ratios = tf.finite_difference_ratio(counted, dim or 2, scales,
                                        pairs=300, seed=4)
    assert calls == [300] * (len(scales) + 1)
    for s, r in zip(scales, ratios):
        assert type(r) is float
        assert r == tf.finite_difference_ratio(fn, dim, [s], pairs=300,
                                               seed=4)[0]
