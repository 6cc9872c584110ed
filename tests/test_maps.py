import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_helpers import (eliminate_argmax, invert_out_of_place,
                            invert_rows, periodic_points_per_seed,
                            periodic_seeds_box, periodic_seeds_loop,
                            small_perturbation, solve_fraction_float,
                            table_memo_off)
from toralab import exactalg, maps, spectral, torusfn
from toralab.errors import (NewtonDivergence, NotHyperbolic,
                            VerificationInconclusive)
from toralab.torusfn import TrigPoly

CAT = spectral.automorphism([[2, 1], [1, 1]])
EPS = 1e-3


def small_map(eps=EPS):
    return maps.build(CAT, TrigPoly.sin_mode((0, 1), [eps, 0.0]), warn=False)


def test_periodic_points_refuses_periods_past_the_cap(monkeypatch):
    # the seed count grows like |det(L^n - I)|: a period past
    # MAX_SEARCH_PERIOD is refused before any seed is enumerated
    calls = []
    monkeypatch.setattr(maps, "_periodic_seeds",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="configured cap"):
        maps.periodic_points(small_map(), maps.MAX_SEARCH_PERIOD + 1)
    assert calls == []


def test_build_trivial():
    f = maps.build(CAT, TrigPoly.zero(2, 2))
    assert f.smallness.r_c0 == 0 and f.smallness.dr_c0 == 0
    assert f.smallness.cone_ok


def test_build_smallness_bounds():
    f = small_map()
    assert abs(f.smallness.dr_c0_upper - 2 * np.pi * EPS) < 1e-15
    assert f.smallness.cone_ok


def test_build_large_perturbation_warns():
    with pytest.warns(UserWarning):
        f = maps.build(CAT, TrigPoly.sin_mode((0, 1), [10.0, 0.0]))
    assert not f.smallness.cone_ok


def test_smallness_is_built_on_first_read():
    disp = TrigPoly.sin_mode((0, 1), [EPS, 0.0])
    eager = maps.build(CAT, disp)
    assert "smallness" in vars(eager)         # read by the cone warning
    lazy = maps.build(CAT, disp, warn=False)
    assert "smallness" not in vars(lazy)
    assert lazy.smallness == eager.smallness


def test_lift_equivariance():
    f = small_map()
    rng = np.random.default_rng(0)
    x = rng.random((50, 2))
    k = rng.integers(-3, 4, size=(50, 2)).astype(float)
    lhs = f.apply_lift(x + k)
    rhs = f.apply_lift(x) + k @ CAT.as_array().T
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_verify_anosov_linear():
    f = maps.build(CAT, TrigPoly.zero(2, 2))
    rep = maps.verify_anosov(f)
    golden = (3 + np.sqrt(5)) / 2
    assert abs(rep.theta - 1 / golden) < 1e-10


def test_verify_anosov_perturbed_theta_close():
    f = small_map()
    rep = maps.verify_anosov(f)
    golden = (3 + np.sqrt(5)) / 2
    assert rep.passed
    assert abs(rep.theta - 1 / golden) / (1 / golden) < 0.05


def test_verify_anosov_inconclusive_when_large():
    f = maps.build(CAT, TrigPoly.sin_mode((0, 1), [0.5, 0.0]), warn=False)
    with pytest.raises(VerificationInconclusive):
        maps.verify_anosov(f, grid_n=8)


def test_local_inverse_roundtrip_on_grid():
    f = small_map()
    ax = np.arange(64) / 64
    x = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    y = f.apply(x)
    back = f.invert(y)[0]
    diff = back - x
    diff -= np.round(diff)
    assert np.max(np.abs(diff)) < 1e-10


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_invert_is_torus_inverse_of_small_perturbations(d, seed):
    # d = 2 takes the closed-form Newton step, d = 3, 4 the pivoted
    # elimination
    rng = np.random.default_rng(seed)
    for _ in range(20):         # most draws are not hyperbolic
        base = spectral.random_unimodular(d, steps=4 * d, rng=rng,
                                          entry_cap=6)
        try:
            spectral.lyapunov_splitting(base)
            break
        except NotHyperbolic:
            pass
    else:
        assume(False)
    disp = TrigPoly.zero(d, d)
    for _ in range(2):
        freq = rng.integers(-2, 3, size=d)
        freq[0] += not freq.any()
        amp = 1e-4 * rng.uniform(-1, 1, size=d)
        disp = disp + TrigPoly.sin_mode(freq, amp) + \
            TrigPoly.cos_mode(rng.permutation(freq), amp[::-1])
    # warn=False skips the smallness report.  When the frequencies span
    # all of Z^4, its grid sup transforms one 64^4 grid per nonzero range
    # component: a cat (+) cat build took 0.9 s with one component and
    # 3.2-4.2 s with all four, as here, on a 2-core Xeon
    f = maps.PerturbedMap(base, disp, warn=False)
    y = rng.random((300, d))
    x, r = f.invert(y)
    assert np.all((x >= 0) & (x < 1))
    diff = f.apply_lift(x) - y
    assert np.max(np.abs(diff - np.round(diff))) < 1e-12
    # the table each Newton iterate shares between f and Df, and R at the
    # returned point, change no bit
    with table_memo_off():
        assert np.array_equal(x, f.invert(y)[0])
        assert np.array_equal(r, f.displacement_at(x))


def test_newton_step_closed_form_matches_solve():
    rng = np.random.default_rng(5)
    rot = np.linalg.qr(rng.normal(size=(500, 2, 2)))[0]
    sv = rng.uniform(0.5, 2.0, size=(500, 2))
    jac = rot @ (sv[:, :, None] * np.linalg.qr(
        rng.normal(size=(500, 2, 2)))[0])
    res = rng.normal(size=(500, 2))
    want = np.linalg.solve(jac, res[..., None])[..., 0]
    # copies: the step consumes its arguments
    step = maps._newton_step(jac.transpose(1, 2, 0).copy(),
                             res.T.copy()).T
    assert np.max(np.abs(step - want)) < 1e-13
    jac[3] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(np.linalg.LinAlgError):
        maps._newton_step(jac.transpose(1, 2, 0).copy(), res.T.copy())


@pytest.mark.parametrize("d", [2, 3, 4])
def test_newton_step_writes_the_step_into_res(d):
    # one contract for every d: jac is scratch, and the step is res itself
    rng = np.random.default_rng(d)
    jac = _newton_stack(d, ["near L"] * 6, rng)
    res = rng.normal(size=(len(jac), d))
    rows = res.T.copy()
    step = maps._newton_step(jac.transpose(1, 2, 0).copy(), rows)
    assert step is rows
    want = np.linalg.solve(jac, res[..., None])[..., 0]
    assert np.max(np.abs(step.T - want)) < 1e-12


def _newton_stack(d, kinds, rng):
    """A (P, d, d) stack of the given kinds of systems: gaussian, L + DR
    for a hyperbolic L and a perturbation of size 1e-3, and the same for
    [[0, 1], [1, 1]] (+) L', whose first column pivots on its second row
    (L' a hyperbolic (d - 2)-block, or [[2]] for d = 3); and gaussian
    systems whose first column has an exact tie, in modulus, between two
    rows for its largest entry."""
    out = []
    for kind in kinds:
        if kind == "gaussian":
            out.append(rng.normal(size=(d, d)))
            continue
        if kind == "tie":
            a = rng.normal(size=(d, d))
            a[:, 0] = rng.uniform(-1.0, 1.0, size=d)
            a[rng.choice(d, 2, replace=False), 0] = \
                rng.choice([-2.0, 2.0], size=2)
            out.append(a)
            continue
        size = d if kind == "near L" else d - 2
        base = np.array([[2.0]])
        if size >= 2:
            for _ in range(50):
                mat = spectral.random_unimodular(size, steps=4 * size,
                                                 rng=rng, entry_cap=6)
                try:
                    spectral.lyapunov_splitting(mat)
                    base = mat.as_array().astype(float)
                    break
                except NotHyperbolic:
                    pass
            else:
                base = np.eye(size) + np.triu(np.ones((size, size)))
        if kind != "near L":
            swap = np.zeros((d, d))
            swap[:2, :2] = [[0.0, 1.0], [1.0, 1.0]]
            swap[2:, 2:] = base
            base = swap
        out.append(base + 1e-3 * rng.normal(size=(d, d)))
    return np.array(out)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(3, 5),
       st.lists(st.sampled_from(["gaussian", "near L", "row swap"]),
                min_size=1, max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_pivoted_elimination_matches_exact_solve(d, kinds, seed):
    # each step is within c cond eps of the exact solution of the same
    # float system, c = d; stacks mix systems that need row swaps with
    # ones that pivot on the diagonal, so the masked swaps are partial
    rng = np.random.default_rng(seed)
    jac = _newton_stack(d, kinds, rng)
    res = rng.normal(size=(len(jac), d))
    # copies: the step consumes its arguments
    step = maps._newton_step(jac.transpose(1, 2, 0).copy(),
                             res.T.copy()).T
    eps = np.finfo(float).eps
    for a, b, x in zip(jac, res, step):
        exact = solve_fraction_float(a, b)
        bound = d * np.linalg.cond(a, np.inf) * eps * \
            np.max(np.abs(exact))
        assert np.max(np.abs(x - exact)) <= bound


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("kind", ["repeated row", "zero column"])
def test_pivoted_elimination_raises_on_an_exactly_singular_system(d, kind):
    # identical rows take identical updates, so one of them reaches the
    # diagonal as an exact zero row; a zero column stays zero
    rng = np.random.default_rng(d)
    jac = _newton_stack(d, ["near L", "row swap", "gaussian"], rng)
    if kind == "repeated row":
        jac[1, -1] = jac[1, 0]
    else:
        jac[1, :, d // 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        maps._newton_step(jac.transpose(1, 2, 0).copy(),
                         rng.normal(size=(d, 3)))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(2, 5),
       st.lists(st.sampled_from(["gaussian", "near L", "row swap", "tie"]),
                min_size=1, max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_eliminate_matches_the_argmax_elimination_bit_for_bit(d, kinds,
                                                              seed):
    # the running strict > takes the first of tied pivots, as argmax
    # does, and the products written into scratch rows round as the
    # temporaries did
    rng = np.random.default_rng(seed)
    jac = _newton_stack(d, kinds, rng)
    res = rng.normal(size=(len(jac), d))
    step = maps._eliminate(jac.transpose(1, 2, 0).copy(), res.T.copy())
    want = eliminate_argmax(jac.transpose(1, 2, 0).copy(), res.T.copy())
    assert _same_bits(step, want)


# hyperbolic L whose first column pivots on its second row: x^3 - x - 1's
# companion matrix, and [[0, 1], [1, 1]] (+) cat
_SWAP_BASES = {2: [[0, 1], [1, 1]], 3: [[0, 0, 1], [1, 0, 1], [0, 1, 0]],
               4: [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(2, 4), st.sampled_from(["sparse", "box-dense"]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_invert_matches_the_out_of_place_inverse_bit_for_bit(d, kind, swap,
                                                             seed):
    # the in-place iterate, residual and reduction take the out-of-place
    # inverse's steps: the same x and R(x) bit for bit, through the
    # Cramer step (d = 2) and the elimination (d = 3, 4), with every
    # point's first pivot off the diagonal when swap is set
    rng = np.random.default_rng(seed)
    if swap:
        base = spectral.automorphism(_SWAP_BASES[d])
    else:
        for _ in range(20):
            base = spectral.random_unimodular(d, steps=4 * d, rng=rng,
                                              entry_cap=6)
            try:
                spectral.lyapunov_splitting(base)
                break
            except NotHyperbolic:
                pass
        else:
            assume(False)
    if kind == "sparse":
        disp = TrigPoly.zero(d, d)
        for _ in range(2):
            freq = rng.integers(-2, 3, size=d)
            freq[0] += not freq.any()
            disp = disp + TrigPoly.sin_mode(
                freq, 1e-4 * rng.uniform(-1, 1, size=d))
    else:
        # every mode of the box of radius 6 (d = 2, 3) or 1 (d = 4): a
        # full box of radius 6 has 13 rows per box line, above the
        # separable path's 12, and one of radius 1 has 3
        radius = 6 if d < 4 else 1
        freqs = np.indices((2 * radius + 1,) * d).reshape(d, -1).T - radius
        coefs = rng.normal(size=(len(freqs), d)) + \
            1j * rng.normal(size=(len(freqs), d))
        disp = TrigPoly.from_arrays(d, d, freqs,
                                    1e-6 * coefs).symmetrize_real()
    f = maps.PerturbedMap(base, disp, warn=False)
    assert f.disp._box_dense() == (kind == "box-dense" and d < 4)
    y = rng.random((200, d))
    x, r = f.invert(y)
    want_x, want_r = invert_out_of_place(f, y)
    assert _same_bits(x, want_x) and _same_bits(r, want_r)


def test_invert_evaluates_r_once_per_residual_and_df_once_per_step(
        monkeypatch):
    # one displacement_at per residual and one jacobian per Newton step,
    # with one more displacement_at when the final reduction moves a 1.0
    # to 0.0 (see test_r_after_invert_is_r_at_the_returned_point)
    calls, steps = [], []
    for name in ("displacement_at", "jacobian"):
        def spied(self, x, name=name, method=getattr(maps.PerturbedMap,
                                                      name)):
            calls.append(name)
            return method(self, x)
        monkeypatch.setattr(maps.PerturbedMap, name, spied)
    step = maps._newton_step
    monkeypatch.setattr(maps, "_newton_step",
                        lambda jac, res: steps.append(1) or step(jac, res))
    wrap = np.array([[0.0, 2.0 ** -60], [0.3, 0.7], [0.9, 0.1]])
    cases = [(small_map(), wrap, 1),
             (small_map(), np.random.default_rng(2).random((500, 2)), 0),
             (small_perturbation(4, np.random.default_rng(3)),
              np.random.default_rng(4).random((500, 4)), 0)]
    for f, y, extra in cases:
        del calls[:], steps[:]
        f.invert(y)
        assert len(steps) >= 1
        assert calls == ["displacement_at", "jacobian"] * len(steps) + \
            ["displacement_at"] * (1 + extra)


@pytest.mark.parametrize("make_map", [
    lambda: small_map(),
    lambda: small_perturbation(2, np.random.default_rng(4))],
    ids=["cat", "random d=2"])
def test_d2_invert_matches_the_row_major_inverse(make_map):
    # the component-major Newton inverse takes the row-major one's steps:
    # the same points bit for bit, and R at them
    f = make_map()
    y = np.random.default_rng(9).random((2000, 2))
    y[0] = [0.0, 2.0 ** -60]
    x, r = f.invert(y)
    assert np.array_equal(x, invert_rows(f, y))
    assert np.array_equal(r, f.displacement_at(x))


def _max_norm2_full(stack):
    return float(np.max(np.linalg.norm(stack, ord=2, axis=(-2, -1))))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["plain", "ties", "zeros", "rank1", "rank1 ties",
                        "complex"]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_max_norm2_is_the_full_stack_max_bit_for_bit(p, q, kind, batch, seed):
    # stacks past one block of SVDs, 1 x 1 matrices, repeated and
    # transposed tops (equal 2-norms), zero matrices, and rank-1 matrices,
    # whose 2-norm is their Frobenius norm; permuted copies of a rank-1
    # top tie across blocks up to the last bits of both norms
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 400))
    stack = rng.normal(size=(k, p, q)) * rng.uniform(0, 2, size=(k, 1, 1))
    if kind.startswith("rank1"):
        stack = rng.normal(size=(k, p, 1)) * rng.normal(size=(k, 1, q))
    if kind.endswith("ties"):
        top = stack[np.argmax(np.linalg.norm(stack, axis=(-2, -1)))]
        for j in np.flatnonzero(rng.random(k) < 0.5):
            stack[j] = top[rng.permutation(p)][:, rng.permutation(q)]
            if p == q and rng.random() < 0.5:
                stack[j] = stack[j].T
        stack[rng.random(k) < 0.2] *= -1
    elif kind == "zeros":
        stack[rng.random(k) < 0.5] = 0.0
    elif kind == "complex":
        stack = stack + 1j * rng.normal(size=(k, p, q))
    if batch and k % 2 == 0:
        stack = stack.reshape(2, k // 2, p, q)
    assert maps.max_norm2(stack).hex() == _max_norm2_full(stack).hex()


def test_max_norm2_empty_and_non_finite_stacks_as_before():
    with pytest.raises(ValueError):
        _max_norm2_full(np.zeros((0, 2, 2)))
    with pytest.raises(ValueError):
        maps.max_norm2(np.zeros((0, 2, 2)))
    assert maps.max_norm2(np.zeros((3, 0, 0))) == \
        _max_norm2_full(np.zeros((3, 0, 0))) == 0.0
    inf = np.ones((70, 2, 2))
    inf[5, 0, 1] = np.inf
    assert np.isnan(maps.max_norm2(inf)) and np.isnan(_max_norm2_full(inf))
    nan = np.ones((70, 2, 2))
    nan[69, 1, 1] = np.nan
    for fn in (maps.max_norm2, _max_norm2_full):
        with pytest.raises(np.linalg.LinAlgError):
            fn(nan)


def test_mod1_is_numpy_remainder_bit_for_bit():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.normal(size=4000) * s
                        for s in (1e-20, 1e-3, 1.0, 7.0, 1e6)])
    x = np.concatenate([x, np.round(x), [0.0, -0.0, 1.0, -1.0, -1e-300]])
    assert np.array_equal((x % 1.0).view(np.int64),
                          maps._mod1(x).view(np.int64))


def test_r_after_invert_is_r_at_the_returned_point(monkeypatch):
    # L^-1 y = (-2^-60, 2^-59): the first iterate reduces to (1.0, 2^-59)
    # and already solves f(x) = y, and only the final reduction maps it to
    # (0.0, 2^-59).  The trig kernel is exactly 1-periodic, so both points
    # have the same [cos | sin] table, yet they are different points: the
    # R invert returns must come from a table built for the returned
    # points, not from the one the last iterate left.
    f = maps.build(CAT, TrigPoly.sin_mode((1, 0), [EPS, 0.0]), warn=False)
    y = np.array([[0.0, 2.0 ** -60], [0.3, 0.7], [0.9, 0.1]])
    assert maps._mod1(f._mat_inv @ y.T)[0, 0] == 1.0
    built = []                  # the points of each table built, in order
    kept = torusfn._kept
    monkeypatch.setattr(torusfn, "_kept", lambda slot, pts, size, build: kept(
        slot, pts, size, lambda: built.append(pts.copy()) or build()))
    x, r = f.invert(y)
    assert x[0, 0] == 0.0
    # the last iterate's table, then exactly one at the returned points;
    # the kernel reads points as their (d, P) transpose
    assert built[-2][0, 0] == 1.0
    assert np.array_equal(built[-2][:, 1:], x.T[:, 1:])
    assert np.array_equal(built[-1], x.T)
    assert f.disp._table[0] == (x.T.tobytes(), x.T.strides)
    assert r[0, 0] == 0.0
    count = len(built)
    assert np.array_equal(r, f.displacement_at(x))
    assert len(built) == count          # served from the returned points
    with table_memo_off():
        x_off, r_off = f.invert(y)
        assert np.array_equal(x, x_off) and np.array_equal(r, r_off)
        assert np.array_equal(r, f.displacement_at(x))
    fx, r_x = f.apply_with_displacement(x)
    assert np.array_equal(fx, f.apply(x))
    assert np.array_equal(r_x, r)


def test_invert_raises_when_newton_stalls():
    # R = sin(2 pi (x + y)) (1, -1) is far too large for f to be a
    # diffeomorphism; torus Newton then stalls at some of the points
    disp = TrigPoly.sin_mode((1, 1), [1.0, -1.0]) + \
        TrigPoly.cos_mode((0, 1), [0.0, 1.0])
    f = maps.PerturbedMap(CAT, disp, warn=False)
    y = np.random.default_rng(0).random((2000, 2))
    with pytest.raises(NewtonDivergence, match="stalled") as err:
        f.invert(y)
    assert err.value.points.shape == y.shape


def test_periodic_counts_match_determinant():
    f = small_map()
    expected = {1: 1, 2: 5, 3: 16, 4: 45, 5: 121, 6: 320}
    for n, count in expected.items():
        res = maps.periodic_points(f, n)
        assert res.expected_count == count
        assert res.point_count == count
        assert res.newton_failures == 0
        assert res.newton_iterations <= 10
        assert all(o.residual < 1e-10 for o in res.orbits)


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _l_minus_i(rows, n):
    ln = spectral.automorphism(rows).power(n).rows()
    return [[ln[i][j] - (i == j) for j in range(len(ln))]
            for i in range(len(ln))]


@pytest.mark.parametrize("lni", [
    *(_l_minus_i([[2, 1], [1, 1]], n) for n in range(1, 9)),
    _l_minus_i([[0, 0, 1], [1, 0, -1], [0, 1, 2]], 4),
    _l_minus_i([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 2, 1]], 2),
    _l_minus_i([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]], 3),
    # entries past int64: the seeds take Python integers
    [[1, 10 ** 19], [0, 3]],
    [[5, 0, 0], [2 ** 62, 1, 0], [7, 2 ** 61, 3]]],
    ids=[*(f"cat^{n}" for n in range(1, 9)), "d3", "d4 blocks", "d4",
         "object d2", "object d3"])
def test_periodic_seeds_are_the_loop_s_bit_for_bit(lni):
    det = abs(exactalg.det_bareiss(lni))
    k, x = maps._periodic_seeds(lni, det)
    want_k, want_x = periodic_seeds_loop(lni, det)
    assert len(k) == det
    assert k.tolist() == [list(t) for t in want_k]
    assert [[v.hex() for v in row] for row in x.tolist()] == \
        [[v.hex() for v in row] for row in want_x]
    assert (k.dtype == object) == (max(map(abs, sum(lni, []))) > 2 ** 40)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_periodic_seeds_match_box_and_orbits_partition_by_period(d, n, seed):
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
    fixed = {}                  # q -> |det(L^q - I)|, the points of L^q
    for q in range(1, n + 1):
        lq = base.power(q).rows()
        lni = [[lq[i][j] - (i == j) for j in range(d)] for i in range(d)]
        fixed[q] = abs(exactalg.det_bareiss(lni))
    assume(fixed[n] <= 400)
    try:
        box = periodic_seeds_box(lni)
    except ValueError:
        assume(False)
    k, x = maps._periodic_seeds(lni, fixed[n])
    assert (k.tolist(), x.tolist()) == ([list(t) for t in box[0]], box[1])
    assert len(box[0]) == fixed[n]

    res = maps.periodic_points(maps.PerturbedMap(base, TrigPoly.zero(d, d)),
                               n)
    assert res.newton_failures == 0
    assert res.point_count == res.expected_count == fixed[n]
    assert all(n % o.period == 0 for o in res.orbits)
    for m in range(1, n + 1):
        if n % m == 0:
            minimal = sum(_mobius(m // q) * fixed[q]
                          for q in range(1, m + 1) if m % q == 0)
            assert sum(o.period for o in res.orbits if o.period == m) \
                == minimal


def _assert_same_search(got, ref, atol=0.0, rtol=0.0):
    assert (got.point_count, got.expected_count, got.newton_failures,
            got.newton_iterations, got.period) == \
        (ref.point_count, ref.expected_count, ref.newton_failures,
         ref.newton_iterations, ref.period)
    assert len(got.orbits) == len(ref.orbits)
    for o, r in zip(got.orbits, ref.orbits):
        assert (o.period, o.k_vector, o.residual) == \
            (r.period, r.k_vector, r.residual)
        assert o.points.shape == r.points.shape
        assert np.max(np.abs(o.points - r.points), initial=0.0) <= atol
        assert np.max(np.abs(o.deriv_product - r.deriv_product)) <= \
            rtol * np.max(np.abs(r.deriv_product))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.integers(2, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_periodic_orbits_match_per_seed_reference(d, n, seed):
    # The batched walk evaluates f at many points per call and the
    # reference at one, which numpy hands to different BLAS kernels (gemm
    # and gemv).  Where L or R sums two inexact products the kernels may
    # round differently, and the expansion of f carries that last bit
    # along the orbit: up to 3.6e-15 after 3 steps.  Every discrete
    # field, and the residual of the shared Newton pass, is exact.
    f = small_perturbation(d, np.random.default_rng(seed), n=n)
    _assert_same_search(maps.periodic_points(f, n),
                        periodic_points_per_seed(f, n), atol=1e-13,
                        rtol=1e-13)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.integers(1, 4), st.sampled_from([(0, 1), (1, 0), (1, 1), (1, -1)]),
       st.floats(1e-4, 1e-2), st.integers(0, 2 ** 32 - 1))
def test_periodic_orbits_are_bit_identical_on_one_mode_cat_maps(n, freq, eps,
                                                                 seed):
    # The cat map with a one-mode R, the family of the cocycle scenario:
    # every sum in f and Df has one inexact term at most, so the batched
    # walk must reproduce the per-seed orbits bit for bit.
    amp = eps * np.random.default_rng(seed).uniform(-1, 1, size=2)
    f = maps.PerturbedMap(CAT, TrigPoly.sin_mode(freq, amp), warn=False)
    _assert_same_search(maps.periodic_points(f, n),
                        periodic_points_per_seed(f, n))


def test_periodic_minimal_periods():
    f = small_map()
    res = maps.periodic_points(f, 2)
    periods = sorted(o.period for o in res.orbits)
    assert periods == [1, 2, 2]


def test_fixed_point_near_zero():
    f = small_map()
    p = maps.fixed_point_near_zero(f)
    # origin is fixed: R vanishes on the x2 = 0 circle... it does not, but
    # sin(2 pi 0) = 0 in the second coordinate makes (0,0) fixed
    assert np.max(np.abs(f.apply(p) - p)) < 1e-12


def test_periodic_data_trivial():
    f = maps.build(CAT, TrigPoly.zero(2, 2))
    res = maps.periodic_points(f, 1)
    verdict = maps.periodic_data_check(f, res.orbits[0])
    assert verdict.verdict == "conjugate"
    assert verdict.conjugator_cond < 1.5


def test_periodic_data_generic_perturbation_breaks():
    disp = TrigPoly.sin_mode((0, 1), [0.05, 0.0]) + \
        TrigPoly.cos_mode((1, 0), [0.0, 0.05])
    f = maps.build(CAT, disp, warn=False)
    res = maps.periodic_points(f, 1)
    verdict = maps.periodic_data_check(f, res.orbits[0])
    assert verdict.verdict == "not_conjugate"
    assert verdict.charpoly_distance > 1e-4


def test_periodic_data_counterexample_conjugate():
    from toralab.conjugacy import build_counterexample
    ce = build_counterexample([[2, 1], [1, 1]], [[3, 1], [2, 1]],
                              TrigPoly.sin_mode((1, 0), 0.01), k_trunc=40)
    res = maps.periodic_points(ce.f, 1)
    conds = []
    for orbit in res.orbits:
        verdict = maps.periodic_data_check(ce.f, orbit)
        assert verdict.verdict == "conjugate"
        conds.append(verdict.conjugator_cond)
    assert max(conds) < 1e3   # boundedness diagnostic
