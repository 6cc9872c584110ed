"""The keyword options of the public API, pinned, and its one layout of
points.

A library keyword option exists only where some caller sets it; a limit
or tolerance that every caller leaves at its default is a module constant
(MAX_TERMS, MAX_SEARCH_PERIOD, MODULUS_TOL, ...).  A new option therefore
shows up here as a reviewed change of OPTIONS.  Points are (..., d) rows
at every public boundary.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import toralab
from toralab import TrigPoly
from toralab.errors import NewtonDivergence

OPTIONS = {
    ("CocycleSpec.__init__", "cluster_index"),
    ("CocycleSpec.__init__", "kind"),
    ("CocycleSpec.__init__", "matrix"),
    ("GridFunction.to_trig", "threshold"),
    ("PerturbedMap.__init__", "warn"),
    ("TrigPoly.__init__", "coeffs"),
    ("TrigPoly.compose_affine", "shift"),
    ("TrigPoly.is_real", "tol"),
    ("TrigPoly.to_grid", "allow_alias"),
    ("build", "warn"),
    ("build_counterexample", "k_trunc"),
    ("c0_norm", "grid_n"),
    ("dual_orbit_decomposition", "extended_radius"),
    ("dual_orbit_decomposition", "max_walk"),
    ("estimate_holder", "dim"),
    ("estimate_holder", "j_max"),
    ("estimate_holder", "j_min"),
    ("estimate_holder", "pairs"),
    ("estimate_holder", "seed"),
    ("estimate_holder", "strict"),
    ("exponents_at_periodic", "reference"),
    ("fiber_bunching_check", "anosov_report"),
    ("fiber_bunching_check", "beta"),
    ("kam_iterate", "grid_n"),
    ("kam_iterate", "radius"),
    ("kam_iterate", "steps"),
    ("kam_iterate", "tol"),
    ("kam_step", "grid_n"),
    ("kam_step", "radius"),
    ("kam_step", "tol"),
    ("lyapunov_volume", "grid_per_axis"),
    ("lyapunov_volume", "reference"),
    ("lyapunov_volume", "seed"),
    ("oseledets_subbundle", "gap_factor"),
    ("periodic_covariance", "n_max"),
    ("sobolev_norm", "grid_n"),
    ("solve_conjugacy", "grid_n"),
    ("solve_conjugacy", "tol"),
    ("solve_linearized", "extended_radius"),
    ("solve_linearized", "radius"),
    ("solve_linearized", "tol"),
    ("verify_anosov", "grid_n"),
}


def _public_callables():
    """(qualname, function) for every function in toralab.__all__ and
    every public method, classmethod and hand-written __init__ of its
    classes (a dataclass's generated __init__ takes record fields)."""
    for name in toralab.__all__:
        obj = getattr(toralab, name)
        if inspect.isfunction(obj):
            yield obj.__qualname__, obj
        if not inspect.isclass(obj):
            continue
        for attr, value in vars(obj).items():
            if attr.startswith("_") and (
                    attr != "__init__" or dataclasses.is_dataclass(obj)):
                continue
            if isinstance(value, (classmethod, staticmethod)):
                value = value.__func__
            if inspect.isfunction(value):
                yield f"{obj.__name__}.{attr}", value


def test_keyword_options_are_pinned():
    found = {(qualname, p.name)
             for qualname, fn in _public_callables()
             for p in inspect.signature(fn).parameters.values()
             if p.default is not inspect.Parameter.empty}
    assert found == OPTIONS, (
        f"new options: {sorted(found - OPTIONS)}; "
        f"gone: {sorted(OPTIONS - found)}")


def test_all_exports_no_module_but_errors():
    # importing a submodule binds it in the package; only errors is public
    modules = {name for name in toralab.__all__
               if inspect.ismodule(getattr(toralab, name))}
    assert modules == {"errors"}
    namespace = {}
    exec("from toralab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(toralab.__all__)
    assert {"solve_conjugacy", "PerturbedMap", "TrigPoly"} <= namespace.keys()


def _cat_maps(d):
    """f = L + R for L = cat (d = 2) or cat (+) cat (d = 4): one with a
    small R, and one with R = sin(2 pi (x + y)) (1, -1) + cos(2 pi y) e_2
    on each cat block, far too large for f to be a diffeomorphism, on which
    the torus Newton inverse stalls at some points."""
    cat = toralab.automorphism([[2, 1], [1, 1]])
    base = cat if d == 2 else toralab.block_diagonal(cat, cat)
    small = TrigPoly.sin_mode((0, 1) * (d // 2), [1e-3, 0.0, -2e-3, 1e-3][:d])
    large = TrigPoly.zero(d, d)
    e = np.eye(d, dtype=int)
    for i in range(0, d, 2):
        large = large + TrigPoly.sin_mode(e[i] + e[i + 1], e[i] - e[i + 1]) \
            + TrigPoly.cos_mode(e[i + 1], e[i + 1])
    return (toralab.build(base, small, warn=False),
            toralab.PerturbedMap(base, large, warn=False))


# a point of default_rng(0).random((300, d)) at which the large map's
# Newton inverse stalls by itself
STALLED = {2: 142, 4: 94}


@pytest.mark.parametrize("d", [2, 4])
def test_map_points_are_rows(d):
    # one point, a stack of P points and a (2, P) batch, each as rows: the
    # inverse is the torus inverse, f with R is apply and displacement_at
    # bit for bit, and a stalled inverse reports its points shaped like y
    f, large = _cat_maps(d)
    y = np.random.default_rng(0).random((300, d))
    for pts in (y[0], y, y.reshape(2, 150, d)):
        x, r = f.invert(pts)
        assert x.shape == r.shape == pts.shape
        diff = f.apply(x) - pts
        assert np.max(np.abs(diff - np.round(diff))) < 1e-12
        fx, r_x = f.apply_with_displacement(pts)
        assert np.array_equal(fx, f.apply(pts))
        assert np.array_equal(r_x, f.displacement_at(pts))
    for pts in (y[STALLED[d]], y, y.reshape(2, 150, d)):
        with pytest.raises(NewtonDivergence, match="stalled") as err:
            large.invert(pts)
        assert err.value.points.shape == pts.shape
