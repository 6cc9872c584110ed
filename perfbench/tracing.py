"""Outside-in layer trace: wraps public toralab functions at runtime.

Nothing in the library changes.  ``Tracer.install`` replaces each target
function (or method) by a wrapper that records a span
``(id, parent, pass_id, name, start, end, counts)`` and puts it back with
``Tracer.uninstall``.  A module-level function is replaced in every
toralab namespace that bound it by name (``solve_conjugacy`` lives in
``conjugacy``, ``twisted`` and ``cli``), so calls through any of those
names are seen.  Spans stay in memory until the pass writes them out.
"""

import functools
import sys
import time

import numpy as np


def _eval_counts(args, kwargs, result):
    poly = args[0]
    return {"points": np.asarray(args[1]).size // poly.dim_domain,
            "modes": len(poly.coeffs)}


def _invert_counts(args, kwargs, result):
    return {"points": np.asarray(args[1]).size // args[0].dim}


def _to_grid_counts(args, kwargs, result):
    grid_n = args[1] if len(args) > 1 else kwargs["grid_n"]
    return {"grid_points": grid_n ** args[0].dim_domain}


def _solve_counts(args, kwargs, result):
    return {"n_terms": result.n_terms,
            "grid_points": result.grid_n ** result.f.dim}


def _periodic_counts(args, kwargs, result):
    return {"seeds": result.expected_count,
            "newton_iterations": result.newton_iterations,
            "newton_failures": result.newton_failures}


def _linearized_counts(args, kwargs, result):
    q = args[1] if len(args) > 1 else kwargs["q"]
    return {"modes_in": len(q.coeffs)}


def _segment_counts(args, kwargs, result):
    return {"segments": result.segment_count()}


# (module, qualified name, counter); names are "<module>.<qualname>".
TARGETS = [
    ("cli", "run_manifest", None),
    ("spectral", "lyapunov_splitting", None),
    ("spectral", "classification_report", None),
    ("spectral", "weakly_irreducible_definitional", None),
    ("factor", "factor_over_q", None),
    ("roots", "certified_roots", None),
    ("torusfn", "TrigPoly.eval", _eval_counts),
    ("torusfn", "TrigPoly.eval_jacobian", _eval_counts),
    ("torusfn", "TrigPoly.to_grid", _to_grid_counts),
    ("torusfn", "GridFunction.to_trig", None),
    ("torusfn", "c0_norm", None),
    ("torusfn", "estimate_holder", None),
    ("torusfn", "finite_difference_ratio", None),
    ("torusfn", "sobolev_norm", None),
    ("maps", "build", None),
    ("maps", "PerturbedMap.invert", _invert_counts),
    ("maps", "PerturbedMap.jacobian", None),
    ("maps", "periodic_points", _periodic_counts),
    ("maps", "verify_anosov", None),
    ("conjugacy", "solve_conjugacy", _solve_counts),
    ("conjugacy", "regularity_metrics", None),
    ("conjugacy", "jacobian_dh", None),
    ("conjugacy", "periodic_covariance", None),
    ("conjugacy", "build_counterexample", None),
    ("conjugacy", "SkewSeries.__call__", None),
    ("twisted", "kam_step", None),
    ("twisted", "solve_linearized", _linearized_counts),
    ("twisted", "dual_orbit_decomposition", _segment_counts),
    ("cocycles", "lyapunov_volume", None),
    ("cocycles", "CocycleSpec.generator", None),
    ("cocycles", "exponents_at_periodic", None),
    ("cocycles", "conformality_at_periodic", None),
    ("cocycles", "fiber_bunching_check", None),
    ("cocycles", "dh_as_cocycle_conjugacy", None),
]


PACKAGE = "toralab"


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []
        self._next_id = 0
        self._patches = []      # (owner, attribute, original)

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            result = counts = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                if counter is not None and result is not None:
                    counts = counter(args, kwargs, result)
                tracer.spans.append(
                    (sid, parent, tracer.pass_id, name, t0, t1, counts))
            return result
        return wrapper

    def install(self):
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == PACKAGE or
                                            n.startswith(PACKAGE + "."))]
        for module_name, qualname, counter in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, counter))
                self._patches.append((owner, attr, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original, counter)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patches.append((ns, attr, original))

    def uninstall(self):
        """Put every original back; returns True when all are restored."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(owner.__dict__[attr] is original
                       for owner, attr, original in self._patches)
        self._patches = []
        return restored


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------

def _row(name, stat, unit, better):
    return (f"{name}.{stat}", unit, better)


def _layer_rows():
    rows = [_row("cli.run_manifest", "self_s", "s", "lower")]
    lyap = "spectral.lyapunov_splitting"
    rows += [_row(lyap, "calls", "count", "lower"),
             _row(lyap, "total_s", "s", "lower"),
             _row(lyap, "cache_hit_ratio", "ratio", "higher")]
    rows += [_row(n, "total_s", "s", "lower") for n in (
        "spectral.classification_report",
        "spectral.weakly_irreducible_definitional", "factor.factor_over_q")]
    rows += [_row("roots.certified_roots", "calls", "count", "lower"),
             _row("roots.certified_roots", "total_s", "s", "lower")]
    for n in ("torusfn.TrigPoly.eval", "torusfn.TrigPoly.eval_jacobian"):
        rows += [_row(n, "calls", "count", "lower"),
                 _row(n, "self_s", "s", "lower"),
                 _row(n, "points", "count", "lower"),
                 _row(n, "mode_points", "count", "lower"),
                 _row(n, "ns_per_mode_point", "ns", "lower")]
    rows += [_row("torusfn.GridFunction.to_trig", "calls", "count", "lower"),
             _row("torusfn.GridFunction.to_trig", "self_s", "s", "lower"),
             _row("torusfn.TrigPoly.to_grid", "self_s", "s", "lower"),
             _row("torusfn.TrigPoly.to_grid", "grid_points", "count",
                  "lower")]
    rows += [_row(n, "total_s", "s", "lower") for n in (
        "torusfn.c0_norm", "torusfn.estimate_holder",
        "torusfn.finite_difference_ratio", "torusfn.sobolev_norm")]
    rows += [_row("maps.build", "calls", "count", "lower"),
             _row("maps.build", "total_s", "s", "lower")]
    inv = "maps.PerturbedMap.invert"
    rows += [_row(inv, "calls", "count", "lower"),
             _row(inv, "self_s", "s", "lower"),
             _row(inv, "points", "count", "lower"),
             _row(inv, "newton_iters", "1/call", "lower")]
    per = "maps.periodic_points"
    rows += [_row(per, "total_s", "s", "lower"),
             _row(per, "seeds", "count", "lower"),
             _row(per, "newton_iterations", "count", "lower"),
             _row(per, "newton_failures", "count", "lower"),
             _row("maps.verify_anosov", "total_s", "s", "lower")]
    sol = "conjugacy.solve_conjugacy"
    rows += [_row(sol, "calls", "count", "lower"),
             _row(sol, "self_s", "s", "lower"),
             _row(sol, "total_s", "s", "lower"),
             _row(sol, "n_terms", "1/call", "lower"),
             _row(sol, "invert_work_ratio", "ratio", "lower")]
    rows += [_row(n, "total_s", "s", "lower") for n in (
        "conjugacy.regularity_metrics", "conjugacy.jacobian_dh",
        "conjugacy.periodic_covariance", "conjugacy.build_counterexample",
        "conjugacy.SkewSeries.__call__")]
    rows += [_row("twisted.kam_step", "calls", "count", "lower"),
             _row("twisted.kam_step", "self_s", "s", "lower"),
             _row("twisted.kam_step", "total_s", "s", "lower"),
             _row("twisted.solve_linearized", "self_s", "s", "lower"),
             _row("twisted.solve_linearized", "modes_in", "count", "lower"),
             _row("twisted.dual_orbit_decomposition", "total_s", "s",
                  "lower"),
             _row("twisted.dual_orbit_decomposition", "segments", "count",
                  "lower")]
    rows += [_row("cocycles.lyapunov_volume", "self_s", "s", "lower"),
             _row("cocycles.CocycleSpec.generator", "calls", "count",
                  "lower"),
             _row("cocycles.CocycleSpec.generator", "self_s", "s", "lower")]
    rows += [_row(n, "total_s", "s", "lower") for n in (
        "cocycles.exponents_at_periodic", "cocycles.conformality_at_periodic",
        "cocycles.fiber_bunching_check", "cocycles.dh_as_cocycle_conjugacy")]
    rows += [("trace.uncovered_s", "s", "lower"),
             ("trace.overhead_ratio", "ratio", "lower")]
    return rows


# (metric name, unit, better) in the order BENCHMARK.json lists them
LAYER_METRICS = _layer_rows()


def layer_values(spans, pass_wall_s, cache_hit_ratio):
    """Per-layer metric values of one traced pass (without the overhead
    ratio, which compares passes)."""
    by_id = {s[0]: s for s in spans}
    stats = {}
    child_time = {}
    for sid, parent, _, name, t0, t1, counts in spans:
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0})
        st["calls"] += 1
        st["total_s"] += t1 - t0
        for key, val in (counts or {}).items():
            st[key] = st.get(key, 0) + val
        if counts and "modes" in counts:
            st["mode_points"] = st.get("mode_points", 0) + \
                counts["points"] * counts["modes"]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    for sid, _, _, name, t0, t1, _ in spans:
        st = stats[name]
        st["self_s"] = st.get("self_s", 0.0) + (t1 - t0) - \
            child_time.get(sid, 0.0)

    def ancestor_named(span, target):
        while span[1] is not None:
            span = by_id[span[1]]
            if span[3] == target:
                return True
        return False

    inv, jac, sol = ("maps.PerturbedMap.invert", "maps.PerturbedMap.jacobian",
                     "conjugacy.solve_conjugacy")
    newton = sum(1 for s in spans if s[3] == jac and s[1] is not None
                 and by_id[s[1]][3] == inv)
    solve_points = sum(s[6]["points"] for s in spans
                       if s[3] == inv and ancestor_named(s, sol))
    solve_work = sum(s[6]["n_terms"] * s[6]["grid_points"] for s in spans
                     if s[3] == sol and s[6])
    derived = {
        f"{inv}.newton_iters": newton / max(stats.get(inv, {}).get("calls", 0),
                                            1),
        f"{sol}.invert_work_ratio": solve_points / solve_work
        if solve_work else 0.0,
        f"{sol}.n_terms": stats.get(sol, {}).get("n_terms", 0) /
        max(stats.get(sol, {}).get("calls", 0), 1),
        "spectral.lyapunov_splitting.cache_hit_ratio": cache_hit_ratio,
        "trace.uncovered_s": pass_wall_s - sum(
            t1 - t0 for _, parent, _, _, t0, t1, _ in spans if parent is None),
    }
    for name in ("torusfn.TrigPoly.eval", "torusfn.TrigPoly.eval_jacobian"):
        st = stats.get(name, {})
        mp = st.get("mode_points", 0)
        derived[f"{name}.ns_per_mode_point"] = \
            st["self_s"] * 1e9 / mp if mp else 0.0
    out = {}
    for metric, _, _ in LAYER_METRICS:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric != "trace.overhead_ratio":
            name, stat = metric.rsplit(".", 1)
            out[metric] = stats.get(name, {}).get(stat, 0)
    return out
