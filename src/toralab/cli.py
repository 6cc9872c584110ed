"""Command-line front door: manifests, reproducible runs, exports.

Every scenario is driven by a manifest (JSON) that fully determines the
run; rerunning with the same manifest and seed reproduces the result
files bitwise.  Wall-clock timings therefore go to a separate run.log
sidecar, never into result records.

Exit codes: 0 ok, 2 manifest/schema error, 3 numerical failure,
4 inconclusive (certification could not be completed).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, cocycles, conjugacy, exactalg, maps, spectral, \
    twisted
from .errors import (ConvergenceFailure, GapTooSmall, IncomparableManifests,
                     Indeterminate, NewtonDivergence, NoContraction,
                     NotHyperbolic, SchemaError, ToleranceNotReached,
                     ToralabError, TruncationInsufficient,
                     VerificationInconclusive)
from .torusfn import GridFunction, TrigPoly, estimate_holder, \
    finite_difference_ratio, uniform_grid

_INCONCLUSIVE = (Indeterminate, VerificationInconclusive, GapTooSmall)
_NUMERICAL = (ConvergenceFailure, NoContraction, ToleranceNotReached,
              NewtonDivergence, TruncationInsufficient, NotHyperbolic)


# ---------------------------------------------------------------------------
# Manifest schema
# ---------------------------------------------------------------------------

def _int(value):
    # bool is an int subclass, and True is not a count or a frequency
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(value):
    return _int(value) and value >= 1


def _finite(value):
    if not (_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an integer beyond float64's range
        return False


def _square(value, entry):
    """value is a nonempty square list of rows whose entries pass entry."""
    return isinstance(value, list) and len(value) > 0 and all(
        isinstance(row, list) and len(row) == len(value) and
        all(map(entry, row)) for row in value)


# The rule kinds.  A rule takes a key's value and the scenario's resolved
# params, whose keys above it in the table are already checked, and
# returns what is wrong as the words that follow the key in the error
# message, or None.

def _rule(test, problem):
    """The rule of a kind that reads the value alone."""
    return lambda value, p: None if test(value) else problem


def _count(bound=math.inf):
    """An integer >= 1 and at most bound, the library's limit."""
    def rule(value, p):
        if not _positive_int(value):
            return "must be a positive integer"
        return f"must be at most {bound}" if value > bound else None
    return rule


def _int_matrix(dim=None):
    """A square integer matrix, dim x dim when dim is given, with
    determinant 1 or -1: an automorphism of the torus."""
    shape = f"a {dim} x {dim}" if dim else "a square"
    return _rule(lambda v: _square(v, _int) and len(v) == (dim or len(v))
                 and abs(exactalg.det_bareiss(v)) == 1,
                 f"must be {shape} integer matrix with determinant 1 or -1")


_COUNT = _count()
_FINITE = _rule(_finite, "must be a finite real number")
_POSITIVE = _rule(lambda v: _finite(v) and v > 0,
                  "must be a positive real number")
_FLAG = _rule(lambda v: isinstance(v, bool), "must be true or false")
_COUNTS = _rule(lambda v: isinstance(v, list) and all(map(_positive_int, v)),
                "must be a list of positive integers")
_REAL_MATRIX = _rule(lambda v: _square(v, _finite),
                     "must be a square matrix of finite real numbers")


def _choice(**needs):
    """One of the names given, each mapped to the key it needs or None;
    the rule reads only whether that key is set."""
    names = ", ".join(f"'{name}'" for name in needs)

    def rule(value, p):
        if not isinstance(value, str) or value not in needs:
            return f"must be one of {names}"
        if needs[value] is not None and p[needs[value]] is None:
            return f"'{value}' needs the key '{needs[value]}'"
        return None
    return rule


def _cluster_index(value, p):
    """An index into the modulus clusters of the scenario's matrix."""
    if not _int(value) or value < 0:
        return "must be a non-negative integer"
    m = spectral.automorphism(p["matrix"])
    count = len(spectral.spectral_data(m).clusters)
    if value >= count:
        return f"must be below {count}, the matrix's number of clusters"
    return None


def _mode_record_problem(rec, dim, dim_range):
    if not isinstance(rec, dict):
        return "not an object"
    freq, amp = rec.get("freq"), rec.get("amplitude")
    amps = amp if isinstance(amp, list) else [amp]
    if not (isinstance(freq, list) and len(freq) == dim and
            all(map(_int, freq))):
        return f"freq must be a list of {dim} integers"
    if len(amps) > dim_range or not all(map(_finite, amps)):
        return f"amplitude must be a finite number or a list of at most " \
               f"{dim_range} finite numbers"
    if rec.get("kind", "sin") not in ("sin", "cos"):
        return "kind must be 'sin' or 'cos'"
    return None


def _modes(dims):
    """A list of mode records on T^d with values in R^m, (d, m) = dims(p)."""
    def rule(value, p):
        if not isinstance(value, list):
            return "must be a list of mode records"
        for rec in value:
            problem = _mode_record_problem(rec, *dims(p))
            if problem:
                return f"has a bad mode record {rec!r}: {problem}"
        return None
    return rule


def _kam_grid(value, p):
    """kam's grid size: the grid holds the projected modes only when it
    exceeds twice the truncation radius."""
    problem = _COUNT(value, p)
    if problem is None and 2 * p["radius"] >= value:
        return f"({value}) must exceed twice the radius ({p['radius']})"
    return problem


_REQUIRED = object()

# key -> (rule, default) for the rows several scenarios share.  A key whose
# default is _REQUIRED must be given; one whose default is None is unset
# unless given, and the runner passes None on to the library.
_MAP = {"matrix": (_int_matrix(), _REQUIRED),
        "modes": (_modes(lambda p: (len(p["matrix"]),) * 2), []),
        "eps": (_FINITE, None)}
_SOLVE = {"n_grid": (_COUNT, 128), "tol": (_POSITIVE, 1e-10)}
_GENERATOR = {"generator": (_choice(derivative=None,
                                    constant="generator_matrix",
                                    restriction="cluster_index"),
                            "derivative"),
              "generator_matrix": (_REAL_MATRIX, None),
              "cluster_index": (_cluster_index, None)}

# The manifest schema: each scenario's params, every key it reads, in the
# order they are checked.
_PARAMS = {
    "classify": {"matrix": _MAP["matrix"],
                 "definitional_check": (_FLAG, False)},
    "conjugate": {**_MAP, **_SOLVE, "regularity": (_FLAG, False),
                  "samples": (_COUNT, 10000),
                  "cov_n": (_count(maps.MAX_SEARCH_PERIOD), 2)},
    "counterexample": {
        "a": (_int_matrix(2), [[2, 1], [1, 1]]),
        "b": (_int_matrix(2), [[3, 1], [2, 1]]),
        "phi_modes": (_modes(lambda p: (2, 1)),
                      [{"freq": [1, 0], "amplitude": [1.0], "kind": "sin"}]),
        "eps": (_FINITE, 0.01), "k_trunc": (_COUNT, 60),
        "n_points": (_COUNT, 10000), "holder_pairs": (_COUNT, 10000),
        "psi_grid": (_COUNT, 256)},
    "linearized": {**_MAP, "radius": (_COUNT, None),
                   "tol": (_POSITIVE, None)},
    "kam": {**_MAP, "steps": (_COUNT, 2), "radius": (_COUNT, 16),
            "n_grid": (_kam_grid, 128), "tol": (_POSITIVE, None)},
    "lyapunov": {**_MAP, **_GENERATOR,
                 "n": (_count(cocycles.MAX_ITER), 1000),
                 "grid_per_axis": (_COUNT, 6)},
    "cocycle": {**_MAP, **_GENERATOR,
                "periods": (_count(maps.MAX_SEARCH_PERIOD), 2),
                "beta": (_POSITIVE, 1.0)},
    "regularity": {**_MAP, **_SOLVE, "samples": (_COUNT, 2000),
                   "resolutions": (_COUNTS, [64, 128, 256])},
}


def _seed(manifest):
    return manifest.get("seed", 0)


def _params(manifest):
    """The scenario's params: every key of its table, given or default."""
    given = manifest.get("params", {})
    return {key: given.get(key, default)
            for key, (_, default) in _PARAMS[manifest["scenario"]].items()}


def validate_manifest(manifest):
    """Check a manifest against the schema, and return it unchanged.

    Every key of the scenario's table is checked, a default as well as a
    given value, except an unset key whose default is None."""
    if not isinstance(manifest, dict):
        raise SchemaError("a manifest must be an object")
    if "scenario" not in manifest:
        raise SchemaError("manifest: missing required key 'scenario'")
    scenario = manifest["scenario"]
    if not isinstance(scenario, str) or scenario not in _PARAMS:
        raise SchemaError(f"unknown scenario {scenario!r}")
    seed = _seed(manifest)
    if not _int(seed) or seed < 0:
        raise SchemaError("seed must be a non-negative integer")
    given = manifest.get("params", {})
    if not isinstance(given, dict):
        raise SchemaError("params must be an object")
    p = _params(manifest)
    for key, (rule, default) in _PARAMS[scenario].items():
        if key not in given and default is _REQUIRED:
            raise SchemaError(f"{scenario}.params: missing required key "
                              f"'{key}'")
        if key not in given and default is None:
            continue
        problem = rule(p[key], p)
        if problem:
            raise SchemaError(f"{scenario}.params: {key} {problem}")
    return manifest


def manifest_hash(manifest):
    blob = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def trigpoly_from_modes(dim, dim_range, modes):
    """Build a real trig polynomial from manifest mode records.

    A record is {"freq": d integers, "amplitude": a finite number or a
    list of at most dim_range finite numbers, "kind": "sin" (the default)
    or "cos"}; validate_manifest has checked every record.
    """
    out = TrigPoly(dim, dim_range)
    for rec in modes:
        amp = np.atleast_1d(np.asarray(rec["amplitude"], dtype=float))
        amp_vec = np.zeros(dim_range)
        amp_vec[:amp.size] = amp
        mode = TrigPoly.sin_mode if rec.get("kind", "sin") == "sin" else \
            TrigPoly.cos_mode
        out = out + mode(rec["freq"], amp_vec)
    return out


def _round_sig(x):
    if isinstance(x, float):
        if x == 0 or not np.isfinite(x):
            return x
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round_sig(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round_sig(v) for v in x]
    if isinstance(x, (np.floating,)):
        return _round_sig(float(x))
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, np.ndarray):
        return _round_sig(x.tolist())
    return x


def _provenance(manifest):
    import mpmath
    import scipy
    return {
        "package": "toralab",
        "version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "seed": _seed(manifest),
        "manifest_sha256": manifest_hash(manifest),
    }


def _write_result(outdir, name, manifest, results):
    os.makedirs(outdir, exist_ok=True)
    record = {
        "manifest": manifest,
        "provenance": _provenance(manifest),
        "results": _round_sig(results),
    }
    path = os.path.join(outdir, f"{name}_result.json")
    with open(path, "w", newline="\n") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _write_columns(outdir, name, manifest, columns, header):
    """Two-column (or more) plain text plot data with a manifest hash."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# manifest_sha256: {manifest_hash(manifest)}\n")
        fh.write(f"# {header}\n")
        for row in zip(*columns):
            fh.write(" ".join(f"{_round_sig(float(v)):.12g}" for v in row))
            fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------

def _displacement(base, p):
    """The modes as a map T^d -> R^d, scaled by eps when eps is given."""
    disp = trigpoly_from_modes(base.dim, base.dim, p["modes"])
    return disp if p["eps"] is None else float(p["eps"]) * disp


def _build_map(p):
    base = spectral.automorphism(p["matrix"])
    return maps.build(base, _displacement(base, p), warn=False)


def _solve(f, p):
    return conjugacy.solve_conjugacy(f, tol=p["tol"], grid_n=p["n_grid"])


def run_classify(manifest, outdir):
    p = _params(manifest)
    m = spectral.automorphism(p["matrix"])
    report = spectral.classification_report(m)
    if p["definitional_check"]:
        verdict, witness = spectral.weakly_irreducible_definitional(m)
        report["definitional_weakly_irreducible"] = verdict
        report["definitional_witness"] = list(witness) if witness else None
    return {"classification": report}, []


def _conjugacy_record(res, samples, seed, reg):
    """The solve's summary, the residual check at `samples` points drawn
    from `seed`, and the regularity fits reg when given."""
    out = {**res.summary(), **conjugacy.residual_check(res, samples, seed)}
    if reg is not None:
        out["regularity"] = {
            k: (v if not hasattr(v, "exponent") else {
                "exponent": v.exponent, "constant": v.constant,
                "residual": v.residual, "reliable": v.reliable})
            for k, v in reg.items()}
    return out


def run_conjugate(manifest, outdir):
    p = _params(manifest)
    f = _build_map(p)
    # the report reads the map alone and is built before the solve: built
    # after it, the d = 4 op's Newton inverse took 16,000-20,000 more minor
    # page faults, as glibc's heap had not yet grown past the solve's arrays
    smallness = f.smallness.__dict__
    res = _solve(f, p)
    reg = conjugacy.regularity_metrics(res) if p["regularity"] else None
    record = _conjugacy_record(res, p["samples"], _seed(manifest), reg)
    cov = conjugacy.periodic_covariance(res, n_max=p["cov_n"])
    out = {"conjugacy": record, "periodic_covariance": cov,
           "smallness": smallness}
    files = []
    n = res.grid_n
    xs = np.arange(n) / n
    slice_vals = res.h_grid.values[(slice(None),) + (0,) * (f.dim - 1)]
    cols = [xs] + [slice_vals[:, i].real for i in range(f.dim)]
    files.append(("conjugate_h_slice.dat", cols,
                  "x1 then h components along the first axis slice"))
    return out, files


def run_counterexample(manifest, outdir):
    p, seed = _params(manifest), _seed(manifest)
    phi = float(p["eps"]) * trigpoly_from_modes(2, 1, p["phi_modes"])
    ce = conjugacy.build_counterexample(p["a"], p["b"], phi,
                                        k_trunc=p["k_trunc"])
    rng = np.random.default_rng(seed)
    pts2 = rng.random((p["n_points"], 2))
    pts4 = rng.random((p["n_points"], 4))
    est = estimate_holder(lambda x: ce.psi(x)[..., None], dim=2,
                          pairs=p["holder_pairs"], seed=seed)
    scales = [2.0 ** (-j) for j in (4, 8, 12, 16, 20)]
    ratios = finite_difference_ratio(lambda x: ce.psi(x)[..., None], 2,
                                     scales, pairs=4000, seed=seed)
    out = {
        "lambda": ce.lam, "mu": ce.mu,
        "holder_expected": ce.holder_expected,
        "tail_bound": ce.tail_bound,
        "cohomological_residual": ce.cohomological_residual(pts2),
        "conjugacy_residual": ce.conjugacy_residual(pts4),
        "holder_estimate": {"exponent": est.exponent,
                            "constant": est.constant,
                            "residual": est.residual,
                            "reliable": est.reliable},
        "fd_scales": scales, "fd_ratios": ratios,
    }
    n_psi = p["psi_grid"]
    psi_vals = ce.psi(uniform_grid(2, n_psi)).reshape(n_psi, n_psi)
    os.makedirs(outdir, exist_ok=True)
    from .torusfn import save_grid
    save_grid(GridFunction(np.round(psi_vals, 14)[..., None]),
              os.path.join(outdir, "counterexample_psi_grid.txt"),
              extra_header={"manifest_sha256": manifest_hash(manifest)})
    files = [("counterexample_fd_ratios.dat", [scales, ratios],
              "scale  sup-finite-difference-ratio"),
             ("counterexample_psi_slice.dat",
              [np.arange(n_psi) / n_psi, psi_vals[:, 0]],
              "y1  psi(y1, 0)")]
    return out, files


def run_linearized(manifest, outdir):
    p = _params(manifest)
    m = spectral.automorphism(p["matrix"])
    sol = twisted.solve_linearized(m, _displacement(m, p),
                                   radius=p["radius"], tol=p["tol"])
    freqs = sorted(sol.h.coeffs)
    out = {"solution": sol.report(),
           "support_size": len(sol.h.coeffs),
           # + 0.0 turns -0.0 into +0.0: the sign of an exactly zero part
           # follows the order of the solver's arithmetic, not the solution
           "coefficients": [{"freq": list(nn),
                             "re": [float(v) + 0.0 for v in sol.h[nn].real],
                             "im": [float(v) + 0.0 for v in sol.h[nn].imag]}
                            for nn in freqs]}
    return out, []


def run_kam(manifest, outdir):
    p = _params(manifest)
    _, reports = twisted.kam_iterate(_build_map(p), steps=p["steps"],
                                     radius=p["radius"], grid_n=p["n_grid"],
                                     tol=p["tol"])
    dist = [reports[0].input_c0] + [r.output_c0 for r in reports]
    out = {"steps": [r.as_dict() for r in reports],
           "distances_c0": dist,
           "monotone": all(b < a for a, b in zip(dist, dist[1:]))}
    files = [("kam_distances.dat", [list(range(len(dist))), dist],
              "step  C0-distance-to-linear")]
    return out, files


def run_lyapunov(manifest, outdir):
    p = _params(manifest)
    f = _build_map(p)
    spec = _cocycle_spec(f, p)
    ref = f.spec.exponents if spec.kind == "derivative" else None
    rep = cocycles.lyapunov_volume(spec, p["n"],
                                   grid_per_axis=p["grid_per_axis"],
                                   reference=ref, seed=_seed(manifest))
    out = {"exponents": list(rep.exponents),
           "full_average": list(rep.full_average),
           "birkhoff": list(rep.birkhoff),
           "oscillation": rep.oscillation,
           "det_consistency": rep.det_consistency,
           "reference": list(rep.reference) if rep.reference is not None
           else None,
           "max_deviation": rep.max_deviation}
    return out, []


def _cocycle_spec(f, p):
    return cocycles.CocycleSpec(f, p["generator"],
                                matrix=p["generator_matrix"],
                                cluster_index=p["cluster_index"])


def run_cocycle(manifest, outdir):
    p = _params(manifest)
    f = _build_map(p)
    spec = _cocycle_spec(f, p)
    rows = []
    reference = f.spec.exponents
    for n in range(1, p["periods"] + 1):
        search = maps.periodic_points(f, n)
        if search.newton_failures or \
                search.point_count != search.expected_count:
            raise NewtonDivergence(
                f"periodic search at period {n} found "
                f"{search.point_count} of {search.expected_count} points "
                f"({search.newton_failures} Newton failures)")
        orbits = [o for o in search.orbits if o.period == n]
        diagnostics = cocycles.periodic_diagnostics(
            spec, orbits, reference if spec.kind == "derivative" else None)
        for orbit, (exp_rep, conf) in zip(orbits, diagnostics):
            rows.append({
                "period": orbit.period,
                "point": [float(v) for v in orbit.representative],
                "residual": orbit.residual,
                "exponents": list(exp_rep.exponents),
                "exponent_deviation": exp_rep.max_deviation,
                "conformality": conf.verdict,
                "conjugator_cond": conf.conjugator_cond,
            })
    try:
        verify_report = maps.verify_anosov(f)
        fb = cocycles.fiber_bunching_check(spec, beta=p["beta"],
                                           anosov_report=verify_report)
        rep = fb.__dict__
    except VerificationInconclusive as exc:
        rep = {"error": str(exc)}
    out = {"orbits": rows, "fiber_bunching": rep,
           "invertibility_min_det": spec.invertibility_report()}
    return out, []


def run_regularity(manifest, outdir):
    p = _params(manifest)
    f = _build_map(p)
    res = _solve(f, p)
    reg = conjugacy.regularity_metrics(res)
    record = _conjugacy_record(res, p["samples"], _seed(manifest), reg)
    scan = []
    for n in p["resolutions"]:
        r = res if n == res.grid_n else _solve(f, {**p, "n_grid": n})
        rep = conjugacy.jacobian_dh(r)
        scan.append({"n": n, "jacobian_residual": rep.residual_eq,
                     "min_det": rep.min_det})
    out = {
        "conjugacy": record,
        **{k: {"exponent": reg[k].exponent, "reliable": reg[k].reliable}
           for k in ("holder_h", "holder_dh")},
        "sobolev": {"q": reg["sobolev_q"], "value": reg["sobolev_h"],
                    "note": "diagnostic only; a grid cannot certify "
                            "weak differentiability"},
        "jacobian_scan": scan,
        "dh_cocycle": cocycles.dh_as_cocycle_conjugacy(res).as_dict(),
    }
    files = [("regularity_jacobian_scan.dat",
              [[s["n"] for s in scan],
               [s["jacobian_residual"] for s in scan]],
              "grid_n  jacobian_equation_residual")]
    return out, files


_RUNNERS = {
    "classify": run_classify,
    "conjugate": run_conjugate,
    "counterexample": run_counterexample,
    "linearized": run_linearized,
    "kam": run_kam,
    "lyapunov": run_lyapunov,
    "cocycle": run_cocycle,
    "regularity": run_regularity,
}


def run_manifest(manifest, outdir):
    """Execute a validated manifest; returns the result record path."""
    validate_manifest(manifest)
    scenario = manifest["scenario"]
    t0 = time.time()
    results, files = _RUNNERS[scenario](manifest, outdir)
    path = _write_result(outdir, scenario, manifest, results)
    for name, columns, header in files:
        _write_columns(outdir, name, manifest, columns, header)
    elapsed = time.time() - t0
    with open(os.path.join(outdir, "run.log"), "a") as fh:
        fh.write(f"{scenario} seed={_seed(manifest)} "
                 f"elapsed={elapsed:.3f}s\n")
    return path


def run_compare(manifest_paths, outdir):
    """Scaling table across manifests that differ only in eps."""
    if len(manifest_paths) < 2:
        raise IncomparableManifests("compare needs at least two manifests")
    manifests = []
    for p in manifest_paths:
        with open(p) as fh:
            manifests.append(validate_manifest(json.load(fh)))
    def stripped(m):
        mm = json.loads(json.dumps(m))
        mm.get("params", {}).pop("eps", None)
        return json.dumps(mm, sort_keys=True)
    base = stripped(manifests[0])
    if any(stripped(m) != base for m in manifests[1:]):
        raise IncomparableManifests("manifests differ in more than eps")
    if manifests[0]["scenario"] == "kam":
        rows = []
        for m in manifests:
            res, _ = run_kam(m, outdir)
            rows.append({"eps": _params(m)["eps"],
                         "distances": res["distances_c0"],
                         "monotone": res["monotone"]})
        record = {"kind": "kam_family", "rows": rows}
        path = _write_result(outdir, "compare", {"scenario": "compare",
                                                 "members": manifests},
                             record)
        return path
    eps_list, norms = [], []
    for m in manifests:
        if m["scenario"] != "conjugate":
            raise IncomparableManifests(
                "compare supports conjugate or kam manifests")
        p = _params(m)
        if p["eps"] is None or p["eps"] <= 0:
            raise IncomparableManifests(
                "compare needs eps > 0 in every conjugate manifest")
        res = _solve(_build_map(p), p)
        eps_list.append(float(p["eps"]))
        norms.append(res.h_c0)
    ratios = [h / e for h, e in zip(norms, eps_list)]
    slope = float(np.polyfit(np.log(eps_list), np.log(norms), 1)[0])
    record = {"kind": "eps_family", "eps": eps_list, "h_c0": norms,
              "ratios": ratios, "loglog_slope": slope,
              "ratio_spread": max(ratios) / min(ratios) - 1.0}
    members = {"scenario": "compare", "members": manifests}
    path = _write_result(outdir, "compare", members, record)
    _write_columns(outdir, "compare_scaling.dat", members,
                   [eps_list, norms], "eps  h_c0")
    return path


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--manifest", help="manifest JSON path")
    sub.add_argument("--out", default=None, help="output directory "
                     "(default $TORALAB_OUT or ./toralab_out)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--matrix", help="matrix as JSON, e.g. '[[2,1],[1,1]]'")
    sub.add_argument("--eps", type=float)
    sub.add_argument("--n-grid", type=int, dest="n_grid")
    sub.add_argument("--radius", type=int, help="Fourier truncation radius F")
    sub.add_argument("--tol", type=float)
    sub.add_argument("--n", type=int, help="iteration count (lyapunov)")
    sub.add_argument("--steps", type=int)


# each flag's params key; a scenario takes the flags of the keys it reads
_FLAGS = {"matrix": "--matrix", "eps": "--eps", "n_grid": "--n-grid",
          "radius": "--radius", "tol": "--tol", "n": "--n",
          "steps": "--steps"}


def _manifest_from_args(args, scenario):
    if args.manifest:
        with open(args.manifest) as fh:
            return json.load(fh)
    table, params = _PARAMS[scenario], {}
    for key, flag in _FLAGS.items():
        value = getattr(args, key)
        # an absent flag; a zero or empty one, but for --eps, is ignored
        if value is None or (key != "eps" and not value):
            continue
        if key not in table:
            raise SchemaError(f"{scenario} reads no {flag}")
        params[key] = json.loads(value) if key == "matrix" else value
    if "matrix" in table:
        params.setdefault("matrix", [[2, 1], [1, 1]])
    if "eps" in params and "modes" in table and \
            isinstance(params["matrix"], list):
        d = len(params["matrix"])
        params["modes"] = [{"freq": [0] * (d - 1) + [1],
                            "amplitude": [1.0], "kind": "sin"}]
    return {"scenario": scenario, "seed": args.seed, "params": params}


@functools.cache
def _parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="toralab",
        description="numerical laboratory for hyperbolic toral "
                    "automorphisms and their perturbations")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _PARAMS:
        sub = subs.add_parser(name)
        _add_common(sub)
    comp = subs.add_parser("compare")
    comp.add_argument("manifests", nargs="+")
    comp.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    outdir = args.out or os.environ.get("TORALAB_OUT", "toralab_out")
    try:
        if args.command == "compare":
            path = run_compare(args.manifests, outdir)
        else:
            manifest = _manifest_from_args(args, args.command)
            path = run_manifest(manifest, outdir)
        print(path)
        return 0
    except (SchemaError, IncomparableManifests, json.JSONDecodeError,
            FileNotFoundError) as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    except _INCONCLUSIVE as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 4
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ToralabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
