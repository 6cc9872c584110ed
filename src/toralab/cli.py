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

from . import __version__, cocycles, conjugacy, maps, spectral, twisted
from .errors import (ConvergenceFailure, GapTooSmall, IncomparableManifests,
                     Indeterminate, NewtonDivergence, NoContraction,
                     NotHyperbolic, SchemaError, ToleranceNotReached,
                     ToralabError, TruncationInsufficient,
                     VerificationInconclusive)
from .torusfn import GridFunction, TrigPoly, estimate_holder, \
    finite_difference_ratio, uniform_grid

SCENARIOS = ("classify", "conjugate", "counterexample", "linearized", "kam",
             "lyapunov", "cocycle", "regularity")

_INCONCLUSIVE = (Indeterminate, VerificationInconclusive, GapTooSmall)
_NUMERICAL = (ConvergenceFailure, NoContraction, ToleranceNotReached,
              NewtonDivergence, TruncationInsufficient, NotHyperbolic)


# ---------------------------------------------------------------------------
# Manifest handling
# ---------------------------------------------------------------------------

def _require(manifest, key, types, where):
    if key not in manifest:
        raise SchemaError(f"{where}: missing required key '{key}'")
    if not isinstance(manifest[key], types):
        raise SchemaError(f"{where}: key '{key}' has wrong type")
    return manifest[key]


# Each scenario's checked keys.  A count is an integer >= 1 and at most its
# bound, the library's; "finite" is a finite real number and "positive" a
# finite one > 0.  Neither is a bool.
_PARAMS = {
    "conjugate": {"samples": math.inf, "n_grid": math.inf,
                  "cov_n": maps.MAX_SEARCH_PERIOD, "eps": "finite",
                  "tol": "positive"},
    "regularity": {"samples": math.inf, "n_grid": math.inf,
                   "eps": "finite", "tol": "positive"},
    "linearized": {"radius": math.inf, "eps": "finite", "tol": "positive"},
    "kam": {"n_grid": math.inf, "steps": math.inf, "radius": math.inf,
            "eps": "finite", "tol": "positive"},
    "counterexample": {"holder_pairs": math.inf, "n_points": math.inf,
                       "psi_grid": math.inf, "k_trunc": math.inf,
                       "eps": "finite"},
    "lyapunov": {"n": cocycles.MAX_ITER, "grid_per_axis": math.inf,
                 "eps": "finite"},
    "cocycle": {"periods": maps.MAX_SEARCH_PERIOD, "eps": "finite",
                "beta": "positive"},
}


def validate_manifest(manifest):
    scenario = _require(manifest, "scenario", str, "manifest")
    if scenario not in SCENARIOS + ("compare",):
        raise SchemaError(f"unknown scenario '{scenario}'")
    seed = manifest.get("seed", 0)
    if not isinstance(seed, int):
        raise SchemaError("seed must be an integer")
    params = manifest.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("params must be an object")
    if scenario in ("classify", "conjugate", "linearized", "kam", "lyapunov",
                    "cocycle", "regularity"):
        _require(params, "matrix", list, f"{scenario}.params")
    for key, rule in _PARAMS.get(scenario, {}).items():
        if key not in params:
            continue
        value, where = params[key], f"{scenario}.params: {key} must be"
        if isinstance(rule, str):
            if not _finite(value) or (rule == "positive" and value <= 0):
                raise SchemaError(f"{where} a {rule} real number")
        elif not _positive_int(value):
            raise SchemaError(f"{where} a positive integer")
        elif value > rule:
            raise SchemaError(f"{where} at most {rule}")
    if scenario == "kam":
        radius, grid_n = _kam_truncation(params)
        if 2 * radius >= grid_n:
            raise SchemaError(f"kam.params: n_grid ({grid_n}) must exceed "
                              f"twice the radius ({radius})")
    if scenario == "regularity" and "resolutions" in params:
        res = params["resolutions"]
        if not isinstance(res, list) or not all(map(_positive_int, res)):
            raise SchemaError("regularity.params: resolutions must be a "
                              "list of positive integers")
    return manifest


def _int(value):
    # bool is an int subclass, and True is not a count or a frequency
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(value):
    return _int(value) and value >= 1


def manifest_hash(manifest):
    blob = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _matrix(params):
    try:
        return spectral.automorphism(params["matrix"])
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad matrix: {exc}") from exc


def _finite(value):
    if not (_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an integer beyond float64's range
        return False


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


def trigpoly_from_modes(dim, dim_range, modes):
    """Build a real trig polynomial from manifest mode records.

    A record is {"freq": d integers, "amplitude": a finite number or a
    list of at most dim_range finite numbers, "kind": "sin" (the default)
    or "cos"}; anything else raises SchemaError.
    """
    if not isinstance(modes, list):
        raise SchemaError(f"modes must be a list of mode records, got "
                          f"{modes!r}")
    out = TrigPoly(dim, dim_range)
    for rec in modes:
        problem = _mode_record_problem(rec, dim, dim_range)
        if problem:
            raise SchemaError(f"bad mode record {rec!r}: {problem}")
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
        "seed": manifest.get("seed", 0),
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

def _build_map(params):
    base = _matrix(params)
    modes = params.get("modes", [])
    eps = params.get("eps")
    disp = trigpoly_from_modes(base.dim, base.dim, modes)
    if eps is not None:
        disp = float(eps) * disp
    return maps.build(base, disp, warn=False)


def _solve(f, params):
    return conjugacy.solve_conjugacy(f, tol=params.get("tol", 1e-10),
                                     grid_n=params.get("n_grid", 128))


def run_classify(manifest, outdir):
    params = manifest["params"]
    m = _matrix(params)
    report = spectral.classification_report(m)
    if params.get("definitional_check", False):
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
    params = manifest["params"]
    f = _build_map(params)
    # the report reads the map alone and is built before the solve: built
    # after it, the d = 4 op's Newton inverse took 16,000-20,000 more minor
    # page faults, as glibc's heap had not yet grown past the solve's arrays
    smallness = f.smallness.__dict__
    res = _solve(f, params)
    reg = conjugacy.regularity_metrics(res) \
        if params.get("regularity", False) else None
    record = _conjugacy_record(res, params.get("samples", 10000),
                               manifest.get("seed", 0), reg)
    cov = conjugacy.periodic_covariance(res, n_max=params.get("cov_n", 2))
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
    params = manifest.get("params", {})
    a = params.get("a", [[2, 1], [1, 1]])
    b = params.get("b", [[3, 1], [2, 1]])
    eps = params.get("eps", 0.01)
    k_trunc = params.get("k_trunc", 60)
    n_points = params.get("n_points", 10000)
    phi = trigpoly_from_modes(2, 1, params.get(
        "phi_modes", [{"freq": [1, 0], "amplitude": [1.0], "kind": "sin"}]))
    phi = float(eps) * phi
    ce = conjugacy.build_counterexample(a, b, phi, k_trunc=k_trunc)
    rng = np.random.default_rng(manifest.get("seed", 0))
    pts2 = rng.random((n_points, 2))
    pts4 = rng.random((n_points, 4))
    est = estimate_holder(lambda p: ce.psi(p)[..., None], dim=2,
                          pairs=params.get("holder_pairs", 10000),
                          seed=manifest.get("seed", 0))
    scales = [2.0 ** (-j) for j in (4, 8, 12, 16, 20)]
    ratios = finite_difference_ratio(lambda p: ce.psi(p)[..., None], 2,
                                     scales, pairs=4000,
                                     seed=manifest.get("seed", 0))
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
    n_psi = params.get("psi_grid", 256)
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
    params = manifest["params"]
    m = _matrix(params)
    q = trigpoly_from_modes(m.dim, m.dim, params.get("modes", []))
    if params.get("eps") is not None:
        q = float(params["eps"]) * q
    sol = twisted.solve_linearized(m, q, radius=params.get("radius"),
                                   tol=params.get("tol"))
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
    params = manifest["params"]
    f = _build_map(params)
    radius, grid_n = _kam_truncation(params)
    _, reports = twisted.kam_iterate(f, steps=params.get("steps", 2),
                                     radius=radius, grid_n=grid_n,
                                     tol=params.get("tol"))
    dist = [reports[0].input_c0] + [r.output_c0 for r in reports]
    out = {"steps": [r.as_dict() for r in reports],
           "distances_c0": dist,
           "monotone": all(b < a for a, b in zip(dist, dist[1:]))}
    files = [("kam_distances.dat", [list(range(len(dist))), dist],
              "step  C0-distance-to-linear")]
    return out, files


def _kam_truncation(params):
    """kam's truncation radius F and grid size N, with their defaults: the
    grid holds the projected modes only when N > 2F."""
    return params.get("radius", 16), params.get("n_grid", 128)


def run_lyapunov(manifest, outdir):
    params = manifest["params"]
    f = _build_map(params)
    spec = _cocycle_spec(f, params)
    n = params.get("n", 1000)
    ref = f.spec.exponents if spec.kind == "derivative" else None
    rep = cocycles.lyapunov_volume(spec, n,
                                   grid_per_axis=params.get("grid_per_axis", 6),
                                   reference=ref,
                                   seed=manifest.get("seed", 0))
    out = {"exponents": list(rep.exponents),
           "full_average": list(rep.full_average),
           "birkhoff": list(rep.birkhoff),
           "oscillation": rep.oscillation,
           "det_consistency": rep.det_consistency,
           "reference": list(rep.reference) if rep.reference is not None
           else None,
           "max_deviation": rep.max_deviation}
    return out, []


def _cocycle_spec(f, params):
    kind = params.get("generator", "derivative")
    if kind == "derivative":
        return cocycles.CocycleSpec(f, "derivative")
    if kind == "constant":
        return cocycles.CocycleSpec(f, "constant",
                                    matrix=params["generator_matrix"])
    if kind == "restriction":
        return cocycles.CocycleSpec(f, "restriction",
                                    cluster_index=params["cluster_index"])
    raise SchemaError(f"unknown generator kind '{kind}'")


def run_cocycle(manifest, outdir):
    params = manifest["params"]
    f = _build_map(params)
    spec = _cocycle_spec(f, params)
    n_max = params.get("periods", 2)
    rows = []
    reference = f.spec.exponents
    for n in range(1, n_max + 1):
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
        fb = cocycles.fiber_bunching_check(spec, beta=params.get("beta", 1.0),
                                           anosov_report=verify_report)
        rep = fb.__dict__
    except VerificationInconclusive as exc:
        rep = {"error": str(exc)}
    out = {"orbits": rows, "fiber_bunching": rep,
           "invertibility_min_det": spec.invertibility_report()}
    return out, []


def run_regularity(manifest, outdir):
    params = manifest["params"]
    f = _build_map(params)
    res = _solve(f, params)
    reg = conjugacy.regularity_metrics(res)
    record = _conjugacy_record(res, params.get("samples", 2000),
                               manifest.get("seed", 0), reg)
    scan = []
    for n in params.get("resolutions", [64, 128, 256]):
        r = res if n == res.grid_n else _solve(f, {**params, "n_grid": n})
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
        fh.write(f"{scenario} seed={manifest.get('seed', 0)} "
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
            rows.append({"eps": m["params"].get("eps"),
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
        f = _build_map(m["params"])
        res = _solve(f, m["params"])
        eps_list.append(float(m["params"]["eps"]))
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
    sub.add_argument("--n", type=int, help="iteration count / period bound")
    sub.add_argument("--steps", type=int)


def _manifest_from_args(args, scenario):
    if args.manifest:
        with open(args.manifest) as fh:
            return json.load(fh)
    params = {}
    if args.matrix:
        params["matrix"] = json.loads(args.matrix)
    elif scenario not in ("counterexample",):
        params["matrix"] = [[2, 1], [1, 1]]
    if args.eps is not None:
        params["eps"] = args.eps
        if scenario != "counterexample" and "matrix" in params:
            d = len(params["matrix"])
            params.setdefault("modes", [{"freq": [0] * (d - 1) + [1],
                                         "amplitude": [1.0], "kind": "sin"}])
    if args.n_grid:
        params["n_grid"] = args.n_grid
    if args.radius:
        params["radius"] = args.radius
    if args.tol:
        params["tol"] = args.tol
    if args.n:
        params["n"] = args.n
    if args.steps:
        params["steps"] = args.steps
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
    for name in SCENARIOS:
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
