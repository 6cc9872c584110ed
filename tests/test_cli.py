import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toralab import cli, conjugacy, maps
from toralab.errors import IncomparableManifests
from toralab.torusfn import TrigPoly


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_classify_subcommand(tmp_path):
    # the second matrix's smallest unstable modulus is 1.0051, and
    # classify reads no adapted norm
    for matrix in ("[[2,1],[1,1]]", "[[0,0,0,-1,0],[-1,-4,0,4,-2],"
                   "[4,2,2,-2,1],[0,-1,0,1,0],[-2,0,-1,0,0]]"):
        rc = cli.main(["classify", "--matrix", matrix,
                       "--out", str(tmp_path)])
        assert rc == 0
        rec = _read(tmp_path / "classify_result.json")
        flags = rec["results"]["classification"]["flags"]
        assert flags["hyperbolic"] and flags["irreducible"]
        assert rec["provenance"]["manifest_sha256"]


def test_main_alternates_subcommands_on_one_parser(tmp_path):
    # the parser is built once per process and keeps no state between
    # calls: each call's options, defaults and exit code are its own
    ly = tmp_path / "ly.json"
    ly.write_text(json.dumps({"scenario": "lyapunov", "seed": 0, "params": {
        "matrix": [[2, 1], [1, 1]], "modes": [], "n": 50,
        "grid_per_axis": 2}}))
    runs = [
        (["classify", "--matrix", "[[2,1],[1,1]]"], 0, "classify"),
        (["conjugate", "--eps", "1e-3", "--n-grid", "16"], 0, "conjugate"),
        (["classify", "--matrix", "[[2,1],[1,2]]"], 2, None),
        (["lyapunov", "--manifest", str(ly)], 0, "lyapunov"),
        (["classify", "--matrix", "[[3,1],[2,1]]"], 0, "classify"),
    ]
    for i, (argv, code, scenario) in enumerate(runs):
        out = tmp_path / str(i)
        assert cli.main(argv + ["--out", str(out)]) == code, argv
        files = sorted(p.name for p in out.glob("*_result.json"))
        if scenario is None:
            assert files == []
            continue
        assert files == [f"{scenario}_result.json"]
        rec = _read(out / files[0])
        assert rec["manifest"]["scenario"] == scenario
        if scenario == "classify":
            assert rec["manifest"]["params"]["matrix"] == \
                json.loads(argv[2])
    assert cli._parser() is cli._parser()


def _run_python(code, *args):
    """stdout of `python -c code args` with this checkout's toralab."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    code = ("import sys, toralab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    assert _run_python(code) == "[]"


def test_conjugate_and_lyapunov_runs_load_no_numpy_ma(tmp_path):
    # np.unique's first call in a process imports numpy.ma (11-18 ms on a
    # 2-core Xeon); periodic_points (conjugate) and the chunked products
    # (lyapunov) iterate over sorted sets instead
    mode = [{"freq": [0, 1], "amplitude": [1.0], "kind": "sin"}]
    manifests = {
        "conjugate": {"matrix": [[2, 1], [1, 1]], "eps": 1e-3,
                      "modes": mode, "n_grid": 16},
        "lyapunov": {"matrix": [[2, 1], [1, 1]], "eps": 1e-3,
                     "modes": mode, "n": 300, "grid_per_axis": 3}}
    for scenario, params in manifests.items():
        (tmp_path / f"{scenario}.json").write_text(json.dumps(
            {"scenario": scenario, "seed": 0, "params": params}))
    code = ("import sys; from toralab import cli\n"
            "for s in ('conjugate', 'lyapunov'):\n"
            "    assert cli.main([s, '--manifest', f'{sys.argv[1]}/{s}.json',"
            " '--out', f'{sys.argv[1]}/{s}']) == 0\n"
            "print('numpy.ma' in sys.modules)")
    assert _run_python(code, str(tmp_path)).splitlines()[-1] == "False"


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "mystery"}))
    rc = cli.main(["classify", "--manifest", str(bad),
                   "--out", str(tmp_path)])
    assert rc == 2


def test_non_unimodular_matrix_is_schema_error(tmp_path):
    rc = cli.main(["classify", "--matrix", "[[2,0],[0,2]]",
                   "--out", str(tmp_path)])
    assert rc == 2


def test_conjugate_subcommand(tmp_path):
    rc = cli.main(["conjugate", "--matrix", "[[2,1],[1,1]]", "--eps", "0.001",
                   "--n-grid", "32", "--out", str(tmp_path)])
    assert rc == 0
    rec = _read(tmp_path / "conjugate_result.json")
    assert rec["results"]["conjugacy"]["residual_max"] < 1e-8
    assert rec["results"]["periodic_covariance"] < 1e-8
    slice_file = tmp_path / "conjugate_h_slice.dat"
    assert slice_file.exists()
    assert slice_file.read_text().startswith("# manifest_sha256:")


def test_counterexample_subcommand(tmp_path):
    manifest = {"scenario": "counterexample", "seed": 1,
                "params": {"eps": 0.01, "k_trunc": 40, "n_points": 500,
                           "holder_pairs": 1000, "psi_grid": 32}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    rc = cli.main(["counterexample", "--manifest", str(path),
                   "--out", str(tmp_path)])
    assert rc == 0
    rec = _read(tmp_path / "counterexample_result.json")
    assert rec["results"]["cohomological_residual"] < 1e-12
    assert (tmp_path / "counterexample_psi_grid.txt").exists()


def test_counterexample_evaluates_psi_at_the_fd_base_points_once(
        tmp_path, monkeypatch):
    # the five finite-difference scales share one draw of base points and
    # one evaluation of psi there: 25 psi calls in all (13 scales and the
    # base of the Holder fit, the fd base and its 5 shifts, 2 in each
    # residual, and the grid), where one fd call per scale makes 29
    calls = []
    psi_call = conjugacy.SkewSeries.__call__

    def counted(self, points):
        calls.append(np.array(points, dtype=float))
        return psi_call(self, points)

    monkeypatch.setattr(conjugacy.SkewSeries, "__call__", counted)
    manifest = {"scenario": "counterexample", "seed": 1,
                "params": {"eps": 0.01, "k_trunc": 40, "n_points": 500,
                           "holder_pairs": 1000, "psi_grid": 32}}
    out, _ = cli.run_counterexample(manifest, str(tmp_path))
    assert len(calls) == 25
    fd_base = np.random.default_rng(1).random((4000, 2))
    assert sum(np.array_equal(c, fd_base) for c in calls) == 1
    assert len(out["fd_ratios"]) == len(out["fd_scales"]) == 5


def test_kam_subcommand(tmp_path):
    manifest = {"scenario": "kam", "seed": 0,
                "params": {"matrix": [[2, 1], [1, 1]],
                           "modes": [{"freq": [0, 1], "amplitude": [1.0],
                                      "kind": "sin"}],
                           "eps": 1e-3, "steps": 1, "radius": 8,
                           "n_grid": 64}}
    path = tmp_path / "kam.json"
    path.write_text(json.dumps(manifest))
    rc = cli.main(["kam", "--manifest", str(path), "--out", str(tmp_path)])
    assert rc == 0
    rec = _read(tmp_path / "kam_result.json")
    dist = rec["results"]["distances_c0"]
    assert dist[1] <= 0.5 * dist[0]
    assert (tmp_path / "kam_distances.dat").exists()


def test_lyapunov_subcommand(tmp_path):
    manifest = {"scenario": "lyapunov", "seed": 0,
                "params": {"matrix": [[2, 1], [1, 1]],
                           "modes": [], "n": 300, "grid_per_axis": 3}}
    path = tmp_path / "ly.json"
    path.write_text(json.dumps(manifest))
    rc = cli.main(["lyapunov", "--manifest", str(path),
                   "--out", str(tmp_path)])
    assert rc == 0
    rec = _read(tmp_path / "lyapunov_result.json")
    golden = (3 + np.sqrt(5)) / 2
    assert abs(rec["results"]["exponents"][1] - np.log(golden)) < 1e-8


def test_cocycle_subcommand(tmp_path):
    manifest = {"scenario": "cocycle", "seed": 0,
                "params": {"matrix": [[2, 1], [1, 1]], "modes": [],
                           "periods": 1}}
    path = tmp_path / "co.json"
    path.write_text(json.dumps(manifest))
    rc = cli.main(["cocycle", "--manifest", str(path), "--out",
                   str(tmp_path)])
    assert rc == 0
    rec = _read(tmp_path / "cocycle_result.json")
    assert rec["results"]["fiber_bunching"]["bunched"] is False


def _cocycle_manifest(tmp_path, eps, periods):
    manifest = {"scenario": "cocycle", "seed": 0,
                "params": {"matrix": [[2, 1], [1, 1]], "eps": eps,
                           "modes": [{"freq": [0, 1], "amplitude": [1.0, 0.0],
                                      "kind": "sin"}],
                           "periods": periods}}
    path = tmp_path / "co.json"
    path.write_text(json.dumps(manifest))
    return str(path)


def test_cocycle_exits_3_when_newton_fails(tmp_path, capsys):
    # at eps = 0.3 one of the 16 period-3 seeds does not converge.  The
    # count moved from 2 to 1 with the tan-based trig kernel: from the
    # mirror-image seeds (1/4, 1/4) and (3/4, 3/4) Newton wanders for all
    # 60 steps, and a last-bit change in R lets one of them land
    rc = cli.main(["cocycle", "--manifest",
                   _cocycle_manifest(tmp_path, 0.3, 3),
                   "--out", str(tmp_path)])
    assert rc == 3
    assert "period 3 found 16 of 16 points (1 Newton failures)" in \
        capsys.readouterr().err
    assert not (tmp_path / "cocycle_result.json").exists()


def test_cocycle_exits_3_on_a_short_search(tmp_path, capsys, monkeypatch):
    search = maps.periodic_points

    def short(f, n, **kw):
        res = search(f, n, **kw)
        if n == 2:
            res.point_count -= res.orbits.pop().period
        return res

    monkeypatch.setattr(maps, "periodic_points", short)
    rc = cli.main(["cocycle", "--manifest",
                   _cocycle_manifest(tmp_path, 1e-3, 2),
                   "--out", str(tmp_path)])
    assert rc == 3
    assert "period 2 found 3 of 5 points (0 Newton failures)" in \
        capsys.readouterr().err
    assert not (tmp_path / "cocycle_result.json").exists()


def test_regularity_subcommand(tmp_path):
    manifest = {"scenario": "regularity", "seed": 0,
                "params": {"matrix": [[2, 1], [1, 1]],
                           "modes": [{"freq": [0, 1], "amplitude": [1.0],
                                      "kind": "sin"}],
                           "eps": 1e-3, "n_grid": 32, "samples": 300,
                           "resolutions": [32, 64]}}
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(manifest))
    rc = cli.main(["regularity", "--manifest", str(path),
                   "--out", str(tmp_path)])
    assert rc == 0
    rec = _read(tmp_path / "regularity_result.json")
    assert rec["results"]["sobolev"]["note"].startswith("diagnostic")
    assert len(rec["results"]["jacobian_scan"]) == 2
    assert (tmp_path / "regularity_jacobian_scan.dat").exists()


_CONJUGACY_KEYS = {"grid_n", "tol", "n_terms", "tail_bound", "contraction",
                   "residual_max", "residual_mean", "anchor_point",
                   "anchor_residual", "h_c0", "dh_c0", "mode"}


@pytest.mark.parametrize("scenario, regularity", [
    ("conjugate", False), ("conjugate", True), ("regularity", None)])
def test_conjugacy_record_keys(tmp_path, scenario, regularity):
    params = {"matrix": [[2, 1], [1, 1]], "eps": 1e-3, "n_grid": 16,
              "samples": 50, "cov_n": 1, "resolutions": [16],
              "modes": [{"freq": [0, 1], "amplitude": [1.0]}]}
    if regularity is not None:
        params["regularity"] = regularity
    path = cli.run_manifest({"scenario": scenario, "seed": 0,
                             "params": params}, str(tmp_path))
    record = _read(path)["results"]["conjugacy"]
    want = _CONJUGACY_KEYS | ({"regularity"} if regularity is not False
                              else set())
    assert set(record) == want
    if regularity is not False:
        assert set(record["regularity"]) == {
            "holder_h", "holder_dh", "sobolev_q", "sobolev_h", "h_c0",
            "dh_c0"}


def test_regularity_takes_one_residual_walk(tmp_path, monkeypatch):
    # the residual check runs for the record's solve only, not for the
    # solves of the resolution scan
    calls = []
    with_image = conjugacy._OrbitSeries.with_image

    def counted(self, points):
        calls.append(len(points))
        return with_image(self, points)

    monkeypatch.setattr(conjugacy._OrbitSeries, "with_image", counted)
    manifest = {"scenario": "regularity", "seed": 0,
                "params": {"matrix": [[2, 1], [1, 1]], "eps": 1e-3,
                           "modes": [{"freq": [0, 1], "amplitude": [1.0]}],
                           "n_grid": 16, "samples": 40,
                           "resolutions": [16, 32]}}
    cli.run_manifest(manifest, str(tmp_path))
    assert calls == [40]


def test_linearized_zero_frequency_cos_mode(tmp_path):
    # a cos mode at n = 0 is the constant (1, 0), and the zero mode of h
    # solves (L - I) h_0 = (1, 0)
    manifest = {"scenario": "linearized", "seed": 0,
                "params": {"matrix": [[2, 1], [1, 1]], "radius": 2,
                           "modes": [{"freq": [0, 0], "amplitude": [1.0, 0.0],
                                      "kind": "cos"}]}}
    rec = _read(cli.run_manifest(manifest, str(tmp_path)))["results"]
    want = np.linalg.solve(np.array([[1.0, 1.0], [1.0, 0.0]]), [1.0, 0.0])
    zero = [c for c in rec["coefficients"] if c["freq"] == [0, 0]]
    assert len(zero) == 1
    assert np.allclose(zero[0]["re"], want, rtol=0, atol=1e-12)
    assert zero[0]["im"] == [0.0, 0.0]


@pytest.mark.parametrize("scenario", ["conjugate", "regularity"])
@pytest.mark.parametrize("samples", [0, -3, 2.5, True, "500"])
def test_bad_residual_sample_count_is_schema_error(tmp_path, capsys,
                                                   monkeypatch, scenario,
                                                   samples):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the manifest was checked")

    monkeypatch.setattr(cli.conjugacy, "solve_conjugacy", no_solve)
    manifest = {"scenario": scenario, "seed": 0,
                "params": {"matrix": [[2, 1], [1, 1]], "eps": 1e-3,
                           "n_grid": 16, "samples": samples}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    rc = cli.main([scenario, "--manifest", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "samples must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / f"{scenario}_result.json").exists()


_BAD_N_GRID = [0, -4, "x", 2.5, True]


@pytest.mark.parametrize(
    "scenario,key,value",
    [(scenario, "n_grid", bad) for scenario in ("conjugate", "regularity",
                                                "kam")
     for bad in _BAD_N_GRID] +
    [("regularity", "resolutions", bad)
     for bad in [64] + [[64, entry] for entry in _BAD_N_GRID]])
def test_bad_grid_size_is_schema_error(tmp_path, capsys, monkeypatch,
                                      scenario, key, value):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the manifest was checked")

    monkeypatch.setattr(cli.conjugacy, "solve_conjugacy", no_solve)
    monkeypatch.setattr(cli.twisted, "kam_iterate", no_solve)
    manifest = {"scenario": scenario, "seed": 0,
                "params": {"matrix": [[2, 1], [1, 1]], "eps": 1e-3,
                           "n_grid": 16, key: value}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    rc = cli.main([scenario, "--manifest", str(path), "--out", str(tmp_path)])
    assert rc == 2
    want = "resolutions must be a list of positive integers" \
        if key == "resolutions" else "n_grid must be a positive integer"
    assert want in capsys.readouterr().err
    assert not (tmp_path / f"{scenario}_result.json").exists()


def _main_on(tmp_path, monkeypatch, scenario, params, command=None):
    """cli.main's exit code on a manifest with params, run by the
    subcommand command (default: scenario), with every runner replaced by
    one that fails the test if it is reached."""
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the manifest was checked")

    monkeypatch.setattr(cli, "_RUNNERS", dict.fromkeys(cli._RUNNERS, no_run))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"scenario": scenario, "seed": 0,
                                "params": params}))
    return cli.main([command or scenario, "--manifest", str(path),
                     "--out", str(tmp_path)])


_BAD_COUNTS = [("counterexample", key, bad)
               for key in ("holder_pairs", "n_points", "psi_grid", "k_trunc")
               for bad in (0, "x")] + \
    [("lyapunov", key, bad) for key in ("n", "grid_per_axis")
     for bad in (0, -1, 2.5)] + \
    [("cocycle", "periods", bad) for bad in (0, "x", True)] + \
    [("kam", key, 0) for key in ("steps", "radius")] + \
    [("conjugate", "cov_n", bad) for bad in (0, "x")]
# the library's own limits: lyapunov_volume's n and periodic_points' period
_TOO_LARGE = [("lyapunov", "n", cli.cocycles.MAX_ITER + 1),
              ("cocycle", "periods", maps.MAX_SEARCH_PERIOD + 1),
              ("conjugate", "cov_n", maps.MAX_SEARCH_PERIOD + 1)]


@pytest.mark.parametrize("scenario,key,value", _BAD_COUNTS + _TOO_LARGE)
def test_bad_count_is_schema_error(tmp_path, capsys, monkeypatch, scenario,
                                   key, value):
    params = {} if scenario == "counterexample" else \
        {"matrix": [[2, 1], [1, 1]], "eps": 1e-3}
    rc = _main_on(tmp_path, monkeypatch, scenario, {**params, key: value})
    assert rc == 2
    want = f"{key} must be at most" if (scenario, key, value) in _TOO_LARGE \
        else f"{key} must be a positive integer"
    assert want in capsys.readouterr().err
    assert not (tmp_path / f"{scenario}_result.json").exists()


def test_count_at_its_bound_is_valid():
    for scenario, key, too_large in _TOO_LARGE:
        manifest = {"scenario": scenario, "seed": 0,
                    "params": {"matrix": [[2, 1], [1, 1]],
                               key: too_large - 1}}
        assert cli.validate_manifest(manifest) is manifest


# the real-valued keys each scenario reads: eps scales the modes (any
# sign), while tol and beta must be positive, and linearized's radius is a
# count; -1.0 is a bad value only for the keys that must be positive, and
# an integer beyond float64's range only for the real ones
_HUGE = 10 ** 400
_REAL_KEYS = [("conjugate", "eps"), ("conjugate", "tol"),
              ("regularity", "eps"), ("regularity", "tol"),
              ("linearized", "eps"), ("linearized", "tol"),
              ("linearized", "radius"), ("kam", "eps"), ("kam", "tol"),
              ("counterexample", "eps"), ("lyapunov", "eps"),
              ("cocycle", "eps"), ("cocycle", "beta")]


@pytest.mark.parametrize("scenario,key,value", [
    (scenario, key, bad) for scenario, key in _REAL_KEYS
    for bad in ("x", float("nan"), True, -1.0, _HUGE)
    if (key, bad) not in (("eps", -1.0), ("radius", _HUGE))],
    ids=lambda v: "huge" if v is _HUGE else None)
def test_bad_real_key_is_schema_error(tmp_path, capsys, monkeypatch,
                                      scenario, key, value):
    params = {} if scenario == "counterexample" else \
        {"matrix": [[2, 1], [1, 1]]}
    rc = _main_on(tmp_path, monkeypatch, scenario, {**params, key: value})
    assert rc == 2
    want = "a positive integer" if key == "radius" else \
        "a finite real number" if key == "eps" else "a positive real number"
    assert f"{key} must be {want}" in capsys.readouterr().err
    assert not (tmp_path / f"{scenario}_result.json").exists()


@pytest.mark.parametrize("n_grid,radius,valid", [
    (8, 4, False), (16, 8, False), (32, 16, False), (36, 18, False),
    (8, 3, True), (16, 7, True), (36, 17, True)])
def test_kam_grid_must_exceed_twice_the_radius(tmp_path, capsys, monkeypatch,
                                               n_grid, radius, valid):
    # at N <= 2F the grid aliases the projected modes and the displacement
    # it builds is not real-valued
    params = {"matrix": [[2, 1], [1, 1]], "n_grid": n_grid, "radius": radius}
    manifest = {"scenario": "kam", "seed": 0, "params": params}
    if valid:
        assert cli.validate_manifest(manifest) is manifest
        return
    assert _main_on(tmp_path, monkeypatch, "kam", params) == 2
    assert "must exceed twice the radius" in capsys.readouterr().err


_CAT = [[2, 1], [1, 1]]


@pytest.mark.parametrize("scenario,params,want", [
    # ill-typed, missing and out-of-range keys
    ("cocycle", {"generator": "restriction", "cluster_index": "x"},
     "cluster_index must be a non-negative integer"),
    ("cocycle", {"generator": "restriction", "cluster_index": 7},
     "cluster_index must be below 2"),
    ("cocycle", {"generator": "constant", "generator_matrix": "x"},
     "generator_matrix must be a square matrix"),
    ("cocycle", {"generator": "constant"},
     "generator 'constant' needs the key 'generator_matrix'"),
    ("lyapunov", {"generator": "restriction"},
     "generator 'restriction' needs the key 'cluster_index'"),
    ("counterexample", {"a": "x"}, "params: a must be a 2 x 2 integer"),
    ("compare", {}, "unknown scenario 'compare'"),
    # values that int() or truthiness would take for other ones
    ("classify", {"matrix": [[2, 1], [1, 1.9]]}, "matrix must be a square"),
    ("classify", {"matrix": [[2, 1], [1, True]]}, "matrix must be a square"),
    ("classify", {"matrix": [[2, 1], ["1", 1]]}, "matrix must be a square"),
    ("counterexample", {"a": [[2, 1], [1, 1.5]]},
     "params: a must be a 2 x 2 integer"),
    ("conjugate", {"regularity": "no"}, "regularity must be true or false"),
    ("classify", {"definitional_check": "no"},
     "definitional_check must be true or false")])
def test_measured_failures_are_schema_errors(tmp_path, capsys, monkeypatch,
                                             scenario, params, want):
    base = {} if scenario == "counterexample" else {"matrix": _CAT}
    rc = _main_on(tmp_path, monkeypatch, scenario, {**base, **params},
                  command="classify" if scenario == "compare" else None)
    assert rc == 2
    assert want in capsys.readouterr().err


# tiny valid params per scenario: a bad value that validation lets through
# runs in well under a second
_TINY = {
    "classify": {"matrix": _CAT},
    "conjugate": {"matrix": _CAT, "n_grid": 8, "samples": 10, "cov_n": 1},
    "regularity": {"matrix": _CAT, "n_grid": 8, "samples": 10,
                   "resolutions": [8]},
    "linearized": {"matrix": _CAT, "radius": 2},
    "kam": {"matrix": _CAT, "steps": 1, "radius": 2, "n_grid": 8},
    "lyapunov": {"matrix": _CAT, "n": 10, "grid_per_axis": 1},
    "cocycle": {"matrix": _CAT, "periods": 1},
    "counterexample": {"k_trunc": 5, "n_points": 10, "holder_pairs": 10,
                       "psi_grid": 8}}
_BAD_VALUES = ["x", -1.0, float("nan"), [1], {"k": 1}, None, True]


@pytest.mark.filterwarnings("ignore:perturbation too large")
def test_no_bad_value_escapes_main(tmp_path, capsys):
    # every scenario x every key of its schema (and the seed) x every bad
    # value, in a fixed order: main answers with an exit code, never with
    # a traceback
    assert set(_TINY) == set(cli._PARAMS)
    codes = {}
    for scenario, tiny in _TINY.items():
        for key in [*cli._PARAMS[scenario], "seed"]:
            for i, bad in enumerate(_BAD_VALUES):
                manifest = {"scenario": scenario, "seed": 0,
                            "params": dict(tiny)}
                (manifest if key == "seed" else manifest["params"])[key] = bad
                out = tmp_path / f"{scenario}-{key}-{i}"
                out.mkdir()
                (out / "m.json").write_text(json.dumps(manifest))
                rc = cli.main([scenario, "--manifest", str(out / "m.json"),
                               "--out", str(out)])
                codes[scenario, key, repr(bad)] = rc
    capsys.readouterr()
    assert set(codes.values()) <= {0, 2, 3, 4}
    # the only values that pass the schema: a negative eps, true for a
    # flag, and [1] for a list of grid sizes
    passed = {case for case, rc in codes.items() if rc != 2}
    assert passed == {(s, "eps", "-1.0") for s in cli._PARAMS
                      if "eps" in cli._PARAMS[s]} | {
        ("conjugate", "regularity", "True"),
        ("classify", "definitional_check", "True"),
        ("regularity", "resolutions", "[1]")}


@pytest.mark.parametrize("argv,flag", [
    (["cocycle", "--eps", "1e-3", "--n", "3"], "--n"),
    (["counterexample", "--matrix", "[[2,1],[1,1]]"], "--matrix"),
    (["classify", "--eps", "1e-3"], "--eps"),
    (["lyapunov", "--n-grid", "16"], "--n-grid"),
    (["conjugate", "--radius", "4"], "--radius"),
    (["regularity", "--steps", "2"], "--steps"),
    (["counterexample", "--tol", "1e-9"], "--tol")])
def test_flag_the_scenario_does_not_read_is_schema_error(tmp_path, capsys,
                                                         argv, flag):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert f"{argv[0]} reads no {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_flags_write_the_keys_the_scenario_reads():
    args = cli._parser().parse_args(["lyapunov", "--eps", "0", "--n", "50",
                                     "--n-grid", "0"])
    # --eps 0 is a value, and a zero count is left out, as before
    assert cli._manifest_from_args(args, "lyapunov") == {
        "scenario": "lyapunov", "seed": 0,
        "params": {"matrix": _CAT, "eps": 0.0, "n": 50,
                   "modes": [{"freq": [0, 1], "amplitude": [1.0],
                              "kind": "sin"}]}}


def test_determinism_bitwise(tmp_path):
    manifest = {"scenario": "conjugate", "seed": 7,
                "params": {"matrix": [[2, 1], [1, 1]],
                           "modes": [{"freq": [0, 1], "amplitude": [1.0],
                                      "kind": "sin"}],
                           "eps": 1e-3, "n_grid": 32, "samples": 500}}
    d1, d2 = tmp_path / "a", tmp_path / "b"
    p1 = cli.run_manifest(manifest, str(d1))
    p2 = cli.run_manifest(manifest, str(d2))
    assert open(p1, "rb").read() == open(p2, "rb").read()
    f1 = open(d1 / "conjugate_h_slice.dat", "rb").read()
    f2 = open(d2 / "conjugate_h_slice.dat", "rb").read()
    assert f1 == f2


def test_compare_eps_family(tmp_path):
    paths = []
    for i, eps in enumerate((1e-4, 1e-3, 1e-2)):
        manifest = {"scenario": "conjugate", "seed": 0,
                    "params": {"matrix": [[2, 1], [1, 1]],
                               "modes": [{"freq": [0, 1],
                                          "amplitude": [1.0],
                                          "kind": "sin"}],
                               "eps": eps, "n_grid": 32, "samples": 200}}
        p = tmp_path / f"m{i}.json"
        p.write_text(json.dumps(manifest))
        paths.append(str(p))
    out = cli.run_compare(paths, str(tmp_path))
    rec = _read(out)
    assert abs(rec["results"]["loglog_slope"] - 1.0) < 0.05
    assert rec["results"]["ratio_spread"] < 0.2


def test_compare_rejects_single_and_mixed(tmp_path):
    m1 = {"scenario": "conjugate", "seed": 0,
          "params": {"matrix": [[2, 1], [1, 1]], "modes": [], "eps": 1e-3}}
    m2 = json.loads(json.dumps(m1))
    m2["params"]["matrix"] = [[1, 1], [1, 2]]
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    p1.write_text(json.dumps(m1))
    p2.write_text(json.dumps(m2))
    with pytest.raises(IncomparableManifests):
        cli.run_compare([str(p1)], str(tmp_path))
    with pytest.raises(IncomparableManifests):
        cli.run_compare([str(p1), str(p2)], str(tmp_path))


def test_run_log_sidecar_excluded_from_results(tmp_path):
    manifest = {"scenario": "classify", "seed": 0,
                "params": {"matrix": [[2, 1], [1, 1]]}}
    cli.run_manifest(manifest, str(tmp_path))
    assert (tmp_path / "run.log").exists()
    rec = _read(tmp_path / "classify_result.json")
    blob = json.dumps(rec)
    assert "elapsed" not in blob


_BAD_MODES = {
    "fractional freq": {"freq": [1.5, 0], "amplitude": [1.0]},
    "bool freq": {"freq": [True, 0], "amplitude": [1.0]},
    "unknown kind": {"freq": [1, 0], "amplitude": [1.0], "kind": "sine"},
    "long amplitude": {"freq": [1, 0], "amplitude": [1.0, 0.5, 0.25]},
    "text amplitude": {"freq": [1, 0], "amplitude": ["x"]},
    "nan amplitude": {"freq": [1, 0], "amplitude": [float("nan")]},
    "huge amplitude": {"freq": [1, 0], "amplitude": [10 ** 400]},
}


@pytest.mark.parametrize("scenario", ["linearized", "conjugate",
                                      "counterexample"])
@pytest.mark.parametrize("case", sorted(_BAD_MODES))
def test_bad_mode_record_is_schema_error(tmp_path, capsys, monkeypatch,
                                         scenario, case):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the manifest was checked")

    monkeypatch.setattr(cli.conjugacy, "solve_conjugacy", no_solve)
    monkeypatch.setattr(cli.conjugacy, "build_counterexample", no_solve)
    monkeypatch.setattr(cli.twisted, "solve_linearized", no_solve)
    # counterexample's phi maps T^2 to R, so three amplitudes are too many
    # there as well as for the d = 2 maps of the other scenarios
    params = {"phi_modes": [_BAD_MODES[case]]} \
        if scenario == "counterexample" else \
        {"matrix": [[2, 1], [1, 1]], "eps": 1e-3, "n_grid": 16,
         "modes": [_BAD_MODES[case]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"scenario": scenario, "seed": 0,
                                "params": params}))
    rc = cli.main([scenario, "--manifest", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "bad mode record" in capsys.readouterr().err
    assert not (tmp_path / f"{scenario}_result.json").exists()


def test_regularity_scan_reuses_the_main_solve(tmp_path, monkeypatch):
    # a resolution equal to n_grid reads the record's solve, and its scan
    # entry is the one a fresh solve at that grid gives
    grids = []
    solve = conjugacy.solve_conjugacy

    def spied(f, **kwargs):
        grids.append(kwargs["grid_n"])
        return solve(f, **kwargs)

    monkeypatch.setattr(cli.conjugacy, "solve_conjugacy", spied)
    params = {"matrix": [[2, 1], [1, 1]], "eps": 1e-3,
              "modes": [{"freq": [0, 1], "amplitude": [1.0]}],
              "n_grid": 16, "samples": 40, "resolutions": [8, 16]}
    out, _ = cli.run_regularity({"scenario": "regularity", "seed": 0,
                                 "params": params}, str(tmp_path))
    assert grids == [16, 8]
    scan = out["jacobian_scan"]
    fresh = conjugacy.jacobian_dh(
        solve(cli._build_map(params), tol=1e-10, grid_n=16))
    assert [s["n"] for s in scan] == [8, 16]
    assert scan[1] == {"n": 16, "jacobian_residual": fresh.residual_eq,
                       "min_det": fresh.min_det}


def test_regularity_evaluates_the_stride_one_dh_sample_once(tmp_path,
                                                            monkeypatch):
    # one Holder fit of Dh and one Jacobian report per solve: the scan and
    # dh_as_cocycle_conjugacy read the report of the one evaluation of Dh
    # at the f-images of the 1024 grid points (stride 1), and
    # regularity_metrics and dh_cocycle read the one fit of res.dh_rows
    results, calls, fits = [], [], []
    solve = conjugacy.solve_conjugacy
    eval_jacobian = TrigPoly.eval_jacobian
    estimate_holder = conjugacy.estimate_holder

    def spied_solve(f, **kwargs):
        results.append(solve(f, **kwargs))
        return results[-1]

    def spied_eval(self, points):
        calls.append((self, np.shape(points)))
        return eval_jacobian(self, points)

    def spied_fit(fn, **kwargs):
        fits.append(fn)
        return estimate_holder(fn, **kwargs)

    monkeypatch.setattr(cli.conjugacy, "solve_conjugacy", spied_solve)
    monkeypatch.setattr(TrigPoly, "eval_jacobian", spied_eval)
    monkeypatch.setattr(conjugacy, "estimate_holder", spied_fit)
    params = {"matrix": [[2, 1], [1, 1]], "eps": 1e-3,
              "modes": [{"freq": [0, 1], "amplitude": [1.0]}],
              "n_grid": 32, "samples": 40, "resolutions": [16, 32]}
    out, _ = cli.run_regularity({"scenario": "regularity", "seed": 0,
                                 "params": params}, str(tmp_path))
    res = results[0]
    assert res.grid_n == 32
    sampled = [shape for poly, shape in calls
               if poly is res.h_trig and shape == (1024, 2)]
    assert len(sampled) == 1
    assert [fn for fn in fits if fn == res.dh_rows] == [res.dh_rows]
    assert out["dh_cocycle"]["holder_exponent_dh"] == \
        out["holder_dh"]["exponent"] == res.holder_dh.exponent
    assert out["dh_cocycle"]["holder_reliable"] == \
        out["holder_dh"]["reliable"]
    rep = res._jacobian_report
    assert conjugacy.jacobian_dh(res) is rep
    assert out["jacobian_scan"][1] == {"n": 32,
                                       "jacobian_residual": rep.residual_eq,
                                       "min_det": rep.min_det}
    assert out["dh_cocycle"]["residual"] == rep.residual_eq
    assert out["dh_cocycle"]["grid_n"] == rep.sample_n == 1024
