"""Trace hygiene and contract checks for the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import checks
import run
import tracing
from toralab import cli

ROOT = Path(__file__).resolve().parents[2]
CAT = [[2, 1], [1, 1]]
SIN_Y = [{"freq": [0, 1], "amplitude": [1.0], "kind": "sin"}]

# Small manifests covering the traced layers (the 4-D counterexample map
# is left out: its smallness check alone takes seconds and 2 GB).
SMALL = [
    {"scenario": "classify", "seed": 3,
     "params": {"matrix": [[0, 1, 0], [0, 0, 1], [1, 1, 0]],
                "definitional_check": True}},
    {"scenario": "conjugate", "seed": 3,
     "params": {"matrix": CAT, "eps": 1e-3, "modes": SIN_Y, "n_grid": 16,
                "samples": 200}},
    {"scenario": "linearized", "seed": 3,
     "params": {"matrix": CAT, "radius": 6, "modes": SIN_Y}},
    {"scenario": "kam", "seed": 3,
     "params": {"matrix": CAT, "eps": 1e-3, "modes": SIN_Y, "steps": 1,
                "radius": 4, "n_grid": 16}},
    {"scenario": "lyapunov", "seed": 3,
     "params": {"matrix": CAT, "eps": 1e-3, "modes": SIN_Y, "n": 40,
                "grid_per_axis": 2}},
    {"scenario": "cocycle", "seed": 3,
     "params": {"matrix": CAT, "eps": 1e-3, "modes": SIN_Y, "periods": 2}},
]


def _bound_names():
    out = []
    for mod in [m for n, m in sys.modules.items()
                if m is not None and n.startswith("toralab")]:
        for attr, val in vars(mod).items():
            if callable(val):
                out.append((mod, attr, val))
    return out


def _class_methods():
    from toralab import cocycles, conjugacy, maps, torusfn
    owners = (torusfn.TrigPoly, torusfn.GridFunction, maps.PerturbedMap,
              conjugacy.SkewSeries, cocycles.CocycleSpec)
    return [(cls, attr, val) for cls in owners
            for attr, val in vars(cls).items()]


def _run_all(outdir):
    for i, manifest in enumerate(SMALL):
        cli.run_manifest(manifest, str(outdir / f"{i:02d}"))


def _files(outdir):
    return {p.relative_to(outdir): p.read_bytes()
            for p in sorted(outdir.rglob("*"))
            if p.is_file() and p.name != "run.log"}


def test_uninstall_restores_every_original(tmp_path):
    before = _bound_names() + _class_methods()
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer._patches
    assert all(getattr(owner, attr) is not orig
               for owner, attr, orig in tracer._patches)
    assert tracer.uninstall()
    after = _bound_names() + _class_methods()
    assert [(o, a) for o, a, _ in before] == [(o, a) for o, a, _ in after]
    assert all(x is y for (_, _, x), (_, _, y) in zip(before, after))


def test_traced_results_are_byte_identical(tmp_path):
    _run_all(tmp_path / "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _run_all(tmp_path / "traced")
    finally:
        assert tracer.uninstall()
    plain, traced = _files(tmp_path / "plain"), _files(tmp_path / "traced")
    assert plain and plain == traced
    names = {s[3] for s in tracer.spans}
    # names bound by import elsewhere are traced too
    assert {"conjugacy.solve_conjugacy", "twisted.kam_step",
            "maps.periodic_points", "torusfn.TrigPoly.eval",
            "spectral.classification_report"} <= names
    layers = tracing.layer_values(tracer.spans, 1.0, 0.5)
    assert layers["twisted.kam_step.calls"] == 1
    assert layers["maps.PerturbedMap.invert.newton_iters"] > 0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} == \
        set(run.workloads.WORKLOADS)


def test_periodic_count_of_cat_map():
    # |det(L^n - I)| = |2 - trace(L^n)| for the cat map: 1, 5, 16, 45
    assert [checks.periodic_count(CAT, n) for n in range(1, 5)] == \
        [1, 5, 16, 45]
