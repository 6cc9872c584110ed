"""One benchmark pass in a fresh interpreter.

    python3 perfbench/pass_runner.py PASS_DIR WORKLOAD SEED [--trace]
                                     [--setup-only]

Imports toralab from the checkout's ``src/``, writes the workload's
manifests under PASS_DIR, then runs each through ``toralab.cli.main`` as
``toralab <scenario> --manifest ... --out ...`` would.  Writes
``pass.json`` (timings, exit codes, peak RSS, versions) and, when traced,
``spans.json``.  ``time.monotonic`` readings are comparable with the
parent's, so the parent can measure set-up from the moment it spawned us.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _versions():
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv):
    passdir, workload, seed = Path(argv[0]), argv[1], int(argv[2])
    traced, setup_only = "--trace" in argv, "--setup-only" in argv

    import mpmath  # noqa: F401  (set-up covers every import a run pays)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from toralab import cli, spectral
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"toralab imported from {cli.__file__}, "
                         f"not from {ROOT / 'src'}")
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    ops = workloads.WORKLOADS[workload](seed)
    jobs = []
    for i, op in enumerate(ops):
        outdir = passdir / f"{i:02d}-{op['label']}"
        outdir.mkdir(parents=True)
        (outdir / "manifest.json").write_text(json.dumps(op["manifest"]))
        jobs.append((op, outdir))
    t_ready = time.monotonic()
    record = {"t_ready": t_ready}
    if setup_only:
        (passdir / "pass.json").write_text(json.dumps(record))
        return

    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    results = []
    t_start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for i, (op, outdir) in enumerate(jobs):
            if tracer:
                tracer.pass_id = i
            argv_cli = [op["scenario"], "--manifest",
                        str(outdir / "manifest.json"), "--out", str(outdir)]
            t0 = time.perf_counter()
            try:
                rc, error = cli.main(argv_cli), None
            except Exception as exc:  # a crash is a failed operation
                rc, error = None, f"{type(exc).__name__}: {exc}"
            results.append({"label": op["label"], "rc": rc, "error": error,
                            "seconds": time.perf_counter() - t0})
    wall = time.perf_counter() - t_start
    cache = spectral._spectral_cached.cache_info()
    record.update({
        "wall_s": wall, "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "cache_hit_ratio": cache.hits / max(cache.hits + cache.misses, 1),
        "versions": _versions(),
    })
    if tracer:
        record["restored"] = tracer.uninstall()
        record["layers"] = tracing.layer_values(
            tracer.spans, wall, record["cache_hit_ratio"])
        (passdir / "spans.json").write_text(json.dumps(tracer.spans))
    (passdir / "pass.json").write_text(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
