"""Scenario benchmark for toralab.

    python3 perfbench/run.py --workload {orbit,kam,diagnostics,all}
                             --seed N --seconds S --trace {0,1}

Each pass is a fresh interpreter (``pass_runner.py``) that imports
toralab from ``src/``, builds the workload's manifests from the seed and
runs them through the CLI, as a user invoking ``toralab`` pays the import
cost and a cold spectral cache every time.  Passes run one at a time, with
one BLAS thread, until the next pass would overrun
``--seconds`` (at least two passes).  Every result file is checked, and
all passes of a run must write byte-identical result files.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the time no
span covers and the tracing overhead.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines above
it are the human-readable report.  A full record of the run, with the
machine record and accuracy drift, is written to ``perfbench/_work/``.
"""

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
BASELINE = HERE / "accuracy_baseline.json"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
MIN_SETUP_SAMPLES = 6
PASS_TIMEOUT_S = 120
BLAS_THREADS = 1
RUN_LIMIT_S = 170       # one workload's run ends within 180 s, whatever hangs
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _nproc():
    return len(os.sched_getaffinity(0))


def _read(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def _cpu_model():
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD", "")
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref, "")
        if not commit:
            for line in _read(ROOT / ".git" / "packed-refs", "").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown (not a git checkout)"


def _env():
    # One BLAS thread (the cap is nproc): toralab's matrices are small, so
    # a second thread gains nothing, and when anything else holds a core a
    # spinning OpenBLAS thread pair made a kam pass take 18 s instead of 10.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(passdir, workload, seed, deadline, traced=False,
             setup_only=False):
    passdir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "pass_runner.py"), str(passdir),
           workload, str(seed)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    t_spawn = time.monotonic()
    timeout = max(1.0, min(PASS_TIMEOUT_S, deadline - t_spawn))
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
        stderr, code = proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stderr, code = f"pass timed out after {exc.timeout} s", None
    elapsed = time.monotonic() - t_spawn
    rec = {"passdir": passdir, "traced": traced, "elapsed": elapsed,
           "stderr": (stderr or "")[-2000:]}
    path = passdir / "pass.json"
    if code != 0 or not path.exists():
        rec["crashed"] = f"exit code {code}"
        return rec
    rec.update(json.loads(path.read_text()))
    rec["setup_s"] = rec["t_ready"] - t_spawn
    return rec


def _result_digest(outdir):
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        if path.name not in ("run.log", "manifest.json"):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def evaluate(workload, ops, passes):
    """Check every operation of every pass; returns the failure list, the
    attempted count and the accuracy record."""
    failures, accuracy, digests, attempted = [], {}, {}, 0
    for k, rec in enumerate(passes):
        for i, op in enumerate(ops):
            attempted += 1
            label = op["label"]
            outdir = rec["passdir"] / f"{i:02d}-{label}"
            if "crashed" in rec:
                failures.append((k, label, f"pass crashed ({rec['crashed']})",
                                 False))
                continue
            res = rec["ops"][i]
            if res["error"] or res["rc"] != 0:
                failures.append((k, label, res["error"] or
                                 f"exit code {res['rc']}", False))
                continue
            try:
                ok, reason, acc = checks.check(op, outdir)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                ok, reason, acc = False, f"malformed result: {exc!r}", {}
            digest = _result_digest(outdir)
            if digests.setdefault(label, digest) != digest:
                failures.append((k, label, "result files differ from the "
                                 "first pass", False))
                continue
            if acc:
                accuracy.setdefault(label, acc)
            if not ok:
                known = (workload, label) in checks.KNOWN_FAILURES
                failures.append((k, label, reason, known))
    return failures, attempted, accuracy


def _reference(workload, seed):
    """Stored accuracy record for this seed; for another seed, the
    quantities that were identical for every stored seed."""
    if not BASELINE.exists():
        return None, None
    stored = json.loads(BASELINE.read_text()).get(workload, {})
    if str(seed) in stored:
        return stored[str(seed)], f"seed {seed}"
    if not stored:
        return None, None
    seen = {}
    for rec in stored.values():
        for label, acc in rec.items():
            for key, val in checks.flatten(acc).items():
                seen.setdefault(label, {}).setdefault(key, set()).add(val)
    ref = {label: {k: v.pop() for k, v in vals.items() if len(v) == 1}
           for label, vals in seen.items()}
    return ref, "values shared by stored seeds " + \
        ",".join(sorted(stored, key=int))


# ---------------------------------------------------------------------------
# Metrics and report
# ---------------------------------------------------------------------------

def tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(samples, n=1000, method="inclusive")
            return p, q[int(p * 10) - 1]
    return None


def summarize(samples):
    out = {"median": statistics.median(samples), "n": len(samples),
           "samples": samples}
    t = tail(samples)
    if t:
        out["tail"] = {"percentile": t[0], "value": t[1]}
    return out


def measure(workload, seed, seconds, trace):
    workdir = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    compileall.compile_dir(ROOT / "src", quiet=1)
    machine = {"nproc": _nproc(), "cpu": _cpu_model(),
               "commit": _git_commit(),
               "loadavg_start": _read("/proc/loadavg")}
    ops = workloads.WORKLOADS[workload](seed)

    passes, t0 = [], time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append(run_pass(workdir / f"pass{len(passes):02d}", workload,
                               seed, deadline, traced=traced))
        elapsed = time.monotonic() - t0
        typical = statistics.median(p["elapsed"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    ok_passes = [p for p in passes if "crashed" not in p]
    setup = [p["setup_s"] for p in ok_passes]
    while len(setup) < MIN_SETUP_SAMPLES and ok_passes:
        probe = run_pass(workdir / f"setup{len(setup):02d}", workload, seed,
                         deadline, setup_only=True)
        if "crashed" in probe:
            break
        setup.append(probe["setup_s"])
    machine["loadavg_end"] = _read("/proc/loadavg")
    if ok_passes:
        machine.update(ok_passes[0]["versions"])

    failures, attempted, accuracy = evaluate(workload, ops, passes)
    plain = [p for p in ok_passes if not p["traced"]]
    traced = [p for p in ok_passes if p["traced"]]
    samples = {"setup_s": setup,
               "wall_s": [p["wall_s"] for p in plain],
               "peak_rss_mb": [p["peak_rss_mb"] for p in plain]}
    for p in plain:
        per_metric = {}
        for res in p["ops"]:
            name = workloads.metric_name(res["label"])
            per_metric[name] = per_metric.get(name, 0.0) + res["seconds"]
        for name, val in per_metric.items():
            samples.setdefault(name, []).append(val)
    classify_ops = [r["seconds"] for p in plain for r in p["ops"]
                    if r["label"].startswith("classify-")]
    if classify_ops:
        samples["classify_op_s"] = classify_ops

    layers = {}
    if traced and plain:
        for metric, _, _ in tracing.LAYER_METRICS:
            if metric != "trace.overhead_ratio":
                layers[metric] = statistics.median(
                    p["layers"][metric] for p in traced)
        layers["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) /
            statistics.median(samples["wall_s"]))
    restored = all(p.get("restored", True) for p in traced)

    reference, ref_from = _reference(workload, seed)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": machine,
        "passes": len(passes), "traced_passes": len(traced),
        "attempted": attempted,
        "failures": [{"pass": k, "label": label, "reason": reason,
                      "known": known} for k, label, reason, known in failures],
        "wrappers_restored": restored,
        "crashes": [p["stderr"] for p in passes if "crashed" in p],
        "metrics": {name: summarize(vals) for name, vals in samples.items()
                    if vals},
        "layers": layers,
        "accuracy": accuracy,
        "accuracy_reference": ref_from,
        "accuracy_drift": checks.drift(accuracy, reference)
        if reference else {},
    }
    (WORK / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    shutil.rmtree(workdir, ignore_errors=True)
    return record


def report(rec):
    m = rec["machine"]
    lines = [f"== workload {rec['workload']}  seed {rec['seed']}  "
             f"trace {rec['trace']}  passes {rec['passes']} "
             f"(traced {rec['traced_passes']})",
             "machine: " + "  ".join(f"{k}={v}" for k, v in m.items())]
    for name, s in rec["metrics"].items():
        unit = dict(END_TO_END).get(name, "s")
        line = f"  {name:<16} {s['median']:12.4f} {unit:<3} median of " \
               f"n={s['n']}"
        if "tail" in s:
            line += f"; p{s['tail']['percentile']:g} = " \
                    f"{s['tail']['value']:.4f} {unit}"
        else:
            line += "; no percentile has ten samples beyond it"
        lines.append(line)
    failed = len(rec["failures"])
    lines.append(f"  {'fail_ratio':<16} {failed / rec['attempted']:12.4f} "
                 f"    ({failed} failed / {rec['attempted']} attempted)")
    for f in rec["failures"]:
        known = checks.KNOWN_FAILURES.get((rec["workload"], f["label"]))
        note = f"  [known: {known}]" if f["known"] else ""
        lines.append(f"    FAIL pass {f['pass']} {f['label']}: "
                     f"{f['reason']}{note}")
    for label, acc in rec["accuracy"].items():
        lines.append(f"  accuracy {label}: " + " ".join(
            f"{k}={v:.6g}" for k, v in checks.flatten(acc).items()))
    if rec["accuracy_reference"]:
        lines.append(f"  drift vs baseline ({rec['accuracy_reference']}): " +
                     " ".join(f"{label}={d['max_rel_drift']:.3g}"
                              f"({d['quantity'] or 'none'})" for label, d in
                              rec["accuracy_drift"].items()))
    for name, val in rec["layers"].items():
        lines.append(f"  layer {name:<52} {val:.6g}")
    if rec["trace"]:
        lines.append(f"  trace wrappers restored: {rec['wrappers_restored']}")
    return "\n".join(lines)


def contract_line(records):
    failed = sum(len(r["failures"]) for r in records)
    correct = all(f["known"] for r in records for f in r["failures"]) and \
        all(r["wrappers_restored"] for r in records)
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else f"{r['workload']}."
        if r["trace"]:
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
            for name, val in r["layers"].items():
                metrics[prefix + name] = {"value": val, "unit": units[name]}
        else:
            for name, unit in END_TO_END:
                metrics[prefix + name] = {
                    "value": r["metrics"][name]["median"], "unit": unit}
    return json.dumps({"correct": correct,
                       "attempted": sum(r["attempted"] for r in records),
                       "failed": failed, "metrics": metrics})


def record_baseline(rec):
    stored = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    stored.setdefault(rec["workload"], {})[str(rec["seed"])] = \
        rec["accuracy"]
    BASELINE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-baseline", action="store_true",
                        help="store this run's accuracy record as the "
                             "baseline for its workload and seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "toralab" / "cli.py").is_file():
        print(f"no toralab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    records = []
    for name in names:
        rec = measure(name, args.seed, args.seconds, args.trace)
        if not rec["metrics"].get("wall_s"):
            print(f"workload {name}: no pass completed", file=sys.stderr)
            for err in rec["crashes"][:1]:
                print(err, file=sys.stderr)
            return 1
        if args.record_baseline:
            record_baseline(rec)
        print(report(rec), flush=True)
        records.append(rec)
    print(contract_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
