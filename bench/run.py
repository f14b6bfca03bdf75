"""Benchmark harness for platoonnet.

    python3 bench/run.py --workload load_sweep --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) in this process, in whole passes
over its call list, while the next pass is expected to end within
--seconds (at least one pass).  Every call's output is checked after its
pass.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (see README.md); pass times
are rescaled to a reference host speed by hostspeed.py.  --trace 1
traces every pass and reports the per-layer metrics of the first; its
counts must repeat exactly in every traced run of the same sources (the
counts of the first such run are kept in bench/out/).  Run metadata goes
to a `# run` line before the result and to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
# the lazily imported modules: scipy.stats (geometry.cell_quantile) and
# mpmath (CoverageMeta) are paid by the first call that needs them; the
# import time is rescaled by the host-speed probe timed around it
SETUP_CODE = """\
import time, hostspeed
p = hostspeed.probe_times(5)
t = time.perf_counter()
import platoonnet, scipy.stats, mpmath
t = time.perf_counter() - t
p += hostspeed.probe_times(5, warm=0)
print(t * hostspeed.REF_PROBE_S / hostspeed.median(p))
"""


def _env():
    env = dict(os.environ)
    extra = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)] + extra)
    return env


def measure_setup(repeats=SETUP_REPEATS):
    """Median time for a fresh interpreter to import platoonnet and the
    modules it imports lazily (scipy.stats, mpmath), at the reference
    host speed."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(),
                             capture_output=True, text=True, timeout=120,
                             check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(calls, tracer=None):
    """Run every call once, in order.  Returns (start, wall_s, outputs);
    an output is (value, None) or (None, error) for a call that raised."""
    outputs = []
    fns = [c.fn if tracer is None else tracer.wrap(f"call:{c.label}", c.fn)
           for c in calls]
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for fn in fns:
            try:
                outputs.append((fn(), None))
            except Exception as exc:  # a failed call is recorded, not retried
                outputs.append((None, f"{type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return t0, wall, outputs


def check_pass(calls, outputs, refs):
    """(failed, wrong, messages): calls that raised or were wrong."""
    failed, wrong, msgs = 0, 0, []
    for call, (value, error) in zip(calls, outputs):
        if error is None:
            error = call.check(value, refs.get(call.label))
            wrong += error is not None
        failed += error is not None
        if error is not None:
            msgs.append(f"{call.label}: {error}")
    return failed, wrong, msgs


def run_workload(name, seed, seconds, trace, refs, reps=None,
                 subset=None):
    """Run passes of workload `name` and return a summary dict.

    `reps` and `subset` (a label predicate) shrink the workload for the
    harness's own tests."""
    import workloads
    from hostspeed import HostSpeed
    from tracer import Tracer

    def calls_for(i):
        kw = {} if reps is None else {"reps": reps}
        calls = workloads.build(name, seed, i, **kw)
        return [c for c in calls if subset is None or subset(c.label)]

    walls, spans, layer, msgs = [], [], None, []
    attempted = failed = wrong = 0
    speed = None if trace else HostSpeed()
    start = time.perf_counter()
    if speed is not None:
        speed.start()
    try:
        i = 0
        while True:
            calls = calls_for(i)
            tracer = Tracer() if trace else None
            t0, wall, outputs = run_pass(calls, tracer)
            spans.append((t0, t0 + wall))
            f, w, m = check_pass(calls, outputs, refs)
            attempted += len(calls)
            failed += f
            wrong += w
            msgs += m
            walls.append(wall)
            if tracer is not None and layer is None:
                layer, tracer_dump = tracer.layer_metrics(), tracer.dump()
                layer["trace.overhead_frac"] = tracer.overhead_frac(wall)
            i += 1
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > seconds:
                break
    finally:
        if speed is not None:
            speed.stop()
    summary = {"passes": i, "walls": walls, "attempted": attempted,
               "failed": failed, "wrong": wrong, "messages": msgs,
               "count_mismatch": False}
    if speed is not None:
        summary["walls_ref"] = [speed.rescale(a, b) for a, b in spans]
        summary["probes"] = len(speed.samples)
    if trace:
        summary["layer"] = layer
        summary["spans"] = tracer_dump
    return summary


def metadata(seed):
    import mpmath
    import numpy
    import scipy

    def git_commit():
        head = ROOT / ".git" / "HEAD"
        try:
            ref = head.read_text().strip()
            if ref.startswith("ref: "):
                return (ROOT / ".git" / ref[5:]).read_text().strip()
            return ref
        except OSError:
            return "unknown (not a git checkout)"

    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": next((os.environ[v] for v in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS") if v in os.environ),
                             f"library default ({os.cpu_count()} cores)"),
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines,
    }


def source_digest():
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(p.read_bytes())
    return h.hexdigest()


def counts_repeat(name, layer):
    """Compare this traced run's counts with an earlier traced run of the
    same sources; record them if there is none.  False on a mismatch."""
    from tracer import COUNT_METRICS

    counts = {k: layer[k] for k in COUNT_METRICS}
    path = OUT / f"counts-{name}.json"
    digest = source_digest()
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        earlier = None
    if earlier and earlier.get("digest") == digest:
        return earlier["counts"] == counts
    path.write_text(json.dumps({"digest": digest, "counts": counts}))
    return True


UNITS = {"wall_ref_s": "s", "ops_ok_frac": "ratio", "setup_s": "s",
         "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("reps_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("us_per_rep"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def result(s, setup_s=None, peak_rss_mb=None):
    """The final JSON object of a run summary `s`: per-layer metrics for
    a traced run, else the end-to-end metrics."""
    if "layer" in s:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in s["layer"].items()}
    else:
        values = {"wall_ref_s": statistics.median(s["walls_ref"]),
                  "ops_ok_frac": 1.0 - s["failed"] / s["attempted"],
                  "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in values.items()}
    return {"correct": s["wrong"] == 0 and not s["count_mismatch"],
            "attempted": s["attempted"], "failed": s["failed"],
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "platoonnet" / "__init__.py").is_file():
        print(f"error: no platoonnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    # pay the lazy imports before timing: setup_s reports them
    import mpmath  # noqa: F401
    import scipy.stats  # noqa: F401
    refs = workloads.load_refs(args.workload)
    s = run_workload(args.workload, args.seed, args.seconds,
                     bool(args.trace), refs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    OUT.mkdir(exist_ok=True)
    if args.trace and not counts_repeat(args.workload, s["layer"]):
        s["count_mismatch"] = True
        s["messages"].append("trace counts differ from an earlier traced "
                             "run of the same sources")
    res = result(s, setup_s, peak_rss_mb)
    metrics = res["metrics"]
    meta = metadata(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "meta": meta,
              "passes": s["passes"], "walls": s["walls"],
              "walls_ref": s.get("walls_ref"), "probes": s.get("probes"),
              "failures": s["messages"],
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(s["spans"]))
    for msg in s["messages"]:
        print(f"# failed: {msg}")
    print("# run " + json.dumps(meta))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
