"""Smoke tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

One u value for the analytic workloads, a few replications for the Monte
Carlo one.  The metric names and units printed must be the ones that
BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from platoonnet.montecarlo import SimEstimate  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "load_sweep": dict(subset=lambda label: label.endswith(" u=5")
                       or label == "rate_coverage NPTS u=5 a=150"),
    "meta_sweep": dict(subset=lambda label: label.startswith(
        ("coverage_prob", "active_prob")) and label.endswith("u=5")),
    "mc_validate": dict(reps=40),
}


def tiny_run(name, trace, refs=None):
    refs = workloads.load_refs(name) if refs is None else refs
    return run.run_workload(name, seed=3, seconds=0.0, trace=trace,
                            refs=refs, **TINY[name])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def printed(res):
    return {k: v["unit"] for k, v in res["metrics"].items()}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(name):
    s = tiny_run(name, trace=False)
    res = run.result(s, setup_s=0.5, peak_rss_mb=100.0)
    assert printed(res) == declared("end_to_end")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_metrics_printed_and_counts_repeat(name):
    first = tiny_run(name, trace=True)
    second = tiny_run(name, trace=True)
    res = run.result(first)
    assert printed(res) == declared("per_layer")
    assert res["correct"]
    for key in COUNT_METRICS:
        assert first["layer"][key] == second["layer"][key], key


def test_traced_counts_see_the_layers():
    layer = tiny_run("load_sweep", trace=True)["layer"]
    assert layer["mcp_counts.pmf_S.calls"] > 0
    assert layer["mcp_counts.choose_truncation.attempts"] > 0
    assert layer["load.certified.calls"] == 5
    assert layer["coverage.rate_coverage.terms"] > 0
    mc = tiny_run("mc_validate", trace=True)["layer"]
    assert mc["montecarlo.reps"] == 9 * 40
    assert mc["geometry.replication_rng.calls"] == 9 * 40


def test_tracer_overhead_is_estimated():
    layer = tiny_run("mc_validate", trace=True)["layer"]
    assert 0.0 < layer["trace.overhead_frac"] < 0.5


@pytest.mark.parametrize("label", ["sim_coverage PTS", "sim_coverage NPTS",
                                   "sim_rate PTS a=150"])
def test_mc_mean_gate_catches_zero_and_half(label):
    ref = workloads.load_refs("mc_validate")[label]
    check = next(c.check for c in workloads.mc_validate(1)
                 if c.label == label)
    n = workloads.MC_REPS
    # the standard error expected at n, scaled from the stored gap's
    se = ref["mc_gap_se"] * math.sqrt(workloads.GAP_REPS / n)
    centre = ref["analytic"] + ref["mc_gap"]
    assert check(SimEstimate(centre + 3 * se, se, n), ref) is None
    assert check(SimEstimate(centre - 3 * se, se, n), ref) is None
    assert check(SimEstimate(0.0, 0.0, n), ref) is not None
    # halving every replication halves the mean and its standard error
    half = SimEstimate(ref["analytic"] / 2, se / 2, n)
    assert check(half, ref) is not None


def test_rescale_divides_out_probe_speed_and_time():
    ref = hostspeed.REF_PROBE_S
    speed = hostspeed.HostSpeed()
    speed.samples = [(float(t), ref) for t in range(5)]
    assert math.isclose(speed.rescale(0.5, 1.0), 0.5)
    # probes twice as slow, one a second: the 4 s span less the four
    # probes inside it, at half speed
    speed.samples = [(float(t), 2 * ref) for t in range(5)]
    assert math.isclose(speed.rescale(0.5, 4.5), (4.0 - 4 * 2 * ref) / 2)


def test_wrong_output_counts_as_failed():
    refs = workloads.load_refs("load_sweep")
    label = "moments_typical_npts u=5"
    refs[label] = dict(refs[label], mean=refs[label]["mean"] + 1e-6)
    s = tiny_run("load_sweep", trace=False, refs=refs)
    res = run.result(s, setup_s=0.5, peak_rss_mb=100.0)
    assert res["failed"] == 1 and not res["correct"]
    assert res["metrics"]["ops_ok_frac"]["value"] == \
        1.0 - 1 / res["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "load_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
