"""The benchmark's workloads and the correctness check of every call.

A workload is a list of `Call`s run in order by one process (a closed
loop: each call starts when the previous one has returned).  Calls look
up `platoonnet` functions through their module attribute at call time,
so the traced run sees the wrappers that `tracer.py` installs.

Each call's output is checked after the timed pass against a reference
stored in `refs/<workload>.json` (written by `make_refs.py` from the
analytic engine); Monte Carlo outputs are checked against analytic
references with a gate derived from the replication count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from platoonnet import connectivity, coverage, load, montecarlo
from platoonnet.coverage import CoverageMeta, RadioParams
from platoonnet.geometry import NetworkParams
from platoonnet.mcp_counts import TAIL_TOL, DiscretePMF

REFS = Path(__file__).resolve().parent / "refs"

EXACT_TOL = 1e-9      # PMF masses, moments, CP, RC and derived metrics
MD_TOL = 1e-4         # the Gil-Pelaez tolerance of CoverageMeta.md
MC_Z = 5.0            # standard errors allowed for an MC mean
MC_DELTA = 1e-6       # false-alarm probability of the MC TV gate
MC_REPS = 2500        # replications in every mc_validate call
# The analytic coverage and rate laws thin the active RSUs independently;
# the MC engine thins them dependently.  make_refs.py measures the gap
# between the two once, at GAP_REPS replications, and stores it with its
# standard error next to each analytic mean.
GAP_REPS = 40000
GAP_SEED = 2024

TAU_SINR = 0.9
TAU_RATE = 9e6        # rate threshold, bit/s
R_B = 200.0           # V2V range, m


@dataclass
class Call:
    label: str
    fn: Callable[[], object]
    # check(output, reference) -> None or what is wrong; the reference is
    # refs[label], or None when the reference file has no entry
    check: Callable[[object, object], str | None]


def params(u, a):
    """Base point lambda_r = 2/km, lambda_p = 1/km, mean platoon size u."""
    return NetworkParams.from_per_km(2.0, 1.0, u, a)


def radio(alpha):
    return RadioParams(p_t=1.0, sigma2=5e-5, alpha=alpha)


# ------------------------------------------------------------ encoding

def encode(out):
    """JSON form of a call output, as stored in the reference files."""
    if isinstance(out, DiscretePMF):
        return {"pmf": [float(v) for v in out.masses],
                "tail_mass": float(out.tail_mass)}
    if isinstance(out, load.LoadMoments):
        return {"mean": out.mean, "variance": out.variance,
                "third_moment": out.third_moment}
    if isinstance(out, dict):
        return {k: encode(v) for k, v in out.items()}
    if isinstance(out, (list, tuple)):
        return [encode(v) for v in out]
    if isinstance(out, (int, np.integer)) and not isinstance(out, bool):
        return int(out)
    return float(out)


def compare(got, ref, tol=EXACT_TOL, where="value"):
    """None if `got` matches `ref` (both encoded), else a message.

    Floats agree within tol relative to max(1, |ref|); integers exactly.
    PMFs agree mass by mass on their common support, carry at most
    TAIL_TOL beyond it, and are certified (tail mass below TAIL_TOL).
    """
    if isinstance(ref, dict) and "pmf" in ref:
        a, b = np.asarray(got["pmf"]), np.asarray(ref["pmf"])
        n = min(a.size, b.size)
        diff = float(np.max(np.abs(a[:n] - b[:n])))
        if diff > tol:
            return f"{where}: pmf mass differs by {diff:.3e}"
        beyond = float(a[n:].sum() + b[n:].sum())
        if beyond > TAIL_TOL:
            return f"{where}: {beyond:.3e} mass beyond the reference support"
        if got["tail_mass"] >= TAIL_TOL:
            return f"{where}: tail {got['tail_mass']:.3e} not certified"
        return None
    if isinstance(ref, dict):
        if set(got) != set(ref):
            return f"{where}: keys {sorted(got)} != {sorted(ref)}"
        for k in ref:
            err = compare(got[k], ref[k], tol, f"{where}.{k}")
            if err:
                return err
        return None
    if isinstance(ref, list):
        if len(got) != len(ref):
            return f"{where}: length {len(got)} != {len(ref)}"
        for i, (g, r) in enumerate(zip(got, ref)):
            err = compare(g, r, tol, f"{where}[{i}]")
            if err:
                return err
        return None
    if isinstance(ref, int):
        return None if got == ref else f"{where}: {got} != {ref}"
    if not abs(got - ref) <= tol * max(1.0, abs(ref)):
        return f"{where}: {got!r} differs from reference {ref!r}"
    return None


def load_refs(name):
    with open(REFS / f"{name}.json") as fh:
        return json.load(fh)


def _needs_ref(check):
    def checked(out, ref):
        return "no reference stored" if ref is None else check(out, ref)
    return checked


@_needs_ref
def _exact(out, ref):
    return compare(encode(out), ref)


def _md(bound_of):
    """MD value within the GP tolerance and below the noise-only bound."""
    @_needs_ref
    def check(out, ref):
        if not abs(out - ref) <= MD_TOL:
            return f"md {out!r} differs from reference {ref!r}"
        bound = bound_of()
        if out > bound:
            return f"md {out!r} exceeds the noise bound {bound!r}"
        return None
    return check


# ------------------------------------------------------------ load_sweep

def load_sweep():
    """Analytic load engine over the figure 3-7 and 9 (RC) parameters."""
    calls = []

    def add(label, fn, check=_exact):
        calls.append(Call(label, fn, check))

    for u in (5, 15, 25, 35):
        p = params(u, 100.0)
        for name in ("moments_typical_pts", "moments_typical_npts",
                     "moments_tagged_pts", "moments_tagged_npts"):
            add(f"{name} u={u}",
                lambda name=name, p=p: getattr(load, name)(p))
        for traffic in ("PTS", "NPTS"):
            add(f"active_prob {traffic} u={u}",
                lambda t=traffic, p=p: coverage.active_prob(t, p))
        for name, kind in (("pmf_typical_pts_certified", "typical"),
                           ("pmf_typical_npts_certified", "typical"),
                           ("pmf_tagged_pts_certified", "tagged"),
                           ("pmf_tagged_npts_certified", "tagged")):
            def fn(name=name, kind=kind, p=p):
                pmf = getattr(load, name)(p)
                return pmf, load.operational_metrics(pmf, kind)
            add(f"{name}+operational_metrics u={u}", fn)
    v2v = connectivity.V2VParams(R_B, params(5, 100.0))
    for traffic in ("PTS", "NPTS"):
        add(f"pmf_degree_certified {traffic} u=5",
            lambda t=traffic: connectivity.pmf_degree_certified(t, v2v))
    for u in (5, 35):
        for traffic in ("PTS", "NPTS"):
            add(f"rate_coverage {traffic} u={u} a=150",
                lambda t=traffic, p=params(u, 150.0):
                coverage.rate_coverage(TAU_RATE, t, p, radio(4.0)))
    # one step past the paper's sweep: raises at K_CAP on the seed code
    p50 = params(50, 150.0)
    add("pmf_tagged_pts_certified u=50 a=150",
        lambda: load.pmf_tagged_pts_certified(p50),
        lambda out, ref: _check_against_moments(out, p50))
    return calls


def _check_against_moments(pmf, p):
    """Reference-free check: a certified tagged PMF whose mean and
    variance match the closed-form moments."""
    if pmf.tail_mass >= TAIL_TOL:
        return f"tail {pmf.tail_mass:.3e} not certified"
    mo = load.moments_tagged_pts(p)
    if not abs(pmf.mean() - mo.mean) <= 1e-4 * mo.mean:
        return f"mean {pmf.mean()!r} != closed form {mo.mean!r}"
    if not abs(pmf.variance() - mo.variance) <= 1e-2 * mo.variance:
        return f"variance {pmf.variance()!r} != closed form {mo.variance!r}"
    return None


# ------------------------------------------------------------ meta_sweep

def meta_sweep():
    """Analytic coverage and meta-distribution engine (figures 8 and 9)."""
    calls = []
    r35 = radio(3.5)

    def add(label, fn, check=_exact):
        calls.append(Call(label, fn, check))

    for u in (5, 35):
        p = params(u, 150.0)
        for traffic in ("PTS", "NPTS"):
            add(f"coverage_prob {traffic} u={u}", lambda t=traffic, p=p:
                coverage.coverage_prob(TAU_SINR, t, p, r35))
            add(f"active_prob {traffic} u={u}",
                lambda t=traffic, p=p: coverage.active_prob(t, p))
    p35 = params(35, 150.0)

    def bound(tau, alpha, x):
        return lambda: CoverageMeta(tau, "PTS", p35, radio(alpha),
                                    p_active=1.0).md_noise_bound(x)

    add("md_coverage NPTS u=35 x=0.8",
        lambda: coverage.md_coverage(TAU_SINR, 0.8, "NPTS", p35, r35),
        _md(bound(TAU_SINR, 3.5, 0.8)))
    # one object across the x grid: its moment cache is shared
    shared = {}
    for x in (0.8, 0.9):
        def fn(x=x):
            if "meta" not in shared:
                shared["meta"] = CoverageMeta(TAU_SINR, "PTS", p35, r35)
            return shared["meta"].md(x)
        add(f"CoverageMeta(shared) PTS u=35 x={x}", fn,
            _md(bound(TAU_SINR, 3.5, x)))
    # the per-load terms of md_rate: a fresh object per mapped threshold
    r4 = radio(4.0)
    for k in (0, 3):
        thr = 2.0 ** (TAU_RATE * (k + 1) / r4.bandwidth) - 1.0
        add(f"CoverageMeta(rate term) PTS u=35 k={k} x=0.9",
            lambda thr=thr: CoverageMeta(thr, "PTS", p35, r4).md(0.9),
            _md(bound(thr, 4.0, 0.9)))
    return calls


# ------------------------------------------------------------ mc_validate

def _tv_check(n):
    """Empirical PMF within a total-variation gate set by n.

    E[TV] <= 1/2 sum_k sqrt(p_k (1 - p_k) / n) (Jensen), and TV moves by
    at most 1/n per replication, so by McDiarmid it exceeds its mean by
    sqrt(ln(1/delta) / (2n)) with probability below delta.
    """
    @_needs_ref
    def check(out, ref):
        p = np.asarray(ref["pmf"])
        gate = (0.5 * float(np.sqrt(p * (1 - p) / n).sum())
                + math.sqrt(math.log(1 / MC_DELTA) / (2 * n)) + TAIL_TOL)
        emp = out[0] if isinstance(out, tuple) else out
        q = np.asarray(emp.masses, dtype=float)
        size = max(p.size, q.size)
        tv = 0.5 * float(np.abs(np.pad(p, (0, size - p.size))
                                - np.pad(q, (0, size - q.size))).sum())
        if tv > gate:
            return f"TV {tv:.4f} above the gate {gate:.4f} at n={n}"
        return None
    return check


@_needs_ref
def _mean_check(est, ref):
    """MC mean within MC_Z standard errors of the analytic value plus
    the stored thinning gap; the errors of the estimate (n replications)
    and of the stored gap (GAP_REPS) add in quadrature."""
    centre = ref["analytic"] + ref["mc_gap"]
    gate = MC_Z * math.hypot(est.std_error, ref["mc_gap_se"])
    if not abs(est.value - centre) <= gate:
        return (f"MC {est.value:.5f} vs analytic {ref['analytic']:.5f} + "
                f"gap {ref['mc_gap']:.5f}: off by more than {gate:.5f} "
                f"at n={est.n}")
    return None


def mc_references():
    """Analytic counterparts of the mc_validate calls (for make_refs).

    A mean (coverage, rate) comes with the MC-minus-analytic gap measured
    at GAP_REPS replications and the standard error of that gap."""
    p5 = params(5, 100.0)
    v2v = connectivity.V2VParams(R_B, p5)
    refs = {}
    for kind in ("typical", "tagged"):
        for traffic in ("PTS", "NPTS"):
            fn = getattr(load, f"pmf_{kind}_{traffic.lower()}_certified")
            refs[f"sim_load {kind} {traffic}"] = fn(p5)
    for traffic in ("PTS", "NPTS"):
        refs[f"sim_connectivity {traffic}"] = \
            connectivity.pmf_degree_certified(traffic, v2v)

    def with_gap(analytic, label):
        est = next(c for c in mc_validate(GAP_SEED, GAP_REPS)
                   if c.label == label).fn()
        return {"analytic": analytic, "mc_gap": est.value - analytic,
                "mc_gap_se": est.std_error}
    for traffic in ("PTS", "NPTS"):
        refs[f"sim_coverage {traffic}"] = with_gap(coverage.coverage_prob(
            TAU_SINR, traffic, p5, radio(3.5)), f"sim_coverage {traffic}")
    refs["sim_rate PTS a=150"] = with_gap(coverage.rate_coverage(
        TAU_RATE, "PTS", params(5, 150.0), radio(4.0)), "sim_rate PTS a=150")
    return refs


def mc_validate(master_seed, reps=MC_REPS):
    """Monte Carlo engine at the default point, fixed replication count."""
    cfg = montecarlo.SimConfig(replications=reps, master_seed=master_seed)
    p5 = params(5, 100.0)
    v2v = connectivity.V2VParams(R_B, p5)
    r35 = radio(3.5)
    calls = []

    def add(label, fn, check):
        calls.append(Call(label, fn, check))

    for kind in ("typical", "tagged"):
        for traffic in ("PTS", "NPTS"):
            add(f"sim_load {kind} {traffic}", lambda k=kind, t=traffic:
                montecarlo.sim_load(k, t, p5, cfg), _tv_check(reps))
    for traffic in ("PTS", "NPTS"):
        add(f"sim_connectivity {traffic}",
            lambda t=traffic: montecarlo.sim_connectivity(t, v2v, cfg),
            _tv_check(reps))
    for traffic in ("PTS", "NPTS"):
        add(f"sim_coverage {traffic}", lambda t=traffic:
            montecarlo.sim_coverage(TAU_SINR, t, p5, r35, cfg), _mean_check)
    add("sim_rate PTS a=150",
        lambda: montecarlo.sim_rate(TAU_RATE, "PTS", params(5, 150.0),
                                    radio(4.0), cfg), _mean_check)
    return calls


def build(name, seed, pass_index, reps=MC_REPS):
    """Call list of one pass of workload `name`.

    The analytic workloads have no random inputs; mc_validate draws a
    master seed per pass from (seed, pass_index)."""
    if name == "load_sweep":
        return load_sweep()
    if name == "meta_sweep":
        return meta_sweep()
    if name == "mc_validate":
        master = int(np.random.SeedSequence([seed, pass_index])
                     .generate_state(1)[0])
        return mc_validate(master, reps)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("load_sweep", "meta_sweep", "mc_validate")
