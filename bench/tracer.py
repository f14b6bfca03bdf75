"""Spans around each layer's public functions, installed from outside
the package by replacing module attributes for the length of a pass.

A name is patched in every module that imports it (`from .x import f`
binds a second reference), so `load.pmf_S` and `connectivity.pmf_S` both
land in the span `mcp_counts.pmf_S`.  A span records its name, start, end
and the index of its parent span; spans stay in memory until the run
writes them out.  Self time is a span's duration minus the durations of
its direct children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []
        self._seen = weakref.WeakKeyDictionary()
        self._counted: set[str] = set()

    # ------------------------------------------------------------ spans

    def wrap(self, name, fn, after=None):
        """fn with a span `name` around each call; after(args, kwargs,
        out) runs once the call has returned."""
        names, start, end, parent, stack = (self.names, self.start,
                                            self.end, self.parent,
                                            self._stack)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    def count(self, name, fn, inside=None):
        """fn with its calls counted but no span, for calls too numerous
        or too fine to time; calls made directly inside a span named
        `inside` are counted again under `name` + ":" + inside."""
        counts, names, stack = self.counts, self.names, self._stack
        self._counted.add(name)

        def counting(*args, **kwargs):
            counts[name] += 1
            if inside is not None and stack and names[stack[-1]] == inside:
                counts[f"{name}:{inside}"] += 1
            return fn(*args, **kwargs)
        return counting

    def _patch(self, name, owners, attr, after=None, span=True,
               inside=None):
        present = [o for o in owners if attr in vars(o)]
        if not present:
            return  # the layer no longer has this function
        original = vars(present[0])[attr]
        traced = self.wrap(name, original, after) if span \
            else self.count(name, original, inside)
        for owner in present:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, traced)

    # ------------------------------------------------------- installing

    def install(self):
        import mpmath
        from scipy import integrate

        from platoonnet import (connectivity, coverage, geometry, load,
                                mcp_counts, montecarlo, numerics)
        from platoonnet.coverage import CoverageMeta
        from platoonnet.numerics import NumericsError

        c = self.counts
        p = self._patch

        def masses(args, kwargs, out):
            c["pmf_S.masses"] += len(out.masses)
        p("mcp_counts.pmf_S", (mcp_counts, load, connectivity), "pmf_S",
          masses)

        truncation = [m for m in (mcp_counts, load, connectivity)
                      if "choose_truncation" in vars(m)]
        if truncation:
            original = vars(truncation[0])["choose_truncation"]

            def choose_truncation(mass_at, *args, **kwargs):
                def attempt(K):
                    c["truncation.attempts"] += 1
                    c["truncation.tried"] += K + 1
                    return mass_at(K)
                try:
                    K, m = original(attempt, *args, **kwargs)
                except NumericsError:
                    c["truncation.cap_failures"] += 1
                    raise
                c["truncation.useful"] += K + 1
                return K, m
            for owner in truncation:
                self._patches.append((owner, "choose_truncation",
                                      vars(owner)["choose_truncation"]))
                owner.choose_truncation = self.wrap(
                    "mcp_counts.choose_truncation", choose_truncation)

        for attr in ("pmf_typical_pts", "pmf_typical_npts",
                     "pmf_tagged_pts", "pmf_tagged_npts"):
            p("load.pmf", (load,), attr)
        p("load.pmf_vm", (load,), "pmf_vm")
        for attr in ("moments_typical_pts", "moments_typical_npts",
                     "moments_tagged_pts", "moments_tagged_npts"):
            p("load.moments", (load,), attr)
        for attr in ("pmf_typical_pts_certified",
                     "pmf_typical_npts_certified",
                     "pmf_tagged_pts_certified",
                     "pmf_tagged_npts_certified"):
            p("load.certified", (load, coverage), attr)
        p("geometry.cell_quantile", (geometry, load), "cell_quantile")
        p("connectivity.pmf_degree", (connectivity,), "pmf_degree_certified")

        p("coverage.coverage_prob", (coverage,), "coverage_prob")
        p("coverage.rate_coverage", (coverage,), "rate_coverage")
        p("coverage.active_prob", (coverage,), "active_prob")

        seen = self._seen

        def miss(args, kwargs, out):
            ts = seen.setdefault(args[0], set())
            t = float(args[1])
            if t not in ts:
                ts.add(t)
                c["moment_it.misses"] += 1
        p("coverage.moment_it", (CoverageMeta,), "moment_it", miss)

        def bound_return(args, kwargs, out):
            x = args[1] if len(args) > 1 else kwargs["x"]
            if out == args[0].md_noise_bound(x):
                c["md.noise_bound_returns"] += 1
        p("coverage.md", (CoverageMeta,), "md", bound_return)
        # the inner integrals and every quadrature are counted, not
        # timed: their time stays in the self time of the layer calling
        p("coverage.mpmath_hyp2f1", (mpmath,), "hyp2f1", span=False)
        p("coverage.mpmath_gammainc", (mpmath,), "gammainc", span=False)
        p("numerics.gil_pelaez_invert", (numerics, coverage),
          "gil_pelaez_invert")
        p("numerics.quad", (integrate,), "quad", span=False,
          inside="numerics.gil_pelaez_invert")

        p("geometry.replication_rng", (geometry, montecarlo),
          "replication_rng")
        for attr in ("sim_load", "sim_connectivity", "sim_coverage",
                     "sim_rate"):
            def reps(args, kwargs, out, attr=attr):
                cfg = kwargs.get("cfg", args[-1] if args else None)
                c[f"{attr}.reps"] += getattr(cfg, "replications", 0)
            p(f"montecarlo.{attr}", (montecarlo,), attr, reps)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- metrics

    def self_times(self):
        n = len(self.names)
        dur = np.asarray(self.end[:n]) - np.asarray(self.start[:n])
        par = np.asarray(self.parent[:n], dtype=np.int64)
        children = np.zeros(n)
        has = par >= 0
        np.add.at(children, par[has], dur[has])
        return dur, dur - children

    def layer_metrics(self):
        """Per-layer counts and times of everything recorded so far."""
        dur, own = self.self_times()
        names = np.asarray(self.names, dtype=object)
        par = np.asarray(self.parent, dtype=np.int64)
        parent_names = np.where(par >= 0, names[np.maximum(par, 0)], "")

        def sel(name):
            return names == name

        def calls(name):
            return int(np.count_nonzero(sel(name)))

        def self_s(*ns):
            return float(sum(own[sel(n)].sum() for n in ns))

        def incl_s(name):
            return float(dur[sel(name)].sum())

        c = self.counts
        tried = c["truncation.tried"]
        m = {
            "mcp_counts.pmf_S.calls": calls("mcp_counts.pmf_S"),
            "mcp_counts.pmf_S.masses": c["pmf_S.masses"],
            "mcp_counts.pmf_S.self_s": self_s("mcp_counts.pmf_S"),
            "mcp_counts.choose_truncation.attempts":
                c["truncation.attempts"],
            "mcp_counts.choose_truncation.useful_frac":
                c["truncation.useful"] / tried if tried else 0.0,
            "mcp_counts.choose_truncation.cap_failures":
                c["truncation.cap_failures"],
            "load.pmf.self_s": self_s("load.pmf"),
            "load.pmf_vm.self_s": self_s("load.pmf_vm"),
            "load.moments.self_s": self_s("load.moments"),
            "load.certified.calls": calls("load.certified"),
            "load.certified.s": incl_s("load.certified"),
            "geometry.cell_quantile.calls": calls("geometry.cell_quantile"),
            "geometry.cell_quantile.self_s":
                self_s("geometry.cell_quantile"),
            "connectivity.pmf_degree.s": incl_s("connectivity.pmf_degree"),
            "coverage.coverage_prob.calls": calls("coverage.coverage_prob"),
            "coverage.coverage_prob.self_s":
                self_s("coverage.coverage_prob"),
            "coverage.rate_coverage.terms": int(np.count_nonzero(
                sel("coverage.coverage_prob")
                & (parent_names == "coverage.rate_coverage"))),
            "coverage.active_prob.s": incl_s("coverage.active_prob"),
            "coverage.moment_it.calls": calls("coverage.moment_it"),
            "coverage.moment_it.misses": c["moment_it.misses"],
            "coverage.moment_it.self_s": self_s("coverage.moment_it"),
            "coverage.mpmath_hyp2f1.calls": c["coverage.mpmath_hyp2f1"],
            "coverage.mpmath_gammainc.calls": c["coverage.mpmath_gammainc"],
            "coverage.md.calls": calls("coverage.md"),
            "coverage.md.noise_bound_returns": c["md.noise_bound_returns"],
            "numerics.gil_pelaez_invert.calls":
                calls("numerics.gil_pelaez_invert"),
            "numerics.gil_pelaez_invert.self_s":
                self_s("numerics.gil_pelaez_invert"),
            "numerics.gil_pelaez_invert.panels":
                c["numerics.quad:numerics.gil_pelaez_invert"],
            "numerics.quad.calls": c["numerics.quad"],
            "geometry.replication_rng.calls":
                calls("geometry.replication_rng"),
            "geometry.replication_rng.self_s":
                self_s("geometry.replication_rng"),
        }
        sims = ("sim_load", "sim_connectivity", "sim_coverage", "sim_rate")
        total_reps = sum(c[f"{s}.reps"] for s in sims)
        sim_s = sum(incl_s(f"montecarlo.{s}") for s in sims)
        m["montecarlo.reps"] = total_reps
        m["montecarlo.reps_per_s"] = total_reps / sim_s if sim_s else 0.0
        for s in sims:
            reps = c[f"{s}.reps"]
            m[f"montecarlo.{s}.us_per_rep"] = \
                1e6 * incl_s(f"montecarlo.{s}") / reps if reps else 0.0
        return m

    def overhead_frac(self, wall):
        """Estimated tracer cost of a pass that took `wall` seconds, as a
        share of the pass without it: the spans and counted calls it
        recorded, each at the cost measured by wrapper_costs()."""
        span, counted = wrapper_costs()
        cost = (len(self.names) * span
                + sum(self.counts[n] for n in self._counted) * counted)
        return cost / (wall - cost)

    def dump(self):
        """Spans in a compact JSON-ready form."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {"names": table,
                "spans": [[index[n], s, e, p] for n, s, e, p in
                          zip(self.names, self.start, self.end,
                              self.parent)]}


@functools.cache
def wrapper_costs(n=20000, repeats=5):
    """Seconds that one span and one counted call add to a call: the best
    of `repeats` batches of n calls to a no-op, wrapped minus bare."""
    probe = Tracer()

    def noop():
        return None

    def per_call(fn):
        best = math.inf
        for _ in range(repeats):
            t = perf_counter()
            for _ in range(n):
                fn()
            best = min(best, perf_counter() - t)
        return best / n

    bare = per_call(noop)
    return (per_call(probe.wrap("probe", noop)) - bare,
            per_call(probe.count("probe", noop)) - bare)


# metrics whose values are counts: they must repeat exactly across runs
COUNT_METRICS = (
    "mcp_counts.pmf_S.calls", "mcp_counts.pmf_S.masses",
    "mcp_counts.choose_truncation.attempts",
    "mcp_counts.choose_truncation.useful_frac",
    "mcp_counts.choose_truncation.cap_failures",
    "load.certified.calls", "geometry.cell_quantile.calls",
    "coverage.coverage_prob.calls", "coverage.rate_coverage.terms",
    "coverage.moment_it.calls", "coverage.moment_it.misses",
    "coverage.mpmath_hyp2f1.calls", "coverage.mpmath_gammainc.calls",
    "coverage.md.calls", "coverage.md.noise_bound_returns",
    "numerics.gil_pelaez_invert.calls", "numerics.gil_pelaez_invert.panels",
    "numerics.quad.calls", "geometry.replication_rng.calls",
    "montecarlo.reps",
)
