"""Command-line experiment runner.

Subcommands
-----------
figure N    emit the data series behind one of the standard figures (2-9)
op NAME     evaluate one public operation and print / export the result
simulate    run one Monte Carlo estimator
validate    analytical-vs-simulation cross-check suite (TV distances etc.)

All output is CSV with a '#'-prefixed metadata header echoing the full
parameter set and seed, so files are self-describing and byte-identical
runs are reproducible from the header alone.  Densities in config files
are per km; they are converted to per meter internally.

A bad --out, config (load_config) or argument is a usage error, exit 2,
before any work; a NumericsError exits 3.  Either prints one line on
stderr and writes no file.  A failed validate check exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np

from . import connectivity, coverage, load, montecarlo
from .geometry import TRAFFICS, NetworkParams
from .coverage import RadioParams
from .connectivity import V2VParams
from .mcp_counts import DiscretePMF
from .montecarlo import SimConfig, SimEstimate
from .numerics import NumericsError

# defaults for the verification scenario (load / connectivity figures)
DEFAULT_CONFIG = {
    "scenario": "default",
    "lambda_r_per_km": 2.0,
    "lambda_p_per_km": 1.0,
    "m": 5.0,
    "a_m": 100.0,
    "lam_per_km": None,      # defaults to m * lambda_p
    "p_t_w": 1.0,
    "sigma2_w": 5e-5,
    "alpha": 3.5,
    "bandwidth_hz": 10e6,
    "tau_sinr": 0.9,
    "tau_rate_bps": 9e6,     # rate threshold interpreted in bits/s
    "x_reliability": 0.8,
    "r_b_m": 200.0,
    "u_values": [5.0, 15.0, 25.0, 35.0],
    "replications": 20000,
    "master_seed": 2024,
    "k_max": 40,
}

# figure-specific defaults: the keys a --config file sets win over them
FIGURE_OVERRIDES = {
    8: {"a_m": 150.0, "alpha": 3.5},
    9: {"a_m": 150.0, "alpha": 4.0, "x_reliability": 0.9},
}


def _finite_number(value):
    # a comparison, not math.isfinite, so that NaN and integers too large
    # for a float fail without raising
    return isinstance(value, (int, float)) \
        and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _check_types(cfg):
    """Each value has the type of its DEFAULT_CONFIG entry: a string, a
    list of finite numbers, a finite number or null where the default is
    null, else a finite number."""
    for key, default in DEFAULT_CONFIG.items():
        value = cfg[key]
        if isinstance(default, str):
            ok, want = isinstance(value, str), "a string"
        elif isinstance(default, list):
            ok = isinstance(value, list) and all(map(_finite_number, value))
            want = "a list of finite numbers"
        elif default is None:
            ok = value is None or _finite_number(value)
            want = "a finite number or null"
        else:
            ok, want = _finite_number(value), "a finite number"
        if not ok:
            raise ValueError(f"config key {key!r} must be {want}, "
                             f"not {value!r}")


def load_config(path=None, overrides=None, figure=None):
    """DEFAULT_CONFIG, then FIGURE_OVERRIDES[figure], then the JSON file's
    keys, then the non-None overrides; raises ValueError (OSError for an
    unreadable file) unless each value has its type, each parameter set
    builds and the thresholds, x_reliability and k_max are in range.
    tau_rate_bps must also keep the one-user SINR threshold
    2^(tau_rate_bps / B) - 1 a finite float: 2^x overflows from x = 1024
    on."""
    cfg = dict(DEFAULT_CONFIG, **FIGURE_OVERRIDES.get(figure, {}))
    if path:
        with open(path) as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config {path}: {exc}") from None
        if not isinstance(user, dict):
            raise ValueError(f"config {path}: not a JSON object")
        unknown = set(user) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(user)
    cfg.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    _check_types(cfg)
    build_sim(cfg)
    build_radio(cfg)
    V2VParams(cfg["r_b_m"], build_params(cfg))
    for u in cfg["u_values"]:
        build_params(cfg, u=u)
    for key, ok, want in (
            ("tau_sinr", cfg["tau_sinr"] > 0, "positive"),
            ("tau_rate_bps", 0 < cfg["tau_rate_bps"] / cfg["bandwidth_hz"]
             < sys.float_info.max_exp,
             f"positive and below {sys.float_info.max_exp} * bandwidth_hz"),
            ("x_reliability", 0 < cfg["x_reliability"] < 1, "in (0, 1)"),
            ("k_max", 0 <= cfg["k_max"] < load.N_MAX
             and cfg["k_max"] % 1 == 0,
             f"a whole number in [0, {load.N_MAX})")):
        if not ok:
            raise ValueError(f"config key {key!r} must be {want}, "
                             f"not {cfg[key]!r}")
    return cfg


def build_params(cfg, u=None):
    m = cfg["m"] if u is None else float(u)
    lp = cfg["lambda_p_per_km"]
    lam = cfg["lam_per_km"] if u is None else None
    return NetworkParams.from_per_km(cfg["lambda_r_per_km"], lp, m,
                                     cfg["a_m"], lam)


def build_radio(cfg):
    return RadioParams(cfg["p_t_w"], cfg["sigma2_w"], cfg["alpha"],
                       cfg["bandwidth_hz"])


def build_sim(cfg):
    return SimConfig(replications=cfg["replications"],
                     master_seed=cfg["master_seed"])


def write_csv(out, cfg, columns, rows, meta):
    """CSV with '#'-prefixed metadata header; deterministic formatting."""
    lines = ["# platoonnet data series"]
    for k in sorted(cfg):
        lines.append(f"# {k} = {cfg[k]!r}")
    lines.append(f"# {meta}")
    lines.append(",".join(columns))
    for row in rows:
        # float() first: NumPy 2 reprs its scalars as np.float64(...)
        lines.append(",".join(
            repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
            for v in row))
    text = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def tv_distance(p, q):
    """Total variation distance between two finite PMFs."""
    n = max(p.masses.size, q.masses.size)
    a, b = (np.pad(x.masses, (0, n - x.masses.size)) for x in (p, q))
    return 0.5 * float(np.abs(a - b).sum())


# ------------------------------------------------------------- figures

# (kind, traffic) of the four load laws, in column order
LOADS = tuple((kind, traffic) for kind in ("typical", "tagged")
              for traffic in TRAFFICS)


def _load_fn(stem, kind, traffic, suffix=""):
    """load.<stem>_<kind>_<traffic><suffix>, e.g. load.pmf_tagged_pts."""
    return getattr(load, f"{stem}_{kind}_{traffic.lower()}{suffix}")


def _u_sweep(cfg, cols, row_of):
    """One row [u, *row_of(params)] per density u = m = lam/lambda_p."""
    return cols, [[float(u)] + row_of(build_params(cfg, u=u))
                  for u in cfg["u_values"]]


def figure_2(cfg):
    """Verification PMFs: analytical vs simulated load distributions."""
    params = build_params(cfg)
    sim = build_sim(cfg)
    K = int(cfg["k_max"])
    analytic = [_load_fn("pmf", kind, t)(K, params) for kind, t in LOADS]
    mc = [montecarlo.sim_load(kind, t, params, sim) for kind, t in LOADS]
    names = [f"{kind[:3]}_{t}" for kind, t in LOADS]
    cols = ["k"] + [f"pmf_{n}" for n in names] + [f"mc_{n}" for n in names]
    rows = [[k] + [float(p.masses[k]) for p in analytic]
            + [float(p.masses[k]) if k < p.masses.size else 0.0 for p in mc]
            for k in range(K + 1)]
    return cols, rows


def _moment_sweep(cfg, kind):
    def row_of(params):
        mp, mn = (_load_fn("moments", kind, t)(params) for t in TRAFFICS)
        return [mp.mean, mn.mean, mp.variance, mn.variance,
                mp.skewness, mn.skewness]
    cols = ["u", "mean_PTS", "mean_NPTS", "var_PTS", "var_NPTS",
            "skew_PTS", "skew_NPTS"]
    return _u_sweep(cfg, cols, row_of)


def figure_3(cfg):
    """Typical-RSU load moments across the density sweep."""
    return _moment_sweep(cfg, "typical")


def figure_4(cfg):
    """Tagged-RSU load moments across the density sweep."""
    return _moment_sweep(cfg, "tagged")


def figure_5(cfg):
    """RSU off probability across the density sweep."""
    return _u_sweep(cfg, ["u", "p_off_PTS", "p_off_NPTS"], lambda p: [
        1.0 - coverage.active_prob(t, p) for t in TRAFFICS])


def figure_6(cfg):
    """Below-average-loading metrics for typical and tagged RSUs."""
    def row_of(params):
        m = {(kind, t): load.operational_metrics(
                 _load_fn("pmf", kind, t, "_certified")(params), kind)
             for kind, t in LOADS}
        return ([m["typical", t]["p_b"] for t in TRAFFICS]
                + [m["tagged", t][key] for key in
                   ("P1_mass_at_one", "P1_zero_extra_load", "P_b")
                   for t in TRAFFICS])
    cols = ["u", "p_b_PTS", "p_b_NPTS", "P1_PTS", "P1_NPTS",
            "P1_zero_extra_PTS", "P1_zero_extra_NPTS", "P_b_PTS",
            "P_b_NPTS"]
    return _u_sweep(cfg, cols, row_of)


def figure_7(cfg):
    """Connectivity exceedance curves P[N > k] for both traffic models."""
    params = build_params(cfg)
    v2v = V2VParams(cfg["r_b_m"], params)
    K = int(cfg["k_max"])
    pp, pn = (connectivity.pmf_degree_pts(K, v2v),
              connectivity.pmf_degree_npts(K, v2v))
    rows = [[k, pp.ccdf(k), pn.ccdf(k)] for k in range(K + 1)]
    return ["k", "p_s_PTS", "p_s_NPTS"], rows


def figure_8(cfg):
    """Coverage probability, active probability and MD sweep."""
    radio = build_radio(cfg)
    tau, x = cfg["tau_sinr"], cfg["x_reliability"]
    cols = ["u", "CP_PTS", "CP_NPTS", "active_PTS", "active_NPTS",
            "MD_PTS", "MD_NPTS"]
    return _u_sweep(cfg, cols, lambda p: (
        [coverage.coverage_prob(tau, t, p, radio) for t in TRAFFICS]
        + [coverage.active_prob(t, p) for t in TRAFFICS]
        + [coverage.md_coverage(tau, x, t, p, radio) for t in TRAFFICS]))


def figure_9(cfg):
    """Rate coverage and its meta distribution across the sweep."""
    radio = build_radio(cfg)
    tau, x = cfg["tau_rate_bps"], cfg["x_reliability"]
    cols = ["u", "RC_PTS", "RC_NPTS", "MD_RC_PTS", "MD_RC_NPTS"]
    return _u_sweep(cfg, cols, lambda p: (
        [coverage.rate_coverage(tau, t, p, radio) for t in TRAFFICS]
        + [coverage.md_rate(tau, x, t, p, radio) for t in TRAFFICS]))


FIGURES = {2: figure_2, 3: figure_3, 4: figure_4, 5: figure_5,
           6: figure_6, 7: figure_7, 8: figure_8, 9: figure_9}


# ------------------------------------------------------------------ ops

def _rows(out):
    """[(label, value), ...] of a result, shaped by its type."""
    if isinstance(out, load.LoadMoments):
        return [("mean", out.mean), ("variance", out.variance),
                ("third_moment", out.third_moment),
                ("skewness", out.skewness)]
    if isinstance(out, DiscretePMF):
        return [(f"p_{k}", float(p)) for k, p in enumerate(out.masses)]
    if isinstance(out, SimEstimate):
        return [("value", out.value), ("std_error", out.std_error),
                ("n", out.n)]
    return [("value", float(out))]


def _op(name, cfg):
    """Zero-argument callable of the public operation `name` on cfg; an
    unknown name raises ValueError listing the available ones."""
    params = build_params(cfg)
    radio = build_radio(cfg)
    tau, tau_r, x = cfg["tau_sinr"], cfg["tau_rate_bps"], cfg["x_reliability"]
    K = int(cfg["k_max"])
    v2v = V2VParams(cfg["r_b_m"], params)
    ops = {}
    for kind, traffic in LOADS:
        law = f"{kind}_{traffic.lower()}"
        ops[f"moments_{law}"] = partial(_load_fn("moments", kind, traffic),
                                        params)
        ops[f"pmf_{law}"] = partial(_load_fn("pmf", kind, traffic),
                                    K, params)
    for traffic in TRAFFICS:
        t = traffic.lower()
        ops[f"pmf_degree_{t}"] = partial(
            getattr(connectivity, f"pmf_degree_{t}"), K, v2v)
        ops[f"active_prob_{t}"] = partial(coverage.active_prob, traffic,
                                          params)
        ops[f"coverage_prob_{t}"] = partial(
            coverage.coverage_prob, tau, traffic, params, radio)
        ops[f"md_coverage_{t}"] = partial(
            coverage.md_coverage, tau, x, traffic, params, radio)
        ops[f"rate_coverage_{t}"] = partial(
            coverage.rate_coverage, tau_r, traffic, params, radio)
        ops[f"md_rate_{t}"] = partial(
            coverage.md_rate, tau_r, x, traffic, params, radio)
    if name not in ops:
        raise ValueError(
            f"unknown op {name!r}; available: {', '.join(sorted(ops))}")
    return ops[name]


# ------------------------------------------------------------- simulate

SIM_TARGETS = ("load_typical", "load_tagged", "connectivity", "coverage",
               "md_coverage", "rate", "md_rate")


def _simulation(target, traffic, cfg):
    """Zero-argument callable of the Monte Carlo estimator `target` of
    `traffic` on cfg, montecarlo.sim_<target> for the coverage ones."""
    params, radio, sim = build_params(cfg), build_radio(cfg), build_sim(cfg)
    tau, tau_r, x = cfg["tau_sinr"], cfg["tau_rate_bps"], cfg["x_reliability"]
    table = {f"load_{kind}": partial(montecarlo.sim_load, kind, traffic,
                                     params, sim)
             for kind in ("typical", "tagged")}
    table["connectivity"] = partial(montecarlo.sim_connectivity, traffic,
                                    V2VParams(cfg["r_b_m"], params), sim)
    for name, head in (("coverage", (tau,)), ("md_coverage", (tau, x)),
                       ("rate", (tau_r,)), ("md_rate", (tau_r, x))):
        table[name] = partial(getattr(montecarlo, f"sim_{name}"), *head,
                              traffic, params, radio, sim)
    return table[target]


# ------------------------------------------------------------- validate

def validate_checks(cfg, tolerance):
    """(name, gap, noise bound) of each analytical-vs-simulation check of
    `validate`, where gap(sim) simulates and returns the gap and its MC
    standard error (None for a TV check); worked out before any of that.

    The noise bound of a TV check, 1/2 sum_k sqrt(p_k (1 - p_k) / n) at n
    replications, bounds the mean TV distance of the empirical PMF from
    the analytic p (Jensen).  A check whose bound reaches the tolerance
    can fail on correct code, so then ValueError names the smallest
    --reps that clears every bound.  Coverage gaps have no bound (None).
    """
    if not tolerance > 0:
        raise ValueError(f"--tolerance must be positive, not {tolerance}")
    params, radio = build_params(cfg), build_radio(cfg)
    v2v = V2VParams(cfg["r_b_m"], params)
    n = build_sim(cfg).replications
    pmfs = [(f"load_{kind}_{traffic}",
             _load_fn("pmf", kind, traffic, "_certified")(params),
             partial(montecarlo.sim_load, kind, traffic, params))
            for kind, traffic in LOADS]
    pmfs += [(f"connectivity_{traffic}",
              connectivity.pmf_degree_certified(traffic, v2v),
              partial(montecarlo.sim_connectivity, traffic, v2v))
             for traffic in TRAFFICS]
    checks = [(name, lambda sim, p=p, f=f: (tv_distance(p, f(sim)), None),
               0.5 * float(np.sqrt(p.masses * (1 - p.masses) / n).sum()))
              for name, p, f in pmfs]
    worst = max(bound for *_, bound in checks)
    if not worst < tolerance:
        raise ValueError(
            f"--reps {n} is too few for --tolerance {tolerance}: sampling "
            f"noise alone may give a TV gap of {worst:.4f}; use --reps "
            f"{math.floor(n * (worst / tolerance) ** 2) + 1} or more")
    tau = cfg["tau_sinr"]

    def coverage_gap(traffic, sim):
        est = montecarlo.sim_coverage(tau, traffic, params, radio, sim)
        return abs(est.value - coverage.coverage_prob(
            tau, traffic, params, radio)), est.std_error

    return checks + [(f"coverage_{traffic}", partial(coverage_gap, traffic),
                      None) for traffic in TRAFFICS]


# ----------------------------------------------------------------- main

def _add_common(p):
    p.add_argument("--config", help="JSON config file (per-km densities)")
    p.add_argument("--seed", type=int, help="master RNG seed")
    p.add_argument("--reps", type=int, help="Monte Carlo replications")
    p.add_argument("--out", help="output CSV path ('-' for stdout)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="platoonnet",
        description="Stochastic-geometry toolkit for platooned highway "
                    "networks: load, connectivity, coverage and rate "
                    "analysis with a Monte Carlo cross-check engine.")
    sub = ap.add_subparsers(dest="command", required=True)
    f = sub.add_parser("figure", help="emit a standard figure data series")
    f.add_argument("n", type=int, choices=sorted(FIGURES))
    _add_common(f)
    o = sub.add_parser("op", help="evaluate one analytical operation")
    o.add_argument("name")
    _add_common(o)
    s = sub.add_parser("simulate", help="run one Monte Carlo estimator")
    s.add_argument("target", choices=SIM_TARGETS)
    s.add_argument("--traffic", choices=TRAFFICS, default="PTS")
    _add_common(s)
    v = sub.add_parser("validate",
                       help="analytical-vs-simulation cross-check suite")
    _add_common(v)
    v.add_argument("--tolerance", type=float, default=0.02,
                   help="validation tolerance (TV / absolute gap)")
    return ap


def _run_checks(checks, sim, tolerance):
    """Run the checks of validate_checks with one status line each on
    stderr; returns the CSV's columns and rows."""
    rows = []
    for name, check, bound in checks:
        start = time.perf_counter()
        gap, se = check(sim)
        seconds = time.perf_counter() - start
        rows.append([name, gap, "PASS" if gap < tolerance else "FAIL"])
        noise = f" se={se:.5f}" if bound is None \
            else f" noise_bound={bound:.5f}"
        print(f"{rows[-1][2]} {name}: gap={gap:.5f}{noise} "
              f"time={seconds:.2f}s", file=sys.stderr)
    return ["check", "gap", "status"], rows


def _job(args, cfg):
    """(job, metadata line) of a parsed command line, where job() does the
    work and returns the CSV's columns and rows.  Raises every usage error
    of the command before any work."""
    if args.command == "figure":
        return partial(FIGURES[args.n], cfg), f"figure {args.n}"
    if args.command == "validate":
        return partial(_run_checks, validate_checks(cfg, args.tolerance),
                       build_sim(cfg), args.tolerance), "validate"
    if args.command == "op":
        f, meta = _op(args.name, cfg), f"op {args.name}"
    else:
        f = _simulation(args.target, args.traffic, cfg)
        meta = f"simulate {args.target} {args.traffic}"
    return lambda: (["quantity", "value"], _rows(f())), meta


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        try:
            if args.out not in (None, "-") and (os.path.isdir(args.out) or
                    not os.access(os.path.dirname(args.out) or ".", os.W_OK)):
                raise ValueError(f"--out {args.out}: not a writable file")
            cfg = load_config(args.config, {"master_seed": args.seed,
                                            "replications": args.reps},
                              getattr(args, "n", None))
            job, meta = _job(args, cfg)
        except (OSError, ValueError) as exc:
            ap.exit(2, f"{ap.prog}: error: {exc}\n")
        cols, rows = job()
    except NumericsError as exc:
        ap.exit(3, f"{ap.prog}: error: {exc}\n")
    write_csv(args.out, cfg, cols, rows, meta)
    failed = args.command == "validate" and "FAIL" in (r[2] for r in rows)
    return 1 if failed else 0
