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
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import connectivity, coverage, load, montecarlo
from .geometry import NetworkParams
from .coverage import RadioParams
from .connectivity import V2VParams
from .montecarlo import SimConfig

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
    "fading_draws": 500,
    "master_seed": 2024,
    "k_max": 40,
}

# figure-specific overrides applied on top of the base config
FIGURE_OVERRIDES = {
    8: {"a_m": 150.0, "alpha": 3.5},
    9: {"a_m": 150.0, "alpha": 4.0, "x_reliability": 0.9},
}


def load_config(path=None, overrides=None):
    cfg = dict(DEFAULT_CONFIG)
    if path:
        with open(path) as fh:
            user = json.load(fh)
        unknown = set(user) - set(cfg)
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
        cfg.update(user)
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
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
    return SimConfig(replications=int(cfg["replications"]),
                     master_seed=int(cfg["master_seed"]),
                     fading_draws_per_geometry=int(cfg["fading_draws"]))


def write_csv(out, cfg, columns, rows, extra_meta=()):
    """CSV with '#'-prefixed metadata header; deterministic formatting."""
    lines = ["# platoonnet data series"]
    for k in sorted(cfg):
        lines.append(f"# {k} = {cfg[k]!r}")
    for item in extra_meta:
        lines.append(f"# {item}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _pad(masses, K):
    out = np.zeros(K + 1)
    n = min(K + 1, masses.size)
    out[:n] = masses[:n]
    return out


def tv_distance(p, q):
    """Total variation distance between two finite PMFs."""
    K = max(p.masses.size, q.masses.size) - 1
    return 0.5 * float(np.abs(_pad(p.masses, K) - _pad(q.masses, K)).sum())


# ------------------------------------------------------------- figures

def figure_2(cfg):
    """Verification PMFs: analytical vs simulated load distributions."""
    params = build_params(cfg)
    sim = build_sim(cfg)
    K = int(cfg["k_max"])
    analytic = {
        "typ_PTS": load.pmf_typical_pts(K, params),
        "typ_NPTS": load.pmf_typical_npts(K, params),
        "tag_PTS": load.pmf_tagged_pts(K, params),
        "tag_NPTS": load.pmf_tagged_npts(K, params),
    }
    mc = {
        "typ_PTS": montecarlo.sim_load("typical", "PTS", params, sim)[0],
        "typ_NPTS": montecarlo.sim_load("typical", "NPTS", params, sim)[0],
        "tag_PTS": montecarlo.sim_load("tagged", "PTS", params, sim)[0],
        "tag_NPTS": montecarlo.sim_load("tagged", "NPTS", params, sim)[0],
    }
    names = list(analytic)
    cols = ["k"] + [f"pmf_{n}" for n in names] + [f"mc_{n}" for n in names]
    rows = []
    for k in range(K + 1):
        row = [k]
        row += [float(analytic[n].masses[k]) for n in names]
        row += [float(mc[n].masses[k]) if k < mc[n].masses.size else 0.0
                for n in names]
        rows.append(row)
    return cols, rows


def _moment_sweep(cfg, tagged):
    rows = []
    for u in cfg["u_values"]:
        params = build_params(cfg, u=u)
        if tagged:
            mp = load.moments_tagged_pts(params)
            mn = load.moments_tagged_npts(params)
        else:
            mp = load.moments_typical_pts(params)
            mn = load.moments_typical_npts(params)
        rows.append([float(u), mp.mean, mn.mean, mp.variance, mn.variance,
                     mp.skewness, mn.skewness])
    cols = ["u", "mean_PTS", "mean_NPTS", "var_PTS", "var_NPTS",
            "skew_PTS", "skew_NPTS"]
    return cols, rows


def figure_3(cfg):
    """Typical-RSU load moments across the density sweep."""
    return _moment_sweep(cfg, tagged=False)


def figure_4(cfg):
    """Tagged-RSU load moments across the density sweep."""
    return _moment_sweep(cfg, tagged=True)


def figure_5(cfg):
    """RSU off probability across the density sweep."""
    rows = []
    for u in cfg["u_values"]:
        params = build_params(cfg, u=u)
        rows.append([float(u),
                     1.0 - coverage.active_prob("PTS", params),
                     1.0 - coverage.active_prob("NPTS", params)])
    return ["u", "p_off_PTS", "p_off_NPTS"], rows


def figure_6(cfg):
    """Below-average-loading metrics for typical and tagged RSUs."""
    rows = []
    for u in cfg["u_values"]:
        params = build_params(cfg, u=u)
        tp = load.operational_metrics(
            load.pmf_typical_pts_certified(params), "typical")
        tn = load.operational_metrics(
            load.pmf_typical_npts_certified(params), "typical")
        gp = load.operational_metrics(
            load.pmf_tagged_pts_certified(params), "tagged")
        gn = load.operational_metrics(
            load.pmf_tagged_npts_certified(params), "tagged")
        rows.append([float(u), tp["p_b"], tn["p_b"],
                     gp["P1_mass_at_one"], gn["P1_mass_at_one"],
                     gp["P1_zero_extra_load"], gn["P1_zero_extra_load"],
                     gp["P_b"], gn["P_b"]])
    cols = ["u", "p_b_PTS", "p_b_NPTS", "P1_PTS", "P1_NPTS",
            "P1_zero_extra_PTS", "P1_zero_extra_NPTS", "P_b_PTS",
            "P_b_NPTS"]
    return cols, rows


def figure_7(cfg):
    """Connectivity exceedance curves P[N > k] for both traffic models."""
    params = build_params(cfg)
    v2v = V2VParams(cfg["r_b_m"], params)
    pp = connectivity.pmf_degree_certified("PTS", v2v)
    pn = connectivity.pmf_degree_certified("NPTS", v2v)
    K = int(cfg["k_max"])
    rows = [[k,
             connectivity.prob_degree_exceeds(k, pp),
             connectivity.prob_degree_exceeds(k, pn)]
            for k in range(K + 1)]
    return ["k", "p_s_PTS", "p_s_NPTS"], rows


def figure_8(cfg):
    """Coverage probability, active probability and MD sweep."""
    radio = build_radio(cfg)
    base = build_params(cfg)
    rows = coverage.coverage_series(cfg["u_values"], base, radio,
                                    cfg["tau_sinr"], x=cfg["x_reliability"])
    cols = ["u", "CP_PTS", "CP_NPTS", "active_PTS", "active_NPTS",
            "MD_PTS", "MD_NPTS"]
    return cols, [[float(v) for v in row] for row in rows]


def figure_9(cfg):
    """Rate coverage and its meta distribution across the sweep."""
    radio = build_radio(cfg)
    tau, x = cfg["tau_rate_bps"], cfg["x_reliability"]
    rows = []
    for u in cfg["u_values"]:
        params = build_params(cfg, u=u)
        rows.append([float(u),
                     coverage.rate_coverage(tau, "PTS", params, radio),
                     coverage.rate_coverage(tau, "NPTS", params, radio),
                     coverage.md_rate(tau, x, "PTS", params, radio),
                     coverage.md_rate(tau, x, "NPTS", params, radio)])
    return ["u", "RC_PTS", "RC_NPTS", "MD_RC_PTS", "MD_RC_NPTS"], rows


FIGURES = {2: figure_2, 3: figure_3, 4: figure_4, 5: figure_5,
           6: figure_6, 7: figure_7, 8: figure_8, 9: figure_9}


# ------------------------------------------------------------------ ops

def _op_scalar(value):
    return [("value", float(value))]


def run_op(name, cfg):
    """Evaluate one public operation; returns [(label, value), ...]."""
    params = build_params(cfg)
    radio = build_radio(cfg)
    tau, tau_r, x = cfg["tau_sinr"], cfg["tau_rate_bps"], cfg["x_reliability"]
    K = int(cfg["k_max"])
    v2v = V2VParams(cfg["r_b_m"], params)
    moments = {
        "moments_typical_pts": load.moments_typical_pts,
        "moments_typical_npts": load.moments_typical_npts,
        "moments_tagged_pts": load.moments_tagged_pts,
        "moments_tagged_npts": load.moments_tagged_npts,
    }
    pmfs = {
        "pmf_typical_pts": lambda: load.pmf_typical_pts(K, params),
        "pmf_typical_npts": lambda: load.pmf_typical_npts(K, params),
        "pmf_tagged_pts": lambda: load.pmf_tagged_pts(K, params),
        "pmf_tagged_npts": lambda: load.pmf_tagged_npts(K, params),
        "pmf_degree_pts": lambda: connectivity.pmf_degree_pts(K, v2v),
        "pmf_degree_npts": lambda: connectivity.pmf_degree_npts(K, v2v),
    }
    if name in moments:
        mo = moments[name](params)
        return [("mean", mo.mean), ("variance", mo.variance),
                ("third_moment", mo.third_moment),
                ("skewness", mo.skewness)]
    if name in pmfs:
        pmf = pmfs[name]()
        return [(f"p_{k}", float(p)) for k, p in enumerate(pmf.masses)]
    scalars = {
        "active_prob_pts": lambda: coverage.active_prob("PTS", params),
        "active_prob_npts": lambda: coverage.active_prob("NPTS", params),
        "coverage_prob_pts":
            lambda: coverage.coverage_prob(tau, "PTS", params, radio),
        "coverage_prob_npts":
            lambda: coverage.coverage_prob(tau, "NPTS", params, radio),
        "md_coverage_pts":
            lambda: coverage.md_coverage(tau, x, "PTS", params, radio),
        "md_coverage_npts":
            lambda: coverage.md_coverage(tau, x, "NPTS", params, radio),
        "rate_coverage_pts":
            lambda: coverage.rate_coverage(tau_r, "PTS", params, radio),
        "rate_coverage_npts":
            lambda: coverage.rate_coverage(tau_r, "NPTS", params, radio),
        "md_rate_pts":
            lambda: coverage.md_rate(tau_r, x, "PTS", params, radio),
        "md_rate_npts":
            lambda: coverage.md_rate(tau_r, x, "NPTS", params, radio),
    }
    if name in scalars:
        return _op_scalar(scalars[name]())
    known = sorted(list(moments) + list(pmfs) + list(scalars))
    raise SystemExit(f"unknown op {name!r}; available: {', '.join(known)}")


# ------------------------------------------------------------- simulate

SIM_TARGETS = ("load_typical", "load_tagged", "connectivity", "coverage",
               "md_coverage", "rate", "md_rate")


def run_simulate(target, traffic, cfg):
    params = build_params(cfg)
    radio = build_radio(cfg)
    sim = build_sim(cfg)
    tau, tau_r, x = cfg["tau_sinr"], cfg["tau_rate_bps"], cfg["x_reliability"]
    if target in ("load_typical", "load_tagged"):
        kind = target.split("_")[1]
        pmf, _ = montecarlo.sim_load(kind, traffic, params, sim)
        return [(f"p_{k}", float(p)) for k, p in enumerate(pmf.masses)]
    if target == "connectivity":
        v2v = V2VParams(cfg["r_b_m"], params)
        pmf = montecarlo.sim_connectivity(traffic, v2v, sim)
        return [(f"p_{k}", float(p)) for k, p in enumerate(pmf.masses)]
    est = {
        "coverage": lambda: montecarlo.sim_coverage(
            tau, traffic, params, radio, sim),
        "md_coverage": lambda: montecarlo.sim_md_coverage(
            tau, x, traffic, params, radio, sim),
        "rate": lambda: montecarlo.sim_rate(
            tau_r, traffic, params, radio, sim),
        "md_rate": lambda: montecarlo.sim_md_rate(
            tau_r, x, traffic, params, radio, sim),
    }[target]()
    return [("value", est.value), ("std_error", est.std_error),
            ("n", est.n)]


# ------------------------------------------------------------- validate

def run_validate(cfg, tolerance):
    """Analytical-vs-simulation cross checks; returns (rows, n_failed)."""
    params = build_params(cfg)
    sim = build_sim(cfg)
    radio = build_radio(cfg)
    K = int(cfg["k_max"])
    checks = []
    for kind, fn in (("typical", {"PTS": load.pmf_typical_pts_certified,
                                  "NPTS": load.pmf_typical_npts_certified}),
                     ("tagged", {"PTS": load.pmf_tagged_pts_certified,
                                 "NPTS": load.pmf_tagged_npts_certified})):
        for traffic, pmf_fn in fn.items():
            emp, _ = montecarlo.sim_load(kind, traffic, params, sim)
            checks.append((f"load_{kind}_{traffic}",
                           tv_distance(pmf_fn(params), emp)))
    v2v = V2VParams(cfg["r_b_m"], params)
    for traffic in ("PTS", "NPTS"):
        emp = montecarlo.sim_connectivity(traffic, v2v, sim)
        checks.append((f"connectivity_{traffic}",
                       tv_distance(connectivity.pmf_degree_certified(
                           traffic, v2v), emp)))
    for traffic in ("PTS", "NPTS"):
        est = montecarlo.sim_coverage(cfg["tau_sinr"], traffic, params,
                                      radio, sim)
        cp = coverage.coverage_prob(cfg["tau_sinr"], traffic, params, radio)
        checks.append((f"coverage_{traffic}", abs(est.value - cp)))
    rows = []
    n_failed = 0
    for name, gap in checks:
        ok = gap < tolerance
        n_failed += not ok
        rows.append([name, float(gap), "PASS" if ok else "FAIL"])
    return rows, n_failed


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
    s.add_argument("--traffic", choices=["PTS", "NPTS"], default="PTS")
    _add_common(s)
    v = sub.add_parser("validate",
                       help="analytical-vs-simulation cross-check suite")
    _add_common(v)
    v.add_argument("--tolerance", type=float, default=0.02,
                   help="validation tolerance (TV / absolute gap)")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {"master_seed": args.seed, "replications": args.reps}
    cfg = load_config(args.config, overrides)
    if args.command == "figure":
        cfg = dict(cfg, **{k: v for k, v in
                           FIGURE_OVERRIDES.get(args.n, {}).items()
                           if args.config is None})
        cols, rows = FIGURES[args.n](cfg)
        write_csv(args.out, cfg, cols, rows, [f"figure {args.n}"])
        return 0
    if args.command == "op":
        pairs = run_op(args.name, cfg)
        write_csv(args.out, cfg, ["quantity", "value"],
                  [[k, v] for k, v in pairs], [f"op {args.name}"])
        return 0
    if args.command == "simulate":
        pairs = run_simulate(args.target, args.traffic, cfg)
        write_csv(args.out, cfg, ["quantity", "value"],
                  [[k, v] for k, v in pairs],
                  [f"simulate {args.target} {args.traffic}"])
        return 0
    rows, n_failed = run_validate(cfg, args.tolerance)
    write_csv(args.out, cfg, ["check", "gap", "status"], rows,
              ["validate"])
    for name, gap, status in rows:
        print(f"{status} {name}: gap={gap:.5f}", file=sys.stderr)
    return 1 if n_failed else 0


if __name__ == "__main__":
    sys.exit(main())
