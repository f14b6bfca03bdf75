"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a PASS/FAIL line
directly to the terminal (bypassing capture) so the run log shows the
full scorecard.
"""

import math
import time

import numpy as np
from scipy import integrate

from platoonnet.cli import main, tv_distance
from platoonnet.connectivity import V2VParams, pmf_degree_certified
from platoonnet.coverage import (CoverageMeta, RadioParams, active_prob,
                                 coverage_prob, rate_coverage)
from platoonnet.geometry import NetworkParams, cell_average, pdf_cell
from platoonnet.load import (moments_tagged_npts, moments_typical_npts,
                             moments_typical_pts, pgf_vm,
                             pmf_tagged_npts_certified,
                             pmf_tagged_pts_certified, pmf_typical_npts,
                             pmf_typical_npts_certified,
                             pmf_typical_pts_certified)
from platoonnet.mcp_counts import I_moment, beta_bar, g_of, kappa, pmf_S
from platoonnet.montecarlo import SimConfig, sim_coverage, sim_connectivity, \
    sim_load

from oracles import (g_deriv_at_zero, laplace_interference,
                     laplace_interference_quad, moments_vm_conditional)

BASE = NetworkParams.from_per_km(2.0, 1.0, 5.0, 100.0)
FIG8 = NetworkParams.from_per_km(2.0, 1.0, 5.0, 150.0)
RADIO8 = RadioParams(1.0, 5e-5, 3.5)
RADIO9 = RadioParams(1.0, 5e-5, 4.0)
U_SWEEP = (5.0, 15.0, 25.0, 35.0)


def report(capsys, n, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_oracle_equivalence(capsys):
    """Analytical and Monte Carlo distributions agree in TV distance."""
    cfg = SimConfig(replications=100_000, master_seed=2024)
    t0 = time.time()
    gaps = {}
    pairs = {
        "load_typical_PTS": pmf_typical_pts_certified(BASE),
        "load_typical_NPTS": pmf_typical_npts_certified(BASE),
        "load_tagged_PTS": pmf_tagged_pts_certified(BASE),
        "load_tagged_NPTS": pmf_tagged_npts_certified(BASE),
    }
    for name, analytic in pairs.items():
        kind, traffic = name.split("_")[1:]
        emp = sim_load(kind, traffic, BASE, cfg)
        gaps[name] = tv_distance(analytic, emp)
    v2v = V2VParams(200.0, BASE)
    for traffic in ("PTS", "NPTS"):
        emp = sim_connectivity(traffic, v2v, cfg)
        gaps[f"degree_{traffic}"] = tv_distance(
            pmf_degree_certified(traffic, v2v), emp)
    elapsed = time.time() - t0
    worst = max(gaps, key=gaps.get)
    ok = all(g < 0.01 for g in gaps.values()) and elapsed < 300
    report(capsys, 1, ok, f"max TV {gaps[worst]:.4f} ({worst}), "
                  f"{elapsed:.0f}s for 6 distributions at 1e5 reps")


def test_criterion_2_exact_moment_identities(capsys):
    checks = []
    for u in U_SWEEP:
        p = NetworkParams.from_per_km(2.0, 1.0, u, 100.0)
        mean_p = moments_typical_pts(p).mean
        mean_n = moments_typical_npts(p).mean
        expect = p.m * p.lambda_p / p.lambda_r
        checks.append(abs(mean_p - expect) < 1e-9)
        checks.append(abs(mean_n - expect) < 1e-9)
        checks.append(moments_tagged_npts(p).mean == 1.5 * mean_n)
        p0 = float(pmf_typical_npts(0, p).masses[0])
        checks.append(abs(active_prob("NPTS", p) - (1.0 - p0)) < 1e-12)
    report(capsys, 2, all(checks),
           f"{sum(checks)}/{len(checks)} identities hold across the sweep")


def test_criterion_3_closed_forms_vs_quadrature(capsys):
    worst = 0.0
    for m_val in (5.0, 15.0, 35.0):
        p = NetworkParams.from_per_km(2.0, 1.0, m_val, 100.0)
        for n in (1, 2, 3):
            for k in (1, 2, 3):
                for tagged in (False, True):
                    def f(r):
                        return kappa(r / 2.0, k, p) ** n \
                            * float(pdf_cell(r, p.lambda_r, tagged))
                    ref = sum(integrate.quad(f, lo, hi, epsabs=1e-13,
                                             epsrel=1e-11)[0]
                              for lo, hi in ((0, 2 * p.a),
                                             (2 * p.a, np.inf)))
                    worst = max(worst,
                                abs(I_moment(n, k, p, tagged) / ref - 1.0))
    # the F and G integrals of cell_average: L^k alone below and above 2a
    for m_rate in (0.001, 0.004, 0.02):
        for k in (0, 1, 3):
            for a in (50.0, 100.0, 300.0):
                for tagged in (False, True):
                    def f(x):
                        return x**k * float(pdf_cell(x, m_rate / 2, tagged))
                    mono = np.eye(k + 3)
                    for below, above, lo, hi in (
                            (mono[k], (), 0, 2 * a),
                            ((), mono[k + 2], 2 * a, np.inf)):
                        ref, _ = integrate.quad(f, lo, hi, epsabs=1e-15,
                                                epsrel=1e-12)
                        val = cell_average(below, above, m_rate / 2, a,
                                           tagged)
                        worst = max(worst, abs(val / ref - 1.0))
    for alpha in (2.5, 3.5, 4.0):
        radio = RadioParams(1.0, 5e-5, alpha)
        for s in (1e-3, 1.0, 50.0):
            for r in (50.0, 150.0, 400.0):
                lt = laplace_interference(s, r, 0.8, BASE.lambda_r, radio)
                ref = laplace_interference_quad(s, r, 0.8, BASE.lambda_r,
                                                radio)
                worst = max(worst, abs(lt / ref - 1.0))
    report(capsys, 3, worst < 1e-8, f"worst relative error {worst:.2e}")


def test_criterion_4_meta_distribution_consistency(capsys):
    meta = CoverageMeta(0.9, "PTS", FIG8, RADIO8)
    cp = coverage_prob(0.9, "PTS", FIG8, RADIO8)
    m0_ok = meta.moment(0) == 1.0
    m1_err = abs(meta.moment(1) / cp - 1.0)
    nodes, wts = np.polynomial.legendre.leggauss(64)
    nodes = 0.5 * (nodes + 1.0)
    wts = 0.5 * wts
    vals = [meta.md(float(x)) for x in nodes]
    integral = float(np.dot(wts, vals))
    int_err = abs(integral - cp)
    mono_ok = bool(np.all(np.diff(vals) <= 1e-3))
    ok = m0_ok and m1_err < 1e-6 and int_err < 1e-3 and mono_ok
    report(capsys, 4, ok, f"M1 rel err {m1_err:.1e}, "
                  f"|int MD dx - CP| = {int_err:.1e}, monotone={mono_ok}")


def _partitions(k, max_part=None):
    if max_part is None:
        max_part = k
    if k == 0:
        yield {}
        return
    for j in range(min(k, max_part), 0, -1):
        for rest in _partitions(k - j, j):
            out = dict(rest)
            out[j] = out.get(j, 0) + 1
            yield out


def test_criterion_5_branch_and_limit_robustness(capsys):
    checks = []
    # conditional tagged-platoon moments continuous across t = 2a
    t0 = 2 * BASE.a
    m_lo = moments_vm_conditional(t0 * (1 - 1e-10), BASE)
    m_hi = moments_vm_conditional(t0 * (1 + 1e-10), BASE)
    checks.append(abs(m_lo[0] - m_hi[0]) < 1e-9)
    checks.append(abs(m_lo[1] - m_hi[1]) < 1e-9)
    for s in (0.0, 0.5, 0.9, 1.0):
        lo = pgf_vm(s, t0 * (1 - 1e-10), BASE)
        hi = pgf_vm(s, t0 * (1 + 1e-10), BASE)
        checks.append(abs(lo - hi) < 1e-9)
    # Taylor branch of the count exponent vs closed form at |s-1| = 1e-5
    for r in (40.0, 100.0, 250.0):
        s = 1.0 - 1e-5
        z = BASE.m * beta_bar(r, BASE.a)
        frac = (2 * BASE.a / BASE.m) * (z + z**2 * (s - 1) / 2
                                        + z**3 * (s - 1) ** 2 / 6)
        taylor = 2 * BASE.lambda_p * (abs(r - BASE.a)
                                      * math.exp(z * (s - 1))
                                      - (r + BASE.a) + frac)
        checks.append(abs(taylor - g_of(s, r, BASE)) < 1e-8)
    # recurrence vs the explicit partition enumeration for k <= 8
    for r in (40.0, 100.0, 250.0):
        p0 = math.exp(g_of(0.0, r, BASE))
        derivs = {j: g_deriv_at_zero(j, r, BASE) for j in range(1, 9)}
        ref = [p0]
        for k in range(1, 9):
            acc = 0.0
            for part in _partitions(k):
                term = 1.0
                for j, mult in part.items():
                    term *= derivs[j] ** mult / (
                        math.factorial(mult) * math.factorial(j) ** mult)
                acc += term
            ref.append(p0 * acc)
        got = pmf_S(8, r, BASE).masses
        checks.append(bool(np.all(np.abs(got - np.array(ref)) < 1e-12)))
    report(capsys, 5, all(checks), f"{sum(checks)}/{len(checks)} robustness checks")


def test_criterion_6_trend_reproduction(capsys):
    details = []
    # (a) typical load: equal means, clustered traffic more dispersed
    ok_a = True
    for u in U_SWEEP:
        p = NetworkParams.from_per_km(2.0, 1.0, u, 100.0)
        mp = moments_typical_pts(p)
        mn = moments_typical_npts(p)
        ok_a &= abs(mp.mean - mn.mean) < 1e-9
        ok_a &= mp.variance > mn.variance
        ok_a &= mp.skewness > mn.skewness
    details.append(f"a={ok_a}")
    # (b) clustered traffic leaves more RSUs idle
    ok_b = True
    for u in U_SWEEP:
        p = NetworkParams.from_per_km(2.0, 1.0, u, 100.0)
        ok_b &= (1 - active_prob("PTS", p)) > (1 - active_prob("NPTS", p))
    details.append(f"b={ok_b}")
    # (c) idle interferers boost coverage; activity ordering flips
    ok_c = True
    for u in U_SWEEP:
        p = NetworkParams.from_per_km(2.0, 1.0, u, 150.0)
        ok_c &= coverage_prob(0.9, "PTS", p, RADIO8) \
            > coverage_prob(0.9, "NPTS", p, RADIO8)
        ok_c &= active_prob("NPTS", p) > active_prob("PTS", p)
    details.append(f"c={ok_c}")
    # (d) heavier tagged-cell load costs platooned traffic rate coverage
    ok_d = True
    for u in U_SWEEP:
        p = NetworkParams.from_per_km(2.0, 1.0, u, 150.0)
        ok_d &= rate_coverage(9e6, "PTS", p, RADIO9) \
            < rate_coverage(9e6, "NPTS", p, RADIO9)
    details.append(f"d={ok_d}")
    report(capsys, 6, ok_a and ok_b and ok_c and ok_d, ", ".join(details))


def test_criterion_7_thinning_approximation_audit(capsys):
    cfg = SimConfig(replications=5000, master_seed=2024)
    gaps = {}
    for traffic in ("PTS", "NPTS"):
        est = sim_coverage(0.9, traffic, FIG8, RADIO8, cfg)
        cp = coverage_prob(0.9, traffic, FIG8, RADIO8)
        gaps[traffic] = abs(est.value - cp)
    ok = all(g < 0.02 for g in gaps.values())
    report(capsys, 7, ok, "dependent-vs-independent thinning gap "
                  f"PTS {gaps['PTS']:.4f}, NPTS {gaps['NPTS']:.4f}")


def test_criterion_8_reproducibility(tmp_path, capsys):
    outs = []
    for tag in ("a", "b"):
        fig = tmp_path / f"fig_{tag}.csv"
        sim = tmp_path / f"sim_{tag}.csv"
        main(["figure", "5", "--seed", "2024", "--out", str(fig)])
        main(["simulate", "load_typical", "--traffic", "PTS",
              "--reps", "2000", "--seed", "2024", "--out", str(sim)])
        outs.append((fig.read_bytes(), sim.read_bytes()))
    ok = outs[0] == outs[1]
    report(capsys, 8, ok, "byte-identical CSVs across repeated seeded runs")
