"""Walkthrough: SINR coverage, rate coverage and meta distributions.

Sweeps the VU density and shows the two competing effects of
platooning: clustered traffic leaves more RSUs idle (less interference,
better SINR coverage for the covered) but loads the serving cell more
heavily (worse per-VU rate).  The meta distribution separates the
population into reliability classes instead of averaging over them.

Run:  python3 demos/coverage_and_rate.py        (takes about 6 s)
"""

from platoonnet import (CoverageMeta, NetworkParams, RadioParams,
                        SimConfig, active_prob, coverage_prob,
                        rate_coverage, sim_coverage)


def main():
    radio = RadioParams(p_t=1.0, sigma2=5e-5, alpha=3.5)
    print("=== SINR coverage sweep (threshold 0.9) ===")
    print(f"{'u':>4s}{'CP pts':>10s}{'CP npts':>10s}"
          f"{'active pts':>12s}{'active npts':>12s}")
    for u in (5.0, 15.0, 25.0, 35.0):
        params = NetworkParams.from_per_km(2.0, 1.0, u, 150.0)
        cp_p = coverage_prob(0.9, "PTS", params, radio)
        cp_n = coverage_prob(0.9, "NPTS", params, radio)
        ap = active_prob("PTS", params)
        an = active_prob("NPTS", params)
        print(f"{u:4.0f}{cp_p:10.4f}{cp_n:10.4f}{ap:12.4f}{an:12.4f}")
    print("fewer active RSUs under platooning -> less interference; the "
          "regime here is noise-limited so the coverage edge is small "
          "but consistent\n")

    params = NetworkParams.from_per_km(2.0, 1.0, 5.0, 150.0)
    print("=== meta distribution at threshold 0.9 ===")
    print("fraction of VUs whose conditional coverage exceeds x:")
    print(f"{'x':>6s}{'platooned':>12s}{'poisson':>12s}")
    meta_p = CoverageMeta(0.9, "PTS", params, radio)
    meta_n = CoverageMeta(0.9, "NPTS", params, radio)
    for x in (0.05, 0.2, 0.5, 0.8, 0.95):
        print(f"{x:6.2f}{meta_p.md(x):12.4f}{meta_n.md(x):12.4f}")
    print("reading across x shows how the covered fraction thins out as "
          "the reliability requirement tightens\n")

    print("=== rate coverage (9 Mbit/s over 10 MHz) ===")
    radio4 = RadioParams(p_t=1.0, sigma2=5e-5, alpha=4.0)
    print(f"{'u':>4s}{'RC pts':>10s}{'RC npts':>10s}")
    for u in (5.0, 15.0, 25.0, 35.0):
        params = NetworkParams.from_per_km(2.0, 1.0, u, 150.0)
        rc_p = rate_coverage(9e6, "PTS", params, radio4)
        rc_n = rate_coverage(9e6, "NPTS", params, radio4)
        print(f"{u:4.0f}{rc_p:10.4f}{rc_n:10.4f}")
    print("the ordering flips: the heavier tagged-cell load under "
          "platooning outweighs the SINR gain\n")

    print("=== dependent-thinning audit (Monte Carlo) ===")
    params = NetworkParams.from_per_km(2.0, 1.0, 5.0, 150.0)
    cfg = SimConfig(replications=5000, master_seed=2024)
    for traffic in ("PTS", "NPTS"):
        est = sim_coverage(0.9, traffic, params, radio, cfg)
        cp = coverage_prob(0.9, traffic, params, radio)
        print(f"  {traffic:5s}: analytic {cp:.4f}, simulated "
              f"{est.value:.4f} (+-{est.std_error:.4f}), "
              f"gap {abs(cp - est.value):.4f}")
    print("the independent-thinning approximation of the active RSU set "
          "costs well under 0.01 here")


if __name__ == "__main__":
    main()
