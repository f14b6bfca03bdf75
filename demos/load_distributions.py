"""Walkthrough: RSU load under platooned vs non-platooned traffic.

Builds the verification scenario (2 RSU/km, 1 platoon/km of mean size 5,
cluster half-width 100 m), computes the four load PMFs analytically,
cross-checks them against the Monte Carlo engine, and prints the
operational metrics an operator would read off the distributions.

Run:  python3 demos/load_distributions.py
"""

from platoonnet import (NetworkParams, SimConfig, moments_tagged_npts,
                        moments_tagged_pts, moments_typical_npts,
                        moments_typical_pts, operational_metrics, sim_load)
from platoonnet.cli import tv_distance
from platoonnet.load import (pmf_tagged_npts_certified,
                             pmf_tagged_pts_certified,
                             pmf_typical_npts_certified,
                             pmf_typical_pts_certified)


def main():
    params = NetworkParams.from_per_km(lambda_r=2.0, lambda_p=1.0,
                                       m=5.0, a=100.0)
    print(f"scenario: {params}")
    print(f"mean VU density: {params.lam * 1000:.1f} /km\n")

    print("=== moments (typical RSU) ===")
    mp = moments_typical_pts(params)
    mn = moments_typical_npts(params)
    print(f"{'':12s}{'platooned':>12s}{'poisson':>12s}")
    print(f"{'mean':12s}{mp.mean:12.4f}{mn.mean:12.4f}")
    print(f"{'variance':12s}{mp.variance:12.4f}{mn.variance:12.4f}")
    print(f"{'skewness':12s}{mp.skewness:12.4f}{mn.skewness:12.4f}")
    print("same mean by construction; clustering adds dispersion and "
          "right skew\n")

    print("=== moments (tagged RSU, typical VU's serving cell) ===")
    gp = moments_tagged_pts(params)
    gn = moments_tagged_npts(params)
    print(f"{'':12s}{'platooned':>12s}{'poisson':>12s}")
    print(f"{'mean':12s}{gp.mean:12.4f}{gn.mean:12.4f}")
    print(f"{'variance':12s}{gp.variance:12.4f}{gn.variance:12.4f}")
    print("size biasing plus the typical VU's own platoon push the tagged "
          "load well above the typical one\n")

    print("=== analytical PMFs vs Monte Carlo (20000 replications) ===")
    cfg = SimConfig(replications=20000, master_seed=2024)
    cases = {
        ("typical", "PTS"): pmf_typical_pts_certified(params),
        ("typical", "NPTS"): pmf_typical_npts_certified(params),
        ("tagged", "PTS"): pmf_tagged_pts_certified(params),
        ("tagged", "NPTS"): pmf_tagged_npts_certified(params),
    }
    for (kind, traffic), analytic in cases.items():
        emp = sim_load(kind, traffic, params, cfg)
        tv = tv_distance(analytic, emp)
        print(f"  {kind:8s} {traffic:5s}: TV distance {tv:.4f}")
    print()

    print("=== operational metrics ===")
    typ = operational_metrics(pmf_typical_pts_certified(params), "typical")
    tag = operational_metrics(pmf_tagged_pts_certified(params), "tagged")
    print(f"off probability (platooned):        {typ['p_off']:.4f}")
    print(f"mean load of a busy RSU:            {typ['s_avg']:.3f}")
    print(f"below-average-loading probability:  {typ['p_b']:.4f}")
    print(f"single-VU probability (tagged):     "
          f"{tag['P1_zero_extra_load']:.4f}")

    print("\n=== head of the typical-cell PMFs ===")
    ap = cases[("typical", "PTS")].masses
    an = cases[("typical", "NPTS")].masses
    print(f"{'k':>3s}{'platooned':>12s}{'poisson':>12s}")
    for k in range(11):
        print(f"{k:3d}{ap[k]:12.5f}{an[k]:12.5f}")
    print("platooning piles mass onto k = 0 and the deep tail "
          "simultaneously")


if __name__ == "__main__":
    main()
