"""Walkthrough: V2V connectivity degree of the typical vehicle.

Compares the number of neighbors within communication range under
platooned and Poisson traffic of the same mean density.  The platooned
degree is the background cluster count plus the typical vehicle's own
platoon members in range, which fattens both tails of the distribution.

Run:  python3 demos/connectivity_degree.py
"""

from platoonnet import NetworkParams, SimConfig, V2VParams, sim_connectivity
from platoonnet.cli import tv_distance
from platoonnet.connectivity import pmf_degree_certified


def main():
    params = NetworkParams.from_per_km(lambda_r=2.0, lambda_p=1.0,
                                       m=5.0, a=100.0)
    for r_b in (100.0, 200.0, 400.0):
        v2v = V2VParams(r_b, params)
        pp = pmf_degree_certified("PTS", v2v)
        pn = pmf_degree_certified("NPTS", v2v)
        print(f"--- communication range {r_b:.0f} m ---")
        print(f"  mean degree: platooned {pp.mean():.3f}, "
              f"poisson {pn.mean():.3f}")
        print(f"  variance:    platooned {pp.variance():.3f}, "
              f"poisson {pn.variance():.3f}")
        iso_p = float(pp.masses[0])
        iso_n = float(pn.masses[0])
        print(f"  isolation probability: platooned {iso_p:.4f}, "
              f"poisson {iso_n:.4f}")
        k10 = int(2 * pn.mean()) + 5
        print(f"  P[degree > {k10}]: platooned "
              f"{pp.ccdf(k10):.4f}, poisson {pn.ccdf(k10):.4f}")
        print()

    print("platooning raises the mean (own platoon is always nearby) and")
    print("spreads the distribution: more isolated vehicles AND more")
    print("heavily connected ones than Poisson traffic predicts\n")

    v2v = V2VParams(200.0, params)
    cfg = SimConfig(replications=20000, master_seed=2024)
    print("Monte Carlo cross-check at range 200 m (20000 replications):")
    for traffic in ("PTS", "NPTS"):
        emp = sim_connectivity(traffic, v2v, cfg)
        tv = tv_distance(pmf_degree_certified(traffic, v2v), emp)
        print(f"  {traffic:5s}: TV distance {tv:.4f}")


if __name__ == "__main__":
    main()
