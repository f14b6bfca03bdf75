"""Stochastic-geometry toolkit for platooned highway vehicular networks.

Analytical engine: RSU load distributions (typical and tagged cells),
V2V connectivity degree, SINR and rate coverage, and their meta
distributions, for platooned (1D Matern cluster) and non-platooned
(1D Poisson) traffic.  Simulation engine: seeded Monte Carlo
counterparts of every analytical quantity.
"""

from .geometry import NetworkParams
from .mcp_counts import DiscretePMF, pmf_S
from .load import (LoadMoments, moments_tagged_npts, moments_tagged_pts,
                   moments_typical_npts, moments_typical_pts,
                   operational_metrics, pmf_tagged_npts,
                   pmf_tagged_npts_certified, pmf_tagged_pts,
                   pmf_tagged_pts_certified, pmf_typical_npts,
                   pmf_typical_npts_certified, pmf_typical_pts,
                   pmf_typical_pts_certified)
from .connectivity import (V2VParams, pmf_degree_certified, pmf_degree_npts,
                           pmf_degree_pts)
from .coverage import (CoverageMeta, RadioParams, active_prob,
                       coverage_prob, md_coverage, md_rate, rate_coverage)
from .montecarlo import (SimConfig, SimEstimate, sim_connectivity,
                         sim_coverage, sim_load, sim_md_coverage,
                         sim_md_rate, sim_rate)

__version__ = "0.1.0"

__all__ = [
    "NetworkParams", "DiscretePMF", "pmf_S", "LoadMoments",
    "pmf_typical_pts", "pmf_typical_npts", "pmf_tagged_pts",
    "pmf_tagged_npts", "pmf_typical_pts_certified",
    "pmf_typical_npts_certified", "pmf_tagged_pts_certified",
    "pmf_tagged_npts_certified",
    "moments_typical_pts", "moments_typical_npts", "moments_tagged_pts",
    "moments_tagged_npts", "operational_metrics", "V2VParams",
    "pmf_degree_pts", "pmf_degree_npts", "pmf_degree_certified",
    "RadioParams", "CoverageMeta",
    "active_prob", "coverage_prob", "md_coverage", "rate_coverage",
    "md_rate", "SimConfig", "SimEstimate", "sim_load",
    "sim_connectivity", "sim_coverage", "sim_md_coverage", "sim_rate",
    "sim_md_rate",
]
