"""Connectivity degree of the typical VU under PTS and N-PTS.

The degree counts the other VUs within communication range R_b of the
typical VU.  One length convention is used throughout: a ball of radius
R_b/2 (covered length R_b), which makes the N-PTS mean exactly
lam * R_b and keeps the two traffic models comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import NetworkParams, platooned
from .mcp_counts import DiscretePMF, certified, pmf_S
from .numerics import poisson_pmf


@dataclass(frozen=True)
class V2VParams:
    r_b: float  # communication range (m)
    params: NetworkParams

    def __post_init__(self):
        if not 0 < self.r_b < math.inf:
            raise ValueError("communication range must be positive and "
                             "finite")


def pmf_degree_npts(K, v2v: V2VParams) -> DiscretePMF:
    """Poisson(lam R_b) degree on 0..K, with its exact tail beyond K."""
    mu = v2v.params.lam * v2v.r_b
    return DiscretePMF(poisson_pmf(np.arange(K + 1), mu),
                       tail_mass=float(special.pdtrc(K, mu)))


def _own_cluster_mixture(v2v: V2VParams):
    """Poisson-mean mixture of the typical VU's own platoon members in
    range: mean mu = lambda_d |[-r, r] & [x - a, x + a]|, the overlap of
    the range ball (r = R_b/2) and the cluster ball, with x ~ U[0, a].

    Returns (w0, mu0, mu1) -- with probability w0 the mean is the full
    overlap mu0; otherwise the mean is uniform on (mu1, mu0).
    """
    a, m = v2v.params.a, v2v.params.m
    r = v2v.r_b / 2.0
    lam_d = m / (2 * a)
    mu0 = lam_d * min(2 * r, 2 * a)
    c = abs(r - a)
    if c >= a:
        return 1.0, mu0, mu0
    mu1 = lam_d * r  # overlap at x = a, where 0 < r < 2a
    return c / a, mu0, mu1


def _own_cluster_pmf(K, v2v: V2VParams):
    w0, mu0, mu1 = _own_cluster_mixture(v2v)
    n = np.arange(K + 1)
    atom = w0 * poisson_pmf(n, mu0)
    if w0 < 1.0:
        # uniform mixture over the Poisson mean integrates to a
        # difference of regularized lower incomplete gammas
        lin = (special.gammainc(n + 1, mu0) - special.gammainc(n + 1, mu1)) \
            * (1 - w0) / (mu0 - mu1)
    else:
        lin = 0.0
    return atom + lin


def pmf_degree_pts(K, v2v: V2VParams) -> DiscretePMF:
    """Convolution of the background count with the own-platoon count."""
    ps = pmf_S(K, v2v.r_b / 2.0, v2v.params).masses
    own = _own_cluster_pmf(K, v2v)
    return DiscretePMF.of(np.convolve(ps, own)[: K + 1])


def pmf_degree_certified(traffic, v2v: V2VParams) -> DiscretePMF:
    fn = pmf_degree_pts if platooned(traffic) else pmf_degree_npts
    return certified(lambda K: fn(K, v2v))
