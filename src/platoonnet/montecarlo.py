"""Monte Carlo oracle: empirical counterparts of the analytical results.

Every estimator samples full point patterns per replication (Slivnyak or
Palm conditioning as appropriate) and reduces them with order-independent
accumulators, so results are bit-reproducible for a fixed master seed and
replication count regardless of scheduling.

The samplers live here: RSUs are a 1D Poisson process (`_rsus`), VUs
either a Poisson process (N-PTS) or a Matern cluster process of platoons
(PTS, `_mcp_points`), optionally with the typical VU's own platoon added
under Palm conditioning (`_vus`).  Each estimator reduces one `draw(rng)`
per replication, run by `_replicate` on the replication's own
`replication_rng` stream in a fixed order: RSUs, then VUs.  Rayleigh
fading is not sampled: the success probability of each geometry is its
exact average over the fading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NetworkParams, platooned, replication_rng
from .mcp_counts import DiscretePMF
from .coverage import RadioParams


# Simulation half-width in mean RSU cells (1 / lambda_r) on each side
WINDOW_CELLS = 10.0


@dataclass(frozen=True)
class SimConfig:
    replications: int = 10_000
    master_seed: int = 2024

    def __post_init__(self):
        if self.replications < 2:
            # every estimate reports a standard error, which needs two
            raise ValueError("need at least two replications")


@dataclass(frozen=True)
class SimEstimate:
    value: float
    std_error: float
    n: int


def _half_width(params: NetworkParams):
    """Simulation half-width (m)."""
    return WINDOW_CELLS / params.lambda_r


def _replicate(cfg: SimConfig, draw, dtype):
    """draw(rng) of every replication, each on its own stream."""
    return np.fromiter((draw(replication_rng(cfg.master_seed, rep))
                        for rep in range(cfg.replications)),
                       dtype, count=cfg.replications)


def _mean_estimate(x):
    x = np.asarray(x, dtype=float)
    return SimEstimate(float(x.mean()),
                       float(x.std(ddof=1) / math.sqrt(x.size)), x.size)


def _empirical_pmf(counts):
    masses = np.bincount(counts) / len(counts)
    return DiscretePMF(masses, tail_mass=0.0)


def _rsus(params, half, rng):
    """Sorted RSU positions of a Poisson process on [-half, half]."""
    return np.sort(rng.uniform(-half, half,
                               rng.poisson(params.lambda_r * 2 * half)))


def _mcp_points(params, lo, hi, rng):
    """MCP daughters on [lo, hi]; parents sampled on the a-dilated window."""
    n_par = rng.poisson(params.lambda_p * (hi - lo + 2 * params.a))
    parents = rng.uniform(lo - params.a, hi + params.a, n_par)
    counts = rng.poisson(params.m, n_par)
    reps = np.repeat(parents, counts)
    pts = reps + rng.uniform(-params.a, params.a, reps.size)
    return pts[(pts >= lo) & (pts <= hi)]


def _vus(traffic, params, half, rng, palm):
    """VU positions; under Palm conditioning the typical VU at the origin
    is excluded from the returned array (its own platoon is included).
    Only PTS reads `palm`: by Slivnyak's theorem the Palm N-PTS draw is
    the plain Poisson draw."""
    if platooned(traffic):
        pts = _mcp_points(params, -half, half, rng)
        if palm:
            x0 = rng.uniform(-params.a, params.a)
            sibs = x0 + rng.uniform(-params.a, params.a,
                                    rng.poisson(params.m))
            pts = np.concatenate([pts, sibs[np.abs(sibs) <= half]])
        return pts
    n = rng.poisson(params.lam * 2 * half)
    return rng.uniform(-half, half, n)


def _tagged_geometry(traffic, params, half, rng):
    """RSUs (at least one) and the VUs seen from a typical VU at the
    origin (Palm; the typical VU itself is not in the array)."""
    rsus = _rsus(params, half, rng)
    while rsus.size == 0:  # vanishing probability at sane windows
        rsus = _rsus(params, half, rng)
    return rsus, _vus(traffic, params, half, rng, palm=True)


def _association(rsus, vus):
    """Nearest-RSU association: the RSU serving the origin and the number
    of VUs each RSU serves (cells bounded by the midpoints)."""
    bounds = 0.5 * (rsus[:-1] + rsus[1:])
    occupancy = np.bincount(np.searchsorted(bounds, vus),
                            minlength=rsus.size)
    return int(np.argmin(np.abs(rsus))), occupancy


def sim_load(kind, traffic, params: NetworkParams, cfg: SimConfig):
    """Empirical load PMF.

    kind="typical" uses Slivnyak conditioning (RSU at the origin);
    kind="tagged" uses Palm conditioning (typical VU at the origin,
    served by the nearest RSU; the typical VU itself is not counted).
    """
    if kind not in ("typical", "tagged"):
        raise ValueError(f"unknown kind {kind!r}")
    half = _half_width(params)

    def draw(rng):
        if kind == "typical":
            rsus = np.sort(np.append(_rsus(params, half, rng), 0.0))
            vus = _vus(traffic, params, half, rng, palm=False)
        else:
            rsus, vus = _tagged_geometry(traffic, params, half, rng)
        serving, occupancy = _association(rsus, vus)
        return occupancy[serving]
    return _empirical_pmf(_replicate(cfg, draw, np.int64))


def sim_connectivity(traffic, v2v, cfg: SimConfig):
    """Empirical connectivity-degree PMF: other VUs within R_b/2 of the
    typical VU at the origin."""
    params = v2v.params
    r = v2v.r_b / 2.0
    half = r + 2 * params.a  # communication range plus cluster reach

    def draw(rng):
        vus = _vus(traffic, params, half, rng, palm=True)
        return np.count_nonzero(np.abs(vus) <= r)
    return _empirical_pmf(_replicate(cfg, draw, np.int64))


def _interference_reach(params, radio):
    """Distance beyond which the mean residual interference of all-active
    RSUs is below 1e-6 * sigma^2 (power-law tail bound)."""
    lead = 2 * params.lambda_r * radio.p_t / (radio.alpha - 1)
    return (lead / (1e-6 * radio.sigma2)) ** (1.0 / (radio.alpha - 1))


def _coverage_profile(threshold, traffic, params, radio: RadioParams,
                      cfg: SimConfig):
    """Per-geometry success probability of the typical VU at the SINR
    threshold `threshold(load)`; `load` is the number of other VUs its
    RSU serves.  Under Rayleigh fading it is exact given the geometry:
    exp(-tau r^alpha / snr) times 1 / (1 + tau (r/d)^alpha) for each
    active interferer at distance d."""
    half = max(_half_width(params), _interference_reach(params, radio))

    def draw(rng):
        rsus, vus = _tagged_geometry(traffic, params, half, rng)
        serving, occupancy = _association(rsus, vus)
        active = occupancy > 0
        active[serving] = False  # the serving RSU never interferes with itself
        r = abs(rsus[serving])
        tau = threshold(occupancy[serving])
        ratio = tau * (r / np.abs(rsus[active]))**radio.alpha
        return math.exp(-tau * r**radio.alpha / radio.snr
                        - np.log1p(ratio).sum())
    return _replicate(cfg, draw, float)


def _rate_profile(tau_rate, traffic, params, radio, cfg):
    # the typical VU shares its RSU with the `load` others: load + 1 users
    return _coverage_profile(
        lambda load: radio.rate_threshold(tau_rate, load + 1),
        traffic, params, radio, cfg)


def sim_coverage(tau, traffic, params, radio, cfg) -> SimEstimate:
    """Monte Carlo SINR coverage probability with true dependent
    RSU thinning."""
    return _mean_estimate(_coverage_profile(lambda load: tau, traffic,
                                            params, radio, cfg))


def sim_md_coverage(tau, x, traffic, params, radio, cfg) -> SimEstimate:
    """Monte Carlo meta distribution: fraction of geometries whose
    conditional coverage probability exceeds x."""
    return _mean_estimate(_coverage_profile(lambda load: tau, traffic,
                                            params, radio, cfg) > x)


def sim_rate(tau_rate, traffic, params, radio, cfg) -> SimEstimate:
    """Monte Carlo rate coverage using the actual tagged-cell load."""
    return _mean_estimate(_rate_profile(tau_rate, traffic, params, radio,
                                        cfg))


def sim_md_rate(tau_rate, x, traffic, params, radio, cfg) -> SimEstimate:
    """Monte Carlo meta distribution of the rate coverage."""
    return _mean_estimate(_rate_profile(tau_rate, traffic, params, radio,
                                        cfg) > x)
