"""Monte Carlo oracle: empirical counterparts of the analytical results.

Every estimator samples full point patterns per replication (Slivnyak or
Palm conditioning as appropriate) and reduces them with order-independent
accumulators, so results are bit-reproducible for a fixed master seed and
replication count regardless of scheduling.

The samplers live here: RSUs are a 1D Poisson process (`_rsus`), VUs
either a Poisson process (N-PTS) or a Matern cluster process of platoons
(PTS, `_mcp_points`), optionally with the typical VU's own platoon added
under Palm conditioning (`_vus`).  Each replication draws from its own
`replication_rng` stream in a fixed order: RSUs first, then VUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NetworkParams, replication_rng
from .mcp_counts import DiscretePMF
from .coverage import RadioParams


@dataclass(frozen=True)
class SimConfig:
    replications: int = 10_000
    master_seed: int = 2024
    window_km: float = None  # type: ignore[assignment]
    fading_draws_per_geometry: int = 500

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("need at least one replication")

    def half_width(self, params: NetworkParams):
        """Simulation half-width (m); at least 10 mean cells per side."""
        if self.window_km is not None:
            w = 500.0 * self.window_km
            if 2 * w < 20.0 / params.lambda_r:
                raise ValueError("window must be at least 20 / lambda_r")
            return w
        return 10.0 / params.lambda_r


@dataclass(frozen=True)
class SimEstimate:
    value: float
    std_error: float
    n: int


def _mean_estimate(x):
    x = np.asarray(x, dtype=float)
    return SimEstimate(float(x.mean()),
                       float(x.std(ddof=1) / math.sqrt(x.size)), x.size)


def _empirical_pmf(counts):
    masses = np.bincount(counts) / len(counts)
    return DiscretePMF(masses, tail_mass=0.0)


def _origin_cell(rsus, half):
    """Voronoi cell of an RSU at the origin given the other RSU positions."""
    left = rsus[rsus < 0]
    right = rsus[rsus > 0]
    lo = -half if left.size == 0 else left.max() / 2.0
    hi = half if right.size == 0 else right.min() / 2.0
    return lo, hi


def _nearest_cell(rsus, half):
    """Serving RSU (nearest to the origin) and its Voronoi cell."""
    i = int(np.argmin(np.abs(rsus)))
    lo = -half if i == 0 else 0.5 * (rsus[i - 1] + rsus[i])
    hi = half if i == len(rsus) - 1 else 0.5 * (rsus[i] + rsus[i + 1])
    return i, lo, hi


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
    is excluded from the returned array (its own platoon is included)."""
    if traffic == "PTS":
        pts = _mcp_points(params, -half, half, rng)
        if palm:
            x0 = rng.uniform(-params.a, params.a)
            sibs = x0 + rng.uniform(-params.a, params.a,
                                    rng.poisson(params.m))
            pts = np.concatenate([pts, sibs[np.abs(sibs) <= half]])
        return pts
    n = rng.poisson(params.lam * 2 * half)
    return rng.uniform(-half, half, n)


def sim_load(kind, traffic, params: NetworkParams, cfg: SimConfig):
    """Empirical load PMF and moment estimates.

    kind="typical" uses Slivnyak conditioning (RSU at the origin);
    kind="tagged" uses Palm conditioning (typical VU at the origin,
    served by the nearest RSU; the typical VU itself is not counted).
    """
    half = cfg.half_width(params)
    counts = np.empty(cfg.replications, dtype=np.int64)
    for rep in range(cfg.replications):
        rng = replication_rng(cfg.master_seed, rep)
        rsus = _rsus(params, half, rng)
        if kind == "typical":
            lo, hi = _origin_cell(rsus, half)
            vus = _vus(traffic, params, half, rng, palm=False)
        elif kind == "tagged":
            while rsus.size == 0:  # vanishing probability at sane windows
                rsus = _rsus(params, half, rng)
            _, lo, hi = _nearest_cell(rsus, half)
            vus = _vus(traffic, params, half, rng, palm=traffic == "PTS")
        else:
            raise ValueError(f"unknown kind {kind!r}")
        counts[rep] = np.count_nonzero((vus >= lo) & (vus <= hi))
    pmf = _empirical_pmf(counts)
    moments = {
        "mean": _mean_estimate(counts),
        "variance": _mean_estimate((counts - counts.mean()) ** 2),
        "third_moment": _mean_estimate(counts.astype(float) ** 3),
    }
    return pmf, moments


def sim_connectivity(traffic, v2v, cfg: SimConfig):
    """Empirical connectivity-degree PMF: other VUs within R_b/2 of the
    typical VU at the origin."""
    params = v2v.params
    r = v2v.r_b / 2.0
    half = r + 2 * params.a  # communication range plus cluster reach
    counts = np.empty(cfg.replications, dtype=np.int64)
    for rep in range(cfg.replications):
        rng = replication_rng(cfg.master_seed, rep)
        vus = _vus(traffic, params, half, rng, palm=traffic == "PTS")
        counts[rep] = np.count_nonzero(np.abs(vus) <= r)
    return _empirical_pmf(counts)


def _interference_reach(p_active, params, radio):
    """Distance beyond which the mean residual interference is below
    1e-6 * sigma^2 (power-law tail bound)."""
    lead = 2 * p_active * params.lambda_r * radio.p_t / (radio.alpha - 1)
    return (lead / (1e-6 * radio.sigma2)) ** (1.0 / (radio.alpha - 1))


def _conditional_success(thr, r_serv, dists, sigma2, p_t, alpha, rng,
                         n_draws):
    """Fading-averaged success probability given one geometry."""
    scale = thr * r_serv**alpha / p_t
    if dists.size:
        h = rng.exponential(size=(n_draws, dists.size))
        interference = h @ (p_t * dists**-alpha)
    else:
        interference = np.zeros(n_draws)
    return np.exp(-scale * (interference + sigma2)).mean()


def _coverage_geometry(traffic, params, radio, rng, half, rate_tau=None):
    """One geometry replication: serving distance, interferer distances
    and (in rate mode) the load-mapped SINR threshold."""
    rsus = _rsus(params, half, rng)
    while rsus.size == 0:
        rsus = _rsus(params, half, rng)
    vus = _vus(traffic, params, half, rng, palm=traffic == "PTS")
    # nearest-RSU association via midpoint boundaries
    bounds = 0.5 * (rsus[:-1] + rsus[1:])
    occupancy = np.bincount(np.searchsorted(bounds, vus),
                            minlength=rsus.size)
    serving = int(np.argmin(np.abs(rsus)))
    r_serv = abs(rsus[serving])
    active = occupancy > 0
    active[serving] = False  # the serving RSU never interferes with itself
    dists = np.abs(rsus[active])
    if rate_tau is None:
        thr = None
    else:
        # `vus` excludes the typical VU, so occupancy[serving] is the
        # extra load and the typical VU shares with occupancy+1 users
        load = occupancy[serving]
        thr = 2.0 ** (rate_tau * (load + 1) / radio.bandwidth) - 1.0
    return r_serv, dists, thr


def sim_coverage_profile(tau, traffic, params, radio: RadioParams,
                         cfg: SimConfig, rate_tau=None):
    """Per-geometry conditional success probabilities.

    With rate_tau set, the SINR threshold of each geometry is mapped
    through the actual tagged-cell load (rate-coverage mode)."""
    half = max(cfg.half_width(params),
               _interference_reach(1.0, params, radio))
    out = np.empty(cfg.replications)
    for rep in range(cfg.replications):
        rng = replication_rng(cfg.master_seed, rep)
        r_serv, dists, thr = _coverage_geometry(
            traffic, params, radio, rng, half, rate_tau=rate_tau)
        out[rep] = _conditional_success(
            tau if thr is None else thr, r_serv, dists, radio.sigma2,
            radio.p_t, radio.alpha, rng, cfg.fading_draws_per_geometry)
    return out


def sim_coverage(tau, traffic, params, radio, cfg) -> SimEstimate:
    """Monte Carlo SINR coverage probability with true dependent
    RSU thinning."""
    return _mean_estimate(sim_coverage_profile(tau, traffic, params, radio,
                                               cfg))


def sim_md_coverage(tau, x, traffic, params, radio, cfg) -> SimEstimate:
    """Monte Carlo meta distribution: fraction of geometries whose
    conditional coverage probability exceeds x."""
    prof = sim_coverage_profile(tau, traffic, params, radio, cfg)
    return _mean_estimate(prof > x)


def sim_rate(tau_rate, traffic, params, radio, cfg) -> SimEstimate:
    """Monte Carlo rate coverage using the actual tagged-cell load."""
    prof = sim_coverage_profile(None, traffic, params, radio, cfg,
                                rate_tau=tau_rate)
    return _mean_estimate(prof)


def sim_md_rate(tau_rate, x, traffic, params, radio, cfg) -> SimEstimate:
    prof = sim_coverage_profile(None, traffic, params, radio, cfg,
                                rate_tau=tau_rate)
    return _mean_estimate(prof > x)
