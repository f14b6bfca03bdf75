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

from .geometry import NetworkParams, platooned, replication_rng
from .mcp_counts import DiscretePMF
from .coverage import RadioParams


@dataclass(frozen=True)
class SimConfig:
    replications: int = 10_000
    master_seed: int = 2024
    window_km: float = None  # type: ignore[assignment]
    fading_draws_per_geometry: int = 500

    def __post_init__(self):
        if self.replications < 2:
            # every estimate reports a standard error, which needs two
            raise ValueError("need at least two replications")

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
    """Empirical load PMF and moment estimates.

    kind="typical" uses Slivnyak conditioning (RSU at the origin);
    kind="tagged" uses Palm conditioning (typical VU at the origin,
    served by the nearest RSU; the typical VU itself is not counted).
    """
    if kind not in ("typical", "tagged"):
        raise ValueError(f"unknown kind {kind!r}")
    half = cfg.half_width(params)
    counts = np.empty(cfg.replications, dtype=np.int64)
    for rep in range(cfg.replications):
        rng = replication_rng(cfg.master_seed, rep)
        if kind == "typical":
            rsus = np.sort(np.append(_rsus(params, half, rng), 0.0))
            vus = _vus(traffic, params, half, rng, palm=False)
        else:
            rsus, vus = _tagged_geometry(traffic, params, half, rng)
        serving, occupancy = _association(rsus, vus)
        counts[rep] = occupancy[serving]
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
        vus = _vus(traffic, params, half, rng, palm=True)
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
    rsus, vus = _tagged_geometry(traffic, params, half, rng)
    serving, occupancy = _association(rsus, vus)
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
        thr = radio.rate_threshold(rate_tau, load + 1)
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
