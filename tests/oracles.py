"""Reference forms that only the tests call: each one restates a quantity
the package computes another way, so a test can hold the two side by
side."""

import math
import warnings

import numpy as np
from scipy import special
from scipy.integrate import IntegrationWarning

from platoonnet import montecarlo
from platoonnet.connectivity import V2VParams
from platoonnet.coverage import RadioParams
from platoonnet.geometry import NetworkParams, platooned, replication_rng
from platoonnet.load import vm_factorial_moment
from platoonnet.mcp_counts import beta_bar, g_of
from platoonnet.numerics import gamma_lower, quad


def laplace_interference(s, r, p_active, lambda_r, radio: RadioParams):
    """LT E[exp(-s I) | r] of the interference I from active RSUs beyond
    the serving distance r, in hypergeometric closed form:
    exp(-2 p lambda_r s p_t r^(1-alpha) / alpha 2F1(1, b; b+1; -z) / b),
    b = 1 - 1/alpha, z = s p_t r^-alpha.  `coverage.coverage_prob` writes
    its own copy at s = tau r^alpha / p_t."""
    alpha = radio.alpha
    b = 1.0 - 1.0 / alpha
    h = special.hyp2f1(1.0, b, 2.0 - 1.0 / alpha,
                       -s * radio.p_t * r ** (-alpha))
    return math.exp(-2 * p_active * lambda_r * s * radio.p_t
                    * r ** (1.0 - alpha) / alpha * h / b)


def laplace_interference_quad(s, r, p_active, lambda_r, radio: RadioParams):
    """Quadrature cross-check of the closed-form LT
    `laplace_interference`."""
    alpha, pt = radio.alpha, radio.p_t

    def f(z):
        return 1.0 - 1.0 / (1.0 + s * pt * z ** (-alpha))

    with warnings.catch_warnings():
        # roundoff warnings at these tolerances are expected; the value
        # is still far more accurate than the cross-check needs
        warnings.simplefilter("ignore", IntegrationWarning)
        val = quad(f, r, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400)
    return math.exp(-2 * p_active * lambda_r * val)


def pgf_S(s, r, params: NetworkParams):
    """PGF of the MCP count in a ball of radius r."""
    return np.exp(g_of(s, r, params))


def g_deriv_at_zero(i, r, params: NetworkParams):
    """i-th derivative of g(s, r) w.r.t. s at s = 0, i >= 1."""
    if i < 1:
        raise ValueError("derivative order must be >= 1")
    lp, m, a = params.lambda_p, params.m, params.a
    z = m * beta_bar(r, a)
    return 2 * lp * (z**i * np.exp(-z) * abs(r - a)
                     + gamma_lower(i + 1, z) / (m / (2 * a)))


def pgf_degree_npts(s, v2v: V2VParams):
    """Poisson PGF exp(lam * R_b * (s - 1)) of the N-PTS degree."""
    return math.exp(v2v.params.lam * v2v.r_b * (s - 1.0))


def moments_vm_conditional(t, params: NetworkParams):
    """(mean, variance) of V_m(t/2) for a fixed cell length t."""
    e1 = vm_factorial_moment(1, t, params)
    e2 = vm_factorial_moment(2, t, params)
    return e1, e1 + e2 - e1**2


# The Monte Carlo engine reduced one replication at a time: the same
# draws on the same streams as `montecarlo`, each replication placing its
# own points and reducing them on its own.

def mc_rsus(params, half, rng):
    """Sorted RSU positions of a Poisson process on [-half, half]."""
    return np.sort(rng.uniform(-half, half,
                               rng.poisson(params.lambda_r * 2 * half)))


def mc_mcp_points(params, lo, hi, rng):
    """MCP daughters on [lo, hi]; parents sampled on the a-dilated window."""
    n_par = rng.poisson(params.lambda_p * (hi - lo + 2 * params.a))
    parents = rng.uniform(lo - params.a, hi + params.a, n_par)
    counts = rng.poisson(params.m, n_par)
    reps = np.repeat(parents, counts)
    pts = reps + rng.uniform(-params.a, params.a, reps.size)
    return pts[(pts >= lo) & (pts <= hi)]


def mc_vus(traffic, params, half, rng, palm):
    """VU positions; under Palm conditioning the typical VU at the origin
    is excluded from the returned array (its own platoon is included)."""
    if platooned(traffic):
        pts = mc_mcp_points(params, -half, half, rng)
        if palm:
            x0 = rng.uniform(-params.a, params.a)
            sibs = x0 + rng.uniform(-params.a, params.a,
                                    rng.poisson(params.m))
            pts = np.concatenate([pts, sibs[np.abs(sibs) <= half]])
        return pts
    n = rng.poisson(params.lam * 2 * half)
    return rng.uniform(-half, half, n)


def mc_tagged_geometry(traffic, params, half, rng):
    """RSUs (at least one) and the VUs seen from a typical VU at the
    origin (Palm; the typical VU itself is not in the array)."""
    rsus = mc_rsus(params, half, rng)
    while rsus.size == 0:
        rsus = mc_rsus(params, half, rng)
    return rsus, mc_vus(traffic, params, half, rng, palm=True)


def mc_association(rsus, vus):
    """The RSU serving the origin and the number of VUs each RSU
    serves (cells bounded by the midpoints)."""
    bounds = 0.5 * (rsus[:-1] + rsus[1:])
    occupancy = np.bincount(np.searchsorted(bounds, vus),
                            minlength=rsus.size)
    return int(np.argmin(np.abs(rsus))), occupancy


def _each_replication(cfg, draw):
    return [draw(replication_rng(cfg.master_seed, rep))
            for rep in range(cfg.replications)]


def mc_loads(kind, traffic, params, cfg):
    """The load of every replication of `montecarlo.sim_load`."""
    half = montecarlo._half_width(params)

    def draw(rng):
        if kind == "typical":
            rsus = np.sort(np.append(mc_rsus(params, half, rng), 0.0))
            vus = mc_vus(traffic, params, half, rng, palm=False)
        else:
            rsus, vus = mc_tagged_geometry(traffic, params, half, rng)
        serving, occupancy = mc_association(rsus, vus)
        return occupancy[serving]
    return np.array(_each_replication(cfg, draw))


def mc_degrees(traffic, v2v, cfg):
    """The degree of every replication of `montecarlo.sim_connectivity`."""
    params, r = v2v.params, v2v.r_b / 2.0
    half = r + 2 * params.a
    return np.array(_each_replication(cfg, lambda rng: np.count_nonzero(
        np.abs(mc_vus(traffic, params, half, rng, palm=True)) <= r)))


def mc_coverage_profile(threshold, traffic, params, radio, cfg):
    """`montecarlo._coverage_profile`, `threshold` taking one load."""
    half = max(montecarlo._half_width(params),
               montecarlo._interference_reach(params, radio))

    def draw(rng):
        rsus, vus = mc_tagged_geometry(traffic, params, half, rng)
        serving, occupancy = mc_association(rsus, vus)
        active = occupancy > 0
        active[serving] = False
        r = abs(rsus[serving])
        tau = threshold(occupancy[serving])
        ratio = tau * (r / np.abs(rsus[active]))**radio.alpha
        return math.exp(-tau * r**radio.alpha / radio.snr
                        - np.log1p(ratio).sum())
    return np.array(_each_replication(cfg, draw))
