"""Reference forms that only the tests call: each one restates a quantity
the package computes another way, so a test can hold the two side by
side."""

import cmath
import math
import warnings

import numpy as np
from scipy import special
from scipy.integrate import IntegrationWarning

from platoonnet import montecarlo
from platoonnet.connectivity import V2VParams, _own_cluster_mixture
from platoonnet.coverage import _R_V, _R_W, RadioParams
from platoonnet.geometry import NetworkParams, pdf_cell, platooned, \
    replication_rng
from platoonnet.load import _RHO, _log_pgf_given, _mixture, \
    _vm_mixture, pgf_vm
from platoonnet.mcp_counts import beta_bar, g_of
from platoonnet.numerics import quad


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


def serving_exponents(lins, noises, alpha):
    """(rots, u0s, exponents) of the serving-distance integrals of
    `coverage._serving_integrals` as that function stood before it
    skipped exp where the exponent underflows: each pair's path rotation
    and scale, and the (pair x node) exponent array."""
    rots = [cmath.exp(-1j * cmath.phase(noise) / alpha) for noise in noises]
    u0s = [1.0 / (abs(lin * rot) + abs(noise) ** (1.0 / alpha))
           for lin, noise, rot in zip(lins, noises, rots)]
    slope = np.array([-lin * rot for lin, rot in zip(lins, rots)])
    decay = np.array([abs(noise) for noise in noises])
    u = np.array(u0s)[:, None] * _R_V
    return rots, u0s, slope[:, None] * u - decay[:, None] * u**alpha


def serving_integrals_unmasked(lins, noises, alpha):
    """`coverage._serving_integrals` before the mask: exp at every node
    and one dot product per pair."""
    rots, u0s, exponents = serving_exponents(lins, noises, alpha)
    return [rot * u0 * (_R_W @ row)
            for rot, u0, row in zip(rots, u0s, np.exp(exponents))]


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
                     + special.gammainc(i + 1, z) * special.gamma(i + 1)
                     / (m / (2 * a)))


def pgf_degree_npts(s, v2v: V2VParams):
    """Poisson PGF exp(lam * R_b * (s - 1)) of the N-PTS degree."""
    return math.exp(v2v.params.lam * v2v.r_b * (s - 1.0))


def pgf_degree_pts(s, v2v: V2VParams):
    """PGF of the PTS degree: the background-count PGF at radius R_b/2
    times the own-platoon factor (uniform parent location on the cluster
    ball)."""
    w0, mu0, mu1 = _own_cluster_mixture(v2v)
    z = s - 1.0
    own = w0 * math.exp(mu0 * z)
    if w0 < 1.0:
        if abs(z) < 1e-9:
            own += (1 - w0) * (1.0 + 0.5 * (mu0 + mu1) * z)
        else:
            own += (1 - w0) * (math.exp(mu0 * z) - math.exp(mu1 * z)) \
                / (z * (mu0 - mu1))
    return math.exp(g_of(s, v2v.r_b / 2.0, v2v.params)) * own


def moments_vm_conditional(t, params: NetworkParams):
    """(mean, variance) of V_m(t/2) for a fixed cell length t, from the
    factorial moments E[M^j] = w mu0^j + c mu0^(j+2)/(j+2) of its Poisson
    mean mixture."""
    w, mu0, c = _vm_mixture(t, params)
    e1, e2 = (w * mu0**j + c * mu0 ** (j + 2) / (j + 2) for j in (1, 2))
    return e1, e1 + e2 - e1**2


def tail_pgf_quad(s, t1, T, params: NetworkParams, tagged):
    """The share of the cell lengths in [t1, T] of the PTS load's mixture
    PGF at a scalar s: the cell-length density times the conditional PGF
    of the kernels `g_of` and `pgf_vm`, by adaptive quadrature of its real
    and imaginary parts."""
    def pgf(t):
        value = np.exp(g_of(s, t / 2.0, params))
        if tagged:
            value = value * pgf_vm(s, t, params)
        return complex(pdf_cell(t, params.lambda_r, tagged) * value)

    return complex(*(quad(lambda t: part(pgf(t)), t1, T, epsabs=0.0,
                          epsrel=1e-13, limit=400)
                     for part in (np.real, np.imag)))


def chernoff_log_g_all_nodes(params: NetworkParams, tagged):
    """log G(rho) at the Chernoff radii as `load._pts_masses` summed it
    before its stage took the linear form past the kink: the per-node
    kernel on every mixture node, one block of 32 nodes at a time, each
    block a max-shifted log-sum-exp."""
    nodes, wts, *_ = _mixture(params, tagged)
    parts = []
    for i in range(0, nodes.size, 32):
        log_pgf = _log_pgf_given(_RHO, nodes[i:i + 32, None], params, tagged)
        top = log_pgf.max(axis=0)
        parts.append(top + np.log(wts[i:i + 32] @ np.exp(log_pgf - top)))
    return np.logaddexp.reduce(parts)


def active_prob_per_point(params: NetworkParams):
    """active_prob("PTS"): 1 minus the mixture of exp(g(0, t/2)) over
    the typical cell length, one scalar integrand call per point."""
    lr = params.lambda_r

    def f(t):
        return math.exp(g_of(0.0, t / 2.0, params)) \
            * 4 * lr**2 * t * math.exp(-2 * lr * t)

    return 1.0 - quad(f, 0, np.inf)


# Points spanning the supported box u in [1, 100], a in [50, 300] m and
# lambda_r in [0.5, 10]/km (lambda_p = 1/km), as NetworkParams
MOMENT_BOX = [NetworkParams.from_per_km(lr, 1.0, u, a) for lr, u, a in (
    (0.5, 1.0, 50.0), (0.5, 100.0, 300.0), (10.0, 1.0, 300.0),
    (10.0, 100.0, 50.0), (2.0, 5.0, 100.0), (2.0, 35.0, 150.0))]


def kappa_direct(r, k, params: NetworkParams):
    """kappa(r, k) = 2 lp (m beta/2a)^k (r + a - beta k/(k+1)), beta =
    2 min(r, a), written out rather than from coefficients."""
    lp, m, a = params.lambda_p, params.m, params.a
    beta = 2 * min(r, a)
    return 2 * lp * (m * beta / (2 * a)) ** k * (r + a - beta * k / (k + 1))


def cell_average_quad(f, params: NetworkParams, tagged):
    """E[f(L)] over the typical or tagged cell length by adaptive
    quadrature, split at L = 2a where the moments change form."""
    def g(ell):
        return f(ell) * float(pdf_cell(ell, params.lambda_r, tagged))

    a2 = 2 * params.a
    return sum(quad(g, lo, hi, epsabs=0.0, epsrel=1e-12)
               for lo, hi in ((0.0, a2), (a2, np.inf)))


def kappa_cross_moment_quad(params: NetworkParams):
    """E[kappa(L/2, 1) kappa(L/2, 2)] over the typical cell length, the
    cross term of the typical PTS third moment."""
    return cell_average_quad(lambda ell: kappa_direct(ell / 2, 1, params)
                             * kappa_direct(ell / 2, 2, params),
                             params, tagged=False)


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
