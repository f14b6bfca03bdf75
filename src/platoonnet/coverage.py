"""Downlink SINR coverage, rate coverage and their meta distributions.

The active-RSU set is approximated as an independent thinning of the RSU
process (density p * lambda_r); the Monte Carlo engine implements the
true dependent thinning so the size of that approximation is measurable.

Every moment M_q of the conditional success probability, real q and
q = it alike, is one fixed numpy rule (`CoverageMeta.moment`): an inner
integral in w = ln(1 + tau*y), free of branch cuts in (1 + tau*y)^(-q),
and a serving-distance integral on a rotated path, with one composite
Gauss-Legendre table on dyadic panels.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .geometry import NetworkParams, platooned
from .load import pmf_tagged_npts_certified, pmf_tagged_pts_certified
from .mcp_counts import g_of
from .numerics import GP_ABS_TOL, NumericsError, gil_pelaez_invert, quad

# fixed rule of CoverageMeta._inner
_PERIODS = 4       # oscillation periods integrated on the real axis
_PANEL_MAX = 2.0   # widest real-axis panel; w^eta f(w) is analytic
                   # for |w| < 2 pi
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_LAG_V, _LAG_W = np.polynomial.laguerre.laggauss(40)


@lru_cache(maxsize=32)
def _jacobi_nodes(eta):
    """20-node Gauss-Jacobi rule on [0, 1] for the weight u^(1-eta), its
    weights divided by that weight: it integrates u^(1-eta) times a
    smooth function directly."""
    x, w = special.roots_jacobi(20, 0.0, 1.0 - eta)
    u = (1.0 + x) / 2
    return u, w / 2 ** (2 - eta) * u ** (eta - 1)


def _panels(edges, x, w):
    """Gauss-Legendre nodes x, weights w on [-1, 1] mapped onto each
    panel between consecutive edges."""
    half = 0.5 * np.diff(edges)[:, None]
    return ((0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel(),
            (half * w).ravel())


# fixed rule of _serving_integral: 24-node Gauss-Legendre on the dyadic
# panels [0, 2^-6], [2^-6, 2^-5], ..., [2^6, 2^7], fine near 0, where
# r^alpha is not smooth
_R_V, _R_W = _panels(np.append(0.0, 2.0 ** np.arange(-6, 8)),
                     *np.polynomial.legendre.leggauss(24))


def _serving_integral(lin, noise, alpha):
    """Integral of exp(-lin r - noise r^alpha) over r in [0, inf), with
    Re lin > 0 and Re noise >= 0.

    The path r = rot u, rot = e^(-i arg(noise)/alpha), turns the noise
    term into the real decay |noise| u^alpha, and u = u0 v scales the
    decay length to O(1) before the fixed dyadic rule in v.
    """
    rot = cmath.exp(-1j * cmath.phase(noise) / alpha)
    u0 = 1.0 / (abs(lin * rot) + abs(noise) ** (1.0 / alpha))
    u = u0 * _R_V
    return rot * u0 * (_R_W @ np.exp(-lin * rot * u - abs(noise) * u**alpha))


@dataclass(frozen=True)
class RadioParams:
    """Transmit power (W), noise power (W), pathloss exponent, bandwidth (Hz)."""

    p_t: float
    sigma2: float
    alpha: float
    bandwidth: float = 10e6

    def __post_init__(self):
        # written so that NaN fails each check
        if not all(0 < v < math.inf
                   for v in (self.p_t, self.sigma2, self.bandwidth)):
            raise ValueError("radio parameters must be positive and finite")
        if not 1 < self.alpha < math.inf:
            raise ValueError("finite alpha > 1 required for interference "
                             "convergence")

    @property
    def snr(self):
        return self.p_t / self.sigma2

    def rate_threshold(self, tau_rate, users):
        """SINR threshold 2^(tau_rate * users / B) - 1 at which each of
        `users` VUs sharing the RSU gets rate tau_rate (bits/s)."""
        return 2.0 ** (tau_rate * users / self.bandwidth) - 1.0


def active_prob(traffic, params: NetworkParams):
    """Probability that an RSU serves at least one VU."""
    if not platooned(traffic):
        return 1.0 - 4 * params.lambda_r**2 \
            / (params.lam + 2 * params.lambda_r) ** 2
    lr = params.lambda_r

    def f(t):
        return math.exp(g_of(0.0, t / 2.0, params)) \
            * 4 * lr**2 * t * math.exp(-2 * lr * t)

    return 1.0 - quad(f, 0, np.inf)


def coverage_prob(tau, traffic, params: NetworkParams, radio: RadioParams,
                  p_active=None):
    """P[SINR > tau] at the typical VU; p_active, when given, is
    active_prob(traffic, params), so a caller summing over thresholds
    computes it once."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    p = active_prob(traffic, params) if p_active is None else p_active
    lr, alpha, snr = params.lambda_r, radio.alpha, radio.snr
    # given the serving distance r, -log of the interference LT at
    # s = tau r^alpha / p_t is slope * r (hypergeometric closed form,
    # argument -tau for every r)
    b = 1.0 - 1.0 / alpha
    h = special.hyp2f1(1.0, b, 2.0 - 1.0 / alpha, -tau)
    if not math.isfinite(h):
        raise NumericsError(f"hyp2f1 at -tau = {-tau} did not converge")
    slope = 2 * p * lr * tau / alpha * h / b

    def f(r):
        return math.exp(-(slope + 2 * lr) * r - tau * r**alpha / snr)

    return 2 * lr * quad(f, 0, np.inf)


class CoverageMeta:
    """Moments and meta distribution of the conditional coverage
    probability for one (tau, traffic) pair.

    Caches the imaginary-order moments M_it, so that the meta
    distribution can be evaluated on a grid of reliability levels x
    without recomputing them.
    """

    def __init__(self, tau, traffic, params: NetworkParams,
                 radio: RadioParams, p_active=None):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self.params = params
        self.radio = radio
        self.p = active_prob(traffic, params) if p_active is None \
            else p_active
        self.eta = (1.0 + radio.alpha) / radio.alpha
        self._coef = 2 * self.p * params.lambda_r / radio.alpha
        # a weak reference: the bound method would make a cycle that keeps
        # each object and its cache alive until a full garbage collection
        moment = weakref.WeakMethod(self.moment)
        self._moment_cached = lru_cache(maxsize=65536)(lambda q: moment()(q))

    def _inner(self, q):
        """Inner integral of (1 - (1 + tau*y)^(-q)) y^(-eta) over [0, 1],
        for complex q with Re q >= 0, q != 0.

        With w = ln(1 + tau*y) it is tau^(eta-1) times the integral of
        (1 - e^(-qw)) f(w), f(w) = e^w (e^w - 1)^(-eta), over [0, W],
        W = ln(1 + tau).  Up to A = min(W, 4 periods 2 pi/|q|) it runs on
        the real axis: Gauss-Jacobi (weight w^(1-eta)) over the first
        period, then Gauss-Legendre panels.  Beyond A, the integral of f
        is closed form and that of e^(-qw) f runs along w = A + v/q and
        w = W + v/q, where f is analytic (its only singularities are at
        w = 2 pi i k) and e^(-qw) = e^(-qA) e^(-v) decays: Gauss-Laguerre
        in v.  The node count is bounded whatever q is.
        """
        tau, eta = self.tau, self.eta
        W = math.log1p(tau)
        period = 2 * math.pi / abs(q)
        A = min(W, _PERIODS * period)
        B = min(A, period, _PANEL_MAX)

        def f(w):
            # e^w (e^w - 1)^(-eta), continuous for Re w > 0 and accurate
            # as w -> 0
            return np.exp((1 - eta) * w - eta * np.log(-np.expm1(-w)))

        x, wts = _jacobi_nodes(eta)
        w, c = B * x, B * wts
        if A > B:
            n = math.ceil((A - B) / min(period, _PANEL_MAX))
            w_gl, c_gl = _panels(np.linspace(B, A, n + 1), _GL_X, _GL_W)
            w, c = np.append(w, w_gl), np.append(c, c_gl)
        val = (c * f(w)) @ -np.expm1(-q * w)
        if A < W:
            val += (math.expm1(A) ** (1 - eta) - tau ** (1 - eta)) \
                / (eta - 1) - _LAG_W @ (
                    cmath.exp(-q * A) * f(A + _LAG_V / q)
                    - cmath.exp(-q * W) * f(W + _LAG_V / q)) / q
        return val * tau ** (eta - 1)

    def moment(self, q):
        """q-th moment of the conditional coverage probability, complex
        q with Re q >= 0 (a real q gives a real moment); M_it is the
        characteristic function of ln CP.  Given the serving distance r,
        E[CP^q | r] = exp(-coef inner(q) r - q tau r^alpha / snr)."""
        if q == 0:
            return 1.0
        lr = self.params.lambda_r
        m = 2 * lr * _serving_integral(
            self._coef * self._inner(q) + 2 * lr,
            q * self.tau / self.radio.snr, self.radio.alpha)
        return m if isinstance(q, complex) else float(m.real)

    def moment_it(self, t):
        return self._moment_cached(1j * float(t))

    def md_noise_bound(self, x):
        """Rigorous upper bound on P[conditional CP > x]: even with zero
        interference, CP <= exp(-tau r^alpha / snr), so coverage above x
        needs the serving RSU within an explicit radius."""
        if not 0.0 < x < 1.0:
            raise ValueError("x must be in (0, 1)")
        r_star = (self.radio.snr * (-math.log(x)) / self.tau) \
            ** (1.0 / self.radio.alpha)
        return -math.expm1(-2 * self.params.lambda_r * r_star)

    def md(self, x):
        """Meta distribution P[conditional CP > x].

        Inverted by Gil-Pelaez and clamped by the noise-only bound, which
        also short-circuits the deep-threshold regime where the phase of
        ln CP is too fast for any quadrature to track."""
        bound = self.md_noise_bound(x)
        if bound < GP_ABS_TOL / 10:
            return bound
        return min(bound, gil_pelaez_invert(self.moment_it, x))


def md_coverage(tau, x, traffic, params, radio):
    """Meta distribution of the coverage probability at level x."""
    return CoverageMeta(tau, traffic, params, radio).md(x)


def _tagged_pmf(traffic, params):
    return pmf_tagged_pts_certified(params) if platooned(traffic) \
        else pmf_tagged_npts_certified(params)


def rate_coverage(tau_rate, traffic, params, radio: RadioParams):
    """P[per-VU Shannon rate > tau_rate] at the typical VU.

    Sum over the tagged-cell load of the SINR coverage at the mapped
    threshold 2^(tau*(k+1)/B) - 1; terms below 1e-9 are dropped (the
    mapped CP is decreasing in k)."""
    if tau_rate <= 0:
        raise ValueError("tau_rate must be positive")
    pmf = _tagged_pmf(traffic, params)
    p = active_prob(traffic, params)
    total = 0.0
    for k, pk in enumerate(pmf.masses):
        thr = radio.rate_threshold(tau_rate, k + 1)
        cp = coverage_prob(thr, traffic, params, radio, p_active=p)
        total += pk * cp
        if cp < 1e-9:
            break
    return total


def md_rate(tau_rate, x, traffic, params, radio: RadioParams):
    """Meta distribution of the rate coverage at level x."""
    if tau_rate <= 0:
        raise ValueError("tau_rate must be positive")
    pmf = _tagged_pmf(traffic, params)
    p = active_prob(traffic, params)
    total = 0.0
    remaining = 1.0
    for k, pk in enumerate(pmf.masses):
        thr = radio.rate_threshold(tau_rate, k + 1)
        meta = CoverageMeta(thr, traffic, params, radio, p_active=p)
        md = meta.md(x)
        total += pk * md
        remaining -= pk
        # md is decreasing in k, so the unsummed tail is below this
        if remaining * md < 1e-6:
            break
    return total
