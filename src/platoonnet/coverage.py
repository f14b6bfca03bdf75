"""Downlink SINR coverage, rate coverage and their meta distributions.

The active-RSU set is approximated as an independent thinning of the RSU
process (density p * lambda_r); the Monte Carlo engine implements the
true dependent thinning so the size of that approximation is measurable.

Moments of the conditional success probability are computed from the
real/imaginary split of the imaginary-order moment (cosine and sine
inner integrals), avoiding branch cuts in (1 + tau*y)^(-it).  The inner
integral at q = it is one fixed numpy rule for every t: Gauss-Jacobi and
Gauss-Legendre nodes over the first four oscillation periods, a closed
form plus two Gauss-Laguerre descent legs beyond them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special
from scipy.integrate import IntegrationWarning

from .geometry import NetworkParams, platooned
from .load import pmf_tagged_npts_certified, pmf_tagged_pts_certified
from .mcp_counts import g_of
from .numerics import GP_ABS_TOL, gil_pelaez_invert, hyp2f1_real, quad, \
    quad_complex

# fixed rule of CoverageMeta._inner_trig
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


@dataclass(frozen=True)
class RadioParams:
    """Transmit power (W), noise power (W), pathloss exponent, bandwidth (Hz)."""

    p_t: float
    sigma2: float
    alpha: float
    bandwidth: float = 10e6

    def __post_init__(self):
        if min(self.p_t, self.sigma2, self.bandwidth) <= 0:
            raise ValueError("radio parameters must be positive")
        if self.alpha <= 1:
            raise ValueError("alpha > 1 required for interference convergence")

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


def _interference_exponent(s, r, p_active, lambda_r, radio: RadioParams):
    """-log of `laplace_interference` (hypergeometric closed form)."""
    alpha = radio.alpha
    z = s * radio.p_t * r ** (-alpha)
    h = hyp2f1_real(1.0, 1.0 - 1.0 / alpha, 2.0 - 1.0 / alpha, -z)
    return 2 * p_active * lambda_r * s * radio.p_t \
        * r ** (1.0 - alpha) / alpha * h / (1.0 - 1.0 / alpha)


def laplace_interference(s, r, p_active, lambda_r, radio: RadioParams):
    """LT of the interference from active RSUs beyond the serving
    distance r, conditioned on r."""
    return math.exp(-_interference_exponent(s, r, p_active, lambda_r, radio))


def laplace_interference_quad(s, r, p_active, lambda_r, radio: RadioParams):
    """Quadrature cross-check of the closed-form LT."""
    import warnings

    alpha, pt = radio.alpha, radio.p_t

    def f(z):
        return 1.0 - 1.0 / (1.0 + s * pt * z ** (-alpha))

    with warnings.catch_warnings():
        # roundoff warnings at these tolerances are expected; the value
        # is still far more accurate than the cross-check needs
        warnings.simplefilter("ignore", IntegrationWarning)
        val = quad(f, r, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400)
    return math.exp(-2 * p_active * lambda_r * val)


def coverage_prob(tau, traffic, params: NetworkParams, radio: RadioParams):
    """P[SINR > tau] at the typical VU."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    p = active_prob(traffic, params)
    lr, alpha, snr = params.lambda_r, radio.alpha, radio.snr
    # at s = tau r^alpha / p_t the hypergeometric argument is -tau for
    # every r, so the interference exponent is linear in r
    slope = _interference_exponent(tau / radio.p_t, 1.0, p, lr, radio)

    def f(r):
        return math.exp(-(slope + 2 * lr) * r - tau * r**alpha / snr)

    return 2 * lr * quad(f, 0, np.inf)


class CoverageMeta:
    """Moments and meta distribution of the conditional coverage
    probability for one (tau, traffic) pair.

    Caches the oscillatory inner integrals so that the meta distribution
    can be evaluated on a grid of reliability levels x without recomputing
    the imaginary-order moments.
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
        self._moment_cached = lru_cache(maxsize=65536)(self._moment_it)

    def _inner_real_q(self, q):
        tau, eta = self.tau, self.eta

        def f(y):
            return (1.0 - (1.0 + tau * y) ** (-q)) * y ** (-eta)

        return quad(f, 0, 1)

    def _inner_trig(self, t):
        """Inner integral at q = it, t > 0, as (real, imaginary) parts.

        With w = ln(1 + tau*y) it is tau^(eta-1) times the integral of
        (1 - e^(-itw)) f(w), f(w) = e^w (e^w - 1)^(-eta), over [0, W],
        W = ln(1 + tau).  Up to A = min(W, 4 periods) it runs on the real
        axis: Gauss-Jacobi (weight w^(1-eta)) over the first period, then
        Gauss-Legendre panels, with 1 - cos written as 2 sin^2.  Beyond A,
        the integral of f is closed form and that of e^(-itw) f descends
        from A and from W into Im w < 0, where f is analytic (its only
        singularities are at w = 2 pi i k) and e^(-itw) decays:
        Gauss-Laguerre in t*v.
        The node count is bounded whatever t is.
        """
        tau, eta = self.tau, self.eta
        W = math.log1p(tau)
        period = 2 * math.pi / t
        A = min(W, _PERIODS * period)
        B = min(A, period, _PANEL_MAX)

        def f(w):
            # e^w (e^w - 1)^(-eta), continuous for Re w > 0 and accurate
            # as w -> 0
            return np.exp((1 - eta) * w - eta * np.log(-np.expm1(-w)))

        x, wts = _jacobi_nodes(eta)
        w, q = B * x, B * wts
        if A > B:
            n = math.ceil((A - B) / min(period, _PANEL_MAX))
            edges = np.linspace(B, A, n + 1)
            half = 0.5 * np.diff(edges)[:, None]
            w = np.append(w, 0.5 * (edges[:-1] + edges[1:])[:, None]
                          + half * _GL_X)
            q = np.append(q, half * _GL_W)
        q = q * f(w)
        val = complex(q @ (2 * np.sin(t * w / 2) ** 2), q @ np.sin(t * w))
        if A < W:
            v = 1j * _LAG_V / t
            val += (math.expm1(A) ** (1 - eta) - tau ** (1 - eta)) \
                / (eta - 1) + 1j / t * (_LAG_W @ (
                    cmath.exp(-1j * t * A) * f(A - v)
                    - cmath.exp(-1j * t * W) * f(W - v)))
        val *= tau ** (eta - 1)
        return val.real, val.imag

    def moment(self, q):
        """q-th moment of the conditional coverage probability (real q)."""
        if q == 0:
            return 1.0
        inner = self._inner_real_q(q)
        lr, alpha, snr = self.params.lambda_r, self.radio.alpha, \
            self.radio.snr
        tau, coef = self.tau, self._coef

        def f(r):
            return math.exp(-coef * r * inner
                            - q * tau * r**alpha / snr - 2 * lr * r)

        return 2 * lr * quad(f, 0, np.inf)

    def _moment_it(self, t):
        """M_it: characteristic function of ln of the conditional CP.

        The serving-distance integral is exp(-(A + iB) r - iC r^alpha)
        with A, B, C >= 0 for t > 0; on the real axis the r^alpha noise
        phase oscillates with unbounded frequency, so the contour is
        rotated by theta = pi/(2 alpha), which turns -iC r^alpha into a
        real decay term and leaves only bounded-frequency oscillation.
        """
        if t == 0.0:
            return complex(1.0, 0.0)
        if t < 0.0:
            return self._moment_cached(-t).conjugate()
        c_int, s_int = self._inner_trig(t)
        lr, alpha, snr = self.params.lambda_r, self.radio.alpha, \
            self.radio.snr
        A = self._coef * c_int + 2 * lr
        B = self._coef * s_int
        C = t * self.tau / snr
        rot = complex(math.cos(math.pi / (2 * alpha)),
                      -math.sin(math.pi / (2 * alpha)))
        lin = (A + 1j * B) * rot
        # scale so the integrand's decay length is O(1) even when the
        # noise term C*u^alpha dominates at large t
        u0 = 1.0 / (abs(lin) + C ** (1.0 / alpha))

        def f(v):
            u = u0 * v
            # (rot*u)^alpha has argument -pi/2, so -i*C*(rot*u)^alpha is
            # the real decay term -C*u^alpha
            return cmath.exp(-lin * u - 1j * C * (rot * u) ** alpha)

        return 2 * lr * rot * u0 * quad_complex(f, 0, np.inf, epsabs=1e-13,
                                                limit=400)

    def moment_it(self, t):
        return self._moment_cached(float(t))

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
    total = 0.0
    for k, pk in enumerate(pmf.masses):
        thr = radio.rate_threshold(tau_rate, k + 1)
        cp = coverage_prob(thr, traffic, params, radio)
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
