"""Downlink SINR coverage, rate coverage and their meta distributions.

The active-RSU set is approximated as an independent thinning of the RSU
process (density p * lambda_r); the Monte Carlo engine implements the
true dependent thinning so the size of that approximation is measurable.

Moments of the conditional success probability are computed from the
real/imaginary split of the imaginary-order moment (cosine and sine
inner integrals), avoiding branch cuts in (1 + tau*y)^(-it).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from .geometry import NetworkParams
from .load import pmf_tagged_npts_certified, pmf_tagged_pts_certified
from .mcp_counts import g_of
from .numerics import QuadratureSpec, gil_pelaez_invert, hyp2f1_real

MD_SPEC = QuadratureSpec(1e-4, 1e-6, 400)  # Gil-Pelaez tolerances of md()


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


def active_prob(traffic, params: NetworkParams):
    """Probability that an RSU serves at least one VU."""
    if traffic == "NPTS":
        return 1.0 - 4 * params.lambda_r**2 \
            / (params.lam + 2 * params.lambda_r) ** 2
    if traffic != "PTS":
        raise ValueError(f"unknown traffic {traffic!r}")
    lr = params.lambda_r

    def f(t):
        return math.exp(g_of(0.0, t / 2.0, params)) \
            * 4 * lr**2 * t * math.exp(-2 * lr * t)

    p0, _ = integrate.quad(f, 0, np.inf, epsabs=1e-12, epsrel=1e-10,
                           limit=200)
    return 1.0 - p0


def laplace_interference(s, r, p_active, lambda_r, radio: RadioParams):
    """LT of the interference from active RSUs beyond the serving
    distance r, conditioned on r (hypergeometric closed form)."""
    if s == 0.0:
        return 1.0
    alpha = radio.alpha
    z = s * radio.p_t * r ** (-alpha)
    h = hyp2f1_real(1.0, 1.0 - 1.0 / alpha, 2.0 - 1.0 / alpha, -z)
    return math.exp(-2 * p_active * lambda_r * s * radio.p_t
                    * r ** (1.0 - alpha) / alpha * h / (1.0 - 1.0 / alpha))


def laplace_interference_quad(s, r, p_active, lambda_r, radio: RadioParams):
    """Quadrature cross-check of the closed-form LT."""
    import warnings

    alpha, pt = radio.alpha, radio.p_t

    def f(z):
        return 1.0 - 1.0 / (1.0 + s * pt * z ** (-alpha))

    with warnings.catch_warnings():
        # roundoff warnings at these tolerances are expected; the value
        # is still far more accurate than the cross-check needs
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, r, np.inf, epsabs=1e-13, epsrel=1e-11,
                                limit=400)
    return math.exp(-2 * p_active * lambda_r * val)


def coverage_prob(tau, traffic, params: NetworkParams, radio: RadioParams):
    """P[SINR > tau] at the typical VU."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    p = active_prob(traffic, params)
    lr, alpha, snr = params.lambda_r, radio.alpha, radio.snr

    def f(r):
        s = tau * r**alpha / radio.p_t
        return laplace_interference(s, r, p, lr, radio) \
            * math.exp(-tau * r**alpha / snr - 2 * lr * r)

    val, _ = integrate.quad(f, 0, np.inf, epsabs=1e-12, epsrel=1e-10,
                            limit=200)
    return 2 * lr * val


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
        self._k0 = None
        self._moment_cached = lru_cache(maxsize=65536)(self._moment_it)

    def _inner_real_q(self, q):
        tau, eta = self.tau, self.eta

        def f(y):
            return (1.0 - (1.0 + tau * y) ** (-q)) * y ** (-eta)

        val, _ = integrate.quad(f, 0, 1, epsabs=1e-12, epsrel=1e-10,
                                limit=200)
        return val

    def _inner_trig_quad(self, t, limit=400):
        """Direct quadrature of the q = it inner integral (cross-check;
        only usable at moderate t before the oscillation overwhelms it)."""
        tau, eta = self.tau, self.eta

        def fc(y):
            return (1.0 - math.cos(t * math.log1p(tau * y))) * y ** (-eta)

        def fs(y):
            return math.sin(t * math.log1p(tau * y)) * y ** (-eta)

        c, _ = integrate.quad(fc, 0, 1, epsabs=1e-12, epsrel=1e-9,
                              limit=limit)
        s, _ = integrate.quad(fs, 0, 1, epsabs=1e-12, epsrel=1e-9,
                              limit=limit)
        return c, s

    def _inner_it_hyp(self, t):
        """Inner integral at q = it via the hypergeometric closed form
        (integration by parts removes the y^(-eta) endpoint issue):
        -alpha(1-(1+tau)^{-q}) + (alpha q tau / b) 2F1(q+1, b; b+1; -tau)
        with b = 1 - 1/alpha.  The series representation stops converging
        once |q| is large, hence the contour route below.
        """
        import mpmath

        tau, alpha = self.tau, self.radio.alpha
        q = 1j * t
        b = 1.0 - 1.0 / alpha
        h = complex(mpmath.hyp2f1(q + 1, b, b + 1, -tau))
        return (-alpha * (1.0 - cmath.exp(-q * math.log1p(tau)))
                + alpha * q * tau / b * h)

    def _phi(self, w):
        """Regular part of the log-substituted inner integrand:
        g(w) - h0 w^(-eta), with g(w) = ((e^w-1)/tau)^(-eta) e^w / tau
        and h0 = g's leading w^(-eta) coefficient tau^(1/alpha)."""
        tau, eta = self.tau, self.eta
        h0 = tau ** (eta - 1.0)
        if abs(w) < 1e-4:
            # g(w) = h0 w^(-eta) exp(w(1 - eta/2) - eta w^2/24 + ...),
            # written to avoid the w^(-eta) cancellation
            expo = (1.0 - eta / 2.0) * w - eta * w * w / 24.0
            return h0 * w ** (-eta) * (cmath.exp(expo) - 1.0)
        ew = cmath.exp(w) if isinstance(w, complex) else math.exp(w)
        return ((ew - 1.0) / tau) ** (-eta) * ew / tau - h0 * w ** (-eta)

    def _inner_it_contour(self, t):
        """Inner integral at q = it for large t.

        In the variable w = ln(1 + tau*y) the integrand is
        (1 - e^{-qw}) g(w) on [0, W]; the w^(-eta) singular part
        integrates to incomplete-gamma terms, and the regular remainder's
        oscillatory piece is pushed onto the descending contours w = -iu
        and w = W - iu where e^{-qw} decays like e^{-tu}.
        """
        import mpmath

        tau, eta = self.tau, self.eta
        W = math.log1p(tau)
        h0 = tau ** (eta - 1.0)
        q = 1j * t
        if self._k0 is None:
            # w = v^2 soothes the w^(1-eta) endpoint behavior of phi
            k0, _ = integrate.quad(
                lambda v: (2 * v * self._phi(v * v)).real,
                                   0, math.sqrt(W), epsabs=1e-12,
                                   epsrel=1e-10, limit=200)
            self._k0 = k0
        gam = complex(mpmath.gammainc(1.0 - eta, q * W))
        sing = h0 * (q ** (eta - 1.0)
                     * (math.gamma(2.0 - eta) / (eta - 1.0) + gam)
                     - W ** (1.0 - eta) / (eta - 1.0))
        U = 40.0 / t

        def leg1(v):
            u = v * v
            return 2 * v * cmath.exp(-t * u) * self._phi(-1j * u)

        def leg2(u):
            return cmath.exp(-t * u) * self._phi(W - 1j * u)

        psi = complex(0.0, 0.0)
        for sign, leg, hi in ((-1j, leg1, math.sqrt(U)),
                              (1j * cmath.exp(-q * W), leg2, U)):
            re, _ = integrate.quad(lambda u: leg(u).real, 0, hi,
                                   epsabs=1e-10, epsrel=1e-8, limit=200)
            im, _ = integrate.quad(lambda u: leg(u).imag, 0, hi,
                                   epsabs=1e-10, epsrel=1e-8, limit=200)
            psi += sign * complex(re, im)
        return self._k0 + sing - psi

    _T_SWITCH = 64.0

    def _inner_trig(self, t):
        val = self._inner_it_hyp(t) if t <= self._T_SWITCH \
            else self._inner_it_contour(t)
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

        val, _ = integrate.quad(f, 0, np.inf, epsabs=1e-12, epsrel=1e-10,
                                limit=200)
        return 2 * lr * val

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

        re, _ = integrate.quad(lambda v: f(v).real, 0, np.inf,
                               epsabs=1e-13, epsrel=1e-10, limit=400)
        im, _ = integrate.quad(lambda v: f(v).imag, 0, np.inf,
                               epsabs=1e-13, epsrel=1e-10, limit=400)
        return 2 * lr * rot * u0 * complex(re, im)

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
        if bound < MD_SPEC.abs_tol / 10:
            return bound
        return min(bound, gil_pelaez_invert(self.moment_it, x, spec=MD_SPEC))


def moment_Mq(q, tau, traffic, params, radio):
    """q-th moment of the conditional CP; complex q must be purely
    imaginary (q = it), handled via the trigonometric split."""
    if isinstance(q, complex):
        if abs(q.real) > 1e-15:
            raise ValueError("complex moments supported only for q = i*t")
        return CoverageMeta(tau, traffic, params, radio).moment_it(q.imag)
    return CoverageMeta(tau, traffic, params, radio).moment(q)


def md_coverage(tau, x, traffic, params, radio):
    """Meta distribution of the coverage probability at level x."""
    return CoverageMeta(tau, traffic, params, radio).md(x)


def _tagged_pmf(traffic, params):
    return pmf_tagged_pts_certified(params) if traffic == "PTS" \
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
        thr = 2.0 ** (tau_rate * (k + 1) / radio.bandwidth) - 1.0
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
        thr = 2.0 ** (tau_rate * (k + 1) / radio.bandwidth) - 1.0
        meta = CoverageMeta(thr, traffic, params, radio, p_active=p)
        md = meta.md(x)
        total += pk * md
        remaining -= pk
        # md is decreasing in k, so the unsummed tail is below this
        if remaining * md < 1e-6:
            break
    return total


def coverage_series(u_values, base: NetworkParams, radio, tau,
                    x=None) -> list:
    """(u, CP_PTS, CP_NPTS, p_active_PTS, p_active_NPTS[, MD_PTS, MD_NPTS])
    rows for the density sweep u = m = lam/lambda_p."""
    rows = []
    for u in u_values:
        params = NetworkParams(base.lambda_r, base.lambda_p, u, base.a)
        row = [u,
               coverage_prob(tau, "PTS", params, radio),
               coverage_prob(tau, "NPTS", params, radio),
               active_prob("PTS", params),
               active_prob("NPTS", params)]
        if x is not None:
            row += [md_coverage(tau, x, "PTS", params, radio),
                    md_coverage(tau, x, "NPTS", params, radio)]
        rows.append(row)
    return rows
