"""Downlink SINR coverage, rate coverage and their meta distributions.

The active-RSU set is approximated as an independent thinning of the RSU
process (density p * lambda_r); the Monte Carlo engine implements the
true dependent thinning so the size of that approximation is measurable.

Every moment M_q of the conditional success probability, real q and
q = it alike, is one fixed numpy rule (`CoverageMeta.moments`, one array
pass over a batch of q): an inner integral in w = ln(1 + tau*y), free of
branch cuts in (1 + tau*y)^(-q), and a serving-distance integral on a
rotated path, with one composite Gauss-Legendre table on dyadic panels,
whose exp runs only on the nodes where it does not underflow to 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .geometry import NetworkParams, platooned
from .load import pmf_tagged_npts_certified, pmf_tagged_pts_certified
from .mcp_counts import g_of
from .numerics import GP_ABS_TOL, NumericsError, gil_pelaez_invert, \
    kronrod_batches, overflow_raises, panels, quad

# fixed rule of CoverageMeta._inners
_PERIODS = 4       # oscillation periods integrated on the real axis
_PANEL_MAX = 2.0   # widest real-axis panel; w^eta f(w) is analytic
                   # for |w| < 2 pi
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)
_LAG_V, _LAG_W = np.polynomial.laguerre.laggauss(40)


@lru_cache(maxsize=128)
def _inner_table(eta, n):
    """Nodes, weights and panel index of `_inners`'s rule before scaling.
    Panel 0 is the 20-node Gauss-Jacobi rule on [0, 1] for the weight
    u^(1-eta), its weights divided by that weight: it integrates
    u^(1-eta) times a smooth function directly.  Panels 1..n are the
    Gauss-Legendre rule on [-1, 1]."""
    x, w = special.roots_jacobi(20, 0.0, 1.0 - eta)
    u = (1.0 + x) / 2
    return (np.append(u, np.tile(_GL_X, n)),
            np.append(w / 2 ** (2 - eta) * u ** (eta - 1), np.tile(_GL_W, n)),
            np.repeat(np.arange(n + 1), [u.size] + [_GL_X.size] * n))


# fixed rule of _serving_integrals: 24-node Gauss-Legendre on the dyadic
# panels [0, 2^-6], [2^-6, 2^-5], ..., [2^6, 2^7], fine near 0, where
# r^alpha is not smooth
_R_V, _R_W = panels(np.append(0.0, 2.0 ** np.arange(-6, 8)),
                     *np.polynomial.legendre.leggauss(24))
_R_W = _R_W.astype(complex)  # cast once: `_R_W @ z` casts it for complex z


def _serving_integrals(lins, noises, alpha):
    """Integral of exp(-lin r - noise r^alpha) over r in [0, inf), with
    Re lin > 0 and Re noise >= 0, for each (lin, noise) pair.

    The path r = rot u, rot = e^(-i arg(noise)/alpha), turns the noise
    term into the real decay |noise| u^alpha, and u = u0 v scales the
    decay length to O(1) before the fixed dyadic rule in v.

    Each pair's scalars (rot, u0, the slope -lin rot and the final
    product) are Python numbers: numpy's complex multiply loop fuses its
    products, and its power and complex abs round differently.  The
    exponent is one (pair x node) array, and exp skips the nodes where
    its real part is -746 or below: there IEEE exp is exactly 0 (u^alpha = inf
    past the largest float is the limit there), and the +0 written in
    place of exp's signed zero leaves every weighted sum unchanged.  The
    weighted sums are one stacked matmul over C-contiguous rows, each row
    the dot product `_R_W @ row` of that pair alone.  Its caller runs it
    with numpy's floating-point warnings off.
    """
    rots = [cmath.exp(-1j * cmath.phase(noise) / alpha) for noise in noises]
    u0s = [1.0 / (abs(lin * rot) + abs(noise) ** (1.0 / alpha))
           for lin, noise, rot in zip(lins, noises, rots)]
    slope = np.array([-lin * rot for lin, rot in zip(lins, rots)])
    decay = np.array([abs(noise) for noise in noises])
    u = np.array(u0s)[:, None] * _R_V
    x = slope[:, None] * u - decay[:, None] * u**alpha
    # not x.real > -746: a NaN exponent (0 * inf at a decay that
    # underflowed to 0) keeps its NaN
    e = np.exp(x, out=np.zeros_like(x), where=~(x.real <= -746.0))
    dots = np.matmul(_R_W, e[:, :, None])[:, 0]
    return [rot * u0 * dot for rot, u0, dot in zip(rots, u0s, dots)]


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


@overflow_raises
def active_prob(traffic, params: NetworkParams):
    """Probability that an RSU serves at least one VU."""
    if not platooned(traffic):
        return 1.0 - 4 * params.lambda_r**2 \
            / (params.lam + 2 * params.lambda_r) ** 2
    lr = params.lambda_r

    def f(ts):  # exp(g) and the density per point, in math.exp
        return [math.exp(g) * 4 * lr**2 * t * math.exp(-2 * lr * t)
                for g, t in zip(g_of(0.0, ts / 2.0, params).tolist(),
                                ts.tolist())]

    return 1.0 - quad(kronrod_batches(f, 0, np.inf), 0, np.inf)


@overflow_raises
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

    One kernel, `moments(qs)`, computes every moment in one array pass:
    the panel edges are array expressions over the batch, the q are
    grouped by the shape of the inner rule, the node stages run on one
    (q x node) array per group, and each group's weighted sums are one
    stacked matmul whose rows are each q's own dot product.  So a member
    of a batch has the bits of its one-q call, `moments([q])`.  `md` hands
    the Gil-Pelaez inversion `moments_it`, which computes a QUADPACK
    interval's 21 t in one batch.
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
        if self.eta == 1.0:
            raise NumericsError(f"CoverageMeta: eta = (1 + alpha)/alpha "
                                f"rounds to 1 (alpha {radio.alpha:.3g})")
        self._coef = 2 * self.p * params.lambda_r / radio.alpha
        self._moments_it = {}  # M_it by float t

    def _inners(self, qs):
        """Inner integral of (1 - (1 + tau*y)^(-q)) y^(-eta) over [0, 1]
        at each q of qs, complex with Re q >= 0 or real > 0, as a complex
        array.

        With w = ln(1 + tau*y) it is tau^(eta-1) times the integral of
        (1 - e^(-qw)) f(w), f(w) = e^w (e^w - 1)^(-eta), over [0, W],
        W = ln(1 + tau).  Up to A = min(W, 4 periods 2 pi/|q|) it runs on
        the real axis: Gauss-Jacobi (weight w^(1-eta)) over the first
        period, then Gauss-Legendre panels.  Beyond A, the integral of f
        is closed form and that of e^(-qw) f runs along w = A + v/q and
        w = W + v/q, where f is analytic (its only singularities are at
        w = 2 pi i k) and e^(-qw) = e^(-qA) e^(-v) decays: Gauss-Laguerre
        in v.  The node count is bounded whatever q is.

        The panel edges are array expressions over qs.  The q are grouped
        by the shape of their rule (the Legendre panel count, whether the
        Laguerre legs run, real or complex q); a group's nodes are one
        (q x node) array and its weighted sums one stacked matmul, each
        row the dot product of that q alone, so no value depends on the
        other members of qs.  The legs' closed form and sum stay Python
        scalars per q: numpy's expm1, power and complex division round
        differently, and the grouping of v + (c - L/q) is part of the
        value.
        """
        tau, eta = self.tau, self.eta
        W = math.log1p(tau)

        def f(w):
            # e^w (e^w - 1)^(-eta), continuous for Re w > 0 and accurate
            # as w -> 0
            return np.exp((1 - eta) * w - eta * np.log(-np.expm1(-w)))

        qc = np.array(qs, dtype=complex)
        period = 2 * math.pi / np.hypot(qc.real, qc.imag)
        A = np.minimum(W, _PERIODS * period)
        B = np.minimum(np.minimum(A, period), _PANEL_MAX)
        # the Jacobi panel is [0, B], then n equal Legendre panels up to A
        count = np.ceil((A - B) / np.minimum(period, _PANEL_MAX))
        shape = 4 * count.astype(int) + 2 * (A < W) \
            + np.array([isinstance(q, complex) for q in qs], dtype=int)
        vals = np.empty(len(qs), dtype=complex)
        for key in np.unique(shape).tolist():
            at = np.flatnonzero(shape == key)
            n, legs, cplx = key // 4, key & 2, key & 1
            q = qc[at] if cplx else qc.real[at]
            a, b = A[at], B[at]
            # hm[0] and hm[1] hold each panel's half-width and midpoint:
            # the Jacobi panel [0, B] (its table nodes are on [0, 1]),
            # then the Legendre panels, whose edges are np.linspace(B, A,
            # n + 1) in the float arithmetic numpy uses
            edges = np.arange(n + 1) * ((a - b) / max(n, 1))[:, None] \
                + b[:, None]
            edges[:, n] = a
            hm = np.zeros((2, at.size, n + 1))
            hm[0, :, 0] = b
            hm[0, :, 1:] = 0.5 * (edges[:, 1:] - edges[:, :-1])
            hm[1, :, 1:] = 0.5 * (edges[:, :-1] + edges[:, 1:])
            x, wts, panel = _inner_table(eta, n)
            # take, not [:, panel]: the stacked dot products below keep
            # one-q bits only on C-contiguous rows
            h, o = hm.take(panel, axis=2)
            w = o + h * x
            val = -np.matmul((h * wts * f(w))[:, None],
                             np.expm1(-q[:, None] * w)[:, :, None])[:, 0, 0]
            if legs:
                ends = np.empty((at.size, 2))
                ends[:, 0], ends[:, 1] = a, W
                fv = f(ends[:, :, None] + (_LAG_V / q[:, None])[:, None])
                e = np.exp((-q[:, None] * ends).astype(complex))
                lag = e[:, :1] * fv[:, 0] - e[:, 1:] * fv[:, 1]
                sums = np.matmul(_LAG_W, lag[:, :, None])[:, 0]
                val = [v + ((math.expm1(ai) ** (1 - eta) - tau ** (1 - eta))
                            / (eta - 1) - L / qs[i])
                       for v, ai, L, i in zip(val, a.tolist(), sums, at)]
            vals[at] = val
        return vals * tau ** (eta - 1)

    def moments(self, qs):
        """q-th moment of the conditional coverage probability at each q
        of qs, complex with Re q >= 0 or real >= 0 (a real q gives a real
        moment, q = 0 gives 1.0); M_it is the characteristic function of
        ln CP.  Given the serving distance r, E[CP^q | r] =
        exp(-coef inner(q) r - q tau r^alpha / snr).  One batch runs the
        inner and serving-distance rules on (q x node) arrays, and each
        value is the one moments([q]) gives alone.  A non-finite moment
        raises NumericsError, with numpy's floating-point warnings off:
        the check replaces them."""
        lr = self.params.lambda_r
        nonzero = [q for q in qs if q != 0]
        with np.errstate(all="ignore"):
            serving = iter(_serving_integrals(
                self._coef * self._inners(nonzero) + 2 * lr,
                [q * self.tau / self.radio.snr for q in nonzero],
                self.radio.alpha))
        out = []
        for q in qs:
            if q == 0:
                out.append(1.0)
                continue
            m = 2 * lr * next(serving)
            if not cmath.isfinite(m):
                raise NumericsError(f"CoverageMeta: the moment at q = {q} "
                                    f"is {m}, not finite")
            out.append(m if isinstance(q, complex) else float(m.real))
        return out

    def moments_it(self, ts):
        """M_it at each t of ts, read from the cache once the t not cached
        yet are computed in one batch of `moments` (none if all are)."""
        ts = [float(t) for t in ts]
        new = [t for t in dict.fromkeys(ts) if t not in self._moments_it]
        if new:
            self._moments_it.update(
                zip(new, self.moments([1j * t for t in new])))
        return [self._moments_it[t] for t in ts]

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
        return min(bound, gil_pelaez_invert(self.moments_it, x))


def md_coverage(tau, x, traffic, params, radio):
    """Meta distribution of the coverage probability at level x."""
    return CoverageMeta(tau, traffic, params, radio).md(x)


def _rate_terms(tau_rate, traffic, params, radio: RadioParams):
    """(p_k, the SINR threshold 2^(tau_rate (k+1)/B) - 1, active_prob) of
    each tagged-cell load k in turn: the terms of rate_coverage and
    md_rate, which each sum their own quantity and stop by their own
    rule."""
    if tau_rate <= 0:
        raise ValueError("tau_rate must be positive")
    pmf = pmf_tagged_pts_certified(params) if platooned(traffic) \
        else pmf_tagged_npts_certified(params)
    p = active_prob(traffic, params)
    for k, pk in enumerate(pmf.masses):
        yield pk, radio.rate_threshold(tau_rate, k + 1), p


def rate_coverage(tau_rate, traffic, params, radio: RadioParams):
    """P[per-VU Shannon rate > tau_rate] at the typical VU.

    Sum over the tagged-cell load of the SINR coverage at the mapped
    threshold 2^(tau*(k+1)/B) - 1; terms below 1e-9 are dropped (the
    mapped CP is decreasing in k)."""
    total = 0.0
    for pk, thr, p in _rate_terms(tau_rate, traffic, params, radio):
        cp = coverage_prob(thr, traffic, params, radio, p_active=p)
        total += pk * cp
        if cp < 1e-9:
            break
    return total


def md_rate(tau_rate, x, traffic, params, radio: RadioParams):
    """Meta distribution of the rate coverage at level x."""
    total = 0.0
    remaining = 1.0
    for pk, thr, p in _rate_terms(tau_rate, traffic, params, radio):
        md = CoverageMeta(thr, traffic, params, radio, p_active=p).md(x)
        total += pk * md
        remaining -= pk
        # md is decreasing in k, so the unsummed tail is below this
        if remaining * md < 1e-6:
            break
    return total
