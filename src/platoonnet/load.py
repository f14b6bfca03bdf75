"""Load distributions on the typical and tagged RSU, PTS and N-PTS.

PTS results mix the interval-count law of the cluster process over the
cell-length distributions; the tagged cell additionally receives the
typical VU's own platoon, handled by the conditional law V_m(t/2) below.
N-PTS results are elementary closed forms.

The tagged-platoon count V_m(t/2) admits a clean mixture representation:
its conditional Poisson mean M = lambda_d * A is equal to its maximum
mu0 = lambda_d * min(t, 2a) with probability w = 1 - min(t,2a)/max(t,2a)
and otherwise has density proportional to mu on (0, mu0).  All of its
conditional quantities (PGF, PMF, factorial moments) follow from that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import NetworkParams, cell_quantile, pdf_tagged_cell, \
    pdf_typical_cell
from .mcp_counts import DiscretePMF, TAIL_TOL, certified, g_of, kappa, \
    I_moment, I_tilde_moment, pmf_S
from .numerics import NumericsError, func_F, func_G


@dataclass(frozen=True)
class LoadMoments:
    mean: float
    variance: float
    third_moment: float

    @property
    def skewness(self):
        return ((self.third_moment - 3 * self.mean * self.variance
                 - self.mean**3) / self.variance**1.5)


_MIX_PANELS, _MIX_ORDER = 60, 10  # Gauss-Legendre panels and their order


def _mixture_nodes(params, tagged):
    """Composite Gauss-Legendre nodes/weights on [0, T] with T at the
    1 - 1e-8 quantile of the relevant cell-length law."""
    T = cell_quantile(1 - 1e-8, params.lambda_r, tagged=tagged)
    x, w = np.polynomial.legendre.leggauss(_MIX_ORDER)
    edges = np.linspace(0.0, T, _MIX_PANELS + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    pdf = pdf_tagged_cell(nodes, params.lambda_r) if tagged \
        else pdf_typical_cell(nodes, params.lambda_r)
    return nodes, weights * pdf


# ---------------------------------------------------------------- typical

def pmf_typical_pts(K, params: NetworkParams) -> DiscretePMF:
    """PMF of the PTS load on the typical RSU, masses on 0..K."""
    nodes, wts = _mixture_nodes(params, tagged=False)
    masses = np.zeros(K + 1)
    for t, w in zip(nodes, wts):
        masses += w * pmf_S(K, t / 2.0, params).masses
    return DiscretePMF(np.clip(masses, 0.0, None),
                       tail_mass=max(0.0, 1 - masses.sum()))


def pmf_typical_pts_certified(params, tail_tol=TAIL_TOL) -> DiscretePMF:
    return certified(lambda K: pmf_typical_pts(K, params), tail_tol)


def _kappa_cross_moment(params):
    """E[kappa(L/2, 1) * kappa(L/2, 2)] over the typical cell length.

    The factorized approximation I(1,1)*I(1,2) understates this product
    moment enough to flip the skewness ordering at high densities, so the
    cross term is integrated directly (piecewise smooth, split at 2a).
    """
    from scipy import integrate

    def f(r):
        return (kappa(r / 2.0, 1, params) * kappa(r / 2.0, 2, params)
                * float(pdf_typical_cell(r, params.lambda_r)))

    lo, _ = integrate.quad(f, 0, 2 * params.a, epsabs=1e-13, epsrel=1e-11,
                           limit=200)
    hi, _ = integrate.quad(f, 2 * params.a, np.inf, epsabs=1e-13,
                           epsrel=1e-11, limit=200)
    return lo + hi


def moments_typical_pts(params: NetworkParams) -> LoadMoments:
    """Mean, variance and third moment of the typical-RSU PTS load."""
    mean = params.m * params.lambda_p / params.lambda_r
    I21 = I_moment(2, 1, params)
    I12 = I_moment(1, 2, params)
    var = mean - mean**2 + I21 + I12
    third = (I_moment(3, 1, params) + I_moment(1, 3, params)
             + 3 * _kappa_cross_moment(params) + 3 * I12 + 3 * I21 + mean)
    return LoadMoments(mean, var, third)


def pmf_typical_npts(K, params: NetworkParams) -> DiscretePMF:
    """PMF of the N-PTS load on the typical RSU (closed form)."""
    lam, lr = params.lam, params.lambda_r
    k = np.arange(K + 1)
    # assembled in log space so deep truncations do not overflow
    masses = np.exp(math.log(4 * lr**2) + k * math.log(lam)
                    + np.log(k + 1) - (k + 2) * math.log(lam + 2 * lr))
    return DiscretePMF(masses, tail_mass=max(0.0, 1 - masses.sum()))


def pmf_typical_npts_certified(params, tail_tol=TAIL_TOL) -> DiscretePMF:
    return certified(lambda K: pmf_typical_npts(K, params), tail_tol)


def moments_typical_npts(params: NetworkParams) -> LoadMoments:
    g = params.lam / params.lambda_r
    return LoadMoments(g, g**2 / 2 + g, 3 * g**3 + 4.5 * g**2 + g)


# ------------------------------------------------- tagged platoon V_m(t/2)

def _vm_mixture(t, params):
    """(w, mu0, c): atom weight, max mean, linear-density coefficient."""
    a, m = params.a, params.m
    lam_d = m / (2 * a)
    lo, hi = min(t, 2 * a), max(t, 2 * a)
    mu0 = lam_d * lo
    w = 1.0 - lo / hi
    c = 1.0 / (a * t * lam_d**2)
    return w, mu0, c


def pgf_vm(s, t, params: NetworkParams):
    """Conditional PGF of the tagged-platoon count in a cell of length t.

    Uses a series branch near s = 1 where the closed form is 0/0 of
    order two.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    w, mu0, c = _vm_mixture(t, params)
    z = s - 1.0
    if abs(z) < 1e-3:
        # the closed form divides an O(z^2) cancellation by z^2; the
        # series is accurate to ~1e-10 over this band
        lin = c * (mu0**2 / 2 + mu0**3 * z / 3 + mu0**4 * z**2 / 8
                   + mu0**5 * z**3 / 30)
        return w * math.exp(mu0 * z) + lin
    lin = c * (math.exp(mu0 * z) * (mu0 * z - 1.0) + 1.0) / z**2
    return w * math.exp(mu0 * z) + lin


def pmf_vm(K, t, params: NetworkParams) -> DiscretePMF:
    """Conditional PMF of the tagged-platoon count, masses on 0..K."""
    w, mu0, c = _vm_mixture(t, params)
    n = np.arange(K + 1)
    atom = w * np.exp(-mu0 + n * math.log(mu0)
                      - special.gammaln(n + 1)) if mu0 > 0 else \
        w * (n == 0).astype(float)
    lin = c * (n + 1) * special.gammainc(n + 2, mu0)
    masses = atom + lin
    return DiscretePMF(masses, tail_mass=max(0.0, 1 - masses.sum()))


def vm_factorial_moment(order, t, params: NetworkParams):
    """order-th factorial moment of V_m(t/2) = E[M^order] of the mixture."""
    w, mu0, c = _vm_mixture(t, params)
    return w * mu0**order + c * mu0 ** (order + 2) / (order + 2)


def moments_vm_conditional(t, params: NetworkParams):
    """(mean, variance) of V_m(t/2) for a fixed cell length t."""
    e1 = vm_factorial_moment(1, t, params)
    e2 = vm_factorial_moment(2, t, params)
    return e1, e1 + e2 - e1**2


def moments_vm(params: NetworkParams):
    """(mean, mean conditional variance) of the tagged-platoon count,
    deconditioned over the tagged cell length.

    Closed forms in the F/G integrals with lambda_d = m/(2a).
    """
    a, m, lr = params.a, params.m, params.lambda_r
    ld = m / (2 * a)
    F = lambda k: func_F(2 * lr, k, a)
    G = lambda k: func_G(2 * lr, k, a)
    mean = 4 * lr**3 * (ld * F(3) - ld / (6 * a) * F(4)
                        + m * G(2) - (2 * a * m / 3) * G(1))
    var = 4 * lr**3 * (ld * F(3) - ld / (6 * a) * F(4)
                       + ld**2 / (12 * a) * F(5) - ld**2 / (36 * a**2) * F(6)
                       + m * G(2) + (a * m**2 / 3 - 2 * a * m / 3) * G(1)
                       - (4 * a**2 * m**2 / 9) * G(0))
    return mean, var


# ---------------------------------------------------------------- tagged

def pgf_tagged_pts(s, params: NetworkParams):
    """PGF of the tagged-RSU PTS load (typical VU not counted)."""
    nodes, wts = _mixture_nodes(params, tagged=True)
    vals = np.array([math.exp(g_of(s, t / 2.0, params)) * pgf_vm(s, t, params)
                     for t in nodes])
    return float(np.dot(wts, vals))


def pmf_tagged_pts(K, params: NetworkParams) -> DiscretePMF:
    """PMF of the tagged-RSU PTS load via the conditional convolution of
    the background count S(t/2) with the tagged-platoon count V_m(t/2),
    deconditioned over the tagged cell length."""
    nodes, wts = _mixture_nodes(params, tagged=True)
    masses = np.zeros(K + 1)
    for t, w in zip(nodes, wts):
        ps = pmf_S(K, t / 2.0, params).masses
        pv = pmf_vm(K, t, params).masses
        masses += w * np.convolve(ps, pv)[: K + 1]
    return DiscretePMF(np.clip(masses, 0.0, None),
                       tail_mass=max(0.0, 1 - masses.sum()))


def pmf_tagged_pts_certified(params, tail_tol=TAIL_TOL) -> DiscretePMF:
    return certified(lambda K: pmf_tagged_pts(K, params), tail_tol)


def moments_tagged_pts(params: NetworkParams) -> LoadMoments:
    """Mean, variance and third moment of the tagged-RSU PTS load."""
    mean_s = 1.5 * params.m * params.lambda_p / params.lambda_r
    mean_vm, var_vm = moments_vm(params)
    mean = mean_s + mean_vm
    var = (var_vm + mean_s - mean_s**2
           + I_tilde_moment(2, 1, params) + I_tilde_moment(1, 2, params))
    # third factorial moment of the product PGF at s=1, deconditioned
    nodes, wts = _mixture_nodes(params, tagged=True)
    k1 = kappa(nodes / 2.0, 1, params)
    k2 = kappa(nodes / 2.0, 2, params)
    k3 = kappa(nodes / 2.0, 3, params)
    f1 = k1
    f2 = k1**2 + k2
    f3 = k1**3 + 3 * k2 * k1 + k3
    v1 = np.array([vm_factorial_moment(1, t, params) for t in nodes])
    v2 = np.array([vm_factorial_moment(2, t, params) for t in nodes])
    v3 = np.array([vm_factorial_moment(3, t, params) for t in nodes])
    pgf3 = float(np.dot(wts, f3 + 3 * f2 * v1 + 3 * f1 * v2 + v3))
    third = pgf3 + 3 * (var + mean**2) - 2 * mean
    return LoadMoments(mean, var, third)


def pmf_tagged_npts(K, params: NetworkParams) -> DiscretePMF:
    """PMF of the tagged-RSU N-PTS load (typical VU not counted)."""
    g = params.lam / params.lambda_r
    k = np.arange(K + 1)
    masses = np.exp(k * math.log(g / 2) + math.log(0.5)
                    + np.log(k + 2) + np.log(k + 1)
                    - (3 + k) * math.log(1 + g / 2))
    return DiscretePMF(masses, tail_mass=max(0.0, 1 - masses.sum()))


def pmf_tagged_npts_certified(params, tail_tol=TAIL_TOL) -> DiscretePMF:
    return certified(lambda K: pmf_tagged_npts(K, params), tail_tol)


def moments_tagged_npts(params: NetworkParams) -> LoadMoments:
    g = params.lam / params.lambda_r
    return LoadMoments(1.5 * g, 3 * (g / 2) ** 2 + 1.5 * g,
                       7.5 * g**3 + 9 * g**2 + 1.5 * g)


# ----------------------------------------------------- operational metrics

def operational_metrics(pmf: DiscretePMF, kind: str) -> dict:
    """Derived RSU metrics from a certified load PMF.

    kind="typical": off probability, conditional mean load s_avg, its
    floor k_avg and the below-average-loading probability p_b.
    kind="tagged": both single-VU probability conventions (mass at 1, and
    the zero-extra-load mass since total load is the pmf variable plus
    one), m_avg and the tagged below-average-loading probability P_b.
    """
    if pmf.tail_mass >= TAIL_TOL * 10:
        raise NumericsError("operational metrics need a certified pmf")
    if kind == "typical":
        p_off = float(pmf.masses[0])
        s_avg = pmf.mean() / (1 - p_off)
        k_avg = math.floor(s_avg)
        p_b = float(pmf.masses[1: k_avg + 1].sum()) if k_avg >= 1 else 0.0
        return {"p_off": p_off, "s_avg": s_avg, "k_avg": k_avg, "p_b": p_b}
    if kind == "tagged":
        m_avg = math.floor(pmf.mean())
        P_b = float(pmf.masses[1: m_avg + 1].sum()) if m_avg >= 1 else 0.0
        return {"P1_zero_extra_load": float(pmf.masses[0]),
                "P1_mass_at_one": float(pmf.masses[1]),
                "m_avg": m_avg, "P_b": P_b}
    raise ValueError(f"unknown kind {kind!r}")
