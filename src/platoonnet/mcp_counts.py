"""Counting distribution of the 1D Matern cluster process in an interval.

The number S(r) of cluster points in a ball of radius r has PGF
exp(g(s, r)); every platoon-side load result reduces to g, its
derivatives at s = 0 and the limits kappa(r, k) of its derivatives at
s = 1.  The PMF is obtained from the derivatives via the exponential
composition recurrence (equivalent to the Faa di Bruno partition sum but
O(K^2) instead of exponential).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import NetworkParams
from .numerics import NumericsError, gamma_lower

TAIL_TOL = 1e-6
K_CAP = 512
_S1_EPS = 1e-6  # switch to the Taylor branch of g this close to s=1


@dataclass(frozen=True)
class DiscretePMF:
    """Probability mass over 0..K with explicitly tracked tail mass."""

    masses: np.ndarray
    tail_mass: float

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "masses", m)
        if m.min() < -1e-12:
            raise NumericsError(f"negative pmf mass: {m.min()}")
        total = m.sum() + self.tail_mass
        if abs(total - 1.0) > 1e-6:
            raise NumericsError(f"pmf does not normalize: sum={total}")

    @property
    def support(self):
        return np.arange(self.masses.size)

    def mean(self):
        return float(np.dot(self.support, self.masses))

    def moment(self, order):
        return float(np.dot(self.support.astype(float) ** order, self.masses))

    def variance(self):
        return self.moment(2) - self.mean() ** 2

    def skewness(self):
        mu, var = self.mean(), self.variance()
        return (self.moment(3) - 3 * mu * var - mu**3) / var**1.5

    def pgf(self, s):
        return float(np.dot(self.masses, np.asarray(s, dtype=float)
                            ** self.support))

    def ccdf(self, k):
        """P[X > k]; k = -1 returns 1."""
        if k < 0:
            return 1.0
        return float(1.0 - self.masses[: k + 1].sum())


def beta_bar(r, a):
    """min(r, a) / a, the normalized full-overlap length."""
    return np.minimum(r, a) / a


def g_of(s, r, params: NetworkParams):
    """Exponent g(s, r) of the PGF of S(r).

    Closed form with a second-order Taylor branch for |s - 1| < 1e-6,
    where (exp(m*bb*(s-1)) - 1)/(s-1) is a removable 0/0.
    """
    lp, m, a = params.lambda_p, params.m, params.a
    bb = beta_bar(r, a)
    z = m * bb
    if abs(s - 1.0) < _S1_EPS:
        # (e^{z(s-1)}-1)/((m/2a)(s-1)) ~ (2a/m)(z + z^2 (s-1)/2 + z^3 (s-1)^2/6)
        frac = (2 * a / m) * (z + z**2 * (s - 1) / 2 + z**3 * (s - 1) ** 2 / 6)
    else:
        frac = (np.exp(z * (s - 1)) - 1.0) / ((m / (2 * a)) * (s - 1))
    return 2 * lp * (abs(r - a) * np.exp(z * (s - 1)) - (r + a) + frac)


def g_deriv_at_zero(i, r, params: NetworkParams):
    """i-th derivative of g(s, r) w.r.t. s at s = 0, i >= 1."""
    if i < 1:
        raise ValueError("derivative order must be >= 1")
    lp, m, a = params.lambda_p, params.m, params.a
    z = m * beta_bar(r, a)
    return 2 * lp * (z**i * np.exp(-z) * abs(r - a)
                     + gamma_lower(i + 1, z) / (m / (2 * a)))


def kappa(r, k, params: NetworkParams):
    """Limit of the k-th derivative of g(s, r) as s -> 1, k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lp, m, a = params.lambda_p, params.m, params.a
    r = np.asarray(r, dtype=float)
    beta = 2 * np.minimum(r, a)
    out = 2 * lp * (m * beta / (2 * a)) ** k * (r + a - beta * k / (k + 1))
    return float(out) if out.ndim == 0 else out


def pgf_S(s, r, params: NetworkParams):
    """PGF of the MCP count in a ball of radius r."""
    return np.exp(g_of(s, r, params))


def _pmf_from_log_derivs(c, p0, K):
    """PMF of exp-composition: p_k = (1/k) sum_j j*c_j*p_{k-j}, c_j = g^(j)/j!."""
    p = np.empty(K + 1)
    p[0] = p0
    for k in range(1, K + 1):
        j = np.arange(1, k + 1)
        p[k] = np.dot(j * c[1: k + 1], p[k - j]) / k
    return p


def pmf_S(K, r, params: NetworkParams):
    """PMF of S(r) on 0..K via the exponential-composition recurrence.

    The coefficients c_j = g^(j)(0)/j! are assembled from a Poisson pmf
    and a regularized incomplete gamma, which stays finite for large j
    where z^j and j! overflow separately.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    lp, m, a = params.lambda_p, params.m, params.a
    z = params.m * beta_bar(r, a)
    j = np.arange(K + 1).astype(float)
    pois = np.exp(j * np.log(z) - z - special.gammaln(j + 1))
    c = 2 * lp * (abs(r - a) * pois + (2 * a / m) * special.gammainc(j + 1, z))
    c[0] = 0.0
    p = _pmf_from_log_derivs(c, np.exp(g_of(0.0, r, params)), K)
    return DiscretePMF(np.clip(p, 0.0, None), tail_mass=max(0.0, 1 - p.sum()))


def choose_truncation(mass_at, start=8, tail_tol=TAIL_TOL, cap=K_CAP):
    """Grow K until cumulative mass >= 1 - tail_tol; error at the cap.

    mass_at(K) must return the masses array for truncation K.
    """
    K = start
    while K <= cap:
        masses = mass_at(K)
        if masses.sum() >= 1.0 - tail_tol:
            return K, masses
        K *= 2
    raise NumericsError(f"PMF tail not certified below K={cap}")


def certified(pmf_at, tail_tol=TAIL_TOL) -> DiscretePMF:
    """PMF with K grown automatically until the tail is certified.

    pmf_at(K) must return the DiscretePMF truncated at K.
    """
    _, masses = choose_truncation(lambda K: pmf_at(K).masses,
                                  tail_tol=tail_tol)
    return DiscretePMF(masses, tail_mass=max(0.0, 1 - masses.sum()))


def _eta1(a, k):
    return a * (1 - k) / (1 + k)


def I_moment(n, k, params: NetworkParams):
    """Closed form of int_0^inf kappa^n(r/2, k) f_L(r) dr."""
    return _I_common(n, k, params, tagged=False)


def I_tilde_moment(n, k, params: NetworkParams):
    """Closed form of int_0^inf kappa^n(r/2, k) f_L0(r) dr."""
    return _I_common(n, k, params, tagged=True)


def _I_common(n, k, params, tagged):
    if n < 1 or k < 1:
        raise ValueError("n, k must be >= 1")
    lp, m, a, lr = params.lambda_p, params.m, params.a, params.lambda_r
    eta1 = _eta1(a, k)
    j = np.arange(n + 1)
    binom = special.comb(n, j)
    # extra moment order and prefactor distinguish f_L from f_L0
    off = 3 if tagged else 2
    pref = 0.5 if tagged else 1.0
    # r < 2a piece: kappa^n is a polynomial in r of orders nk+j
    coef = ((1 - k) / (2 * a * (1 + k))) ** j  # 0**0 == 1 handles k=1
    low = ((2 * lp) ** n * (m / (2 * a)) ** (n * k) * a**n * pref
           * np.sum(binom * coef
                    * gamma_lower(n * k + j + off, 4 * lr * a)
                    / (2 * lr) ** (n * k + j)))
    # r > 2a piece: kappa^n = (2 lp m^k)^n (r/2 + eta1)^n
    hi_pref = 4 * lr**3 if tagged else (2 * lr) ** 2
    high = (hi_pref * (2 * lp * m**k) ** n
            * np.sum(binom * eta1 ** (n - j) / 2.0**j
                     * special.gammaincc(j + off, 4 * lr * a)
                     * special.gamma(j + off) / (2 * lr) ** (j + off)))
    return float(low + high)
