"""Counting distribution of the 1D Matern cluster process in an interval.

The number S(r) of cluster points in a ball of radius r has PGF
exp(g(s, r)); every platoon-side load result reduces to g, its
derivatives at s = 0 and the limits kappa(r, k) of its derivatives at
s = 1.  g takes arrays of real or complex s, so the PTS load PMFs in
`load` are read off the PGF by FFT.  The PMF of S(r) alone comes from
the derivatives via the exponential composition recurrence `pmf_S`
(equivalent to the Faa di Bruno partition sum but O(K^2) instead of
exponential); it serves the connectivity degree and acceptance
criterion 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy import special

from .geometry import NetworkParams, cell_average, cell_product, cell_value
from .numerics import NumericsError, poisson_pmf

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
        if not abs(total - 1.0) <= 1e-6:  # also true for a NaN or inf mass
            raise NumericsError(f"pmf does not normalize: sum={total}")

    @classmethod
    def of(cls, masses):
        """PMF from masses on 0..K: roundoff negatives are clipped to 0 and
        the tail is the mass missing from the unclipped sum."""
        masses = np.asarray(masses, dtype=float)
        return cls(np.maximum(masses, 0.0),
                   tail_mass=max(0.0, 1 - masses.sum()))

    @property
    def support(self):
        return np.arange(self.masses.size)

    def mean(self):
        return float(np.dot(self.support, self.masses))

    def moment(self, order):
        return float(np.dot(self.support.astype(float) ** order, self.masses))

    def variance(self):
        return self.moment(2) - self.mean() ** 2

    def ccdf(self, k):
        """P[X > k], the masses above k plus the tail mass, so a small
        tail keeps its digits; k = -1 returns 1."""
        if k < 0:
            return 1.0
        return float(self.masses[k + 1:].sum() + self.tail_mass)


def beta_bar(r, a):
    """min(r, a) / a, the normalized full-overlap length."""
    return np.minimum(r, a) / a


def g_of(s, r, params: NetworkParams):
    """Exponent g(s, r) of the PGF of S(r); s (real or complex) and r
    broadcast against each other.

    Closed form with a second-order Taylor branch for |s - 1| < 1e-6,
    where (exp(m*bb*(s-1)) - 1)/(s-1) is a removable 0/0.
    """
    lp, m, a = params.lambda_p, params.m, params.a
    e, frac = g_rows(s, m * beta_bar(r, a), params)
    return 2 * lp * (abs(r - a) * e - (r + a) + frac)


def g_rows(s, z, params: NetworkParams):
    """(e, frac) of g(s, r) = 2 lp (|r - a| e - (r + a) + frac) at
    z = m min(r, a) / a: e = e^{z(s-1)} and frac = (e - 1)/((m/2a)(s-1)),
    by its Taylor series for |s - 1| < 1e-6.  Past r = a, z = m and g is
    linear in r."""
    m, a = params.m, params.a
    d = s - 1.0
    near = abs(d) < _S1_EPS
    far = d + near  # keeps the unused closed form finite on the band
    # (e^{z(s-1)}-1)/((m/2a)(s-1)) ~ (2a/m)(z + z^2 (s-1)/2 + z^3 (s-1)^2/6)
    e = np.exp(z * d)  # off the band far == d, so e is e^{z far} there
    frac = np.where(near,
                    (2 * a / m) * (z + z**2 * d / 2 + z**3 * d**2 / 6),
                    (e - 1.0) / ((m / (2 * a)) * far))
    return e, frac


def kappa_coefficients(k, params: NetworkParams):
    """kappa(L/2, k) in the cell length L, as `cell_average` takes it: a
    polynomial of degree k + 1 below L = 2a, and of degree 1 above."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lp, m, a = params.lambda_p, params.m, params.a
    # 2 lp (m beta / 2a)^k (L/2 + a - beta k/(k+1)), beta = min(L, 2a)
    c = 2 * lp * (m / (2 * a)) ** k
    below = np.append(np.zeros(k), [c * a, c * (0.5 - k / (k + 1))])
    above = 2 * lp * m**k * np.array([0.0, 0.0, a * (1 - k) / (1 + k), 0.5])
    return below, above


def kappa(r, k, params: NetworkParams):
    """Limit of the k-th derivative of g(s, r) as s -> 1, k >= 1."""
    return cell_value(2 * np.asarray(r, dtype=float),
                      *kappa_coefficients(k, params), params.a)


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
    c = 2 * lp * (abs(r - a) * poisson_pmf(j, z)
                  + (2 * a / m) * special.gammainc(j + 1, z))
    c[0] = 0.0
    return DiscretePMF.of(_pmf_from_log_derivs(
        c, np.exp(g_of(0.0, r, params)), K))


def choose_truncation(pmf_at):
    """(K, pmf_at(K)) for the first K = 8, 16, ... whose masses reach
    1 - TAIL_TOL; error past K_CAP.

    pmf_at(K) must return the DiscretePMF truncated at K.
    """
    K = 8
    while K <= K_CAP:
        pmf = pmf_at(K)
        if pmf.masses.sum() >= 1.0 - TAIL_TOL:
            return K, pmf
        K *= 2
    raise NumericsError(f"PMF tail not certified below K={K_CAP}")


def certified(pmf_at) -> DiscretePMF:
    """PMF with K grown automatically until the tail is certified: the
    one that pmf_at(K) built at the certified K, its tail mass too."""
    return choose_truncation(pmf_at)[1]


def I_moment(n, k, params: NetworkParams, tagged=False):
    """Closed form of int_0^inf kappa^n(r/2, k) f_L(r) dr over the typical
    cell-length density f_L; with tagged=True over the tagged f_L0, the
    paper's I-tilde."""
    if n < 1:
        raise ValueError("n must be >= 1")
    power = reduce(cell_product, [kappa_coefficients(k, params)] * n)
    return cell_average(*power, params.lambda_r, params.a, tagged)
