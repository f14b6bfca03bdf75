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

import numpy as np
from scipy import special

from .geometry import NetworkParams
from .numerics import NumericsError, gamma_lower, poisson_pmf

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
        """P[X > k]; k = -1 returns 1."""
        if k < 0:
            return 1.0
        return float(1.0 - self.masses[: k + 1].sum())


def beta_bar(r, a):
    """min(r, a) / a, the normalized full-overlap length."""
    return np.minimum(r, a) / a


def distinct_rows(x, s):
    """(x_u, at) with f(x_u, s)[at] == f(x, s) for a numpy x and an
    elementwise f.

    When x is a column (a block of mixture nodes) and s a row (the FFT or
    Chernoff points), x_u holds each distinct value of x once and at
    takes the rows of an (x_u, s) table back to the block: past t = 2a
    every node gives the same z and mu0, so a factor of x and s costs one
    row per distinct value.  Any other x comes back as is, with at = ().
    """
    if x.shape[-1:] != (1,) or np.ndim(s) != 1:
        return x, ()
    rows = {}  # first-seen order, and far cheaper than np.unique here
    inv = [rows.setdefault(v, len(rows)) for v in x.ravel().tolist()]
    return np.array(list(rows))[:, None], np.reshape(inv, x.shape[:-1])


def g_of(s, r, params: NetworkParams):
    """Exponent g(s, r) of the PGF of S(r); s (real or complex) and r
    broadcast against each other.

    Closed form with a second-order Taylor branch for |s - 1| < 1e-6,
    where (exp(m*bb*(s-1)) - 1)/(s-1) is a removable 0/0.  The factors of
    s are tabulated over the distinct z = m*bb (see `distinct_rows`).
    """
    lp, m, a = params.lambda_p, params.m, params.a
    z, at = distinct_rows(m * beta_bar(r, a), s)
    d = s - 1.0
    near = abs(d) < _S1_EPS
    far = d + near  # keeps the unused closed form finite on the band
    # (e^{z(s-1)}-1)/((m/2a)(s-1)) ~ (2a/m)(z + z^2 (s-1)/2 + z^3 (s-1)^2/6)
    e = np.exp(z * d)  # off the band far == d, so e is e^{z far} there
    frac = np.where(near,
                    (2 * a / m) * (z + z**2 * d / 2 + z**3 * d**2 / 6),
                    (e - 1.0) / ((m / (2 * a)) * far))
    return 2 * lp * (abs(r - a) * e[at] - (r + a) + frac[at])


def kappa(r, k, params: NetworkParams):
    """Limit of the k-th derivative of g(s, r) as s -> 1, k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lp, m, a = params.lambda_p, params.m, params.a
    r = np.asarray(r, dtype=float)
    beta = 2 * np.minimum(r, a)
    out = 2 * lp * (m * beta / (2 * a)) ** k * (r + a - beta * k / (k + 1))
    return float(out) if out.ndim == 0 else out


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


def choose_truncation(mass_at):
    """Double K from 8 until mass >= 1 - TAIL_TOL; error past K_CAP.

    mass_at(K) must return the masses array for truncation K.
    """
    K = 8
    while K <= K_CAP:
        masses = mass_at(K)
        if masses.sum() >= 1.0 - TAIL_TOL:
            return K, masses
        K *= 2
    raise NumericsError(f"PMF tail not certified below K={K_CAP}")


def certified(pmf_at) -> DiscretePMF:
    """PMF with K grown automatically until the tail is certified.

    pmf_at(K) must return the DiscretePMF truncated at K.
    """
    _, masses = choose_truncation(lambda K: pmf_at(K).masses)
    return DiscretePMF.of(masses)


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
    eta1 = a * (1 - k) / (1 + k)
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
