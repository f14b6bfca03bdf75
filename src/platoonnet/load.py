"""Load distributions on the typical and tagged RSU, PTS and N-PTS.

PTS results mix the interval-count law of the cluster process over the
cell-length distributions; the tagged cell additionally receives the
typical VU's own platoon, handled by the conditional law V_m(t/2) below.
The PTS PMFs are read off the mixture PGF by one FFT at the roots of
unity, where the tagged cell multiplies the count PGF by the platoon
PGF, with the aliased mass bounded by a Chernoff tail bound (summed in
log form at real radii); the certified forms pass those masses through
`mcp_counts.certified`.  Cell lengths past the kink t = 2a hold every
platoon ball whole, so there the log of the conditional PGF is linear in
t, plus log(E + D/t) in the tagged cell (`_past_kink`): at the roots of
unity their share of the mixture PGF is a closed form (`_tail_pgf`), and
at the Chernoff radii each node past the kink takes that linear form, so
only the mixture nodes below the first panel edge at or past 2a take the
per-node kernel.  The PTS moments come from `geometry.cell_average`.
N-PTS results are elementary closed forms.

The tagged-platoon count V_m(t/2) admits a clean mixture representation:
its conditional Poisson mean M = lambda_d * A is equal to its maximum
mu0 = lambda_d * min(t, 2a) with probability w = 1 - min(t,2a)/max(t,2a)
and otherwise has density proportional to mu on (0, mu0).  All of its
conditional quantities (PGF, factorial moments) follow from that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial
from scipy import special

from .geometry import NetworkParams, cell_average, cell_product, \
    cell_quantile, cell_value, pdf_cell
from .mcp_counts import DiscretePMF, TAIL_TOL, certified, g_of, g_rows, \
    kappa_coefficients, I_moment
from .numerics import NumericsError, overflow_raises, panels


@dataclass(frozen=True)
class LoadMoments:
    mean: float
    variance: float
    third_moment: float

    @property
    def skewness(self):
        scale = self.variance**1.5
        if scale == 0:
            raise NumericsError(f"skewness: variance**1.5 underflows to 0 "
                                f"(variance {self.variance:.3g})")
        return ((self.third_moment - 3 * self.mean * self.variance
                 - self.mean**3) / scale)


_MIX_PANELS = 60  # Gauss-Legendre panels of 10 nodes each
_MIX_X, _MIX_W = np.polynomial.legendre.leggauss(10)


def _mixture(params, tagged):
    """(nodes, weights, kept, t1, T): _MIX_PANELS equal panels on [0, T],
    T at the 1 - 1e-8 quantile of the relevant cell-length law, their
    composite Gauss-Legendre nodes and weights (times the density), and
    the split at t1, the first panel edge at or past the kink t = 2a (T
    when 2a is past it), with `kept` the count of nodes below t1."""
    T = cell_quantile(1 - 1e-8, params.lambda_r, tagged=tagged)
    edges = np.linspace(0.0, T, _MIX_PANELS + 1)
    nodes, weights = panels(edges, _MIX_X, _MIX_W)
    below = min(int(np.searchsorted(edges, 2 * params.a)), _MIX_PANELS)
    return (nodes, weights * pdf_cell(nodes, params.lambda_r, tagged),
            below * _MIX_X.size, edges[below], T)


# ------------------------------------------------------- PMFs by FFT

_ALIAS_TOL = 1e-13  # Chernoff bound on the aliased mass P[X >= N]
_BLOCK = 32         # mixture nodes per block of the PGF sums
N_MAX = 2**15       # largest FFT; the CLI keeps k_max + 1 within it
_RHO = 2.0 ** (np.arange(1, 49) / 48)  # Chernoff radii in (1, 2]


def _log_pgf_given(s, t, params, tagged):
    """log E[s^X | cell length t] of the PTS load at real s > 0: the count
    S(t/2), times the tagged platoon V_m(t/2) in the tagged cell."""
    g = g_of(s, t / 2.0, params)
    return g + np.log(pgf_vm(s, t, params)) if tagged else g


def _pgf_given(s, t, params, tagged):
    """E[s^X | cell length t], the product of the two PGFs in the tagged
    cell: one complex exponential per factor, and no complex log."""
    pgf = np.exp(g_of(s, t / 2.0, params))
    return pgf * pgf_vm(s, t, params) if tagged else pgf


def _pts_masses(params, tagged, n_min=0):
    """Masses on 0..N-1 of the PTS load, from one FFT of its PGF.

    The mixture PGF G is sampled at the N-th roots of unity, so mass k
    comes out as sum_j p_{k+jN}: each mass is off by at most P[X >= N].
    N is the smallest power of two >= max(64, n_min) whose Chernoff bound
    min_rho G(rho) / rho^N on that tail is below _ALIAS_TOL; an n_min or
    a tail that needs N past N_MAX raises, and so does a bound that
    overflows a float.  In both stages the nodes below t1, the first
    panel edge at or past t = 2a, take the per-node kernel, and the
    cells from t1 to T take the linear form that holds past 2a: at the
    real radii node by node (`_chernoff_log_g`), at the roots of unity
    integrated exactly (`_tail_pgf`).  At the roots of unity the tagged
    cell multiplies the two PGFs, and the node sums run over blocks of
    nodes to bound the working set.
    """
    nodes, wts, kept, t1, T = _mixture(params, tagged)
    # an overflow ends in a NaN need, which raises
    with np.errstate(over="ignore", invalid="ignore"):
        log_g = _chernoff_log_g(nodes, wts, kept, t1, params, tagged)
        # G(rho) / rho^N < tol for N > need at the best rho
        need = np.min((log_g - math.log(_ALIAS_TOL)) / np.log(_RHO))
    if math.isnan(need):
        raise NumericsError("load PMF: its Chernoff tail bound overflows "
                            "a float")
    size = max(need, n_min)
    if not size <= N_MAX:
        raise NumericsError(f"load PMF needs an FFT of {size:.3g} points, "
                            f"past {N_MAX}")
    N = 2 ** math.ceil(math.log2(max(64, size)))
    s = np.exp(-2j * np.pi * np.arange(N // 2 + 1) / N)
    t, w = nodes[:kept, None], wts[:kept]
    pgf = sum(w[i:i + _BLOCK] @ _pgf_given(s, t[i:i + _BLOCK], params,
                                            tagged)
              for i in range(0, kept, _BLOCK))
    if t1 < T:
        pgf = pgf + _tail_pgf(s, t1, T, params, tagged)
    return np.fft.irfft(pgf, N)


def _chernoff_log_g(nodes, wts, kept, t1, params, tagged):
    """log G(rho) at the Chernoff radii _RHO, G the mixture PGF over
    every node: the per-node kernel on the first `kept` nodes (those below
    t1 >= 2a) and `_log_pgf_past_kink` on the rest, summed in log form,
    one max-shifted log-sum-exp per _BLOCK of nodes, the blocks in one
    array pass.  The 600 nodes fill 19 blocks with 8 rows of weight 0 at
    log-PGF -inf, whose terms are exact zeros."""
    size = -(-nodes.size // _BLOCK) * _BLOCK
    log_pgf = np.full((size, _RHO.size), -np.inf)
    log_pgf[:kept] = _log_pgf_given(_RHO, nodes[:kept, None], params, tagged)
    if kept < nodes.size:
        log_pgf[kept:nodes.size] = _log_pgf_past_kink(
            _RHO, nodes[kept:, None], t1, params, tagged)
    log_pgf = log_pgf.reshape(-1, _BLOCK, _RHO.size)
    w = np.append(wts, np.zeros(size - nodes.size)).reshape(-1, 1, _BLOCK)
    top = log_pgf.max(axis=1, keepdims=True)
    return np.logaddexp.reduce(top + np.log(w @ np.exp(log_pgf - top)))[0]


def _past_kink(s, t1, params, tagged):
    """(c0, c1, E, D) of the conditional PGF at s for cell lengths t >=
    t1 >= 2a, where every platoon ball lies inside the cell.

    g(s, t/2) = c0 + c1 t, with (E, F) the `g_rows` at z = m, c1 = lp
    (E - 1) and c0 = 2 lp (F - a (E + 1)).  The tagged platoon's PGF is
    E + D/t, with E = e^{mu0 (s - 1)} and B/z^2 from the `_vm_rows` at
    mu0 = lam_d 2a, and D = (B/z^2) / (a lam_d^2) - 2a E.  The typical
    cell has no platoon term: E is that of `g_rows` and D is None."""
    lp, a = params.lambda_p, params.a
    E, F = g_rows(s, params.m, params)  # z = m past r = a
    c1 = lp * (E - 1.0)
    c0 = 2 * lp * (F - a * (E + 1.0))
    if not tagged:
        return c0, c1, E, None
    _, mu0, c = _vm_mixture(t1, params)  # past 2a c t = 1/(a lam_d^2)
    near, e, bracket, far, series = _vm_rows(s, mu0)
    bz2 = bracket / far**2
    bz2[near] = series
    return c0, c1, e, c * t1 * bz2 - 2 * a * e


def _log_pgf_past_kink(s, t, t1, params, tagged):
    """`_log_pgf_given` in the linear form of `_past_kink`, for cell
    lengths t >= t1 >= 2a: c0 + c1 t, plus log(E + D/t) in the tagged
    cell."""
    c0, c1, e, D = _past_kink(s, t1, params, tagged)
    log_pgf = c0 + c1 * t
    return log_pgf + np.log(e + D / t) if tagged else log_pgf


def _tail_pgf(s, t1, T, params, tagged):
    """The share of the cell lengths in [t1, T], t1 >= 2a, of the mixture
    PGF at s, |s| <= 1, in closed form.

    Past t1 the count PGF is e^{c0 + c1 t} and the tagged platoon's PGF
    E + D/t (`_past_kink`).  Against the density 4 lr^(d+1) t^d
    e^{-2 lr t} the share is then 4 lr^2 e^{c0} J_1 (typical) or 4 lr^3
    e^{c0} (E J_2 + D J_1) (tagged), with J_j the integral of t^j
    e^{-beta t} over [t1, T], beta = 2 lr - c1 (Re beta >= 2 lr), that
    is j!/beta^(j+1) times [Q_j(beta t) e^{-beta t}] from T to t1, Q_j
    the exponential series cut after x^j/j!.
    """
    lr = params.lambda_r
    c0, c1, e, D = _past_kink(s, t1, params, tagged)
    beta = 2 * lr - c1
    x1, xT = beta * t1, beta * T
    e1, eT = np.exp(c0 - x1), np.exp(c0 - xT)

    def j_integral(j):  # e^{c0} J_j
        q = [1 / math.factorial(k) for k in range(j + 1)]
        return math.factorial(j) / beta ** (j + 1) * (
            polynomial.polyval(x1, q) * e1 - polynomial.polyval(xT, q) * eT)

    if not tagged:
        return 4 * lr**2 * j_integral(1)
    return 4 * lr**3 * (e * j_integral(2) + D * j_integral(1))


def _certified_pts(params, tagged):
    """Certified PTS load PMF: every truncation K slices one set of FFT
    masses.  All N of them hold the full mixture weight (1 - 1e-8), so
    the search certifies by K = N at the latest."""
    masses = _pts_masses(params, tagged)
    return certified(lambda K: DiscretePMF.of(masses[:K + 1]))


# ---------------------------------------------------------------- typical

def pmf_typical_pts(K, params: NetworkParams) -> DiscretePMF:
    """PMF of the PTS load on the typical RSU, masses on 0..K."""
    return DiscretePMF.of(_pts_masses(params, False, K + 1)[:K + 1])


def pmf_typical_pts_certified(params) -> DiscretePMF:
    return _certified_pts(params, tagged=False)


@overflow_raises
def moments_typical_pts(params: NetworkParams) -> LoadMoments:
    """Mean, variance and third moment of the typical-RSU PTS load."""
    mean = params.m * params.lambda_p / params.lambda_r
    I21 = I_moment(2, 1, params)
    I12 = I_moment(1, 2, params)
    var = mean - mean**2 + I21 + I12
    # E[kappa(L/2, 1) kappa(L/2, 2)]: the factorized I(1,1) I(1,2)
    # understates it enough to flip the skewness ordering at high densities
    cross = cell_average(*cell_product(kappa_coefficients(1, params),
                                       kappa_coefficients(2, params)),
                         params.lambda_r, params.a)
    third = (I_moment(3, 1, params) + I_moment(1, 3, params)
             + 3 * cross + 3 * I12 + 3 * I21 + mean)
    return LoadMoments(mean, var, third)


def pmf_typical_npts(K, params: NetworkParams) -> DiscretePMF:
    """PMF of the N-PTS load on the typical RSU: negative binomial
    NB(2, q), q = 2 lr/(lam + 2 lr), on 0..K with its exact tail."""
    lam, lr = params.lam, params.lambda_r
    k = np.arange(K + 1)
    # assembled in log space so deep truncations do not overflow
    masses = np.exp(math.log(4 * lr**2) + k * math.log(lam)
                    + np.log(k + 1) - (k + 2) * math.log(lam + 2 * lr))
    return DiscretePMF(masses, tail_mass=float(
        special.nbdtrc(K, 2, 2 * lr / (lam + 2 * lr))))


def pmf_typical_npts_certified(params) -> DiscretePMF:
    return certified(lambda K: pmf_typical_npts(K, params))


@overflow_raises
def moments_typical_npts(params: NetworkParams) -> LoadMoments:
    g = params.lam / params.lambda_r
    return LoadMoments(g, g**2 / 2 + g, 3 * g**3 + 4.5 * g**2 + g)


# ------------------------------------------------- tagged platoon V_m(t/2)

def _vm_mixture(t, params):
    """(w, mu0, c): atom weight, max mean, linear-density coefficient,
    elementwise in the cell length t (scalar or array, all > 0)."""
    if not np.asarray(t).min() > 0:  # a NaN fails too
        raise ValueError("t must be positive")
    a, m = params.a, params.m
    lam_d = m / (2 * a)
    lo, hi = np.minimum(t, 2 * a), np.maximum(t, 2 * a)
    mu0 = lam_d * lo
    w = 1.0 - lo / hi
    c = 1.0 / (a * t * lam_d**2)
    return w, mu0, c


_VM_BAND = 0.1  # series band |mu0 (s - 1)| < _VM_BAND
# Taylor coefficients (k + 1)/(k + 2)! of (e^x (x - 1) + 1) / x^2
_VM_SERIES = [(k + 1) / math.factorial(k + 2) for k in range(8)]


def pgf_vm(s, t, params: NetworkParams):
    """Conditional PGF of the tagged-platoon count in a cell of length t;
    s (real or complex) and t broadcast against each other.

    Uses a series branch near s = 1 where the closed form is 0/0 of
    order two, evaluated on the band points alone.
    """
    w, mu0, c = _vm_mixture(t, params)
    near, e, bracket, far, series = _vm_rows(s, mu0)
    lin = np.asarray(c * bracket / far**2)
    lin[near] = np.broadcast_to(c, near.shape)[near] * series
    return w * e + lin[()]


def _vm_rows(s, mu):
    """The terms of `pgf_vm` that depend on the max mean mu and s alone:
    (near, e, bracket, far, series) with z = s - 1, the series band near =
    |mu z| < _VM_BAND, e = e^{mu z}, the closed form's bracket B = e (mu z
    - 1) + 1 with far = z off the band (1 on it), and the series of
    B / z^2 at the band points."""
    z = s - 1.0
    x = mu * z
    near = abs(x) < _VM_BAND
    e = np.exp(x)  # off the band far == z: e^{mu far} there
    # the closed form divides an O(x^2) cancellation by z^2 (relative
    # error near 2 eps / |x|^2); the series stops before x^8: both are
    # near 5e-14 at |x| = _VM_BAND
    series = np.broadcast_to(mu, near.shape)[near]**2 * \
        np.polynomial.polynomial.polyval(x[near], _VM_SERIES)
    far = np.where(near, 1.0, z)  # the unused closed form stays finite
    return near, e, e * (mu * far - 1.0) + 1.0, far, series


def vm_coefficients(j, params: NetworkParams):
    """The j-th factorial moment E[M^j] of V_m(L/2) in the cell length L,
    as `cell_average` takes it: a polynomial below L = 2a, and
    m^j + m^j (4a/(j+2) - 2a)/L above."""
    a, m = params.a, params.m
    c = (m / (2 * a)) ** j
    below = np.append(np.zeros(j), [c, c * (1 / (a * (j + 2)) - 1 / (2 * a))])
    above = m**j * np.array([0.0, 4 * a / (j + 2) - 2 * a, 1.0])
    return below, above


def moments_vm(params: NetworkParams):
    """(mean, mean conditional variance) of the tagged-platoon count,
    deconditioned over the tagged cell length: E[v1] and
    E[v2 + v1 - v1^2]."""
    v1, v2 = vm_coefficients(1, params), vm_coefficients(2, params)
    var = [polynomial.polyadd(polynomial.polysub(x2, x11), x1)
           for x1, x2, x11 in zip(v1, v2, cell_product(v1, v1))]
    return tuple(cell_average(*p, params.lambda_r, params.a, tagged=True)
                 for p in (v1, var))


# ---------------------------------------------------------------- tagged

def pmf_tagged_pts(K, params: NetworkParams) -> DiscretePMF:
    """PMF of the tagged-RSU PTS load: the background count S(t/2) plus
    the tagged-platoon count V_m(t/2), deconditioned over the tagged cell
    length; masses on 0..K."""
    return DiscretePMF.of(_pts_masses(params, True, K + 1)[:K + 1])


def pmf_tagged_pts_certified(params) -> DiscretePMF:
    return _certified_pts(params, tagged=True)


@overflow_raises
def moments_tagged_pts(params: NetworkParams) -> LoadMoments:
    """Mean, variance and third moment of the tagged-RSU PTS load."""
    mean_s = 1.5 * params.m * params.lambda_p / params.lambda_r
    mean_vm, var_vm = moments_vm(params)
    mean = mean_s + mean_vm
    var = (var_vm + mean_s - mean_s**2
           + I_moment(2, 1, params, tagged=True)
           + I_moment(1, 2, params, tagged=True))
    # third factorial moment of the product PGF at s=1, deconditioned
    nodes, wts, *_ = _mixture(params, tagged=True)
    k1, k2, k3 = (cell_value(nodes, *kappa_coefficients(k, params), params.a)
                  for k in (1, 2, 3))
    f2 = k1**2 + k2
    f3 = k1**3 + 3 * k2 * k1 + k3
    v1, v2, v3 = (cell_value(nodes, *vm_coefficients(j, params), params.a)
                  for j in (1, 2, 3))
    pgf3 = float(np.dot(wts, f3 + 3 * f2 * v1 + 3 * k1 * v2 + v3))
    third = pgf3 + 3 * (var + mean**2) - 2 * mean
    return LoadMoments(mean, var, third)


def pmf_tagged_npts(K, params: NetworkParams) -> DiscretePMF:
    """PMF of the tagged-RSU N-PTS load (typical VU not counted):
    negative binomial NB(3, 1/(1 + g/2)), g = lam/lr, on 0..K with its
    exact tail."""
    g = params.lam / params.lambda_r
    k = np.arange(K + 1)
    masses = np.exp(k * math.log(g / 2) + math.log(0.5)
                    + np.log(k + 2) + np.log(k + 1)
                    - (3 + k) * math.log(1 + g / 2))
    return DiscretePMF(masses, tail_mass=float(
        special.nbdtrc(K, 3, 1 / (1 + g / 2))))


def pmf_tagged_npts_certified(params) -> DiscretePMF:
    return certified(lambda K: pmf_tagged_npts(K, params))


@overflow_raises
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
        if not p_off < 1.0:
            raise NumericsError("the RSU is never active (all load mass "
                                "at 0): no mean active load")
        s_avg = pmf.mean() / (1 - p_off)
        k_avg = math.floor(s_avg)
        p_b = float(pmf.masses[1: k_avg + 1].sum())
        return {"p_off": p_off, "s_avg": s_avg, "k_avg": k_avg, "p_b": p_b}
    if kind == "tagged":
        m_avg = math.floor(pmf.mean())
        P_b = float(pmf.masses[1: m_avg + 1].sum())
        return {"P1_zero_extra_load": float(pmf.masses[0]),
                # empty for a pmf with support {0}: no mass at 1
                "P1_mass_at_one": float(pmf.masses[1:2].sum()),
                "m_avg": m_avg, "P_b": P_b}
    raise ValueError(f"unknown kind {kind!r}")
