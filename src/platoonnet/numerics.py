"""Special functions and quadrature shared by the analytical modules.

Everything here is pure and stateless: the float-overflow guard of the
ops, the Poisson mass, the one adaptive (QUADPACK) entry point, the
composite Gauss-Legendre map and the Gil-Pelaez inversion used for meta
distributions.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, special


class NumericsError(RuntimeError):
    """Raised when a numerical routine cannot reach its tolerance."""


def overflow_raises(fn):
    """fn, with the OverflowError that Python's float arithmetic raises
    past the largest float raised as NumericsError instead."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError:
            raise NumericsError(f"{fn.__name__}: a value overflows a "
                                "float") from None
    return checked


def poisson_pmf(n, mu):
    """Poisson(mu) mass at n, in log space so large n does not overflow."""
    return np.exp(n * np.log(mu) - mu - special.gammaln(n + 1))


def quad(f, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=200):
    """Adaptive (QUADPACK) integral of f over [lo, hi]; returns the value.

    Every adaptive quadrature of the package runs through here.
    `integrate.quad` is looked up at call time, so a wrapper installed on
    that attribute (a profiler or tracer) sees every call."""
    return integrate.quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel,
                          limit=limit)[0]


def panels(edges, x, w):
    """Gauss-Legendre nodes x, weights w on [-1, 1] mapped onto each
    panel between consecutive edges: a composite rule, panel by panel."""
    half = 0.5 * np.diff(edges)[:, None]
    return ((0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel(),
            (half * w).ravel())


GP_MAX_PANELS = 24  # dyadic panels tried before the integrand must decay
GP_ABS_TOL, GP_REL_TOL = 1e-4, 1e-6  # Gil-Pelaez target tolerances
GP_MIN_SUBDIVISIONS = 400  # floor of each panel's QAGS budget
# the positive Kronrod abscissae xgk_j of QUADPACK's 21-point rule (dqk21):
# it samples an interval [a, b] at its centre c = 0.5 (a + b), then at
# c -/+ 0.5 (b - a) xgk_j
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])


def gil_pelaez_invert(moment_fn: Callable[[np.ndarray], Sequence[complex]],
                      x: float) -> float:
    """CCDF P[P > x] of a (0, 1]-valued RV from its imaginary moments.

    moment_fn(ts) must return M_it = E[P^(it)], the characteristic
    function of ln P, at each t of the float array ts, in order; a value
    may not depend on the other members of ts.  Evaluates 1/2 + (1/pi) *
    int_0^inf Im(exp(-it ln x) M_it)/t dt on dyadically growing panels,
    stopping once panel contributions fall below GP_ABS_TOL/10; the 1/t
    singularity at the origin is removable and never sampled.  The result
    is clamped to [0, 1].

    QAGS asks for one t at a time, so the integrand predicts its points:
    it knows the panel, and each interval QAGS has visited adds its two
    halves, split at the centre as QAGS bisects.  At the centre of a
    predicted interval it asks moment_fn for all 21 Kronrod nodes in one
    call and answers the next 20 points from them; a point it did not
    predict costs one call of its own.  QAGS sees the same points and
    values either way.  This node map retires with the QAGS loop (ROADMAP
    item 6, a fixed t-grid evaluated in one batch).
    """
    if not 0.0 < x < 1.0:
        raise ValueError("gil_pelaez_invert requires x in (0, 1)")
    lnx = math.log(x)
    intervals = {}  # centre -> (a, b) of an interval QAGS may visit next
    ahead = {}      # t -> M_it computed before QAGS asked for it

    def integrand(t):
        if t in intervals:
            a, b = intervals.pop(t)
            absc = 0.5 * (b - a) * _XGK
            ts = np.concatenate(([t], t - absc, t + absc))
            ahead.update(zip(ts.tolist(), moment_fn(ts)))
            intervals[0.5 * (a + t)] = (a, t)
            intervals[0.5 * (t + b)] = (t, b)
        m = ahead.pop(t) if t in ahead else moment_fn(np.array([t]))[0]
        return (cmath.exp(-1j * t * lnx) * m).imag / t

    total = 0.0
    lo, hi = 0.0, 1.0
    quiet = 0
    for _ in range(GP_MAX_PANELS):
        # oscillation count in the panel sets the subdivision budget;
        # capped because QAGS extrapolation converges long before the
        # naive per-cycle budget on the wide outer panels
        limit = min(20000, max(GP_MIN_SUBDIVISIONS,
                               int(4 * (hi - lo) * (abs(lnx) + 3.0))))
        intervals.clear()
        ahead.clear()
        intervals[0.5 * (lo + hi)] = (lo, hi)
        with warnings.catch_warnings():
            # panel-level error control comes from the dyadic stopping
            # rule, not from each panel hitting the QAGS tolerance
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val = quad(integrand, lo, hi, epsabs=GP_ABS_TOL / 10,
                       epsrel=GP_REL_TOL, limit=limit)
        total += val
        if abs(val) < GP_ABS_TOL / 10:
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
        lo, hi = hi, 2.0 * hi
    else:
        if quiet == 0:
            raise NumericsError(
                "Gil-Pelaez integrand failed to decay before max truncation")
    return float(min(1.0, max(0.0, 0.5 + total / math.pi)))
