"""Special functions and quadrature shared by the analytical modules.

Everything here is pure and stateless: the float-overflow guard of the
ops, the Poisson mass, the one adaptive (QUADPACK) entry point and its
point predictor (`kronrod_batches`, which hands an integrand QUADPACK's
Kronrod nodes an interval at a time), the composite Gauss-Legendre map
and the Gil-Pelaez inversion used for meta distributions.
`scipy.integrate` (which pulls in scipy.optimize, sparse, linalg and
spatial) is imported by the two functions that use it, when they first
run, so `import platoonnet` does not pay for it.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from typing import Callable, Sequence

import numpy as np
from scipy import special


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
    from scipy import integrate
    return integrate.quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel,
                          limit=limit)[0]


def panels(edges, x, w):
    """Gauss-Legendre nodes x, weights w on [-1, 1] mapped onto each
    panel between consecutive edges: a composite rule, panel by panel."""
    half = 0.5 * np.diff(edges)[:, None]
    return ((0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel(),
            (half * w).ravel())


# the positive Kronrod abscissae xgk_j of QUADPACK's 21-point rule
# (dqk21), which QAGS applies on a finite range, and of its 15-point rule
# (dqk15, all 33 digits), which QAGI applies to x in (0, 1] after the map
# t = lo + (1 - x)/x of [lo, inf) (dqk15i): each samples an interval
# [a, b] at its centre c = 0.5 (a + b), then at c -/+ 0.5 (b - a) xgk_j
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_XGK15 = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245])


def kronrod_batches(values: Callable[[np.ndarray], Sequence[float]],
                    lo: float, hi: float) -> Callable[[float], float]:
    """A scalar integrand for `quad` over [lo, hi] (hi may be inf) that
    answers every Kronrod node of an interval from one values(ts) call.

    values(ts) must return the integrand at each t of the float array ts,
    in order; a value may not depend on the other members of ts.  QUADPACK
    asks for one point at a time, so the integrand predicts its points:
    it knows the first interval, and each interval QUADPACK has visited
    adds its two halves, split at the centre as QAGS and QAGI bisect.  At
    the centre of a predicted interval it asks values for all the nodes
    of the rule (QK21 on a finite range, QK15I on [lo, inf)) in one call
    and answers the next points from them; a point it did not predict
    costs one call of its own.  QUADPACK sees the same points and values
    either way.  A new integrand serves one `quad` call.
    """
    if math.isinf(hi):
        xgk, first = _XGK15, (0.0, 1.0)

        def node(x):
            return lo + (1.0 - x) / x
    else:
        xgk, first = _XGK, (lo, hi)

        def node(x):
            return x
    intervals = {}  # node(centre) -> (a, b) of an interval QUADPACK may
    ahead = {}      # visit next; t -> a value computed before it asked

    def visit(a, b):
        intervals[node(0.5 * (a + b))] = (a, b)

    def integrand(t):
        if t in intervals:
            a, b = intervals.pop(t)
            c = 0.5 * (a + b)
            absc = 0.5 * (b - a) * xgk
            ts = node(np.concatenate(([c], c - absc, c + absc)))
            ahead.update(zip(ts.tolist(), values(ts)))
            visit(a, c)
            visit(c, b)
        return ahead.pop(t) if t in ahead else values(np.array([t]))[0]

    visit(*first)
    return integrand


GP_MAX_PANELS = 24  # dyadic panels tried before the integrand must decay
GP_ABS_TOL, GP_REL_TOL = 1e-4, 1e-6  # Gil-Pelaez target tolerances
GP_MIN_SUBDIVISIONS = 400  # floor of each panel's QAGS budget


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

    Each panel's QAGS integrand is a `kronrod_batches` one, so moment_fn
    sees each interval's 21 Kronrod nodes in one call.  That node map
    retires with the QAGS loop (ROADMAP item 6, a fixed t-grid evaluated
    in one batch).
    """
    from scipy import integrate
    if not 0.0 < x < 1.0:
        raise ValueError("gil_pelaez_invert requires x in (0, 1)")
    lnx = math.log(x)

    def values(ts):
        return [(cmath.exp(-1j * t * lnx) * m).imag / t
                for t, m in zip(ts.tolist(), moment_fn(ts))]

    total = 0.0
    lo, hi = 0.0, 1.0
    quiet = 0
    for _ in range(GP_MAX_PANELS):
        # oscillation count in the panel sets the subdivision budget;
        # capped because QAGS extrapolation converges long before the
        # naive per-cycle budget on the wide outer panels
        limit = min(20000, max(GP_MIN_SUBDIVISIONS,
                               int(4 * (hi - lo) * (abs(lnx) + 3.0))))
        with warnings.catch_warnings():
            # panel-level error control comes from the dyadic stopping
            # rule, not from each panel hitting the QAGS tolerance
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val = quad(kronrod_batches(values, lo, hi), lo, hi,
                       epsabs=GP_ABS_TOL / 10,
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
