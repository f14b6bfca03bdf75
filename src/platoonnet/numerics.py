"""Special functions and quadrature shared by the analytical modules.

Everything here is pure and stateless: the Poisson mass, the one
adaptive (QUADPACK) entry point, the composite Gauss-Legendre map and
the Gil-Pelaez inversion used for meta distributions.
"""

from __future__ import annotations

import cmath
import math
import warnings
from typing import Callable

import numpy as np
from scipy import integrate, special


class NumericsError(RuntimeError):
    """Raised when a numerical routine cannot reach its tolerance."""


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


def gil_pelaez_invert(moment_fn: Callable[[float], complex],
                      x: float) -> float:
    """CCDF P[P > x] of a (0, 1]-valued RV from its imaginary moments.

    moment_fn(t) must return M_it = E[P^(it)], the characteristic function
    of ln P.  Evaluates 1/2 + (1/pi) * int_0^inf Im(exp(-it ln x) M_it)/t dt
    on dyadically growing panels, stopping once panel contributions fall
    below GP_ABS_TOL/10; the 1/t singularity at the origin is removable and
    never sampled.  The result is clamped to [0, 1].
    """
    if not 0.0 < x < 1.0:
        raise ValueError("gil_pelaez_invert requires x in (0, 1)")
    lnx = math.log(x)

    def integrand(t):
        m = moment_fn(t)
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
