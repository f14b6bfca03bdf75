"""Special functions and quadrature shared by the analytical modules.

Everything here is pure and stateless.  The heavy lifting (incomplete
gamma, Gauss hypergeometric, adaptive quadrature) is delegated to scipy;
this module fixes the conventions (upper incomplete gamma is *not*
regularized, the hypergeometric is only supported for the nonpositive
real arguments that arise from interference Laplace transforms) and adds
the Gil-Pelaez inversion used for meta distributions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, special


class NumericsError(RuntimeError):
    """Raised when a numerical routine cannot reach its tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for adaptive quadrature and oscillatory inversion."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


def gamma_upper(a, x):
    """Upper incomplete gamma integral of t^(a-1) exp(-t) on [x, inf).

    Not regularized: gamma_upper(a, 0) == Gamma(a).
    """
    if np.any(np.asarray(a) <= 0):
        raise ValueError("gamma_upper requires a > 0")
    if np.any(np.asarray(x) < 0):
        raise ValueError("gamma_upper requires x >= 0")
    return special.gammaincc(a, x) * special.gamma(a)


def gamma_lower(a, x):
    """Lower incomplete gamma integral of t^(a-1) exp(-t) on [0, x]."""
    if np.any(np.asarray(a) <= 0):
        raise ValueError("gamma_lower requires a > 0")
    return special.gammainc(a, x) * special.gamma(a)


def hyp2f1_real(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z) for real z <= 0.

    Only the nonpositive-argument regime is supported; it is the one
    produced by the interference Laplace transform, where z = -s*P*r^-alpha.
    """
    if z > 0:
        raise ValueError("hyp2f1_real only supports z <= 0")
    if c <= 0 and float(c).is_integer():
        raise ValueError("c must not be a nonpositive integer")
    out = special.hyp2f1(a, b, c, z)
    if not np.isfinite(out):
        raise NumericsError(f"hyp2f1({a},{b},{c},{z}) did not converge")
    return float(out)


def intersection_length(r, a, x):
    """Length of the overlap of balls b1(0, r) and b1(x, a) on the line.

    Piecewise: 2*min(r, a) when the small ball is inside the big one
    (x < |r - a|), r + a - x in the partial-overlap band, 0 when disjoint.
    """
    r = np.asarray(r, dtype=float)
    a = np.asarray(a, dtype=float)
    x = np.abs(np.asarray(x, dtype=float))
    full = 2.0 * np.minimum(r, a)
    partial = r + a - x
    out = np.where(x < np.abs(r - a), full, np.clip(partial, 0.0, None))
    if out.ndim == 0:
        return float(out)
    return out


def func_F(m, k, a):
    """Integral of x^k exp(-m x) over [0, 2a]."""
    if m <= 0:
        raise ValueError("func_F requires m > 0")
    return gamma_lower(k + 1, 2.0 * m * a) / m ** (k + 1)


def func_G(m, k, a):
    """Integral of x^k exp(-m x) over [2a, inf)."""
    if m <= 0:
        raise ValueError("func_G requires m > 0")
    return gamma_upper(k + 1, 2.0 * m * a) / m ** (k + 1)


GP_MAX_PANELS = 24  # dyadic panels tried before the integrand must decay


def gil_pelaez_invert(moment_fn: Callable[[float], complex], x: float,
                      spec=QuadratureSpec(1e-4, 1e-4, 400)) -> float:
    """CCDF P[P > x] of a (0, 1]-valued RV from its imaginary moments.

    moment_fn(t) must return M_it = E[P^(it)], the characteristic function
    of ln P.  Evaluates 1/2 + (1/pi) * int_0^inf Im(exp(-it ln x) M_it)/t dt
    on dyadically growing panels, stopping once panel contributions fall
    below abs_tol/10; the 1/t singularity at the origin is removable and
    never sampled.  The result is clamped to [0, 1].
    """
    if not 0.0 < x < 1.0:
        raise ValueError("gil_pelaez_invert requires x in (0, 1)")
    lnx = math.log(x)

    def integrand(t):
        m = moment_fn(t)
        return (complex(np.exp(-1j * t * lnx)) * m).imag / t

    total = 0.0
    lo, hi = 0.0, 1.0
    quiet = 0
    for _ in range(GP_MAX_PANELS):
        # oscillation count in the panel sets the subdivision budget;
        # capped because QAGS extrapolation converges long before the
        # naive per-cycle budget on the wide outer panels
        limit = min(20000, max(spec.max_subdivisions,
                               int(4 * (hi - lo) * (abs(lnx) + 3.0))))
        with warnings.catch_warnings():
            # panel-level error control comes from the dyadic stopping
            # rule, not from each panel hitting the QAGS tolerance
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(integrand, lo, hi,
                                    epsabs=spec.abs_tol / 10,
                                    epsrel=spec.rel_tol, limit=limit)
        total += val
        if abs(val) < spec.abs_tol / 10:
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
