"""Reference forms that only the tests call: each one restates a quantity
the package computes another way, so a test can hold the two side by
side."""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning

from platoonnet.connectivity import V2VParams
from platoonnet.coverage import RadioParams
from platoonnet.geometry import NetworkParams
from platoonnet.load import vm_factorial_moment
from platoonnet.mcp_counts import beta_bar, g_of
from platoonnet.numerics import gamma_lower, quad


def laplace_interference_quad(s, r, p_active, lambda_r, radio: RadioParams):
    """Quadrature cross-check of the closed-form LT
    `coverage.laplace_interference`."""
    alpha, pt = radio.alpha, radio.p_t

    def f(z):
        return 1.0 - 1.0 / (1.0 + s * pt * z ** (-alpha))

    with warnings.catch_warnings():
        # roundoff warnings at these tolerances are expected; the value
        # is still far more accurate than the cross-check needs
        warnings.simplefilter("ignore", IntegrationWarning)
        val = quad(f, r, np.inf, epsabs=1e-13, epsrel=1e-11, limit=400)
    return math.exp(-2 * p_active * lambda_r * val)


def pgf_S(s, r, params: NetworkParams):
    """PGF of the MCP count in a ball of radius r."""
    return np.exp(g_of(s, r, params))


def g_deriv_at_zero(i, r, params: NetworkParams):
    """i-th derivative of g(s, r) w.r.t. s at s = 0, i >= 1."""
    if i < 1:
        raise ValueError("derivative order must be >= 1")
    lp, m, a = params.lambda_p, params.m, params.a
    z = m * beta_bar(r, a)
    return 2 * lp * (z**i * np.exp(-z) * abs(r - a)
                     + gamma_lower(i + 1, z) / (m / (2 * a)))


def pgf_degree_npts(s, v2v: V2VParams):
    """Poisson PGF exp(lam * R_b * (s - 1)) of the N-PTS degree."""
    return math.exp(v2v.params.lam * v2v.r_b * (s - 1.0))


def moments_vm_conditional(t, params: NetworkParams):
    """(mean, variance) of V_m(t/2) for a fixed cell length t."""
    e1 = vm_factorial_moment(1, t, params)
    e2 = vm_factorial_moment(2, t, params)
    return e1, e1 + e2 - e1**2
