import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from platoonnet.geometry import NetworkParams, pdf_tagged_cell, \
    pdf_typical_cell
from platoonnet.mcp_counts import (DiscretePMF, I_moment, I_tilde_moment,
                                   NumericsError, beta_bar, certified,
                                   choose_truncation, g_deriv_at_zero, g_of,
                                   kappa, pgf_S, pmf_S)

PARAMS = NetworkParams(0.002, 0.001, 5.0, 100.0)


def _partitions(k, max_part=None):
    """Integer partitions of k as (part, multiplicity) dicts."""
    if max_part is None:
        max_part = k
    if k == 0:
        yield {}
        return
    for j in range(min(k, max_part), 0, -1):
        for rest in _partitions(k - j, j):
            out = dict(rest)
            out[j] = out.get(j, 0) + 1
            yield out


def pmf_by_partition_sum(K, r, params):
    """Reference PMF from the exponential-composition partition sum."""
    p0 = math.exp(g_of(0.0, r, params))
    derivs = {j: g_deriv_at_zero(j, r, params) for j in range(1, K + 1)}
    out = [p0]
    for k in range(1, K + 1):
        acc = 0.0
        for part in _partitions(k):
            term = 1.0
            for j, mult in part.items():
                term *= derivs[j] ** mult / (
                    math.factorial(mult) * math.factorial(j) ** mult)
            acc += term
        out.append(p0 * acc)
    return np.array(out)


class TestDiscretePMF:
    def test_moments(self):
        pmf = DiscretePMF(np.array([0.2, 0.5, 0.3]), 0.0)
        assert pmf.mean() == pytest.approx(1.1)
        assert pmf.variance() == pytest.approx(0.49)
        assert pmf.pgf(0.5) == pytest.approx(0.2 + 0.25 + 0.075)
        assert pmf.ccdf(0) == pytest.approx(0.8)
        assert pmf.ccdf(-1) == 1.0

    def test_negative_mass_rejected(self):
        with pytest.raises(NumericsError):
            DiscretePMF(np.array([1.1, -0.1]), 0.0)

    def test_normalization_enforced(self):
        with pytest.raises(NumericsError):
            DiscretePMF(np.array([0.5, 0.3]), 0.0)

    def test_tail_mass_counts(self):
        pmf = DiscretePMF(np.array([0.6, 0.3]), 0.1)
        assert pmf.tail_mass == 0.1


class TestExponent:
    def test_g_at_one_is_zero(self):
        for r in (30.0, 100.0, 400.0):
            assert g_of(1.0, r, PARAMS) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("r", [30.0, 100.0, 400.0])
    def test_taylor_branch_continuity(self, r):
        s = 1.0 - 1e-6
        lo = g_of(s - 1e-10, r, PARAMS)
        hi = g_of(s + 1e-10, r, PARAMS)
        assert abs(lo - hi) < 1e-8

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [40.0, 100.0, 250.0])
    def test_deriv_at_zero_matches_finite_difference(self, i, r):
        h = 1e-2
        s = np.arange(-4, 5) * h
        vals = np.array([math.exp(g_of(x, r, PARAMS)) for x in s])
        # i-th derivative of the PGF at 0 equals i! * p_i; compare g-side
        # derivatives through the integral definition instead: central
        # finite differences of g itself
        g_vals = np.array([g_of(x, r, PARAMS) for x in s])
        if i == 1:
            fd = np.gradient(g_vals, h)[4]
        else:
            fd = g_vals
            for _ in range(i):
                fd = np.gradient(fd, h)
            fd = fd[4]
        assert g_deriv_at_zero(i, r, PARAMS) == pytest.approx(
            fd, rel=5e-3, abs=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("r", [40.0, 100.0, 250.0])
    def test_kappa_is_derivative_limit_at_one(self, k, r):
        h = 1e-3
        s = 1.0 + (np.arange(-4, 5) * h)
        vals = np.array([g_of(x, r, PARAMS) for x in s])
        fd = vals
        for _ in range(k):
            fd = np.gradient(fd, h)
        assert kappa(r, k, PARAMS) == pytest.approx(fd[4], rel=1e-4)

    def test_beta_bar(self):
        assert beta_bar(50.0, 100.0) == 0.5
        assert beta_bar(300.0, 100.0) == 1.0


class TestPmfS:
    @pytest.mark.parametrize("r", [40.0, 100.0, 250.0])
    def test_matches_partition_sum(self, r):
        ref = pmf_by_partition_sum(8, r, PARAMS)
        got = pmf_S(8, r, PARAMS).masses
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-15)

    def test_pgf_normalizes(self):
        for r in (40.0, 250.0):
            assert pgf_S(1.0, r, PARAMS) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", [40.0, 100.0, 250.0])
    def test_mean_is_first_kappa(self, r):
        pmf = certified(lambda K: pmf_S(K, r, PARAMS), tail_tol=1e-10)
        assert pmf.mean() == pytest.approx(kappa(r, 1, PARAMS), rel=1e-6)

    @pytest.mark.parametrize("r", [40.0, 250.0])
    def test_factorial_moments(self, r):
        pmf = certified(lambda K: pmf_S(K, r, PARAMS), tail_tol=1e-10)
        k = pmf.support.astype(float)
        fact2 = float(np.dot(k * (k - 1), pmf.masses))
        assert fact2 == pytest.approx(
            kappa(r, 2, PARAMS) + kappa(r, 1, PARAMS) ** 2, rel=1e-6)

    def test_large_truncation_stays_finite(self):
        # the coefficient assembly must not overflow at deep truncations
        pmf = pmf_S(512, 250.0, NetworkParams(0.002, 0.001, 35.0, 100.0))
        assert np.all(np.isfinite(pmf.masses))
        assert pmf.masses.sum() == pytest.approx(1.0, abs=1e-9)

    @given(r=st.floats(5.0, 500.0), m=st.floats(1.0, 30.0))
    @settings(max_examples=50, deadline=None)
    def test_valid_pmf_properties(self, r, m):
        p = NetworkParams(0.002, 0.001, m, 100.0)
        masses = pmf_S(30, r, p).masses
        assert np.all(masses >= 0)
        assert masses.sum() <= 1.0 + 1e-9


class TestTruncation:
    def test_grows_until_certified(self):
        K, masses = choose_truncation(
            lambda K: pmf_S(K, 250.0, PARAMS).masses)
        assert masses.sum() >= 1.0 - 1e-6
        assert K >= 8

    def test_cap_raises(self):
        with pytest.raises(NumericsError):
            choose_truncation(lambda K: np.zeros(K + 1), cap=32)


class TestMixedMoments:
    """The closed-form cell-averaged kappa moments against quadrature."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [5.0, 15.0, 35.0])
    def test_typical(self, n, k, m):
        p = NetworkParams(0.002, 0.001, m, 100.0)

        def f(r):
            return kappa(r / 2.0, k, p) ** n \
                * float(pdf_typical_cell(r, p.lambda_r))

        lo, _ = integrate.quad(f, 0, 2 * p.a, epsabs=1e-13, epsrel=1e-11)
        hi, _ = integrate.quad(f, 2 * p.a, np.inf, epsabs=1e-13,
                               epsrel=1e-11)
        assert I_moment(n, k, p) == pytest.approx(lo + hi, rel=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [5.0, 15.0, 35.0])
    def test_tagged(self, n, k, m):
        p = NetworkParams(0.002, 0.001, m, 100.0)

        def f(r):
            return kappa(r / 2.0, k, p) ** n \
                * float(pdf_tagged_cell(r, p.lambda_r))

        lo, _ = integrate.quad(f, 0, 2 * p.a, epsabs=1e-13, epsrel=1e-11)
        hi, _ = integrate.quad(f, 2 * p.a, np.inf, epsabs=1e-13,
                               epsrel=1e-11)
        assert I_tilde_moment(n, k, p) == pytest.approx(lo + hi, rel=1e-8)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            I_moment(0, 1, PARAMS)
        with pytest.raises(ValueError):
            I_tilde_moment(1, 0, PARAMS)
