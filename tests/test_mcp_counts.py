import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonnet.geometry import NetworkParams, cell_value
from platoonnet.mcp_counts import (DiscretePMF, I_moment, NumericsError,
                                   beta_bar, choose_truncation, g_of,
                                   kappa_coefficients, pmf_S)

from oracles import (MOMENT_BOX, cell_average_quad, g_deriv_at_zero,
                     kappa_direct, pgf_S)

PARAMS = NetworkParams(0.002, 0.001, 5.0, 100.0)


def kappa(r, k, params):
    """kappa(r, k), read off its table in the cell length L = 2r."""
    return cell_value(2 * np.asarray(r, dtype=float),
                      *kappa_coefficients(k, params), params.a)


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
        assert pmf.ccdf(0) == pytest.approx(0.8)
        assert pmf.ccdf(-1) == 1.0

    def test_ccdf_below_the_support_is_one(self):
        # whatever the masses and the tail add to
        pmf = DiscretePMF(np.array([0.5, 0.25]), 0.2499999)
        assert pmf.masses.sum() + pmf.tail_mass != 1.0
        assert pmf.ccdf(-1) == 1.0

    def test_ccdf_sums_the_tail(self):
        # a tail below roundoff, which 1 - sum would read as 0
        pmf = DiscretePMF(np.array([0.75, 0.25]), 3e-20)
        assert pmf.ccdf(0) == 0.25 + 3e-20
        assert pmf.ccdf(1) == pmf.ccdf(5) == 3e-20

    def test_negative_mass_rejected(self):
        with pytest.raises(NumericsError):
            DiscretePMF(np.array([1.1, -0.1]), 0.0)

    def test_normalization_enforced(self):
        with pytest.raises(NumericsError):
            DiscretePMF(np.array([0.5, 0.3]), 0.0)

    def test_tail_mass_counts(self):
        pmf = DiscretePMF(np.array([0.6, 0.3]), 0.1)
        assert pmf.tail_mass == 0.1

    @pytest.mark.parametrize("masses, tail", [
        ([np.nan, 0.5], 0.5), ([0.5, np.inf], 0.0), ([0.6, 0.4], np.nan)])
    def test_non_finite_rejected(self, masses, tail):
        with pytest.raises(NumericsError):
            DiscretePMF(np.array(masses), tail)

    def test_of_clips_and_takes_tail_from_unclipped_sum(self):
        pmf = DiscretePMF.of([0.7, 0.3, -1e-13])
        assert np.array_equal(pmf.masses, [0.7, 0.3, 0.0])
        # 1 - (0.7 + 0.3 - 1e-13): the roundoff negative still counts
        assert pmf.tail_mass == 1 - np.sum([0.7, 0.3, -1e-13])
        assert pmf.tail_mass > 0.0
        assert DiscretePMF.of([0.6, 0.3]).tail_mass == pytest.approx(0.1)
        assert DiscretePMF.of([0.6, 0.4 + 1e-9]).tail_mass == 0.0


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

    def test_array_calls_match_scalar_calls(self):
        # real and complex s on both sides of the Taylor band, the roots
        # of unity the FFT engine samples, and r on both sides of a
        s = np.concatenate([[0.0, 1.0 - 2e-6, 1.0 - 5e-7, 1.0, 1.0 + 5e-7,
                             1.7, 1.0 + 1e-7j],
                            np.exp(-2j * np.pi * np.arange(9) / 16)])
        r = np.array([[30.0], [100.0], [400.0]])
        got = g_of(s, r, PARAMS)
        assert got.shape == (3, s.size)
        np.testing.assert_allclose(
            got, [[g_of(x, y, PARAMS) for x in s] for y in r[:, 0]],
            rtol=1e-15, atol=1e-15)

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

    @pytest.mark.parametrize("p", MOMENT_BOX)
    def test_kappa_coefficients_match_closed_form(self, p):
        # both sides of r = a, and r = a itself
        r = np.append(np.linspace(0.0, 4 * p.a, 81), p.a * (1 + 1e-12))
        for k in (1, 2, 3):
            np.testing.assert_allclose(
                kappa(r, k, p), [kappa_direct(x, k, p) for x in r],
                rtol=1e-14, atol=0)
        with pytest.raises(ValueError):
            kappa_coefficients(0, p)

    def test_beta_bar(self):
        assert beta_bar(50.0, 100.0) == 0.5
        assert beta_bar(300.0, 100.0) == 1.0


class TestPmfS:
    @pytest.mark.parametrize("r", [40.0, 100.0, 250.0])
    def test_matches_partition_sum(self, r):
        ref = pmf_by_partition_sum(8, r, PARAMS)
        got = pmf_S(8, r, PARAMS).masses
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-15)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError, match="K must be >= 0"):
            pmf_S(-1, 100.0, PARAMS)

    def test_pgf_normalizes(self):
        for r in (40.0, 250.0):
            assert pgf_S(1.0, r, PARAMS) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", [40.0, 100.0, 250.0])
    def test_mean_is_first_kappa(self, r):
        pmf = pmf_S(255, r, PARAMS)
        assert pmf.tail_mass < 1e-10
        assert pmf.mean() == pytest.approx(kappa(r, 1, PARAMS), rel=1e-6)

    @pytest.mark.parametrize("r", [40.0, 250.0])
    def test_factorial_moments(self, r):
        pmf = pmf_S(255, r, PARAMS)
        assert pmf.tail_mass < 1e-10
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
        built = {}

        def pmf_at(K):
            built[K] = pmf_S(K, 250.0, PARAMS)
            return built[K]
        K, pmf = choose_truncation(pmf_at)
        # the PMF it certified is the one built at K, the first K whose
        # masses reach 1 - TAIL_TOL
        assert pmf is built[K]
        assert list(built) == [8 * 2**i for i in range(len(built))]
        assert pmf.masses.sum() >= 1.0 - 1e-6
        assert all(built[k].masses.sum() < 1.0 - 1e-6 for k in built
                   if k < K)

    def test_cap_raises(self):
        with pytest.raises(NumericsError):
            choose_truncation(
                lambda K: DiscretePMF(np.zeros(K + 1), tail_mass=1.0))


class TestMixedMoments:
    """The closed-form cell-averaged kappa moments against quadrature."""

    CELLS = [pytest.param(NetworkParams(0.002, 0.001, m, 100.0), id=str(m))
             for m in (5.0, 15.0, 35.0)] \
        + [pytest.param(p, id=f"box{i}") for i, p in enumerate(MOMENT_BOX)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("p", CELLS)
    def test_typical(self, n, k, p):
        ref = cell_average_quad(lambda ell: kappa_direct(ell / 2, k, p)**n,
                                p, tagged=False)
        assert I_moment(n, k, p) == pytest.approx(ref, rel=1e-10, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("p", CELLS)
    def test_tagged(self, n, k, p):
        ref = cell_average_quad(lambda ell: kappa_direct(ell / 2, k, p)**n,
                                p, tagged=True)
        assert I_moment(n, k, p, tagged=True) == pytest.approx(
            ref, rel=1e-10, abs=0)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            I_moment(0, 1, PARAMS)
        with pytest.raises(ValueError):
            I_moment(1, 0, PARAMS, tagged=True)
