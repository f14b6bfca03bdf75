import math

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import poisson

from platoonnet.numerics import (NumericsError, func_F, func_G, gamma_lower,
                                 gamma_upper, gil_pelaez_invert, poisson_pmf)


class TestIncompleteGamma:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 4.0])
    def test_upper_matches_quadrature(self, a, x):
        ref, _ = integrate.quad(lambda t: t ** (a - 1) * math.exp(-t),
                                x, np.inf, epsabs=1e-15, epsrel=1e-12)
        assert gamma_upper(a, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 4.0])
    def test_lower_matches_quadrature(self, a, x):
        ref, _ = integrate.quad(lambda t: t ** (a - 1) * math.exp(-t), 0, x,
                                epsabs=1e-15, epsrel=1e-12)
        assert gamma_lower(a, x) == pytest.approx(ref, rel=1e-10)

    def test_not_regularized(self):
        assert gamma_upper(3.5, 0.0) == pytest.approx(special.gamma(3.5))

    def test_complementarity(self):
        a, x = 4.2, 1.7
        assert gamma_upper(a, x) + gamma_lower(a, x) == pytest.approx(
            special.gamma(a), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_upper(-1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_upper(1.0, -1.0)
        with pytest.raises(ValueError):
            gamma_lower(0.0, 1.0)


class TestFG:
    @pytest.mark.parametrize("m", [0.001, 0.004, 0.02])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("a", [50.0, 100.0, 300.0])
    def test_F_matches_quadrature(self, m, k, a):
        ref, _ = integrate.quad(lambda x: x**k * math.exp(-m * x), 0, 2 * a)
        assert func_F(m, k, a) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("m", [0.001, 0.004, 0.02])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("a", [50.0, 100.0, 300.0])
    def test_G_matches_quadrature(self, m, k, a):
        ref, _ = integrate.quad(lambda x: x**k * math.exp(-m * x),
                                2 * a, np.inf)
        assert func_G(m, k, a) == pytest.approx(ref, rel=1e-8)

    def test_completeness(self):
        m, k, a = 0.004, 2, 150.0
        total = func_F(m, k, a) + func_G(m, k, a)
        assert total == pytest.approx(special.gamma(k + 1) / m ** (k + 1),
                                      rel=1e-12)


@pytest.mark.parametrize("mu", [1e-3, 0.7, 5.0, 35.0, 400.0])
def test_poisson_pmf_matches_scipy(mu):
    n = np.arange(600)
    assert np.allclose(poisson_pmf(n, mu), poisson.pmf(n, mu),
                       rtol=1e-11, atol=1e-300)


class TestGilPelaez:
    def test_uniform_variable(self):
        # U uniform on (0, 1]: M_it = 1/(1 + it), ccdf(x) = 1 - x
        for x in (0.2, 0.5, 0.9):
            val = gil_pelaez_invert(lambda t: 1.0 / (1.0 + 1j * t), x)
            assert val == pytest.approx(1.0 - x, abs=2e-3)

    def test_power_law_variable(self):
        # P = U^2: M_it = 1/(1 + 2it), ccdf(x) = 1 - sqrt(x)
        val = gil_pelaez_invert(lambda t: 1.0 / (1.0 + 2j * t), 0.25)
        assert val == pytest.approx(0.5, abs=2e-3)

    def test_point_mass(self):
        # degenerate P = p: |M_it| = 1 never decays; convergence is slow,
        # so only the coarse location of the step is checked
        val_lo = gil_pelaez_invert(lambda t: 0.7 ** (1j * t), 0.4)
        val_hi = gil_pelaez_invert(lambda t: 0.7 ** (1j * t), 0.9)
        assert val_lo > 0.9
        assert val_hi < 0.1

    def test_domain(self):
        with pytest.raises(ValueError):
            gil_pelaez_invert(lambda t: 1.0 / (1.0 + 1j * t), 1.5)
