import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special
from scipy.stats import poisson

from platoonnet import numerics
from platoonnet.geometry import cell_average, pdf_cell
from platoonnet.numerics import NumericsError, gil_pelaez_invert, \
    poisson_pmf


def _monomial(k, a, m, tagged, above):
    """cell_average of L^k alone, below or above L = 2a, at the cell rate
    m = 2 lambda_r, and the same average by adaptive quadrature."""
    coeffs = np.eye(k + 3)[k + 2 if above else k]
    below, above_part = ((), coeffs) if above else (coeffs, ())
    lo, hi = (2 * a, np.inf) if above else (0.0, 2 * a)
    ref, _ = integrate.quad(
        lambda x: x**k * pdf_cell(x, m / 2, tagged), lo, hi,
        epsabs=0.0, epsrel=1e-12)
    return cell_average(below, above_part, m / 2, a, tagged), ref


class TestFG:
    """The F (below 2a) and G (above 2a) integrals of `cell_average`, one
    monomial at a time, for the typical and the tagged cell."""

    @pytest.mark.parametrize("m", [0.001, 0.004, 0.02])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("a", [50.0, 100.0, 300.0])
    def test_F_matches_quadrature(self, m, k, a):
        for tagged in (False, True):
            value, ref = _monomial(k, a, m, tagged, above=False)
            assert value == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("m", [0.001, 0.004, 0.02])
    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("a", [50.0, 100.0, 300.0])
    def test_G_matches_quadrature(self, m, k, a):
        for tagged in (False, True):
            value, ref = _monomial(k, a, m, tagged, above=True)
            assert value == pytest.approx(ref, rel=1e-8)

    def test_completeness(self):
        # F + G is the k-th moment Gamma(k + d + 1) / (d! m^k) of the
        # Gamma(d + 1, 1/m) cell length
        m, k, a = 0.004, 2, 150.0
        for d, tagged in ((1, False), (2, True)):
            p = np.eye(k + 3)
            total = cell_average(p[k], p[k + 2], m / 2, a, tagged)
            assert total == pytest.approx(
                special.gamma(k + d + 1) / special.gamma(d + 1) / m**k,
                rel=1e-12)

    def test_typical_inverse_square_raises(self):
        # the L^-2 term of a typical average would need Gamma(0); in the
        # tagged cell it is 4 lr^3 exp(-4 lr a) / (2 lr)
        lr, a = 0.002, 100.0
        with pytest.raises(ValueError, match="Gamma"):
            cell_average((), (1.0,), lr, a)
        assert cell_average((), (1.0,), lr, a, tagged=True) == \
            pytest.approx(2 * lr**2 * math.exp(-4 * lr * a), rel=1e-12)


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

    @pytest.mark.parametrize("moment_fn, x", [
        (lambda t: 1.0 / (1.0 + 1j * t), 0.2),
        (lambda t: 1.0 / (1.0 + 1j * t), 0.9),
        (lambda t: 1.0 / (1.0 + 2j * t), 0.25)],
        ids=["uniform-0.2", "uniform-0.9", "power-0.25"])
    def test_unpredicted_points_keep_the_result(self, moment_fn, x,
                                                monkeypatch):
        # with wrong Kronrod abscissae the node map predicts no point but
        # the centres; each other point costs a call of its own, and
        # QAGS sees the same values
        sizes = []

        def spy(ts):
            sizes.append(len(ts))
            return moment_fn(ts)

        val = gil_pelaez_invert(spy, x)
        assert set(sizes) == {21}
        sizes.clear()
        monkeypatch.setattr(numerics, "_XGK", numerics._XGK / 2)
        assert gil_pelaez_invert(spy, x) == val
        assert sizes.count(21) * 20 == sizes.count(1) > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            gil_pelaez_invert(lambda t: 1.0 / (1.0 + 1j * t), 1.5)

    def test_panels_run_out(self, monkeypatch):
        # one panel, [0, 1]: a loud one (P = 1, so the integrand is
        # sin(-t ln x)/t) must raise, and a quiet one (P = x, whose
        # integrand is 0) must return
        monkeypatch.setattr(numerics, "GP_MAX_PANELS", 1)
        with pytest.raises(NumericsError, match="failed to decay"):
            gil_pelaez_invert(lambda t: np.ones(len(t), complex), 0.5)
        assert gil_pelaez_invert(lambda t: 0.5 ** (1j * t), 0.5) == \
            pytest.approx(0.5, abs=1e-12)


def test_import_leaves_scipy_integrate_out():
    # quad and gil_pelaez_invert import scipy.integrate when they run, so
    # a process that imports platoonnet does not load it
    src = str(Path(numerics.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, platoonnet\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('scipy.integrate')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
