import numpy as np
import pytest
from scipy import integrate, special

from platoonnet.connectivity import (V2VParams, _own_cluster_mixture,
                                     pmf_degree_certified, pmf_degree_npts,
                                     pmf_degree_pts)
from platoonnet.geometry import NetworkParams

from oracles import pgf_degree_npts, pgf_degree_pts

PARAMS = NetworkParams.from_per_km(2.0, 1.0, 5.0, 100.0)
V2V = V2VParams(200.0, PARAMS)


class TestNpts:
    def test_poisson_mean_and_variance(self):
        pmf = pmf_degree_npts(255, V2V)
        assert pmf.tail_mass < 1e-10
        mu = PARAMS.lam * V2V.r_b
        assert pmf.mean() == pytest.approx(mu, rel=1e-8)
        assert pmf.variance() == pytest.approx(mu, rel=1e-7)

    def test_pgf_matches_pmf(self):
        pmf = pmf_degree_npts(60, V2V)
        for s in (0.0, 0.5, 0.95):
            direct = float(np.dot(pmf.masses, s ** pmf.support))
            assert direct == pytest.approx(pgf_degree_npts(s, V2V),
                                           abs=1e-12)


class TestPts:
    @pytest.mark.parametrize("r_b", [50.0, 200.0, 600.0])
    def test_pgf_matches_pmf(self, r_b):
        v2v = V2VParams(r_b, PARAMS)
        pmf = pmf_degree_pts(120, v2v)
        for s in (0.0, 0.4, 0.9):
            direct = float(np.dot(pmf.masses, s ** pmf.support))
            assert direct == pytest.approx(pgf_degree_pts(s, v2v),
                                           abs=1e-9)

    def test_pgf_normalizes(self):
        for r_b in (50.0, 200.0, 600.0):
            v2v = V2VParams(r_b, PARAMS)
            assert pgf_degree_pts(1.0, v2v) == pytest.approx(1.0, abs=1e-10)

    def test_mean_includes_own_platoon(self):
        # background contributes lam * R_b; the typical VU's own platoon
        # adds the expected in-range siblings, so the PTS mean is larger
        pmf = pmf_degree_pts(255, V2V)
        assert pmf.tail_mass < 1e-9
        assert pmf.mean() > PARAMS.lam * V2V.r_b

    def test_heavier_tail_than_npts(self):
        pp = pmf_degree_certified("PTS", V2V)
        pn = pmf_degree_certified("NPTS", V2V)
        assert pp.variance() > pn.variance()
        k_hi = int(2 * pn.mean()) + 4
        assert pp.ccdf(k_hi) > pn.ccdf(k_hi)

    def test_full_containment_regime(self):
        # R_b/2 >= 2a: every platoon sibling is always in range, so the
        # own-platoon factor degenerates to a single Poisson(m) atom
        v2v = V2VParams(4 * PARAMS.a + 100.0, PARAMS)
        pmf = pmf_degree_pts(255, v2v)
        assert pmf.tail_mass < 1e-9
        expect = PARAMS.lam * v2v.r_b + PARAMS.m
        assert pmf.mean() == pytest.approx(expect, rel=1e-6)

    # r = R_b/2 below a, at a, between a and 2a, at 2a and beyond 2a
    @pytest.mark.parametrize("r_b", [30.0, 120.0, 200.0, 300.0, 370.0,
                                     400.0, 700.0])
    def test_own_platoon_mean_is_mean_overlap(self, r_b):
        # the own-platoon Poisson mean is lam_d times the overlap of the
        # range ball [-r, r] and the cluster ball [x - a, x + a], with
        # the parent offset x ~ U[0, a]
        a, r = PARAMS.a, r_b / 2
        lam_d = PARAMS.m / (2 * a)

        def overlap(x):
            return max(0.0, min(r, x + a) - max(-r, x - a))

        kinks = [x for x in (r - a, a - r) if 0 < x < a]
        ref, _ = integrate.quad(overlap, 0.0, a, points=kinks or None,
                                epsabs=0.0, epsrel=1e-13)
        w0, mu0, mu1 = _own_cluster_mixture(V2VParams(r_b, PARAMS))
        mean = w0 * mu0 + (1 - w0) * (mu0 + mu1) / 2
        assert mean == pytest.approx(lam_d / a * ref, rel=1e-12)


class TestInterface:
    def test_exceedance_conventions(self):
        pmf = pmf_degree_certified("NPTS", V2V)
        assert pmf.ccdf(-1) == 1.0
        assert pmf.ccdf(0) == pytest.approx(1.0 - float(pmf.masses[0]))
        ks = np.arange(-1, 15)
        vals = [pmf.ccdf(int(k)) for k in ks]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_certified_keeps_the_exact_poisson_tail(self):
        # the PMF that pmf_degree_npts built at the certified K, not one
        # rebuilt from its masses: its tail holds digits that 1 - sum loses
        pmf = pmf_degree_certified("NPTS", V2V)
        assert pmf.masses.size == 17
        assert pmf.tail_mass == special.pdtrc(16, 1.0)
        assert pmf.ccdf(14) == pmf_degree_npts(16, V2V).ccdf(14)

    def test_range_validation(self):
        for r_b in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                V2VParams(r_b, PARAMS)

    def test_unknown_traffic(self):
        with pytest.raises(ValueError, match="unknown traffic"):
            pmf_degree_certified("pts", V2V)
