import math

import numpy as np
import pytest
from scipy import integrate

from platoonnet.geometry import (NetworkParams, cell_quantile, mgf_L, mgf_L0,
                                 pdf_serving_distance, pdf_tagged_cell,
                                 pdf_typical_cell, replication_rng)
from platoonnet.montecarlo import _mcp_points, _rsus, _vus

LR = 0.002  # 2 RSU/km in per-meter units


class TestNetworkParams:
    def test_effective_density_default(self):
        p = NetworkParams(0.002, 0.001, 5.0, 100.0)
        assert p.lam == pytest.approx(0.005)

    def test_explicit_density_kept(self):
        p = NetworkParams(0.002, 0.001, 5.0, 100.0, lam=0.003)
        assert p.lam == 0.003

    def test_from_per_km(self):
        p = NetworkParams.from_per_km(2.0, 1.0, 5.0, 100.0)
        assert p.lambda_r == pytest.approx(0.002)
        assert p.lambda_p == pytest.approx(0.001)
        assert p.a == 100.0
        assert p.lam == pytest.approx(0.005)

    @pytest.mark.parametrize("kwargs", [
        dict(lambda_r=0.0, lambda_p=1e-3, m=5, a=100),
        dict(lambda_r=2e-3, lambda_p=-1e-3, m=5, a=100),
        dict(lambda_r=2e-3, lambda_p=1e-3, m=0, a=100),
        dict(lambda_r=2e-3, lambda_p=1e-3, m=5, a=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NetworkParams(**kwargs)


class TestSamplers:
    """The point-process samplers of the Monte Carlo engine."""

    def test_ppp_reproducible(self):
        p = NetworkParams(0.01, 0.001, 5.0, 100.0)
        for traffic, palm in (("NPTS", False), ("PTS", False), ("PTS", True)):
            a, b = (_vus(traffic, p, 1000.0, replication_rng(42, 0), palm)
                    for _ in range(2))
            assert np.array_equal(a, b)
        assert np.array_equal(_rsus(p, 1000.0, replication_rng(42, 0)),
                              _rsus(p, 1000.0, replication_rng(42, 0)))

    def test_ppp_mean_count(self):
        p = NetworkParams(0.01, 0.001, 5.0, 100.0, lam=0.01)
        rsus = [_rsus(p, 5000.0, replication_rng(1, i)) for i in range(400)]
        assert all(np.all(np.diff(r) >= 0) for r in rsus)
        assert np.mean([r.size for r in rsus]) == pytest.approx(100.0,
                                                                rel=0.05)
        vus = [_vus("NPTS", p, 5000.0, replication_rng(1, i), palm=False).size
               for i in range(400)]
        assert np.mean(vus) == pytest.approx(100.0, rel=0.05)

    def test_mcp_mean_count(self):
        p = NetworkParams(LR, 0.001, 5.0, 100.0)
        counts = [_mcp_points(p, 0, 10000, replication_rng(2, i)).size
                  for i in range(400)]
        # effective density m * lambda_p = 5/km over 10 km
        assert np.mean(counts) == pytest.approx(50.0, rel=0.06)

    def test_palm_typical_point_at_origin(self):
        # the typical VU sits at the origin, so its own platoon (the
        # points Palm sampling adds) lies within 2a of it
        p = NetworkParams(LR, 0.001, 20.0, 100.0)
        for i in range(50):
            bg = _vus("PTS", p, 2000.0, replication_rng(7, i), palm=False)
            pts = _vus("PTS", p, 2000.0, replication_rng(7, i), palm=True)
            assert np.array_equal(pts[: bg.size], bg)
            assert np.all(np.abs(pts[bg.size:]) <= 2 * p.a)

    def test_palm_has_extra_cluster(self):
        p = NetworkParams(LR, 0.001, 20.0, 100.0)

        def count(i, palm):
            return _vus("PTS", p, 500.0, replication_rng(3, i), palm).size
        extra = [count(i, True) - count(i, False) for i in range(300)]
        # the same seed draws the same background, so the difference is
        # the sibling count exactly: Poisson(m), the typical VU excluded
        assert min(extra) >= 0
        assert np.mean(extra) == pytest.approx(p.m, rel=0.1)


class TestCellLengthLaws:
    def test_pdfs_normalize(self):
        for pdf in (pdf_typical_cell, pdf_tagged_cell):
            val, _ = integrate.quad(lambda l: pdf(l, LR), 0, np.inf)
            assert val == pytest.approx(1.0, abs=1e-10)
        val, _ = integrate.quad(lambda r: pdf_serving_distance(r, LR),
                                0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_means(self):
        m_typ, _ = integrate.quad(lambda l: l * pdf_typical_cell(l, LR),
                                  0, np.inf)
        m_tag, _ = integrate.quad(lambda l: l * pdf_tagged_cell(l, LR),
                                  0, np.inf)
        assert m_typ == pytest.approx(1.0 / LR, rel=1e-9)
        assert m_tag == pytest.approx(1.5 / LR, rel=1e-9)

    @pytest.mark.parametrize("t", [-0.01, 0.0, 0.001, 0.0035])
    def test_mgfs_match_quadrature(self, t):
        # assembled with a single exponential so the integrand never
        # overflows before the density damps it
        ref_L, _ = integrate.quad(
            lambda l: 4 * LR**2 * l * math.exp((t - 2 * LR) * l), 0, np.inf)
        ref_L0, _ = integrate.quad(
            lambda l: 4 * LR**3 * l**2 * math.exp((t - 2 * LR) * l),
            0, np.inf)
        assert mgf_L(t, LR) == pytest.approx(ref_L, rel=1e-9)
        assert mgf_L0(t, LR) == pytest.approx(ref_L0, rel=1e-9)

    def test_mgf_domain(self):
        with pytest.raises(ValueError):
            mgf_L(2 * LR, LR)
        with pytest.raises(ValueError):
            mgf_L0(0.005, LR)

    def test_quantile_inverts_cdf(self):
        q = cell_quantile(0.97, LR)
        val, _ = integrate.quad(lambda l: pdf_typical_cell(l, LR), 0, q)
        assert val == pytest.approx(0.97, abs=1e-9)
        q0 = cell_quantile(0.5, LR, tagged=True)
        val, _ = integrate.quad(lambda l: pdf_tagged_cell(l, LR), 0, q0)
        assert val == pytest.approx(0.5, abs=1e-9)


def test_tagged_cell_size_biased_empirically():
    """Voronoi cells containing a random probe average ~1.5x typical."""
    rng = np.random.default_rng(2024)
    ratios = []
    for _ in range(40):
        pos = np.sort(rng.uniform(0, 1_250_000, rng.poisson(LR * 1_250_000)))
        cells = 0.5 * (pos[2:] - pos[:-2])  # interior Voronoi cells
        mids = 0.5 * (pos[1:-1] + pos[2:])  # boundaries between them
        probes = rng.uniform(pos[1], pos[-2], 200)
        idx = np.clip(np.searchsorted(mids, probes), 0, cells.size - 1)
        ratios.append(cells[idx].mean() / cells.mean())
    assert 1.45 < np.mean(ratios) < 1.55
