import numpy as np
import pytest
from scipy import integrate, stats

from platoonnet import geometry
from platoonnet.geometry import (NetworkParams, cell_quantile, pdf_cell,
                                 replication_rng)
from platoonnet.montecarlo import _draw_rsus, _draw_vus, _uniform, _vus

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
        dict(lambda_r=float("nan"), lambda_p=1e-3, m=5, a=100),
        dict(lambda_r=2e-3, lambda_p=1e-3, m=5, a=float("nan")),
        dict(lambda_r=2e-3, lambda_p=1e-3, m=5, a=100, lam=float("nan")),
        dict(lambda_r=2e-3, lambda_p=1e-3, m=float("inf"), a=100),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NetworkParams(**kwargs)


def _placed(traffic, p, half, rng, palm):
    """VU positions of one replication."""
    return _vus(traffic, p, half, [_draw_vus(traffic, p, half, rng, palm)])[0]


class TestSamplers:
    """The point-process samplers of the Monte Carlo engine."""

    def test_ppp_reproducible(self):
        p = NetworkParams(0.01, 0.001, 5.0, 100.0)
        for traffic, palm in (("NPTS", False), ("PTS", False), ("PTS", True)):
            a, b = (_placed(traffic, p, 1000.0, replication_rng(42, 0), palm)
                    for _ in range(2))
            assert np.array_equal(a, b)
        a, b = (_draw_rsus(p, 1000.0, replication_rng(42, 0), False)
                for _ in range(2))
        assert np.array_equal(a, b)

    def test_ppp_mean_count(self):
        p = NetworkParams(0.01, 0.001, 5.0, 100.0, lam=0.01)
        rsus = [_uniform(-5000.0, 5000.0, _draw_rsus(
            p, 5000.0, replication_rng(1, i), False)) for i in range(400)]
        assert all(np.all(np.diff(r) >= 0) for r in rsus)
        assert np.mean([r.size for r in rsus]) == pytest.approx(100.0,
                                                                rel=0.05)
        vus = [_placed("NPTS", p, 5000.0, replication_rng(1, i), False).size
               for i in range(400)]
        assert np.mean(vus) == pytest.approx(100.0, rel=0.05)

    def test_mcp_mean_count(self):
        p = NetworkParams(LR, 0.001, 5.0, 100.0)
        counts = [_placed("PTS", p, 5000.0, replication_rng(2, i), False).size
                  for i in range(400)]
        # effective density m * lambda_p = 5/km over 10 km
        assert np.mean(counts) == pytest.approx(50.0, rel=0.06)

    def test_palm_typical_point_at_origin(self):
        # the typical VU sits at the origin, so its own platoon (the
        # points Palm sampling adds) lies within 2a of it
        p = NetworkParams(LR, 0.001, 20.0, 100.0)
        for i in range(50):
            bg = _placed("PTS", p, 2000.0, replication_rng(7, i), palm=False)
            pts = _placed("PTS", p, 2000.0, replication_rng(7, i), palm=True)
            assert np.array_equal(pts[: bg.size], bg)
            assert np.all(np.abs(pts[bg.size:]) <= 2 * p.a)

    def test_palm_has_extra_cluster(self):
        p = NetworkParams(LR, 0.001, 20.0, 100.0)

        def count(i, palm):
            return _placed("PTS", p, 500.0, replication_rng(3, i), palm).size
        extra = [count(i, True) - count(i, False) for i in range(300)]
        # the same seed draws the same background, so the difference is
        # the sibling count exactly: Poisson(m), the typical VU excluded
        assert min(extra) >= 0
        assert np.mean(extra) == pytest.approx(p.m, rel=0.1)


class TestReplicationStreams:
    """replication_rng(seed, rep) is default_rng([seed, rep]) bit for bit."""
    # 2**96 + 5 has 4 words, so with the rep the entropy outgrows the pool
    SEEDS = (0, 1, 2024, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5)

    @staticmethod
    def assert_same(rng, ref):
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.random(16), ref.random(16))
        assert np.array_equal(rng.poisson(3.0, 8), ref.poisson(3.0, 8))

    def reps(self):
        block = geometry._BLOCK
        # 2**32 - 1 is the last one-word rep, 2**32 takes default_rng
        return (0, block - 1, block, block + 1, 2**32 - 1, 2**32)

    def test_equal_to_default_rng(self):
        # seeds alternate and reps run backwards, so the one cached
        # block is replaced on every call
        for rep in reversed(self.reps()):
            for seed in self.SEEDS + self.SEEDS[::-1]:
                self.assert_same(replication_rng(seed, rep),
                                 np.random.default_rng([seed, rep]))

    def test_every_rep_of_a_block(self):
        reps = range(3 * geometry._BLOCK + 5)
        for rep in list(reps) + list(reversed(reps)):
            self.assert_same(replication_rng(7, rep),
                             np.random.default_rng([7, rep]))

    def test_numpy_integers_and_refusals(self):
        self.assert_same(replication_rng(np.int64(9), np.uint32(3)),
                         np.random.default_rng([9, 3]))
        for seed, rep in ((-1, 0), (1, -1)):
            with pytest.raises(ValueError):
                replication_rng(seed, rep)
        # the seed sequence holds PCG64's 4 uint64 words and nothing else
        with pytest.raises(ValueError):
            replication_rng(9, 3).bit_generator.seed_seq.generate_state(8)

    def test_one_word_seeds_take_the_hashed_path(self):
        # a seed below 2**32 hashes its block; a larger one, which
        # SeedSequence splits into words, takes default_rng itself
        geometry._block_words.cache_clear()
        replication_rng(2**32 - 1, 5)
        assert geometry._block_words.cache_info().misses == 1
        replication_rng(2**32, 5)
        replication_rng(2**40 + 5, 5)
        assert geometry._block_words.cache_info().misses == 1

    def test_streams_share_no_state(self):
        a, b = replication_rng(42, 0), replication_rng(42, 0)
        assert a.bit_generator is not b.bit_generator
        a.random(100)
        self.assert_same(b, np.random.default_rng([42, 0]))


class TestCellLengthLaws:
    def test_pdfs_normalize(self):
        for tagged in (False, True):
            val, _ = integrate.quad(lambda l: pdf_cell(l, LR, tagged),
                                    0, np.inf)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_means(self):
        m_typ, _ = integrate.quad(lambda l: l * pdf_cell(l, LR), 0, np.inf)
        m_tag, _ = integrate.quad(lambda l: l * pdf_cell(l, LR, True),
                                  0, np.inf)
        assert m_typ == pytest.approx(1.0 / LR, rel=1e-9)
        assert m_tag == pytest.approx(1.5 / LR, rel=1e-9)

    def test_quantile_inverts_cdf(self):
        q = cell_quantile(0.97, LR)
        val, _ = integrate.quad(lambda l: pdf_cell(l, LR), 0, q)
        assert val == pytest.approx(0.97, abs=1e-9)
        q0 = cell_quantile(0.5, LR, tagged=True)
        val, _ = integrate.quad(lambda l: pdf_cell(l, LR, True), 0, q0)
        assert val == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("tagged", [False, True])
    def test_quantile_is_gamma_ppf_bit_for_bit(self, tagged):
        shape = 3 if tagged else 2
        for lambda_r in np.geomspace(1e-5, 1.0, 101):
            for q in (1 - 1e-8, 0.97, 0.5, 1e-3):
                ref = stats.gamma.ppf(q, shape, scale=1.0 / (2 * lambda_r))
                assert cell_quantile(q, lambda_r, tagged) == ref


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
