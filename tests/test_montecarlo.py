import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from platoonnet import geometry, montecarlo

from platoonnet.cli import tv_distance
from platoonnet.connectivity import V2VParams, pmf_degree_certified
from platoonnet.coverage import RadioParams, coverage_prob
from platoonnet.geometry import NetworkParams, replication_rng
from platoonnet.load import pmf_typical_npts_certified, \
    pmf_typical_pts_certified
from platoonnet.montecarlo import (SimConfig, _association, _cells,
                                   _check_window, _coverage_profile,
                                   _draw_geometry, _draw_rsus, _flat,
                                   _half_width, _interference_reach,
                                   _occupancy, _rate_profile, _uniform,
                                   sim_connectivity, sim_coverage, sim_load,
                                   sim_md_coverage, sim_md_rate, sim_rate)
from platoonnet.numerics import NumericsError

import oracles

PARAMS = NetworkParams.from_per_km(2.0, 1.0, 5.0, 100.0)
RADIO = RadioParams(1.0, 5e-5, 3.5)
FAST = SimConfig(replications=2000, master_seed=7)


def _mean_se(pmf, n):
    """Mean of an n-replication empirical PMF and its standard error
    (the ddof=1 sample deviation over sqrt(n))."""
    return pmf.mean(), math.sqrt(pmf.variance() / (n - 1))


class TestConfig:
    def test_default_window(self):
        assert _half_width(PARAMS) == pytest.approx(5000.0)

    def test_replications_validated(self):
        with pytest.raises(ValueError):
            SimConfig(replications=0)
        # one replication has no standard error
        with pytest.raises(ValueError):
            SimConfig(replications=1)
        for bad in (2.5, 2.0, math.nan, math.inf, True, "10"):
            with pytest.raises(ValueError, match="replications"):
                SimConfig(replications=bad)
        assert SimConfig(replications=np.int64(2)).replications == 2

    def test_master_seed_validated(self):
        # each of these would run another seed's streams or none
        for bad in (-1, 1.5, 1.0, math.nan, True, None):
            with pytest.raises(ValueError, match="master_seed"):
                SimConfig(master_seed=bad)
        assert SimConfig(master_seed=0).master_seed == 0

    def test_settable_fields(self):
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "replications", "master_seed"]


class TestReproducibility:
    def test_load_bitwise(self):
        p1 = sim_load("typical", "PTS", PARAMS, FAST)
        p2 = sim_load("typical", "PTS", PARAMS, FAST)
        assert np.array_equal(p1.masses, p2.masses)

    def test_seed_changes_stream(self):
        p1 = sim_load("typical", "PTS", PARAMS, FAST)
        p2 = sim_load("typical", "PTS", PARAMS,
                      SimConfig(replications=2000, master_seed=8))
        assert not np.array_equal(p1.masses, p2.masses)

    def test_coverage_bitwise(self):
        cfg = SimConfig(replications=200, master_seed=7)
        a = sim_coverage(0.9, "PTS", PARAMS, RADIO, cfg)
        b = sim_coverage(0.9, "PTS", PARAMS, RADIO, cfg)
        assert a.value == b.value and a.std_error == b.std_error


class TestLoadEstimates:
    def test_pmf_normalizes(self):
        pmf = sim_load("typical", "NPTS", PARAMS, FAST)
        assert pmf.masses.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind,traffic", [
        ("typical", "PTS"), ("typical", "NPTS"),
        ("tagged", "PTS"), ("tagged", "NPTS")])
    def test_mean_near_analytic(self, kind, traffic):
        pmf = sim_load(kind, traffic, PARAMS,
                       SimConfig(replications=4000, master_seed=3))
        mean, se = _mean_se(pmf, 4000)
        base = PARAMS.m * PARAMS.lambda_p / PARAMS.lambda_r
        if kind == "tagged":
            # tagged mean exceeds the size-biased background 1.5 * base
            assert mean > 1.5 * base - 4 * se
        else:
            assert abs(mean - base) < 4 * se

    def test_typical_pts_distribution(self):
        pmf = sim_load("typical", "PTS", PARAMS,
                       SimConfig(replications=20000, master_seed=11))
        assert tv_distance(pmf_typical_pts_certified(PARAMS), pmf) < 0.02

    def test_typical_npts_distribution(self):
        pmf = sim_load("typical", "NPTS", PARAMS,
                       SimConfig(replications=20000, master_seed=11))
        assert tv_distance(pmf_typical_npts_certified(PARAMS), pmf) < 0.02

    def test_window_insensitive(self, monkeypatch):
        # doubling the window must not move the estimate beyond noise
        cfg = SimConfig(replications=4000, master_seed=7)
        mean1, se1 = _mean_se(sim_load("typical", "PTS", PARAMS, cfg), 4000)
        monkeypatch.setattr(montecarlo, "WINDOW_CELLS",
                            2 * montecarlo.WINDOW_CELLS)
        mean2, se2 = _mean_se(sim_load("typical", "PTS", PARAMS, cfg), 4000)
        assert abs(mean1 - mean2) < se1 + se2

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sim_load("other", "PTS", PARAMS, FAST)


@pytest.mark.parametrize("run", [
    lambda cfg: sim_load("typical", "pts", PARAMS, cfg),
    lambda cfg: sim_load("tagged", "pts", PARAMS, cfg),
    lambda cfg: sim_connectivity("pts", V2VParams(200.0, PARAMS), cfg),
    lambda cfg: sim_coverage(0.9, "pts", PARAMS, RADIO, cfg),
], ids=["load_typical", "load_tagged", "connectivity", "coverage"])
def test_unknown_traffic(run):
    with pytest.raises(ValueError, match="unknown traffic"):
        run(SimConfig(replications=2))


def _no_stream(*args):
    raise AssertionError("a replication stream was drawn")


@pytest.mark.parametrize("run", [
    *[lambda cfg, alpha=alpha: sim_coverage(
        0.9, "PTS", PARAMS, RadioParams(1.0, 5e-5, alpha), cfg)
      for alpha in (1.01, 1.5, 2.0)],
    lambda cfg: sim_load("typical", "NPTS", NetworkParams.from_per_km(
        1e-9, 1.0, 5.0, 100.0), cfg),
    lambda cfg: sim_connectivity("PTS", V2VParams(1e9, PARAMS), cfg),
], ids=["coverage_alpha_1.01", "coverage_alpha_1.5", "coverage_alpha_2",
        "load_lambda_r_1e-9_per_km", "connectivity_r_b_1e9_m"])
def test_window_past_the_cap_raises_before_any_draw(run, monkeypatch):
    # the interference reach overflows a float at alpha = 1.01 and is
    # 2.6e16 m and 8e7 m at 1.5 and 2; at 1e-9 RSUs per km the load
    # window is 1e13 m wide
    monkeypatch.setattr(montecarlo, "replication_rng", _no_stream)
    with pytest.raises(NumericsError, match="Monte Carlo window"):
        run(SimConfig(replications=2))


class TestConnectivity:
    def test_distribution_near_analytic(self):
        v2v = V2VParams(200.0, PARAMS)
        for traffic in ("PTS", "NPTS"):
            pmf = sim_connectivity(traffic, v2v,
                                   SimConfig(replications=20000,
                                             master_seed=13))
            assert tv_distance(pmf_degree_certified(traffic, v2v),
                               pmf) < 0.02


def _fading_average(rsus, vus, tau, radio, rng, draws=100_000):
    """Success probability of one geometry averaged over `draws` Rayleigh
    fading draws (in chunks of 10,000), and its standard error."""
    serving, occupancy = oracles.mc_association(rsus, vus)
    active = occupancy > 0
    active[serving] = False
    gain = radio.p_t * np.abs(rsus[active]) ** -radio.alpha
    scale = tau * abs(rsus[serving]) ** radio.alpha / radio.p_t
    total = total_sq = 0.0
    for _ in range(draws // 10_000):
        h = rng.exponential(size=(10_000, gain.size))
        v = np.exp(-scale * (h @ gain + radio.sigma2))
        total += v.sum()
        total_sq += (v * v).sum()
    mean = total / draws
    return mean, math.sqrt(max(total_sq / draws - mean**2, 0.0)
                           / (draws - 1))


@pytest.mark.parametrize("traffic", ["PTS", "NPTS"])
def test_exact_fading_average_matches_fading_draws(traffic):
    # low noise, so that interference sets the success probability
    radio = RadioParams(1.0, 1e-9, 4.0)
    cfg = SimConfig(replications=8, master_seed=7)
    tau = 0.9
    exact = _coverage_profile(lambda load: tau, traffic, PARAMS, radio, cfg)
    half = max(_half_width(PARAMS), _interference_reach(PARAMS, radio))
    interference_bites = False
    for rep, value in enumerate(exact):
        rsus, vus = oracles.mc_tagged_geometry(
            traffic, PARAMS, half, replication_rng(cfg.master_seed, rep))
        mean, se = _fading_average(rsus, vus, tau, radio,
                                   np.random.default_rng([99, rep]))
        # the slack covers rounding where no RSU interferes (se = 0)
        assert abs(value - mean) <= 5 * se + 1e-12 * value
        noise_only = math.exp(-tau * abs(rsus).min() ** radio.alpha
                              / radio.snr)
        interference_bites |= value < noise_only - 0.05
    assert interference_bites


class TestCoverage:
    CFG = SimConfig(replications=1500, master_seed=17)

    def test_near_analytic(self):
        for traffic in ("PTS", "NPTS"):
            est = sim_coverage(0.9, traffic, PARAMS, RADIO, self.CFG)
            cp = coverage_prob(0.9, traffic, PARAMS, RADIO)
            assert abs(est.value - cp) < max(0.01, 4 * est.std_error)

    def test_noise_dominated_limit(self):
        noisy = RadioParams(1.0, 1e6, 3.5)
        est = sim_coverage(0.9, "NPTS", PARAMS, noisy, self.CFG)
        assert est.value < 5e-3

    def test_md_bernoulli(self):
        est = sim_md_coverage(0.9, 0.8, "PTS", PARAMS, RADIO, self.CFG)
        assert 0.0 <= est.value <= 1.0

    def test_rate_below_coverage_at_mapped_threshold(self):
        radio4 = RadioParams(1.0, 5e-5, 4.0)
        est = sim_rate(9e6, "NPTS", PARAMS, radio4, self.CFG)
        thr0 = 2.0 ** (9e6 / radio4.bandwidth) - 1.0
        assert est.value < coverage_prob(thr0, "NPTS", PARAMS, radio4)

    def test_rate_maps_load_to_threshold_exactly(self):
        # with VUs this sparse no replication sees another VU: the tagged
        # load is 0, no RSU interferes, and each geometry's threshold is
        # the one-user rate threshold
        lonely = NetworkParams.from_per_km(2.0, 1.0, 5.0, 100.0, lam=1e-9)
        radio4 = RadioParams(1.0, 5e-5, 4.0)
        cfg = SimConfig(replications=200, master_seed=17)
        rate = sim_rate(9e6, "NPTS", lonely, radio4, cfg)
        cov = sim_coverage(radio4.rate_threshold(9e6, 1), "NPTS", lonely,
                           radio4, cfg)
        assert (rate.value, rate.std_error) == (cov.value, cov.std_error)


@pytest.mark.parametrize("lo, hi", [(-5000.0, 5000.0), (-5150.0, 5150.0),
                                    (-100.0, 100.0), (-0.3, 1234.567)])
def test_uniform_from_standard_variates(lo, hi):
    # the engine draws rng.random() and places the points per chunk; the
    # stream and every position are those of rng.uniform(lo, hi)
    a = np.random.default_rng(5).uniform(lo, hi, 200_000)
    b = _uniform(lo, hi, np.random.default_rng(5).random(200_000))
    assert np.array_equal(a, b)
    rng, ref = np.random.default_rng(6), np.random.default_rng(6)
    assert _uniform(lo, hi, rng.random()) == ref.uniform(lo, hi)


class TestServingLoad:
    """`_association` counts each replication's load between its serving
    cell's two midpoints; the search of `_occupancy` and the
    per-replication oracle place every VU in its cell."""
    HALF = 500.0

    def check(self, chunk):
        """A chunk given as (sorted RSUs, VUs) per replication."""
        rsus, rsu_rep = _flat([np.array(r, float) for r, _ in chunk])
        vus, vu_rep = _flat([np.array(v, float) for _, v in chunk])
        serving, load = _association(rsus, rsu_rep, vus, vu_rep)
        assert np.array_equal(
            load, _occupancy(rsus, rsu_rep, vus, vu_rep)[serving])
        first = np.searchsorted(rsu_rep, np.arange(len(chunk)))
        loads = []
        for r, (rs, vs) in enumerate(chunk):
            s, occupancy = oracles.mc_association(np.array(rs, float),
                                                  np.array(vs, float))
            assert serving[r] - first[r] == s
            loads.append(occupancy[s])
        assert load.tolist() == loads
        return loads

    def test_vu_on_a_midpoint_goes_left(self):
        # midpoints -50 and 50: the VU at -50 is the left RSU's, the one
        # at 50 the serving RSU's
        assert self.check([([-100.0, 0.0, 100.0],
                            [-50.0, -49.0, 0.0, 50.0, 50.5])]) == [3]

    def test_vus_at_the_window_ends(self):
        h = self.HALF
        assert self.check([
            ([-400.0, -30.0], [-h, -214.0, h]),   # serving last: hi inf
            ([10.0, 300.0], [-h, 155.0, h]),      # serving first: lo -inf
            ([-300.0, 20.0, 400.0], [-h, h]),     # both outside
        ]) == [2, 2, 0]

    def test_one_rsu_serves_every_vu(self):
        h = self.HALF
        assert self.check([([-200.0, 100.0], [0.0]),
                           ([70.0], [-h, 0.0, 70.0, h]),
                           ([5.0, 9.0], [7.0])]) == [1, 4, 1]

    def test_equal_rsu_variates_repeat_a_midpoint(self):
        # the first of equal distances serves; an empty cell sits between
        # the repeated midpoints
        assert self.check([
            ([-40.0, 10.0, 10.0, 60.0], [-15.0, 0.0, 10.0, 10.5, 35.0]),
            ([-10.0, 10.0], [-1.0, 0.0, 1.0]),
            ([10.0, 10.0], [10.0, 10.5]),
            ([-7.0, -7.0, -7.0], [-7.0, 3.0]),
        ]) == [2, 2, 1, 1]

    def test_replication_without_vus(self):
        assert self.check([([-50.0, 30.0], []), ([20.0], [1.0]),
                           ([1.0, 2.0], []), ([3.0], [])]) == [0, 1, 0, 0]

    def test_chunk_without_vus(self):
        assert self.check([([-50.0, 30.0], []), ([20.0], [])]) == [0, 0]

    def test_typical_chunk_with_the_origin_rsu(self):
        # the origin RSU is inserted after its replication's negative
        # RSUs; its cell is bounded by the midpoints with its neighbours
        assert self.check([([-300.0, 0.0, 250.0], [-150.0, -149.0, 125.0,
                                                   126.0]),
                           ([0.0], [-400.0]),
                           ([0.0, 0.0, 8.0], [0.0, 4.0])]) == [2, 1, 1]

    @pytest.mark.parametrize("traffic", ["PTS", "NPTS"])
    @pytest.mark.parametrize("palm", [False, True])
    def test_drawn_chunk(self, traffic, palm):
        # a chunk of the engine's own draws, the origin RSU inserted
        # without Palm conditioning
        half = _half_width(PARAMS)
        draws = [_draw_geometry(traffic, PARAMS, half,
                                replication_rng(5, rep), palm)
                 for rep in range(montecarlo.CHUNK)]
        rsus, rep, vus, vu_rep, serving, load = _cells(traffic, PARAMS,
                                                       half, draws, palm)
        assert np.array_equal(load, _occupancy(rsus, rep, vus,
                                               vu_rep)[serving])
        assert (0.0 in rsus) != palm and load.sum() > montecarlo.CHUNK


class TestAgainstPerReplicationOracle:
    """The chunked engine against the same draws reduced one replication
    at a time (`oracles.mc_*`).  Counts are exact; a coverage profile
    sums its interferers in another order and evaluates `**` and `exp`
    on arrays, which may move its last bit."""
    SEEDS = (7, 2024)

    def counts(self):
        # one short chunk; one chunk less one, exactly one, one more; two
        # full chunks and a short one
        chunk = montecarlo.CHUNK
        return (2, chunk - 1, chunk, chunk + 1, 2 * chunk + 3)

    def check_pmfs(self, run, oracle):
        """run(cfg) against the empirical PMF of each prefix of the
        oracle's per-replication counts oracle(cfg)."""
        counts = self.counts()
        for seed in self.SEEDS:
            reference = oracle(SimConfig(counts[-1], seed))
            for n in counts:
                assert np.array_equal(run(SimConfig(n, seed)).masses,
                                      np.bincount(reference[:n]) / n)

    def check_profiles(self, tau, tau_rate, x, traffic, params, radio):
        """Coverage and rate profiles per replication and their MD
        indicators at every count, the four estimates at the largest."""
        cov_thr = lambda load: tau  # noqa: E731
        rate_thr = lambda load: radio.rate_threshold(  # noqa: E731
            tau_rate, load + 1)
        counts = self.counts()
        for seed in self.SEEDS:
            big = SimConfig(counts[-1], seed)
            cov = oracles.mc_coverage_profile(cov_thr, traffic, params,
                                              radio, big)
            rate = oracles.mc_coverage_profile(rate_thr, traffic, params,
                                               radio, big)
            for n in counts:
                cfg = SimConfig(n, seed)
                for got, ref in (
                        (_coverage_profile(cov_thr, traffic, params, radio,
                                           cfg), cov[:n]),
                        (_rate_profile(tau_rate, traffic, params, radio,
                                       cfg), rate[:n])):
                    assert got.shape == ref.shape
                    assert np.all(np.abs(got - ref) <= 1e-12 * ref)
                    assert np.array_equal(got > x, ref > x)
            args = (traffic, params, radio, big)
            for est, ref in ((sim_coverage(tau, *args), cov),
                             (sim_rate(tau_rate, *args), rate)):
                assert est.value == pytest.approx(ref.mean(), rel=1e-12)
            for est, ref in ((sim_md_coverage(tau, x, *args), cov),
                             (sim_md_rate(tau_rate, x, *args), rate)):
                assert est.value == (ref > x).mean()

    @pytest.mark.parametrize("a", [100.0, 150.0])
    @pytest.mark.parametrize("traffic", ["PTS", "NPTS"])
    @pytest.mark.parametrize("kind", ["typical", "tagged"])
    def test_load(self, kind, traffic, a):
        params = NetworkParams.from_per_km(2.0, 1.0, 5.0, a)
        self.check_pmfs(lambda cfg: sim_load(kind, traffic, params, cfg),
                        lambda cfg: oracles.mc_loads(kind, traffic, params,
                                                     cfg))

    @pytest.mark.parametrize("a", [100.0, 150.0])
    @pytest.mark.parametrize("traffic", ["PTS", "NPTS"])
    def test_connectivity(self, traffic, a):
        v2v = V2VParams(200.0, NetworkParams.from_per_km(2.0, 1.0, 5.0, a))
        self.check_pmfs(lambda cfg: sim_connectivity(traffic, v2v, cfg),
                        lambda cfg: oracles.mc_degrees(traffic, v2v, cfg))

    @pytest.mark.parametrize("alpha", [3.5, 4.0])
    @pytest.mark.parametrize("a", [100.0, 150.0])
    @pytest.mark.parametrize("traffic", ["PTS", "NPTS"])
    def test_coverage_and_rate(self, traffic, a, alpha):
        self.check_profiles(0.9, 9e6, 0.8, traffic,
                            NetworkParams.from_per_km(2.0, 1.0, 5.0, a),
                            RadioParams(1.0, 5e-5, alpha))


def test_std_error_is_the_sample_deviation_over_root_n():
    cfg = SimConfig(50, 3)
    x = _coverage_profile(lambda load: 0.9, "PTS", PARAMS, RADIO, cfg)
    est = sim_coverage(0.9, "PTS", PARAMS, RADIO, cfg)
    assert (est.value, est.std_error, est.n) == (
        x.mean(), x.std(ddof=1) / math.sqrt(50), 50)


@pytest.mark.parametrize("traffic, rsus, points", [
    # lambda_p m (2 half + 2a) VUs for PTS, lam 2 half for N-PTS, and
    # lambda_r 2 half RSUs: all exact in binary at these values
    ("PTS", True, 0.5 * 4 * 2016 + 500), ("PTS", False, 0.5 * 4 * 2016),
    ("NPTS", True, 3 * 2000 + 500), ("NPTS", False, 3 * 2000)])
def test_window_cap_counts_the_expected_points(traffic, rsus, points,
                                               monkeypatch):
    params = NetworkParams(0.25, 0.5, 4.0, 8.0, lam=3.0)
    monkeypatch.setattr(montecarlo, "MAX_WINDOW_POINTS", points)
    _check_window(traffic, params, 1000.0, rsus=rsus)
    monkeypatch.setattr(montecarlo, "MAX_WINDOW_POINTS",
                        math.nextafter(points, 0.0))
    with pytest.raises(NumericsError, match="expected RSUs and VUs"):
        _check_window(traffic, params, 1000.0, rsus=rsus)


class _EmptyFirst:
    """A generator stub whose first Poisson draw is 0 and the next 3."""

    def __init__(self):
        self.counts = [0, 3]

    def poisson(self, lam):
        return self.counts.pop(0)

    def random(self, n):
        return np.linspace(0.9, 0.1, n)


def test_rsus_redrawn_until_one_serves():
    rng = _EmptyFirst()
    u = _draw_rsus(PARAMS, 100.0, rng, at_least_one=True)
    assert u.tolist() == [0.1, 0.5, 0.9] and rng.counts == []
    rng = _EmptyFirst()
    assert _draw_rsus(PARAMS, 100.0, rng, at_least_one=False).size == 0
    assert rng.counts == [3]


def test_stream_block_is_no_knob(monkeypatch):
    # the replications hashed together set no output bit
    def outputs():
        return [run(SimConfig(n, 11)).tobytes() for n in (2, 255, 513)
                for run in (
                    lambda cfg: sim_load("tagged", "PTS", PARAMS,
                                         cfg).masses,
                    lambda cfg: _coverage_profile(lambda load: 0.9, "PTS",
                                                  PARAMS, RADIO, cfg))]
    runs = []
    for block in (1, 7, 256):
        monkeypatch.setattr(geometry, "_BLOCK", block)
        runs.append(outputs())
    assert runs[0] == runs[1] == runs[2]


def test_memory_flat_in_replications():
    # a chunk at a time: a whole-run batch would hold every replication's
    # points at once
    def peak(n):
        tracemalloc.start()
        try:
            sim_coverage(0.9, "PTS", PARAMS, RADIO, SimConfig(n, 7))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(20_000) <= 1.5 * peak(montecarlo.CHUNK)
