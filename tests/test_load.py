import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from platoonnet.geometry import NetworkParams, cell_value
from platoonnet.load import (_BLOCK, _RHO, _VM_BAND, _VM_SERIES, N_MAX,
                             _kink_split, _mixture, _pgf_given,
                             _pts_masses, _tail_pgf,
                             _vm_mixture, moments_tagged_npts,
                             moments_tagged_pts, moments_typical_npts,
                             moments_typical_pts, moments_vm,
                             operational_metrics, pgf_vm, pmf_tagged_npts,
                             pmf_tagged_npts_certified, pmf_tagged_pts,
                             pmf_tagged_pts_certified,
                             pmf_typical_npts, pmf_typical_npts_certified,
                             pmf_typical_pts, pmf_typical_pts_certified,
                             vm_coefficients)
from platoonnet.mcp_counts import (_S1_EPS, TAIL_TOL, DiscretePMF,
                                   beta_bar, certified, g_of, pmf_S)
from platoonnet.numerics import NumericsError, poisson_pmf

from oracles import (MOMENT_BOX, cell_average_quad, kappa_cross_moment_quad,
                     kappa_direct, moments_vm_conditional, tail_pgf_quad)

PARAMS = NetworkParams.from_per_km(2.0, 1.0, 5.0, 100.0)
SWEEP = [NetworkParams.from_per_km(2.0, 1.0, u, 100.0)
         for u in (5.0, 15.0, 35.0)]
# a truncation past every SWEEP load's bulk: at u = 35 the tagged loads
# keep more than 1e-10 (N-PTS) and 1e-7 (PTS) beyond K = 255
K_DEEP = 1023


# ------------------------------------------------ recurrence oracle

def pmf_vm(K, t, params):
    """Conditional PMF of the tagged-platoon count, masses on 0..K."""
    w, mu0, c = _vm_mixture(t, params)
    n = np.arange(K + 1)
    return DiscretePMF.of(w * poisson_pmf(n, mu0)
                          + c * (n + 1) * special.gammainc(n + 2, mu0))


def vm_moment(order, t):
    """order-th factorial moment of V_m(t/2), read off its table."""
    return cell_value(t, *vm_coefficients(order, PARAMS), PARAMS.a)


def recurrence_pmf(K, params, tagged):
    """The PTS load PMF mixed node by node from the count recurrence
    pmf_S, convolved with the tagged-platoon PMF in the tagged cell."""
    _, nodes, wts = _mixture(params, tagged)
    masses = np.zeros(K + 1)
    for t, w in zip(nodes, wts):
        ps = pmf_S(K, t / 2.0, params).masses
        if tagged:
            ps = np.convolve(ps, pmf_vm(K, t, params).masses)[: K + 1]
        masses += w * ps
    return DiscretePMF.of(masses)


def pgf_tagged_pts(s, params):
    """PGF of the tagged-RSU PTS load (typical VU not counted)."""
    _, nodes, wts = _mixture(params, tagged=True)
    vals = np.exp(g_of(s, nodes / 2.0, params)) * pgf_vm(s, nodes, params)
    return float(np.dot(wts, vals))


def roots_of_unity(N):
    """The upper N-th roots of unity e^{-2 pi i k/N}, k = 0..N/2."""
    return np.exp(-2j * np.pi * np.arange(N // 2 + 1) / N)


def kink_split(params, tagged):
    """(kept, t1, T): the count of mixture nodes below t1, the first
    panel edge at or past t = 2a (T if 2a is past T), and T."""
    edges = _mixture(params, tagged)[0]
    below = _kink_split(edges, params)
    return below * 10, edges[below], edges[-1]


def log_form_masses(params, tagged, N):
    """Masses on 0..N-1 from the mixture sum of exp(g + log pgf_vm) at
    the roots of unity over the nodes below t1, in the node blocks of
    load._pts_masses, plus the same closed-form share of [t1, T]: the
    tagged PGF as a sum of logs, before the FFT stage multiplied the two
    PGFs."""
    kept, t1, T = kink_split(params, tagged)
    nodes, wts = (x[:kept] for x in _mixture(params, tagged)[1:])
    s = roots_of_unity(N)
    pgf = 0.0
    for i in range(0, nodes.size, 32):
        t = nodes[i:i + 32, None]
        log_pgf = g_of(s, t / 2.0, params)
        if tagged:
            log_pgf = log_pgf + np.log(pgf_vm(s, t, params))
        pgf = pgf + wts[i:i + 32] @ np.exp(log_pgf)
    if t1 < T:
        pgf = pgf + _tail_pgf(s, t1, T, params, tagged)
    return np.fft.irfft(pgf, N)


def full_mixture_masses(params, tagged, N):
    """Masses on 0..N-1 from the per-node kernel summed over every block
    of the mixture nodes, the share past t1 too."""
    _, nodes, wts = _mixture(params, tagged)
    s = roots_of_unity(N)
    pgf = sum(wts[i:i + _BLOCK] @ _pgf_given(s, nodes[i:i + _BLOCK, None],
                                             params, tagged)
              for i in range(0, nodes.size, _BLOCK))
    return np.fft.irfft(pgf, N)


@pytest.mark.parametrize("u", [1.2, 5.0, 15.0, 25.0, 35.0, 50.0, 60.0])
@pytest.mark.parametrize("a", [100.0, 150.0])
@pytest.mark.parametrize("tagged", [False, True])
def test_fft_masses_match_log_form(u, a, tagged):
    params = NetworkParams.from_per_km(2.0, 1.0, u, a)
    got = _pts_masses(params, tagged)
    ref = log_form_masses(params, tagged, got.size)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-16)


# ---------------------------- the closed-form share of cell lengths >= t1

TAIL_S = np.concatenate([roots_of_unity(1024)[[0, 1, 7, 64, 256, 511, 512]],
                         [1e-3, 0.3, 0.9, 1 - 1e-7]])


def assert_tail_matches_quadrature(params, tagged):
    # on the unit circle (k = 0 is s = 1, k = 512 is s = -1) and at real
    # s in (0, 1], one inside the g_of Taylor band
    _, t1, T = kink_split(params, tagged)
    got = _tail_pgf(TAIL_S, t1, T, params, tagged)
    ref = np.array([tail_pgf_quad(s, t1, T, params, tagged)
                    for s in TAIL_S])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


@pytest.mark.parametrize("u", [1.2, 5.0, 35.0, 100.0])
@pytest.mark.parametrize("a", [50.0, 100.0, 150.0, 300.0])
@pytest.mark.parametrize("tagged", [False, True])
def test_tail_matches_quadrature(u, a, tagged):
    params = NetworkParams.from_per_km(2.0, 1.0, u, a)
    _, t1, T = kink_split(params, tagged)
    assert t1 - T / 60 < 2 * a <= t1 < T  # a panel straddles 2a
    assert_tail_matches_quadrature(params, tagged)


@pytest.mark.parametrize("tagged", [False, True])
@pytest.mark.parametrize("panel", [1, 3, 10])
def test_tail_from_2a_on_a_panel_edge(tagged, panel):
    # the edges depend on lambda_r alone: half an edge is exact in binary
    edges = _mixture(PARAMS, tagged)[0]
    params = NetworkParams.from_per_km(2.0, 1.0, 35.0, edges[panel] / 2)
    kept, t1, _ = kink_split(params, tagged)
    assert (kept, t1) == (10 * panel, 2 * params.a)
    assert_tail_matches_quadrature(params, tagged)
    masses = _pts_masses(params, tagged)
    np.testing.assert_allclose(
        masses, full_mixture_masses(params, tagged, masses.size), rtol=0,
        atol=4.5e-16)


@pytest.mark.parametrize("tagged", [False, True])
@pytest.mark.parametrize("lambda_r, a", [(10.0, 700.0), (50.0, 300.0)])
def test_no_tail_when_2a_is_past_T(tagged, lambda_r, a):
    # every node keeps the per-node kernel, and the masses their bits
    params = NetworkParams.from_per_km(lambda_r, 1.0, 5.0, a)
    kept, t1, T = kink_split(params, tagged)
    assert (kept, t1) == (600, T) and 2 * a >= T
    masses = _pts_masses(params, tagged)
    assert masses.tobytes() == full_mixture_masses(
        params, tagged, masses.size).tobytes()


@pytest.mark.parametrize("u, a", [(5.0, 100.0), (35.0, 150.0),
                                  (60.0, 50.0)])
@pytest.mark.parametrize("tagged", [False, True])
def test_fft_masses_match_the_full_mixture(u, a, tagged):
    # the closed form replaces the Gauss-Legendre panels past t1 at
    # roundoff
    params = NetworkParams.from_per_km(2.0, 1.0, u, a)
    masses = _pts_masses(params, tagged)
    np.testing.assert_allclose(
        masses, full_mixture_masses(params, tagged, masses.size), rtol=0,
        atol=4.5e-16)


# ------------------------------------ FFT kernel: bits and work count

def g_of_both_branches(s, r, params):
    """mcp_counts.g_of with both sides of its Taylor branch on every
    point."""
    lp, m, a = params.lambda_p, params.m, params.a
    z = m * beta_bar(r, a)
    d = s - 1.0
    near = abs(d) < _S1_EPS
    far = d + near
    e = np.exp(z * d)
    frac = np.where(near,
                    (2 * a / m) * (z + z**2 * d / 2 + z**3 * d**2 / 6),
                    (e - 1.0) / ((m / (2 * a)) * far))[()]
    return 2 * lp * (abs(r - a) * e - (r + a) + frac)


def pgf_vm_both_branches(s, t, params):
    """load.pgf_vm with the series and the closed form on every point."""
    w, mu0, c = _vm_mixture(t, params)
    z = s - 1.0
    x = mu0 * z
    near = abs(x) < _VM_BAND
    far = np.where(near, 1.0, z)
    e = np.exp(mu0 * z)
    lin = np.where(near,
                   c * (mu0**2 * np.polynomial.polynomial.polyval(
                       x, _VM_SERIES)),
                   c * (e * (mu0 * far - 1.0) + 1.0) / far**2)[()]
    return w * e + lin


def kernel_blocks(params):
    """32-node blocks of cell lengths: one straddling t = 2a, from cells
    so short that mu0 (s - 1) stays in the pgf_vm series band, and one
    past 2a, where every row has the same z and mu0."""
    a2 = 2 * params.a
    short = np.concatenate([np.geomspace(0.05, a2, 15, endpoint=False),
                            [a2], np.linspace(1.01 * a2, 6 * a2, 16)])
    return short[:, None], np.linspace(1.01 * a2, 6 * a2, 32)[:, None]


@pytest.mark.parametrize("u, a", [(5.0, 100.0), (35.0, 150.0),
                                  (50.0, 150.0)])
def test_kernel_bits_match_both_branch_forms(u, a):
    # 32 x 513 complex blocks (k = 0 is s = 1) are past the 256 KiB at
    # which numpy computes a * (b op c) in place as (b op c) * a, which
    # moves the last bit of a complex product
    params = NetworkParams.from_per_km(2.0, 1.0, u, a)
    roots = np.exp(-2j * np.pi * np.arange(513) / 1024)
    for t in kernel_blocks(params):
        for s in (roots, _RHO):
            for kernel, oracle, x in ((g_of, g_of_both_branches, t / 2.0),
                                      (pgf_vm, pgf_vm_both_branches, t)):
                got = kernel(s, x, params)
                assert got.shape == (32, s.size)
                assert got.tobytes() == oracle(s, x, params).tobytes()


@pytest.mark.parametrize("tagged", [False, True])
def test_fft_size_past_the_cap_raises(tagged):
    # the masses asked for count against the cap as the tail bound does
    with pytest.raises(NumericsError, match="FFT"):
        _pts_masses(PARAMS, tagged, n_min=100_001)
    pmf = pmf_tagged_pts if tagged else pmf_typical_pts
    with pytest.raises(NumericsError, match="FFT"):
        pmf(N_MAX, PARAMS)


def test_fft_stage_exponentiates_only_the_kept_nodes(monkeypatch):
    params = NetworkParams.from_per_km(2.0, 1.0, 35.0, 150.0)
    exp, sizes = np.exp, []

    def counting_exp(x, *args, **kwargs):
        if np.iscomplexobj(x):
            sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(np, "exp", counting_exp)
        N = _pts_masses(params, True).size
    kept = kink_split(params, True)[0]
    assert kept <= 40
    # exp(g), e^{z(s-1)} (g_of) and e^{mu0 (s-1)} (pgf_vm) at every node
    # below t1, the roots of unity themselves, and the share past t1: the
    # z = m and mu0 = m rows and the two ends of [t1, T]
    assert sum(sizes) <= (N // 2 + 1) * (3 * kept + 5)


@functools.cache
def certified_recurrence_pmf(u, a, tagged):
    params = NetworkParams.from_per_km(2.0, 1.0, u, a)
    return certified(lambda K: recurrence_pmf(K, params, tagged))


ORACLE_CASES = [(u, a, tagged) for u in (5.0, 35.0) for a in (100.0, 150.0)
                for tagged in (False, True)]


def certified_fft_pmf(params, tagged):
    return (pmf_tagged_pts_certified if tagged
            else pmf_typical_pts_certified)(params)


class TestPtsAgainstRecurrence:
    @pytest.mark.parametrize("u, a, tagged", ORACLE_CASES)
    def test_masses_match(self, u, a, tagged):
        ref = certified_recurrence_pmf(u, a, tagged)
        got = certified_fft_pmf(NetworkParams.from_per_km(2.0, 1.0, u, a),
                                tagged)
        assert got.masses.size == ref.masses.size  # the same certified K
        np.testing.assert_allclose(got.masses, ref.masses, rtol=0,
                                   atol=1e-14)
        assert got.tail_mass == pytest.approx(ref.tail_mass, abs=1e-14)

    @pytest.mark.parametrize("u, a, tagged", ORACLE_CASES)
    def test_operational_metrics_match(self, u, a, tagged):
        kind = "tagged" if tagged else "typical"
        ref = operational_metrics(certified_recurrence_pmf(u, a, tagged),
                                  kind)
        got = operational_metrics(certified_fft_pmf(
            NetworkParams.from_per_km(2.0, 1.0, u, a), tagged), kind)
        assert set(got) == set(ref)
        for key, value in ref.items():
            assert got[key] == pytest.approx(value, rel=0, abs=1e-12), key

    @given(u=st.floats(1.0, 60.0), a=st.floats(50.0, 300.0),
           lambda_r=st.floats(0.5, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_certified_or_raises(self, u, a, lambda_r):
        params = NetworkParams.from_per_km(lambda_r, 1.0, u, a)
        for tagged, moments in ((False, moments_typical_pts),
                                (True, moments_tagged_pts)):
            try:
                pmf = certified_fft_pmf(params, tagged)
            except NumericsError:
                continue
            assert pmf.masses.min() >= 0.0
            assert pmf.tail_mass < TAIL_TOL
            # only the mean: the closed-form tagged variance is approximate
            mean = moments(params).mean
            assert abs(pmf.mean() - mean) <= 1e-4 * mean

    def test_truncation_past_the_certificate(self):
        pmf = pmf_tagged_pts(2000, PARAMS)
        assert pmf.masses.size == 2001
        assert pmf.masses.sum() + pmf.tail_mass == pytest.approx(1.0,
                                                                 abs=1e-12)
        ref = pmf_tagged_pts_certified(PARAMS)
        np.testing.assert_allclose(pmf.masses[:ref.masses.size],
                                   ref.masses, rtol=0, atol=1e-14)


class TestTypicalNpts:
    def test_pmf_is_known_closed_form(self):
        # lam = 5/km, lr = 2/km: p_k = 4*4*(k+1)*5^k / 9^(k+2)
        pmf = pmf_typical_npts(10, PARAMS)
        assert pmf.masses[0] == pytest.approx(16.0 / 81.0, rel=1e-12)
        g = PARAMS.lam / PARAMS.lambda_r
        k = np.arange(11)
        ref = 4 * (k + 1) * g**k / (g + 2) ** (k + 2)
        assert np.allclose(pmf.masses, ref, rtol=1e-12)

    @pytest.mark.parametrize("params", SWEEP)
    def test_moments_match_pmf(self, params):
        pmf = pmf_typical_npts(K_DEEP, params)
        assert pmf.tail_mass < 1e-10
        mo = moments_typical_npts(params)
        assert mo.mean == pytest.approx(pmf.mean(), rel=1e-7)
        assert mo.variance == pytest.approx(pmf.variance(), rel=1e-6)
        assert mo.third_moment == pytest.approx(pmf.moment(3), rel=1e-5)


@pytest.mark.parametrize("u", [5.0, 35.0])
@pytest.mark.parametrize("law", [pmf_typical_npts, pmf_tagged_npts])
def test_npts_tail_is_the_mass_past_K(law, u):
    # the exact negative binomial tail, not 1 - sum: at u = 5 the mass
    # past K = 120 (7.1e-30 typical, 2.0e-28 tagged) is below the
    # roundoff of the sum
    params = NetworkParams.from_per_km(2.0, 1.0, u, 100.0)
    deep = law(4 * K_DEEP, params)
    assert deep.tail_mass < 1e-150
    for K in (8, 40, 120):
        assert law(K, params).tail_mass == pytest.approx(
            deep.masses[K + 1:].sum(), rel=1e-12, abs=0)


class TestTypicalPts:
    @pytest.mark.parametrize("params", SWEEP)
    def test_mean_is_density_ratio(self, params):
        mo = moments_typical_pts(params)
        assert mo.mean == pytest.approx(
            params.m * params.lambda_p / params.lambda_r, rel=1e-9)

    @pytest.mark.parametrize("params", SWEEP)
    def test_moments_match_pmf(self, params):
        pmf = pmf_typical_pts(K_DEEP, params)
        assert pmf.tail_mass < 1e-7
        mo = moments_typical_pts(params)
        assert mo.mean == pytest.approx(pmf.mean(), rel=1e-5)
        assert mo.variance == pytest.approx(pmf.variance(), rel=1e-4)
        assert mo.third_moment == pytest.approx(pmf.moment(3), rel=1e-4)

    @pytest.mark.parametrize("params", SWEEP + MOMENT_BOX)
    def test_third_moment_matches_quadrature(self, params):
        # every term of the third moment is positive, the cross term
        # E[kappa_1 kappa_2] among them
        def I(n, k):
            return cell_average_quad(
                lambda ell: kappa_direct(ell / 2, k, params) ** n, params,
                tagged=False)

        ref = (I(3, 1) + I(1, 3) + 3 * kappa_cross_moment_quad(params)
               + 3 * I(1, 2) + 3 * I(2, 1)
               + params.m * params.lambda_p / params.lambda_r)
        assert moments_typical_pts(params).third_moment == pytest.approx(
            ref, rel=1e-10, abs=0)

    def test_more_dispersed_than_npts(self):
        for params in SWEEP:
            vp = moments_typical_pts(params).variance
            vn = moments_typical_npts(params).variance
            assert vp > vn


class TestVm:
    @pytest.mark.parametrize("t", [30.0, 150.0, 199.9, 200.1, 600.0])
    def test_pgf_normalizes(self, t):
        assert pgf_vm(1.0, t, PARAMS) == pytest.approx(1.0, abs=1e-12)

    def test_continuity_at_cluster_width(self):
        t0 = 2 * PARAMS.a
        eps = t0 * 1e-10
        for s in (0.0, 0.3, 0.9, 1.0):
            lo = pgf_vm(s, t0 - eps, PARAMS)
            hi = pgf_vm(s, t0 + eps, PARAMS)
            assert abs(lo - hi) < 1e-9

    def test_series_branch_continuity(self):
        for t in (50.0, 200.0, 500.0):
            lo = pgf_vm(1.0 - 1e-3 - 1e-10, t, PARAMS)
            hi = pgf_vm(1.0 - 1e-3 + 1e-10, t, PARAMS)
            assert abs(lo - hi) < 1e-9

    @pytest.mark.parametrize("t", [40.0, 150.0, 420.0])
    def test_pmf_matches_pgf(self, t):
        pmf = pmf_vm(60, t, PARAMS)
        for s in (0.0, 0.4, 0.8):
            direct = float(np.dot(pmf.masses, s ** pmf.support))
            assert direct == pytest.approx(pgf_vm(s, t, PARAMS), abs=1e-9)

    @pytest.mark.parametrize("t", [40.0, 150.0, 420.0])
    def test_factorial_moments_match_pmf(self, t):
        pmf = pmf_vm(80, t, PARAMS)
        k = pmf.support.astype(float)
        for order in (1, 2, 3):
            fall = np.ones_like(k)
            for i in range(order):
                fall = fall * (k - i)
            got = float(np.dot(fall, pmf.masses))
            assert got == pytest.approx(
                vm_moment(order, t), rel=1e-9)

    @pytest.mark.parametrize("t", [0.0, np.float64(0.0), -5.0])
    def test_nonpositive_cell_length_rejected(self, t):
        for call in (lambda: pmf_vm(5, t, PARAMS),
                     lambda: pgf_vm(0.5, t, PARAMS),
                     lambda: pgf_vm(0.5, np.array([100.0, t]), PARAMS)):
            with pytest.raises(ValueError):
                call()

    def test_array_calls_match_scalar_calls(self):
        # straddles t = 2a, where the mixture switches regime; array and
        # scalar exp/pow may round differently in the last bit
        a2 = 2 * PARAMS.a
        t = np.concatenate([np.linspace(1.0, 3 * a2, 301),
                            a2 * (1 + np.array([-1e-9, 0.0, 1e-9]))])
        for s in (0.0, 0.5, 1.0 - 1e-4, 1.0):
            np.testing.assert_allclose(
                pgf_vm(s, t, PARAMS),
                [pgf_vm(s, x, PARAMS) for x in t], rtol=1e-15, atol=0)
        # s along a second axis: real and complex, in and out of the
        # series band
        s = np.array([0.0, 1.0 - 5e-4, 1.0, 1.0 + 2e-3, 0.6 + 0.8j,
                      1.0 + 5e-4j])
        np.testing.assert_allclose(
            pgf_vm(s, t[:, None], PARAMS),
            [[pgf_vm(x, y, PARAMS) for x in s] for y in t],
            rtol=1e-15, atol=1e-15)
        for order in (1, 2, 3):
            np.testing.assert_allclose(
                vm_moment(order, t),
                [vm_moment(order, x) for x in t],
                rtol=1e-15, atol=0)

    @pytest.mark.parametrize("u, t, z_max", [
        (60.0, 5.0, 1e-3),      # mu0 = 1: the |s - 1| < 1e-3 band
        (1.2, 250.0, 4e-3),     # mu0 = 1: just outside |s - 1| = 1e-3
        (60.0, 250.0, 4e-3),    # mu0 = 50: both sides of |mu0 z| = 0.1
        (300.0, 300.0, 1e-3),   # mu0 = 300: beyond |mu0 z| = 0.1
    ])
    @pytest.mark.parametrize("N", [8192, 16384])
    def test_pgf_near_one_matches_mixture_quadrature(self, u, t, z_max, N):
        # the PGF at the first N-th roots of unity against Gauss-Legendre
        # over the Poisson-mean mixture: atom w at mu0, density c*mu on
        # (0, mu0)
        params = NetworkParams.from_per_km(2.0, 1.0, u, 150.0)
        w, mu0, c = _vm_mixture(t, params)
        k = np.arange(int(z_max * N / (2 * np.pi)) + 2)
        s = np.exp(2j * np.pi * k / N)
        s = s[np.abs(s - 1.0) < z_max]
        x, wx = np.polynomial.legendre.leggauss(60)
        mu = mu0 * (x + 1.0) / 2
        ref = w * np.exp(mu0 * (s - 1.0)) + c * mu0 / 2 * (
            (wx * mu) @ np.exp(np.outer(mu, s - 1.0)))
        got = pgf_vm(s, t, params)
        assert s.size >= 2
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("t", [40.0, 150.0, 420.0])
    def test_conditional_moments(self, t):
        pmf = pmf_vm(80, t, PARAMS)
        mean, var = moments_vm_conditional(t, PARAMS)
        assert mean == pytest.approx(pmf.mean(), rel=1e-9)
        assert var == pytest.approx(pmf.variance(), rel=1e-8)

    @pytest.mark.parametrize("params", SWEEP + MOMENT_BOX)
    def test_decondition_matches_quadrature(self, params):
        ref_mean, ref_var = (cell_average_quad(
            lambda t: moments_vm_conditional(t, params)[i], params,
            tagged=True) for i in (0, 1))
        mean, var = moments_vm(params)
        assert mean == pytest.approx(ref_mean, rel=1e-10, abs=0)
        assert var == pytest.approx(ref_var, rel=1e-10, abs=0)


class TestTaggedNpts:
    def test_pmf_closed_form_anchor(self):
        g = PARAMS.lam / PARAMS.lambda_r
        pmf = pmf_tagged_npts(5, PARAMS)
        assert pmf.masses[0] == pytest.approx(1.0 / (1 + g / 2) ** 3,
                                              rel=1e-12)

    @pytest.mark.parametrize("params", SWEEP)
    def test_moments_match_pmf(self, params):
        pmf = pmf_tagged_npts(K_DEEP, params)
        assert pmf.tail_mass < 1e-10
        mo = moments_tagged_npts(params)
        assert mo.mean == pytest.approx(pmf.mean(), rel=1e-7)
        assert mo.variance == pytest.approx(pmf.variance(), rel=1e-6)
        assert mo.third_moment == pytest.approx(pmf.moment(3), rel=1e-5)

    def test_mean_size_biased(self):
        for params in SWEEP:
            assert moments_tagged_npts(params).mean == pytest.approx(
                1.5 * moments_typical_npts(params).mean, rel=1e-12)


class TestTaggedPts:
    @pytest.mark.parametrize("params", SWEEP)
    def test_pgf_matches_pmf(self, params):
        pmf = pmf_tagged_pts_certified(params)
        for s in (0.0, 0.5, 0.9):
            direct = float(np.dot(pmf.masses, s ** pmf.support))
            assert direct == pytest.approx(pgf_tagged_pts(s, params),
                                           abs=1e-6)

    @pytest.mark.parametrize("params", SWEEP)
    def test_mean_matches_pmf(self, params):
        pmf = pmf_tagged_pts(K_DEEP, params)
        assert pmf.tail_mass < 1e-7
        mo = moments_tagged_pts(params)
        assert mo.mean == pytest.approx(pmf.mean(), rel=1e-5)

    @pytest.mark.parametrize("params", SWEEP)
    def test_variance_factorized_approximation(self, params):
        # the variance formula factorizes the platoon/background cross
        # covariance; it understates the exact pmf variance by a few
        # percent but must stay close and keep the right ordering
        pmf = pmf_tagged_pts(K_DEEP, params)
        assert pmf.tail_mass < 1e-7
        mo = moments_tagged_pts(params)
        assert mo.variance <= pmf.variance() + 1e-9
        assert mo.variance == pytest.approx(pmf.variance(), rel=0.08)

    def test_heavier_than_typical(self):
        for params in SWEEP:
            assert moments_tagged_pts(params).mean \
                > moments_typical_pts(params).mean


class TestOperationalMetrics:
    def test_typical_metrics(self):
        pmf = pmf_typical_npts_certified(PARAMS)
        out = operational_metrics(pmf, "typical")
        assert out["p_off"] == pytest.approx(16.0 / 81.0, rel=1e-9)
        assert out["s_avg"] == pytest.approx(pmf.mean() / (1 - out["p_off"]))
        assert out["k_avg"] == math.floor(out["s_avg"])
        assert 0.0 <= out["p_b"] <= 1.0

    def test_tagged_metrics_conventions(self):
        pmf = pmf_tagged_npts_certified(PARAMS)
        out = operational_metrics(pmf, "tagged")
        assert out["P1_zero_extra_load"] == pytest.approx(
            float(pmf.masses[0]))
        assert out["P1_mass_at_one"] == pytest.approx(float(pmf.masses[1]))
        assert out["m_avg"] == math.floor(pmf.mean())

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            operational_metrics(pmf_typical_npts_certified(PARAMS), "other")

    def test_never_active_rsu_raises(self):
        # s_avg conditions on an active RSU, which has probability 0 here
        with pytest.raises(NumericsError, match="never active"):
            operational_metrics(DiscretePMF.of([1.0]), "typical")

    def test_tagged_load_with_no_mass_at_one(self):
        # a pmf with support {0}: the tagged VU is alone on its RSU
        out = operational_metrics(DiscretePMF.of([1.0]), "tagged")
        assert out == {"P1_zero_extra_load": 1.0, "P1_mass_at_one": 0.0,
                       "m_avg": 0, "P_b": 0.0}

    def test_off_probability_ordering(self):
        # platooning concentrates VUs, leaving more RSUs idle
        for params in SWEEP:
            p_pts = operational_metrics(
                pmf_typical_pts_certified(params), "typical")["p_off"]
            p_npts = operational_metrics(
                pmf_typical_npts_certified(params), "typical")["p_off"]
            assert p_pts > p_npts
