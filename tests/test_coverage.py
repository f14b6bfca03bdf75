import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from platoonnet.coverage import (CoverageMeta, RadioParams, active_prob,
                                 coverage_prob, laplace_interference,
                                 laplace_interference_quad, md_coverage,
                                 md_rate, rate_coverage)
from platoonnet.geometry import NetworkParams
from platoonnet.load import pmf_typical_npts_certified, \
    pmf_typical_pts_certified
from platoonnet.numerics import quad

PARAMS = NetworkParams.from_per_km(2.0, 1.0, 5.0, 150.0)
RADIO = RadioParams(1.0, 5e-5, 3.5)


def inner_it_hyp(tau, alpha, t):
    """Inner integral at q = it from the hypergeometric closed form
    (integration by parts removes the y^(-eta) endpoint issue):
    -alpha(1-(1+tau)^{-q}) + (alpha q tau / b) 2F1(q+1, b; b+1; -tau)
    with b = 1 - 1/alpha.  The series stops converging once |q| is
    large, so it serves as the oracle for t <= 64 only."""
    q = 1j * t
    b = 1.0 - 1.0 / alpha
    h = complex(mpmath.hyp2f1(q + 1, b, b + 1, -tau))
    return (-alpha * (1.0 - cmath.exp(-q * math.log1p(tau)))
            + alpha * q * tau / b * h)


def inner_trig(tau, alpha, t):
    """The rule in use; the inner integral does not depend on p_active."""
    meta = CoverageMeta(tau, "PTS", PARAMS, RadioParams(1.0, 5e-5, alpha),
                        p_active=1.0)
    return complex(*meta._inner_trig(t))


def inner_trig_quad(meta, t):
    """Direct quadrature of the q = it inner integral, (real, imaginary);
    only usable at moderate t before the oscillation overwhelms it."""
    tau, eta = meta.tau, meta.eta

    def fc(y):
        return (1.0 - math.cos(t * math.log1p(tau * y))) * y ** (-eta)

    def fs(y):
        return math.sin(t * math.log1p(tau * y)) * y ** (-eta)

    return (quad(fc, 0, 1, epsrel=1e-9, limit=400),
            quad(fs, 0, 1, epsrel=1e-9, limit=400))


# (tau, alpha, t, real, imaginary) of the inner integral from the
# descending-contour route (incomplete gamma for the w^(-eta) part,
# adaptive quadrature on two legs) that served t > 64 before the fixed
# rule replaced it; 2^24 is the last Gil-Pelaez panel edge
CONTOUR_VALUES = [
    (0.9, 3.5, 100.0, 11.026280944731015, 7.018766892644418),
    (0.9, 3.5, 1000.0, 24.59616801366861, 13.533572534171087),
    (0.9, 3.5, 8192.0, 47.746361656337236, 24.679483887983206),
    (0.9, 3.5, 16777216.0, 449.14541423616885, 217.98254634343394),
    (11.13, 4.0, 100.0, 22.15724780779469, 10.86106524682492),
    (11.13, 4.0, 1000.0, 42.511075443682685, 19.270719841571193),
    (11.13, 4.0, 8192.0, 74.69169638587947, 32.596094421200384),
    (11.13, 4.0, 16777216.0, 525.3743529248576, 219.27404006325898),
    (3326.0, 4.0, 100.0, 104.70607306496929, 45.13976737347012),
    (3326.0, 4.0, 1000.0, 189.3860015525578, 80.12413365137431),
    (3326.0, 4.0, 8192.0, 323.1788260538204, 135.5263829999587),
    (3326.0, 4.0, 16777216.0, 2196.9980963301086, 911.6832767309787),
    (35000000000000.0, 4.0, 100.0, 34814.29565768902, 14460.477023361345),
    (35000000000000.0, 4.0, 1000.0,
     61934.299634701296, 25662.488060502543),
    (35000000000000.0, 4.0, 8192.0, 104786.41771513471, 43407.01720426303),
    (35000000000000.0, 4.0, 16777216.0, 704942.4320786907, 291998.37752860424),
]


class TestRadioParams:
    def test_snr(self):
        assert RADIO.snr == pytest.approx(20000.0)

    @pytest.mark.parametrize("kwargs", [
        dict(p_t=0.0, sigma2=1e-5, alpha=3.5),
        dict(p_t=1.0, sigma2=-1e-5, alpha=3.5),
        dict(p_t=1.0, sigma2=1e-5, alpha=1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RadioParams(**kwargs)


class TestActiveProb:
    def test_npts_matches_empty_cell_mass(self):
        p0 = float(pmf_typical_npts_certified(PARAMS).masses[0])
        assert active_prob("NPTS", PARAMS) == pytest.approx(1.0 - p0,
                                                            rel=1e-10)

    def test_pts_matches_empty_cell_mass(self):
        p0 = float(pmf_typical_pts_certified(PARAMS).masses[0])
        assert active_prob("PTS", PARAMS) == pytest.approx(1.0 - p0,
                                                           rel=1e-6)

    def test_clustering_idles_more_rsus(self):
        for u in (5.0, 15.0, 35.0):
            p = NetworkParams.from_per_km(2.0, 1.0, u, 150.0)
            assert active_prob("NPTS", p) > active_prob("PTS", p)

    def test_unknown_traffic(self):
        with pytest.raises(ValueError):
            active_prob("bogus", PARAMS)


class TestLaplace:
    @pytest.mark.parametrize("alpha", [2.5, 3.5, 4.0])
    @pytest.mark.parametrize("s", [1e-3, 1.0, 50.0])
    @pytest.mark.parametrize("r", [50.0, 300.0])
    def test_closed_form_matches_quadrature(self, alpha, s, r):
        radio = RadioParams(1.0, 5e-5, alpha)
        lt = laplace_interference(s, r, 0.8, PARAMS.lambda_r, radio)
        ref = laplace_interference_quad(s, r, 0.8, PARAMS.lambda_r, radio)
        assert lt == pytest.approx(ref, rel=1e-8)

    def test_at_zero(self):
        assert laplace_interference(0.0, 100.0, 0.8, PARAMS.lambda_r,
                                    RADIO) == 1.0

    def test_decreasing_in_s(self):
        vals = [laplace_interference(s, 100.0, 0.8, PARAMS.lambda_r, RADIO)
                for s in (0.1, 1.0, 10.0)]
        assert vals[0] > vals[1] > vals[2]


def coverage_prob_per_node(tau, traffic, params, radio):
    """coverage_prob with the Laplace transform evaluated at every
    quadrature node."""
    p = active_prob(traffic, params)
    lr, alpha = params.lambda_r, radio.alpha

    def f(r):
        s = tau * r**alpha / radio.p_t
        return laplace_interference(s, r, p, lr, radio) \
            * math.exp(-tau * r**alpha / radio.snr - 2 * lr * r)

    return 2 * lr * quad(f, 0, np.inf)


class TestCoverageProb:
    @pytest.mark.parametrize("alpha", [3.5, 4.0])
    @pytest.mark.parametrize("traffic", ["PTS", "NPTS"])
    def test_matches_per_node_laplace(self, traffic, alpha):
        radio = RadioParams(1.0, 5e-5, alpha)
        for u in (5.0, 15.0, 35.0):
            for a in (100.0, 150.0):
                params = NetworkParams.from_per_km(2.0, 1.0, u, a)
                for tau in (0.9, 11.13, 1e3, 3.5e13):
                    assert coverage_prob(tau, traffic, params, radio) \
                        == pytest.approx(coverage_prob_per_node(
                            tau, traffic, params, radio), rel=1e-13)

    @pytest.mark.parametrize("alpha", [3.5, 4.0])
    def test_interference_beyond_exp_underflow(self, alpha):
        # the interference exponent at r = 1 is in the thousands, so its
        # Laplace transform there underflows to 0; coverage is still
        # positive near the RSU
        radio = RadioParams(1.0, 1e-40, alpha)
        tau = 1e25
        assert laplace_interference(tau / radio.p_t, 1.0, 1.0,
                                    PARAMS.lambda_r, radio) == 0.0
        cp = coverage_prob(tau, "NPTS", PARAMS, radio)
        assert cp > 0.0
        assert cp == pytest.approx(
            coverage_prob_per_node(tau, "NPTS", PARAMS, radio), rel=1e-13)

    def test_decreasing_in_threshold(self):
        taus = [0.1, 0.5, 0.9, 2.0]
        for traffic in ("PTS", "NPTS"):
            cps = [coverage_prob(t, traffic, PARAMS, RADIO) for t in taus]
            assert np.all(np.diff(cps) < 0)
            assert all(0.0 <= c <= 1.0 for c in cps)

    def test_noise_kills_coverage(self):
        noisy = RadioParams(1.0, 1e6, 3.5)
        assert coverage_prob(0.9, "PTS", PARAMS, noisy) < 1e-3

    def test_idle_interferers_help_pts(self):
        cp_p = coverage_prob(0.9, "PTS", PARAMS, RADIO)
        cp_n = coverage_prob(0.9, "NPTS", PARAMS, RADIO)
        assert cp_p > cp_n

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            coverage_prob(0.0, "PTS", PARAMS, RADIO)


class TestMeta:
    def test_moment_anchors(self):
        meta = CoverageMeta(0.9, "PTS", PARAMS, RADIO)
        assert meta.moment(0) == 1.0
        cp = coverage_prob(0.9, "PTS", PARAMS, RADIO)
        assert meta.moment(1) == pytest.approx(cp, rel=1e-6)
        # Jensen: E[CP^2] in [M1^2, M1]
        m2 = meta.moment(2)
        assert cp**2 - 1e-12 <= m2 <= cp + 1e-12

    def test_moment_it_anchors(self):
        meta = CoverageMeta(0.9, "PTS", PARAMS, RADIO)
        assert meta.moment_it(0.0) == 1.0
        m = meta.moment_it(1.5)
        assert abs(m) <= 1.0 + 1e-9
        assert meta.moment_it(-1.5) == pytest.approx(m.conjugate())

    @pytest.mark.parametrize("t", [40.0, 55.0, 64.0])
    def test_inner_integral_routes_agree(self, t):
        # the fixed rule against the hypergeometric oracle
        val = inner_trig(0.9, RADIO.alpha, t)
        ref = inner_it_hyp(0.9, RADIO.alpha, t)
        assert val.real == pytest.approx(ref.real, abs=1e-9)
        assert val.imag == pytest.approx(ref.imag, abs=1e-9)

    @pytest.mark.parametrize("t", [0.7, 5.0, 20.0])
    def test_inner_integral_matches_direct_quadrature(self, t):
        meta = CoverageMeta(0.9, "PTS", PARAMS, RADIO)
        c_ref, s_ref = inner_trig_quad(meta, t)
        c_val, s_val = meta._inner_trig(t)
        assert c_val == pytest.approx(c_ref, abs=1e-9)
        assert s_val == pytest.approx(s_ref, abs=1e-9)

    @pytest.mark.parametrize("tau, alpha, t, re, im", CONTOUR_VALUES)
    def test_inner_integral_matches_contour_values(self, tau, alpha, t, re,
                                                   im):
        ref = complex(re, im)
        err = abs(inner_trig(tau, alpha, t) - ref)
        assert err <= 1e-9 * max(1.0, abs(ref))

    @given(log_tau=st.floats(math.log(0.5), math.log(5e13)),
           alpha=st.floats(2.5, 5.0), t=st.floats(1e-3, 64.0))
    @settings(max_examples=25, deadline=None)
    def test_inner_integral_property(self, log_tau, alpha, t):
        tau = math.exp(log_tau)
        ref = inner_it_hyp(tau, alpha, t)
        err = abs(inner_trig(tau, alpha, t) - ref)
        assert err <= 1e-9 * max(1.0, abs(ref))

    def test_noise_bound(self):
        meta = CoverageMeta(0.9, "PTS", PARAMS, RADIO)
        b = meta.md_noise_bound(0.5)
        # direct statement of the bound: serving RSU close enough that
        # the noise-only success already exceeds x
        r_star = (RADIO.snr * (-math.log(0.5)) / 0.9) ** (1 / RADIO.alpha)
        assert b == pytest.approx(1 - math.exp(-2 * PARAMS.lambda_r * r_star))
        assert meta.md(0.5) <= b + 1e-12

    def test_md_bounds_and_monotonicity(self):
        meta = CoverageMeta(0.9, "PTS", PARAMS, RADIO)
        xs = (0.2, 0.5, 0.8, 0.95)
        vals = [meta.md(x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert np.all(np.diff(vals) <= 1e-3)

    def test_md_integrates_to_mean(self):
        # int_0^1 P[CP > x] dx = E[CP] = M1
        meta = CoverageMeta(0.9, "NPTS", PARAMS, RADIO)
        nodes, wts = np.polynomial.legendre.leggauss(24)
        nodes = 0.5 * (nodes + 1.0)
        wts = 0.5 * wts
        integral = float(np.dot(wts, [meta.md(float(x)) for x in nodes]))
        assert integral == pytest.approx(meta.moment(1), abs=5e-4)

    def test_md_coverage_wrapper(self):
        val = md_coverage(0.9, 0.8, "PTS", PARAMS, RADIO)
        assert 0.0 <= val <= 1.0

    def test_x_validation(self):
        meta = CoverageMeta(0.9, "PTS", PARAMS, RADIO)
        with pytest.raises(ValueError):
            meta.md_noise_bound(1.0)


class TestRate:
    RADIO4 = RadioParams(1.0, 5e-5, 4.0)

    def test_bounded_by_single_user_coverage(self):
        # the k = 0 term alone caps the sum from above
        thr = 2.0 ** (9e6 / self.RADIO4.bandwidth) - 1.0
        cap = coverage_prob(thr, "NPTS", PARAMS, self.RADIO4)
        rc = rate_coverage(9e6, "NPTS", PARAMS, self.RADIO4)
        assert 0.0 < rc < cap

    def test_more_bandwidth_helps(self):
        # wider channels map every load onto a lower SINR threshold
        vals = [rate_coverage(9e6, "NPTS", PARAMS,
                              RadioParams(1.0, 5e-5, 4.0, bandwidth=b))
                for b in (5e6, 10e6, 40e6)]
        assert vals[0] < vals[1] < vals[2]

    def test_sharing_hurts(self):
        for traffic in ("PTS", "NPTS"):
            rc_lo = rate_coverage(2e6, traffic, PARAMS, self.RADIO4)
            rc_hi = rate_coverage(9e6, traffic, PARAMS, self.RADIO4)
            assert rc_lo > rc_hi

    def test_md_rate_bounds(self):
        val = md_rate(9e6, 0.9, "NPTS", PARAMS, self.RADIO4)
        assert 0.0 <= val <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_coverage(0.0, "PTS", PARAMS, self.RADIO4)
        with pytest.raises(ValueError):
            md_rate(-1.0, 0.9, "PTS", PARAMS, self.RADIO4)
