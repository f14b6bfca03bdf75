import cmath
import gc
import math
import random
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platoonnet import coverage, numerics
from platoonnet.coverage import (CoverageMeta, RadioParams, active_prob,
                                 coverage_prob, md_coverage, md_rate,
                                 rate_coverage)
from platoonnet.geometry import NetworkParams
from platoonnet.load import pmf_typical_npts_certified, \
    pmf_typical_pts_certified
from platoonnet.numerics import NumericsError, quad

from oracles import active_prob_per_point, laplace_interference, \
    laplace_interference_quad, serving_exponents, serving_integrals_unmasked
from pins import META_OBJECTS, MOMENT_T, coverage_meta, record

PARAMS = NetworkParams.from_per_km(2.0, 1.0, 5.0, 150.0)
P35 = NetworkParams.from_per_km(2.0, 1.0, 35.0, 150.0)
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
    """The rule in use at q = it; the inner integral does not depend on
    p_active."""
    meta = CoverageMeta(tau, "PTS", PARAMS, RadioParams(1.0, 5e-5, alpha),
                        p_active=1.0)
    return meta._inners([1j * t])[0]


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


# (alpha, tau, t, real, imaginary) of M_it = moment_it(t) from the
# adaptive serving-distance quadrature that preceded the fixed dyadic
# rule, at PARAMS with the PTS active probability and RADIO's p_t, sigma2
MOMENT_IT_VALUES = [
    (2.5, 0.9, 0.001, 0.9511496443240196, -0.10218387975295184),
    (2.5, 0.9, 0.37, 0.21405696952324643, -0.13007151981450563),
    (2.5, 0.9, 5.0, 0.07537027718584548, -0.05330951312302783),
    (2.5, 0.9, 64.0, 0.02753894549924181, -0.019741205678566312),
    (2.5, 0.9, 1000.0, 0.00920010679438691, -0.0066534612883203574),
    (2.5, 0.9, 65536.0, 0.0017286642715483194, -0.001254854886738188),
    (2.5, 0.9, 16777216.0, 0.0001881563972734161, -0.00013669066523291936),
    (2.5, 11.13, 0.001, 0.6455405717090646, -0.2216116155045293),
    (2.5, 11.13, 0.37, 0.07977568737089202, -0.05679292519228188),
    (2.5, 11.13, 5.0, 0.027916974907707337, -0.02004051274464751),
    (2.5, 11.13, 64.0, 0.010099693477592764, -0.0073030559416540014),
    (2.5, 11.13, 1000.0, 0.0033673471890810743, -0.002442418561557168),
    (2.5, 11.13, 65536.0, 0.000632242708267829, -0.0004592050314741517),
    (2.5, 11.13, 16777216.0, 6.880595045248358e-05, -4.998871619072193e-05),
    (2.5, 3326.0, 0.001, 0.0904923359134025, -0.060746199613211545),
    (2.5, 3326.0, 0.37, 0.008038933544475586, -0.006155499696306287),
    (2.5, 3326.0, 5.0, 0.002864056278681974, -0.002085883524333454),
    (2.5, 3326.0, 64.0, 0.0010345737037900662, -0.000751487617068466),
    (2.5, 3326.0, 1000.0, 0.0003446050922835533, -0.00025033139372866974),
    (2.5, 3326.0, 65536.0, 6.467722667555516e-05, -4.6989237704937894e-05),
    (2.5, 3326.0, 16777216.0, 7.038163362478285e-06, -5.11350687398488e-06),
    (2.5, 35000000000000.0, 0.001,
     9.109378975816698e-06, -6.648341119414559e-06),
    (2.5, 35000000000000.0, 0.37,
     7.892384182527818e-07, -6.043262632152172e-07),
    (2.5, 35000000000000.0, 5.0,
     2.807692209170412e-07, -2.0474574171390183e-07),
    (2.5, 35000000000000.0, 64.0,
     1.0138512014671842e-07, -7.368183591721081e-08),
    (2.5, 35000000000000.0, 1000.0,
     3.376654975856867e-08, -2.453328665906928e-08),
    (2.5, 35000000000000.0, 65536.0,
     6.337200426330262e-09, -4.604246899784257e-09),
    (2.5, 35000000000000.0, 16777216.0,
     6.896067425291068e-10, -5.010286264235595e-10),
    (3.5, 0.9, 0.001, 0.34214723265093044, -0.12528789327581497),
    (3.5, 0.9, 0.37, 0.07268427932411596, -0.033452331939808),
    (3.5, 0.9, 5.0, 0.034725918829129766, -0.016570550941833857),
    (3.5, 0.9, 64.0, 0.016846415400357653, -0.008063826834301888),
    (3.5, 0.9, 1000.0, 0.007697694070606279, -0.003696518361933186),
    (3.5, 0.9, 65536.0, 0.0023329349241147843, -0.0011225168726407026),
    (3.5, 0.9, 16777216.0, 0.0004786511887313564, -0.00023046562513131687),
    (3.5, 11.13, 0.001, 0.18243635070460787, -0.0768634065562795),
    (3.5, 11.13, 0.37, 0.035817156232689766, -0.017091903995357986),
    (3.5, 11.13, 5.0, 0.0170138632284242, -0.00814440082752612),
    (3.5, 11.13, 64.0, 0.00822844766451093, -0.003951030739263004),
    (3.5, 11.13, 1000.0, 0.0037556257823399943, -0.001806121393007785),
    (3.5, 11.13, 65536.0, 0.0011374957246217167, -0.0005475595964881924),
    (3.5, 11.13, 16777216.0, 0.0002333304540551729, -0.00011235636752497498),
    (3.5, 3326.0, 0.001, 0.03831365705050555, -0.01798400478480883),
    (3.5, 3326.0, 0.37, 0.007028628518145885, -0.003442227056434296),
    (3.5, 3326.0, 5.0, 0.0033480913842897212, -0.0016122436995317272),
    (3.5, 3326.0, 64.0, 0.0016170193055897153, -0.0007783157404420733),
    (3.5, 3326.0, 1000.0, 0.0007374263370511184, -0.00035503115278161316),
    (3.5, 3326.0, 65536.0, 0.00022324210417389205, -0.00010749889970960744),
    (3.5, 3326.0, 16777216.0, 4.57852143881229e-05, -2.2048625340973028e-05),
    (3.5, 35000000000000.0, 0.001,
     5.333177647280506e-05, -2.5708779399056903e-05),
    (3.5, 35000000000000.0, 0.37,
     9.641856741505949e-06, -4.720391185529889e-06),
    (3.5, 35000000000000.0, 5.0,
     4.588539128971842e-06, -2.2119872260086175e-06),
    (3.5, 35000000000000.0, 64.0,
     2.2151701194893954e-06, -1.066854197842171e-06),
    (3.5, 35000000000000.0, 1000.0,
     1.010001219292865e-06, -4.86393262178749e-07),
    (3.5, 35000000000000.0, 65536.0,
     3.0572300153723636e-07, -1.472284328519164e-07),
    (3.5, 35000000000000.0, 16777216.0,
     6.269885124441044e-08, -3.0194174699621595e-08),
    (4.0, 0.9, 0.001, 0.20755591693861983, -0.07433882509253001),
    (4.0, 0.9, 0.37, 0.05116961310540187, -0.020575752569162352),
    (4.0, 0.9, 5.0, 0.026802661920665164, -0.011029083530652193),
    (4.0, 0.9, 64.0, 0.014220811562509483, -0.0058625075613796635),
    (4.0, 0.9, 1000.0, 0.007165247142279413, -0.0029606684636280045),
    (4.0, 0.9, 65536.0, 0.002521158922989545, -0.0010433969406826679),
    (4.0, 0.9, 16777216.0, 0.0006305784270477081, -0.00026113775974930095),
    (4.0, 11.13, 0.001, 0.11609844881487745, -0.04450951851587988),
    (4.0, 11.13, 0.37, 0.027500521073102583, -0.011311914824122053),
    (4.0, 11.13, 5.0, 0.014344325999806555, -0.005913083171606132),
    (4.0, 11.13, 64.0, 0.007595786437390608, -0.003138341775163807),
    (4.0, 11.13, 1000.0, 0.0038240167782103247, -0.0015818914443004456),
    (4.0, 11.13, 65536.0, 0.0013448096711376077, -0.0005567820030979995),
    (4.0, 11.13, 16777216.0, 0.0003362845276014522, -0.00013927757868900152),
    (4.0, 3326.0, 0.001, 0.02910672893042784, -0.011839128867520912),
    (4.0, 3326.0, 0.37, 0.006620534120085065, -0.00277544765594043),
    (4.0, 3326.0, 5.0, 0.0034586336748110955, -0.001432103363517774),
    (4.0, 3326.0, 64.0, 0.0018294632920596676, -0.0007573571180360221),
    (4.0, 3326.0, 1000.0, 0.0009203826652012644, -0.00038111618676715656),
    (4.0, 3326.0, 65536.0, 0.0003235276809634969, -0.00013399472035990486),
    (4.0, 3326.0, 16777216.0, 8.088667135257563e-05, -3.35034286970965e-05),
    (4.0, 35000000000000.0, 0.001,
     9.207244650858432e-05, -3.816208778910685e-05),
    (4.0, 35000000000000.0, 0.37,
     2.07049767474116e-05, -8.676252829245681e-06),
    (4.0, 35000000000000.0, 5.0,
     1.080787319947285e-05, -4.479866685081069e-06),
    (4.0, 35000000000000.0, 64.0,
     5.714522333731547e-06, -2.3671565745091034e-06),
    (4.0, 35000000000000.0, 1000.0,
     2.8742759886605085e-06, -1.1905670637283083e-06),
    (4.0, 35000000000000.0, 65536.0,
     1.0102035675146462e-06, -4.184398959291756e-07),
    (4.0, 35000000000000.0, 16777216.0,
     2.5255094014368605e-07, -1.0461001557648022e-07),
    (5.0, 0.9, 0.001, 0.09808506095013654, -0.030012044779964497),
    (5.0, 0.9, 0.37, 0.031067405178911496, -0.009928835348180749),
    (5.0, 0.9, 5.0, 0.01850711719481531, -0.005988166399459756),
    (5.0, 0.9, 64.0, 0.011137797030859183, -0.0036065268867318265),
    (5.0, 0.9, 1000.0, 0.006435236287011895, -0.0020867074637952944),
    (5.0, 0.9, 65536.0, 0.0027904320817571343, -0.0009058712735399561),
    (5.0, 0.9, 16777216.0, 0.0009209371737690112, -0.00029914404175775307),
    (5.0, 11.13, 0.001, 0.060450904418426404, -0.018943041724806025),
    (5.0, 11.13, 0.37, 0.018871762791079532, -0.006102644360114828),
    (5.0, 11.13, 5.0, 0.011214987313748486, -0.0036310770276379656),
    (5.0, 11.13, 64.0, 0.006742826983059612, -0.00218634587131866),
    (5.0, 11.13, 1000.0, 0.0038939908087230915, -0.0012636883721149582),
    (5.0, 11.13, 65536.0, 0.001687884617986126, -0.0005481360971551211),
    (5.0, 11.13, 16777216.0, 0.0005569544317351885, -0.00018093379798986533),
    (5.0, 3326.0, 0.001, 0.01972085625988968, -0.006335329554062429),
    (5.0, 3326.0, 0.37, 0.0060427649532078555, -0.0019784262135251348),
    (5.0, 3326.0, 5.0, 0.0035935704112368665, -0.0011669281432185824),
    (5.0, 3326.0, 64.0, 0.0021590524119323344, -0.0007010674388084888),
    (5.0, 3326.0, 1000.0, 0.0012462408947233792, -0.00040477046780016486),
    (5.0, 3326.0, 65536.0, 0.0005399880050653107, -0.00017542297743936033),
    (5.0, 3326.0, 16777216.0, 0.00017814599743922827, -5.787990372716298e-05),
    (5.0, 35000000000000.0, 0.001,
     0.000197017224088329, -6.403557201861222e-05),
    (5.0, 35000000000000.0, 0.37,
     5.9904958322008176e-05, -1.9603194020055154e-05),
    (5.0, 35000000000000.0, 5.0,
     3.560368054510718e-05, -1.157294103027694e-05),
    (5.0, 35000000000000.0, 64.0,
     2.138310951984747e-05, -6.947969093124322e-06),
    (5.0, 35000000000000.0, 1000.0,
     1.2339828004694697e-05, -4.009445838945036e-06),
    (5.0, 35000000000000.0, 65536.0,
     5.345815625377293e-06, -1.736957926180657e-06),
    (5.0, 35000000000000.0, 16777216.0,
     1.7634631127147458e-06, -5.729835815246777e-07),
]


def serving_integral_mp(lin, noise, alpha):
    """Integral of exp(-lin r - noise r^alpha) over [0, inf) by mpmath
    tanh-sinh on the ray r = rot*s that turns noise r^alpha real, with
    the complex power taken by mpmath itself."""
    with mpmath.workdps(30):
        lin, noise = mpmath.mpmathify(lin), mpmath.mpmathify(noise)
        rot = mpmath.exp(-1j * mpmath.arg(noise) / alpha)
        s = 1 / (abs(lin) + abs(noise) ** (1 / mpmath.mpf(alpha)))

        def f(v):
            r = rot * v
            return rot * mpmath.exp(-lin * r - noise * r**alpha)

        return complex(mpmath.quad(
            f, [0, s / 10, s, 10 * s, 100 * s, mpmath.inf]))


def inner_hyp_mp(tau, alpha, q):
    """The inner integral at order q from the hypergeometric closed form
    of `inner_it_hyp`, at 30 digits."""
    with mpmath.workdps(30):
        b = 1 - mpmath.mpf(1) / alpha
        tau = mpmath.mpf(tau)
        return complex(-alpha * (1 - (1 + tau) ** -q) + alpha * q * tau / b
                       * mpmath.hyp2f1(q + 1, b, b + 1, -tau))


class TestRadioParams:
    def test_snr(self):
        assert RADIO.snr == pytest.approx(20000.0)

    @pytest.mark.parametrize("kwargs", [
        dict(p_t=0.0, sigma2=1e-5, alpha=3.5),
        dict(p_t=1.0, sigma2=-1e-5, alpha=3.5),
        dict(p_t=1.0, sigma2=1e-5, alpha=1.0),
        dict(p_t=float("nan"), sigma2=1e-5, alpha=3.5),
        dict(p_t=1.0, sigma2=1e-5, alpha=float("nan")),
        dict(p_t=1.0, sigma2=1e-5, alpha=3.5, bandwidth=float("nan")),
        dict(p_t=1.0, sigma2=float("inf"), alpha=3.5),
        dict(p_t=1.0, sigma2=1e-5, alpha=float("inf")),
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

    # RSU density, density ratio u and half-width a over the supported box
    GRID = [NetworkParams.from_per_km(lr, 1.0, u, a)
            for lr in (0.5, 2.0, 10.0)
            for u in (1.2, 5.0, 15.0, 35.0, 60.0, 100.0)
            for a in (50.0, 100.0, 150.0, 200.0, 250.0, 300.0)]

    def test_pts_keeps_the_per_point_bits(self):
        assert [active_prob("PTS", p) for p in self.GRID] \
            == [active_prob_per_point(p) for p in self.GRID]

    @staticmethod
    def batch_sizes(monkeypatch):
        # the size of each values(ts) call of active_prob's integrands
        sizes, batches = [], numerics.kronrod_batches

        def spy(values, lo, hi):
            def counted(ts):
                sizes.append(len(ts))
                return values(ts)
            return batches(counted, lo, hi)

        monkeypatch.setattr(coverage, "kronrod_batches", spy)
        return sizes

    def test_pts_asks_whole_kronrod_intervals(self, monkeypatch):
        # every point QAGI asks for was computed in its interval's one
        # 15-node batch, and no other point was
        sizes, asked = self.batch_sizes(monkeypatch), []

        def recording_quad(f, *args):
            def g(t):
                asked.append(t)
                return f(t)
            return quad(g, *args)

        monkeypatch.setattr(coverage, "quad", recording_quad)
        for p in self.GRID[::7]:
            sizes.clear()
            asked.clear()
            active_prob("PTS", p)
            assert set(sizes) == {15}
            assert sum(sizes) == len(asked) == len(set(asked))

    def test_unpredicted_points_keep_the_result(self, monkeypatch):
        # with wrong QK15I abscissae the node map predicts no point but
        # the centres; each other point costs a call of its own
        sizes = self.batch_sizes(monkeypatch)
        vals = [active_prob("PTS", p) for p in self.GRID[::7]]
        sizes.clear()
        monkeypatch.setattr(numerics, "_XGK15", numerics._XGK15 / 2)
        assert [active_prob("PTS", p) for p in self.GRID[::7]] == vals
        assert sizes.count(15) * 14 == sizes.count(1) > 0


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
                            tau, traffic, params, radio), rel=1e-13, abs=0)

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
            coverage_prob_per_node(tau, "NPTS", PARAMS, radio), rel=1e-13,
            abs=0)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_hypergeometric_raises(self, bad, monkeypatch):
        monkeypatch.setattr(coverage.special, "hyp2f1", lambda *args: bad)
        with pytest.raises(NumericsError, match="did not converge"):
            coverage_prob(0.9, "NPTS", PARAMS, RADIO)

    @pytest.mark.parametrize("traffic", ["PTS", "NPTS"])
    def test_given_p_active_is_exact(self, traffic):
        for tau in (0.9, 11.13):
            assert coverage_prob(
                tau, traffic, P35, RADIO,
                p_active=active_prob(traffic, P35)) \
                == coverage_prob(tau, traffic, P35, RADIO)

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

    def test_freed_without_garbage_collection(self):
        # neither the moment cache nor the Gil-Pelaez node map and batch
        # accessor of md hold a reference back to the object
        enabled = gc.isenabled()
        gc.disable()
        try:
            for use in (lambda m: m.moment_it(1.5), lambda m: m.md(0.8)):
                meta = CoverageMeta(0.9, "PTS", PARAMS, RADIO)
                use(meta)
                ref = weakref.ref(meta)
                del meta
                assert ref() is None
        finally:
            if enabled:
                gc.enable()

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
        val = meta._inners([1j * t])[0]
        assert val.real == pytest.approx(c_ref, abs=1e-9)
        assert val.imag == pytest.approx(s_ref, abs=1e-9)

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

    @pytest.mark.parametrize("alpha", [2.5, 3.5, 4.0, 5.0])
    @pytest.mark.parametrize("tau", [0.9, 11.13, 3326.0, 3.5e13])
    def test_moment_it_matches_adaptive_values(self, alpha, tau):
        meta = CoverageMeta(tau, "PTS", PARAMS, RadioParams(1.0, 5e-5, alpha))
        rows = [r for r in MOMENT_IT_VALUES if r[:2] == (alpha, tau)]
        assert len(rows) == 7
        for _, _, t, re, im in rows:
            assert abs(meta.moment_it(t) - complex(re, im)) <= 2e-12

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0, 2.5, 3.5, 4.0, 5.0])
    @pytest.mark.parametrize("tau", [0.9, 11.13])
    def test_serving_integral_matches_mpmath(self, alpha, tau):
        # the outer rule alone: mpmath integrates the same integrand,
        # built from the same inner integral
        radio = RadioParams(1.0, 5e-5, alpha)
        meta = CoverageMeta(tau, "PTS", PARAMS, radio)
        lr = PARAMS.lambda_r
        for t in (1e-2, 1.0, 64.0, 4096.0, 65536.0):
            lin = meta._coef * meta._inners([1j * t])[0] + 2 * lr
            ref = 2 * lr * serving_integral_mp(lin, 1j * t * tau / radio.snr,
                                               alpha)
            assert abs(meta.moment(1j * t) - ref) <= 1e-12

    @pytest.mark.parametrize("alpha", [2.5, 3.5, 4.0])
    @pytest.mark.parametrize("tau", [0.9, 1e3, 3.5e13, 1e16])
    def test_real_moments_match_mpmath(self, alpha, tau):
        # large tau makes the interference slope steep; the moments stay
        # relatively accurate
        radio = RadioParams(1.0, 5e-5, alpha)
        meta = CoverageMeta(tau, "PTS", P35, radio)
        lr = P35.lambda_r
        for q in (0.5, 1, 2, 3):
            lin = meta._coef * inner_hyp_mp(tau, alpha, q) + 2 * lr
            ref = 2 * lr * serving_integral_mp(lin, q * tau / radio.snr,
                                               alpha).real
            assert meta.moment(q) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("alpha", [2.5, 3.5, 4.0])
    @pytest.mark.parametrize("traffic", ["PTS", "NPTS"])
    def test_first_moment_is_coverage(self, traffic, alpha):
        radio = RadioParams(1.0, 5e-5, alpha)
        for tau in (0.1, 0.9, 11.13, 1e3):
            meta = CoverageMeta(tau, traffic, P35, radio)
            assert meta.moment(1) == pytest.approx(
                coverage_prob(tau, traffic, P35, radio), rel=1e-12)

    def test_noise_bound(self):
        meta = CoverageMeta(0.9, "PTS", PARAMS, RADIO)
        b = meta.md_noise_bound(0.5)
        # direct statement of the bound: serving RSU close enough that
        # the noise-only success already exceeds x
        r_star = (RADIO.snr * (-math.log(0.5)) / 0.9) ** (1 / RADIO.alpha)
        assert b == pytest.approx(1 - math.exp(-2 * PARAMS.lambda_r * r_star))
        assert meta.md(0.5) <= b + 1e-12

    @pytest.mark.parametrize("tau, inverts", [(1e14, False), (1e13, True)])
    def test_md_returns_a_noise_bound_below_the_gp_tolerance(
            self, tau, inverts, monkeypatch):
        # at tau = 1e14 the bound is 8.57e-6, below GP_ABS_TOL / 10: md
        # returns it and inverts nothing; at tau = 1e13 it is 1.52e-5
        calls = []

        def spy(moments_it, x):
            calls.append(x)
            return 1e-7

        monkeypatch.setattr(coverage, "gil_pelaez_invert", spy)
        meta = CoverageMeta(tau, "PTS", P35, RadioParams(1.0, 5e-5, 4.0))
        bound = meta.md_noise_bound(0.9)
        assert (bound < numerics.GP_ABS_TOL / 10) != inverts
        assert meta.md(0.9) == (1e-7 if inverts else bound)
        assert calls == ([0.9] if inverts else [])

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

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_threshold_validation(self, tau):
        with pytest.raises(ValueError, match="tau must be positive"):
            CoverageMeta(tau, "PTS", PARAMS, RADIO)

    def test_x_validation(self):
        meta = CoverageMeta(0.9, "PTS", PARAMS, RADIO)
        with pytest.raises(ValueError):
            meta.md_noise_bound(1.0)


class TestMomentBits:
    """The M_it bits of the meta_sweep objects are pins (tests/pins.py);
    their t-grid reaches every branch of the inner rule.  A batch keeps
    the bits of one-q calls, skipping exp where it underflows keeps the
    bits of the serving integrals, and md computes each moment QAGS asks
    for once, in whole Kronrod intervals."""

    def test_grid_covers_every_branch(self, monkeypatch):
        # 0 to 3 Legendre panels, and the Laguerre legs past 4 periods
        panels = []
        table = coverage._inner_table

        def spy(eta, n):
            panels.append(n)
            return table(eta, n)

        monkeypatch.setattr(coverage, "_inner_table", spy)
        for name in META_OBJECTS:
            meta = coverage_meta(name)
            for t in MOMENT_T:
                meta.moment(1j * t)
            # A = 4 periods < W = ln(1 + tau) at the largest t
            assert MOMENT_T[-1] * math.log1p(meta.tau) \
                > coverage._PERIODS * 2 * math.pi
        assert set(panels) == {0, 1, 2, 3}

    @pytest.mark.parametrize("alpha", [2.5, 3.5, 4.0])
    @pytest.mark.parametrize("name", META_OBJECTS)
    def test_batch_keeps_one_q_bits(self, name, alpha, monkeypatch):
        # every member of a shuffled batch (0 to 4 Legendre panels, the
        # Laguerre legs, t = 0, negative t and real q) has the bits of
        # its one-q call, so no value depends on its batch mates; at t =
        # 101 and 115 the 3 periods past the first round to 4 panels
        panels = []
        table = coverage._inner_table

        def spy(eta, n):
            panels.append(n)
            return table(eta, n)

        monkeypatch.setattr(coverage, "_inner_table", spy)
        base = coverage_meta(name)
        meta = CoverageMeta(base.tau, "PTS", P35,
                            RadioParams(1.0, 5e-5, alpha), p_active=base.p)
        qs = [1j * t for t in [0.0, -1.5, -MOMENT_T[-1], *MOMENT_T,
                               101.0, -115.0]] + [0.5, 1, 2, 3]
        random.Random(name).shuffle(qs)

        def bits(m):
            return type(m), record(complex(m).real), record(complex(m).imag)

        assert [bits(m) for m in meta.moments(qs)] \
            == [bits(meta.moment(q)) for q in qs]
        assert 4 in panels

    def test_batch_of_zero_orders(self):
        # no nonzero q: no rule runs, and each M_0 is 1.0
        meta = coverage_meta("k=3")
        assert meta.moments([]) == []
        ms = meta.moments([0j, 0.0, 0, 1j * 0.0])
        assert ms == [meta.moment(0j)] * 4 == [1.0] * 4
        assert {type(m) for m in ms} == {float}

    @pytest.mark.parametrize("alpha", [2.5, 4.0, 300.0])
    @pytest.mark.parametrize("name", META_OBJECTS)
    def test_skipped_exp_keeps_the_unmasked_bits(self, name, alpha):
        # exp runs only where the exponent's real part is above -746; on
        # the pairs with a skipped node every value keeps the bits of exp
        # at every node (at alpha = 300, u^alpha overflows to inf)
        base = coverage_meta(name)
        meta = CoverageMeta(base.tau, "PTS", P35,
                            RadioParams(1.0, 5e-5, alpha), p_active=base.p)
        qs = [1j * t for t in [-1.5, *MOMENT_T]] + [0.5, 1, 2, 3]
        lins = meta._coef * meta._inners(qs) + 2 * P35.lambda_r
        noises = [q * meta.tau / meta.radio.snr for q in qs]
        with np.errstate(over="ignore"):
            _, _, exponents = serving_exponents(lins, noises, alpha)
            old = serving_integrals_unmasked(lins, noises, alpha)
        skipped = (exponents.real <= -746.0).any(axis=1)
        assert skipped.sum() >= len(qs) // 4
        new = coverage._serving_integrals(lins, noises, alpha)

        def bits(v):
            return record(v.real), record(v.imag)

        assert [bits(v) for v, s in zip(new, skipped) if s] \
            == [bits(v) for v, s in zip(old, skipped) if s]

    def test_skipped_exp_keeps_a_nan(self):
        # a decay that underflowed to 0 times u^alpha = inf is NaN, not an
        # underflow: exp still runs there
        lin = np.array([2 * P35.lambda_r + 0j])
        with np.errstate(invalid="ignore"):
            val, = coverage._serving_integrals(lin, [0.0], 300.0)
        assert cmath.isnan(val)

    @pytest.mark.parametrize("name", META_OBJECTS)
    def test_md_asks_for_whole_kronrod_intervals(self, name, monkeypatch):
        # the Gil-Pelaez node map predicts every point QAGS asks for: each
        # request is one 21-node interval, and no moment is computed that
        # QAGS did not ask for
        asked, requests = [], []

        def recording_quad(f, *args, **kwargs):
            def g(t):
                asked.append(t)
                return f(t)
            return quad(g, *args, **kwargs)

        monkeypatch.setattr(numerics, "quad", recording_quad)
        meta = coverage_meta(name)
        batch = meta.moments_it

        def spy(ts):
            requests.append(list(ts))
            return batch(ts)

        meta.moments_it = spy
        meta.md(0.9)
        assert {len(ts) for ts in requests} == {21}
        computed = [t for ts in requests for t in ts]
        assert len(set(computed)) == len(computed) == len(asked)
        assert set(computed) == set(asked)

    def test_cached_md_runs_no_kernel(self, monkeypatch):
        # a second md on the same object finds every t cached: it reads
        # moment_it for each, and no batch reaches the moment kernel
        meta = coverage_meta("tau=0.9 PTS")
        value = meta.md(0.9)
        kernel, batches, reads = meta.moments, [], []
        read = CoverageMeta.moment_it

        def spy(qs):
            batches.append(list(qs))
            return kernel(qs)

        def counted(self, t):
            reads.append(t)
            return read(self, t)

        meta.moments = spy
        monkeypatch.setattr(CoverageMeta, "moment_it", counted)
        assert meta.md(0.9) == value
        assert batches == [] and reads


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

    @pytest.mark.parametrize("traffic", ["PTS", "NPTS"])
    def test_one_active_prob_per_call(self, traffic, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return active_prob(*args)

        monkeypatch.setattr(coverage, "active_prob", spy)
        rate_coverage(9e6, traffic, P35, self.RADIO4)
        assert calls == [(traffic, P35)]

    @pytest.mark.parametrize("traffic", ["PTS", "NPTS"])
    def test_one_coverage_prob_per_summed_term(self, traffic, monkeypatch):
        # the sum calls coverage_prob through the module attribute, once
        # per load term: the benchmark tracer counts those calls
        calls = []

        def spy(tau, *args, **kwargs):
            cp = coverage_prob(tau, *args, **kwargs)
            calls.append((tau, args, kwargs, cp))
            return cp

        monkeypatch.setattr(coverage, "coverage_prob", spy)
        rc = rate_coverage(9e6, traffic, PARAMS, self.RADIO4)
        terms = list(coverage._rate_terms(9e6, traffic, PARAMS, self.RADIO4))
        p = active_prob(traffic, PARAMS)
        assert 2 <= len(calls) <= len(terms)
        total = 0.0
        for k, ((tau, args, kwargs, cp), (pk, thr, pt)) in enumerate(
                zip(calls, terms)):
            assert tau == thr == self.RADIO4.rate_threshold(9e6, k + 1)
            assert args == (traffic, PARAMS, self.RADIO4)
            assert kwargs == {"p_active": pt}
            assert pt == p
            total += pk * cp
        assert rc == total
        # the sum stops after the first term below 1e-9
        cps = [cp for *_, cp in calls]
        assert min(cps[:-1]) >= 1e-9
        assert cps[-1] < 1e-9 or len(calls) == len(terms)

    def test_md_rate_bounds(self):
        val = md_rate(9e6, 0.9, "NPTS", PARAMS, self.RADIO4)
        assert 0.0 <= val <= 1.0

    def test_validation(self):
        # checked before the first term, whose SINR threshold
        # 2^(tau_rate/B) - 1 <= 0 coverage_prob would refuse too
        with pytest.raises(ValueError, match="tau_rate must be positive"):
            rate_coverage(0.0, "PTS", PARAMS, self.RADIO4)
        with pytest.raises(ValueError, match="tau_rate must be positive"):
            md_rate(-1.0, 0.9, "PTS", PARAMS, self.RADIO4)
