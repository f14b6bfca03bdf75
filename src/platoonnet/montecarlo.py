"""Monte Carlo oracle: empirical counterparts of the analytical results.

Every estimator samples full point patterns per replication (Slivnyak or
Palm conditioning as appropriate) in two phases, run by `_replicate`:

* draw: each replication makes its random draws on its own
  `replication_rng` stream, in a fixed order (RSUs, then VUs), and keeps
  only the variates (`_draw_rsus`, `_draw_vus`);
* reduce: everything after the draws runs once per chunk of `CHUNK`
  replications, on flat arrays that carry each point's replication:
  placing the VUs (`_vus`), the nearest-RSU association
  (`_association`: each replication's serving RSU and the VUs counted
  between its two midpoints) and the statistic of each replication.
  Only the coverage statistic, which needs every RSU's activity, places
  every VU in its cell (`_occupancy`).

A replication's statistic depends on its own stream alone, so results
are bit-reproducible for a fixed master seed and replication count, and
memory grows with `CHUNK`, not with the replication count.  RSUs are a
1D Poisson process, VUs either a Poisson process (N-PTS) or a Matern
cluster process of platoons (PTS), with the typical VU's own platoon
added under Palm conditioning.  Rayleigh fading is not sampled: the
success probability of each geometry is its exact average over the
fading.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import NetworkParams, platooned, replication_rng
from .mcp_counts import DiscretePMF
from .coverage import RadioParams
from .numerics import NumericsError


# Simulation half-width in mean RSU cells (1 / lambda_r) on each side
WINDOW_CELLS = 10.0

# Replications reduced together.  A chunk's arrays, about 4 kB per
# replication of a coverage run at the default point, set the memory of a
# run; at this size the per-chunk numpy calls cost little per replication.
CHUNK = 256

# Most RSUs and VUs expected in one replication's window.  A chunk holds
# CHUNK windows at a peak of about 50 bytes of arrays per point, so this
# keeps a chunk near 250 MB; the windows of the tests and the benchmark
# hold at most about 160 points.
MAX_WINDOW_POINTS = 20_000


def _is_int(value):
    # Python counts a bool as an int; it is no count and no seed
    return isinstance(value, numbers.Integral) and not isinstance(value,
                                                                  bool)


@dataclass(frozen=True)
class SimConfig:
    replications: int = 10_000
    master_seed: int = 2024

    def __post_init__(self):
        # every estimate reports a standard error, which needs two
        if not (_is_int(self.replications) and self.replications >= 2):
            raise ValueError("replications must be an integer of at least "
                             f"2, not {self.replications!r}")
        if not (_is_int(self.master_seed) and self.master_seed >= 0):
            raise ValueError("master_seed must be a non-negative integer, "
                             f"not {self.master_seed!r}")


@dataclass(frozen=True)
class SimEstimate:
    value: float
    std_error: float
    n: int


def _half_width(params: NetworkParams):
    """Simulation half-width (m)."""
    return WINDOW_CELLS / params.lambda_r


def _check_window(traffic, params, half, rsus=True):
    """Raise NumericsError unless the VUs, and with `rsus` the RSUs,
    expected in the window [-half, half] number at most
    MAX_WINDOW_POINTS; PTS counts the members of every platoon drawn, on
    the a-dilated window."""
    vus = params.lambda_p * params.m * (2 * half + 2 * params.a) \
        if platooned(traffic) else params.lam * 2 * half
    points = vus + (params.lambda_r * 2 * half if rsus else 0.0)
    if not points <= MAX_WINDOW_POINTS:  # an infinite window fails too
        raise NumericsError(
            f"a Monte Carlo window of half-width {half:.3g} m holds "
            f"{points:.3g} expected RSUs and VUs, past {MAX_WINDOW_POINTS}")


def _replicate(cfg: SimConfig, draw, reduce):
    """reduce(draws) of each chunk of at most CHUNK consecutive
    replications, concatenated in replication order; `draws` lists
    draw(rng) of each replication of the chunk, on its own stream."""
    return np.concatenate([
        reduce([draw(replication_rng(cfg.master_seed, rep))
                for rep in range(lo, min(lo + CHUNK, cfg.replications))])
        for lo in range(0, cfg.replications, CHUNK)])


def _mean_estimate(x):
    x = np.asarray(x, dtype=float)
    return SimEstimate(float(x.mean()),
                       float(x.std(ddof=1) / math.sqrt(x.size)), x.size)


def _empirical_pmf(counts):
    masses = np.bincount(counts) / len(counts)
    return DiscretePMF(masses, tail_mass=0.0)


def _flat(parts):
    """The arrays `parts`, one per replication of a chunk, as one array,
    and the replication (index into `parts`) of each element."""
    sizes = np.fromiter(map(len, parts), np.intp, len(parts))
    return np.concatenate(parts), np.repeat(np.arange(len(parts)), sizes)


def _uniform(lo, hi, u):
    """rng.uniform(lo, hi) from the rng.random() variates u of the same
    stream: numpy computes lo + (hi - lo) * u, and so does this."""
    return lo + (hi - lo) * u


def _draw_rsus(params, half, rng, at_least_one):
    """The sorted variates of the RSUs of a Poisson process on
    [-half, half] (`_uniform(-half, half, u)` places them); with
    `at_least_one`, redrawn while there are none."""
    while True:
        u = rng.random(rng.poisson(params.lambda_r * 2 * half))
        # an empty draw has vanishing probability at sane windows
        if u.size or not at_least_one:
            u.sort()
            return u


def _draw_vus(traffic, params, half, rng, palm):
    """The VU variates of one replication on [-half, half], in the order
    drawn.  N-PTS: the positions.  PTS: the platoon parents (on the
    a-dilated window), their sizes and the members' offsets; under Palm
    conditioning then the typical VU's offset x0 and its siblings'
    offsets from its parent.  Positions and offsets are rng.random()
    variates, placed by `_vus`.  Only PTS reads `palm`: by Slivnyak's
    theorem the Palm N-PTS draw is the plain Poisson draw."""
    if not platooned(traffic):
        return (rng.random(rng.poisson(params.lam * 2 * half)),)
    a = params.a
    parents = rng.random(rng.poisson(params.lambda_p * (2 * half + 2 * a)))
    sizes = rng.poisson(params.m, parents.size)
    members = sum(sizes.tolist())
    if not palm:
        return parents, sizes, rng.random(members)
    # the members' offsets and x0 are consecutive variates of the stream:
    # one call draws both
    u = rng.random(members + 1)
    return parents, sizes, u[:-1], float(u[-1]), rng.random(
        rng.poisson(params.m))


def _vus(traffic, params, half, draws):
    """VU positions of a chunk from its replications' `_draw_vus`, and
    the replication of each; under Palm conditioning the typical VU at
    the origin is left out (its own platoon is included)."""
    fields = tuple(zip(*draws))
    if not platooned(traffic):
        vus, rep = _flat(fields[0])
        return _uniform(-half, half, vus), rep
    a = params.a
    parents, rep = _flat(fields[0])
    sizes = np.concatenate(fields[1])
    vus = np.repeat(_uniform(-half - a, half + a, parents), sizes) \
        + _uniform(-a, a, np.concatenate(fields[2]))
    inside = (vus >= -half) & (vus <= half)
    vus, rep = vus[inside], np.repeat(rep, sizes)[inside]
    if len(fields) == 3:
        return vus, rep
    offsets, sib_rep = _flat(fields[4])
    sibs = _uniform(-a, a, np.array(fields[3]))[sib_rep] \
        + _uniform(-a, a, offsets)
    inside = np.abs(sibs) <= half
    return (np.concatenate([vus, sibs[inside]]),
            np.concatenate([rep, sib_rep[inside]]))


def _key(rep, x):
    """rep + i x: numpy orders complex numbers by real part, then by
    imaginary part, so these sort by replication, then by position,
    with no rounding."""
    key = np.empty(x.size, complex)
    key.real, key.imag = rep, x
    return key


def _association(rsus, rsu_rep, vus, vu_rep):
    """Nearest-RSU association of a chunk whose RSUs are sorted within
    each replication, every replication having one: the index of the RSU
    nearest the origin in each replication (the first of equal distances
    in sorted order) and the number of VUs it serves.  A VU x of
    replication r is in the cell of r's RSU s exactly when
    m(s-1) < x <= m(s), for the midpoints m(s) = 0.5 (rsus[s] +
    rsus[s + 1]) of r and -inf, inf at r's ends: where `_occupancy`
    places it."""
    dist = np.abs(rsus)
    first = np.searchsorted(rsu_rep, np.arange(rsu_rep[-1] + 1))
    ties = np.flatnonzero(
        dist == np.minimum.reduceat(dist, first)[rsu_rep])
    serving = ties[np.searchsorted(ties, first)]
    last = np.append(first[1:], rsus.size) - 1
    # a neighbour index past r's ends (or the array's) is masked
    lo = np.where(serving > first,
                  0.5 * (rsus[serving - 1] + rsus[serving]), -np.inf)
    hi = np.where(serving < last, 0.5 * (
        rsus[serving] + rsus[np.minimum(serving + 1, last)]), np.inf)
    inside = (lo[vu_rep] < vus) & (vus <= hi[vu_rep])
    return serving, np.bincount(vu_rep[inside], minlength=serving.size)


def _occupancy(rsus, rsu_rep, vus, vu_rep):
    """The number of VUs each RSU of an `_association` chunk serves (cells
    bounded by the midpoints)."""
    same = rsu_rep[1:] == rsu_rep[:-1]
    bounds = _key(rsu_rep[1:][same], (0.5 * (rsus[:-1] + rsus[1:]))[same])
    # each earlier replication has one bound fewer than RSUs, so a VU's
    # place among the bounds plus its replication is its RSU's index
    cell = np.searchsorted(bounds, _key(vu_rep, vus)) + vu_rep
    return np.bincount(cell, minlength=rsus.size)


def _draw_geometry(traffic, params, half, rng, palm):
    """RSU, then VU variates of one replication.  Without `palm` an RSU
    sits at the origin (Slivnyak), which `_cells` adds; under Palm
    conditioning the typical VU sits there, and the RSUs are redrawn
    until there is one to serve it."""
    return (_draw_rsus(params, half, rng, at_least_one=palm),
            _draw_vus(traffic, params, half, rng, palm))


def _cells(traffic, params, half, draws, palm):
    """RSU positions and the replication of each, VU positions and the
    replication of each, and their `_association` (serving RSU, load), of
    a chunk of `_draw_geometry` draws."""
    rsus, rep = _flat([rsus for rsus, _ in draws])
    rsus = _uniform(-half, half, rsus)
    if not palm:
        # the origin RSU goes after its replication's negative RSUs
        n = len(draws)
        at = np.searchsorted(rep, np.arange(n)) \
            + np.bincount(rep[rsus < 0], minlength=n)
        rsus, rep = np.insert(rsus, at, 0.0), np.insert(rep, at,
                                                        np.arange(n))
    vus, vu_rep = _vus(traffic, params, half, [vus for _, vus in draws])
    return (rsus, rep, vus, vu_rep) + _association(rsus, rep, vus, vu_rep)


def sim_load(kind, traffic, params: NetworkParams, cfg: SimConfig):
    """Empirical load PMF.

    kind="typical" uses Slivnyak conditioning (RSU at the origin);
    kind="tagged" uses Palm conditioning (typical VU at the origin,
    served by the nearest RSU; the typical VU itself is not counted).
    """
    if kind not in ("typical", "tagged"):
        raise ValueError(f"unknown kind {kind!r}")
    half = _half_width(params)
    _check_window(traffic, params, half)
    palm = kind == "tagged"

    def reduce(draws):
        return _cells(traffic, params, half, draws, palm)[-1]
    return _empirical_pmf(_replicate(
        cfg, lambda rng: _draw_geometry(traffic, params, half, rng, palm),
        reduce))


def sim_connectivity(traffic, v2v, cfg: SimConfig):
    """Empirical connectivity-degree PMF: other VUs within R_b/2 of the
    typical VU at the origin."""
    params = v2v.params
    r = v2v.r_b / 2.0
    half = r + 2 * params.a  # communication range plus cluster reach
    _check_window(traffic, params, half, rsus=False)

    def reduce(draws):
        vus, rep = _vus(traffic, params, half, draws)
        return np.bincount(rep[np.abs(vus) <= r], minlength=len(draws))
    return _empirical_pmf(_replicate(
        cfg, lambda rng: _draw_vus(traffic, params, half, rng, palm=True),
        reduce))


def _interference_reach(params, radio):
    """Distance beyond which the mean residual interference of all-active
    RSUs is below 1e-6 * sigma^2 (power-law tail bound); inf past the
    largest float."""
    lead = 2 * params.lambda_r * radio.p_t / (radio.alpha - 1)
    try:
        return (lead / (1e-6 * radio.sigma2)) ** (1.0 / (radio.alpha - 1))
    except OverflowError:
        return math.inf


def _coverage_profile(threshold, traffic, params, radio: RadioParams,
                      cfg: SimConfig):
    """Per-geometry success probability of the typical VU at the SINR
    threshold `threshold(load)` (elementwise over an array of loads);
    `load` is the number of other VUs its RSU serves.  Under Rayleigh
    fading it is exact given the geometry: exp(-tau r^alpha / snr) times
    1 / (1 + tau (r/d)^alpha) for each active interferer at distance d."""
    half = max(_half_width(params), _interference_reach(params, radio))
    _check_window(traffic, params, half)

    def reduce(draws):
        rsus, rep, vus, vu_rep, serving, load = _cells(
            traffic, params, half, draws, palm=True)
        tau = np.broadcast_to(threshold(load), load.shape)
        r = np.abs(rsus[serving])
        active = _occupancy(rsus, rep, vus, vu_rep) > 0
        active[serving] = False  # the serving RSU never interferes
        rep = rep[active]
        ratio = tau[rep] * (r[rep] / np.abs(rsus[active]))**radio.alpha
        return np.exp(-tau * r**radio.alpha / radio.snr
                      - np.bincount(rep, np.log1p(ratio),
                                    minlength=len(draws)))
    return _replicate(
        cfg, lambda rng: _draw_geometry(traffic, params, half, rng, True),
        reduce)


def _rate_profile(tau_rate, traffic, params, radio, cfg):
    # the typical VU shares its RSU with the `load` others: load + 1 users
    return _coverage_profile(
        lambda load: radio.rate_threshold(tau_rate, load + 1),
        traffic, params, radio, cfg)


def sim_coverage(tau, traffic, params, radio, cfg) -> SimEstimate:
    """Monte Carlo SINR coverage probability with true dependent
    RSU thinning."""
    return _mean_estimate(_coverage_profile(lambda load: tau, traffic,
                                            params, radio, cfg))


def sim_md_coverage(tau, x, traffic, params, radio, cfg) -> SimEstimate:
    """Monte Carlo meta distribution: fraction of geometries whose
    conditional coverage probability exceeds x."""
    return _mean_estimate(_coverage_profile(lambda load: tau, traffic,
                                            params, radio, cfg) > x)


def sim_rate(tau_rate, traffic, params, radio, cfg) -> SimEstimate:
    """Monte Carlo rate coverage using the actual tagged-cell load."""
    return _mean_estimate(_rate_profile(tau_rate, traffic, params, radio,
                                        cfg))


def sim_md_rate(tau_rate, x, traffic, params, radio, cfg) -> SimEstimate:
    """Monte Carlo meta distribution of the rate coverage."""
    return _mean_estimate(_rate_profile(tau_rate, traffic, params, radio,
                                        cfg) > x)
