"""Network parameterization, replication RNG streams and the cell-length
laws of the 1D Poisson Voronoi tessellation.

All densities are per meter.  Point patterns are sampled by the Monte
Carlo engine (`montecarlo`), which draws every replication from its own
`replication_rng` stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetworkParams:
    """Densities and geometry of the highway network.

    lambda_r : RSU density (1/m)
    lambda_p : platoon (cluster parent) density (1/m)
    m        : mean number of VUs per platoon
    a        : platoon half-width (m)
    lam      : N-PTS VU density (1/m); defaults to the effective PTS
               density m * lambda_p so both traffic models carry the same
               mean number of vehicles per unit length.
    """

    lambda_r: float
    lambda_p: float
    m: float
    a: float
    lam: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.lam is None:
            object.__setattr__(self, "lam", self.m * self.lambda_p)
        for name in ("lambda_r", "lambda_p", "m", "a", "lam"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def from_per_km(cls, lambda_r, lambda_p, m, a, lam=None):
        """Build from per-km densities (a stays in meters)."""
        return cls(lambda_r / 1e3, lambda_p / 1e3, m, a,
                   None if lam is None else lam / 1e3)


def replication_rng(master_seed, rep):
    """Independent, reproducible stream for replication `rep`."""
    return np.random.default_rng([int(master_seed), int(rep)])


# cell-length laws of the stationary 1D Poisson Voronoi tessellation

def pdf_typical_cell(ell, lambda_r):
    """Density of the typical cell length: 4 lr^2 l exp(-2 lr l)."""
    ell = np.asarray(ell, dtype=float)
    return 4 * lambda_r**2 * ell * np.exp(-2 * lambda_r * ell)


def pdf_tagged_cell(ell, lambda_r):
    """Density of the tagged (size-biased) cell length."""
    ell = np.asarray(ell, dtype=float)
    return 4 * lambda_r**3 * ell**2 * np.exp(-2 * lambda_r * ell)


def mgf_L(t, lambda_r):
    """MGF of the typical cell length, valid for t < 2 lambda_r."""
    if t >= 2 * lambda_r:
        raise ValueError("MGF requires t < 2*lambda_r")
    return 4 * lambda_r**2 / (t - 2 * lambda_r) ** 2


def mgf_L0(t, lambda_r):
    """MGF of the tagged cell length, valid for t < 2 lambda_r."""
    if t >= 2 * lambda_r:
        raise ValueError("MGF requires t < 2*lambda_r")
    return 8 * lambda_r**3 / (2 * lambda_r - t) ** 3


def pdf_serving_distance(r, lambda_r):
    """Density of the distance to the nearest RSU: 2 lr exp(-2 lr r)."""
    r = np.asarray(r, dtype=float)
    return 2 * lambda_r * np.exp(-2 * lambda_r * r)


def cell_quantile(q, lambda_r, tagged=False):
    """Quantile of the typical (Gamma(2, 1/2lr)) or tagged (Gamma(3, .))
    cell-length law; used to truncate mixture integrals."""
    from scipy.stats import gamma
    return gamma.ppf(q, 3 if tagged else 2, scale=1.0 / (2 * lambda_r))
