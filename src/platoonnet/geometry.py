"""Network parameterization, replication RNG streams and the cell-length
laws of the 1D Poisson Voronoi tessellation with their closed-form means.

All densities are per meter.  Point patterns are sampled by the Monte
Carlo engine (`montecarlo`), which draws every replication from its own
`replication_rng` stream: bit for bit `np.random.default_rng([master_seed,
rep])`, with the SeedSequence hash of a block of consecutive replications
of a one-word seed computed in one numpy pass (`_block_words`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial
from numpy.random.bit_generator import ISeedSequence
from scipy import special


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
            # written so that NaN fails the check
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")

    @classmethod
    def from_per_km(cls, lambda_r, lambda_p, m, a, lam=None):
        """Build from per-km densities (a stays in meters)."""
        return cls(lambda_r / 1e3, lambda_p / 1e3, m, a,
                   None if lam is None else lam / 1e3)


TRAFFICS = ("PTS", "NPTS")  # platooned (Matern cluster) and Poisson VUs


def platooned(traffic):
    """True for PTS, False for N-PTS traffic; any other name raises."""
    if traffic not in TRAFFICS:
        raise ValueError(f"unknown traffic {traffic!r}")
    return traffic == "PTS"


# Consecutive replications whose seed words `_block_words` hashes in one
# pass; no output depends on it.
_BLOCK = 256

# NumPy's SeedSequence (numpy/random/bit_generator.pyx): a pool of 4
# uint32 words, hashmix/mix constants, then the generate_state constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MASK32 = 0xFFFFFFFF


def _hash_constants(init, mult):
    """(c, c * mult) of each successive round, c starting at `init`:
    a round xors with c, then multiplies by the next constant."""
    while True:
        following = init * mult & _MASK32
        yield init, following
        init = following


@functools.lru_cache(maxsize=1)
def _block_words(seed, first, size):
    """SeedSequence([seed, rep]).generate_state(4, np.uint64) of the reps
    first, first + 1, ..., first + size - 1, one row each, for a seed and
    reps below 2**32 (one entropy word each).  The rounds run on uint32
    arrays with one element per rep, and numpy's uint32 arithmetic wraps
    modulo 2**32 as the C rounds do."""
    reps = np.arange(first, first + size, dtype=np.uint32)
    rounds = _hash_constants(_INIT_A, _MULT_A)

    def hashmix(value):
        xor, mult = next(rounds)
        value = (value ^ xor) * mult
        return value ^ value >> 16

    def mix(x, y):
        out = x * _MIX_L - y * _MIX_R
        return out ^ out >> 16

    # the entropy [seed, rep], padded with zeros, fills the pool; every
    # pool word is mixed into every other
    zeros = np.zeros_like(reps)
    pool = [hashmix(word)
            for word in (np.full_like(reps, seed), reps, zeros, zeros)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    state = np.empty((reps.size, 8), np.uint32)
    for i, (xor, mult) in zip(range(8), _hash_constants(_INIT_B, _MULT_B)):
        value = (pool[i % _POOL] ^ xor) * mult
        state[:, i] = value ^ value >> 16
    # pairs of words read as little-endian uint64, as SeedSequence reads
    # them, whatever the byte order of the machine
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


class _SeedWords(ISeedSequence):
    """A seed sequence whose state is given: the generate_state(4,
    np.uint64) words, all that PCG64 asks of its seed sequence."""
    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for generate_state(4, np.uint64), the type itself
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only PCG64's 4 uint64 words are given")
        return self.words


def replication_rng(master_seed, rep):
    """Independent, reproducible stream for replication `rep`: bit for bit
    np.random.default_rng([master_seed, rep]), a PCG64 seeded from the
    words of SeedSequence([master_seed, rep]).  For a seed and rep in
    [0, 2**32) those words come from the block of `_BLOCK` consecutive
    replications that holds `rep`, hashed at once; the last block is
    kept, so replications taken in order hash each block once.  Any
    other pair takes default_rng itself, which refuses a negative
    value."""
    master_seed, rep = int(master_seed), int(rep)
    if not (0 <= master_seed < 2**32 and 0 <= rep < 2**32):
        return np.random.default_rng([master_seed, rep])
    first = rep - rep % _BLOCK
    words = _block_words(master_seed, first, _BLOCK)[rep - first]
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


# cell-length laws of the stationary 1D Poisson Voronoi tessellation

def pdf_cell(ell, lambda_r, tagged=False):
    """Density 4 lr^(d+1) l^d exp(-2 lr l) of the typical (d = 1) or the
    tagged, size-biased (d = 2) cell length."""
    ell = np.asarray(ell, dtype=float)
    d = 2 if tagged else 1
    return 4 * lambda_r ** (d + 1) * ell**d * np.exp(-2 * lambda_r * ell)


def cell_average(below, above, lambda_r, a, tagged=False):
    """E[p(L)] in closed form over the typical or tagged cell length L,
    of density 4 lr^(d+1) L^d exp(-2 lr L), d = 1 or 2, for p given by
    ascending coefficients as the polynomial sum_i below[i] L^i for
    L < 2a and the Laurent polynomial sum_i above[i] L^(i - 2) for
    L > 2a.  Each power L^k of p L^d integrates against exp(-rate L),
    rate = 2 lr, to an incomplete gamma at (k + 1, 2 rate a) over
    rate^(k + 1): the lower one (F) below 2a, the upper one (G) above.
    For d = 1, above[0] must be 0: its G would need Gamma(0)."""
    if not tagged and len(above) and above[0]:
        raise ValueError("a typical cell average of L^-2 needs Gamma(0)")
    d = 2 if tagged else 1
    rate = 2 * lambda_r

    def integral(part, k):
        return part(k + 1, 2.0 * rate * a) * special.gamma(k + 1) \
            / rate ** (k + 1)

    return float(4 * lambda_r ** (d + 1) * (
        sum(c * integral(special.gammainc, i + d)
            for i, c in enumerate(below) if c)
        + sum(c * integral(special.gammaincc, i + d - 2)
              for i, c in enumerate(above) if c)))


def cell_product(p, q):
    """The product of two (below, above) pairs of `cell_average`; the
    above parts start at L^-2, so it drops the L^-4 and L^-3 terms."""
    return (polynomial.polymul(p[0], q[0]),
            polynomial.polymul(p[1], q[1])[2:])


def cell_value(ell, below, above, a):
    """p(ell), elementwise, of a p given as `cell_average` takes it."""
    hi = np.maximum(ell, 2 * a)  # keeps the unused Laurent branch finite
    return np.where(ell < 2 * a, polynomial.polyval(ell, below),
                    polynomial.polyval(hi, above) / hi**2)[()]


def cell_quantile(q, lambda_r, tagged=False):
    """Quantile of the typical (Gamma(2, 1/2lr)) or tagged (Gamma(3, .))
    cell-length law; used to truncate mixture integrals."""
    return special.gammaincinv(3 if tagged else 2, q) * (1.0 / (2 * lambda_r))
