"""The one registry of output bits that must not move, and the tool that
says how far they moved against another git revision.

PINS maps a pin name to (producer, recorded).  producer() computes the
pinned value from the platoonnet on sys.path, and recorded is
record(producer()) as it was when the pin was set: `float.hex` of a
float, the int itself (an FFT size), the sha256 of the bytes of an array
or of a CSV file.  tests/test_pins.py checks every entry.  A PR may move
a pinned value only when that is its point; it then updates the entry and
states the size of the change, which

    python tests/pins.py REV

prints.  It extracts src/ at REV with `git archive` into a temporary
directory, runs every producer there in a subprocess and here (this
checkout's src/) in-process, and prints one line per pin: unchanged;
moved, with how many values moved and the largest absolute, relative
and ulp change (a CSV compares its numeric cells); or missing at REV.
It exits 1 if a pin moved or failed here.  Its first line names numpy's
version and the SIMD target its float64 exp, log, expm1 and log1p loops
run on (`simd_path`): the digests recorded in PINS hold on one target
only (ROADMAP item 14), while the report compares both revisions on the
same one.  On an AVX-512 host,

    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \
        python tests/pins.py REV

compares them on the X86_V3 (AVX2) path, as an x86-64 host without
AVX-512 runs them: the setting reaches the subprocess too.

Producers import their platoonnet names inside their own bodies, so a
name that a later revision renames fails only its own pin at an older
REV.  `figure 9` alone is not pinned: it takes about 20 s, and the
pinned CSVs about 8 s together, 4 s of it the `md_rate_pts` and
`md_rate_npts` ops.
"""

import hashlib
import io
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def record(value):
    """What a pin records of its value: float.hex of a float, an int
    itself, the sha256 of an array's or a CSV file's bytes."""
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    if isinstance(value, np.ndarray):
        return hashlib.sha256(value.tobytes()).hexdigest()
    if isinstance(value, float):
        return float.hex(value)
    return int(value)


# ------------------------------------------------------------ producers

_LAW = {False: "typical", True: "tagged"}


def _params(u, a):
    from platoonnet.geometry import NetworkParams
    return NetworkParams.from_per_km(2.0, 1.0, u, a)


def fft_masses(u, a, tagged):
    from platoonnet.load import _pts_masses
    return _pts_masses(_params(u, a), tagged)


def chernoff_log_pgfs(u, a, tagged):
    """The per-node kernel's conditional log-PGFs at the Chernoff radii,
    over every block of the mixture nodes in order; the Chernoff stage
    reads them on the nodes below t1 only."""
    from platoonnet.load import _BLOCK, _RHO, _log_pgf_given, _mixture
    params = _params(u, a)
    # all five names: at a REV whose _mixture returns (edges, nodes,
    # weights) the pin is missing, not computed on the edges
    nodes, _, _, _, _ = _mixture(params, tagged)
    return np.concatenate([
        _log_pgf_given(_RHO, nodes[i:i + _BLOCK, None], params, tagged)
        for i in range(0, nodes.size, _BLOCK)])


def chernoff_log_g(u, a, tagged):
    """log G(rho) at the Chernoff radii, as the Chernoff stage of
    `_pts_masses` sums it."""
    from platoonnet.load import _chernoff_log_g, _mixture
    params = _params(u, a)
    nodes, wts, kept, t1, _ = _mixture(params, tagged)
    return _chernoff_log_g(nodes, wts, kept, t1, params, tagged)


def fft_size(u, a, tagged):
    from platoonnet.load import _pts_masses
    return _pts_masses(_params(u, a), tagged).size


def active_prob_pts(u, a):
    from platoonnet.coverage import active_prob
    return float(active_prob("PTS", _params(u, a)))


def g_at_zero(u, a, r):
    from platoonnet.mcp_counts import g_of
    return float(g_of(0.0, r, _params(u, a)))


def row_blocks(params, rows):
    """Blocks of `rows` cell lengths: all below t = 2a (the shortest
    cells keep mu0 (s - 1) in the pgf_vm series band on most columns),
    all past 2a, and straddling 2a."""
    a2 = 2 * params.a
    below = np.geomspace(0.05, 0.99 * a2, rows)
    past = np.linspace(1.01 * a2, 6 * a2, rows)
    half = rows // 2
    return [below[:, None], past[:, None],
            np.concatenate([below[::2][:half], past[:rows - half]])[:, None]]


def _kernel(name, params):
    """The FFT kernel `name` as a function of (s, cell length t)."""
    from platoonnet.load import _log_pgf_given, _pgf_given, pgf_vm
    from platoonnet.mcp_counts import g_of
    return {"g_of": lambda s, t: g_of(s, t / 2.0, params),
            "pgf_vm": lambda s, t: pgf_vm(s, t, params),
            "typical": lambda s, t: _pgf_given(s, t, params, False),
            "tagged": lambda s, t: _pgf_given(s, t, params, True),
            "log tagged": lambda s, t: _log_pgf_given(s, t, params, True),
            }[name]


def kernel_at_roots(name, u, a, N, rows):
    """The kernel `name` at the upper N-th roots of unity over each of the
    row_blocks, stacked."""
    params = _params(u, a)
    roots = np.exp(-2j * np.pi * np.arange(N // 2 + 1) / N)
    kernel = _kernel(name, params)
    return np.concatenate([kernel(roots, t)
                           for t in row_blocks(params, rows)])


def kernel_near_one(name, real):
    """The kernel `name` (u = 35, a = 150 m), flattened and joined over
    the cases with real (or complex) s: points in the g_of Taylor band
    |s - 1| < 1e-6 and the pgf_vm series band from every side of s = 1,
    and the Chernoff radii, on the row_blocks of 32 cells; s = 1, 0.5 and
    0.3 + 0.4i on the first two blocks; and scalar cell lengths.  The
    tagged PGF takes every s but the radii, and its log the radii alone:
    the Chernoff stage's form, where exp(g) overflows."""
    from platoonnet.load import _RHO
    params = _params(35.0, 150.0)
    near = 1.0 + np.geomspace(1e-9, 0.1, 600) * np.exp(
        1j * np.linspace(0.0, 2 * np.pi, 600))
    blocks = row_blocks(params, 32)
    cases = [(s, t) for t in blocks for s in (near, _RHO)]
    cases += [(s, t) for t in blocks[:2] for s in (1.0, 0.5, 0.3 + 0.4j)]
    cases += [(s, t) for t in (0.05, 150.0, 1800.0)
              for s in (near, 1.0, 0.3 + 0.4j)]
    if name == "tagged":
        cases = [(s, t) for s, t in cases if s is not _RHO]
    if name == "log tagged":
        cases = [(s, t) for s, t in cases if s is _RHO]
    kernel = _kernel(name, params)
    return np.concatenate([np.ravel(kernel(s, t)) for s, t in cases
                           if np.isrealobj(s) == real])


# dense in (0, 1], then to 8,192; every t is exact in binary
MOMENT_T = [k / 64 for k in range(1, 65)] + [
    m * 2.0**e for e in range(13) for m in (1.0, 1.25, 1.5, 1.75)
][1:] + [8192.0]
META_OBJECTS = ("tau=0.9 PTS", "tau=0.9 NPTS", "k=0", "k=3")


def coverage_meta(name):
    """The meta_sweep benchmark object `name` (u = 35, a = 150 m): tau =
    0.9 for both traffics (alpha = 3.5), or the rate-mapped threshold of
    the load term k (alpha = 4)."""
    from platoonnet.coverage import CoverageMeta, RadioParams
    radio, radio4 = RadioParams(1.0, 5e-5, 3.5), RadioParams(1.0, 5e-5, 4.0)
    tau, traffic, radio = {
        "tau=0.9 PTS": (0.9, "PTS", radio),
        "tau=0.9 NPTS": (0.9, "NPTS", radio),
        "k=0": (radio4.rate_threshold(9e6, 1), "PTS", radio4),
        "k=3": (radio4.rate_threshold(9e6, 4), "PTS", radio4),
    }[name]
    return CoverageMeta(tau, traffic, _params(35.0, 150.0), radio)


def moments_it(name):
    meta = coverage_meta(name)
    return np.array([meta.moment(1j * t) for t in MOMENT_T])


def moments_q(name):
    meta = coverage_meta(name)
    return np.array([meta.moment(q) for q in (0.5, 1, 2, 3)])


def md_at(name, x):
    return float(coverage_meta(name).md(x))


# two full chunks of montecarlo.CHUNK = 256 replications and a short one
MC_REPLICATIONS, MC_SEED = 600, 2024


def sim_load_masses(kind, traffic):
    from platoonnet.montecarlo import SimConfig, sim_load
    return sim_load(kind, traffic, _params(5.0, 100.0),
                    SimConfig(MC_REPLICATIONS, MC_SEED)).masses


def sim_connectivity_masses(traffic):
    from platoonnet.connectivity import V2VParams
    from platoonnet.montecarlo import SimConfig, sim_connectivity
    return sim_connectivity(traffic, V2VParams(200.0, _params(5.0, 100.0)),
                            SimConfig(MC_REPLICATIONS, MC_SEED)).masses


def csv(*argv):
    """The bytes of the CSV that `platoonnet *argv` writes."""
    from platoonnet.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out.csv")
        main([*argv, "--out", str(out)])
        return out.read_bytes()


# ----------------------------------------------------------------- pins

PINS = {}

# The FFT load masses, the mixture log-PGF log G at the Chernoff radii
# that sets their size, and that size, at every PTS point of the
# load_sweep benchmark (2 RSUs and 1 platoon per km); the size at u also
# at a = 50, 100, 150 and 300 m.  The masses moved at roundoff (by at
# most 2.2e-16 per mass) when the share of the cell lengths past the kink
# panel became a closed form, and were recorded again; the nodes below
# the kink take the per-node kernel, whose bits the kernel pins below
# hold.  log G moved at roundoff (by at most 9.3e-16 relative, 8 ulp)
# when the Chernoff stage took the linear form past the kink too, and was
# recorded again; N did not move.
# The conditional log-PGFs of LOG_PGF_SHA256 are the per-node kernel's
# over every mixture node, in blocks of 32 nodes: the Chernoff stage
# reads that kernel on the nodes below t1 only.  Retired by ROADMAP item
# 3, whose graded rule on [0, 2a] moves the masses by up to 1.9e-8.
FFT_MASS_SHA256 = {
    (5.0, 100.0, False):
        "7871d68219c350c8121dfeafa4aef2be2d5e379b2f53e67dbc36eac4b51b1f78",
    (5.0, 100.0, True):
        "6b238c04a74d745d0bf1f68e4ed131ecd420fad5b2c6dc78e0a17f2e749ccc12",
    (15.0, 100.0, False):
        "07a5a04d38c9927895a736f7f9e065820b735e9e6cfa255fe9d637712bed592d",
    (15.0, 100.0, True):
        "904aa7c4f6905201589d07d43e1c9cb9c950e29e062c6b5928e53f0fc59ef05f",
    (25.0, 100.0, False):
        "4a04db7e11627658bb7032be38fde5ec5af0dd07da7b90080ca891d9fd0f60ce",
    (25.0, 100.0, True):
        "67392ee68b061078f11da40bfa409dfb93bd3906e79ae21c83ba6d75548840ac",
    (35.0, 100.0, False):
        "59116a8601578136135dbacad4f8944be85489b6589a4412d5ea6b10623a5cb1",
    (35.0, 100.0, True):
        "727bc62ccd6b7ce69686ae7f6cfba3725b5a492ec851df87a7b7bebae1943eab",
    (5.0, 150.0, True):
        "c31259f858de2287c2b516dcfa45ef4576a7f8214ae305bc421b45ef494791ee",
    (35.0, 150.0, True):
        "b7dba0e9402333a5dd17489677026d74a24b1b3a5eda65c2f04cbb4c00feb68c",
    (50.0, 150.0, True):
        "9a9b0457ffaa823470e4947086e961d5825aafec5e33189c2dde711e7088fe3a",
}
LOG_PGF_SHA256 = {
    (5.0, 100.0, False):
        "4a13c6dfc936368bba178ad498b4a04f63b51d4cf65afaeb8a54e299bd041ef0",
    (5.0, 100.0, True):
        "327f2d373cfc769dc2c36397147f1947cf6f92722dcfaa331727e3e0cbfa004e",
    (15.0, 100.0, False):
        "2233479fa4ef21abe613ac1217be9563df88db3cd392b048f250c950c6109529",
    (15.0, 100.0, True):
        "aec7fa9c2f8672e326ed47a4c86020e21b1439b61c030fd93c02b7bb94df838c",
    (25.0, 100.0, False):
        "0b301d543c37e2c68639f5852a0582f557178eb6fc80afa6e48fdfe7f1886c95",
    (25.0, 100.0, True):
        "cbaa3f287456078eec6adb9af059232adfe5849fa494241cfde1907a4e2ea16b",
    (35.0, 100.0, False):
        "6b0dc9b3279464117f18c6c50f6382ce34521c541219292866f3d8bfadd4fdaf",
    (35.0, 100.0, True):
        "ac373e31f0ce94a27e22e1b241797d54ceeff951ae1b79c69f5dd39f285e61b1",
    (5.0, 150.0, True):
        "614f1735360c320235619e9a9de08df327faa70811bc971474b3e9b55a56ad39",
    (35.0, 150.0, True):
        "42edd3d7a94b6d2f45455afc574187c605c62ccb1b16a09adfde49b3591a8a3b",
    (50.0, 150.0, True):
        "7c4af969c90701133bd914a17c3acdf0868ec739ccc37ef55863c05bd8d18c40",
}
CHERNOFF_LOG_G_SHA256 = {
    (5.0, 100.0, False):
        "ef7cc28bdf862293e5454c06adad42c7ccdb512b485b681e210fe440eef21330",
    (5.0, 100.0, True):
        "f155b566b5ea5a62630b91664ea2ea35012d95b2fc59b9a5765a80e0b118bd06",
    (15.0, 100.0, False):
        "d9270da5f49bb309ab4ade1ecbebfcb7cbe0985ff89371d6920ab34a9677c863",
    (15.0, 100.0, True):
        "ece0343168f5e85ae00ddaffbf30f716809dbef9a06e3dc2c57a71fc9804a438",
    (25.0, 100.0, False):
        "67652b6221f572ffbbd8974a66fa52472b6879ce461e4bc6e6c8f9d63e01af77",
    (25.0, 100.0, True):
        "d837359c80a7bdd9c7bbc4ccd7555b765b1ebf37eb30b0b30b2a86b2353cc1c3",
    (35.0, 100.0, False):
        "0d6451e6f855bf8e0143fb6b0f0374310e232b53c005cac146b83ce5d025e650",
    (35.0, 100.0, True):
        "dc8c122ac30eb8007e4dcd0d56faa7044309e24470d4b0e9b36258c3023f17b7",
    (5.0, 150.0, True):
        "6bbb7c514be133e8691823a6afb82c2927109bb5d2fb3a489fcbda1b82ccc529",
    (35.0, 150.0, True):
        "6be90694a8dcf6ec22a808c007bf67144e1a12cd59df7455f3feebde4fb4bb10",
    (50.0, 150.0, True):
        "731c3b94d46a2d25cb1c56c6faa851a73457b2e20cc49b85d008dc943fa95079",
}
# by u: (typical, tagged)
FFT_SIZE = {1.2: (64, 64), 2.0: (64, 128), 5.0: (128, 256),
            10.0: (256, 512), 15.0: (512, 512), 20.0: (512, 512),
            25.0: (1024, 1024), 30.0: (1024, 1024), 35.0: (1024, 1024),
            50.0: (2048, 2048), 60.0: (2048, 2048)}
for (u, a, tagged), digest in FFT_MASS_SHA256.items():
    PINS[f"fft masses u={u:g} a={a:g} {_LAW[tagged]}"] = (
        partial(fft_masses, u, a, tagged), digest)
for (u, a, tagged), digest in LOG_PGF_SHA256.items():
    PINS[f"chernoff log-pgfs u={u:g} a={a:g} {_LAW[tagged]}"] = (
        partial(chernoff_log_pgfs, u, a, tagged), digest)
for (u, a, tagged), digest in CHERNOFF_LOG_G_SHA256.items():
    PINS[f"chernoff log-g u={u:g} a={a:g} {_LAW[tagged]}"] = (
        partial(chernoff_log_g, u, a, tagged), digest)
for u, sizes in FFT_SIZE.items():
    for tagged in (False, True):
        for a in (50.0, 100.0, 150.0, 300.0):
            PINS[f"fft size u={u:g} a={a:g} {_LAW[tagged]}"] = (
                partial(fft_size, u, a, tagged), sizes[tagged])

# The FFT kernel (g_of, pgf_vm and the conditional PGF of each load) at
# the roots of unity over the row_blocks, for N = 512, 1024 and 2048 and
# 24 or 32 rows: 24 x 513 complex blocks fall short of the 256 KiB from
# which numpy computes e * (temporary) in place as (temporary) * e, which
# moves the last bit of a complex product, and 32 x 513 reach it.  Also
# the kernel near s = 1, on scalars and at the Chernoff radii
# (kernel_near_one).  They hold the bits of the nodes below the kink that
# the FFT masses sum, and retire with those pins by ROADMAP item 3.
KERNEL_ROOTS_SHA256 = {
    ("typical", 5.0, 100.0, 512, 24):
        "1953eeff98e98d75a8553313285b1b78943fc3ac0e7325bd2b5bc10fbd9b211d",
    ("typical", 5.0, 100.0, 512, 32):
        "b1fe380346c81e52e5f45cf3c6ec8f702ed7eeb16eca273d91e85f60573c0601",
    ("typical", 5.0, 100.0, 1024, 24):
        "1697ef42584bcbde2bc8b52411d0b126a8724669c34a17c80e0b7b42271b27ad",
    ("typical", 5.0, 100.0, 1024, 32):
        "6dc8598824f4a73d4d5099d7910211cf1cc9a6e0d8ba9e7182671a90db853e5f",
    ("typical", 5.0, 100.0, 2048, 24):
        "c2660067e26b1f45184bbf256e40dd2bbc2bb2e6477470376cf5802d2d510ee0",
    ("typical", 5.0, 100.0, 2048, 32):
        "dde146ab056aba082386e35d2a77a4e219b299b10b341d40d2afe7234e91861c",
    ("typical", 35.0, 150.0, 512, 24):
        "9ec1969abaf20a927400e27b469c40fb14d35eb059ad8f14a25376b0d1a68b6d",
    ("typical", 35.0, 150.0, 512, 32):
        "e4fff08f94c205938d0a1b8573d80ff27abb7f95746f6428b2d7c08eb51a602b",
    ("typical", 35.0, 150.0, 1024, 24):
        "855e071e75b03bbb42df378b7adaac3fa6ce6e584e05886eb3009d23c0612584",
    ("typical", 35.0, 150.0, 1024, 32):
        "747b8ea1dcc234512793ca1bfd5a834b714199d3092c0c4c31c79477814a34f4",
    ("typical", 35.0, 150.0, 2048, 24):
        "f028d590e90383c88dbcb1dd57db2d07c1209529dd9aa6852aac5809f59b2dca",
    ("typical", 35.0, 150.0, 2048, 32):
        "fcf81b4a64fcdf019b21fb70b114b41245bb51a26e082940d06c3368e8a2ec4d",
    ("tagged", 5.0, 100.0, 512, 24):
        "9d238bd46b9086019a0e9dbeeeee061856e9d62445c79c92b45d35e05dfe9a6f",
    ("tagged", 5.0, 100.0, 512, 32):
        "31d04aa2b666c75417cbf0045193ca3b0883d37aa669f6a78149d72913b03777",
    ("tagged", 5.0, 100.0, 1024, 24):
        "7545b8fb15abaecdd1cfe91cb4bc20f8ab5246ca9f46248cefca2d838116a26f",
    ("tagged", 5.0, 100.0, 1024, 32):
        "ca7dba1bd6c00485527919b61fac9d3e9fdeae565839b44f980ef5a129b7c963",
    ("tagged", 5.0, 100.0, 2048, 24):
        "528364e37f894642e14d79c7c4f7ec324d5f18aaa6c0645ae4b41d4593e1cb79",
    ("tagged", 5.0, 100.0, 2048, 32):
        "9c443cf99776ee50e903b7977bd6777c131658a77baad1e44733ab9988a8c5ad",
    ("tagged", 35.0, 150.0, 512, 24):
        "448fecbcd3f008422030b746778321e94ea6ea5dd2953fb5bb9e85e348c6e915",
    ("tagged", 35.0, 150.0, 512, 32):
        "1a36e455f8eb507c48adc1257a58a896aff0714a09b2cd9a365f83418d88dcf8",
    ("tagged", 35.0, 150.0, 1024, 24):
        "de5df2c0f032ec7935f29dbc76e4d80ac0267ea509c70a550b1032726a938f6e",
    ("tagged", 35.0, 150.0, 1024, 32):
        "9285a48c77b5bb0b508a859a451219603c559ceb96deb1c0593a191901b365df",
    ("tagged", 35.0, 150.0, 2048, 24):
        "1e5f836a43640f7ded580c5c4b788b39bcd9183d963c579ec01d2138117c1a12",
    ("tagged", 35.0, 150.0, 2048, 32):
        "1e2faf65840beb093eedc3ca73798f8a0198adcd653ceb3f8982c269ddfbf289",
    ("g_of", 5.0, 100.0, 512, 24):
        "4f813bef4b7a5b33b0c7a7bafa0994ea26ae77d40b64413ec99f0dc615e2189e",
    ("g_of", 5.0, 100.0, 512, 32):
        "e9eecdc61742e54d3c49bf7e742da6ba19fc577d8f58c38394244f9b0c6000f6",
    ("g_of", 5.0, 100.0, 1024, 24):
        "6b751832e33f5f3a8d9baa85b1781aec6e30430ca4e33d7a2c442a917177701e",
    ("g_of", 5.0, 100.0, 1024, 32):
        "bbe0d24e4e8ed4d48cf3d8a1219fe61a2b448520fd4c5dc12db19a54c106363d",
    ("g_of", 5.0, 100.0, 2048, 24):
        "e8bf8da250b4ce8109fe46b5ac0b6dcb7154817a1d9abf2327b0c854f837d59e",
    ("g_of", 5.0, 100.0, 2048, 32):
        "c98fab5532bedae93d7a633e4940b78b31134324a53d84bd72c8b9847e16c484",
    ("g_of", 35.0, 150.0, 512, 24):
        "6cf4fef454cd247054ff8138abc301cd1cedbc89246efcd07e95a576dce6c433",
    ("g_of", 35.0, 150.0, 512, 32):
        "d7a92a2cb71bc395e11d71c860341883f72869d59665547ce62ac20be7c4a580",
    ("g_of", 35.0, 150.0, 1024, 24):
        "b845026ac167f345e75914d686562c4e303c0c4bb25d7aa20931874bedc90833",
    ("g_of", 35.0, 150.0, 1024, 32):
        "ecffb8a6bb06efba3aed7377d81033c60c5f40b92a96a4b2ab54b507be33a59c",
    ("g_of", 35.0, 150.0, 2048, 24):
        "11456befb0ef6165318d8dbf7028f5569ae3f0be1774df7698f4bffab8a447eb",
    ("g_of", 35.0, 150.0, 2048, 32):
        "c9bcc33562cf9f44ac1a837a073b55a7af0ba74879068e83346d81917143ba2c",
    ("pgf_vm", 5.0, 100.0, 512, 24):
        "855511794803879c6a9bab0ff1d048a1803ac7abb1fdb74daebcb6170125d67f",
    ("pgf_vm", 5.0, 100.0, 512, 32):
        "9adc14d4ae4f8441f9608fa576aaec4637a5a9bf64d0bbc97ee20a268b6f8c2e",
    ("pgf_vm", 5.0, 100.0, 1024, 24):
        "f189cbe9e1bc5ceb402bab99795422fc9abfe26c59cbeec2a5482074331271bd",
    ("pgf_vm", 5.0, 100.0, 1024, 32):
        "255494e01f638ca091e0bf9fcd7d7bc6cf5fafa62675b94ec52745e547aceb2a",
    ("pgf_vm", 5.0, 100.0, 2048, 24):
        "6eff32ccf955cf96e121ea4bd5d2e1464b11b4676ecfc0242528adad271a2ca9",
    ("pgf_vm", 5.0, 100.0, 2048, 32):
        "fd60bc7a3000e4e1ed520362e7de9542a303ee0e9c18a992007217324ba48c91",
    ("pgf_vm", 35.0, 150.0, 512, 24):
        "d3dff04716587d6a9bd5bffae1ce91099e2e18ead1b976f4d24dd1d1f91cb4cb",
    ("pgf_vm", 35.0, 150.0, 512, 32):
        "23c1457e817bb5946d68a67d823b0e2bb926b0f85452ec165d0c3e6bd9650dac",
    ("pgf_vm", 35.0, 150.0, 1024, 24):
        "eb2467ecd804ccc278134fbc5c98ed066bed63d4a21d333de01fa1a9e39f822e",
    ("pgf_vm", 35.0, 150.0, 1024, 32):
        "1b35097dbfb8f6bb9b61457896d8e4ad0f8869caf70687da482a0a8ac535a350",
    ("pgf_vm", 35.0, 150.0, 2048, 24):
        "0694cc2be79d83dc13ef590db85599854e7f50c7989d58f407b84ecae0b7d7fd",
    ("pgf_vm", 35.0, 150.0, 2048, 32):
        "4bfbb590c5911931dff52a252978b74e72ed062ea35fe42181e0498f2d075aa5",
}
KERNEL_NEAR_ONE_SHA256 = {
    ("g_of", True):
        "86ad65af092793f0d88aa96e3e48b3ccaa5c3d1adfa7452d713daa87d0d1b47b",
    ("g_of", False):
        "f36cad06f2fbf8bcfafa79b7424074106db945aaa3f51a13b3928173194ca4a7",
    ("pgf_vm", True):
        "4d0fd7b668f7ef9c572232ebb66d01b47151092c0b8c54b6cc33a578b8b7a9d4",
    ("pgf_vm", False):
        "7736d9427574869e9f9e0157f81b37598d0d443f41cba06cd75ca4a20b6d6f45",
    ("tagged", True):
        "d948c67c7653baf4fd2aad1bdbbecaa2d0565918e6fae4e9d4bbf2644b9a3a40",
    ("tagged", False):
        "47d859667934d30507dbc14d76e8e015d127f7eab0dd7c13df2991433b1b8965",
    ("log tagged", True):
        "c8259738874dbbe20fe02a83930c995d1dcfe142fe67fa45b457f5a090ad0868",
}
for (name, u, a, N, rows), digest in KERNEL_ROOTS_SHA256.items():
    PINS[f"kernel {name} u={u:g} a={a:g} N={N} rows={rows}"] = (
        partial(kernel_at_roots, name, u, a, N, rows), digest)
for (name, real), digest in KERNEL_NEAR_ONE_SHA256.items():
    PINS[f"kernel {name} near one, {'real' if real else 'complex'} s"] = (
        partial(kernel_near_one, name, real), digest)

# active_prob("PTS") at the load_sweep (a = 100 m) and meta_sweep (a =
# 150 m) benchmark points, and the g_of(0, r) values it integrates (from
# before the closed form reused exp(z*d)).  They must not move: the
# meta_sweep reference of the rate term k = 3 (PTS, u = 35, x = 0.9) is
# the noise bound only because QAGS fails silently on the first
# Gil-Pelaez panel, and that failure flips with changes of M_it as small
# as 3e-14, so a roundoff change in p_active can turn the entry
# incorrect.  Retired by ROADMAP item 3's active_prob part, which lands
# with or after item 6.
ACTIVE_PROB_PTS_BITS = {
    (5.0, 100.0): "0x1.b9332500b00acp-2",
    (15.0, 100.0): "0x1.d89bdc7d8f4f8p-2",
    (25.0, 100.0): "0x1.dea4a960f7840p-2",
    (35.0, 100.0): "0x1.e1317006193b2p-2",
    (5.0, 150.0): "0x1.d991cf24d49dap-2",
    (35.0, 150.0): "0x1.08ef9badb94adp-1",
}
G_AT_ZERO_BITS = {
    (5.0, 100.0, 12.5): "-0x1.81a39a48aa412p-4",
    (5.0, 100.0, 50.0): "-0x1.bf32a2eb6d49ap-3",
    (5.0, 100.0, 100.0): "-0x1.483b628eb8962p-2",
    (5.0, 100.0, 400.0): "-0x1.d53effb028180p-1",
    (35.0, 150.0, 12.5): "-0x1.2cf50b77b0776p-2",
    (35.0, 150.0, 75.0): "-0x1.bb3ee6e8553c8p-2",
    (35.0, 150.0, 150.0): "-0x1.2a6c405d9f739p-1",
    (35.0, 150.0, 400.0): "-0x1.1536202ecfb9cp+0",
}
for (u, a), bits in ACTIVE_PROB_PTS_BITS.items():
    PINS[f"active_prob PTS u={u:g} a={a:g}"] = (
        partial(active_prob_pts, u, a), bits)
for (u, a, r), bits in G_AT_ZERO_BITS.items():
    PINS[f"g_of(0, r) u={u:g} a={a:g} r={r:g}"] = (
        partial(g_at_zero, u, a, r), bits)

# CoverageMeta.moment at q = it over MOMENT_T and at q = 0.5, 1, 2, 3,
# and md(0.9), of the meta_sweep benchmark objects (coverage_meta).  They
# must not move for the reason above: a roundoff change in any moment can
# flip the silent QAGS failure behind the k = 3 reference (md(0.9) of
# k = 3 is the noise bound).  Retired by ROADMAP item 6, the fixed
# Gil-Pelaez grid, with the edge arithmetic of `CoverageMeta._inners`.
MOMENT_SHA256 = {
    "tau=0.9 PTS": (
        "70959183fd1c5969fc90312d39bccb5dd555eef8dbad3737c011e21fa47fbfe2",
        "439d8092a1a85e0f0e5df263ccd1ac3b6910e7b6d4ef80c5f37db4eaac442ca6"),
    "tau=0.9 NPTS": (
        "571f3582a023a2ba10ef88199f7c4a5561bd6466ef93343ab076304056852aae",
        "57dd99e2dbdab3620e54b7cf619f4188ea721352f99c443a407efccf043fccde"),
    "k=0": (
        "0dc3ec4c1608b46e177b749d7ca01c04254961c423a4402bfc576aab4b1ca8d8",
        "cd2ddb3c23f95c7d1bc507a0751f3b722b2ab91686bf2292a235054f2bda802d"),
    "k=3": (
        "4f26eb0e81ddb85455c7705efc8ef937484c69b10811a87ea772b5b477f2273d",
        "912afa28e38927fb829a87a1198e9dd14bbdcd0463556763606a52e10fe39185"),
}
MD_BITS = {"k=0": "0x1.c2947f3037550p-6", "k=3": "0x1.e2a795fb0fca4p-7"}
for name, (it_digest, q_digest) in MOMENT_SHA256.items():
    PINS[f"moments it {name}"] = (partial(moments_it, name), it_digest)
    PINS[f"moments q {name}"] = (partial(moments_q, name), q_digest)
for name, bits in MD_BITS.items():
    PINS[f"md(0.9) {name}"] = (partial(md_at, name, 0.9), bits)

# The Monte Carlo load and connectivity PMFs of the mc_validate benchmark
# point (u = 5, a = 100 m, R_b = 200 m).  Their masses are replication
# counts over the replication count, with no exp, log or power, so they
# hold on every numpy SIMD path; the coverage profiles, which take exp,
# ** and log1p, are not pinned.  ROADMAP item 8's block streams change
# every MC byte once and record these again.
MC_PMF_SHA256 = {
    "sim_load typical PTS":
        "d593430db0092cfa715cc9fdf33e051a5d8632f8ee9c8273384ffb0be1450046",
    "sim_load typical NPTS":
        "15bbd4233aa9c7729b38313e2794d4ced2178b03820db17d52f072da0d6e5aa7",
    "sim_load tagged PTS":
        "252eed2bf35eeb976421c5a71a785e7b48a534e324b87ea66b3c6ab1c7a8d0a1",
    "sim_load tagged NPTS":
        "1ff6e3c4b3b4fb4814dddddebdbc9fdd203b65ff31c49f74291a9b7d8974e5a2",
    "sim_connectivity PTS":
        "74a9759a9dda72382275b139d7260edd16a9b5c95327bdaa49a559c56847f8dc",
    "sim_connectivity NPTS":
        "7f8f7c5202afface2e497daa27e5307caf765db06a38d5a538846582c99ee64b",
}
for name, digest in MC_PMF_SHA256.items():
    producer = (partial(sim_load_masses, *name.split()[1:])
                if name.startswith("sim_load")
                else partial(sim_connectivity_masses, name.split()[1]))
    PINS[f"mc {name}"] = (producer, digest)

# The CSVs of the default config, byte for byte: analytic CSV output keeps
# its bytes unless changing the numerics is the point of the PR.  A PR
# that moves one (ROADMAP items 2, 3, 5, 6, 12) updates its entry.
CSV_SHA256 = {
    "figure 2":
        "b22d2dde5a2def03ea5b3eb88dc774862b1fe89bdf5e418dde16a498e1e13999",
    "figure 3":
        "4aa19a560e27a30aa5c98e558e91e52a6bdf10cf231747f497e76dde54f8bb81",
    "figure 4":
        "2c51628fd40f546906ca5345ce96b2a221cfc075e7ff1ddae9f1dce16a3dbe37",
    "figure 5":
        "6a830b18967aa5f8878415eb121129304964d6d15d52dc98b4d5397a8e6061ed",
    "figure 6":
        "89b80e5eec7f0e373ae4754e117fb04d63c6fd1649218c1b5dc6985b59b1025b",
    "figure 7":
        "55bd336f97181abed54bedbd64f5428a42ef24347469935b36205169a183403b",
    "figure 8":
        "1f71d3598e7f85742f81dd72bce9e03ee17d3a3ce864527615eec0ae1c8588e7",
    "op active_prob_npts":
        "b493aa5bfcbb8a64733d2d5a6154f05774b1443e04b572eccbbdbec708767bcb",
    "op active_prob_pts":
        "ee60da27001640f3b5a3cd768c85bb1ccd7e0ca3f6c27a389b05235efb5b9837",
    "op coverage_prob_npts":
        "daeefdcc0e5f9385a9ec26bc83ca6cefeae1dd9f1a65c25df80281e1b8a196d6",
    "op coverage_prob_pts":
        "f533f59ba6346ec07d4e33203ef6a8f9876a267cf183748445c2aa7b0409414f",
    "op md_coverage_npts":
        "2003c03c500a43d5010cc9e363c4fd26572431acefb685dfe3ec08023c6e5200",
    "op md_coverage_pts":
        "3aa613117f97a86f02597da768d468de0e663b6304d412f8d971b638ef512fb7",
    "op md_rate_npts":
        "9de58bfa097721c27eab4be5c561a989aea62a3d16f00c1bbc59fea74fcf8d6b",
    "op md_rate_pts":
        "3fc11d45538df02ca41a833b9c7fa929204dad9035fb04551196b2ad35f573a0",
    "op moments_tagged_npts":
        "7fc5022fdd67bf7d76fd7fdd2541e5e0700454de13f971c48e9df80f51cafa80",
    "op moments_tagged_pts":
        "b9141cf6b48d47997e8e9c38742d3ac31db1025240923f2436cd32ab409670a2",
    "op moments_typical_npts":
        "4c556b1d2b6db5fccfcda151635f5bd617f80a394a2f8bad5b79345c0695617d",
    "op moments_typical_pts":
        "94f18d903b1e1de8c39b9ed15d3f69d854483dc183db9dcd8d57e778c62f024c",
    "op pmf_degree_npts":
        "c051a796d5f80d4cb1b39c286a582b024ce7df361ec972c57893cdccb6e93a6a",
    "op pmf_degree_pts":
        "e5c9ceb0d6712b6f72e6d027454d53b32603573f5d96e15c4f8c6a198351a2b9",
    "op pmf_tagged_npts":
        "b1379e6f0dc82c1dc273ca03fcd489a66202c404e0274a0e18fbccf6cc835146",
    "op pmf_tagged_pts":
        "fc84b14c65085e87ffdd279646f82e36d5dadb8d26628aa35190f4632fba3191",
    "op pmf_typical_npts":
        "f66211dbc59e8fefb4c4bdfb5a9b6d972c6cb34358b84929210a8b9dd5835c6a",
    "op pmf_typical_pts":
        "2d29812329af714a19ea6df190bf204a0464435e34dbb27aa0679e65b35d0a90",
    "op rate_coverage_npts":
        "f8e6031024c83c693c300deb6c95e1d8877add574d814879cabe30f061019b12",
    "op rate_coverage_pts":
        "b47ec0ff48c46f4e5a3725915e53fed0d9a982ccf0260a29cdfe443cd63b21d3",
}
for command, digest in CSV_SHA256.items():
    PINS[f"csv {command}"] = (partial(csv, *command.split()), digest)


# ----------------------------------------------------------------- diff

def simd_path():
    """numpy's version and the SIMD target of its float64 exp, log, expm1
    and log1p loops in this process, as numpy.lib.introspect reports
    them (numpy 2.0 on)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return f"numpy {np.__version__}, no numpy.lib.introspect"
    info = opt_func_info(func_name="^(exp|log|expm1|log1p)$",
                         signature="^float64")
    return f"numpy {np.__version__}, float64 " + ", ".join(
        f"{name} {target['current']}"
        for name, sigs in info.items() for target in sigs.values())


def produce(names):
    """Each named pin's value, or as a str the error that kept its
    producer from running."""
    values = {}
    for name in names:
        try:
            values[name] = PINS[name][0]()
        except (Exception, SystemExit) as exc:
            values[name] = f"{type(exc).__name__}: {exc}"
    return values


def _csv_cells(text):
    """(rows, numbers, texts) of a CSV: its row count, its numeric cells
    as floats and the rest as strings, each in order."""
    rows = [line.split(",") for line in text.decode().splitlines()]
    numbers, texts = [], []
    for cell in (c for row in rows for c in row):
        try:
            numbers.append(float(cell))
        except ValueError:
            texts.append(cell)
    return len(rows), np.array(numbers), texts


def _ordered(x):
    """The float64 parts of x as integers that count ulps."""
    bits = np.ascontiguousarray(x).view(np.float64).view(np.int64)
    return np.where(bits < 0, -(bits & 0x7FFFFFFFFFFFFFFF), bits)


def _change(old, new):
    """None if `new` keeps every bit of `old`, else how far it moved."""
    if isinstance(old, bytes) != isinstance(new, bytes):
        return f"moved: {type(old).__name__} -> {type(new).__name__}"
    texts = 0  # differing text cells of a CSV
    if isinstance(old, bytes):
        (n_old, old, old_texts), (n_new, new, new_texts) = map(
            _csv_cells, (old, new))
        if (n_old, len(old_texts)) != (n_new, len(new_texts)) \
                or old.size != new.size:
            return (f"moved: shape {n_old} rows, {old.size} numbers -> "
                    f"{n_new} rows, {new.size} numbers")
        texts = sum(a != b for a, b in zip(old_texts, new_texts))
    old, new = np.asarray(old), np.asarray(new)
    if (old.shape, old.dtype) != (new.shape, new.dtype):
        return (f"moved: shape {old.shape} {old.dtype} -> "
                f"{new.shape} {new.dtype}")
    integer = old.dtype.kind in "iub"
    if integer:
        old, new = old.astype(np.float64), new.astype(np.float64)
    # Python ints: the ulps between floats of opposite sign overflow int64
    ulps = np.abs(_ordered(old).astype(object) - _ordered(new))
    moved = (ulps.reshape(old.size, -1) > 0).any(axis=1)
    if not moved.any() and not texts:
        return None
    out = f"moved: {moved.sum()} of {old.size} values"
    if moved.any():
        a, b = old.reshape(-1)[moved], new.reshape(-1)[moved]
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(b - a) / np.abs(a)
        out += (f", largest change {np.abs(b - a).max():.3g} absolute, "
                f"{rel.max():.3g} relative")
        if not integer:
            out += f" ({ulps.max()} ulp)"
    if texts:
        out += f"; {texts} text cells differ"
    return out


def compare(at_rev, here, rev="REV"):
    """{pin name: status} of the values of `here` against those `at_rev`
    (maps as produce returns them): unchanged, moved, missing at REV or
    missing here."""
    report = {}
    for name in dict.fromkeys([*here, *at_rev]):
        old, new = at_rev.get(name, "not pinned"), here.get(name, "not pinned")
        if isinstance(new, str):
            report[name] = f"missing here ({new})"
        elif isinstance(old, str):
            report[name] = f"missing at {rev} ({old})"
        else:
            report[name] = _change(old, new) or "unchanged"
    return report


_CHILD = """
import pickle, sys
import pins, platoonnet
if not platoonnet.__file__.startswith(sys.argv[1]):
    sys.exit(f"platoonnet came from {platoonnet.__file__}")
with open(sys.argv[2], "wb") as fh:
    pickle.dump(pins.produce(sys.argv[3:]), fh)
"""


def diff(rev, names=None):
    """compare() of the named pins (every pin by default) at git revision
    `rev` against this process's platoonnet.  rev's src/ is extracted to
    a temporary directory, removed on return, and its producers run in a
    subprocess while this process runs its own."""
    names = list(PINS) if names is None else list(names)
    tree = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                          capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
            tar.extractall(tmp)
        src, out = os.path.join(tmp, "src"), os.path.join(tmp, "values")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([src, str(TESTS)]))
        child = subprocess.Popen([sys.executable, "-c", _CHILD, src, out,
                                  *names], cwd=tmp, env=env)
        try:
            here = produce(names)
        finally:
            if child.wait():
                raise RuntimeError(f"producers at {rev} exited with "
                                   f"status {child.returncode}")
        with open(out, "rb") as fh:
            at_rev = pickle.load(fh)
    return compare(at_rev, here, rev)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/pins.py REV")
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True
    print(simd_path(), flush=True)
    try:
        report = diff(sys.argv[1])
    except subprocess.CalledProcessError as exc:
        sys.exit(exc.stderr.decode().strip())
    for name, status in report.items():
        print(f"{name}: {status}")
    failed = [s for s in report.values()
              if s.startswith(("moved", "missing here"))]
    print(f"{len(report)} pins, {len(failed)} moved or missing here")
    sys.exit(1 if failed else 0)
