"""Sweep of the CLI error contract over one-key edge configs.

    python tests/contract_sweep.py [KEY ...]

The contract (`platoonnet.cli`): a bad --out, config or argument exits 2
before any work and a NumericsError exits 3, each with one stderr line
and no output file; a run that succeeds prints nothing on stderr.  Each
numeric config key (or each KEY named) is set alone to each of VALUES,
and each such config runs every command of COMMANDS through `cli.main`
in this process, under a TIMEOUT-second alarm.  Each run starts from the
warnings filters and the numpy error state (a context variable) of a
fresh process, so numpy's RuntimeWarnings print as they would there,
even after an alarm stopped a run inside `np.errstate`.

One line is printed per breach: a traceback (an exit other than 0, 2
or 3), more than one stderr line on an error, any stderr on success, an
output file left on an error, or a timeout; then the counts.  A
traceback names the last line of `platoonnet` it passed through.  The
exit status is 1 if any run breached the contract, else 0.

Standard library only.  The file name does not match test_*, so Tier-1
never runs it.  A full run (16 keys x 7 values x 26 commands, 2,912
runs) takes about 4 minutes on a 2-core x86-64 host, 1.5 of them in
three timeouts.
"""

import argparse
import collections
import contextlib
import contextvars
import io
import json
import signal
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from platoonnet import cli  # noqa: E402

VALUES = (1e-300, 1e300, 1e-9, 1e9, 1e3, 1e5, 1e-3)
TIMEOUT = 30  # seconds per run
LAWS = ("typical_pts", "typical_npts", "tagged_pts", "tagged_npts")
OPS = ([f"{stem}_{law}" for stem in ("moments", "pmf") for law in LAWS]
       + [f"{stem}_{traffic}"
          for stem in ("pmf_degree", "active_prob", "coverage_prob",
                       "md_coverage", "rate_coverage")
          for traffic in ("pts", "npts")])
COMMANDS = ([["op", op] for op in OPS]
            + [["figure", str(n)] for n in range(3, 8)]
            + [["simulate", target, "--reps", "4"]
               for target in ("load_typical", "coverage", "connectivity")])
KEYS = [key for key, value in cli.DEFAULT_CONFIG.items()
        if value is None or isinstance(value, (int, float))]


class Timeout(BaseException):
    """Raised by the alarm: no `except Exception` of the package stops
    it."""


def alarm(signum, frame):
    raise Timeout


def run(argv):
    """(exit code, or the exception or "timeout", stderr text) of one
    in-process `platoonnet argv`."""
    err = io.StringIO()
    signal.alarm(TIMEOUT)
    try:
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("default")
            # a run gets its own copy of the context, so numpy error
            # state that an alarm left set dies with the run
            code = contextvars.copy_context().run(cli.main, argv)
    except SystemExit as exc:
        code = exc.code
    except Timeout:
        code = "timeout"
    except Exception as exc:
        code = exc
    finally:
        signal.alarm(0)
    return code, err.getvalue()


def site(exc):
    """The last `platoonnet` frame of an exception's traceback."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__)
              if "platoonnet" in Path(f.filename).parts]
    return f"{Path(frames[-1].filename).name}:{frames[-1].lineno}" \
        if frames else "outside platoonnet"


def breaches(code, err, left):
    """(kind, detail) of each way one run broke the contract."""
    lines = err.splitlines()
    first = lines[0] if lines else ""
    if isinstance(code, BaseException):
        yield "traceback", (f"{type(code).__name__}: {code} "
                            f"at {site(code)}")
    elif code == "timeout":
        yield "timeout", f"past {TIMEOUT} s"
    elif code not in (0, 2, 3):
        yield "exit", f"exit {code}: {first}"
    elif code == 0 and lines:
        yield "stderr on success", f"{len(lines)} lines: {first}"
    elif code != 0 and len(lines) > 1:
        yield "stderr lines", f"{len(lines)} lines on exit {code}: {first}"
    if code != 0 and left:
        yield "output left", f"a file after exit {code}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("keys", nargs="*", metavar="KEY",
                    help="config keys to sweep (default: every numeric "
                         "key)")
    keys = ap.parse_args().keys or KEYS
    if set(keys) - set(KEYS):
        ap.error(f"the numeric config keys are {', '.join(KEYS)}")
    signal.signal(signal.SIGALRM, alarm)
    exits, kinds = collections.Counter(), collections.Counter()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "cfg.json", Path(tmp) / "out.csv"
        for key in keys:
            for value in VALUES:
                config.write_text(json.dumps({key: value}))
                for command in COMMANDS:
                    code, err = run(command + ["--config", str(config),
                                               "--out", str(out)])
                    exits[code if isinstance(code, (int, str))
                          else "traceback"] += 1
                    for kind, detail in breaches(code, err, out.exists()):
                        kinds[kind] += 1
                        print(f"{kind}: {' '.join(command)} at {key} = "
                              f"{value:g}: {detail}", flush=True)
                    out.unlink(missing_ok=True)
    runs = sum(exits.values())
    print(f"{runs} runs in {time.perf_counter() - start:.0f} s: "
          + ", ".join(f"{n} exit {code}" for code, n in sorted(
              exits.items(), key=str)))
    print(f"{sum(kinds.values())} breaches"
          + "".join(f", {n} {kind}" for kind, n in kinds.most_common()))
    return 1 if kinds else 0


if __name__ == "__main__":
    sys.exit(main())
