"""Condition-mutation audit of src/platoonnet.

    python tests/mutants.py [--workers N] [MODULE.py ...]

Each condition of the package's modules (the test of an `if`, `elif`,
`while` or conditional expression, constants such as `while True`
aside), or of the named modules only, is forced to True and to False,
one mutant at a time.  A mutant replaces the test's source text with
`(True)` or `(False)` in a temporary copy of the repository and runs
Tier-1 there with -x, the module's own test file first.  A failing run
kills the mutant, and so does one still running after TIMEOUT seconds.
The unmutated copy must pass first.  One line is printed per surviving
mutant, then the counts.

Standard library only.  The file name does not match test_*, so Tier-1
never runs it.  A full run of 192 mutants with 3 survivors took 44
minutes on 2 cores with two workers; each survivor runs all of Tier-1.
"""

import argparse
import ast
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "platoonnet"
TIMEOUT = 400  # seconds; a hung mutant counts as killed


def conditions(path):
    """(line, start, end) of each non-constant condition of the module at
    path, with start and end offsets into its source text."""
    text = path.read_text()
    starts = [0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line, col):  # ast columns count UTF-8 bytes
        head = text[starts[line - 1]:starts[line]].encode()[:col]
        return starts[line - 1] + len(head.decode())

    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.If, ast.While, ast.IfExp)) \
                and not isinstance(node.test, ast.Constant):
            t = node.test
            found.append((t.lineno, offset(t.lineno, t.col_offset),
                          offset(t.end_lineno, t.end_col_offset)))
    return sorted(found)


def tier1(copy, first=None):
    """Tier-1 with -x in the copy, the test file `first` first if it
    exists: True if it passes within TIMEOUT."""
    tests = [str(first)] if first and first.exists() else []
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *tests, "tests", "bench"],
        cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(TIMEOUT) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def worker(jobs, copy, survivors, lock):
    while True:
        try:
            module, line, start, end, forced = jobs.get_nowait()
        except queue.Empty:
            return
        path = copy / PACKAGE / module
        text = path.read_text()
        path.write_text(f"{text[:start]}({forced}){text[end:]}")
        try:
            survived = tier1(copy, copy / "tests" / f"test_{module}")
        finally:
            path.write_text(text)
        if survived:
            with lock:
                survivors.append((module, line, forced))
                print(f"SURVIVED {module}:{line} forced {forced}",
                      flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("modules", nargs="*",
                    help="module file names (default: every module)")
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    modules = args.modules or sorted(
        p.name for p in (ROOT / PACKAGE).glob("*.py"))
    jobs = queue.Queue()
    for module in modules:
        for line, start, end in conditions(ROOT / PACKAGE / module):
            for forced in (True, False):
                jobs.put((module, line, start, end, forced))
    total = jobs.qsize()
    print(f"{total} mutants of {len(modules)} modules, "
          f"{args.workers} workers", flush=True)
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                    ".hypothesis")
    with tempfile.TemporaryDirectory() as tmp:
        copies = [Path(tmp) / str(i) for i in range(args.workers)]
        for copy in copies:
            shutil.copytree(ROOT, copy, ignore=ignore)
        if not tier1(copies[0]):
            sys.exit("the unmutated copy fails Tier-1")
        survivors, lock = [], threading.Lock()
        threads = [threading.Thread(target=worker,
                                    args=(jobs, copy, survivors, lock))
                   for copy in copies]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    print(f"{total} mutants: {total - len(survivors)} killed, "
          f"{len(survivors)} survived")


if __name__ == "__main__":
    main()
