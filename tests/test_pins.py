import math
import shutil
import subprocess

import numpy as np
import pytest

import pins
from pins import PINS, compare, diff, record


@pytest.mark.parametrize("name", list(PINS))
def test_pin(name):
    producer, recorded = PINS[name]
    assert record(producer()) == recorded


def test_compare_names_each_kind_of_change():
    csv = b"# seed = 1\nk,p\n0,0.5\n1,0.25\n"
    at_rev = {"same": 1.5, "array": np.array([1.0, -2.0, 3.0]),
              "csv": csv, "shape": np.zeros(3), "gone here": 1.0,
              "new": "ImportError: cannot import name 'f'"}
    here = {"same": 1.5,
            "array": np.array([1.0, np.nextafter(-2.0, 0.0), 3.0]),
            "csv": csv.replace(b"0.25", b"0.3"), "shape": np.zeros(4),
            "gone here": "NameError: f", "new": 2.0}
    report = compare(at_rev, here, "v1")
    assert report["same"] == "unchanged"
    assert report["array"] == ("moved: 1 of 3 values, largest change "
                               "2.22e-16 absolute, 1.11e-16 relative "
                               "(1 ulp)")
    assert report["csv"] == ("moved: 1 of 4 values, largest change 0.05 "
                             "absolute, 0.2 relative (900719925474099 ulp)")
    assert report["shape"] == "moved: shape (3,) float64 -> (4,) float64"
    assert report["gone here"] == "missing here (NameError: f)"
    assert report["new"] == ("missing at v1 (ImportError: cannot import "
                             "name 'f')")


def test_compare_counts_csv_rows_and_text():
    csv = b"k,p\n0,0.5\n"
    assert compare({"c": csv}, {"c": csv + b"1,0.5\n"})["c"] \
        == "moved: shape 2 rows, 2 numbers -> 3 rows, 4 numbers"
    assert compare({"c": csv}, {"c": b"k,q\n0,0.5\n"})["c"] \
        == "moved: 0 of 2 values; 1 text cells differ"


def _has_checkout():
    return shutil.which("git") is not None and subprocess.run(
        ["git", "-C", str(pins.ROOT), "rev-parse", "--verify", "HEAD"],
        capture_output=True).returncode == 0


@pytest.mark.skipif(not _has_checkout(), reason="needs git and a checkout")
def test_diff_against_head(monkeypatch):
    names = ["g_of(0, r) u=5 a=100 r=12.5", "active_prob PTS u=5 a=100"]
    assert diff("HEAD", names) == dict.fromkeys(names, "unchanged")
    producer, recorded = PINS[names[0]]
    monkeypatch.setitem(PINS, names[0], (
        lambda: math.nextafter(producer(), math.inf), recorded))
    report = diff("HEAD", names)
    assert report[names[0]].startswith("moved: 1 of 1 values")
    assert report[names[0]].endswith("(1 ulp)")
    assert report[names[1]] == "unchanged"
