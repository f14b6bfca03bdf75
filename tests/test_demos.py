"""Smoke tests of the walkthroughs in demos/: each one imports, and the
quick ones run to the end."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_imports(name):
    # not run as __main__, so only the imports and definitions execute
    assert callable(runpy.run_path(str(DEMOS / name))["main"])


@pytest.mark.parametrize("name", ["connectivity_degree.py",
                                  "load_distributions.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name))["main"]()
    assert capsys.readouterr().out
