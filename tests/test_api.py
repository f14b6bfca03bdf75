import ast
from pathlib import Path

import numpy as np
import pytest

import platoonnet
from platoonnet import numerics

SRC = Path(platoonnet.__file__).parent


def test_every_exported_name_resolves():
    missing = [n for n in platoonnet.__all__ if not hasattr(platoonnet, n)]
    assert not missing
    assert len(set(platoonnet.__all__)) == len(platoonnet.__all__)


def test_certified_pmfs_are_exported():
    # operational_metrics refuses an uncertified PMF: at u = 35 the
    # tails past K = 40 are 0.148 (typical) and 0.563 (tagged), so the
    # package exports the certified forms it takes
    from platoonnet import (NetworkParams, V2VParams, operational_metrics,
                            pmf_degree_certified,
                            pmf_tagged_npts_certified,
                            pmf_tagged_pts_certified,
                            pmf_typical_npts_certified,
                            pmf_typical_pts_certified, pmf_typical_pts)
    from platoonnet.numerics import NumericsError
    params = NetworkParams.from_per_km(2.0, 1.0, 35.0, 100.0)
    with pytest.raises(NumericsError, match="certified"):
        operational_metrics(pmf_typical_pts(40, params), "typical")
    for kind, pmfs in (("typical", (pmf_typical_pts_certified,
                                    pmf_typical_npts_certified)),
                       ("tagged", (pmf_tagged_pts_certified,
                                   pmf_tagged_npts_certified))):
        for pmf in pmfs:
            assert operational_metrics(pmf(params), kind)
    for traffic in ("PTS", "NPTS"):
        pmf = pmf_degree_certified(traffic, V2VParams(200.0, params))
        assert pmf.tail_mass < 1e-6


def _unused_imports(source):
    """Names bound by an import and never read; `__all__` entries count
    as reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_imports_in_src():
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert not {name: hits for name, hits in found.items() if hits}


def test_no_unused_imports_in_tests_and_demos():
    root = Path(__file__).resolve().parents[1]
    found = {f"{folder}/{path.name}": _unused_imports(path.read_text())
             for folder in ("tests", "demos")
             for path in sorted((root / folder).glob("*.py"))}
    assert not {name: hits for name, hits in found.items() if hits}


def test_unused_import_check_sees_a_dead_import():
    src = "import math\nfrom numpy import pi, e\n__all__ = ['e']\n"
    assert _unused_imports(src) == [(1, "math"), (2, "pi")]


def _quad_references(source):
    """Lines that name scipy's `integrate.quad` directly."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "quad"
                and isinstance(node.value, ast.Name)
                and node.value.id == "integrate"):
            hits.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom)
              and node.module == "scipy.integrate"
              and any(a.name == "quad" for a in node.names)):
            hits.append(node.lineno)
    return hits


def test_numerics_owns_every_quadrature():
    src = "from scipy.integrate import quad\nv, _ = integrate.quad(f, 0, 1)\n"
    assert _quad_references(src) == [1, 2]
    found = {path.name: _quad_references(path.read_text())
             for path in sorted(SRC.glob("*.py"))
             if path.name != "numerics.py"}
    assert not {name: hits for name, hits in found.items() if hits}


def _callers(source, callee):
    """Dotted names of the functions (with their classes) that call
    `callee`, once per call; a function that `callee` decorates calls it
    once."""
    found = []

    def named(f):
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                found.extend(".".join(scope + [child.name])
                             for f in child.decorator_list
                             if named(f) == callee)
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and named(child.func) == callee:
                found.append(".".join(scope) or "<module>")
            visit(child, scope)
    visit(ast.parse(source), [])
    return found


def _src_callers(callee):
    return [f"{path.stem}.{fn}" for path in sorted(SRC.glob("*.py"))
            for fn in _callers(path.read_text(), callee)]


def test_one_replication_loop():
    src = ("def a(cfg):\n    return replication_rng(1, 0)\n"
           "def b():\n    def draw():\n"
           "        return geometry.replication_rng(1, 2)\n")
    assert _callers(src, "replication_rng") == ["a", "b.draw"]
    assert _callers("@guard\ndef f():\n    pass\n", "guard") == ["f"]
    assert _src_callers("replication_rng") == ["montecarlo._replicate"]


def test_one_complex_key_search():
    # every load is counted between its serving cell's midpoints
    # (`_association`); only the active-interferer flags place every VU
    assert set(_src_callers("_key")) == {"montecarlo._occupancy"}
    assert _src_callers("_occupancy") == [
        "montecarlo._coverage_profile.reduce"]


def test_every_numerics_function_has_an_outside_caller():
    # a numerics routine that only numerics calls belongs in its caller
    numerics = ast.parse((SRC / "numerics.py").read_text())
    names = [node.name for node in numerics.body
             if isinstance(node, ast.FunctionDef)]
    assert "quad" in names  # the scan sees the module's functions
    assert not [name for name in names
                if all(fn.startswith("numerics.")
                       for fn in _src_callers(name))]


STREAM_NAMES = {"default_rng", "SeedSequence", "PCG64", "Generator"}


def _mentions(source, names):
    """Dotted names of the functions (with their classes) whose code
    names one of `names`, as a name, an attribute or an import, once per
    mention."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Name):
                named = {child.id}
            elif isinstance(child, ast.Attribute):
                named = {child.attr}
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                named = {alias.name for alias in child.names}
            else:
                named = set()
            found.extend([".".join(scope) or "<module>"] * len(named & names))
            visit(child, scope)
    visit(ast.parse(source), [])
    return found


def test_one_stream_constructor():
    # every replication stream comes from geometry.replication_rng
    src = ("from numpy.random import PCG64\n"
           "def a(seed):\n    return np.random.default_rng(seed)\n"
           "class B:\n    def c(self):\n        return Generator(PCG64(1))\n")
    assert _mentions(src, STREAM_NAMES) == ["<module>", "a", "B.c", "B.c"]
    found = {path.stem: _mentions(path.read_text(), STREAM_NAMES)
             for path in sorted(SRC.glob("*.py"))}
    assert set(found.pop("geometry")) == {"replication_rng"}
    assert not {name: hits for name, hits in found.items() if hits}


def test_src_draws_no_fading():
    # Rayleigh fading is averaged in closed form per geometry
    src = "def draw(rng):\n    return rng.exponential(size=3)\n"
    assert _callers(src, "exponential") == ["draw"]
    assert _src_callers("exponential") == []


def test_coverage_moments_run_no_adaptive_quadrature():
    # every moment M_q is one fixed inner and one fixed outer rule
    src = ("class CoverageMeta:\n    def moment(self, q):\n"
           "        def f(r):\n            return quad(g, 0, r)\n"
           "        return quad_complex(f, 0, 1)\n")
    assert _callers(src, "quad") == ["CoverageMeta.moment.f"]
    assert _callers(src, "quad_complex") == ["CoverageMeta.moment"]
    coverage_src = (SRC / "coverage.py").read_text()
    assert not [fn for callee in ("quad", "quad_complex")
                for fn in _callers(coverage_src, callee)
                if fn.split(".")[0] == "CoverageMeta"]
    numerics = ast.parse((SRC / "numerics.py").read_text())
    assert "quad_complex" not in {node.name for node in numerics.body
                                  if isinstance(node, ast.FunctionDef)}


def test_adaptive_quadrature_call_sites():
    # the cell-averaged load moments are closed forms; what is left of
    # numerics.quad is the coverage integrals and the Gil-Pelaez panels
    assert _src_callers("quad") == [
        "coverage.active_prob", "coverage.coverage_prob", "numerics.quad",
        "numerics.gil_pelaez_invert"]


def _kronrod_literals(source):
    """Lines of the float literals that equal one of QUADPACK's Kronrod
    abscissae (the QK21 and QK15 ones in numerics) to 12 digits."""
    abscissae = np.concatenate([numerics._XGK, numerics._XGK15])
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and np.any(np.abs(abscissae - node.value) <= 1e-12)]


def test_numerics_holds_the_kronrod_abscissae():
    # the point predictor is the one place that knows QUADPACK's nodes
    assert _kronrod_literals("xgk = [0.5, 0.991455371120813]\n") == [1]
    found = {path.stem: _kronrod_literals(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert len(found.pop("numerics")) == 17
    assert not {name: hits for name, hits in found.items() if hits}
    assert _src_callers("kronrod_batches") == [
        "coverage.active_prob", "numerics.gil_pelaez_invert"]


def test_load_pmfs_skip_the_count_recurrence():
    # the PTS load PMFs come from the PGF by FFT; the recurrence serves
    # the connectivity degree alone
    assert _src_callers("pmf_S") == ["connectivity.pmf_degree_pts"]
    load_src = (SRC / "load.py").read_text()
    assert not [node.lineno for node in ast.walk(ast.parse(load_src))
                if isinstance(node, ast.Attribute)
                and node.attr == "convolve"]


def _imports(module, source):
    """Lines that import `module` or a submodule of it, at module level or
    inside a function: `import module`, `from module import name` and
    `from parent import module` alike."""
    def names(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        if isinstance(node, ast.ImportFrom) and node.module:
            return [node.module] + [f"{node.module}.{a.name}"
                                    for a in node.names]
        return []
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if any(n == module or n.startswith(module + ".")
                         for n in names(node)))


@pytest.mark.parametrize("module, sample, lines", [
    ("mpmath", "import math\ndef f(q):\n    import mpmath\n"
     "    return mpmath.gammainc(q)\nfrom mpmath import hyp2f1\n", [3, 5]),
    ("scipy.stats", "import scipy\nimport scipy.stats\n"
     "from scipy import special\ndef f(q):\n"
     "    from scipy.stats import gamma\nfrom scipy import integrate, stats\n",
     [2, 5, 6]),
], ids=["mpmath", "scipy.stats"])
def test_src_does_not_import(module, sample, lines):
    assert _imports(module, sample) == lines
    found = {path.name: _imports(module, path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert not {name: hits for name, hits in found.items() if hits}


def _hex_calls(source):
    """Lines that call a `.hex()` method, `float.hex(x)` included."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "hex")


def test_only_the_pin_registry_records_bits():
    # a new pin goes into tests/pins.py, which hashes and hex-encodes
    sample = "import hashlib\nx = 0.5\ny = x.hex()\nz = float.hex(x)\n"
    assert _imports("hashlib", sample) == [1]
    assert _hex_calls(sample) == [3, 4]
    tests = Path(__file__).parent
    found = {path.name: _imports("hashlib", path.read_text())
             + _hex_calls(path.read_text())
             for path in sorted(tests.rglob("*.py")) if path.name != "pins.py"}
    assert not {name: hits for name, hits in found.items() if hits}
