"""Static checks on the package source that need no installed linter."""
import ast
import re
import sys
from pathlib import Path

import pytest

import fogcache
from mutants import MUTANTS

PACKAGE = Path(fogcache.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter (``self``/``cls`` aside)
    that its function's body never reads."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unused += [f"{name}.{p}" for p in params
                   if p not in ("self", "cls") and p not in read]
    return unused


def unused_private_names(source: str) -> list[str]:
    """Top-level ``_name`` functions, classes and assignment targets that
    their module never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__")
            and name not in read]


def test_detects_unused_import():
    source = ("import os\nfrom dataclasses import dataclass, field\n"
              "@dataclass\nclass A: pass\n")
    assert unused_imports(source) == ["os", "field"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_parameter():
    source = ("def f(a, b, *args, c, d=1, **kw):\n    b = d\n    return a + c\n"
              "class K:\n    def m(self, x):\n        pass\n"
              "    @classmethod\n    def n(cls, y):\n        return y\n"
              "g = lambda z, w: w\n")
    assert unused_parameters(source) == ["f.b", "f.args", "f.kw", "m.x",
                                         "<lambda>.z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_detects_unused_private_name():
    source = ("_A = 1\n_B, c = 2, 3\n_C: int = 4\n__all__ = ['h']\n"
              "def _f():\n    return _A\n"
              "class _K:\n    pass\n"
              "def h(x=_C):\n    _local = 1\n    return _local + x\n")
    assert unused_private_names(source) == ["_B", "_f", "_K"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def undeclared_imports(source: str, dependencies) -> list[str]:
    """Top-level names of the absolute imports that are neither standard
    library, ``fogcache`` nor one of ``dependencies``."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module.split(".")[0])
    allowed = {*sys.stdlib_module_names, "fogcache", *dependencies}
    return [name for name in imported if name not in allowed]


def runtime_dependencies() -> list[str]:
    """Distribution names of ``[project] dependencies`` in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    return [re.match(r"[A-Za-z0-9_.-]+", dep).group()
            for dep in project["dependencies"]]


def test_detects_undeclared_import():
    source = ("from __future__ import annotations\nimport os, scipy.sparse\n"
              "from networkx import Graph\nfrom . import graph\n"
              "from fogcache.graph import Topology\nimport numpy as np\n"
              "import hypothesis.strategies\n")
    assert undeclared_imports(source, ["numpy"]) == ["scipy", "networkx",
                                                      "hypothesis"]


# scipy, networkx and hypothesis are test-only: the package may not import them
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_declared(path):
    assert undeclared_imports(path.read_text(), runtime_dependencies()) == []


def calls_to(source: str, name: str) -> list[int]:
    """Lines that call ``name``, bare (``name(...)``) or as an attribute
    (``module.name(...)``)."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def defines(source: str, name: str) -> bool:
    return any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == name for node in ast.walk(ast.parse(source)))


def test_detects_call():
    source = ("from . import graph\nfrom .graph import f\n"
              "def g():\n    f(1)\n    return graph.f(2), f\n"
              "h = [graph.f]\n")
    assert calls_to(source, "f") == [4, 5]
    assert defines("def f():\n    pass\n", "f") and not defines(source, "f")


# every path-counting BFS in the package runs through PathCache.bfs_levels
# (graph.farness is the one other all-sources pass, and it keeps distances
# only): the per-source entry point wraps bfs_levels for callers outside the
# package and nothing inside calls it
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_bfs_engine(path):
    source = path.read_text()
    assert calls_to(source, "bfs_shortest_paths") == []
    assert defines(source, "bfs_shortest_paths") == (path.name == "graph.py")


# the generator builds one Topology per graph, from the CSR arrays its
# farness pass ran on: no validated full graph and no union-find; and every
# CSR array in graph.py is read off the adjacency lists in one place
def test_one_topology_build_per_generated_graph():
    source = (PACKAGE / "synthetic.py").read_text()
    assert calls_to(source, "connected_components") == []
    assert calls_to(source, "from_edges") == []
    assert (PACKAGE / "graph.py").read_text().count("chain.from_iterable") == 1


def name_lines(source: str, name: str) -> list[int]:
    """Lines that read or bind the bare name ``name`` (imports aside)."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Name) and node.id == name})


def test_detects_name():
    assert name_lines("a = b\nc = a + a\nd.a = 1\n", "a") == [1, 2]


# both CBC forms run one consumer pass: one BFS read, one accumulation and
# one nearest-holder test, the only check for unreachable holders
def test_one_cbc_pass():
    source = (PACKAGE / "centrality.py").read_text()
    assert len(calls_to(source, "paths_from")) == 1
    assert len(calls_to(source, "_accumulate")) == 1
    assert len(name_lines(source, "UNREACHABLE")) == 1
    assert not defines(source, "_serve")


# routing reads only the stored distances and memoized next hops: it never builds
# a source's σ and BFS order tuples
def test_routing_reads_no_paths_from():
    source = (PACKAGE / "simulator.py").read_text()
    assert calls_to(source, "paths_from") == []
    assert calls_to(source, "dist_from") and calls_to(source, "next_hops")


def blas_uses(source: str) -> list[int]:
    """Lines that reach a BLAS kernel through numpy: a ``@`` matmul, any
    ``linalg`` name or import, or a ``dot``, ``matmul`` or ``inner`` call."""
    lines = [line for name in ("dot", "matmul", "inner")
             for line in calls_to(source, name)]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None), *(a.name for a in node.names)]
        else:
            names = [getattr(node, "attr", None), getattr(node, "id", None)]
        if (isinstance(getattr(node, "op", None), ast.MatMult)
                or any("linalg" in name for name in names if name)):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_detects_blas_use():
    source = ("import numpy as np\nfrom numpy import linalg\n"
              "y = a @ x\ny @= a\nn = np.linalg.norm(y)\n"
              "d = np.dot(a, b)\ne = a.dot(b)\nf = np.matmul(a, b)\n"
              "g = np.inner(a, b)\nfrom numpy.linalg import norm\n"
              "import numpy.linalg\nh = np.bincount(a, weights=b)\n")
    assert blas_uses(source) == [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]


# eigenvector centrality sums over the adjacency lists, so no score's bits
# depend on which BLAS kernel numpy loaded
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_blas_in_src(path):
    assert blas_uses(path.read_text()) == []


def attribute_lines(source: str, names) -> list[int]:
    """Lines that read or bind an attribute named in ``names`` (``x.name``)."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in names})


def test_detects_attribute():
    source = "a = cache._dist\nb = _dist\ncache._hops[0] = 1\nc = x._rows\n"
    assert attribute_lines(source, {"_dist", "_hops"}) == [1, 3]


# the suite reads routing's distances and trees through dist_from and
# next_hops, so a change to how PathCache stores them leaves it standing
@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_tests_read_no_routing_stores(path):
    assert attribute_lines(path.read_text(), {"_dist", "_hops"}) == []


def names_a_test(test_id: str) -> bool:
    """Whether ``file::[Class::]name[param]`` names a test file that defines
    that class and that function."""
    path, *names = test_id.split("[")[0].split("::")
    if not (TESTS.parent / path).is_file() or not names:
        return False
    tree = ast.parse((TESTS.parent / path).read_text())
    scope = tree.body
    for name in names[:-1]:
        scope = next((node.body for node in scope
                      if isinstance(node, ast.ClassDef) and node.name == name), [])
    return any(isinstance(node, ast.FunctionDef) and node.name == names[-1]
               for node in scope)


def test_detects_missing_test():
    assert names_a_test("tests/test_lint.py::test_detects_missing_test")
    assert names_a_test("tests/test_graph.py::TestNarrowViews::test_reads_match_oracle[path300]")
    assert not names_a_test("tests/test_graph.py::TestNarrowViews::test_detects_missing_test")
    assert not names_a_test("tests/test_nothing.py::test_detects_missing_test")


# each row of the mutant table (tests/mutants.py) replaces code that is still
# in the package, at one place, and names tests that still exist
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: re.sub(r"\W+", "-", m.name))
def test_mutant_snippet_occurs_once(mutant):
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert sources[mutant.module].count(mutant.old) == 1
    assert sum(source.count(mutant.old) for source in sources.values()) == 1
    assert mutant.kills and all(map(names_a_test, mutant.kills))
