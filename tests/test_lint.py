"""Static checks on the package source that need no installed linter."""
import ast
from pathlib import Path

import pytest

import fogcache

MODULES = sorted(p for p in Path(fogcache.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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


def test_detects_unused_import():
    source = ("import os\nfrom dataclasses import dataclass, field\n"
              "@dataclass\nclass A: pass\n")
    assert unused_imports(source) == ["os", "field"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
