"""Every name a diophlab module imports is used in that module.

No linter runs on this package, so a refactor that drops the last use of
an import leaves it behind unnoticed.  `__init__` is exempt: its imports
are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "diophlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert _unused(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    assert _unused(ast.parse("import math\nimport os\nfrom x import y, z\nos.sep\nz()\n")) \
        == ["math", "y"]
