"""Every name a diophlab module imports is used in that module, and every
import of a package module is at the module's head.

No linter runs on this package, so a refactor that drops the last use of
an import leaves it behind unnoticed.  `__init__` is exempt from the first
check: its imports are the public re-exports.  With no package import
inside a function, the module headers show the whole import graph.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "diophlab"
FILES = sorted(SRC.glob("*.py"))
MODULES = [p for p in FILES if p.name != "__init__.py"]


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


def _local_package_imports(tree: ast.Module) -> list[int]:
    """Lines of the imports of a diophlab module made inside a function."""
    def package(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or (node.module or "").split(".")[0] == "diophlab"
        return isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "diophlab" for alias in node.names)
    return sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if package(node)})


@pytest.mark.parametrize("path", FILES, ids=[p.stem for p in FILES])
def test_no_function_imports_a_package_module(path):
    assert _local_package_imports(ast.parse(path.read_text())) == []


def test_a_local_package_import_is_found():
    code = ("import numpy\nfrom . import a\ndef f():\n    import math\n"
            "    from .b import c\n    import diophlab.d\n"
            "async def g():\n    from diophlab import e\n")
    assert _local_package_imports(ast.parse(code)) == [5, 6, 8]
