"""Every name a diophlab module imports is used in that module, every
import of a package module is at the module's head, and every module-level
_private name and UPPER_CASE constant is read by the package or perfbench.
Each cover scale rule, on the mesh and on the thresholds, the overflow
rule for a piece count and the product set's delta domain has its message
in one function.

No linter runs on this package, so a refactor that drops the last use of
an import, helper or constant leaves it behind unnoticed.  `__init__` is
exempt from the first check: its imports are the public re-exports.  With
no package import inside a function, the module headers show the whole
import graph.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "diophlab"
PERFBENCH = SRC.parents[1] / "perfbench"
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


def _module_names(tree: ast.Module) -> list[str]:
    """The module-level _private names and UPPER_CASE constants defined in
    tree, dunders aside.  A tuple of names bound at once, such as cli's
    exit-code table, is one table, read or not as a whole, and not listed."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("__")
            and (name.startswith("_") or name.isupper())]


def _reads(tree: ast.Module) -> set[str]:
    """Every name tree loads, attribute it reads, and string it holds: a
    name can be read by a lookup in a table of names, as perfbench's are."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)})


def _unread(defining: dict[str, str], reading: list[str]) -> list[str]:
    """module.name for each module-level _private name or constant that no
    source in reading reads; defining maps module names to their source."""
    read = set().union(*(_reads(ast.parse(code)) for code in reading))
    return sorted(f"{module}.{name}" for module, code in defining.items()
                  for name in _module_names(ast.parse(code)) if name not in read)


def test_every_private_name_and_constant_is_read():
    # a leftover of a deleted path, read by no code the package or its
    # benchmark runs; tests do not count, or a test would keep it alive
    sources = [p.read_text() for p in FILES + sorted(PERFBENCH.glob("*.py"))]
    assert _unread({p.stem: p.read_text() for p in FILES}, sources) == []


def test_an_unread_private_name_is_found():
    code = ("BISECT_LO = 1e-3\nRAABE_BAND: float = 0.1\nN_MAX = 10\n__all__ = []\n"
            "def _tail_converges():\n    return N_MAX\n"
            "def compute_tau():\n    return _tail_converges()\n"
            "def _tail_fit():\n    pass\n_kept = 1\n")
    assert _unread({"dimension": code}, [code, "x = m._kept\n"]) == \
        ["dimension.BISECT_LO", "dimension.RAABE_BAND", "dimension._tail_fit"]


_RULES = {"mesh must be": "intervals.check_mesh",
          "thresholds must be": "approx_sets.check_thresholds",
          "is too fine": "intervals.check_pieces",
          "delta must be in [2**-511, inf)": "approx_sets._product_pieces"}


def _holders(tree: ast.Module, module: str) -> dict[str, set[str]]:
    """For each message of _RULES, the module.function of tree whose
    strings hold it, module.<module> for a string outside any function."""
    found = {text: set() for text in _RULES}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                for text in found:
                    if text in child.value:
                        found[text].add(owner)
            visit(child, owner)

    visit(tree, f"{module}.<module>")
    return found


def test_each_scale_rule_has_one_owner():
    # a cover's mesh and thresholds, an overflowing count and a product-set
    # delta are refused by one function each, so no second copy of a rule,
    # with its own range and message, returns
    found = {text: set() for text in _RULES}
    for path in FILES:
        for text, owners in _holders(ast.parse(path.read_text()), path.stem).items():
            found[text] |= owners
    assert found == {text: {owner} for text, owner in _RULES.items()}


def test_a_second_rule_owner_is_found():
    code = ('def check_mesh(m):\n    raise ValueError(f"mesh must be finite, got {m}")\n'
            'def cover(m):\n    if m <= 0:\n        raise ValueError("mesh must be positive")\n'
            'MESSAGE = "thresholds must be numbers"\n')
    assert _holders(ast.parse(code), "intervals") == {
        "mesh must be": {"intervals.check_mesh", "intervals.cover"},
        "thresholds must be": {"intervals.<module>"},
        "is too fine": set(), "delta must be in [2**-511, inf)": set()}
