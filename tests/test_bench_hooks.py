"""The names perfbench takes from the package still hold.

perfbench times layers by replacing module attributes by name, and times
each verify check under an id it lists itself, so deleting or renaming one
of them breaks the benchmark without failing any other test.  These read
the lists from perfbench and change nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from diophlab import verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_perfbench_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module in spans.MODULES:
        importlib.import_module(module)
    targets = [(module, name) for module, name, _ in spans.LAYERS]
    targets.append(("approx_sets", "_product_pieces"))
    missing = [f"diophlab.{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"diophlab.{module}"),
                                       name, None))]
    assert missing == []


def test_perfbench_verify_checks_are_the_check_ids():
    # read by ast, not imported: run.py imports the rest of perfbench
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "VERIFY_CHECKS" for t in node.targets))
    assert list(listed) == sorted(verify.CHECKS)
