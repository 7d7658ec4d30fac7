"""The functions perfbench/spans.py wraps from outside the package resolve.

perfbench times layers by replacing module attributes by name, so deleting
or renaming one of them breaks the benchmark without failing any other
test.  This reads the name list from perfbench and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
