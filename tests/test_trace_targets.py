"""The layer functions that perfbench's tracer wraps must exist in ringlab.

perfbench/spans.py lists them as (module, attribute, span) in TARGETS; a
renamed or deleted function would otherwise surface only when a traced
benchmark run fails. The file is parsed, not imported, so nothing under
perfbench/ is executed or written.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def trace_targets():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS list in {SPANS}")


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    missing = [
        (module, attr) for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(f"ringlab.{module}"), attr, None))
    ]
    assert not missing, missing
