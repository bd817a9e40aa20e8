"""The benchmark tracer's seams: every name it patches is bound in isodag.

``perfbench/spans.py`` wraps functions by the names through which one isodag
module calls another (``WRAPPED``).  A refactor that drops such a name would
otherwise surface only deep inside a traced benchmark run.  The tracer file
is read, not imported, so this test runs none of its code.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _wrapped() -> tuple:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no WRAPPED table")


def test_every_traced_name_is_bound_in_its_module():
    wrapped = _wrapped()
    assert wrapped
    missing = [f"isodag.{module}.{name}" for module, name, _ in wrapped
               if not callable(getattr(importlib.import_module(f"isodag.{module}"),
                                       name, None))]
    assert not missing, (
        f"perfbench/spans.py patches names that isodag no longer binds: {missing}")
