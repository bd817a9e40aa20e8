"""The benchmark tracer's seams: every name it patches or imports is bound
in isodag.

``perfbench/spans.py`` wraps functions by the names through which one isodag
module calls another (``WRAPPED``), and imports names from isodag modules
(``from isodag.<module> import <name>``, also inside its functions).  A
refactor that drops such a name would otherwise surface only deep inside a
traced benchmark run.  The tracer file is read, not imported, so this test
runs none of its code.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _tree() -> ast.Module:
    return ast.parse(SPANS.read_text())


def _wrapped() -> tuple:
    for node in _tree().body:
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


def test_every_name_the_tracer_imports_is_bound_in_its_module():
    imported = [(node.module, alias.name) for node in ast.walk(_tree())
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.startswith("isodag.") for alias in node.names]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, (
        f"perfbench/spans.py imports names that isodag no longer binds: {missing}")
