"""The nlskit names that the benchmark tracer finds by name still exist.

perfbench/tracing.py rebinds nlskit functions that it looks up by module and
attribute name, and skips a missing one with no failure.  These tests read
its ENTRY_POINTS and SPAN_HOOKS tables with ast, without importing it.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _table(name: str) -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {TRACING}")


def _missing(targets) -> list[str]:
    """The (module, attribute or Class.method) targets that do not resolve
    to a callable."""
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    return missing


def test_every_entry_point_resolves():
    # the first call into one of these ends the benchmark's set-up clock
    targets = _table("ENTRY_POINTS")
    assert targets
    assert _missing(targets) == []


def test_verify_and_diagnostics_span_hooks_resolve():
    targets = [(module, attr) for module, attr, _ in _table("SPAN_HOOKS")
               if module in ("nlskit.verify", "nlskit.diagnostics")]
    assert len(targets) == 5
    assert _missing(targets) == []
