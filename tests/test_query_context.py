"""Structure guard: one query context per query.

The per-query state of a fleet — jitter stream, counters, breaker board,
retry budget, cancellation token — lives in
:class:`~repro.driver.dispatch.QueryContext`, opened once per query and
passed down.  The guard reads the sources, so neither the driver nor the
coordinators can grow an armed copy of it again: no ``_active_*`` fields, no
``_arm_overload``, no jitter stream of their own, no ``execute`` that takes
the overload plane piecemeal, and no direct call of the primitives the
context wraps.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

DRIVER = Path(__file__).resolve().parent.parent / "src" / "repro" / "driver"
CALLERS = [DRIVER / "driver.py", DRIVER / "shuffle.py"]
ARMED = re.compile(r"^(_arm_overload|_jitter_rng|_active_\w+)$")
PIECEMEAL = {"now_fn", "breakers", "budget"}
WRAPPED = (
    "call_with_backoff",
    "collect_results",
    "fetch_spilled_result",
    "RetryBudget",
)


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text())


def _called(tree: ast.AST) -> set:
    """Names called in a module, plain or as an attribute."""
    return {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


@pytest.mark.parametrize("path", CALLERS, ids=lambda path: path.name)
def test_no_class_keeps_an_armed_copy_of_the_query(path):
    found = set()
    for cls in (n for n in ast.walk(_tree(path)) if isinstance(n, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found.update(f"{cls.name}.{name}" for name in names if ARMED.match(name))
    assert found == set()


def test_no_execute_takes_the_overload_plane_piecemeal():
    found = []
    for path in sorted(DRIVER.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.FunctionDef) and node.name == "execute":
                arguments = node.args.args + node.args.kwonlyargs
                found += [
                    f"{path.name}:{node.lineno} {arg.arg}"
                    for arg in arguments
                    if arg.arg in PIECEMEAL
                ]
    assert found == []


@pytest.mark.parametrize("path", CALLERS, ids=lambda path: path.name)
def test_callers_reach_the_primitives_through_the_context(path):
    assert _called(_tree(path)) & set(WRAPPED) == set()


def test_the_context_is_what_calls_the_primitives():
    assert set(WRAPPED) <= _called(_tree(DRIVER / "dispatch.py"))
