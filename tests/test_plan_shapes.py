"""Structure guards for the planner: one join lowering, made of short passes.

A query with one join lowers through the same pipeline as a query with
many (a one-stage :class:`~repro.plan.physical.DagPhysicalPlan`), so the
physical plans are ``PhysicalPlan`` and ``DagPhysicalPlan`` and nothing
else.  These guards fail if the second lowering, its plan class or the
protocol method that converted between them comes back anywhere under
``src/``, or if a pass of the optimizer outgrows 80 lines.
"""

import ast
import re
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "repro"
OPTIMIZER = SOURCES / "plan" / "optimizer.py"
RETIRED = re.compile(r"\b(JoinPhysicalPlan|_optimize_join|as_dag)\b")
MAX_FUNCTION_LINES = 80
MAX_OPTIMIZER_LINES = 720


def test_no_second_join_lowering():
    found = {
        str(path.relative_to(SOURCES)): sorted(set(RETIRED.findall(path.read_text())))
        for path in sorted(SOURCES.rglob("*.py"))
    }
    assert {path: names for path, names in found.items() if names} == {}


def test_optimizer_functions_are_short_passes():
    tree = ast.parse(OPTIMIZER.read_text())
    long = {
        node.name: node.end_lineno - node.lineno + 1
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.end_lineno - node.lineno + 1 > MAX_FUNCTION_LINES
    }
    assert long == {}, f"functions over {MAX_FUNCTION_LINES} lines: {long}"
    assert len(OPTIMIZER.read_text().splitlines()) <= MAX_OPTIMIZER_LINES


def test_physical_plans_are_two_classes():
    from repro.plan import physical

    engines = {
        name: cls.engine
        for name, cls in vars(physical).items()
        if isinstance(cls, type) and isinstance(getattr(cls, "engine", None), str)
    }
    assert engines == {"PhysicalPlan": "scan", "DagPhysicalPlan": "shuffle-dag"}
