"""Structure guards for the planner: one plan class, one join lowering,
made of short passes.

A query with one join lowers through the same pipeline as a query with
many (a one-stage :class:`~repro.plan.physical.DagPhysicalPlan`), and a
query without joins is the plan with no stages and no exchange, so the one
physical plan class is ``DagPhysicalPlan``.  These guards fail if a second
lowering, a second plan or fragment class, the protocol method that
converted between them, the scan-only handler and driver paths they fed,
or the integrity switch (its config class and any ``checksum`` parameter:
checksums are the format, not an option) come back anywhere under
``src/``, or if a pass of the optimizer outgrows
80 lines.  The driver's
functions are held to the same measure by a ratchet: the long ones that
exist are listed with their length, and may only shrink.
"""

import ast
import re
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "repro"
OPTIMIZER = SOURCES / "plan" / "optimizer.py"
RETIRED = re.compile(
    r"\b(JoinPhysicalPlan|_optimize_join|as_dag|PhysicalPlan|JoinSidePlan|worker_template"
    r"|_make_map_handler|_gc_cancelled_scan|_execute_join|IntegrityConfig|DEFAULT_INTEGRITY)\b"
    r"|\b(checksum)\s*[:=](?!=)"
)
MAX_FUNCTION_LINES = 80
MAX_OPTIMIZER_LINES = 720
DRIVER = SOURCES / "driver"
#: Every function of ``src/repro/driver/`` over ``MAX_FUNCTION_LINES`` lines,
#: with its length.  A function may shrink (then lower or drop its entry);
#: it may not grow, and no other function may join the list.
LONG_DRIVER_FUNCTIONS = {
    "driver.py::LambadaDriver.execute": 101,
    "shuffle.py::_make_reduce_handler": 85,
    "shuffle.py::ShuffleJoinCoordinator._execute_waves": 140,
}


def test_no_second_join_lowering():
    found = {
        str(path.relative_to(SOURCES)): sorted(
            {name for names in RETIRED.findall(path.read_text()) for name in names if name}
        )
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


def _function_lengths(node: ast.AST, prefix: str = ""):
    """``(qualified name, lines)`` of every function under ``node``; a nested
    function is named after its enclosing ones (``outer.inner``)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            yield name, child.end_lineno - child.lineno + 1
            yield from _function_lengths(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _function_lengths(child, prefix + child.name + ".")
        else:
            yield from _function_lengths(child, prefix)


def test_long_driver_functions_only_shrink():
    long = {
        f"{path.name}::{name}": lines
        for path in sorted(DRIVER.glob("*.py"))
        for name, lines in _function_lengths(ast.parse(path.read_text()))
        if lines > MAX_FUNCTION_LINES
    }
    grown = {
        name: lines
        for name, lines in long.items()
        if lines > LONG_DRIVER_FUNCTIONS.get(name, MAX_FUNCTION_LINES)
    }
    assert grown == {}, f"driver functions new to or grown past the list: {grown}"
    # An entry whose function shrank to size or went away is dropped, so the
    # list cannot lend its budget to a later function of the same name.
    assert set(LONG_DRIVER_FUNCTIONS) <= set(long)


def test_physical_plans_are_one_class():
    from repro.plan import physical

    plans = {
        name
        for name, cls in vars(physical).items()
        if isinstance(cls, type) and cls.__module__ == physical.__name__
        and callable(getattr(cls, "waves", None))
    }
    assert plans == {"DagPhysicalPlan"}
    assert not hasattr(physical.DagPhysicalPlan, "engine")
