#!/usr/bin/env python3
"""Fail on a ``src/repro`` function that no production entry point reaches.

    python scripts/check_reachability.py

Records every ``repro`` function called while the production entry points
run — the five end-to-end workloads (one sweep each at seed 7), the paper's
figure/table benches, the examples, the CLI commands and the experiment
scripts — and compares the unreached set with
``tests/reachability_allowlist.txt``.  It exits 1 on:

* a function that is neither reached nor listed;
* a listed function that is now reached (a stale entry);
* a listed function that no longer exists.

So the list can only shrink.  Spawned pool children re-import this file as
``__mp_main__``, which arms their recorder too; each child dumps what it
reached at exit and the parent merges the dumps.  The benches need
``pytest-benchmark``.
"""

from __future__ import annotations

import ast
import atexit
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ALLOWLIST = ROOT / "tests" / "reachability_allowlist.txt"
#: Directory that every process of a run dumps its reached functions into.
DUMP_ENV = "REPRO_REACHABILITY_DUMPS"

#: Why a function may stay unreached.  An allowlist entry's reason starts
#: with one of these tags.
REASONS: Dict[str, str] = {
    "fault-plane": "fault, corruption and overload planes that the chaos suites drive",
    "error-path": "error constructors and error paths",
    "public-api": "public API that no entry point happens to call",
    "inspection": "the simulated cloud's inspection API that tests read",
    "trace-target": "a frozen benchmarks/e2e/spans.py target",
    "sql-reachable": "a case SQL can reach but no entry point runs",
}

Key = Tuple[str, int]  # (absolute file, first line of the code object)

_CODES: Set[object] = set()


def _record(frame, event, arg) -> None:
    if event == "call":
        _CODES.add(frame.f_code)


def _reached() -> Set[Key]:
    prefix = str(SRC) + os.sep
    keys = set()
    for code in list(_CODES):
        path = os.path.abspath(code.co_filename)
        if path.startswith(prefix):
            keys.add((path, code.co_firstlineno))
    return keys


def _dump() -> None:
    sys.setprofile(None)
    directory = os.environ.get(DUMP_ENV)
    if directory:
        with open(os.path.join(directory, f"{os.getpid()}.json"), "w") as handle:
            json.dump(sorted(_reached()), handle)


if __name__ in ("__main__", "__mp_main__"):
    for _entry in (str(ROOT), str(ROOT / "src")):
        if _entry not in sys.path:
            sys.path.insert(0, _entry)
    threading.setprofile(_record)
    sys.setprofile(_record)
    if __name__ == "__mp_main__":
        atexit.register(_dump)


def functions() -> Dict[Key, str]:
    """Every function, method and nested function of ``src/repro``.

    Maps ``(file, first line)`` — a decorated function's first line is its
    first decorator's, as in its code object — to ``path::qualname``.
    """
    found: Dict[Key, str] = {}

    def visit(node: ast.AST, prefix: str, relative: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[(path, first)] = f"{relative}::{qualname}"
                visit(child, qualname + ".<locals>.", relative, path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", relative, path)
            else:
                visit(child, prefix, relative, path)

    for file in sorted(SRC.rglob("*.py")):
        tree = ast.parse(file.read_text(encoding="utf-8"), str(file))
        visit(tree, "", file.relative_to(ROOT).as_posix(), str(file))
    return found


def read_allowlist(path: Path = ALLOWLIST) -> List[Tuple[str, str]]:
    """``(path::qualname, reason)`` per entry line, in file order."""
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition("#")
            entries.append((name.strip(), reason.strip()))
    return entries


def reason_tag(reason: str) -> str:
    """The tag a reason starts with (empty when it has none)."""
    tag = reason.split(":", 1)[0].strip()
    return tag if tag in REASONS else ""


def _quiet(call: Callable[[], object]) -> object:
    with contextlib.redirect_stdout(io.StringIO()):
        return call()


def _run_file(path: Path, *argv: str) -> int:
    """Run a script as ``__main__`` without replacing this process's main module."""
    saved = sys.argv
    sys.argv = [str(path), *argv]
    try:
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        exec(code, {"__name__": "__main__", "__file__": str(path)})
    except SystemExit as exit_:
        return exit_.code or 0
    finally:
        sys.argv = saved
    return 0


def _entry_points(scratch: str) -> List[Tuple[str, Callable[[], object]]]:
    import pytest

    from benchmarks.e2e import run
    from repro import cli

    entries: List[Tuple[str, Callable[[], object]]] = []
    for workload in ("scan_agg", "scan_agg_procs", "join_dag", "groupby_shuffle", "fixed_overhead"):
        argv = ["--workload", workload, "--sweeps", "1", "--seed", "7"]
        entries.append((f"e2e {workload}", lambda argv=argv: run.main(argv)))
    benches = sorted(
        str(path) for path in (ROOT / "benchmarks").glob("bench_*.py")
        if path.name != "bench_hot_paths.py"
    )
    entries.append(("benches", lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", "--benchmark-disable", *benches])))
    for example in sorted((ROOT / "examples").glob("*.py")):
        entries.append((f"example {example.name}", lambda example=example: _run_file(example)))
    commands = [["demo-query"]]
    commands += [["demo-query", "--tpch", f"q{n}", "--explain"] for n in (1, 3, 5, 6, 7, 9, 10, 12, 14, 18)]
    commands += [["exchange-cost"], ["invocation"], ["qaas"], ["verify-dataset"], ["overload-demo"]]
    for command in commands:
        entries.append((f"cli {' '.join(command)}", lambda command=command: cli.main(command)))
    scripts = ROOT / "scripts"
    entries.append(("run_tpch_experiments.py", lambda: _run_file(
        scripts / "run_tpch_experiments.py", "--runs", "1",
        "--output", os.path.join(scratch, "tpch.json"))))
    for extra in ([], ["--brownout"]):
        entries.append((f"run_overload_bench.py {' '.join(extra)}".strip(), lambda extra=extra: _run_file(
            scripts / "run_overload_bench.py", *extra,
            "--output", os.path.join(scratch, "overload.json"))))
    return entries


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        dumps = os.path.join(scratch, "dumps")
        os.mkdir(dumps)
        os.environ[DUMP_ENV] = dumps
        for label, call in _entry_points(scratch):
            status = _quiet(call)
            if status not in (None, 0):
                failed.append(f"{label} (exit {status})")
        sys.setprofile(None)
        threading.setprofile(None)
        reached = _reached()
        children = sorted(os.listdir(dumps))
        for name in children:
            with open(os.path.join(dumps, name)) as handle:
                reached.update((path, line) for path, line in json.load(handle))
    if failed:
        print("entry points failed: " + ", ".join(failed), file=sys.stderr)
        return 1

    found = functions()
    by_name: Dict[str, List[Key]] = {}
    for key, name in found.items():
        by_name.setdefault(name, []).append(key)
    listed = dict(read_allowlist())
    unreached = {name for key, name in found.items() if key not in reached}
    problems = [f"unreached and not listed: {name}" for name in sorted(unreached - set(listed))]
    for name in sorted(listed):
        if name not in by_name:
            problems.append(f"listed but no longer exists: {name}")
        elif name not in unreached:
            problems.append(f"listed but reached (delete the entry): {name}")
    print(f"{len(found)} functions in src/repro: {len(found) - len(unreached)} reached "
          f"({len(children)} pool children traced), {len(listed)} listed")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
