"""The reachability allowlist stays well-formed without running the harness.

``scripts/check_reachability.py`` runs every production entry point and fails
on a function that is neither reached nor listed; this checks, in tier-1 time,
that what it reads is sorted, names functions that exist and says why each
stays.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _checker():
    # Imported under its own name, not as ``__main__``: no recorder is armed.
    spec = importlib.util.spec_from_file_location(
        "check_reachability", ROOT / "scripts" / "check_reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_allowlist_is_sorted_unique_existing_and_reasoned():
    checker = _checker()
    entries = checker.read_allowlist()
    names = [name for name, _ in entries]
    assert names, "empty allowlist"
    assert names == sorted(names), "allowlist is not sorted"
    assert len(set(names)) == len(names), "duplicate allowlist entries"
    existing = set(checker.functions().values())
    missing = [name for name in names if name not in existing]
    assert not missing, f"listed functions that do not exist: {missing}"
    unreasoned = [name for name, reason in entries if not checker.reason_tag(reason)]
    assert not unreasoned, f"entries without a known reason tag: {unreasoned}"


def test_a_function_is_keyed_like_its_code_object():
    """A decorated function's code object starts at its first decorator."""
    from repro.engine.scan import ScanCounters

    found = _checker().functions()
    for function in (ScanCounters.row_groups_scanned.fget, ScanCounters.modelled_scan_seconds):
        code = function.__code__
        key = (str(Path(code.co_filename).resolve()), code.co_firstlineno)
        assert found[key] == f"src/repro/engine/scan.py::{function.__qualname__}"
