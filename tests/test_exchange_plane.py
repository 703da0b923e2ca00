"""Structure guard: ``src/`` has one exchange plane.

Every sender — a shuffle mapper, a member of a multi-level exchange group —
writes one combined object and announces its offset directory; every
receiver reads the announced slices.  There is no one-object-per-receiver
plane beside it, no switch selecting one, no retry hook degrading to one, no
offset directory encoded in a key, and no LIST/HEAD discovery.  The guard
reads the sources, so a second plane cannot come back under an old name — as
an identifier, a keyword, an event field, or a docstring.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SOURCES = Path(__file__).resolve().parent.parent / "src" / "repro"
EXCHANGE = sorted((SOURCES / "exchange").glob("*.py"))
GUARDED = sorted((SOURCES / "driver").glob("*.py")) + EXCHANGE + [SOURCES / "config.py"]
FORBIDDEN = (
    "MultiBucketNaming",
    "object_senders",
    "legacy_naming",
    "write_combining",
    "fast_codec",
    "combined_fallback_attempt",
    "BasicGroupExchange",
    "BasicExchange",
    "ExchangeConfig",
    "FileNaming",
    "SingleBucketNaming",
    "discover_combined_objects",
    "combined_key",
    "parse_directory",
    "max_poll_attempts",
)
WORD = re.compile(r"\b(" + "|".join(FORBIDDEN) + r")\b")


def _names(tree: ast.AST):
    """Every identifier and every string constant of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


@pytest.mark.parametrize("path", GUARDED, ids=lambda path: str(path.relative_to(SOURCES)))
def test_no_second_exchange_plane(path):
    found = sorted(
        {match for name in _names(ast.parse(path.read_text())) for match in WORD.findall(name)}
    )
    assert found == [], f"{path.name} names {found}"


@pytest.mark.parametrize("path", EXCHANGE, ids=lambda path: str(path.relative_to(SOURCES)))
def test_exchange_discovers_nothing_and_reads_no_lpq(path):
    """Nothing under ``exchange/`` lists or heads an object, or reads a
    partition as an LPQ file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("list_objects", "head_object"):
                found.append(node.func.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.formats.parquet":
            found.append(node.module)
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "repro.formats.parquet"]
    assert found == [], f"{path.name} uses {found}"
