"""Structure guard: the shuffle has one exchange plane.

Every mapper writes one combined object and announces its offset directory
in its result message; there is no one-object-per-receiver plane beside it,
no switch selecting one, and no retry hook degrading to one.  The guard reads
the sources, so a second plane cannot come back under an old name — as an
identifier, a keyword, an event field, or a docstring.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SOURCES = Path(__file__).resolve().parent.parent / "src" / "repro"
GUARDED = sorted((SOURCES / "driver").glob("*.py")) + [
    SOURCES / "exchange" / "fetch.py",
    SOURCES / "config.py",
]
FORBIDDEN = (
    "MultiBucketNaming",
    "object_senders",
    "legacy_naming",
    "write_combining",
    "fast_codec",
    "combined_fallback_attempt",
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
