"""In-memory table utilities.

A *table* (or table chunk) is simply a ``dict`` mapping column names to
equal-length NumPy arrays — the columnar in-memory representation that the
paper's JIT-compiled pipelines consume.  These helpers keep that invariant and
provide the operations shared by several operators.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.errors import ExecutionError, UnknownColumnError

#: Type alias for readability; a table maps column name -> NumPy array.
Table = Dict[str, np.ndarray]


def table_num_rows(table: Table) -> int:
    """Number of rows in a table (0 for an empty dict)."""
    if not table:
        return 0
    lengths = {len(column) for column in table.values()}
    if len(lengths) != 1:
        raise ExecutionError(f"ragged table with column lengths {sorted(lengths)}")
    return lengths.pop()


def key_slots(keys: np.ndarray, key_min: int) -> np.ndarray:
    """``keys - key_min`` modulo 2^64, as int64 table indices.

    The keys are widened to int64 (uint64 if unsigned) before the subtraction,
    so a narrow key cannot wrap in its own dtype, and the difference stays
    exact where it matters: a key lies in ``[key_min, key_min + span)`` iff
    its slot, read as uint64, is below ``span``.  (The slot is the true
    difference ``d`` modulo 2^64, so the only other way below ``span`` is
    ``d < span - 2^64``, which puts the key under ``key_max + 1 - 2^64`` —
    under its dtype's minimum.)  int64 extremes and uint64 keys above 2^63
    need no special case.
    """
    wide = np.uint64 if keys.dtype.kind == "u" else np.int64
    return (keys.astype(wide, copy=False) - wide(key_min)).view(np.int64)


def select_columns(table: Table, columns: Sequence[str]) -> Table:
    """Keep only ``columns`` (in the given order)."""
    missing = [name for name in columns if name not in table]
    if missing:
        raise UnknownColumnError(", ".join(missing))
    return {name: table[name] for name in columns}


def filter_table(table: Table, mask: np.ndarray) -> Table:
    """Apply a boolean mask to every column."""
    if mask.dtype != bool:
        mask = mask.astype(bool)
    if len(mask) != table_num_rows(table):
        raise ExecutionError(
            f"mask of length {len(mask)} applied to table of {table_num_rows(table)} rows"
        )
    return {name: column[mask] for name, column in table.items()}


def concat_tables(tables: Iterable[Table]) -> Table:
    """Concatenate tables with identical column sets."""
    parts: List[Table] = [table for table in tables if table_num_rows(table) > 0]
    if not parts:
        return {}
    names = list(parts[0].keys())
    for part in parts[1:]:
        if list(part.keys()) != names:
            raise ExecutionError(
                f"cannot concatenate tables with different columns: {names} vs {list(part.keys())}"
            )
    return {name: np.concatenate([part[name] for part in parts]) for name in names}


def empty_table_like(columns: Sequence[str]) -> Table:
    """An empty table with the given column names (float64 columns)."""
    return {name: np.zeros(0, dtype=np.float64) for name in columns}


def take_rows(table: Table, indices: np.ndarray) -> Table:
    """Row gather by integer indices: one fancy-index pass per column."""
    return {name: np.asarray(column)[indices] for name, column in table.items()}


def sort_table(table: Table, keys: Sequence[str], descending: bool = False) -> Table:
    """Sort a table by one or more key columns (lexicographic, stable)."""
    if not keys:
        return table
    missing = [name for name in keys if name not in table]
    if missing:
        raise UnknownColumnError(", ".join(missing))
    # np.lexsort sorts by the *last* key first, so reverse the key order.
    order = np.lexsort(tuple(np.asarray(table[name]) for name in reversed(keys)))
    if descending:
        order = order[::-1]
    return take_rows(table, order)
