"""Seed implementations that benchmarks and parity tests compare against.

Comparators live beside the benches, not in ``src/``: code stays in the
package only while a production path reaches it (ROADMAP item 4).
"""

from __future__ import annotations

import json
from typing import Dict

import numpy as np


def seed_table_to_wire(table: Dict[str, np.ndarray]) -> str:
    """The seed's result payload: every column as a JSON list of its values."""
    return json.dumps(
        {name: np.asarray(column).tolist() for name, column in table.items()}
    )


def seed_table_from_wire(wire: str) -> Dict[str, np.ndarray]:
    """Inverse of :func:`seed_table_to_wire` (dtypes come back as JSON's)."""
    return {name: np.asarray(values) for name, values in json.loads(wire).items()}


def hash_join_dict(
    left: Dict[str, np.ndarray],
    right: Dict[str, np.ndarray],
    left_key: str,
    right_key: str,
    suffix: str = "_right",
) -> Dict[str, np.ndarray]:
    """The seed's dict build/probe join kernel (single key only).

    Keys are compared as the Python values ``tolist()`` yields, one probe row
    at a time; matches come out ordered by left row, then right row.
    """
    build: Dict[object, list] = {}
    for index, key in enumerate(np.asarray(right[right_key]).tolist()):
        build.setdefault(key, []).append(index)

    left_indices = []
    right_indices = []
    for index, key in enumerate(np.asarray(left[left_key]).tolist()):
        matches = build.get(key)
        if not matches:
            continue
        left_indices.extend([index] * len(matches))
        right_indices.extend(matches)

    left_idx = np.asarray(left_indices, dtype=np.int64)
    right_idx = np.asarray(right_indices, dtype=np.int64)
    result = {name: np.asarray(column)[left_idx] for name, column in left.items()}
    for name, column in right.items():
        if name == right_key:
            continue
        out_name = name if name not in left else name + suffix
        if out_name in result:
            raise ValueError(f"column name collision on {out_name!r}")
        result[out_name] = np.asarray(column)[right_idx]
    return result
