"""Seed implementations that benchmarks and parity tests compare against.

Comparators live beside the benches, not in ``src/``: code stays in the
package only while a production path reaches it (ROADMAP item 4).
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

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


def tables_allclose(
    left: Dict[str, np.ndarray],
    right: Dict[str, np.ndarray],
    rtol: float = 1e-9,
    atol: float = 1e-9,
    equal_nan: bool = True,
) -> bool:
    """Whether two tables have the same columns and numerically equal content.

    NaNs compare equal by default (``equal_nan``): two pipelines that both
    produce a NaN for the same row agree semantically.
    """
    if set(left.keys()) != set(right.keys()):
        return False
    for name in left:
        if len(left[name]) != len(right[name]):
            return False
        if not np.allclose(
            np.asarray(left[name], dtype=np.float64),
            np.asarray(right[name], dtype=np.float64),
            rtol=rtol,
            atol=atol,
            equal_nan=equal_nan,
        ):
            return False
    return True


def scan_baseline(store, files: Sequence[str], columns: Sequence[str], predicate,
                  bandwidth=None) -> Tuple[List[Dict[str, np.ndarray]], object]:
    """The full-decode scan that late materialization replaced.

    Opens the files as :class:`~repro.engine.scan.S3ScanOperator` does (one
    batch of suffix reads), then, for every row group, decodes every column
    the outputs and the predicate need, evaluates the whole predicate on the
    decoded arrays and mask-copies the outputs.  Returns the non-empty chunks
    and the GET/byte counts of the reads.
    """
    from repro.counters import Counts
    from repro.engine.s3io import S3ObjectSource, open_sources
    from repro.formats.parquet import TAIL_BYTES, ColumnarFile
    from repro.plan.expressions import evaluate, referenced_columns

    counts = Counts()
    sources = [S3ObjectSource(store, path, bandwidth=bandwidth, counts=counts) for path in files]
    open_sources(sources, TAIL_BYTES)
    needed = list(dict.fromkeys([*columns, *sorted(referenced_columns(predicate))]))
    chunks = []
    for source in sources:
        reader = ColumnarFile(source)
        for group in reader.row_groups:
            if not group.num_rows:
                continue
            reader.prefetch(group, needed)
            decoded = {name: reader.read_encoded_chunk(group, name).decode() for name in needed}
            mask = np.asarray(evaluate(predicate, decoded), dtype=bool)
            if mask.any():
                chunks.append({name: decoded[name][mask] for name in columns})
    return chunks, counts
