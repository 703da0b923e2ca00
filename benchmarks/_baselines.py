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
