"""The calibration unit: one frozen kernel timed right before every sweep.

On a small shared host whole runs drift: identical code runs up to twice as
slow for seconds to minutes at a time, CPU time drifts with wall time, and
no within-run statistic removes it.  Dividing each sweep by the wall time of
a fixed kernel run *immediately before it* does most of it: a sample is
``sweep_wall / calibration_wall`` of its own pair.

What the kernel is made of matters.  The slow phases hit interpreter-bound,
allocation-heavy code about twice as hard as long NumPy loops over large
arrays, and the engine's sweeps are the former.  A kernel of large-array
``argsort``/gather/``bincount``/``tobytes`` (the first design) slowed by only
a third to a half of what the sweeps did, which left 4-30 % between the
medians of 7 s windows of one process; the mix below — NumPy calls on
row-group-sized arrays, a JSON round trip of a footer-like document, and
plain Python object churn — follows the sweeps (log-log slope 0.7-1.1 on all
five workloads) and left 3-7 %.  README.md has the numbers.

The kernel never imports ``repro``.  Changing anything in this file redefines
the unit of ``sweep_cal_*`` and needs its own benchmark issue.
"""

from __future__ import annotations

import json
import time

import numpy as np

_ROW_GROUP_ROWS = 2048
_ARRAY_ROUNDS = 300
_JSON_ROUNDS = 4
_OBJECTS = 8000


class _Record:
    def __init__(self, number: int, label: str, fields: dict) -> None:
        self.number = number
        self.label = label
        self.fields = fields


class Calibration:
    """Holds the kernel's fixed inputs; :meth:`run` executes it once, timed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20200614)
        self._columns = [rng.random(_ROW_GROUP_ROWS) for _ in range(8)]
        self._codes = rng.integers(0, 6, size=_ROW_GROUP_ROWS)
        self._document = json.dumps({"row_groups": [
            {"num_rows": _ROW_GROUP_ROWS, "columns": [
                {"name": f"c{column}", "offset": 1000 * group + column, "size": 1234,
                 "min": 0.5, "max": 99.5, "encoding": "plain", "crc": 123456789}
                for column in range(16)
            ]}
            for group in range(20)
        ]})

    def run(self) -> float:
        """Wall seconds of one kernel execution."""
        columns, codes, document = self._columns, self._codes, self._document
        start = time.perf_counter()

        # NumPy calls on row-group-sized arrays: filter, gather, grouped sum.
        total = 0.0
        for index in range(_ARRAY_ROUNDS):
            values = columns[index % 8]
            selected = np.flatnonzero(values > 0.3)
            weights = values[selected] * (1 - columns[(index + 1) % 8][selected])
            total += np.bincount(codes[selected], weights=weights, minlength=6)[0]

        # Metadata handling: parse and re-serialise a footer-like document.
        for _ in range(_JSON_ROUNDS):
            text = json.dumps(json.loads(document))

        # Plain Python object churn: instances, dicts, tuples, strings.
        records = []
        for number in range(_OBJECTS):
            record = _Record(number, f"k{number % 13}", {"x": number, "y": (number, number + 1)})
            records.append(record)
            if record.fields["x"] % 7 == 0:
                record.label += "!"
        by_label: dict = {}
        for record in records:
            by_label.setdefault(record.label, []).append(record.number)

        elapsed = time.perf_counter() - start
        # Consume the results so no step can be skipped.
        if not total > 0 or len(text) != len(document) or len(by_label) != 26:
            raise AssertionError("calibration kernel produced a wrong result")
        return elapsed
