"""The conformance matrix in tier-1 (``tests/conformance.py``).

The cells older suites ran keep their ids in those suites (mode, DAG, chaos,
corruption, join, oracle and result-plane parity); this module adds a greedy
all-pairs cover of the axes, the aggregates over no rows, the generated
axis — hypothesis-built single-relation queries in serial and ``processes``
at three forced widths, each its own ``sqlite3`` reference — and the tripwire
of the exclusions.  The full product is ``tests/conformance_product.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conformance import (
    EMPTY_AGGREGATES,
    STORMS,
    WIDTHS,
    Cell,
    check,
    check_generated,
    excluded,
    generated_queries,
    pairwise,
)


@pytest.mark.parametrize("cell", pairwise(), ids=lambda cell: cell.id)
def test_pairwise_cell(cell):
    check(cell)


@pytest.mark.parametrize("mode", ["serial", "processes"])
@pytest.mark.parametrize("query", EMPTY_AGGREGATES)
def test_aggregate_over_no_rows_is_one_row(query, mode):
    result = check(Cell(query, mode=mode))
    assert result.table["n"].tolist() == [0.0]


@settings(
    max_examples=60, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(query=st.deferred(generated_queries))
def test_generated_query(query):
    check_generated(query)


@pytest.mark.parametrize("storm", STORMS[1:])
def test_excluded_cells_inject_nothing(storm):
    """The tripwire of :func:`~tests.conformance.excluded`: a pooled scan
    under a corruption storm (and, at one worker, a chaos storm) still
    returns its table and injects nothing.  When the pool runs the deployed
    handler (ROADMAP item 16) this fails, and the exclusion goes."""
    cells = [
        Cell(query, mode="processes", width=width, storm=storm)
        for query in ("q1", "q6") for width in WIDTHS
    ]
    tripped = [cell for cell in cells if excluded(cell)]
    assert tripped
    for cell in tripped:
        check(cell)
