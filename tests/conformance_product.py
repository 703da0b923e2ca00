"""The conformance matrix's full product: every named query on both data
seeds, in every mode, at every width, under every storm, through both front
ends (less the combinations ``tests/conformance.py::excluded`` names), and a
longer run of the generated axis.  Not collected by the tier-1 run; CI's
chaos job passes it by path:

    PYTHONPATH=src python -m pytest -q tests/test_conformance.py tests/conformance_product.py
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conformance import check, check_generated, generated_queries, product


@pytest.mark.parametrize("cell", product(), ids=lambda cell: cell.id)
def test_cell(cell):
    check(cell)


@settings(
    max_examples=500, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(query=st.deferred(generated_queries))
def test_generated_query(query):
    check_generated(query)
