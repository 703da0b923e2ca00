"""N-way DAG parity: the five multi-stage join queries (Q5, Q7, Q9, Q10,
Q18) in every mode, on two data seeds, as parsed plans and through
``Session.sql``, and Q5 under chaos — conformance-matrix cells
(``tests/conformance.py``): each equals ``sqlite3`` exactly (the measures are
integer-valued basis points) with the NumPy references' dtypes, swept its
exchange, and never LISTed or HEADed.

A cancellation landing mid-DAG — after waves already wrote into the exchange —
must garbage-collect every tag's objects and leave the next query over the
same environment bit-identical to the baseline.
"""

from __future__ import annotations

import pytest

import repro.driver.shuffle as shuffle_module
from repro.driver.admission import CancellationToken
from repro.errors import QueryCancelledError
from tests.conformance import (
    CHAOS_SEEDS, DAG_QUERIES, DATA, MODES, Cell, assert_bit_identical, baseline, check,
    exchange_object_count, stack,
)
from tests.conftest import leaked_segments

DATA_IDS = {"ids": lambda seed: f"data{seed}"}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("query", DAG_QUERIES)
@pytest.mark.parametrize("data", DATA, **DATA_IDS)
def test_dag_parity(data, query, mode):
    check(Cell(query, data=data, mode=mode))


@pytest.mark.parametrize("query", DAG_QUERIES)
@pytest.mark.parametrize("data", DATA, **DATA_IDS)
def test_dag_parity_via_session_sql(data, query):
    check(Cell(query, data=data, front_end="sql"))


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("data", DATA, **DATA_IDS)
def test_q5_chaos_parity(data, seed):
    check(Cell("q5", data=data, storm=f"chaos-{seed}"))


@pytest.mark.parametrize("stage", ["join map", "join"])
@pytest.mark.parametrize("data", DATA, **DATA_IDS)
def test_q5_cancel_mid_dag_gcs_exchange_state(data, monkeypatch, stage):
    """Cancelled after a DAG wave ran — at ``join`` the fused join wave has
    already read the exchange and posted its results — every tag's objects
    are swept, and a rerun over the same environment is bit-identical to the
    baseline.  (Cancellation *between* join waves, with intermediates in the
    exchange, needs an unfused run: ``tests/test_join_wave_fusion.py``.)"""
    shared = stack(data)
    expected = baseline(Cell("q5", data=data)).table
    before = exchange_object_count(shared.env)
    deleted = []
    original = shuffle_module._gc_cancelled_query

    def spy(*args, **kwargs):
        count = original(*args, **kwargs)
        deleted.append(count)
        return count

    monkeypatch.setattr(shuffle_module, "_gc_cancelled_query", spy)
    token = CancellationToken(cancel_at_stage=stage)
    with pytest.raises(QueryCancelledError) as excinfo:
        shared.driver().execute(shared.plan("q5"), cancel=token)
    assert excinfo.value.stage == stage
    assert token.observed_stage == stage
    # The cancelled waves had already written exchange objects; GC had work.
    assert deleted and deleted[0] >= 1, f"{stage}: cancellation gc'd nothing"
    assert exchange_object_count(shared.env) == before
    assert shared.env.sqs.approximate_message_count(shared.driver().result_queue) == 0
    assert leaked_segments() == []
    rerun = shared.driver().execute(shared.plan("q5"))
    assert_bit_identical(expected, rerun.table, f"post-cancel rerun ({stage})")
