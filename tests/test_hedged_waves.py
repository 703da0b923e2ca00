"""Every fleet hedges: a straggler in a shuffle wave is raced like a scan's.

Every fleet runs through one ``QueryContext.wave``, so a Q3 map worker, a Q3
join worker and a reducer of the aggregation facade slowed 400x are each raced
by a hedge, exactly as a scan worker is (``tests/test_resilience.py``).  In
serial mode, for each: the hedge wins; the answer is bit-identical to a clean
run; every dispatched payload is one attempt span and one Lambda invocation
the ledger metered (workers + retries + hedges); and the exchange objects and
spilled results of both racers are gone when the query returns.
"""

from __future__ import annotations

import pytest

from repro.cloud.faults import FaultPlan, FaultRule
from repro.driver import spans
from repro.driver.shuffle import (
    JOIN_MAP_FUNCTION_NAME,
    JOIN_REDUCE_FUNCTION_NAME,
    REDUCE_FUNCTION_NAME,
    ShuffleAggregateCoordinator,
)
from repro.frontend.sql import parse_sql
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.workload.queries import q3_sql, tpch_catalog
from repro.workload.tpch import generate_orders_dataset

from tests.conformance import assert_bit_identical

#: Four hash partitions, so every wave has the four workers a hedge needs.
WORKERS = 4


def _straggling(env, function_name, run):
    """``run()`` with the first invocation of ``function_name`` slowed 400x;
    returns its table and statistics and the Lambda invocations the ledger
    metered for it."""
    invocations = env.ledger.total("lambda", "invocations")
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("lambda", "straggler", 1.0, match=function_name, max_count=1,
                       factor=400.0)],
            seed=5,
        )
    )
    try:
        table, statistics = run()
    finally:
        env.install_fault_plan(None)
    return table, statistics, env.ledger.total("lambda", "invocations") - invocations


def _assert_the_hedge_won(statistics, billed, wave_index):
    resilience = statistics.resilience
    assert resilience.faults_injected == {"lambda.straggler": 1}
    assert resilience.hedges_launched == resilience.hedges_won == 1
    tree = statistics._trace
    attempts = spans.attempts(tree)
    workers = statistics.num_workers
    assert len(attempts) == workers + resilience.retries + resilience.hedges_launched == billed
    wave = tree.find("wave")[wave_index]
    (hedge,) = [span for span in wave.children if span.attrs["hedge"]]
    assert hedge.events == [("hedge_won", {})] and hedge.attrs["accepted"]
    (straggler,) = [
        span for span in wave.children
        if span.attrs["key"] == hedge.attrs["key"] and not span.attrs["hedge"]
    ]
    assert not straggler.attrs["accepted"]
    # The straggler's 400x run adds nothing to the modelled clock.
    assert statistics.latency_seconds < straggler.attrs["duration"]
    assert 0.0 < resilience.wasted_cost_dollars <= statistics.cost_total


@pytest.fixture
def q3(driver, dataset):
    orders = generate_orders_dataset(driver.env.s3, scale_factor=0.001, num_files=2, seed=7)
    plan = parse_sql(q3_sql(), tpch_catalog(lineitem=dataset.paths, orders=orders.paths))

    def run():
        result = driver.execute(plan, num_workers=WORKERS)
        return result.table, result.statistics

    return run


@pytest.mark.parametrize(
    "function_name, wave_index",
    [(JOIN_MAP_FUNCTION_NAME, 0), (JOIN_REDUCE_FUNCTION_NAME, 1)],
    ids=["map", "join"],
)
def test_a_q3_straggler_is_hedged(driver, q3, function_name, wave_index):
    env = driver.env
    clean_table, clean = q3()
    objects = env.s3.object_count()
    table, statistics, billed = _straggling(env, function_name, q3)
    assert clean.resilience.hedges_launched == 0
    assert [len(wave.children) for wave in clean._trace.find("wave")] == [6, WORKERS]
    assert_bit_identical(clean_table, table, function_name)
    _assert_the_hedge_won(statistics, billed, wave_index)
    assert env.s3.object_count() == objects
    assert statistics.gc_list_requests > 0  # the loser's objects were swept


def test_a_facade_reducer_straggler_is_hedged(env, dataset, monkeypatch):
    # Every reducer's result spills, so the straggler's spilled result is
    # one the sweep must find.
    monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 64)
    coordinator = ShuffleAggregateCoordinator(env, num_buckets=4)

    def run():
        return coordinator.execute(
            dataset.paths, group_by=["l_orderkey"],
            aggregates=[AggregateSpec("sum", col("l_quantity"), "quantity")],
            order_by=["l_orderkey"], num_workers=WORKERS,
        )

    clean_table, clean = run()
    objects = env.s3.object_count()
    table, statistics, billed = _straggling(env, REDUCE_FUNCTION_NAME, run)
    assert clean.num_workers == 2 * WORKERS
    assert_bit_identical(clean_table, table, "facade reducer")
    _assert_the_hedge_won(statistics, billed, 1)
    assert statistics.results_spilled == WORKERS
    assert env.s3.object_count() == objects
