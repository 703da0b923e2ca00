"""One bill: a query's dollars are the metering ledger's price of its records.

Every ledger record made while a query runs is tagged with the query's id
(:meth:`repro.driver.dispatch.QueryContext.scope`), and the statistics'
dollars are views over that slice.  These tests hold ``cost_total`` to the
ledger exactly for every kind of query and execution mode, across thread
hops and concurrent queries, and check a request the old arithmetic never
billed: a glob's LIST (the catalog's DynamoDB lookups are checked in
``tests/test_catalog.py``).
"""

import contextvars
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cloud.metering import QUERY_TAG, MeteringLedger
from repro.driver.admission import AdmissionConfig, CancellationToken
from repro.driver.driver import LambadaDriver, QuerySession
from repro.driver.shuffle import ShuffleAggregateCoordinator
from repro.errors import QueryCancelledError
from repro.frontend.sql import parse_sql
from repro.plan.logical import AggregateSpec
from repro.workload import generate_lineitem_dataset, generate_orders_dataset
from repro.workload.queries import q1_sql, q3_sql, q6_sql, tpch_catalog


def _billed(env, run):
    """``run()``, the one query tag its ledger records carry, and the
    whole ledger's price delta across it."""
    cost, records = env.ledger.total_cost(), len(env.ledger)
    result = run()
    tags = {record.tag for record in list(env.ledger.records())[records:]}
    assert len(tags) == 1 and None not in tags, tags
    return result, tags.pop(), env.ledger.total_cost() - cost


def _holds_to_the_ledger(env, statistics, tag, delta):
    assert statistics.cost_total == env.ledger.total_cost(tag)
    assert math.isclose(statistics.cost_total, delta, rel_tol=1e-12)


@pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
def test_a_scan_bills_its_ledger_slice_in_every_mode(env, mode):
    """Q1 at SF 0.002 on 8 files; ``threads`` at 4 invocations at a time
    bills the records its pool threads made only if each carries the
    query's context."""
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.002, num_files=8, seed=7)
    driver = LambadaDriver(
        env, result_queue=f"q-{mode}", execution_mode=mode,
        max_parallel_invocations=2 if mode == "processes" else 4,
    )
    plan = parse_sql(q1_sql(), tpch_catalog(lineitem=dataset.paths))
    try:
        result, tag, delta = _billed(env, lambda: driver.execute(plan))
    finally:
        driver.close()
    statistics = result.statistics
    _holds_to_the_ledger(env, statistics, tag, delta)
    components = (
        statistics.cost_lambda_duration + statistics.cost_lambda_requests
        + statistics.cost_s3_requests + statistics.cost_sqs_requests
        + statistics.cost_dynamodb_requests
    )
    assert components == pytest.approx(statistics.cost_total, rel=1e-12)
    assert statistics.cost_lambda_requests == env.ledger.prices.lambda_invocation_cost(8)


def test_a_join_dag_bills_its_ledger_slice(env, driver, dataset):
    orders = generate_orders_dataset(env.s3, scale_factor=0.001, num_files=2, seed=7)
    plan = parse_sql(q3_sql(), tpch_catalog(lineitem=dataset.paths, orders=orders.paths))
    result, tag, delta = _billed(env, lambda: driver.execute(plan))
    _holds_to_the_ledger(env, result.statistics, tag, delta)
    assert result.statistics.wave_stages


def test_the_facade_bills_its_listing_and_both_waves(env, dataset):
    coordinator = ShuffleAggregateCoordinator(env)
    (_, statistics), tag, delta = _billed(
        env, lambda: coordinator.execute(
            [dataset.glob], group_by=["l_linestatus"],
            aggregates=[AggregateSpec("count", None, "n")],
        )
    )
    _holds_to_the_ledger(env, statistics, tag, delta)
    assert env.ledger.cost_breakdown(tag)["s3.list_requests"] == (
        env.ledger.prices.s3_put_cost(1)
    )


def test_a_glob_scan_bills_its_list(env, driver, dataset):
    """The glob's LIST was always metered; now it is on the query's bill."""
    plan = parse_sql(q6_sql(), tpch_catalog(lineitem=[dataset.glob]))
    gets = env.ledger.total("s3", "get_requests")
    result, tag, delta = _billed(env, lambda: driver.execute(plan))
    statistics = result.statistics
    _holds_to_the_ledger(env, statistics, tag, delta)
    prices = env.ledger.prices
    gets = int(env.ledger.total("s3", "get_requests") - gets)
    assert statistics.get_requests == gets
    assert env.ledger.cost_breakdown(tag)["s3.list_requests"] == prices.s3_put_cost(1)
    assert statistics.cost_s3_requests == pytest.approx(
        prices.s3_get_cost(gets) + prices.s3_put_cost(1), rel=1e-12
    )


def test_concurrent_session_queries_bill_apart(env, dataset):
    """Two queries at once on one environment: each bills what it bills
    alone, and together they bill the ledger's delta."""
    tables = tpch_catalog(lineitem=dataset.paths)
    plans = {"q1": parse_sql(q1_sql(), tables), "q6": parse_sql(q6_sql(), tables)}
    with QuerySession(env, admission=AdmissionConfig(max_concurrent_queries=2)) as session:

        def together():
            handles = {name: session.submit(plan) for name, plan in plans.items()}
            return {name: handle.result() for name, handle in handles.items()}

        together()  # both threads' drivers deployed: every later start is warm
        cost = env.ledger.total_cost()
        concurrent = together()
        delta = env.ledger.total_cost() - cost
        alone = {name: session.submit(plan).result() for name, plan in plans.items()}
        for _ in range(2):  # no pool thread keeps a finished query's tag
            assert session._executor.submit(QUERY_TAG.get).result() is None
    for name in plans:
        assert concurrent[name].statistics.cost_total == alone[name].statistics.cost_total
    total = sum(result.statistics.cost_total for result in concurrent.values())
    assert math.isclose(total, delta, rel_tol=1e-12)


def test_a_cancelled_query_leaves_no_tag_behind(env, driver, dataset):
    plan = parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths))
    with pytest.raises(QueryCancelledError):
        driver.execute(plan, cancel=CancellationToken(cancel_at_stage="collect"))
    assert QUERY_TAG.get() is None
    env.ledger.record("s3", "get_requests", 1)
    assert list(env.ledger.records())[-1].tag is None


def test_concurrent_tags_lose_no_record():
    """Eight threads (more than the cores), each recording under its own
    tag while the interpreter switches threads every few microseconds: the
    per-tag totals add up to the whole."""
    ledger = MeteringLedger()

    def record(tag):
        QUERY_TAG.set(tag)
        for _ in range(2_000):
            ledger.record("sqs", "requests", 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, record, f"q{n}") for n in range(8)
            ]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert ledger.total("sqs", "requests") == 16_000
    for n in range(8):
        assert ledger.cost_breakdown(f"q{n}") == {"sqs.requests": ledger.prices.sqs_cost(2_000)}
