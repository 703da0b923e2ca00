"""Query cancellation hygiene: typed unwind, zero orphaned cloud state.

A cancelled (or deadline-expired, or budget-killed) query must leave the
shared fleet exactly as it found it: no exchange objects under its query
prefix, no spilled result objects, no queued result messages, and no
``/dev/shm`` segments — and the *next* query over the same environment must
still be bit-identical to the fault-free baseline.  ``cancel_at_stage``
tokens hit exact mid-wave pump points deterministically (no thread races):

* ``"shuffle map"`` / ``"shuffle reduce"`` — mid-wave in the aggregate
  coordinator, after the wave's workers ran (exchange objects exist);
* ``"join map"`` — mid-wave in the join coordinator, via the driver;
* ``"collect"`` — scan path, after workers reported (spills forced);
* ``"pooled dispatch"`` / ``"pooled retry"`` — the processes plane, before
  and after shared-memory segments were attached.

A join runs under the same query context as a scan, so its deadline counts
the backoff its waves accrue and a budget-killed join is swept like a
cancelled one.
"""

from __future__ import annotations

import pytest

import repro.driver.shuffle as shuffle_module
from repro.analysis.experiments import setup_functional_environment
from repro.cloud.faults import FaultPlan, FaultRule
from repro.driver.admission import CancellationToken
from repro.driver.dispatch import QueryContext
from repro.driver.driver import LambadaDriver
from repro.driver.resilience import ResiliencePolicy
from repro.driver.shuffle import (
    JOIN_RESULT_QUEUE,
    SHUFFLE_RESULT_QUEUE,
    ShuffleAggregateCoordinator,
    _exchange_buckets,
)
from repro.driver.integrity import RESULT_BUCKET
from repro.errors import QueryCancelledError, RetryBudgetExhaustedError
from repro.frontend.sql import parse_sql
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.workload.queries import q3_sql, q6_sql, tpch_catalog
from repro.workload.tpch import generate_orders_dataset

from tests.conftest import leaked_segments
from tests.test_mode_parity import assert_bit_identical

NUM_BUCKETS = 4


@pytest.fixture(scope="module")
def stack():
    env, dataset, _ = setup_functional_environment(scale_factor=0.002, num_files=4)
    orders = generate_orders_dataset(
        env.s3, scale_factor=0.002, num_files=3, row_group_rows=512, seed=7
    )
    return env, dataset, orders


@pytest.fixture(scope="module")
def driver(stack):
    return LambadaDriver(stack[0])


@pytest.fixture(scope="module")
def pooled_driver(stack):
    driver = LambadaDriver(
        stack[0], execution_mode="processes", max_parallel_invocations=2
    )
    yield driver
    driver.close()


def _shuffle_object_count(env) -> int:
    total = 0
    for bucket in _exchange_buckets(NUM_BUCKETS):
        env.s3.ensure_bucket(bucket)
        total += len(env.s3.list_objects(bucket))
    return total


def _group_sum(coordinator, dataset, cancel=None):
    return coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "total_qty")],
        order_by=["l_orderkey"],
        context=QueryContext(coordinator.env, cancel=cancel),
    )


def _gc_spy(monkeypatch, module, name):
    """Wrap a GC function, recording how many objects each call deleted."""
    deleted = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        count = original(*args, **kwargs)
        deleted.append(count)
        return count

    monkeypatch.setattr(module, name, wrapper)
    return deleted


# ---------------------------------------------------------------------------
# Shuffle plane: mid-map-wave and mid-reduce-wave cancellation
# ---------------------------------------------------------------------------


def test_cancel_mid_map_wave_gcs_exchange_state(stack, monkeypatch):
    """Cancelled between map dispatch and map collect: the mappers already
    wrote their exchange objects, and all of them are garbage-collected."""
    env, dataset, _ = stack
    before = _shuffle_object_count(env)
    deleted = _gc_spy(monkeypatch, shuffle_module, "_gc_cancelled_query")

    token = CancellationToken(cancel_at_stage="shuffle map")
    coordinator = ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=NUM_BUCKETS)
    with pytest.raises(QueryCancelledError) as excinfo:
        _group_sum(coordinator, dataset, cancel=token)

    assert excinfo.value.stage == "shuffle map"
    assert excinfo.value.query_id  # bound by the coordinator
    assert not excinfo.value.deadline
    assert token.observed_stage == "shuffle map"
    # The map wave ran synchronously during dispatch, so GC had real work.
    assert deleted and deleted[0] >= 1, "map wave wrote no exchange objects"
    assert _shuffle_object_count(env) == before
    assert env.sqs.approximate_message_count(SHUFFLE_RESULT_QUEUE) == 0
    assert leaked_segments() == []


def test_cancel_mid_reduce_wave_gcs_exchange_state(stack, monkeypatch):
    """Cancelled between reduce dispatch and reduce collect: map outputs and
    queued reduce results both vanish, and a rerun over the same environment
    is bit-identical to the fault-free baseline."""
    env, dataset, _ = stack
    baseline, baseline_statistics = _group_sum(
        ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=NUM_BUCKETS),
        dataset,
    )
    assert baseline_statistics.resilience.clean
    before = _shuffle_object_count(env)
    deleted = _gc_spy(monkeypatch, shuffle_module, "_gc_cancelled_query")

    token = CancellationToken(cancel_at_stage="shuffle reduce")
    with pytest.raises(QueryCancelledError) as excinfo:
        _group_sum(
            ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=NUM_BUCKETS),
            dataset,
            cancel=token,
        )

    assert excinfo.value.stage == "shuffle reduce"
    assert deleted and deleted[0] >= 1
    assert _shuffle_object_count(env) == before
    assert env.sqs.approximate_message_count(SHUFFLE_RESULT_QUEUE) == 0

    rerun, statistics = _group_sum(
        ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=NUM_BUCKETS),
        dataset,
    )
    assert_bit_identical(baseline, rerun, "post-cancel rerun")
    assert statistics.resilience.clean


def test_cancel_before_dispatch_writes_nothing(stack):
    """A token already set at dispatch time stops the wave before any
    invocation: no exchange object is ever written."""
    env, dataset, _ = stack
    before = _shuffle_object_count(env)
    token = CancellationToken(cancel_at_stage="shuffle map dispatch")
    with pytest.raises(QueryCancelledError) as excinfo:
        _group_sum(
            ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=NUM_BUCKETS),
            dataset,
            cancel=token,
        )
    assert excinfo.value.stage == "shuffle map dispatch"
    assert _shuffle_object_count(env) == before


def test_join_cancel_mid_map_wave_via_driver(stack, driver, monkeypatch):
    """Driver-level cancellation threads through to the join coordinator's
    waves; the join exchange state is garbage-collected and a rerun matches
    the baseline."""
    env, dataset, orders = stack
    plan = parse_sql(q3_sql(), tpch_catalog(lineitem=dataset.paths, orders=orders.paths))
    baseline = driver.execute(plan)
    deleted = _gc_spy(monkeypatch, shuffle_module, "_gc_cancelled_query")

    token = CancellationToken(cancel_at_stage="join map")
    with pytest.raises(QueryCancelledError) as excinfo:
        driver.execute(plan, cancel=token)

    assert excinfo.value.stage == "join map"
    assert deleted and deleted[0] >= 1
    rerun = driver.execute(plan)
    assert_bit_identical(baseline.table, rerun.table, "post-cancel join rerun")


# ---------------------------------------------------------------------------
# Scan plane: spilled results, deadlines, retry budgets
# ---------------------------------------------------------------------------


def test_scan_cancel_gcs_spilled_results(stack, driver, monkeypatch):
    """Cancelled at the first collect round after every worker spilled its
    result through S3: the spill objects and their pointer messages are both
    garbage-collected."""
    env, dataset, _ = stack
    monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 64)
    env.s3.ensure_bucket(RESULT_BUCKET)
    deleted = _gc_spy(monkeypatch, shuffle_module, "_gc_cancelled_query")

    token = CancellationToken(cancel_at_stage="collect")
    tables = tpch_catalog(lineitem=dataset.paths)
    with pytest.raises(QueryCancelledError) as excinfo:
        driver.execute(parse_sql(q6_sql(), tables), cancel=token)

    assert excinfo.value.stage == "collect"
    # Every worker had reported via a spill by the time the driver polled.
    assert deleted and deleted[0] >= 1
    assert env.s3.list_objects(RESULT_BUCKET) == []
    assert env.sqs.approximate_message_count(driver.result_queue) == 0

    rerun = driver.execute(parse_sql(q6_sql(), tables))
    assert rerun.statistics.resilience.clean
    assert rerun.statistics.overload["retry_budget"]["spent_total"] == 0


def test_deadline_expiry_cancels_mid_retry_storm(stack, driver):
    """Under a slowdown storm the accrued modelled backoff pushes the query
    past its deadline; it unwinds with ``deadline=True`` at the next pump
    point instead of grinding through the brownout."""
    env, dataset, _ = stack
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "slowdown", 1.0, match="lineitem", max_count=8)],
            seed=3,
        )
    )
    try:
        with pytest.raises(QueryCancelledError) as excinfo:
            driver.execute(
                parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)),
                deadline_seconds=0.01,
            )
    finally:
        env.install_fault_plan(None)

    assert excinfo.value.deadline is True
    assert excinfo.value.stage in {"collect", "retry round"}
    assert env.sqs.approximate_message_count(driver.result_queue) == 0


def test_retry_budget_exhaustion_is_typed_and_gcs(stack):
    """A sustained storm against a tiny retry budget aborts with the typed
    budget error (spend attributed per category, breaker states attached)
    and still leaves the result queue clean."""
    env, dataset, _ = stack
    strict = LambadaDriver(
        env,
        resilience_policy=ResiliencePolicy(retry_budget=2),
        result_queue="lambada-result-queue-strict",
    )
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "slowdown", 1.0, match="lineitem", max_count=16)],
            seed=3,
        )
    )
    tables = tpch_catalog(lineitem=dataset.paths)
    try:
        with pytest.raises(RetryBudgetExhaustedError) as excinfo:
            strict.execute(parse_sql(q6_sql(), tables))
    finally:
        env.install_fault_plan(None)

    error = excinfo.value
    assert sum(error.spent.values()) == 2
    assert error.spent.get("driver_retries", 0) >= 1
    assert "s3" in error.breaker_states
    assert env.sqs.approximate_message_count(strict.result_queue) == 0

    # The budget is per-query: the same driver recovers fully afterwards.
    result = strict.execute(parse_sql(q6_sql(), tables))
    assert result.statistics.resilience.clean


# ---------------------------------------------------------------------------
# Join plane: one query context, so the scan path's deadline and teardown
# ---------------------------------------------------------------------------


def _query_leftovers(env, query_id):
    """Keys a query left in the join exchange's buckets and the result bucket."""
    keys = []
    for bucket in _exchange_buckets(10) + [RESULT_BUCKET]:
        env.s3.ensure_bucket(bucket)
        keys += [meta.path for meta in env.s3.list_objects(bucket, prefix=f"{query_id}/")]
    return keys


def test_join_deadline_expiry_cancels_mid_retry_storm(stack, driver):
    """The scan test's storm on Q3: the join's waves accrue modelled backoff
    on the same clock the scan path's deadline reads, so the query unwinds
    with ``deadline=True`` instead of finishing past its deadline."""
    env, dataset, orders = stack
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "slowdown", 1.0, match="lineitem", max_count=8)],
            seed=3,
        )
    )
    tables = tpch_catalog(lineitem=dataset.paths, orders=orders.paths)
    try:
        with pytest.raises(QueryCancelledError) as excinfo:
            driver.execute(parse_sql(q3_sql(), tables), deadline_seconds=0.01)
    finally:
        env.install_fault_plan(None)

    assert excinfo.value.deadline is True
    assert _query_leftovers(env, excinfo.value.query_id) == []
    assert env.sqs.approximate_message_count(JOIN_RESULT_QUEUE) == 0


def test_budget_exhausted_join_is_named_and_leaves_nothing(stack):
    """A storm on ``orders`` against a two-unit budget: the typed error names
    the query, and the teardown sweeps the exchange objects its mappers had
    already written and the join result queue."""
    env, dataset, orders = stack
    strict = LambadaDriver(
        env,
        resilience_policy=ResiliencePolicy(retry_budget=2),
        result_queue="lambada-result-queue-strict-join",
    )
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "slowdown", 1.0, match="orders", max_count=16)],
            seed=3,
        )
    )
    tables = tpch_catalog(lineitem=dataset.paths, orders=orders.paths)
    try:
        with pytest.raises(RetryBudgetExhaustedError) as excinfo:
            strict.execute(parse_sql(q3_sql(), tables))
    finally:
        env.install_fault_plan(None)

    query_id = excinfo.value.query_id
    assert query_id
    assert _query_leftovers(env, query_id) == []
    assert env.sqs.approximate_message_count(JOIN_RESULT_QUEUE) == 0


# ---------------------------------------------------------------------------
# Processes plane: shared-memory hygiene
# ---------------------------------------------------------------------------


def test_pooled_cancel_before_dispatch_touches_no_segments(stack, pooled_driver):
    env, dataset, _ = stack
    token = CancellationToken(cancel_at_stage="pooled dispatch")
    tables = tpch_catalog(lineitem=dataset.paths)
    with pytest.raises(QueryCancelledError) as excinfo:
        pooled_driver.execute(parse_sql(q6_sql(), tables), cancel=token)
    assert excinfo.value.stage == "pooled dispatch"
    assert leaked_segments() == []


def test_pooled_cancel_mid_retry_releases_segments(stack, pooled_driver):
    """Pool-child crashes force a retry round; cancelling there unwinds
    through the segment-cleanup path — nothing leaks in ``/dev/shm`` and the
    pool survives for the next query."""
    env, dataset, _ = stack
    tables = tpch_catalog(lineitem=dataset.paths)
    baseline = pooled_driver.execute(parse_sql(q6_sql(), tables))
    env.install_fault_plan(
        FaultPlan([FaultRule("pool", "crash", 1.0, max_count=2)], seed=5)
    )
    token = CancellationToken(cancel_at_stage="pooled retry")
    try:
        with pytest.raises(QueryCancelledError) as excinfo:
            pooled_driver.execute(
                parse_sql(q6_sql(), tables), cancel=token
            )
    finally:
        env.install_fault_plan(None)

    assert excinfo.value.stage == "pooled retry"
    assert leaked_segments() == []

    rerun = pooled_driver.execute(parse_sql(q6_sql(), tables))
    assert_bit_identical(baseline.table, rerun.table, "post-cancel pooled rerun")
