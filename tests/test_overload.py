"""Unit tests of the overload-control plane.

Covers the circuit-breaker state machine, per-query retry budgets, the
admission controller's typed rejections and budget reconciliation, the
windowed brownout fault rules (clock-driven activation), and the fault-plan
reset/rebind bookkeeping that keeps counters from leaking across queries.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.analysis.experiments import setup_functional_environment
from repro.cloud.clock import VirtualClock
from repro.cloud.environment import CloudEnvironment
from repro.cloud.faults import FaultPlan, FaultRule, brownout_plan
from repro.driver.admission import (
    AdmissionConfig,
    AdmissionController,
    CancellationToken,
    TokenBucket,
)
from repro.driver.breakers import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
    RetryBudget,
)
from repro.driver.driver import LambadaDriver, QuerySession
from repro.driver.integrity import RESULT_BUCKET
from repro.errors import (
    QueryCancelledError,
    QueryRejectedError,
    RetryBudgetExhaustedError,
    SlowDownError,
    TooManyRequestsError,
)
from repro.frontend.sql import parse_sql
from repro.workload.queries import q1_sql, q3_sql, q6_sql, tpch_catalog
from repro.workload.tpch import generate_lineitem_dataset, generate_orders_dataset


# ---------------------------------------------------------------------------
# Circuit breaker state machine
# ---------------------------------------------------------------------------


def test_breaker_opens_at_threshold_and_recovers_through_probes():
    breaker = CircuitBreaker(
        "s3", failure_threshold=3, window_seconds=10.0,
        cooldown_seconds=5.0, half_open_probes=2,
    )
    breaker.record_failure(0.0)
    breaker.record_failure(1.0)
    assert breaker.state == CLOSED
    breaker.record_failure(2.0)
    assert breaker.state == OPEN
    # Cooldown not elapsed: callers are told how long to charge to latency.
    assert breaker.wait_seconds(4.0) == pytest.approx(3.0)
    assert breaker.state == OPEN
    # Cooldown elapsed: this call admits the half-open probe.
    assert breaker.wait_seconds(7.5) == 0.0
    assert breaker.state == HALF_OPEN
    breaker.record_success(8.0)
    assert breaker.state == HALF_OPEN  # one probe is not enough
    breaker.record_success(8.5)
    assert breaker.state == CLOSED
    transitions = [(frm, to) for _, frm, to in breaker.transitions]
    assert transitions == [
        (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED),
    ]


def test_breaker_probe_failure_reopens():
    breaker = CircuitBreaker(
        "lambda", failure_threshold=1, cooldown_seconds=5.0, half_open_probes=1
    )
    breaker.record_failure(0.0)
    assert breaker.state == OPEN
    assert breaker.wait_seconds(6.0) == 0.0
    assert breaker.state == HALF_OPEN
    breaker.record_failure(6.5)
    assert breaker.state == OPEN
    # The cooldown restarted at the probe failure.
    assert breaker.wait_seconds(7.0) == pytest.approx(4.5)


def test_breaker_window_prunes_old_failures():
    breaker = CircuitBreaker("s3", failure_threshold=3, window_seconds=5.0)
    breaker.record_failure(0.0)
    breaker.record_failure(1.0)
    # Both earlier failures have rolled out of the window by t=10.
    breaker.record_failure(10.0)
    assert breaker.state == CLOSED


def test_breaker_board_classifies_errors_by_service():
    board = BreakerBoard(failure_threshold=1)
    assert board.record_failure(SlowDownError("x"), 0.0) == "s3"
    assert board.record_failure(TooManyRequestsError("x"), 0.0) == "lambda"
    assert board.record_failure(ValueError("x"), 0.0) is None
    assert sorted(board.open_services()) == ["lambda", "s3"]
    assert board.states()["sqs"] == CLOSED
    assert board.transition_count() == 2


# ---------------------------------------------------------------------------
# Retry budget
# ---------------------------------------------------------------------------


def test_retry_budget_exhaustion_is_typed_and_attributed():
    board = BreakerBoard(failure_threshold=1)
    board.record_failure(SlowDownError("x"), 0.0)
    budget = RetryBudget(limit=3, query_id="q-test", breaker_states=board.states)
    budget.charge("backoff_retries")
    budget.charge("wave_retries", amount=2)
    with pytest.raises(RetryBudgetExhaustedError) as info:
        budget.charge("backoff_retries")
    assert info.value.query_id == "q-test"
    assert info.value.spent == {"backoff_retries": 1, "wave_retries": 2}
    assert info.value.breaker_states["s3"] == OPEN
    assert budget.spent_total == 3
    assert budget.remaining == 0


def test_retry_budget_try_charge_never_raises():
    budget = RetryBudget(limit=1)
    assert budget.try_charge("hedges")
    assert not budget.try_charge("hedges")
    assert budget.to_dict() == {
        "limit": 1, "spent_total": 1, "spent": {"hedges": 1},
    }


# ---------------------------------------------------------------------------
# Token buckets and admission
# ---------------------------------------------------------------------------


def test_token_bucket_take_refill_and_debt():
    bucket = TokenBucket(capacity=10.0, refill_per_second=1.0)
    assert bucket.try_take(8.0, now=0.0)
    assert not bucket.try_take(5.0, now=0.0)
    # 3 seconds of refill pay for the next take.
    assert bucket.try_take(5.0, now=3.0)
    # Reconciliation may push the level negative (debt), never refuses.
    bucket.adjust(4.0, now=3.0)
    assert bucket.level == pytest.approx(-4.0)
    assert not bucket.try_take(0.5, now=3.0)
    assert bucket.try_take(0.5, now=8.0)  # refill paid the debt off


def test_admission_rejections_are_typed():
    config = AdmissionConfig(
        max_concurrent_queries=1,
        max_queued_queries=1,
        tenant_invocation_capacity=100.0,
        tenant_dollar_capacity=0.01,
        default_invocation_estimate=10.0,
        default_dollar_estimate=0.001,
    )
    controller = AdmissionController(config)

    first = controller.admit("a")          # in flight
    controller.admit("a")                  # queued
    with pytest.raises(QueryRejectedError) as info:
        controller.admit("a")
    assert info.value.reason == "queue_full"

    controller.finish(first, "completed", actual_invocations=10.0,
                      actual_dollars=0.001)
    with pytest.raises(QueryRejectedError) as info:
        controller.admit("b", dollar_estimate=1.0)
    assert info.value.reason == "dollar_budget"
    # The dollar rejection refunded b's invocation tokens.
    assert controller.tenant_levels("b")["invocations"] == pytest.approx(100.0)

    with pytest.raises(QueryRejectedError) as info:
        controller.admit("c", invocation_estimate=1000.0)
    assert info.value.reason == "invocation_budget"

    stats = controller.stats
    assert stats.rejected == {
        "queue_full": 1, "dollar_budget": 1, "invocation_budget": 1,
    }
    assert stats.admitted == 2
    assert stats.completed == 1


def test_admission_reconciles_actual_spend():
    config = AdmissionConfig(
        tenant_invocation_capacity=100.0, default_invocation_estimate=50.0
    )
    controller = AdmissionController(config)
    permit = controller.admit("t")
    assert controller.tenant_levels("t")["invocations"] == pytest.approx(50.0)
    # The query actually used 8 invocations: 42 estimated tokens come back.
    controller.finish(permit, "completed", actual_invocations=8.0)
    assert controller.tenant_levels("t")["invocations"] == pytest.approx(92.0)
    assert controller.stats.tenants["t"]["invocations_spent"] == pytest.approx(8.0)


def test_cancellation_token_stage_trigger_and_deadline():
    token = CancellationToken(cancel_at_stage="collect")
    token.check("dispatch")  # different stage: no-op
    with pytest.raises(QueryCancelledError) as info:
        token.check("collect")
    assert info.value.stage == "collect"
    assert not info.value.deadline
    assert token.observed_stage == "collect"

    clock = {"now": 0.0}
    deadline = CancellationToken(deadline_seconds=5.0)
    deadline.bind(lambda: clock["now"], query_id="q1")
    deadline.check("collect")
    clock["now"] = 6.0
    with pytest.raises(QueryCancelledError) as info:
        deadline.check("collect")
    assert info.value.deadline
    assert info.value.query_id == "q1"


# ---------------------------------------------------------------------------
# Windowed brownout fault rules
# ---------------------------------------------------------------------------


def test_brownout_storm_is_window_gated():
    env = CloudEnvironment.create()
    env.s3.create_bucket("bucket")
    env.s3.put_object("bucket", "key", b"x")
    plan = brownout_plan(seed=3, storm_start_seconds=10.0, storm_seconds=20.0,
                         storm_rate=1.0)
    env.install_fault_plan(plan)

    # Before the window: no injection possible.
    for _ in range(20):
        assert env.s3.get_object("bucket", "key").data == b"x"
    assert plan.injected_total() == 0

    env.clock.advance(15.0)  # inside [10, 30)
    with pytest.raises(SlowDownError, match="brownout storm"):
        env.s3.get_object("bucket", "key")

    env.clock.advance(20.0)  # past the window
    before = plan.injected_total()
    for _ in range(20):
        assert env.s3.get_object("bucket", "key").data == b"x"
    assert plan.injected_total() == before


def test_windowed_rule_without_clock_never_fires():
    plan = FaultPlan(
        [FaultRule("s3", "throttle_storm", 1.0, window_seconds=60.0)], seed=1
    )
    for _ in range(10):  # fail-safe: inactive
        assert plan.decide("s3.request", "bucket/key", operation="get") is None
    assert plan.injected_total() == 0


def test_capacity_rule_rejects_only_above_fleet_cap():
    clock = VirtualClock()
    plan = FaultPlan(
        [FaultRule("lambda", "capacity", 1.0, capacity_limit=4,
                   window_seconds=60.0)],
        seed=1,
    )
    plan.bind_clock(clock)
    assert plan.decide("lambda.admit", "worker", active=3) is None
    assert plan.decide("lambda.admit", "worker", active=4).fault == "capacity"
    assert plan.injected["lambda.capacity"] == 1


def test_capacity_brownout_is_retried_not_fatal():
    """A capacity-capped invocation raises TooManyRequestsError, which the
    driver's wrapped dispatch retries with backoff — the query completes.

    Thirty-two warm workers are just above the launch crossover: the driver
    invokes thirty and the first two invoke one child each *while themselves
    active*, so a ``capacity_limit=1`` cap trips on the nested invocation
    deterministically even under serial dispatch.  (A fleet the driver
    starts in one hop never has two workers active under serial dispatch.)
    """
    env, dataset, _ = setup_functional_environment(scale_factor=0.002, num_files=32)
    driver = LambadaDriver(env)
    tables = tpch_catalog(lineitem=dataset.paths)
    baseline = driver.execute(parse_sql(q6_sql(), tables))

    env.install_fault_plan(
        FaultPlan(
            [FaultRule("lambda", "capacity", 1.0, capacity_limit=1,
                       max_count=2, window_seconds=3600.0)],
            seed=5,
        )
    )
    try:
        result = driver.execute(parse_sql(q6_sql(), tables))
    finally:
        env.install_fault_plan(None)
    assert result.scalar() == baseline.scalar()
    stats = result.statistics
    assert stats.resilience.faults_injected.get("lambda.capacity", 0) >= 1
    assert stats.resilience.retries >= 1
    assert stats.overload is not None
    assert stats.overload["retry_budget"]["spent_total"] >= 1


# ---------------------------------------------------------------------------
# Fault-plan reset and cross-query bookkeeping (satellite: no state leaks)
# ---------------------------------------------------------------------------


def test_fault_plan_reset_restores_deterministic_schedule():
    plan = FaultPlan(
        [FaultRule("s3", "slowdown", 0.5, max_count=10)], seed=42
    )
    outcomes = []
    for _ in range(2):
        fired = [
            plan.decide("s3.request", "bucket/key", operation="get") is not None
            for _ in range(20)
        ]
        outcomes.append((fired, dict(plan.injected)))
        plan.reset()
    assert outcomes[0] == outcomes[1]
    assert plan.injected == {}  # reset cleared the counters


def test_tenant_is_charged_the_invocations_the_ledger_metered(monkeypatch):
    """A backoff retry of a spilled-result GET invokes nothing, so the
    tenant's reconciled invocations are the workers plus re-dispatches plus
    hedges — exactly the Lambda requests the ledger metered."""
    monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 0)
    env, dataset, _ = setup_functional_environment(scale_factor=0.002, num_files=4)
    env.install_fault_plan(FaultPlan(
        [FaultRule("s3", "slowdown", 1.0, operation="get", match=RESULT_BUCKET, max_count=2)],
        seed=5,
    ))
    before = env.ledger.total("lambda", "invocations")
    tables = tpch_catalog(lineitem=dataset.paths)
    try:
        with QuerySession(env) as session:
            result = session.submit(parse_sql(q1_sql(), tables), tenant="t").result()
    finally:
        env.install_fault_plan(None)
    assert result.statistics.resilience.retries == 2  # the two GETs, retried
    spent = session.stats.tenants["t"]["invocations_spent"]
    assert spent == env.ledger.total("lambda", "invocations") - before == 4


def test_uninstall_and_reinstall_fully_resets_per_query_delta():
    """Counters armed by one query never leak into the next one's
    ``faults_injected`` delta, across install/uninstall cycles."""
    env, dataset, _ = setup_functional_environment(scale_factor=0.002, num_files=2)
    driver = LambadaDriver(env)
    plan_a = FaultPlan(
        [FaultRule("s3", "slowdown", 1.0, max_count=2, match="lineitem")], seed=9
    )
    env.install_fault_plan(plan_a)
    tables = tpch_catalog(lineitem=dataset.paths)
    try:
        first = driver.execute(parse_sql(q6_sql(), tables))
    finally:
        env.install_fault_plan(None)
    assert first.statistics.resilience.faults_injected == {"s3.slowdown": 2}

    # No plan installed: the next query sees a clean delta.
    second = driver.execute(parse_sql(q6_sql(), tables))
    assert second.statistics.resilience.faults_injected == {}
    assert second.statistics.resilience.clean

    # Re-installing the *same exhausted* plan after reset() replays the
    # schedule from scratch — order independence for pytest cases.
    plan_a.reset()
    env.install_fault_plan(plan_a)
    try:
        third = driver.execute(parse_sql(q6_sql(), tables))
    finally:
        env.install_fault_plan(None)
    assert third.statistics.resilience.faults_injected == {"s3.slowdown": 2}
    assert third.scalar() == first.scalar() == second.scalar()


def test_clean_query_reports_closed_breakers_and_zero_budget():
    env, dataset, _ = setup_functional_environment(scale_factor=0.002, num_files=2)
    driver = LambadaDriver(env)
    result = driver.execute(parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)))
    overload = result.statistics.overload
    assert overload is not None
    assert overload["retry_budget"]["spent_total"] == 0
    assert overload["breaker_transitions"] == 0
    assert all(b["state"] == CLOSED for b in overload["breakers"].values())


def test_concurrent_join_queries_never_take_each_others_results():
    """Every driver of a session reports to its own result queue, join waves
    included: eight fault-free Q3s at once re-dispatch no worker.  On one
    shared join queue each query received and dropped the others' results
    and re-ran the workers it lost."""
    env = CloudEnvironment.create()
    lineitem = generate_lineitem_dataset(env.s3, scale_factor=0.002, num_files=4)
    orders = generate_orders_dataset(env.s3, scale_factor=0.002, num_files=2)
    plan = parse_sql(q3_sql(), tpch_catalog(lineitem=lineitem.paths, orders=orders.paths))
    with QuerySession(env, execution_mode="threads") as session:
        results = [handle.result() for handle in [session.submit(plan) for _ in range(8)]]
        queues = [driver.result_queue for driver in session._drivers]
    assert len(set(queues)) == len(queues) > 1
    assert [result.statistics.redispatches for result in results] == [0] * 8
    for result in results[1:]:
        assert result.table.keys() == results[0].table.keys()
        for name, column in results[0].table.items():
            np.testing.assert_array_equal(result.table[name], column)


def test_concurrent_queries_each_report_only_their_own_faults(monkeypatch):
    """Eight Q1/Q6 queries at once in one session under an uncapped throttle
    of the spilled-result GETs: the queries' ``faults_injected`` add up to
    what the plan injected.  Read as deltas of the plan-wide counts, a query
    also counted what its neighbours drew while it ran."""
    monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 0)
    env, dataset, _ = setup_functional_environment(scale_factor=0.002, num_files=4)
    tables = tpch_catalog(lineitem=dataset.paths)
    plans = [parse_sql(q1_sql(), tables), parse_sql(q6_sql(), tables)]
    plan = FaultPlan(
        [FaultRule("s3", "slowdown", 0.2, operation="get", match=RESULT_BUCKET)], seed=3
    )
    env.install_fault_plan(plan)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the session's threads finely
    try:
        with QuerySession(env) as session:
            handles = [session.submit(plans[index % 2]) for index in range(8)]
            results = [handle.result(timeout=120) for handle in handles]
    finally:
        sys.setswitchinterval(interval)
        env.install_fault_plan(None)
    counted = [sum(result.statistics.resilience.faults_injected.values()) for result in results]
    assert sum(counted) == plan.injected_total() > 0
