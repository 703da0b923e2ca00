"""Overload chaos acceptance suite: concurrent tenants under a brownout.

The PR 9 acceptance bar: at least eight concurrent queries across at least
three tenants run through a :class:`~repro.driver.driver.QuerySession` while
a seeded :func:`~repro.cloud.faults.brownout_plan` storm (S3 throttles plus
a Lambda fleet cap) rages.  Every query must either return a result
**bit-identical** to its fault-free baseline or fail with a *typed*
rejection/cancellation — never hang, never leak ``/dev/shm`` segments — and
the admission/budget/breaker state must be visible in the statistics.

Fault caps are chosen so convergence is provable, not probabilistic: the
storm injects at most ``STORM_MAX_FAULTS`` faults per rule, strictly fewer
than the per-call attempt budget (14) and the per-worker retry budget (13),
so even a worst-case schedule that aims every injection at one victim still
completes.  The breaker state machine is exercised separately under a
deterministic serial storm where the exact transition sequence is asserted.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import setup_functional_environment
from repro.cloud.faults import FaultPlan, FaultRule, brownout_plan
from repro.driver.admission import AdmissionConfig, CancellationToken
from repro.driver.breakers import BreakerBoard
from repro.driver.driver import LambadaDriver, QuerySession
from repro.driver.resilience import ResiliencePolicy
from repro.errors import (
    QueryCancelledError,
    QueryRejectedError,
    RetryBudgetExhaustedError,
)
from repro.workload.queries import q1_plan, q3_plan, q6_plan
from repro.workload.tpch import generate_orders_dataset

from tests.test_mode_parity import assert_bit_identical, leaked_segments

TENANTS = ("acme", "globex", "initech")
QUERIES = ("q1", "q6", "q3")
#: Strictly below both the 14-attempt backoff budget and the 13-round worker
#: retry budget, so every storm provably converges (see module docstring).
STORM_MAX_FAULTS = 12
CHAOS_POLICY = ResiliencePolicy(max_attempts=14)
MAX_WORKER_RETRIES = 13
RESULT_TIMEOUT_SECONDS = 120.0


@pytest.fixture(scope="module")
def stack():
    env, dataset, _ = setup_functional_environment(scale_factor=0.002, num_files=8)
    orders = generate_orders_dataset(
        env.s3, scale_factor=0.002, num_files=3, row_group_rows=512, seed=7
    )
    return env, dataset, orders


@pytest.fixture(scope="module")
def plans(stack):
    _, dataset, orders = stack
    return {
        "q1": q1_plan(dataset.paths),
        "q6": q6_plan(dataset.paths),
        "q3": q3_plan(dataset.paths, orders.paths),
    }


@pytest.fixture(scope="module")
def baselines(stack, plans):
    env = stack[0]
    assert env.s3.fault_plan is None
    driver = LambadaDriver(env, result_queue="lambada-result-queue-baseline")
    results = {}
    for query, plan in plans.items():
        result = driver.execute(plan)
        assert result.statistics.resilience.clean, f"{query}: baseline not clean"
        results[query] = result
    return results


def test_concurrent_tenants_survive_brownout(stack, plans, baselines):
    """Nine queries, three tenants, four worker threads, one seeded brownout:
    all results bit-identical, one over-budget submission rejected fast, no
    leaks, budgets and breakers visible in every query's statistics."""
    env = stack[0]
    storm = brownout_plan(
        seed=11, storm_rate=0.2, capacity_limit=6, max_count=STORM_MAX_FAULTS
    )
    env.install_fault_plan(storm)
    completed = 0
    typed = 0
    try:
        with QuerySession(
            env,
            admission=AdmissionConfig(max_concurrent_queries=4, max_queued_queries=8),
            resilience_policy=CHAOS_POLICY,
        ) as session:
            handles = []
            for index in range(9):
                query = QUERIES[index % len(QUERIES)]
                handles.append(
                    (
                        query,
                        session.submit(
                            plans[query],
                            tenant=TENANTS[index % len(TENANTS)],
                            max_worker_retries=MAX_WORKER_RETRIES,
                        ),
                    )
                )

            # A tenant whose estimate alone exceeds its dollar budget is
            # refused synchronously, before touching the shared fleet.
            with pytest.raises(QueryRejectedError) as excinfo:
                session.submit(plans["q6"], tenant="big-spender", dollar_estimate=10.0)
            assert excinfo.value.reason == "dollar_budget"
            assert excinfo.value.tenant == "big-spender"

            for query, handle in handles:
                try:
                    result = handle.result(timeout=RESULT_TIMEOUT_SECONDS)
                except (QueryCancelledError, RetryBudgetExhaustedError):
                    typed += 1
                    continue
                completed += 1
                assert_bit_identical(
                    baselines[query].table, result.table, f"{query}/{handle.tenant}"
                )
                overload = result.statistics.overload
                assert overload is not None, f"{query}: no overload block"
                assert overload["retry_budget"]["limit"] == CHAOS_POLICY.retry_budget
                assert set(overload["breakers"]) == {"s3", "lambda", "sqs"}
            stats = session.stats
    finally:
        env.install_fault_plan(None)

    # With fault caps below every retry budget no query can fail outright —
    # but a typed unwind would still satisfy the acceptance contract.
    assert completed + typed == 9
    assert completed >= 1
    assert sum(storm.to_dict().values()) >= 1, "storm never fired"
    assert stats.submitted == 10
    assert stats.admitted == 9
    assert stats.rejected == {"dollar_budget": 1}
    assert stats.completed + stats.cancelled + stats.failed == 9
    assert stats.peak_in_flight <= 4
    for tenant in TENANTS:
        row = stats.tenants[tenant]
        assert row["admitted"] == 3
        assert row["invocations_spent"] > 0.0
    assert leaked_segments() == []


def test_session_cancellation_is_counted_and_clean(stack, plans, baselines):
    """A query cancelled mid-collect inside a session surfaces the typed
    error from its handle, is tallied as cancelled (not failed), and leaves
    the fleet clean for the next submission."""
    env = stack[0]
    with QuerySession(env) as session:
        token = CancellationToken(cancel_at_stage="collect")
        handle = session.submit(plans["q6"], tenant="acme", cancel=token)
        with pytest.raises(QueryCancelledError) as excinfo:
            handle.result(timeout=RESULT_TIMEOUT_SECONDS)
        assert excinfo.value.stage == "collect"

        rerun = session.submit(plans["q6"], tenant="acme")
        assert_bit_identical(
            baselines["q6"].table,
            rerun.result(timeout=RESULT_TIMEOUT_SECONDS).table,
            "post-cancel session rerun",
        )
        stats = session.stats
    assert stats.cancelled == 1
    assert stats.completed == 1
    assert stats.failed == 0
    assert leaked_segments() == []


def test_slowdown_storm_walks_breaker_through_full_cycle(
    stack, plans, baselines, monkeypatch
):
    """A deterministic serial throttle storm drives the S3 breaker through
    closed → open → half-open → (probe failure) → open → half-open → closed,
    while the query still converges bit-identically.

    The storm targets exactly one *driver-side* request — the GET of worker
    0's spilled result (forced by a tiny spill threshold) — because that is
    the one scan-path S3 read that flows through ``call_with_backoff``'s
    breaker-aware retry loop; worker-side throttles surface as missing
    result messages instead and only *count* failures, never probe."""
    env, dataset, _ = stack
    monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 64)
    board = BreakerBoard(failure_threshold=2, half_open_probes=1)
    driver = LambadaDriver(
        env,
        breakers=board,
        result_queue="lambada-result-queue-breaker",
        resilience_policy=CHAOS_POLICY,
    )
    env.install_fault_plan(
        FaultPlan(
            [
                FaultRule(
                    "s3", "slowdown", 1.0,
                    match="worker-0.a0", operation="get", max_count=3,
                )
            ],
            seed=5,
        )
    )
    try:
        result = driver.execute(plans["q6"], max_worker_retries=MAX_WORKER_RETRIES)
    finally:
        env.install_fault_plan(None)

    assert_bit_identical(baselines["q6"].table, result.table, "breaker storm")
    breaker = board.breakers["s3"]
    walk = [(frm, to) for _, frm, to in breaker.transitions]
    assert walk == [
        ("closed", "open"),
        ("open", "half_open"),
        ("half_open", "open"),  # the capped probe failed and re-opened
        ("open", "half_open"),
        ("half_open", "closed"),
    ]
    assert breaker.state == "closed"
    overload = result.statistics.overload
    assert overload["breaker_transitions"] == 5
    assert overload["retry_budget"]["spent"].get("backoff_retries", 0) == 3
    # The two full cooldowns the breaker imposed were charged to modelled
    # latency, not slept: the brownout is visible in backoff accounting.
    assert result.statistics.resilience.backoff_seconds >= 2 * breaker.cooldown_seconds
