"""Tests of the driver-side resilience primitives and their e2e wiring.

Unit-level: decorrelated jitter, `call_with_backoff`, straggler picking,
the ``resilience`` block read off a counter record, the attempt history in a
`WorkerFailedError`.
End-to-end: clean runs report all-zero resilience stats; injected drops are
retried to a correct result; injected stragglers are hedged.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.cloud.faults import FaultPlan, FaultRule
from repro.counters import Counts, LayerView
from repro.driver import integrity
from repro.driver.driver import LambadaDriver
from repro.driver.resilience import (
    DEFAULT_RESILIENCE_POLICY,
    ResiliencePolicy,
    call_with_backoff,
    decorrelated_jitter,
    pick_stragglers,
)
from repro.errors import SlowDownError, WorkerFailedError
from repro.frontend.sql import parse_sql
from repro.workload.queries import q1_sql, q3_sql, q6_sql, reference_q6, tpch_catalog
from repro.workload.tpch import generate_orders_dataset


# -- decorrelated jitter -----------------------------------------------------


def test_jitter_stays_within_base_and_cap():
    rng = random.Random(7)
    sleep = 0.0
    for _ in range(200):
        sleep = decorrelated_jitter(sleep, rng, base_seconds=0.05, cap_seconds=2.0)
        assert 0.05 <= sleep <= 2.0


def test_jitter_clamps_to_cap_for_large_previous():
    rng = random.Random(7)
    sleeps = [
        decorrelated_jitter(100.0, rng, base_seconds=0.05, cap_seconds=2.0)
        for _ in range(50)
    ]
    assert max(sleeps) == 2.0


def test_jitter_grows_from_base():
    """Expected sleep grows round over round (decorrelated exponential)."""
    rng = random.Random(3)
    first_round, fifth_round = [], []
    for _ in range(300):
        sleep = 0.0
        history = []
        for _ in range(5):
            sleep = decorrelated_jitter(sleep, rng, 0.05, 60.0)
            history.append(sleep)
        first_round.append(history[0])
        fifth_round.append(history[4])
    assert sum(fifth_round) / len(fifth_round) > sum(first_round) / len(first_round)


# -- call_with_backoff -------------------------------------------------------


def _fail_n_times(n, exc=SlowDownError):
    state = {"left": n}

    def fn():
        if state["left"] > 0:
            state["left"] -= 1
            raise exc("transient")
        return "done"

    return fn


def _resilience():
    """A fresh counter record and its resilience block."""
    counts = Counts()
    return counts, LayerView(counts, "resilience")


def test_backoff_retries_transient_errors():
    counts, stats = _resilience()
    result = call_with_backoff(_fail_n_times(2), counts=counts)
    assert result == "done"
    assert stats.retries == 2
    assert stats.backoff_seconds > 0.0


def test_backoff_exhausts_attempt_budget():
    policy = ResiliencePolicy(max_attempts=3)
    with pytest.raises(SlowDownError):
        call_with_backoff(_fail_n_times(99), policy=policy)


def test_backoff_does_not_catch_fatal_errors():
    counts, stats = _resilience()
    with pytest.raises(ValueError):
        call_with_backoff(_fail_n_times(1, exc=ValueError), counts=counts)
    assert stats.retries == 0


# -- pick_stragglers ---------------------------------------------------------


def test_small_fleets_never_hedge():
    durations = {0: 0.1, 1: 0.1, 2: 99.0}
    assert pick_stragglers(durations, DEFAULT_RESILIENCE_POLICY) == ([], math.inf)


def test_policy_has_no_hedge_switch():
    """A fleet under four never hedges; a policy cannot switch hedging off
    (``test_small_fleets_never_hedge`` holds the first half)."""
    assert "hedge_enabled" not in ResiliencePolicy.__dataclass_fields__
    assert len(ResiliencePolicy.__dataclass_fields__) == 9


def test_clear_straggler_is_picked():
    durations = {0: 0.1, 1: 0.1, 2: 0.1, 3: 10.0}
    assert pick_stragglers(durations, DEFAULT_RESILIENCE_POLICY)[0] == [3]


def test_uniform_fleet_has_no_stragglers():
    durations = {i: 0.1 for i in range(8)}
    assert pick_stragglers(durations, DEFAULT_RESILIENCE_POLICY)[0] == []


def test_absolute_floor_suppresses_tiny_hedges():
    """4x the median but under hedge_min_seconds: not worth a hedge."""
    durations = {0: 0.01, 1: 0.01, 2: 0.01, 3: 0.3}
    assert pick_stragglers(durations, DEFAULT_RESILIENCE_POLICY) == ([], 0.5)


def test_hedge_budget_caps_fraction_of_fleet():
    durations = {i: 0.1 for i in range(8)}
    durations.update({5: 30.0, 6: 20.0, 7: 40.0})
    picked, _ = pick_stragglers(durations, DEFAULT_RESILIENCE_POLICY)
    # 25% of 8 = 2 hedges, slowest first.
    assert picked == [7, 5]


@pytest.mark.parametrize(
    "durations, median",
    [
        # Odd-sized fleet: the middle duration.
        ({0: 0.3, 1: 0.2, 2: 0.1, 3: 0.5, 4: 9.0}, 0.3),
        # Even-sized fleet: the upper of the two middle durations.
        ({0: 0.2, 1: 0.4, 2: 0.1, 3: 9.0}, 0.4),
        ({key: 0.1 * key for key in range(1, 7)}, 0.4),
        # A shuffle wave keys its workers by (side, id): same median.
        ({("L", 0): 0.3, ("L", 1): 0.2, ("R", 0): 0.1, ("R", 1): 0.5, ("L", 2): 9.0}, 0.3),
    ],
)
def test_the_threshold_is_the_factor_times_the_fleet_median(durations, median):
    """The threshold the hedge race waits for is the one the stragglers were
    picked by: ``hedge_factor`` x the fleet median, floored at
    ``hedge_min_seconds`` — so the fleet is sorted once."""
    policy = ResiliencePolicy(hedge_min_seconds=0.0)
    stragglers, threshold = pick_stragglers(durations, policy)
    assert threshold == policy.hedge_factor * median
    assert stragglers == [key for key, seconds in durations.items() if seconds > threshold]
    floored = ResiliencePolicy(hedge_min_seconds=10.0)
    assert pick_stragglers(durations, floored) == ([], 10.0)


# -- the resilience block ----------------------------------------------------


def test_fresh_stats_are_clean():
    counts, stats = _resilience()
    assert stats.clean
    counts.note("resilience", "retries")
    assert not stats.clean


def test_note_fallback_counts_events():
    counts, stats = _resilience()
    counts.note("resilience", "fallback.hedge_suppressed")
    counts.note("resilience", "fallback.hedge_suppressed")
    counts.note("resilience", "fallback.other")
    assert stats.fallbacks == {"hedge_suppressed": 2, "other": 1}
    assert not stats.clean


def test_merge_folds_counters_and_dicts():
    """A worker's record folds into the query's with one ``Counter.update``."""
    record, a = _resilience()
    for name, n in [("retries", 1), ("backoff_seconds", 0.5), ("wave_retries", 2),
                    ("fallback.hedge_suppressed", 1), ("fault.s3.slowdown", 3)]:
        record.note("resilience", name, n)
    b = Counts()
    for name, n in [("retries", 2), ("hedges_launched", 1), ("hedges_won", 1),
                    ("fallback.hedge_suppressed", 2), ("fault.lambda.drop", 1)]:
        b.note("resilience", name, n)
    record.update(b)
    assert a.retries == 3
    assert a.hedges_launched == 1
    assert a.backoff_seconds == 0.5
    assert a.wave_retries == 2
    assert a.fallbacks == {"hedge_suppressed": 3}
    assert a.faults_injected == {"s3.slowdown": 3, "lambda.drop": 1}


def test_to_dict_is_a_full_snapshot():
    counts, stats = _resilience()
    counts.note("resilience", "retries", 2)
    counts.note("resilience", "stale_messages_ignored")
    snapshot = stats.to_dict()
    assert snapshot["retries"] == 2
    assert snapshot["stale_messages_ignored"] == 1
    snapshot["fallbacks"]["x"] = 1
    assert stats.fallbacks == {}  # dicts are copies


# -- WorkerFailedError ---------------------------------------------------------


def test_worker_failed_error_shows_full_history():
    attempts = [
        {"key": 5, "attempt": 0, "error": "InvocationDropped"},
        {"key": 5, "attempt": 1, "error": "SlowDownError: throttle", "backoff_seconds": 0.1},
    ]
    error = WorkerFailedError(5, "gave up", attempts=attempts)
    text = str(error)
    assert "worker 5 failed" in text
    assert "attempt 0: InvocationDropped" in text
    assert "attempt 1: SlowDownError: throttle (backoff 0.100s)" in text


# -- end-to-end: clean runs stay clean ---------------------------------------


def test_clean_run_reports_zero_resilience_stats(driver, dataset, lineitem_table):
    result = driver.execute(parse_sql(q1_sql(), tpch_catalog(lineitem=dataset.paths)))
    resilience = result.statistics.resilience
    assert resilience.clean
    assert resilience.to_dict()["retries"] == 0
    assert resilience.wasted_cost_dollars == 0.0


# -- end-to-end: injected faults are survived --------------------------------


def test_dropped_invocation_is_retried_to_correct_result(driver, dataset, lineitem_table):
    driver.env.install_fault_plan(
        FaultPlan([FaultRule("lambda", "drop", 1.0, max_count=1)], seed=5)
    )
    tables = tpch_catalog(lineitem=dataset.paths)
    try:
        result = driver.execute(parse_sql(q6_sql(), tables))
    finally:
        driver.env.install_fault_plan(None)
    assert result.scalar() == pytest.approx(reference_q6(lineitem_table), rel=1e-9)
    resilience = result.statistics.resilience
    assert resilience.retries >= 1
    assert resilience.faults_injected.get("lambda.drop") == 1
    assert resilience.backoff_seconds > 0.0
    assert resilience.wasted_cost_dollars > 0.0


def test_straggler_is_hedged(driver, dataset, lineitem_table):
    """One worker slowed 400x gets a speculative duplicate invocation."""
    driver.env.install_fault_plan(
        FaultPlan(
            [FaultRule("lambda", "straggler", 1.0, max_count=1, factor=400.0)],
            seed=5,
        )
    )
    try:
        result = driver.execute(parse_sql(q6_sql(), tpch_catalog(lineitem=dataset.paths)))
    finally:
        driver.env.install_fault_plan(None)
    assert result.scalar() == pytest.approx(reference_q6(lineitem_table), rel=1e-9)
    resilience = result.statistics.resilience
    assert resilience.faults_injected.get("lambda.straggler") == 1
    assert resilience.hedges_launched >= 1
    assert (
        resilience.hedges_won + resilience.hedges_lost == resilience.hedges_launched
    )


def _hedged_q6(driver, dataset):
    """Q6 after a warm-up query with one worker slowed 400x; returns the
    result and the Lambda duration dollars the ledger billed for it."""
    env = driver.env
    tables = tpch_catalog(lineitem=dataset.paths)
    driver.execute(parse_sql(q6_sql(), tables))
    before = env.ledger.cost_breakdown()["lambda.gib_seconds"]
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("lambda", "straggler", 1.0, max_count=1, factor=400.0)],
            seed=5,
        )
    )
    try:
        result = driver.execute(parse_sql(q6_sql(), tables))
    finally:
        env.install_fault_plan(None)
    return result, env.ledger.cost_breakdown()["lambda.gib_seconds"] - before


@pytest.fixture
def pooled_driver(env):
    pooled = LambadaDriver(
        env, execution_mode="processes", max_parallel_invocations=2,
        result_queue="q-processes",
    )
    yield pooled
    pooled.close()


@pytest.mark.parametrize("mode", ["serial", "processes"])
def test_a_won_hedge_bills_what_ran(mode, driver, pooled_driver, dataset, lineitem_table):
    """The straggler and its hedge both ran to completion and both are
    billed — the original's seconds plus the hedge's own, not the
    detection threshold the hedge waited for before it started."""
    result, ledger_dollars = _hedged_q6(
        driver if mode == "serial" else pooled_driver, dataset
    )
    assert result.scalar() == pytest.approx(reference_q6(lineitem_table), rel=1e-9)
    resilience = result.statistics.resilience
    assert resilience.hedges_launched == resilience.hedges_won == 1
    assert result.statistics.cost_lambda_duration == pytest.approx(
        ledger_dollars, rel=1e-12
    )


def test_the_pool_hedges_its_stragglers_like_serial(driver, pooled_driver, dataset):
    """A hedge is one more call of the fleet's transport, so the process
    pool races its straggler too and finishes when serial does."""
    serial, _ = _hedged_q6(driver, dataset)
    pooled, _ = _hedged_q6(pooled_driver, dataset)
    assert pooled_driver._pool is not None
    resilience = pooled.statistics.resilience
    assert resilience.hedges_launched == resilience.hedges_won == 1
    assert pooled.statistics.latency_seconds == serial.statistics.latency_seconds
    assert pooled.statistics.latency_seconds == pytest.approx(0.652, abs=1e-3)


def test_injected_faults_do_not_leak_across_queries(driver, dataset, lineitem_table):
    """The per-query faults_injected delta resets between executions."""
    driver.env.install_fault_plan(
        FaultPlan([FaultRule("lambda", "drop", 1.0, max_count=1)], seed=5)
    )
    tables = tpch_catalog(lineitem=dataset.paths)
    try:
        faulted = driver.execute(parse_sql(q6_sql(), tables))
        clean = driver.execute(parse_sql(q6_sql(), tables))
    finally:
        driver.env.install_fault_plan(None)
    assert faulted.statistics.resilience.faults_injected == {"lambda.drop": 1}
    assert clean.statistics.resilience.faults_injected == {}
    assert clean.scalar() == pytest.approx(reference_q6(lineitem_table), rel=1e-9)


# -- one retry booking: what a retry bills, and what it tells the breaker ----


def _q1_or_q3(query, env, dataset):
    if query == "q1":
        return parse_sql(q1_sql(), tpch_catalog(lineitem=dataset.paths))
    orders = generate_orders_dataset(env.s3, scale_factor=0.001, num_files=2, seed=7)
    return parse_sql(q3_sql(), tpch_catalog(lineitem=dataset.paths, orders=orders.paths))


@pytest.mark.parametrize("query", ["q1", "q3"])
def test_a_backoff_retry_bills_no_lambda_invocation(query, driver, dataset, monkeypatch):
    """A throttled GET of a spilled result is retried with backoff: a retry
    of a cloud request, not a re-invocation.  The Lambda requests billed are
    the ones the ledger metered, and none of them is wasted."""
    env = driver.env
    plan = _q1_or_q3(query, env, dataset)
    monkeypatch.setattr(integrity, "RESULT_SPILL_BYTES", 0)  # every frame spills
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "slowdown", 1.0, operation="get",
                       match=integrity.RESULT_BUCKET, max_count=1)],
            seed=1,
        )
    )
    invocations = env.ledger.total("lambda", "invocations")
    try:
        result = driver.execute(plan)
    finally:
        env.install_fault_plan(None)
    statistics = result.statistics
    invoked = env.ledger.total("lambda", "invocations") - invocations
    assert statistics.resilience.faults_injected == {"s3.slowdown": 1}
    assert statistics.resilience.retries == 1
    assert statistics.cost_lambda_requests == pytest.approx(
        invoked * env.ledger.prices.lambda_invocation_cost(1), rel=1e-12
    )
    assert statistics.resilience.wasted_cost_dollars == 0.0


@pytest.mark.parametrize("query", ["q1", "q3"])
def test_dropped_invocations_feed_the_lambda_breaker(query, driver, dataset):
    """Every re-dispatch of a dropped worker is a failure of the driver
    board's Lambda breaker — in a scan fleet and in a shuffle wave alike."""
    env = driver.env
    plan = _q1_or_q3(query, env, dataset)
    env.install_fault_plan(FaultPlan([FaultRule("lambda", "drop", 1.0, max_count=3)], seed=1))
    try:
        result = driver.execute(plan)
    finally:
        env.install_fault_plan(None)
    assert result.statistics.resilience.faults_injected == {"lambda.drop": 3}
    assert driver.breakers.to_dict()["lambda"]["window_failures"] == 3
