"""Seeded chaos parity suite: every query survives an injected fault storm.

TPC-H Q1/Q6 (scan path) and Q3/Q12/Q14 (distributed joins over the shuffle
plane) run under randomized-but-seeded :func:`~repro.cloud.faults.chaos_plan`
schedules — throttles, read-after-write lag, worker crashes after their
shuffle PUT landed, dropped and timed-out invocations, stragglers, duplicated
and delayed queue deliveries — across all three execution modes.  Acceptance:

* results are **bit-identical** to the fault-free baseline (same columns,
  dtypes, bytes) — in particular no duplicated-object slice is ever read
  twice and no retry partial is double-counted;
* the retry budget converges (``max_count`` caps every fatal fault kind);
* no ``/dev/shm`` segments leak, even when pool children are crashed;
* a mapper whose combined write keeps crashing is retried under a fresh
  attempt prefix, writes combined again, and still produces the exact result.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import setup_functional_environment
from repro.cloud.faults import FaultPlan, FaultRule, chaos_plan
from repro.driver.driver import LambadaDriver
from repro.driver.resilience import ResiliencePolicy
from repro.driver.shuffle import ShuffleAggregateCoordinator
from repro.frontend.sql import parse_sql
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.workload.queries import q1_sql, q3_sql, q6_sql, q12_sql, q14_sql, tpch_catalog
from repro.workload.tpch import generate_orders_dataset, generate_part_dataset

from tests.conftest import leaked_segments
from tests.test_mode_parity import assert_bit_identical

CHAOS_SEEDS = (11, 23)
CHAOS_RATE = 0.2
# Every always-fatal fault kind in chaos_plan is capped at MAX_FAULTS
# injections; six fatal kinds x 2 = at most 12 fatal faults per run, so an
# attempt budget of 14 provably converges even if every fault lands on the
# same worker.
MAX_FAULTS = 2
CHAOS_POLICY = ResiliencePolicy(max_attempts=14)

QUERIES = ["q1", "q6", "q3", "q12", "q14"]
MODES = ["serial", "threads", "processes"]


@pytest.fixture(scope="module")
def stack():
    env, dataset, _ = setup_functional_environment(scale_factor=0.002, num_files=8)
    orders = generate_orders_dataset(
        env.s3, scale_factor=0.002, num_files=3, row_group_rows=512, seed=7
    )
    part = generate_part_dataset(
        env.s3, scale_factor=0.002, num_files=2, row_group_rows=512, seed=7
    )
    return env, dataset, orders, part


@pytest.fixture(scope="module")
def plans(stack):
    _, dataset, orders, part = stack
    catalog = tpch_catalog(lineitem=dataset.paths, orders=orders.paths, part=part.paths)
    queries = {"q1": q1_sql, "q6": q6_sql, "q3": q3_sql, "q12": q12_sql, "q14": q14_sql}
    return {name: parse_sql(sql(), catalog) for name, sql in queries.items()}


@pytest.fixture(scope="module")
def drivers(stack):
    env = stack[0]
    serial = LambadaDriver(env, resilience_policy=CHAOS_POLICY)
    threads = LambadaDriver(
        env, execution_mode="threads", resilience_policy=CHAOS_POLICY
    )
    processes = LambadaDriver(
        env,
        execution_mode="processes",
        max_parallel_invocations=2,
        resilience_policy=CHAOS_POLICY,
    )
    yield {"serial": serial, "threads": threads, "processes": processes}
    processes.close()


@pytest.fixture(scope="module")
def baselines(stack, plans, drivers):
    """Fault-free reference results, one per query, all-zero resilience."""
    env = stack[0]
    assert env.s3.fault_plan is None
    results = {query: drivers["serial"].execute(plan) for query, plan in plans.items()}
    for query, result in results.items():
        assert result.statistics.resilience.clean, f"{query}: baseline not clean"
    return results


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("query", QUERIES)
def test_chaos_parity(stack, plans, drivers, baselines, query, mode, seed):
    env = stack[0]
    env.install_fault_plan(
        chaos_plan(seed=seed, rate=CHAOS_RATE, max_count=MAX_FAULTS)
    )
    try:
        result = drivers[mode].execute(plans[query])
    finally:
        env.install_fault_plan(None)

    label = f"{query}/{mode}/seed{seed}"
    assert_bit_identical(baselines[query].table, result.table, label)

    resilience = result.statistics.resilience
    # The seeded plan must actually have exercised the machinery ...
    assert resilience.faults_injected, f"{label}: no faults injected"
    # ... within its caps (9 rules x MAX_FAULTS), with a bounded recovery.
    assert sum(resilience.faults_injected.values()) <= 9 * MAX_FAULTS
    assert resilience.retries + resilience.wave_retries <= 9 * MAX_FAULTS + 6
    # Retried or hedged attempts waste money but never corrupt cost accounting.
    assert result.statistics.cost_total > 0.0
    assert resilience.wasted_cost_dollars <= result.statistics.cost_total
    # Shared-memory hygiene holds even when pool children were crashed.
    assert leaked_segments() == []


def test_chaos_schedule_is_deterministic(stack, plans, drivers, baselines):
    """Same seed, serial mode: two runs inject the identical fault schedule."""
    env = stack[0]
    outcomes = []
    for _ in range(2):
        env.install_fault_plan(
            chaos_plan(seed=CHAOS_SEEDS[0], rate=CHAOS_RATE, max_count=MAX_FAULTS)
        )
        try:
            result = drivers["serial"].execute(plans["q3"])
        finally:
            env.install_fault_plan(None)
        outcomes.append(result.statistics.resilience.faults_injected)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]


# ---------------------------------------------------------------------------
# Crash after PUT: retried writers never collide with their orphans
# ---------------------------------------------------------------------------


def _group_sum(coordinator, dataset):
    return coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "total_qty")],
        order_by=["l_orderkey"],
    )


def test_repeated_crash_retries_combined_write_under_a_fresh_prefix(stack):
    """Mapper 0's combined PUT crashes twice (after landing!); attempt 2
    writes its combined object again under ``r2/`` and the result stays
    bit-identical — the orphaned objects of attempts 0 and 1 (under the
    query prefix and ``r1/``) are never read, only swept."""
    env, dataset, _, _ = stack
    baseline, _ = _group_sum(
        ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=4), dataset
    )
    objects_before = env.s3.object_count()

    env.install_fault_plan(
        FaultPlan(
            # "L/sender-0" is worker 0's combined-object key under every
            # attempt prefix; the third attempt outlives the two crashes.
            [FaultRule("s3", "crash_after_put", 1.0, match="L/sender-0", max_count=2)],
            seed=1,
        )
    )
    try:
        result, statistics = _group_sum(
            ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=4), dataset
        )
    finally:
        env.install_fault_plan(None)

    assert_bit_identical(baseline, result, "crash-retry")
    resilience = statistics.resilience
    assert resilience.faults_injected == {"s3.crash_after_put": 2}
    assert resilience.fallbacks == {}
    assert resilience.retries >= 2
    assert statistics.exchange.put_requests == statistics.exchange.combined_put_requests
    assert resilience.wave_retries >= 1
    assert resilience.backoff_seconds > 0.0
    # The two orphaned combined objects no announcement names were swept.
    assert env.s3.object_count() == objects_before


def test_crashed_reduce_spill_is_retried(stack, monkeypatch):
    """A reducer crashing after its spill PUT is re-run; the superseded spill
    object is never fetched (the driver reads only the path the accepted
    attempt announced)."""
    env, dataset, _, _ = stack
    # Force every reducer to spill so the crash-after-PUT rule has a target.
    monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 64)
    baseline, _ = _group_sum(
        ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=4), dataset
    )
    objects_before = env.s3.object_count()
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "crash_after_put", 1.0, match="reduce-0.a0", max_count=1)],
            seed=1,
        )
    )
    try:
        result, statistics = _group_sum(
            ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=4), dataset
        )
    finally:
        env.install_fault_plan(None)
    assert_bit_identical(baseline, result, "reduce-crash")
    assert statistics.resilience.faults_injected == {"s3.crash_after_put": 1}
    assert statistics.resilience.retries >= 1
    # The superseded attempt's spill in the result bucket was swept too.
    assert env.s3.object_count() == objects_before


def test_crashed_join_spill_is_retried(stack, plans, drivers, monkeypatch):
    """The join twin: a Q3 join worker crashing after its spill PUT is
    re-run, the result stays bit-identical, and the post-fault sweep (LISTs
    the clean baseline never issues) removes the superseded spill."""
    env = stack[0]
    monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 64)
    baseline = drivers["serial"].execute(plans["q3"])
    assert baseline.statistics.gc_list_requests == 0
    objects_before = env.s3.object_count()
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "crash_after_put", 1.0, match="join-0.a0", max_count=1)],
            seed=1,
        )
    )
    try:
        result = drivers["serial"].execute(plans["q3"])
    finally:
        env.install_fault_plan(None)
    assert_bit_identical(baseline.table, result.table, "join-crash")
    statistics = result.statistics
    assert statistics.resilience.faults_injected == {"s3.crash_after_put": 1}
    assert statistics.resilience.retries >= 1
    assert statistics.gc_list_requests > 0
    assert env.s3.object_count() == objects_before
