"""Seeded chaos parity: Q1/Q6 (scans) and Q3/Q12/Q14 (joins over the shuffle
plane) in all three modes under :func:`~repro.cloud.faults.chaos_plan`
storms — throttles, read-after-write lag, worker crashes after their shuffle
PUT landed, dropped and timed-out invocations, stragglers, duplicated and
delayed queue deliveries.  The storm cells are the conformance matrix's
(``tests/conformance.py``): bit-identical to the fault-free run, faults
injected within their caps, a bounded recovery, no leaked segment.

A mapper whose combined write keeps crashing is retried under a fresh attempt
prefix, writes combined again, and still produces the exact result.
"""

from __future__ import annotations

import pytest

from repro.driver.shuffle import ShuffleAggregateCoordinator
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from tests.conformance import (
    CHAOS_SEEDS, MODES, Cell, assert_bit_identical, check, installed, one_rule, run, stack,
)

QUERIES = ["q1", "q6", "q3", "q12", "q14"]


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("query", QUERIES)
def test_chaos_parity(query, mode, seed):
    check(Cell(query, mode=mode, storm=f"chaos-{seed}"))


def test_chaos_schedule_is_deterministic():
    """Same seed, serial mode: two runs inject the identical fault schedule."""
    cell = Cell("q3", storm=f"chaos-{CHAOS_SEEDS[0]}")
    outcomes = [run(cell).statistics.resilience.faults_injected for _ in range(2)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]


# -- crash after PUT: retried writers never collide with their orphans ----------------------


def group_sum(env):
    """A repartitioned ``sum(l_quantity) GROUP BY l_orderkey`` over the
    shared LINEITEM files, through the facade: ``(table, statistics)``."""
    return ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=4).execute(
        stack(7).datasets["lineitem"].paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "total_qty")],
        order_by=["l_orderkey"],
    )


def test_repeated_crash_retries_combined_write_under_a_fresh_prefix():
    """Mapper 0's combined PUT crashes twice (after landing!); attempt 2
    writes its combined object again under ``r2/`` and the result stays
    bit-identical — the orphaned objects of attempts 0 and 1 (under the
    query prefix and ``r1/``) are never read, only swept."""
    env = stack(7).env
    expected, _ = group_sum(env)
    objects_before = env.s3.object_count()
    # "L/sender-0" is worker 0's combined-object key under every attempt
    # prefix; the third attempt outlives the two crashes.
    with installed(env, one_rule("s3", "crash_after_put", match="L/sender-0", max_count=2)):
        result, statistics = group_sum(env)
    assert_bit_identical(expected, result, "crash-retry")
    resilience = statistics.resilience
    assert resilience.faults_injected == {"s3.crash_after_put": 2}
    assert resilience.fallbacks == {}
    assert resilience.retries >= 2
    assert statistics.exchange.put_requests == statistics.exchange.combined_put_requests
    assert resilience.wave_retries >= 1
    assert resilience.backoff_seconds > 0.0
    # The two orphaned combined objects no announcement names were swept.
    assert env.s3.object_count() == objects_before


def test_crashed_reduce_spill_is_retried(monkeypatch):
    """A reducer crashing after its spill PUT is re-run; the superseded spill
    object is never fetched (the driver reads only the path the accepted
    attempt announced)."""
    env = stack(7).env
    # Force every reducer to spill so the crash-after-PUT rule has a target.
    monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 64)
    expected, _ = group_sum(env)
    objects_before = env.s3.object_count()
    with installed(env, one_rule("s3", "crash_after_put", match="reduce-0.a0", max_count=1)):
        result, statistics = group_sum(env)
    assert_bit_identical(expected, result, "reduce-crash")
    assert statistics.resilience.faults_injected == {"s3.crash_after_put": 1}
    assert statistics.resilience.retries >= 1
    # The superseded attempt's spill in the result bucket was swept too.
    assert env.s3.object_count() == objects_before


def test_crashed_join_spill_is_retried(monkeypatch):
    """The join twin: a Q3 join worker crashing after its spill PUT is
    re-run, the result stays bit-identical, and the post-fault sweep (LISTs
    the clean baseline never issues) removes the superseded spill."""
    shared = stack(7)
    monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 64)
    expected = shared.driver().execute(shared.plan("q3"))
    assert expected.statistics.gc_list_requests == 0
    objects_before = shared.env.s3.object_count()
    with installed(shared.env, one_rule("s3", "crash_after_put", match="join-0.a0", max_count=1)):
        result = shared.driver().execute(shared.plan("q3"))
    assert_bit_identical(expected.table, result.table, "join-crash")
    statistics = result.statistics
    assert statistics.resilience.faults_injected == {"s3.crash_after_put": 1}
    assert statistics.resilience.retries >= 1
    assert statistics.gc_list_requests > 0
    assert shared.env.s3.object_count() == objects_before
