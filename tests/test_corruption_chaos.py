"""Seeded corruption chaos suite: verify-and-recover under data corruption.

TPC-H Q1/Q6 (scan path) and Q3/Q12/Q14 (distributed joins over the shuffle
plane) run under randomized-but-seeded
:func:`~repro.cloud.faults.corruption_chaos_plan` storms — served S3 bodies
with flipped bytes, truncated responses, stale previous versions, and SQS
payloads with rewritten characters — across all three execution modes.
Acceptance:

* results are **bit-identical** to the corruption-free baseline: a corrupted
  byte is either detected and recovered from or the query fails loudly —
  there is no silent-wrong-answer path;
* recovery is bounded: re-reads plus re-executions never exceed the injection
  budget (``max_count`` caps every corruption kind);
* clean runs report clean integrity statistics (no false positives), and
  shuffle reads are actually verified (``verified_bytes`` advances);
* the seeded schedule is deterministic, and no ``/dev/shm`` segments leak.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import setup_functional_environment
from repro.cloud.faults import FaultPlan, FaultRule, corruption_chaos_plan
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
# Each of the four corruption kinds is capped at MAX_FAULTS injections; a
# detected corruption costs at most one re-read or one re-execution, so an
# attempt budget of 14 provably converges even if every injection lands on
# the same worker's reads.
MAX_FAULTS = 2
CHAOS_POLICY = ResiliencePolicy(max_attempts=14)
#: Rules in corruption_chaos_plan (bitflip, truncate, stale_body, corrupt_payload).
NUM_RULES = 4

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
    """Corruption-free reference results; integrity must report clean."""
    env = stack[0]
    assert env.s3.fault_plan is None
    results = {query: drivers["serial"].execute(plan) for query, plan in plans.items()}
    for query, result in results.items():
        integrity = result.statistics.integrity
        assert integrity.clean, f"{query}: clean run flagged corruption"
    # Join queries pull shuffle slices through the verifying read path.
    assert results["q3"].statistics.integrity.verified_bytes > 0
    return results


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("query", QUERIES)
def test_corruption_parity(stack, plans, drivers, baselines, query, mode, seed):
    env = stack[0]
    env.install_fault_plan(
        corruption_chaos_plan(seed=seed, rate=CHAOS_RATE, max_count=MAX_FAULTS)
    )
    try:
        result = drivers[mode].execute(plans[query])
    finally:
        env.install_fault_plan(None)

    label = f"{query}/{mode}/seed{seed}"
    # The gate: corrupted bytes never surface as a different answer.
    assert_bit_identical(baselines[query].table, result.table, label)

    resilience = result.statistics.resilience
    injected = sum(resilience.faults_injected.values())
    assert injected <= NUM_RULES * MAX_FAULTS, f"{label}: injection cap violated"
    for kind in resilience.faults_injected:
        assert kind in (
            "s3.bitflip", "s3.truncate", "s3.stale_body", "sqs.corrupt_payload"
        ), f"{label}: unexpected fault kind {kind}"
    # Bounded recovery: each detected corruption costs at most one re-read
    # (a cured in-flight read) or one re-execution (a re-run worker).
    integrity = result.statistics.integrity
    assert integrity.re_reads + integrity.re_executions <= injected, label
    assert result.statistics.cost_total > 0.0
    assert leaked_segments() == []


def test_corruption_schedule_is_deterministic(stack, plans, drivers, baselines):
    """Same seed, serial mode: two runs inject the identical schedule."""
    env = stack[0]
    outcomes = []
    for _ in range(2):
        env.install_fault_plan(
            corruption_chaos_plan(
                seed=CHAOS_SEEDS[0], rate=CHAOS_RATE, max_count=MAX_FAULTS
            )
        )
        try:
            result = drivers["serial"].execute(plans["q3"])
        finally:
            env.install_fault_plan(None)
        outcomes.append(result.statistics.resilience.faults_injected)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]


# ---------------------------------------------------------------------------
# Targeted recovery paths: one corruption kind, one site, deterministic
# ---------------------------------------------------------------------------


def _group_sum(coordinator, dataset):
    return coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "total_qty")],
        order_by=["l_orderkey"],
    )


def test_shuffle_slice_bitflip_is_cured_by_one_reread(stack):
    """An in-flight bitflip on a combined-object slice GET is caught by the
    per-slice crc and cured by a single re-GET — no worker re-runs."""
    env, dataset, _, _ = stack
    baseline, _ = _group_sum(
        ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=4), dataset
    )
    env.install_fault_plan(
        FaultPlan(
            # "sender-" appears only in combined shuffle object keys, so the
            # flip lands on a reducer's ranged slice read.
            [FaultRule("s3", "bitflip", 1.0, operation="get", match="sender-",
                       max_count=1)],
            seed=3,
        )
    )
    try:
        result, statistics = _group_sum(
            ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=4), dataset
        )
    finally:
        env.install_fault_plan(None)

    assert_bit_identical(baseline, result, "slice-bitflip")
    assert statistics.resilience.faults_injected == {"s3.bitflip": 1}
    integrity = statistics.integrity
    assert integrity.re_reads == 1
    assert integrity.re_executions == 0
    assert sum(integrity.mismatches.values()) == 1
    assert all(site.startswith(("slice.", "codec.")) for site in integrity.mismatches)


def test_corrupt_result_message_is_dropped_and_reexecuted(stack, plans, drivers):
    """A corrupted SQS result payload never contributes rows: the driver
    drops it (parse failure or digest mismatch) and re-invokes the worker."""
    env = stack[0]
    baseline = drivers["serial"].execute(plans["q6"])
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("sqs", "corrupt_payload", 1.0, max_count=1)], seed=5
        )
    )
    try:
        result = drivers["serial"].execute(plans["q6"])
    finally:
        env.install_fault_plan(None)

    assert_bit_identical(baseline.table, result.table, "sqs-corrupt")
    assert result.statistics.resilience.faults_injected == {"sqs.corrupt_payload": 1}
    integrity = result.statistics.integrity
    assert integrity.re_executions >= 1
    assert any(site.startswith("sqs.") for site in integrity.mismatches)


def test_scan_truncation_fails_loudly_and_is_retried(stack, plans, drivers):
    """A truncated dataset GET surfaces as a worker error (never a short
    table); the driver retries the worker and the result is exact."""
    env = stack[0]
    baseline = drivers["serial"].execute(plans["q1"])
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "truncate", 1.0, operation="get", match="part-0",
                       max_count=1)],
            seed=7,
        )
    )
    try:
        result = drivers["serial"].execute(plans["q1"])
    finally:
        env.install_fault_plan(None)

    assert_bit_identical(baseline.table, result.table, "scan-truncate")
    assert result.statistics.resilience.faults_injected == {"s3.truncate": 1}
    assert result.statistics.resilience.retries >= 1


def test_stale_body_serves_previous_version_and_is_detected(stack):
    """stale_body replays the retained previous version of an overwritten
    key; a checksum-verified consumer sees the mismatch, a second GET is
    served fresh."""
    env = stack[0]
    from repro.exchange.codec import decode_partition, encode_partition
    import numpy as np

    env.s3.ensure_bucket("stale-test")
    old = encode_partition({"k": np.arange(8, dtype=np.int64)})
    new = encode_partition({"k": np.arange(100, 108, dtype=np.int64)})

    # Previous versions are only retained while a fault plan is installed
    # (the lagging-replica model), so install before the overwrite.
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "stale_body", 1.0, operation="get", match="stale-test",
                       max_count=1)],
            seed=9,
        )
    )
    try:
        env.s3.put_object("stale-test", "obj", old)
        env.s3.put_object("stale-test", "obj", new)
        served = env.s3.get_object("stale-test", "obj").data
        # The stale body is the *old* object — internally consistent, so the
        # frame checksum alone cannot flag it ...
        stale = decode_partition(served)
        assert stale["k"].tolist() == list(range(8))
        # ... which is why shuffle keys are attempt-suffixed and never
        # overwritten: uniqueness, not just checksums, is the defence.
        fresh = env.s3.get_object("stale-test", "obj").data
    finally:
        env.install_fault_plan(None)
    assert decode_partition(fresh)["k"].tolist() == list(range(100, 108))
    assert env.fault_plan is None
