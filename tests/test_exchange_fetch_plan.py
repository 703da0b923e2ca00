"""The exchange receiver's fetch plan: what it reads, what it is charged, how
it recovers from a corrupt slice, and that a finished query leaves nothing
behind in the object store."""


import numpy as np
import pytest

import repro.driver.shuffle as shuffle_module
from repro.cloud.faults import FaultPlan, FaultRule
from repro.cloud.network import BandwidthModel, TransferPlan
from repro.config import DEFAULT_SCAN_CHUNK_BYTES, DEFAULT_SCAN_CONNECTIONS
from repro.driver.integrity import IntegrityStats
from repro.driver.shuffle import ShuffleAggregateCoordinator
from repro.exchange.basic import ExchangeStats, serialize_partition
from repro.exchange.codec import encode_partition_set, slice_crcs
from repro.exchange.fetch import FetchPlan, SenderManifest
from repro.exchange.naming import MultiBucketNaming, WriteCombiningNaming
from repro.exchange.partition import (
    partition_assignments,
    scatter_by_assignment,
    slice_partition,
)
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.workload.queries import q3_plan, reference_q3
from repro.workload.tpch import OrdersGenerator, generate_orders_dataset

P = 6
MEMORY_MIB = 2048


def _table(sender: int, keys) -> dict:
    keys = np.asarray(keys, dtype=np.int64)
    return {"k": keys, "v": keys * 10.0 + sender}


def _write_side(store, tag: str, tables, legacy=()):
    """Write one input side; senders in ``legacy`` use per-receiver objects.

    Returns the side's manifest and, per sender, the partitions it has rows
    for.
    """
    combined_naming = WriteCombiningNaming(bucket="fx", prefix=f"q/{tag}/", num_buckets=3)
    legacy_naming = MultiBucketNaming(num_buckets=3, bucket_prefix="fx-", prefix=f"q/{tag}/")
    combined, object_senders, non_empty = [], [], {}
    for sender, table in enumerate(tables):
        assignment = partition_assignments(table, ["k"], P)
        reordered, boundaries = scatter_by_assignment(table, assignment, P)
        non_empty[sender] = {
            p for p in range(P) if boundaries[p + 1] > boundaries[p]
        }
        if sender in legacy:
            for receiver in sorted(non_empty[sender]):
                store.put_path(
                    legacy_naming.path(sender, receiver),
                    serialize_partition(slice_partition(reordered, boundaries, receiver)),
                )
            object_senders.append([sender, 0])
        else:
            payload, offsets = encode_partition_set(reordered, boundaries)
            crcs = slice_crcs(payload, offsets)
            path = combined_naming.combined_path(sender, offsets, crcs)
            store.put_path(path, payload)
            combined.append([sender, path, len(payload)])
    manifest = SenderManifest(combined, object_senders, lambda attempt: legacy_naming)
    return manifest, non_empty


@pytest.fixture
def two_sides(env):
    rng = np.random.default_rng(3)
    left = [_table(s, rng.integers(0, 40, 30)) for s in range(5)]
    # Few distinct keys: most (sender, partition) pairs of this side are empty.
    right = [_table(s, rng.integers(0, 3, 8)) for s in range(4)]
    left_manifest, left_pairs = _write_side(env.s3, "L", left, legacy={1, 3})
    right_manifest, right_pairs = _write_side(env.s3, "R", right, legacy={2})
    return [left_manifest, right_manifest], [left_pairs, right_pairs], [left, right]


# -- (a) what the plan holds -----------------------------------------------------


@pytest.mark.parametrize("partition", range(P))
def test_plan_has_one_range_per_non_empty_pair_in_sender_order(env, two_sides, partition):
    manifests, pairs, _ = two_sides
    stats = ExchangeStats()
    plan = FetchPlan.build(env.s3, manifests, partition, P, stats)

    expected = [
        (side, sender)
        for side, side_pairs in enumerate(pairs)
        for sender in sorted(side_pairs)
        if partition in side_pairs[sender]
    ]
    assert [(item.side, item.sender) for item in plan.ranges] == expected
    total_pairs = sum(len(side_pairs) for side_pairs in pairs)
    assert stats.empty_parts_elided == total_pairs - len(expected)
    # Planning costs one LIST per side with legacy senders and no GET at all.
    assert (stats.list_requests, stats.get_requests, stats.head_requests) == (2, 0, 0)
    for item in plan.ranges:
        legacy = item.sender in ({1, 3} if item.side == 0 else {2})
        assert (item.end is None) == legacy
        assert item.length > 0
        if not legacy:
            assert item.crc is not None and item.end - item.start == item.length


def test_fetch_returns_each_sides_rows_in_sender_order(env, two_sides):
    manifests, _, tables = two_sides
    for partition in range(P):
        stats = ExchangeStats()
        plan = FetchPlan.build(env.s3, manifests, partition, P, stats)
        pieces, _ = plan.fetch(env.s3, env.bandwidth, MEMORY_MIB, stats)
        assert stats.get_requests == len(plan.ranges)
        assert stats.bytes_read == sum(item.length for item in plan.ranges)
        for side, side_tables in enumerate(tables):
            expected = [
                table["v"][partition_assignments(table, ["k"], P) == partition]
                for table in side_tables
            ]
            expected = [values for values in expected if len(values)]
            assert len(pieces[side]) == len(expected)
            for piece, values in zip(pieces[side], expected):
                np.testing.assert_array_equal(np.sort(piece["v"]), np.sort(values))


# -- (b) what the plan is charged --------------------------------------------------


def _widest_plan(env, manifests):
    plans = [FetchPlan.build(env.s3, manifests, p, P, ExchangeStats()) for p in range(P)]
    return max(plans, key=lambda plan: len(plan.ranges))


def test_batch_is_charged_as_one_pipelined_transfer(env, two_sides):
    manifests, _, _ = two_sides
    plan = _widest_plan(env, manifests)
    n = len(plan.ranges)
    total_bytes = sum(item.length for item in plan.ranges)
    assert n > DEFAULT_SCAN_CONNECTIONS
    model = BandwidthModel()

    _, seconds = plan.fetch(env.s3, model, MEMORY_MIB, ExchangeStats())
    assert seconds == model.transfer_seconds(
        TransferPlan(
            total_bytes=total_bytes,
            chunk_bytes=DEFAULT_SCAN_CHUNK_BYTES,
            connections=DEFAULT_SCAN_CONNECTIONS,
            memory_mib=MEMORY_MIB,
            requests=n,
        )
    )
    assert seconds < n * model.request_latency_seconds

    # One connection is the old serial charge: a round trip per slice, plus
    # the bytes at the steady link rate.
    serial = model.transfer_seconds(plan.transfer_plan(MEMORY_MIB, connections=1))
    stream = total_bytes / model.link_bandwidth(MEMORY_MIB, 1)
    assert serial == pytest.approx(n * model.request_latency_seconds + stream)

    # Without latency only the bytes are left.
    free = BandwidthModel(request_latency_seconds=0.0)
    _, seconds = plan.fetch(env.s3, free, MEMORY_MIB, ExchangeStats())
    assert seconds == total_bytes / free.link_bandwidth(MEMORY_MIB, DEFAULT_SCAN_CONNECTIONS)


def test_empty_plan_costs_nothing(env):
    plan = FetchPlan.build(env.s3, [SenderManifest()], 0, P, ExchangeStats())
    pieces, seconds = plan.fetch(env.s3, env.bandwidth, MEMORY_MIB, ExchangeStats())
    assert (plan.ranges, pieces, seconds) == ((), [[]], 0.0)


# -- (c) recovery from a corrupt slice ---------------------------------------------


@pytest.mark.parametrize("fault", ["bitflip", "truncate"])
def test_corrupt_slice_is_refetched_alone(env, two_sides, fault):
    manifests, _, _ = two_sides
    plan = _widest_plan(env, manifests)
    victim = next(item for item in plan.ranges if item.end is not None)
    clean_stats = ExchangeStats()
    clean, clean_seconds = plan.fetch(env.s3, env.bandwidth, MEMORY_MIB, clean_stats)

    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", fault, rate=1.0, operation="get",
                       match=victim.path[len("s3://"):], max_count=1)],
            seed=5,
        )
    )
    stats, istats = ExchangeStats(), IntegrityStats()
    pieces, seconds = plan.fetch(
        env.s3, env.bandwidth, MEMORY_MIB, stats, integrity=istats
    )

    assert stats.get_requests == clean_stats.get_requests + 1
    assert istats.re_reads == 1
    assert sum(istats.mismatches.values()) == 1
    single = TransferPlan(
        total_bytes=victim.length,
        chunk_bytes=DEFAULT_SCAN_CHUNK_BYTES,
        connections=DEFAULT_SCAN_CONNECTIONS,
        memory_mib=MEMORY_MIB,
        requests=1,
    )
    assert seconds == clean_seconds + env.bandwidth.transfer_seconds(single)
    for side_pieces, clean_pieces in zip(pieces, clean):
        assert len(side_pieces) == len(clean_pieces)
        for piece, reference in zip(side_pieces, clean_pieces):
            assert list(piece) == list(reference)
            for name in reference:
                assert piece[name].tobytes() == reference[name].tobytes()


def test_corrupt_slice_in_a_wave_costs_one_get_and_keeps_the_result(env, dataset):
    def run():
        return ShuffleAggregateCoordinator(env).execute(
            dataset.paths,
            group_by=["l_orderkey"],
            aggregates=[AggregateSpec("sum", col("l_quantity"), "s")],
            order_by=["l_orderkey"],
        )

    clean, clean_stats = run()
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "bitflip", rate=1.0, operation="get",
                       match="shuffle-b", max_count=1)],
            seed=11,
        )
    )
    result, stats = run()
    assert stats.integrity.re_reads == 1
    assert stats.exchange.get_requests == clean_stats.exchange.get_requests + 1
    assert stats.modelled_reduce_seconds > clean_stats.modelled_reduce_seconds
    for name in clean:
        assert result[name].tobytes() == clean[name].tobytes()


# -- (d) nothing is left behind ------------------------------------------------------


def test_q3_leaves_no_objects_behind(env, driver, dataset, lineitem_table):
    orders = generate_orders_dataset(
        env.s3, scale_factor=0.001, num_files=3, row_group_rows=512, seed=7
    )
    before = env.s3.object_count()
    requests_before = env.ledger.total("s3", "list_requests")
    result = driver.execute(q3_plan(dataset.paths, orders.paths))
    assert env.s3.object_count() == before
    assert env.ledger.total("s3", "list_requests") == requests_before
    assert result.statistics.gc_objects_deleted > 0
    reference = reference_q3(
        lineitem_table, OrdersGenerator(scale_factor=0.001, seed=7).generate()
    )
    for name in reference:
        np.testing.assert_allclose(
            np.asarray(result.table[name], dtype=np.float64),
            np.asarray(reference[name], dtype=np.float64),
            rtol=1e-9,
        )


@pytest.mark.parametrize("spill", [False, True])
@pytest.mark.parametrize("write_combining", [True, False])
def test_shuffle_aggregation_leaves_no_objects_behind(
    env, dataset, monkeypatch, spill, write_combining
):
    if spill:
        monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 64)
    coordinator = ShuffleAggregateCoordinator(
        env, config=shuffle_module.ShuffleConfig(write_combining=write_combining)
    )
    before = env.s3.object_count()
    puts_before = env.ledger.total("s3", "put_requests")
    _, stats = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "s")],
    )
    assert env.s3.object_count() == before
    spilled = env.ledger.total("s3", "put_requests") - puts_before - stats.exchange.put_requests
    assert spilled == (stats.reduce_workers if spill else 0)
