"""The exchange receiver's fetch plan: what it reads, what it is charged, how
it recovers from a corrupt slice, and that a finished query leaves nothing
behind in the object store."""


import numpy as np
import pytest

from repro.cloud.faults import FaultPlan, FaultRule
from repro.cloud.network import BandwidthModel, TransferPlan
from repro.config import DEFAULT_SCAN_CHUNK_BYTES, DEFAULT_SCAN_CONNECTIONS
from repro.counters import Counts, LayerView
from repro.driver.shuffle import ShuffleAggregateCoordinator
from repro.exchange.codec import encode_partition_set, slice_crcs
from repro.exchange.fetch import FetchPlan, SenderManifest
from repro.exchange.naming import WriteCombiningNaming
from repro.exchange.partition import partition_assignments, scatter_by_assignment
from repro.frontend.sql import parse_sql
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.workload.queries import q3_sql, reference_q3, tpch_catalog
from repro.workload.tpch import OrdersGenerator, generate_orders_dataset

P = 6
MEMORY_MIB = 2048


def _table(sender: int, keys) -> dict:
    keys = np.asarray(keys, dtype=np.int64)
    return {"k": keys, "v": keys * 10.0 + sender}


def _write_side(store, tag: str, tables):
    """Write one input side, one combined object per sender.

    Returns the side's manifest and, per sender, the partitions it has rows
    for.
    """
    naming = WriteCombiningNaming(bucket="fx", prefix=f"q/{tag}/", num_buckets=3)
    senders, non_empty = [], {}
    for sender, table in enumerate(tables):
        assignment = partition_assignments(table, ["k"], P)
        reordered, boundaries = scatter_by_assignment(table, assignment, P)
        non_empty[sender] = {
            p for p in range(P) if boundaries[p + 1] > boundaries[p]
        }
        payload, offsets = encode_partition_set(reordered, boundaries)
        path = naming.path(sender, 0)
        store.put_path(path, payload)
        senders.append([sender, path, len(payload), offsets, slice_crcs(payload, offsets)])
    return SenderManifest(senders), non_empty


@pytest.fixture
def two_sides(env):
    rng = np.random.default_rng(3)
    left = [_table(s, rng.integers(0, 40, 30)) for s in range(5)]
    # Few distinct keys: most (sender, partition) pairs of this side are empty.
    right = [_table(s, rng.integers(0, 3, 8)) for s in range(4)]
    left_manifest, left_pairs = _write_side(env.s3, "L", left)
    right_manifest, right_pairs = _write_side(env.s3, "R", right)
    return [left_manifest, right_manifest], [left_pairs, right_pairs], [left, right]


# -- (a) what the plan holds -----------------------------------------------------


@pytest.mark.parametrize("partition", range(P))
def test_plan_has_one_range_per_non_empty_pair_in_sender_order(env, two_sides, partition):
    manifests, pairs, _ = two_sides
    counts = Counts()
    stats = LayerView(counts, "exchange")
    plan = FetchPlan.build(manifests, partition, P, counts)

    expected = [
        (side, sender)
        for side, side_pairs in enumerate(pairs)
        for sender in sorted(side_pairs)
        if partition in side_pairs[sender]
    ]
    assert [(item.side, item.sender) for item in plan.ranges] == expected
    total_pairs = sum(len(side_pairs) for side_pairs in pairs)
    assert stats.empty_parts_elided == total_pairs - len(expected)
    # Planning reads the announced directories only: not a single request.
    assert stats.total_requests == 0
    crcs = [{entry[0]: entry[4] for entry in manifest.senders} for manifest in manifests]
    for item in plan.ranges:
        assert item.crc == crcs[item.side][item.sender][partition]
        assert item.end - item.start == item.length > 0


def test_fetch_returns_each_sides_rows_in_sender_order(env, two_sides):
    manifests, _, tables = two_sides
    for partition in range(P):
        counts = Counts()
        stats = LayerView(counts, "exchange")
        plan = FetchPlan.build(manifests, partition, P, counts)
        pieces, _ = plan.fetch(env.s3, env.bandwidth, MEMORY_MIB, counts)
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
    plans = [FetchPlan.build(manifests, p, P, Counts()) for p in range(P)]
    return max(plans, key=lambda plan: len(plan.ranges))


def test_batch_is_charged_as_one_pipelined_transfer(env, two_sides):
    manifests, _, _ = two_sides
    plan = _widest_plan(env, manifests)
    n = len(plan.ranges)
    total_bytes = sum(item.length for item in plan.ranges)
    assert n > DEFAULT_SCAN_CONNECTIONS
    model = BandwidthModel()

    _, seconds = plan.fetch(env.s3, model, MEMORY_MIB, Counts())
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
    _, seconds = plan.fetch(env.s3, free, MEMORY_MIB, Counts())
    assert seconds == total_bytes / free.link_bandwidth(MEMORY_MIB, DEFAULT_SCAN_CONNECTIONS)


def test_empty_plan_costs_nothing(env):
    plan = FetchPlan.build([SenderManifest()], 0, P, Counts())
    pieces, seconds = plan.fetch(env.s3, env.bandwidth, MEMORY_MIB, Counts())
    assert (plan.ranges, pieces, seconds) == ((), [[]], 0.0)


# -- (c) recovery from a corrupt slice ---------------------------------------------


@pytest.mark.parametrize("fault", ["bitflip", "truncate"])
def test_corrupt_slice_is_refetched_alone(env, two_sides, fault):
    manifests, _, _ = two_sides
    plan = _widest_plan(env, manifests)
    victim = plan.ranges[0]
    clean_counts = Counts()
    clean_stats = LayerView(clean_counts, "exchange")
    clean, clean_seconds = plan.fetch(env.s3, env.bandwidth, MEMORY_MIB, clean_counts)

    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", fault, rate=1.0, operation="get",
                       match=victim.path[len("s3://"):], max_count=1)],
            seed=5,
        )
    )
    counts = Counts()
    stats, istats = LayerView(counts, "exchange"), LayerView(counts, "integrity")
    pieces, seconds = plan.fetch(env.s3, env.bandwidth, MEMORY_MIB, counts)

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
    assert stats.latency_seconds > clean_stats.latency_seconds
    for name in clean:
        assert result[name].tobytes() == clean[name].tobytes()


# -- (d) nothing is left behind ------------------------------------------------------


def test_q3_leaves_no_objects_behind(env, driver, dataset, lineitem_table):
    orders = generate_orders_dataset(
        env.s3, scale_factor=0.001, num_files=3, row_group_rows=512, seed=7
    )
    before = env.s3.object_count()
    requests_before = env.ledger.total("s3", "list_requests")
    tables = tpch_catalog(lineitem=dataset.paths, orders=orders.paths)
    result = driver.execute(parse_sql(q3_sql(), tables))
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
def test_shuffle_aggregation_leaves_no_objects_behind(env, dataset, monkeypatch, spill):
    if spill:
        monkeypatch.setattr("repro.driver.integrity.RESULT_SPILL_BYTES", 64)
    coordinator = ShuffleAggregateCoordinator(env)
    before = env.s3.object_count()
    puts_before = env.ledger.total("s3", "put_requests")
    _, stats = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "s")],
    )
    assert env.s3.object_count() == before
    spilled = env.ledger.total("s3", "put_requests") - puts_before - stats.exchange.put_requests
    assert spilled == (stats.exchange_partitions * stats.join_waves if spill else 0)
