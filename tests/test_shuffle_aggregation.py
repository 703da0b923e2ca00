"""Tests for the shuffle-based (repartitioned) aggregation path."""

import numpy as np
import pytest

from repro.driver.shuffle import ShuffleAggregateCoordinator, ShuffleConfig
from repro.errors import ExecutionError
from repro.plan.expressions import col, lit
from repro.plan.logical import AggregateSpec
from repro.workload.queries import q1_plan


@pytest.fixture
def coordinator(env):
    return ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=4)


def _reference_group_sum(table, key, value):
    keys, inverse = np.unique(table[key], return_inverse=True)
    sums = np.bincount(inverse, weights=table[value], minlength=len(keys))
    return {k: s for k, s in zip(keys, sums)}


def test_high_cardinality_group_by_matches_reference(env, dataset, coordinator, lineitem_table):
    result, statistics = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[
            AggregateSpec("sum", col("l_quantity"), "total_qty"),
            AggregateSpec("count", None, "n"),
        ],
        order_by=["l_orderkey"],
    )
    reference = _reference_group_sum(lineitem_table, "l_orderkey", "l_quantity")
    assert statistics.result_rows == len(reference)
    result_map = dict(zip(result["l_orderkey"].tolist(), result["total_qty"].tolist()))
    for key, expected in list(reference.items())[::37]:
        assert result_map[key] == pytest.approx(expected)
    assert result["n"].sum() == pytest.approx(len(lineitem_table["l_orderkey"]))


def test_group_count_matches_driver_merge_path(env, dataset, driver, coordinator, lineitem_table):
    """The shuffle path and the driver-merge path return the same aggregates."""
    shuffle_result, _ = coordinator.execute(
        dataset.paths,
        group_by=["l_returnflag", "l_linestatus"],
        aggregates=[
            AggregateSpec("sum", col("l_quantity"), "sum_qty"),
            AggregateSpec("avg", col("l_discount"), "avg_disc"),
        ],
        predicate=col("l_shipdate") <= lit(10_471),
        order_by=["l_returnflag", "l_linestatus"],
    )
    driver_result = driver.execute(q1_plan(dataset.paths))
    np.testing.assert_allclose(shuffle_result["sum_qty"], driver_result.column("sum_qty"), rtol=1e-9)
    np.testing.assert_allclose(shuffle_result["avg_disc"], driver_result.column("avg_disc"), rtol=1e-9)


def test_partition_objects_follow_expected_counts(env, dataset, coordinator):
    _, statistics = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "s")],
    )
    # Write combining (the default): each of the W map workers writes exactly
    # one combined object and announces its offset-bearing path through the
    # map barrier, so the reduce wave reads at most one non-empty slice per
    # sender×receiver pair off the driver-built manifest with zero discovery
    # requests.
    W = statistics.map_workers
    assert statistics.partition_objects_written == W
    assert statistics.exchange.put_requests == W
    assert statistics.exchange.combined_put_requests == W
    assert statistics.exchange.ranged_get_requests == statistics.partition_objects_read
    assert (
        statistics.exchange.ranged_get_requests + statistics.exchange.empty_parts_elided
        == W * W
    )
    assert statistics.exchange.list_requests == 0  # manifest replaces discovery
    assert statistics.exchange.bytes_touched >= statistics.exchange.bytes_read
    assert statistics.rows_scanned > 0


def test_legacy_path_writes_one_object_per_pair(env, dataset, lineitem_table):
    coordinator = ShuffleAggregateCoordinator(
        env, memory_mib=2048, num_buckets=4, config=ShuffleConfig(write_combining=False)
    )
    result, statistics = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "s")],
    )
    # Legacy parity baseline: one object per non-empty mapper×reducer pair.
    W = statistics.map_workers
    assert statistics.exchange.combined_put_requests == 0
    # Every empty pair is elided twice: the skipped PUT and the skipped GET.
    assert (
        statistics.partition_objects_written + statistics.exchange.empty_parts_elided // 2
        == W * W
    )
    assert statistics.exchange.put_requests == statistics.partition_objects_written
    assert statistics.partition_objects_read == statistics.partition_objects_written
    reference = _reference_group_sum(lineitem_table, "l_orderkey", "l_quantity")
    assert statistics.result_rows == len(reference)


def test_partition_files_spread_over_buckets(env, dataset, coordinator):
    coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "s")],
    )
    shuffle_buckets = [b for b in env.s3.list_buckets() if b.startswith("shuffle-b")]
    # The exchange objects are deleted once consumed; the PUT counters remain.
    used = [b for b in shuffle_buckets if env.s3.request_counts[b]["put"] > 0]
    assert len(used) == 4


def test_predicate_applied_before_partitioning(env, dataset, coordinator, lineitem_table):
    result, _ = coordinator.execute(
        dataset.paths,
        group_by=["l_linestatus"],
        aggregates=[AggregateSpec("count", None, "n")],
        predicate=col("l_quantity") < 10,
        order_by=["l_linestatus"],
    )
    mask = lineitem_table["l_quantity"] < 10
    statuses, counts = np.unique(lineitem_table["l_linestatus"][mask], return_counts=True)
    np.testing.assert_array_equal(result["l_linestatus"], statuses)
    np.testing.assert_allclose(result["n"], counts)


def test_combined_request_counts_at_32x32(env):
    """Acceptance bar: 32 mappers x 32 reducers issue <= 32 PUTs (was 1024)
    and at most 32*32 ranged GETs minus the elided empty slices."""
    from repro.workload.tpch import generate_lineitem_dataset

    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=0.002, num_files=32, row_group_rows=256, seed=11
    )
    coordinator = ShuffleAggregateCoordinator(env, memory_mib=2048)
    _, statistics = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "s")],
    )
    assert statistics.map_workers == 32
    assert statistics.reduce_workers == 32
    assert statistics.exchange.put_requests <= 32
    assert statistics.exchange.combined_put_requests == statistics.exchange.put_requests
    assert statistics.exchange.get_requests == statistics.exchange.ranged_get_requests
    assert (
        statistics.exchange.ranged_get_requests
        == 32 * 32 - statistics.exchange.empty_parts_elided
    )
    assert statistics.exchange.head_requests == 0


def test_empty_partitions_elided_end_to_end(env, lineitem_table):
    """With fewer groups than reducers, empty slices cost zero requests."""
    from repro.workload.tpch import generate_lineitem_dataset

    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=0.001, num_files=8, row_group_rows=256, seed=3
    )
    for write_combining in (True, False):
        coordinator = ShuffleAggregateCoordinator(
            env, config=ShuffleConfig(write_combining=write_combining)
        )
        result, statistics = coordinator.execute(
            dataset.paths,
            # Three distinct l_returnflag values over 8 reducers: most
            # mapper×reducer pairs are empty.
            group_by=["l_returnflag"],
            aggregates=[AggregateSpec("count", None, "n")],
            order_by=["l_returnflag"],
        )
        assert statistics.exchange.empty_parts_elided > 0
        pairs = statistics.map_workers * statistics.reduce_workers
        assert statistics.exchange.get_requests < pairs
        if write_combining:
            assert statistics.exchange.put_requests == statistics.map_workers
        else:
            assert statistics.exchange.put_requests < pairs
        assert result["n"].sum() == len(lineitem_table["l_returnflag"])


class _AlternatingCoordinator(ShuffleAggregateCoordinator):
    """Half the mappers write combined objects, half legacy objects."""

    def _map_mode(self, worker_id: int) -> bool:
        return worker_id % 2 == 0


def test_mixed_format_map_wave(env, dataset, lineitem_table):
    """Combined and legacy senders interoperate inside one query."""
    coordinator = _AlternatingCoordinator(env, num_buckets=4)
    result, statistics = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "total_qty")],
        order_by=["l_orderkey"],
    )
    assert statistics.exchange.combined_put_requests == statistics.map_workers // 2
    assert statistics.exchange.ranged_get_requests > 0
    reference = _reference_group_sum(lineitem_table, "l_orderkey", "l_quantity")
    assert statistics.result_rows == len(reference)
    result_map = dict(zip(result["l_orderkey"].tolist(), result["total_qty"].tolist()))
    for key, expected in list(reference.items())[::29]:
        assert result_map[key] == pytest.approx(expected)


def test_combined_falls_back_when_offsets_overflow_key(
    env, dataset, lineitem_table, monkeypatch
):
    """A fleet too wide for the encoded-key offset directory degrades to the
    legacy per-receiver format per mapper instead of failing the query."""
    import repro.exchange.naming as naming_module

    monkeypatch.setattr(naming_module, "S3_MAX_KEY_LENGTH", 40)
    coordinator = ShuffleAggregateCoordinator(env, num_buckets=4)
    result, statistics = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "total_qty")],
        order_by=["l_orderkey"],
    )
    assert statistics.exchange.combined_put_requests == 0
    assert statistics.exchange.put_requests > statistics.map_workers
    reference = _reference_group_sum(lineitem_table, "l_orderkey", "l_quantity")
    assert statistics.result_rows == len(reference)
    result_map = dict(zip(result["l_orderkey"].tolist(), result["total_qty"].tolist()))
    for key, expected in list(reference.items())[::41]:
        assert result_map[key] == pytest.approx(expected)


def test_requires_group_by_and_inputs(env, dataset, coordinator):
    with pytest.raises(ExecutionError):
        coordinator.execute(dataset.paths, group_by=[], aggregates=[AggregateSpec("count", None, "n")])
    with pytest.raises(ExecutionError):
        coordinator.execute(["s3://tpch/none-*.lpq"], group_by=["g"],
                            aggregates=[AggregateSpec("count", None, "n")])


def test_glob_inputs_supported(env, dataset, coordinator, lineitem_table):
    result, _ = coordinator.execute(
        [dataset.glob],
        group_by=["l_linestatus"],
        aggregates=[AggregateSpec("count", None, "n")],
    )
    assert result["n"].sum() == pytest.approx(len(lineitem_table["l_linestatus"]))


# -- projection push-down of the facade ----------------------------------------------


@pytest.fixture
def chunk_reads(monkeypatch):
    """``(file, row group, column)`` of every column chunk the scans open."""
    from repro.formats.parquet import ColumnarFile

    reads = []
    read_encoded_chunk = ColumnarFile.read_encoded_chunk

    def counted(self, group, column):
        reads.append((self.name, group.index, column))
        return read_encoded_chunk(self, group, column)

    monkeypatch.setattr(ColumnarFile, "read_encoded_chunk", counted)
    return reads


def test_facade_scans_only_referenced_columns(env, dataset, coordinator, chunk_reads, lineitem_table):
    """``columns=None`` derives the projection: the parent decoded all 15 columns."""
    result, _ = coordinator.execute(
        dataset.paths,
        group_by=["l_suppkey"],
        aggregates=[
            AggregateSpec("sum", col("l_extendedprice") * (1 - col("l_discount")), "revenue"),
            AggregateSpec("avg", col("l_discount"), "avg_disc"),
            AggregateSpec("count", None, "n"),
        ],
        # Keeps some row of every row group; l_quantity appears nowhere else.
        predicate=col("l_quantity") < 25,
    )
    mask = lineitem_table["l_quantity"] < 25
    assert result["n"].sum() == pytest.approx(mask.sum())

    referenced = {"l_suppkey", "l_extendedprice", "l_discount", "l_quantity"}
    assert {column for _, _, column in chunk_reads} == referenced
    row_groups = {(path, group) for path, group, _ in chunk_reads}
    assert len(row_groups) == 4 * 3  # 4 files of 1500 rows in row groups of 512
    assert len(chunk_reads) == len(row_groups) * len(referenced)


def test_facade_honours_an_explicit_projection(env, dataset, coordinator, chunk_reads):
    columns = ["l_linestatus", "l_quantity", "l_tax"]
    coordinator.execute(
        dataset.paths,
        group_by=["l_linestatus"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "q")],
        columns=columns,
    )
    assert {column for _, _, column in chunk_reads} == set(columns)
    assert len(chunk_reads) == 4 * 3 * len(columns)
