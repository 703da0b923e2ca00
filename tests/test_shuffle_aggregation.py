"""Tests for the shuffle-based (repartitioned) aggregation path."""

import numpy as np
import pytest

from repro.cloud.environment import CloudEnvironment
from repro.cloud.faults import FaultPlan, FaultRule
from repro.driver.breakers import BreakerBoard
from repro.driver.dispatch import QueryContext
from repro.driver.shuffle import (
    ShuffleAggregateCoordinator,
    exchange_fan_out,
    list_input_files,
    scan_fan_out,
)
from repro.engine.s3io import S3ObjectSource
from repro.errors import ExecutionError, SlowDownError
from repro.formats.parquet import ColumnarFile
from repro.frontend.sql import parse_sql
from repro.plan.expressions import col, lit
from repro.plan.logical import AggregateSpec
from repro.workload.queries import q1_sql, tpch_catalog
from repro.workload.tpch import generate_lineitem_dataset

from tests.conformance import assert_bit_identical
from tests.test_shuffle_parity import _assert_tables_identical, _driver_merge_reference


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
    driver_result = driver.execute(parse_sql(q1_sql(), tpch_catalog(lineitem=dataset.paths)))
    np.testing.assert_allclose(shuffle_result["sum_qty"], driver_result.column("sum_qty"), rtol=1e-9)
    np.testing.assert_allclose(shuffle_result["avg_disc"], driver_result.column("avg_disc"), rtol=1e-9)


def test_partition_objects_follow_expected_counts(env, dataset, coordinator):
    _, statistics = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "s")],
    )
    # Each of the W map workers writes exactly one combined object and
    # announces its path and offset directory through the map barrier, so
    # the reduce wave reads at most one non-empty slice per
    # sender×receiver pair off the driver-built manifest with zero discovery
    # requests.
    W = statistics.map_fleets["L"]
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


def test_partition_files_spread_over_buckets(env, dataset, coordinator):
    coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "s")],
        num_workers=len(dataset.paths),
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
    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=0.002, num_files=32, row_group_rows=256, seed=11
    )
    coordinator = ShuffleAggregateCoordinator(env, memory_mib=2048)
    _, statistics = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "s")],
        num_workers=32,
    )
    assert statistics.map_fleets["L"] == 32
    assert statistics.exchange_partitions == 32
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
    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=0.001, num_files=8, row_group_rows=256, seed=3
    )
    result, statistics = ShuffleAggregateCoordinator(env).execute(
        dataset.paths,
        # Three distinct l_returnflag values over 8 reducers: most
        # mapper×reducer pairs are empty.
        group_by=["l_returnflag"],
        aggregates=[AggregateSpec("count", None, "n")],
        order_by=["l_returnflag"],
        num_workers=len(dataset.paths),
    )
    assert statistics.exchange.empty_parts_elided > 0
    pairs = statistics.map_fleets["L"] * statistics.exchange_partitions
    assert statistics.exchange.get_requests < pairs
    assert statistics.exchange.put_requests == statistics.map_fleets["L"]
    assert result["n"].sum() == len(lineitem_table["l_returnflag"])


def test_shuffle_runs_under_a_40_byte_key_limit(
    env, dataset, lineitem_table, monkeypatch
):
    """The offset directory rides in the announcement, not in the key, so the
    whole shuffle runs under a store whose key limit no directory would fit
    under: still one combined PUT per mapper."""
    import repro.cloud.s3 as s3_module

    monkeypatch.setattr(s3_module, "S3_MAX_KEY_LENGTH", 40)
    coordinator = ShuffleAggregateCoordinator(env, num_buckets=4)
    result, statistics = coordinator.execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=[AggregateSpec("sum", col("l_quantity"), "total_qty")],
        order_by=["l_orderkey"],
    )
    assert statistics.exchange.combined_put_requests == statistics.map_fleets["L"]
    assert statistics.exchange.put_requests == statistics.map_fleets["L"]
    assert statistics.exchange.list_requests == 0
    reference = _reference_group_sum(lineitem_table, "l_orderkey", "l_quantity")
    assert statistics.result_rows == len(reference)
    result_map = dict(zip(result["l_orderkey"].tolist(), result["total_qty"].tolist()))
    for key, expected in list(reference.items())[::41]:
        assert result_map[key] == pytest.approx(expected)


# -- a wide fleet stays one object per mapper ------------------------------------------

WIDE_FILES = 96
WIDE_AGGREGATES = [
    AggregateSpec("sum", col("l_quantity"), "total_qty"),
    AggregateSpec("count", None, "n"),
]


@pytest.fixture(scope="module")
def wide_fleet():
    """LINEITEM SF 0.01 in 96 files, and each file's rows: an offset
    directory of 97 entries plus 96 crcs, far more than an S3 key holds."""
    env = CloudEnvironment.create(region="eu")
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.01, num_files=WIDE_FILES)
    files = [
        ColumnarFile.from_bytes(env.s3.get_path(path).data).read_table(
            ["l_orderkey", "l_quantity"]
        )
        for path in dataset.paths
    ]
    return env, dataset, files


def _wide_group_by(env, dataset, context=None):
    return ShuffleAggregateCoordinator(env).execute(
        dataset.paths,
        group_by=["l_orderkey"],
        aggregates=WIDE_AGGREGATES,
        order_by=["l_orderkey"],
        num_workers=WIDE_FILES,
        context=context,
    )


def test_a_wide_fleet_writes_one_object_per_mapper(wide_fleet):
    """96 receivers cost 96 PUTs and no LIST: the directory travels in the
    announcement, so no fleet width pushes a mapper to one object per
    receiver (when it travelled in the key, this run issued 9 202 PUTs and
    96 LISTs, modelled 3.34 s and cost $0.061)."""
    env, dataset, files = wide_fleet
    result, statistics = _wide_group_by(env, dataset)
    exchange = statistics.exchange
    assert statistics.map_fleets["L"] == statistics.exchange_partitions == WIDE_FILES
    assert exchange.put_requests == exchange.combined_put_requests == WIDE_FILES
    assert exchange.list_requests == exchange.head_requests == 0
    assert statistics.latency_seconds <= 0.5
    # What is left is the exchange itself: 96 × 96 ranged GETs, less the
    # empty slices, are $0.0037 of the $0.0058.
    assert statistics.cost_total <= 0.006
    reference = _driver_merge_reference(files, ["l_orderkey"], WIDE_AGGREGATES)
    _assert_tables_identical(result, reference, "wide fleet", strict_dtypes=False)


def test_a_mapper_retried_in_an_s3_brownout_still_writes_one_object(wide_fleet):
    """With the S3 breaker open, a mapper whose first attempt crashed after
    its PUT writes its one combined object again under its fresh attempt
    prefix — not one object per receiver, which would multiply its PUTs by
    P exactly while S3 throttles."""
    env, dataset, _ = wide_fleet
    clean, _ = _wide_group_by(env, dataset)
    board = BreakerBoard(failure_threshold=1)
    board.record_failure(SlowDownError("brownout"), 0.0)
    assert board.open_services() == ["s3"]
    objects_before = env.s3.object_count()
    puts_before = env.ledger.total("s3", "put_requests")
    env.install_fault_plan(
        FaultPlan(
            [FaultRule("s3", "crash_after_put", 1.0, match="L/sender-0", max_count=1)],
            seed=1,
        )
    )
    try:
        result, statistics = _wide_group_by(
            env, dataset, context=QueryContext(env, breakers=board)
        )
    finally:
        env.install_fault_plan(None)

    assert_bit_identical(clean, result, "brownout retry")
    resilience = statistics.resilience
    assert resilience.faults_injected == {"s3.crash_after_put": 1}
    assert resilience.retries >= 1
    assert resilience.fallbacks == {}
    exchange = statistics.exchange
    assert exchange.put_requests == exchange.combined_put_requests == WIDE_FILES
    # Every accepted attempt wrote one object; the crashed attempt one more.
    assert env.ledger.total("s3", "put_requests") - puts_before == WIDE_FILES + 1
    # ... which the post-fault sweep removed.
    assert env.s3.object_count() == objects_before


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
    # Every page is read but those whose row group's min == max answers them.
    constant = sum(
        int(ColumnarFile(S3ObjectSource(env.s3, path)).metadata.constant_groups(columns).sum())
        for path in dataset.paths
    )
    assert constant > 0
    assert {column for _, _, column in chunk_reads} == set(columns)
    assert len(chunk_reads) == 4 * 3 * len(columns) - constant


# -- fleets priced from the listed bytes ------------------------------------------------


def _priced_fleets(env, stored_bytes, files):
    """What the DAG's own rules start for ``stored_bytes`` in ``files`` files."""
    return (
        scan_fan_out(env.bandwidth, 2048, stored_bytes, files, region=env.region),
        exchange_fan_out(env.bandwidth, 2048, stored_bytes, [files]),
    )


@pytest.mark.parametrize(
    "scale_factor, num_files, fleets",
    [
        (0.001, 4, (1, 1)),  # 93 KB: below one mapper's break-even bytes
        (0.015, 4, (2, 1)),  # 1.28 MB: two mappers' worth, far below a second reducer's
        (0.02, 2, (2, 1)),  # 1.71 MB: three mappers' worth, capped at the two files
    ],
)
def test_facade_fleets_are_priced_from_listed_bytes(env, scale_factor, num_files, fleets):
    dataset = generate_lineitem_dataset(
        env.s3, scale_factor=scale_factor, num_files=num_files, seed=7
    )
    lists_before = env.ledger.total("s3", "list_requests")
    result, statistics = ShuffleAggregateCoordinator(env).execute(
        dataset.paths,
        group_by=["l_linestatus"],
        aggregates=[AggregateSpec("count", None, "n")],
    )
    # One directory, one LIST.
    assert env.ledger.total("s3", "list_requests") - lists_before == 1
    assert (statistics.map_fleets["L"], statistics.exchange_partitions) == fleets
    assert fleets == _priced_fleets(env, dataset.total_bytes, num_files)
    assert result["n"].sum() == dataset.total_rows


def test_a_glob_input_is_sized_by_its_own_list(env):
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.015, num_files=4, seed=7)
    lists_before = env.ledger.total("s3", "list_requests")
    _, statistics = ShuffleAggregateCoordinator(env).execute(
        [dataset.glob],
        group_by=["l_linestatus"],
        aggregates=[AggregateSpec("count", None, "n")],
    )
    assert env.ledger.total("s3", "list_requests") - lists_before == 1
    assert (statistics.map_fleets["L"], statistics.exchange_partitions) == _priced_fleets(
        env, dataset.total_bytes, 4
    ) == (2, 1)


def test_list_input_files_lists_each_directory_once(env):
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.001, num_files=4, seed=7)
    other = generate_lineitem_dataset(
        env.s3, scale_factor=0.001, num_files=2, seed=8, prefix="copy"
    )
    lists = env.ledger.total("s3", "list_requests")
    files, stored = list_input_files(
        env.s3, [dataset.glob] + other.paths + ["s3://nowhere/x.lpq"]
    )
    assert files == dataset.paths + other.paths + ["s3://nowhere/x.lpq"]
    # The glob's LIST sized its files; the copies' directory took one more,
    # and a missing bucket lists nothing.
    assert stored == dataset.total_bytes + other.total_bytes
    assert env.ledger.total("s3", "list_requests") - lists == 2


@pytest.mark.parametrize("num_workers, fleets", [(None, (2, 1)), (5, (5, 5)), (20, (8, 8))])
def test_an_explicit_num_workers_sets_both_fleets(env, num_workers, fleets):
    """Priced from bytes unless told: then ``min(num_workers, files)`` both."""
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.015, num_files=8, seed=7)
    _, statistics = ShuffleAggregateCoordinator(env).execute(
        dataset.paths,
        group_by=["l_linestatus"],
        aggregates=[AggregateSpec("count", None, "n")],
        num_workers=num_workers,
    )
    assert (statistics.map_fleets["L"], statistics.exchange_partitions) == fleets


def test_an_injected_list_fault_is_retried(env, dataset, coordinator):
    aggregates = [AggregateSpec("sum", col("l_quantity"), "q")]
    clean, _ = coordinator.execute(dataset.paths, group_by=["l_orderkey"], aggregates=aggregates)
    lists_before = env.ledger.total("s3", "list_requests")
    env.install_fault_plan(
        FaultPlan([FaultRule("s3", "slowdown", 1.0, operation="list", max_count=1)], seed=1)
    )
    try:
        result, statistics = coordinator.execute(
            dataset.paths, group_by=["l_orderkey"], aggregates=aggregates
        )
    finally:
        env.install_fault_plan(None)
    assert_bit_identical(clean, result, "list fault")
    assert statistics.resilience.faults_injected == {"s3.slowdown": 1}
    assert statistics.resilience.retries == 1
    assert statistics.resilience.backoff_seconds > 0.0
    # The throttled LIST was never metered; its retry was.
    assert env.ledger.total("s3", "list_requests") - lists_before == 1
