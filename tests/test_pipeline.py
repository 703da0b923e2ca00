"""Tests for worker-plan pipeline execution."""

import numpy as np
import pytest

from repro.cloud.s3 import ObjectStore
from repro.engine.pipeline import WorkerResult, execute_worker_plan
from repro.engine.payload import decode_table
from repro.formats.parquet import write_table
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.plan.physical import PruneRange, WorkerPlan, register_udf


@pytest.fixture
def store():
    store = ObjectStore()
    store.create_bucket("data")
    n = 2000
    table = {
        "k": (np.arange(n) % 4).astype(np.int64),
        "x": np.arange(n, dtype=np.float64),
        "y": np.ones(n, dtype=np.float64) * 2,
    }
    store.put_object("data", "f.lpq", write_table(table, row_group_rows=500))
    return store


def test_aggregate_plan(store):
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["k", "x"],
        group_by=["k"],
        aggregates=[AggregateSpec("sum", col("x"), "s"), AggregateSpec("count", None, "n")],
    )
    result = execute_worker_plan(plan, store)
    partial = decode_table(result.partial)
    assert result.rows_scanned == 2000
    assert result.rows_output == 4
    assert partial["n"].sum() == pytest.approx(2000)
    assert partial["s"].sum() == pytest.approx(np.arange(2000).sum())


def test_filter_expression_plan(store):
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["x"],
        predicate=col("x") < 100,
        aggregates=[AggregateSpec("count", None, "n")],
    )
    result = execute_worker_plan(plan, store)
    partial = decode_table(result.partial)
    assert partial["n"][0] == pytest.approx(100)
    assert result.rows_after_filter == 100


def test_prune_ranges_reduce_scanned_rows(store):
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["x"],
        predicate=col("x") < 100,
        prune_ranges=[PruneRange("x", -1e18, 100)],
        aggregates=[AggregateSpec("count", None, "n")],
    )
    result = execute_worker_plan(plan, store)
    assert result.row_groups_pruned == 3
    assert result.rows_scanned == 500
    partial = decode_table(result.partial)
    assert partial["n"][0] == pytest.approx(100)


def test_map_expression_plan(store):
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["x", "y"],
        map_outputs=[("product", col("x") * col("y"))],
        aggregates=[AggregateSpec("sum", col("product"), "total")],
    )
    result = execute_worker_plan(plan, store)
    partial = decode_table(result.partial)
    assert partial["total"][0] == pytest.approx(2 * np.arange(2000).sum())


def test_collect_rows_plan(store):
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["x"],
        predicate=col("x") < 5,
    )
    result = execute_worker_plan(plan, store)
    rows = decode_table(result.partial)
    np.testing.assert_array_equal(np.sort(rows["x"]), [0, 1, 2, 3, 4])
    assert result.rows_output == 5


def test_filter_udf_plan(store):
    ref = register_udf(lambda row: row[1] < 10)  # row = (k, x, y); x is index 1
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["k", "x", "y"],
        predicate_udf=ref,
        aggregates=[AggregateSpec("count", None, "n")],
    )
    result = execute_worker_plan(plan, store)
    partial = decode_table(result.partial)
    assert partial["n"][0] == pytest.approx(10)


def test_map_udf_and_reduce(store):
    map_ref = register_udf(lambda row: row[0] * row[1])  # x * y over columns [x, y]
    reduce_ref = register_udf(lambda a, b: a + b)
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["x", "y"],
        map_udf=map_ref,
        reduce_udf=reduce_ref,
    )
    result = execute_worker_plan(plan, store)
    assert result.reduce_value == pytest.approx(2 * np.arange(2000).sum())
    assert result.rows_output == 1


def test_reduce_over_expression_map(store):
    reduce_ref = register_udf(lambda a, b: max(a, b))
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["x"],
        map_outputs=[("value", col("x") * 1)],
        reduce_udf=reduce_ref,
    )
    result = execute_worker_plan(plan, store)
    assert result.reduce_value == pytest.approx(1999.0)


def test_empty_result_when_everything_pruned(store):
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["x"],
        prune_ranges=[PruneRange("x", 1e9, 2e9)],
        aggregates=[AggregateSpec("sum", col("x"), "s")],
    )
    result = execute_worker_plan(plan, store)
    assert result.rows_scanned == 0
    assert result.rows_output == 0
    assert result.duration_seconds > 0  # metadata still read


def test_statistics_populated(store):
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["x"],
        aggregates=[AggregateSpec("sum", col("x"), "s")],
    )
    result = execute_worker_plan(plan, store)
    assert result.get_requests > 0
    assert result.bytes_read > 0
    assert result.duration_seconds > 0
    assert result.metadata_seconds > 0
    assert result.compute_seconds > 0


def test_worker_result_payload_roundtrip(store):
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["x"],
        aggregates=[AggregateSpec("sum", col("x"), "s")],
    )
    result = execute_worker_plan(plan, store)
    header = result.to_payload()
    assert "partial" not in header  # the frame travels beside the header
    restored = WorkerResult.from_payload(header, result.partial)
    assert restored == result


def test_more_memory_is_faster(store):
    plan = WorkerPlan(
        files=["s3://data/f.lpq"],
        columns=["x"],
        aggregates=[AggregateSpec("sum", col("x"), "s")],
    )
    slow = execute_worker_plan(plan, store, memory_mib=512)
    fast = execute_worker_plan(plan, store, memory_mib=1792)
    assert fast.compute_seconds < slow.compute_seconds
