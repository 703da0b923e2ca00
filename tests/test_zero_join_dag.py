"""A repartitioned aggregation is a zero-join DAG on the join coordinator.

``ShuffleAggregateCoordinator.execute`` is a facade: it lowers the group-by to
a zero-stage :class:`~repro.plan.physical.DagPhysicalPlan` and runs it on
:class:`~repro.driver.shuffle.ShuffleJoinCoordinator`'s waves and handlers.
Two things are pinned here:

* the facade and a hand-built zero-stage plan run straight through the join
  coordinator give bit-identical tables and equal exchange counters, on both
  write planes and with/without frame compression;
* the ``groupby_shuffle`` benchmark workload's two queries return exactly what
  they returned — and cost exactly the requests and modelled seconds they
  cost — on the commit before the two coordinators were unified.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cloud.environment import CloudEnvironment
from repro.driver.shuffle import (
    ShuffleAggregateCoordinator,
    ShuffleConfig,
    ShuffleJoinCoordinator,
)
from repro.formats.compression import Compression
from repro.plan.expressions import col, lit
from repro.plan.logical import AggregateSpec
from repro.plan.optimizer import _decompose_aggregates
from repro.plan.physical import DagPhysicalPlan, DriverPlan, JoinSidePlan
from repro.workload.tpch import generate_lineitem_dataset

from tests.test_mode_parity import assert_bit_identical

GROUP_BY = ["l_suppkey", "l_linestatus"]
AGGREGATES = [
    AggregateSpec("sum", col("l_extendedprice") * (1 - col("l_discount")), "revenue"),
    AggregateSpec("avg", col("l_quantity"), "avg_qty"),
    AggregateSpec("max", col("l_shipdate"), "last_ship"),
    AggregateSpec("count", None, "items"),
]
PREDICATE = col("l_shipdate") <= lit(10_471)


def _zero_stage_plan(paths) -> DagPhysicalPlan:
    """The plan the facade lowers (GROUP_BY, AGGREGATES, PREDICATE) to,
    written out by hand."""
    partials, finals = _decompose_aggregates(list(AGGREGATES))
    return DagPhysicalPlan(
        base=JoinSidePlan(
            files=list(paths),
            key=GROUP_BY[0],
            predicate=PREDICATE,
            group_by=list(GROUP_BY),
            aggregates=partials,
        ),
        stages=[],
        driver=DriverPlan(
            group_by=list(GROUP_BY), final_aggregates=finals, order_by=list(GROUP_BY)
        ),
        group_by=list(GROUP_BY),
        aggregates=[
            AggregateSpec(
                "sum" if spec.function == "count" else spec.function,
                col(spec.alias),
                spec.alias,
            )
            for spec in partials
        ],
    )


@pytest.mark.parametrize("compression", [Compression.NONE, Compression.FAST])
@pytest.mark.parametrize("write_combining", [True, False])
def test_facade_equals_hand_built_zero_stage_dag(env, dataset, write_combining, compression):
    config = ShuffleConfig(write_combining=write_combining, compression=compression)
    facade_table, facade_statistics = ShuffleAggregateCoordinator(
        env, num_buckets=4, config=config
    ).execute(
        dataset.paths, GROUP_BY, AGGREGATES, predicate=PREDICATE, order_by=GROUP_BY
    )
    dag_table, dag_statistics, worker_results = ShuffleJoinCoordinator(
        env, num_buckets=4, config=config
    ).execute(_zero_stage_plan(dataset.paths))

    assert_bit_identical(dag_table, facade_table, "facade vs zero-stage dag")
    assert facade_statistics.exchange == dag_statistics.exchange
    assert facade_statistics.exchange.put_requests > 0
    assert (facade_statistics.exchange.combined_put_requests > 0) == write_combining
    assert facade_statistics.map_workers == dag_statistics.left_map_workers == 4
    assert facade_statistics.reduce_workers == dag_statistics.reduce_workers == 4
    assert facade_statistics.rows_scanned == dag_statistics.rows_scanned
    # One wave that joins nothing, and nothing but the scan fleet before it.
    assert dag_statistics.dag_stages == 0 and dag_statistics.wave_stages == [[]]
    assert dag_statistics.right_map_workers == 0
    assert dag_statistics.broadcast_stages == 0
    assert len(worker_results) == 8
    assert facade_statistics.cost_total > 0.0
    assert env.s3.object_count() == len(dataset.paths)


def test_zero_stage_dag_runs_through_the_driver(env, dataset, driver):
    """The driver dispatches on the plan protocol, so a zero-stage DAG is
    executable like any join plan and reports the same statistics shape."""
    result = driver.execute(_zero_stage_plan(dataset.paths))
    facade_table, _ = ShuffleAggregateCoordinator(env).execute(
        dataset.paths, GROUP_BY, AGGREGATES, predicate=PREDICATE, order_by=GROUP_BY
    )
    assert_bit_identical(facade_table, result.table, "driver vs facade")
    assert result.statistics.dag_stages == 0
    assert result.statistics.join_waves == 1
    assert result.statistics.broadcast_stages == 0
    assert "wave 1 = merge partials" in result.explain()


# ---------------------------------------------------------------------------
# Golden numbers of the groupby_shuffle benchmark workload
# ---------------------------------------------------------------------------

BENCH_AGGREGATES = [
    AggregateSpec("sum", col("l_extendedprice") * (1 - col("l_discount")), "revenue"),
    AggregateSpec("count", None, "items"),
]

#: Recorded at e3f4404 (the parent of the unification; seed 7, SF 0.015,
#: 8 files, ``num_buckets=8``) through the old aggregate-only wave loop; both
#: queries scan with one GET per file.  Re-pinned once since: ``l_orderkey``'s
#: S3 ledger deltas were 80 GETs / 16 PUTs while its eight reduce results
#: (229 KB each as base64-in-JSON) spilled; as one typed frame each is a
#: ≈ 105 KB message and stays on the queue, so the 8 spill PUTs and 8 spill
#: GETs are gone.  Every other number is the one recorded then.
GOLDEN = {
    "l_orderkey": {
        "sha256": "70e798cc8126d81125a3d9050c60b5f9e46af0d68613069bde1ac58d0fe61e21",
        "rows": 57040,
        "put_requests": 8,
        "get_requests": 64,
        "bytes_written": 936949,
        "modelled_map_seconds": 0.06197272394882968,
        "modelled_reduce_seconds": 0.14598671304363095,
        "ledger": {
            ("sqs", "requests"): 18,
            ("lambda", "invocations"): 16,
            ("s3", "get_requests"): 72,
            ("s3", "put_requests"): 8,
            ("s3", "list_requests"): 0,
        },
    },
    "l_suppkey": {
        "sha256": "423fdc8dc241e65f222b1006721f632c35c9cf925ee7ea9a9015a2b548c927b9",
        "rows": 151,
        "put_requests": 8,
        "get_requests": 64,
        "bytes_written": 20608,
        "modelled_map_seconds": 0.06197272394882968,
        "modelled_reduce_seconds": 0.14551460523910176,
        "ledger": {
            ("sqs", "requests"): 18,
            ("lambda", "invocations"): 16,
            ("s3", "get_requests"): 72,
            ("s3", "put_requests"): 8,
            ("s3", "list_requests"): 0,
        },
    },
}


def _table_sha256(table, key: str) -> str:
    """sha256 over names, dtypes and bytes of the columns, rows sorted by ``key``."""
    order = np.argsort(table[key], kind="stable")
    digest = hashlib.sha256()
    for name in sorted(table):
        column = np.ascontiguousarray(np.asarray(table[name])[order])
        digest.update(name.encode())
        digest.update(str(column.dtype).encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def test_groupby_shuffle_workload_matches_pre_unification_golden_numbers():
    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.015, seed=7, num_files=8)
    coordinator = ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=8)
    for key, golden in GOLDEN.items():
        before = {dimension: env.ledger.total(*dimension) for dimension in golden["ledger"]}
        objects = env.s3.object_count()
        billed = env.total_cost()
        table, statistics = coordinator.execute(
            dataset.paths, group_by=[key], aggregates=list(BENCH_AGGREGATES), order_by=[key]
        )
        assert list(table) == [key, "revenue", "items"]
        assert len(table[key]) == golden["rows"]
        assert _table_sha256(table, key) == golden["sha256"], key
        exchange = statistics.exchange
        assert (
            exchange.put_requests, exchange.get_requests, exchange.bytes_written
        ) == (golden["put_requests"], golden["get_requests"], golden["bytes_written"])
        assert exchange.list_requests == exchange.head_requests == 0
        assert statistics.modelled_map_seconds == golden["modelled_map_seconds"]
        assert statistics.modelled_reduce_seconds == golden["modelled_reduce_seconds"]
        assert statistics.modelled_latency_seconds == (
            golden["modelled_map_seconds"] + golden["modelled_reduce_seconds"]
        )
        deltas = {
            dimension: env.ledger.total(*dimension) - before[dimension]
            for dimension in golden["ledger"]
        }
        assert deltas == golden["ledger"], key
        assert env.s3.object_count() == objects, f"{key}: exchange objects leaked"
        # The statistics' dollars are the ledger's (spilled results included).
        assert statistics.cost_total == pytest.approx(env.total_cost() - billed, rel=0.01)
        # The frozen benchmark harness sums these names with their
        # QueryStatistics twins via getattr(..., 0): present twice, they
        # would double-count.
        for name in ("latency_seconds", "num_workers", "invocation_seconds", "max_worker_seconds"):
            assert not hasattr(statistics, name)
