"""A repartitioned aggregation is a zero-join DAG on the join coordinator.

``ShuffleAggregateCoordinator.execute`` is a facade: it lowers the group-by to
a zero-stage :class:`~repro.plan.physical.DagPhysicalPlan` and runs it on
:class:`~repro.driver.shuffle.ShuffleJoinCoordinator`'s waves and handlers.
Two things are pinned here:

* the facade and a hand-built zero-stage plan run straight through the join
  coordinator give bit-identical tables and equal exchange counters, every
  slice verified against the crc its directory announces;
* the ``groupby_shuffle`` benchmark workload's two queries return exactly what
  they returned — and cost exactly the requests and modelled seconds they
  cost — on the commit before the two coordinators were unified, at that
  commit's eight mappers and eight reducers; and, at the fleets their stored
  bytes are priced at, the numbers recorded when the facade began pricing
  them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cloud.environment import CloudEnvironment
from repro.driver import spans
from repro.driver.shuffle import ShuffleAggregateCoordinator, ShuffleJoinCoordinator
from repro.plan.expressions import col, lit
from repro.plan.logical import AggregateSpec
from repro.plan.optimizer import _decompose_aggregates
from repro.plan.physical import DagPhysicalPlan, DriverPlan, WorkerPlan
from repro.workload.tpch import LineitemGenerator, generate_lineitem_dataset

from tests.conformance import assert_bit_identical

GROUP_BY = ["l_suppkey", "l_linestatus"]
AGGREGATES = [
    AggregateSpec("sum", col("l_extendedprice") * (1 - col("l_discount")), "revenue"),
    AggregateSpec("avg", col("l_quantity"), "avg_qty"),
    AggregateSpec("max", col("l_shipdate"), "last_ship"),
    AggregateSpec("count", None, "items"),
]
PREDICATE = col("l_shipdate") <= lit(10_471)


def _zero_stage_plan(dataset) -> DagPhysicalPlan:
    """The plan the facade lowers (GROUP_BY, AGGREGATES, PREDICATE) to,
    written out by hand — with the stored bytes the facade lists, so both
    start the same fleets."""
    partials, finals = _decompose_aggregates(list(AGGREGATES))
    return DagPhysicalPlan(
        base=WorkerPlan(
            files=list(dataset.paths),
            key=GROUP_BY[0],
            predicate=PREDICATE,
            group_by=list(GROUP_BY),
            aggregates=partials,
            input_bytes=dataset.total_bytes,
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


def test_facade_equals_hand_built_zero_stage_dag(env, dataset):
    facade_table, facade_statistics = ShuffleAggregateCoordinator(env, num_buckets=4).execute(
        dataset.paths, GROUP_BY, AGGREGATES, predicate=PREDICATE, order_by=GROUP_BY
    )
    dag_table, dag_statistics, worker_results = ShuffleJoinCoordinator(
        env, num_buckets=4
    ).execute(_zero_stage_plan(dataset))

    assert_bit_identical(dag_table, facade_table, "facade vs zero-stage dag")
    assert facade_statistics.exchange == dag_statistics.exchange
    # 93 KB in 4 files: below one mapper's break-even bytes.
    assert facade_statistics.exchange.put_requests == 1
    assert facade_statistics.exchange.combined_put_requests == 1
    assert facade_statistics.integrity.verified_bytes > 0
    assert facade_statistics.map_fleets == dag_statistics.map_fleets == {"L": 1}
    assert facade_statistics.num_workers == dag_statistics.num_workers == 2
    assert facade_statistics.rows_scanned == dag_statistics.rows_scanned
    # One wave that joins nothing, and nothing but the scan fleet before it.
    assert dag_statistics.dag_stages == 0 and dag_statistics.wave_stages == [[]]
    assert dag_statistics.broadcast_stages == 0
    assert len(worker_results) == 2
    assert facade_statistics.cost_total > 0.0
    assert env.s3.object_count() == len(dataset.paths)


def test_zero_stage_dag_runs_through_the_driver(env, dataset, driver):
    """The driver dispatches on the plan protocol, so a zero-stage DAG is
    executable like any join plan and reports the same statistics shape."""
    result = driver.execute(_zero_stage_plan(dataset))
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
#: queries scan with one GET per file.  Re-pinned three times since: ``l_orderkey``'s
#: S3 ledger deltas were 80 GETs / 16 PUTs while its eight reduce results
#: (229 KB each as base64-in-JSON) spilled; as one typed frame each is a
#: ≈ 105 KB message and stays on the queue, so the 8 spill PUTs and 8 spill
#: GETs are gone.  And the facade now sizes its input with one LIST, which
#: ``num_workers=8`` does not skip.  And the mappers' modelled seconds fell
#: (0.061973 -> 0.061938) when the files shrank and the scan stopped reading
#: the pages its row groups' statistics answer.  Every other number is the
#: one recorded then: eight mappers and eight reducers, the merge order these
#: tables pin.
GOLDEN = {
    "l_orderkey": {
        "sha256": "70e798cc8126d81125a3d9050c60b5f9e46af0d68613069bde1ac58d0fe61e21",
        "rows": 57040,
        "put_requests": 8,
        "get_requests": 64,
        "bytes_written": 936949,
        "map_seconds": 0.061938445845623975,
        "reduce_seconds": 0.14598671304363095,
        "ledger": {
            ("sqs", "requests"): 18,
            ("lambda", "invocations"): 16,
            ("s3", "get_requests"): 72,
            ("s3", "put_requests"): 8,
            ("s3", "list_requests"): 1,
        },
    },
    "l_suppkey": {
        "sha256": "423fdc8dc241e65f222b1006721f632c35c9cf925ee7ea9a9015a2b548c927b9",
        "rows": 151,
        "put_requests": 8,
        "get_requests": 64,
        "bytes_written": 20608,
        "map_seconds": 0.061938445845623975,
        "reduce_seconds": 0.14551460523910176,
        "ledger": {
            ("sqs", "requests"): 18,
            ("lambda", "invocations"): 16,
            ("s3", "get_requests"): 72,
            ("s3", "put_requests"): 8,
            ("s3", "list_requests"): 1,
        },
    },
}

#: The same workload at the fleets its 1 213 805 stored bytes are priced at:
#: two mappers (one breaks even at 830 938 bytes) and one reducer (a second
#: would pay off at 31.8 MB), so the one-partition exchange is 2 PUTs and
#: 2 GETs.  ``l_orderkey``'s one
#: result of 57 040 groups spills (1 PUT + 1 GET beside the exchange's).
PRICED_GOLDEN = {
    "l_orderkey": {
        "sha256": "2820a9d25e2f3265fcce0f1e6c1e1370d714bfc0ff6178b5ac29ed3b8e9d4e89",
        "rows": 57040,
        "put_requests": 2,
        "get_requests": 2,
        "bytes_written": 710934,
        "map_seconds": 0.0677360057707486,
        "reduce_seconds": 0.13491013482498798,
        "ledger": {
            ("sqs", "requests"): 5,
            ("lambda", "invocations"): 3,
            ("s3", "get_requests"): 11,
            ("s3", "put_requests"): 3,
            ("s3", "list_requests"): 1,
        },
    },
    "l_suppkey": {
        "sha256": "ae1b8a9dc84c8fb958ae0b7df3ab5782f6191b66c0fb69b4f48fd7e06f3193e7",
        "rows": 151,
        "put_requests": 2,
        "get_requests": 2,
        "bytes_written": 3192,
        "map_seconds": 0.0677360057707486,
        "reduce_seconds": 0.13201306612197666,
        "ledger": {
            ("sqs", "requests"): 5,
            ("lambda", "invocations"): 3,
            ("s3", "get_requests"): 10,
            ("s3", "put_requests"): 2,
            ("s3", "list_requests"): 1,
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


def _run_bench_workload(goldens, **options):
    """Run the ``groupby_shuffle`` queries and hold each to its golden numbers;
    returns the tables by key."""
    env = CloudEnvironment.create()
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.015, seed=7, num_files=8)
    coordinator = ShuffleAggregateCoordinator(env, memory_mib=2048, num_buckets=8)
    tables = {}
    for key, golden in goldens.items():
        before = {dimension: env.ledger.total(*dimension) for dimension in golden["ledger"]}
        objects = env.s3.object_count()
        billed = env.total_cost()
        table, statistics = coordinator.execute(
            dataset.paths, group_by=[key], aggregates=list(BENCH_AGGREGATES),
            order_by=[key], **options,
        )
        assert list(table) == [key, "revenue", "items"]
        assert len(table[key]) == golden["rows"]
        assert _table_sha256(table, key) == golden["sha256"], key
        exchange = statistics.exchange
        assert (
            exchange.put_requests, exchange.get_requests, exchange.bytes_written
        ) == (golden["put_requests"], golden["get_requests"], golden["bytes_written"])
        assert exchange.list_requests == exchange.head_requests == 0
        assert spans.map_seconds(statistics._trace) == golden["map_seconds"]
        assert spans.reduce_seconds(statistics._trace) == golden["reduce_seconds"]
        # The facade's latency is its run: the two barriered waves.
        assert statistics.latency_seconds == golden["map_seconds"] + golden["reduce_seconds"]
        assert statistics.max_worker_seconds == max(
            golden["map_seconds"], golden["reduce_seconds"]
        )
        deltas = {
            dimension: env.ledger.total(*dimension) - before[dimension]
            for dimension in golden["ledger"]
        }
        assert deltas == golden["ledger"], key
        assert env.s3.object_count() == objects, f"{key}: exchange objects leaked"
        # The statistics' dollars are the ledger's (spilled results and the
        # input LIST included).
        assert statistics.cost_total == pytest.approx(env.total_cost() - billed, rel=0.01)
        # The frozen benchmark harness sums the driver's names with the
        # retired run record's via getattr(..., 0): present on the one
        # record, they would double-count.
        for name in (
            "modelled_latency_seconds", "map_workers", "reduce_workers",
            "modelled_map_seconds", "modelled_reduce_seconds",
        ):
            assert not hasattr(statistics, name)
        tables[key] = table
    return tables


def test_groupby_shuffle_workload_matches_pre_unification_golden_numbers():
    _run_bench_workload(GOLDEN, num_workers=8)


def test_groupby_shuffle_workload_at_its_priced_fleets():
    """Left to price its fleets, the workload runs 2 mappers and 1 reducer
    per query, and its answers are the NumPy reference's."""
    tables = _run_bench_workload(PRICED_GOLDEN)
    lineitem = LineitemGenerator(scale_factor=0.015, seed=7).generate()
    revenue = lineitem["l_extendedprice"] * (1 - lineitem["l_discount"])
    for key, table in tables.items():
        keys, inverse = np.unique(lineitem[key], return_inverse=True)
        np.testing.assert_array_equal(table[key], keys)
        np.testing.assert_allclose(
            table["revenue"], np.bincount(inverse, weights=revenue), rtol=1e-9
        )
        np.testing.assert_array_equal(table["items"], np.bincount(inverse))
