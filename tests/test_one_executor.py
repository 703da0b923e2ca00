"""One executor: a scan query is the exchange-free one-wave DAG.

Every query lowers to one plan class (a :class:`DagPhysicalPlan`; a scan is
the one without stages or exchange), every scan fleet runs the one scan
handler (``make_worker_handler``) and every query runs the coordinator's one
wave body.  What the two bodies used to disagree on is pinned here: a scan's
spilled results are deleted like a DAG's final wave's, and a DAG's mappers
count everything a scan worker counts.
"""

import operator

import numpy as np
import pytest

import repro
from repro.cloud.environment import CloudEnvironment
from repro.driver.driver import LambadaDriver
from repro.driver.integrity import RESULT_BUCKET
from repro.engine.s3io import S3ObjectSource
from repro.formats.parquet import ColumnarFile
from repro.frontend.dataframe import LambadaSession
from repro.frontend.sql import parse_sql
from repro.plan.expressions import col
from repro.plan.optimizer import optimize
from repro.plan.physical import DagPhysicalPlan
from repro.workload import queries as q
from repro.workload.tpch import (
    LineitemGenerator,
    generate_lineitem_dataset,
    generate_orders_dataset,
)

from tests.conftest import query_leftovers
from tests.test_mode_parity import assert_bit_identical

ROWS_SQL = "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem"


@pytest.fixture(scope="module")
def stack():
    """SF 0.01 on two LINEITEM files, whose row results spill, and ORDERS."""
    env = CloudEnvironment.create()
    lineitem = generate_lineitem_dataset(env.s3, scale_factor=0.01, num_files=2, seed=7)
    orders = generate_orders_dataset(env.s3, scale_factor=0.01, num_files=2, seed=7)
    return env, lineitem, orders


def _row_groups(env, paths):
    return sum(len(ColumnarFile(S3ObjectSource(env.s3, path)).row_groups) for path in paths)


def test_a_scan_is_the_plan_without_stages_or_exchange(stack):
    _, lineitem, _ = stack
    physical, _ = optimize(parse_sql(q.q6_sql(), q.tpch_catalog(lineitem=lineitem.paths)))
    assert isinstance(physical, DagPhysicalPlan)
    assert physical.stages == [] and not physical.has_exchange
    assert physical.base.key is None and physical.base.partition_keys == []
    ((wave),) = physical.waves()
    assert wave["kind"] == "scan"
    assert [(fleet["tag"], fleet["files"], fleet["mappers"]) for fleet in wave["fleets"]] == [
        ("L", 2, 2)
    ]
    assert physical.estimated_exchange_bytes == 0
    assert physical.explain().splitlines()[:2] == [
        "DagPhysicalPlan (scan, no exchange)",
        "wave 0: scan 2 file(s), cols=['l_discount', 'l_extendedprice']",
    ]


def test_a_spilling_scan_leaves_no_object_and_counts_its_spills(stack):
    env, lineitem, _ = stack
    driver = LambadaDriver(env)
    result = driver.execute(parse_sql(ROWS_SQL, q.tpch_catalog(lineitem=lineitem.paths)))
    statistics = result.statistics
    assert result.num_rows == len(LineitemGenerator(0.01, seed=7).generate()["l_orderkey"])
    # Both workers' row results are larger than a queue message.
    assert statistics.results_spilled == statistics.num_workers == 2
    assert statistics.gc_objects_deleted == 2
    query_id = statistics._trace.attrs["query_id"]
    assert query_leftovers(env, query_id) == []
    assert [meta.key for meta in env.s3.list_objects(RESULT_BUCKET)] == []
    assert statistics.dag_stages == 0 and statistics.map_fleets == {"L": 2}
    assert statistics.wave_stages == [] and statistics.exchange_partitions == 0


def test_a_dag_record_carries_every_scan_counter_of_its_mappers(stack):
    env, lineitem, orders = stack
    with repro.connect(env) as session:
        session.register(lineitem).register(orders)
        result = session.sql(q.q3_sql())
    statistics = result.statistics
    mappers = result.worker_results[: sum(statistics.map_fleets.values())]
    for name in ("row_groups_total", "row_groups_pruned", "rows_decode_saved"):
        assert statistics._counters["scan", name] == sum(
            worker.counters["scan", name] for worker in mappers
        ), name
    # Every footer the mappers opened counts its row groups, and Q3's ship-
    # and order-date predicates prune some of them and decode fewer rows.
    assert statistics._counters["scan", "row_groups_total"] == _row_groups(
        env, lineitem.paths + orders.paths
    )
    assert statistics._counters["scan", "row_groups_pruned"] > 0
    assert statistics.rows_decode_saved > 0


def _listing1(session, paths):
    # Column order in the file is the LINEITEM schema order; l_extendedprice
    # is index 5 and l_discount index 6.
    return (
        session.from_parquet(paths)
        .filter(lambda x: x[6] >= 0.05)
        .map(lambda x: x[5] * x[6])
        .reduce(lambda a, b: a + b)
        .collect()
    )


def _builtin_reduce(session, paths):
    return (
        session.from_parquet(paths)
        .filter(col("l_discount") >= 0.05)
        .map({"value": col("l_extendedprice") * col("l_discount")})
        .reduce(operator.add)
        .collect()
    )


@pytest.mark.parametrize("flow", [_listing1, _builtin_reduce])
def test_a_dataflow_with_udfs_answers_alike_in_serial_and_processes(stack, flow):
    env, lineitem, _ = stack
    table = LineitemGenerator(0.01, seed=7).generate()
    mask = table["l_discount"] >= 0.05
    expected = float(np.sum(table["l_extendedprice"][mask] * table["l_discount"][mask]))
    values = {}
    for mode in ("serial", "processes"):
        driver = LambadaDriver(env, execution_mode=mode, max_parallel_invocations=2)
        try:
            result = flow(LambadaSession(driver), lineitem.paths)
        finally:
            driver.close()
        assert result.table == {}
        assert result.statistics.dag_stages == 0
        values[mode] = result.reduce_value
    assert values["serial"] == values["processes"]
    assert values["serial"] == pytest.approx(expected, rel=1e-9)


def test_a_scan_answers_alike_through_the_driver_and_the_coordinator(stack):
    """The driver runs a scan's one wave on its own function and transport;
    the coordinator alone runs it flat on its map function — one body,
    same answer, same counters."""
    env, lineitem, _ = stack
    physical, _ = optimize(parse_sql(q.q1_sql(), q.tpch_catalog(lineitem=lineitem.paths)))
    driver = LambadaDriver(env)
    through_driver = driver.execute(physical)
    coordinator = driver._join_coordinator
    table, statistics, _ = coordinator.execute(physical)
    assert_bit_identical(through_driver.table, table, "q1")
    assert statistics.rows_scanned == through_driver.statistics.rows_scanned
    assert statistics.num_workers == through_driver.statistics.num_workers == 2


def test_a_cold_join_can_be_a_drivers_first_query(stack):
    """The cold reset names the join functions, which the driver deploys
    with its coordinator before resetting them."""
    env, lineitem, orders = stack
    plan = parse_sql(q.q3_sql(), q.tpch_catalog(lineitem=lineitem.paths, orders=orders.paths))
    cold = LambadaDriver(env).execute(plan, cold=True)
    warm = LambadaDriver(env).execute(plan)
    assert_bit_identical(warm.table, cold.table, "q3")
    assert cold.statistics.cold and not warm.statistics.cold
