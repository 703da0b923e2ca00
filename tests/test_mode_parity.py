"""Cross-mode parity fuzz: serial vs threads vs processes, bit-identical.

The ``processes`` execution plane must be invisible to query semantics: for
every query shape (Q1 grouped aggregation, Q6 reduce-to-scalar, Q3 join over
the shuffle plane) and every partition count, all three execution modes must
produce *bit-identical* result tables — same columns, same dtypes, same bytes.
The fused scan→filter→agg kernel is likewise checked against the classic
materialize-then-aggregate path at the worker-plan level.

The process pool is forced to size 2 via ``max_parallel_invocations`` so the
suite exercises real multi-process execution even on single-core CI runners.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import run_tpch_query, setup_functional_environment
from repro.driver.driver import LambadaDriver
from repro.engine.payload import decode_table
from repro.engine.pipeline import execute_worker_plan
from repro.frontend.sql import parse_sql
from repro.plan.optimizer import optimize
from repro.workload.queries import q1_sql, q3_sql, q6_sql, tpch_catalog
from repro.workload.tpch import generate_orders_dataset
from tests.conftest import leaked_segments


def assert_bit_identical(expected, actual, label=""):
    assert set(expected) == set(actual), (
        f"{label}: columns differ: {sorted(expected)} vs {sorted(actual)}"
    )
    for name in expected:
        left = np.asarray(expected[name])
        right = np.asarray(actual[name])
        assert left.dtype == right.dtype, f"{label}:{name}: dtype {left.dtype} vs {right.dtype}"
        assert np.array_equal(left, right, equal_nan=True), (
            f"{label}:{name}: values differ"
        )


@pytest.fixture(scope="module")
def stack():
    return setup_functional_environment(scale_factor=0.002, num_files=8)


@pytest.fixture(scope="module")
def orders(stack):
    env, _, _ = stack
    return generate_orders_dataset(
        env.s3, scale_factor=0.002, num_files=3, row_group_rows=512, seed=7
    )


@pytest.fixture(scope="module")
def threads_driver(stack):
    env, _, _ = stack
    return LambadaDriver(env, execution_mode="threads")


@pytest.fixture(scope="module")
def processes_driver(stack):
    env, _, _ = stack
    driver = LambadaDriver(
        env, execution_mode="processes", max_parallel_invocations=2
    )
    yield driver
    driver.close()


#: Scan counters every worker reports, summed over the fleet.
SUMMED_COUNTERS = (
    "rows_scanned", "bytes_read", "get_requests",
    "row_groups_shortcircuited", "rows_decode_saved", "column_chunks_skipped",
)


@pytest.mark.parametrize("num_workers", [1, 3, 8])
@pytest.mark.parametrize("query", ["q1", "q6"])
def test_scan_query_parity_across_modes(
    stack, threads_driver, processes_driver, query, num_workers
):
    _, dataset, serial_driver = stack
    serial = run_tpch_query(serial_driver, dataset, query, num_workers=num_workers)
    threaded = run_tpch_query(threads_driver, dataset, query, num_workers=num_workers)
    pooled = run_tpch_query(processes_driver, dataset, query, num_workers=num_workers)

    label = f"{query}/w{num_workers}"
    assert_bit_identical(serial.table, threaded.table, f"{label}:threads")
    assert_bit_identical(serial.table, pooled.table, f"{label}:processes")
    if query == "q6":
        assert pooled.scalar() == serial.scalar()
    # The worker-summed counters are the same whichever way the results came
    # back (a pooled result's travel in the header on the child's pipe).
    counted = {
        mode: {name: getattr(result.statistics, name) for name in SUMMED_COUNTERS}
        for mode, result in (("serial", serial), ("threads", threaded), ("processes", pooled))
    }
    assert counted["threads"] == counted["serial"], label
    assert counted["processes"] == counted["serial"], label
    assert counted["serial"]["rows_scanned"] > 0
    # No segment but the live input mirrors' outlives execute(), even while
    # the pool itself stays warm.
    assert leaked_segments() == []


@pytest.mark.parametrize("num_workers", [2, 4])
def test_q3_join_parity_across_modes(
    stack, orders, threads_driver, processes_driver, num_workers
):
    _, dataset, serial_driver = stack
    plan = parse_sql(q3_sql(), tpch_catalog(lineitem=dataset.paths, orders=orders.paths))
    serial = serial_driver.execute(plan, num_workers=num_workers)
    threaded = threads_driver.execute(plan, num_workers=num_workers)
    pooled = processes_driver.execute(plan, num_workers=num_workers)

    label = f"q3/w{num_workers}"
    assert_bit_identical(serial.table, threaded.table, f"{label}:threads")
    assert_bit_identical(serial.table, pooled.table, f"{label}:processes")
    assert leaked_segments() == []


@pytest.mark.parametrize("num_workers", [1, 3])
@pytest.mark.parametrize("sql", [q1_sql, q6_sql], ids=["q1", "q6"])
def test_fused_kernel_matches_classic_per_worker(stack, sql, num_workers):
    """The fused single-pass kernel is bit-identical to scan+filter+aggregate."""
    env, dataset, _ = stack
    physical, _ = optimize(parse_sql(sql(), tpch_catalog(lineitem=dataset.paths)))
    for index, worker_plan in enumerate(physical.base.worker_plans(num_workers)):
        classic = execute_worker_plan(worker_plan, env.s3, fused=False)
        fused = execute_worker_plan(worker_plan, env.s3, fused=True)
        assert_bit_identical(
            decode_table(classic.partial),
            decode_table(fused.partial),
            f"worker{index}/w{num_workers}",
        )
        for name in ("rows_scanned", "rows_after_filter"):
            assert fused.counters["scan", name] == classic.counters["scan", name]
