"""Tests for the driver's thread-pool execution mode."""

import pytest

from repro.analysis.experiments import run_tpch_query, setup_functional_environment
from repro.counters import Counts
from repro.driver.driver import LambadaDriver
from repro.engine.pipeline import WorkerResult
from repro.engine.table import tables_allclose


@pytest.fixture(scope="module")
def stack():
    return setup_functional_environment(scale_factor=0.002, num_files=8)


def test_unknown_execution_mode_rejected(stack):
    env, _, _ = stack
    with pytest.raises(ValueError):
        LambadaDriver(env, execution_mode="fibers")


def test_threaded_fleet_matches_serial_results(stack):
    env, dataset, serial_driver = stack
    threaded_driver = LambadaDriver(env, execution_mode="threads")
    serial = run_tpch_query(serial_driver, dataset, "q1")
    threaded = run_tpch_query(threaded_driver, dataset, "q1")
    assert tables_allclose(serial.table, threaded.table)
    assert serial.num_rows == threaded.num_rows


def test_threaded_results_ordered_by_worker_id(stack):
    env, dataset, _ = stack
    driver = LambadaDriver(env, execution_mode="threads", max_parallel_invocations=4)
    result = run_tpch_query(driver, dataset, "q6")
    # One result per worker, merged in worker-id order regardless of the
    # arrival order of the queue messages.
    assert len(result.worker_results) == dataset.num_files
    assert all(
        isinstance(worker_result, WorkerResult)
        for worker_result in result.worker_results
    )
    assert result.scalar() == pytest.approx(
        run_tpch_query(LambadaDriver(env), dataset, "q6").scalar()
    )


def test_worker_result_from_payload_ignores_unknown_keys():
    payload = WorkerResult(counters=Counts({("scan", "rows_output"): 1})).to_payload()
    payload["some_future_field"] = {"nested": True}
    restored = WorkerResult.from_payload(payload, b"frame")
    assert (restored.partial, restored.counters["scan", "rows_output"]) == (b"frame", 1)
    assert not hasattr(restored, "some_future_field")
