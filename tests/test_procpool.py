"""Process-pool lifecycle: shared-memory hygiene, fallbacks, warm reuse.

Every test that runs the pool asserts that ``/dev/shm`` carries no
``lambada_*`` segment afterwards but the live input mirrors' — including the
worker-exception and retry paths, where cleanup is easiest to get wrong.  The
pool is forced to size 2 via ``max_parallel_invocations`` so the suite works
on single-core CI runners.
"""

from __future__ import annotations

import os
import uuid

import pytest

from repro.analysis.experiments import run_tpch_query, setup_functional_environment
from repro.cloud.s3 import SHM_SEGMENT_PREFIX, segment_prefix
from repro.driver.driver import LambadaDriver
from repro.errors import WorkerFailedError
from tests.conformance import assert_bit_identical
from tests.conftest import leaked_segments, shm_segments


@pytest.fixture(scope="module")
def stack():
    return setup_functional_environment(scale_factor=0.002, num_files=4)


@pytest.fixture
def processes_driver(stack):
    env, _, _ = stack
    driver = LambadaDriver(
        env, execution_mode="processes", max_parallel_invocations=2
    )
    yield driver
    driver.close()


def test_query_leaves_no_segments_while_pool_is_warm(stack, processes_driver):
    _, dataset, serial_driver = stack
    pooled = run_tpch_query(processes_driver, dataset, "q1")
    serial = run_tpch_query(serial_driver, dataset, "q1")
    assert_bit_identical(serial.table, pooled.table)
    # The pool is still alive here; only its mirrored inputs may remain.
    assert processes_driver._pool is not None
    assert leaked_segments() == []


def test_worker_exception_cleans_segments(stack, processes_driver):
    env, dataset, _ = stack
    # Corrupt one input object: the export succeeds (the blob exists) but the
    # child's scan fails, so every retry round errors out.
    bucket, _, key = dataset.paths[0].removeprefix("s3://").partition("/")
    original = env.s3.get_object(bucket, key).data
    env.s3.put_object(bucket, key, b"this is not a columnar file")
    try:
        with pytest.raises(WorkerFailedError):
            run_tpch_query(processes_driver, dataset, "q1")
    finally:
        env.s3.put_object(bucket, key, original)
    assert leaked_segments() == []


def test_injected_failure_is_retried_and_cleaned(stack, processes_driver, monkeypatch):
    _, dataset, serial_driver = stack
    pool = processes_driver._ensure_pool()
    assert pool is not None

    real_run_tasks = pool.run_tasks
    injected = {"count": 0}

    def flaky_run_tasks(tasks):
        results = real_run_tasks(tasks)
        if injected["count"] == 0:
            # Lose one worker's result, as a crashed worker would never
            # report it: its frame is dropped and the message is an error.
            task_id = sorted(results)[0]
            results[task_id] = ("err", task_id, "injected failure")
            injected["count"] += 1
        return results

    monkeypatch.setattr(pool, "run_tasks", flaky_run_tasks)
    pooled = run_tpch_query(processes_driver, dataset, "q1")
    assert injected["count"] == 1
    serial = run_tpch_query(serial_driver, dataset, "q1")
    assert_bit_identical(serial.table, pooled.table)
    assert leaked_segments() == []


def test_single_core_host_falls_back_to_serial(stack, monkeypatch):
    _, dataset, serial_driver = stack
    env = serial_driver.env
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    driver = LambadaDriver(env, execution_mode="processes")
    with pytest.warns(RuntimeWarning, match="single-core"):
        pooled = run_tpch_query(driver, dataset, "q1")
    assert driver._pool is None
    serial = run_tpch_query(serial_driver, dataset, "q1")
    assert_bit_identical(serial.table, pooled.table)
    assert leaked_segments() == []
    driver.close()


def test_spawn_failure_falls_back_to_serial(stack, monkeypatch):
    import repro.driver.procpool as procpool

    _, dataset, serial_driver = stack

    class BrokenPool:
        def __init__(self, size):
            raise RuntimeError("spawn blocked by sandbox")

    monkeypatch.setattr(procpool, "ProcessWorkerPool", BrokenPool)
    driver = LambadaDriver(
        serial_driver.env, execution_mode="processes", max_parallel_invocations=2
    )
    with pytest.warns(RuntimeWarning, match="failed to start"):
        pooled = run_tpch_query(driver, dataset, "q1")
    assert driver._pool is None
    serial = run_tpch_query(serial_driver, dataset, "q1")
    assert_bit_identical(serial.table, pooled.table)
    driver.close()


def test_pool_stays_warm_across_queries(stack, processes_driver):
    _, dataset, _ = stack
    run_tpch_query(processes_driver, dataset, "q1")
    pool = processes_driver._pool
    assert pool is not None
    pids = sorted(child.process.pid for child in pool._children)

    run_tpch_query(processes_driver, dataset, "q6")
    assert processes_driver._pool is pool
    assert sorted(child.process.pid for child in pool._children) == pids
    assert leaked_segments() == []

    mirrored = {name for name, _ in processes_driver._mirror.directory.values()}
    assert mirrored and mirrored <= set(shm_segments())
    processes_driver.close()
    assert processes_driver._pool is None
    assert not mirrored & set(shm_segments())
    assert leaked_segments() == []
    processes_driver.close()  # idempotent
    assert all(not child.process.is_alive() for child in pool._children) or not pool._children


def test_child_killed_before_dispatch_is_retried(stack, processes_driver, monkeypatch):
    _, dataset, serial_driver = stack
    pool = processes_driver._ensure_pool()
    victim = pool._children[0]
    victim.process.kill()
    victim.process.join()
    # Skip the pre-dispatch respawn once, as if the child died right after it:
    # the task fed to it must come back as an error and be retried.
    real_ensure = pool._ensure_children
    skipped = []

    def ensure_once_blind():
        if not skipped:
            skipped.append(True)
            return pool._children
        return real_ensure()

    monkeypatch.setattr(pool, "_ensure_children", ensure_once_blind)
    pooled = run_tpch_query(processes_driver, dataset, "q1")
    serial = run_tpch_query(serial_driver, dataset, "q1")
    assert_bit_identical(serial.table, pooled.table)
    assert pooled.statistics.resilience.retries >= 1
    assert pool.stats() == {"size": 2, "alive": 2, "respawns": 1}
    assert leaked_segments() == []


def test_tasks_go_to_the_child_that_is_free(monkeypatch):
    """A child that is slow takes fewer tasks; none is handed out twice."""
    from repro.driver import procpool

    class FakeConn:
        def __init__(self, delay):
            self.delay, self.inbox, self.sent = delay, [], []

        def send(self, task):
            self.sent.append(task[1])
            self.inbox.append((clock[0] + self.delay, task[1]))

        def recv(self):
            return ("ok", self.inbox.pop(0)[1], {}, 0)

    class FakeChild:
        alive = True

        def __init__(self, delay):
            self.conn, self.pending = FakeConn(delay), set()

    def fake_wait(conns):
        first = min(conns, key=lambda conn: conn.inbox[0][0])
        clock[0] = first.inbox[0][0]
        return [first]

    clock = [0.0]
    pool = procpool.ProcessWorkerPool.__new__(procpool.ProcessWorkerPool)
    slow, fast = children = [FakeChild(delay=3.0), FakeChild(delay=1.0)]
    pool._children = children
    monkeypatch.setattr(procpool.mp_connection, "wait", fake_wait)
    try:
        results = pool.run_tasks([("noop", task_id) for task_id in range(8)])
    finally:
        pool._children = []  # nothing for __del__ to stop
    assert sorted(results) == list(range(8))
    assert sorted(slow.conn.sent + fast.conn.sent) == list(range(8))
    # Dealt out up front each child would run 4 and the wave would take 12.
    assert (len(slow.conn.sent), len(fast.conn.sent)) == (2, 6)
    assert clock[0] == 6.0


def test_pool_rejects_zero_size():
    from repro.driver.procpool import ProcessWorkerPool

    with pytest.raises(ValueError):
        ProcessWorkerPool(size=0)


def test_segment_prefix_is_scoped(stack, processes_driver):
    # The leak checks scan /dev/shm by this prefix; keep it distinctive, and
    # every segment the pool's plane creates carries it.
    assert SHM_SEGMENT_PREFIX.startswith("lambada")
    _, dataset, _ = stack
    run_tpch_query(processes_driver, dataset, "q6")
    names = {name for name, _ in processes_driver._mirror.directory.values()}
    assert len(names) == len(dataset.paths)
    assert all(name.startswith(segment_prefix()) for name in names)
    assert names <= set(shm_segments())


def _segment(name):
    from multiprocessing import shared_memory

    return shared_memory.SharedMemory(name=name, create=True, size=1)


def test_another_process_segment_is_not_a_leak():
    # What a concurrent test run or e2e `scan_agg_procs` run holds: one
    # lambada_* segment under another pid's prefix.
    foreign = _segment(f"{SHM_SEGMENT_PREFIX}{os.getppid()}_{uuid.uuid4().hex[:12]}")
    try:
        assert os.path.exists(f"/dev/shm/{foreign.name}")
        assert foreign.name not in shm_segments()
        assert leaked_segments() == []
    finally:
        foreign.close()
        foreign.unlink()


def test_a_segment_this_process_leaves_is_a_leak():
    leaked = _segment(f"{segment_prefix()}{uuid.uuid4().hex[:12]}")
    try:
        assert leaked_segments() == [leaked.name]
    finally:
        leaked.close()
        leaked.unlink()
    assert leaked_segments() == []
