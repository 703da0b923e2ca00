"""The process pool's input mirror: one shared-memory copy per object version.

``processes`` mode mirrors every input object into its own ``/dev/shm``
segment once and keeps it across queries (``SharedObjectMirror``).  A
mirrored object is current exactly when it *is* the store's object, so these
tests overwrite, delete and re-read inputs between queries and check that the
answer is always serial mode's over the store's current data, that nothing is
copied twice, and that no segment outlives its version or the driver.  The
pool is forced to size 2 so the suite runs on single-core hosts too.
"""

from __future__ import annotations

import gc
import os
import warnings
from multiprocessing import shared_memory

import pytest

from repro.analysis.experiments import run_tpch_query, setup_functional_environment
from repro.cloud.s3 import parse_s3_path
from repro.driver.driver import LambadaDriver
from repro.errors import NoSuchKeyError
from repro.workload.tpch import generate_lineitem_dataset
from tests.conftest import leaked_segments, shm_segments
from tests.conformance import assert_bit_identical, close_stacks


@pytest.fixture
def stack():
    """A fresh environment per test: the tests rewrite its objects."""
    return setup_functional_environment(scale_factor=0.001, num_files=4)


@pytest.fixture
def pooled(stack):
    env, _, _ = stack
    driver = LambadaDriver(env, execution_mode="processes", max_parallel_invocations=2)
    yield driver
    driver.close()


@pytest.fixture
def created(monkeypatch):
    """Names of the shared-memory segments this process creates."""
    names = []
    real = shared_memory.SharedMemory

    class Spy(real):
        def __init__(self, name=None, create=False, size=0):
            super().__init__(name=name, create=create, size=size)
            if create:
                names.append(self.name)

    monkeypatch.setattr(shared_memory, "SharedMemory", Spy)
    return names


def _segment_of(driver, path):
    return driver._mirror.directory[path][0]


def test_overwritten_input_is_mirrored_again(stack, pooled):
    env, dataset, serial = stack
    first = run_tpch_query(pooled, dataset, "q1")
    assert_bit_identical(run_tpch_query(serial, dataset, "q1").table, first.table)
    path = dataset.paths[0]
    old = _segment_of(pooled, path)

    # Replace file 0 by file 1's bytes: a valid file that changes the answer.
    env.s3.put_path(path, env.s3.get_path(dataset.paths[1]).data)
    second = run_tpch_query(pooled, dataset, "q1")
    expected = run_tpch_query(serial, dataset, "q1")
    assert_bit_identical(expected.table, second.table)
    assert not (first.table["count_order"] == second.table["count_order"]).all()
    assert _segment_of(pooled, path) != old
    assert old not in shm_segments()
    assert leaked_segments() == []


def test_deleted_input_fails_typed_and_is_retired(stack, pooled):
    env, dataset, _ = stack
    run_tpch_query(pooled, dataset, "q6")
    path = dataset.paths[2]
    old = _segment_of(pooled, path)
    env.s3.delete_object(*parse_s3_path(path))
    with pytest.raises(NoSuchKeyError):
        run_tpch_query(pooled, dataset, "q6")
    assert path not in pooled._mirror.directory
    assert old not in shm_segments()
    assert leaked_segments() == []


def test_query_over_current_inputs_copies_nothing(stack, pooled, created):
    _, dataset, serial = stack
    run_tpch_query(pooled, dataset, "q1")
    assert len(created) == len(dataset.paths)
    directory = dict(pooled._mirror.directory)
    segments = shm_segments()

    del created[:]
    for query in ("q1", "q6", "q1"):
        answer = run_tpch_query(pooled, dataset, query)
        assert_bit_identical(run_tpch_query(serial, dataset, query).table, answer.table)
    assert created == []
    assert pooled._mirror.directory == directory
    assert shm_segments() == segments


def test_killed_child_attaches_again(stack, pooled, created):
    _, dataset, serial = stack
    run_tpch_query(pooled, dataset, "q1")
    pool = pooled._pool
    victim = pool._children[0]
    victim.process.kill()
    victim.process.join(timeout=10)
    assert not victim.process.is_alive()

    del created[:]
    answer = run_tpch_query(pooled, dataset, "q1")
    assert_bit_identical(run_tpch_query(serial, dataset, "q1").table, answer.table)
    assert pool.stats() == {"size": 2, "alive": 2, "respawns": 1}
    assert created == []  # the respawned child attached to the same copies
    assert leaked_segments() == []


def test_close_unlinks_every_segment(stack):
    # This driver must be the process's only pooled one: the conformance
    # matrix's shared stacks close theirs first (they reopen on next use).
    close_stacks()
    env, dataset, _ = stack
    driver = LambadaDriver(env, execution_mode="processes", max_parallel_invocations=2)
    run_tpch_query(driver, dataset, "q1")
    mirrored = {name for name, _ in driver._mirror.directory.values()}
    assert len(mirrored) == len(dataset.paths) and mirrored <= set(shm_segments())
    driver.close()
    gc.collect()
    assert shm_segments() == []


def test_inputs_that_do_not_fit_dev_shm_run_on_lambda(stack, pooled, created, monkeypatch):
    env, dataset, serial = stack
    real_statvfs = os.statvfs

    def full_tmpfs(path):
        stats = real_statvfs(path)
        if path != "/dev/shm":
            return stats
        return os.statvfs_result(
            stats[:4] + (0,) + stats[5:]  # f_bavail: no block free
        )

    monkeypatch.setattr(os, "statvfs", full_tmpfs)
    with pytest.warns(RuntimeWarning, match="/dev/shm"):
        answer = run_tpch_query(pooled, dataset, "q1")
    assert_bit_identical(run_tpch_query(serial, dataset, "q1").table, answer.table)
    assert created == []
    assert pooled._mirror.directory == {}
    assert leaked_segments() == []


def test_a_query_that_does_not_fit_evicts_inputs_it_does_not_read(stack, pooled, monkeypatch):
    """Two datasets that fit ``/dev/shm`` one at a time both run pooled.

    The parent fell back to Lambda + SQS (with a ``RuntimeWarning``) for the
    second query while the first one's copies sat in ``/dev/shm``.
    """
    env, first, serial = stack
    second = generate_lineitem_dataset(env.s3, prefix="other", scale_factor=0.001,
                                       num_files=4, row_group_rows=1024, seed=11)
    sizes = {
        name: sum(len(env.s3.get_path(path).data) for path in dataset.paths)
        for name, dataset in (("first", first), ("second", second))
    }
    # Room for either dataset, never for both.
    budget = max(sizes.values()) + min(sizes.values()) // 2
    real_statvfs = os.statvfs

    def tight_tmpfs(path):
        stats = real_statvfs(path)
        if path != "/dev/shm":
            return stats
        used = sum(length for _, length in pooled._mirror.directory.values())
        free = max(budget - used, 0) // stats.f_frsize
        return os.statvfs_result(stats[:4] + (free,) + stats[5:])

    monkeypatch.setattr(os, "statvfs", tight_tmpfs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        answers, evicted = {}, set()
        for name, dataset in (("first", first), ("second", second), ("first again", first)):
            answers[name] = run_tpch_query(pooled, dataset, "q1")
            # Pooled over exactly this query's inputs; the others are unlinked.
            assert set(pooled._mirror.directory) == set(dataset.paths), name
            assert not evicted & set(shm_segments()), name
            evicted = {segment for segment, _ in pooled._mirror.directory.values()}
    for name, dataset in (("first", first), ("second", second), ("first again", first)):
        assert_bit_identical(run_tpch_query(serial, dataset, "q1").table, answers[name].table)
    assert leaked_segments() == []
