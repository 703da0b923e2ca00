"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cloud.environment import CloudEnvironment
from repro.cloud.s3 import SHM_SEGMENT_PREFIX, SharedObjectMirror
from repro.driver.dispatch import QueryContext
from repro.driver.driver import LambadaDriver
from repro.driver.integrity import RESULT_BUCKET
from repro.driver.spans import QueryStatistics
from repro.driver.worker import SHUFFLE_BUCKET_PREFIX
from repro.workload.tpch import LineitemGenerator, generate_lineitem_dataset


def shm_segments():
    """Names of every ``lambada_*`` shared-memory segment in ``/dev/shm``."""
    try:
        return sorted(
            name for name in os.listdir("/dev/shm") if name.startswith(SHM_SEGMENT_PREFIX)
        )
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return []


def leaked_segments():
    """``lambada_*`` segments that no live input mirror holds, such as the copy
    of a retired object version or of a closed driver's inputs."""
    live = SharedObjectMirror.live_segment_names()
    return [name for name in shm_segments() if name not in live]


def query_leftovers(env, query_id: str):
    """Objects under ``{query_id}/`` in the result bucket and the shuffle
    buckets, read from the store itself: no metered request, no fault hook."""
    s3 = getattr(env, "s3", None)
    buckets = getattr(s3, "_buckets", None)
    if buckets is None:  # a stand-in environment without an object store
        return []
    prefix = f"{query_id}/"
    with s3._lock:
        return sorted(
            f"{bucket}/{key}"
            for bucket, objects in buckets.items()
            if bucket == RESULT_BUCKET or bucket.startswith(SHUFFLE_BUCKET_PREFIX)
            for key in objects
            if key.startswith(prefix)
        )


def _record_calls(monkeypatch, cls, name):
    """Wrap ``cls.name`` so that every call records its ``self``; returns
    the list it records into."""
    calls = []
    method = getattr(cls, name)

    def recording(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        calls.append(self)
        return result

    monkeypatch.setattr(cls, name, recording)
    return calls


@pytest.fixture(autouse=True)
def invariants(monkeypatch):
    """After every test: no ``lambada_*`` segment outlives the mirror that
    held it, a closed driver's mirror is no longer live, no query attributes
    more waste than the cloud billed it, and no query that returned a result
    left an object under its prefix in the result or shuffle buckets.

    Every query reports one :class:`QueryStatistics`, so one hook on its
    constructor sees every query the test ran, whatever ran it; one on
    :class:`QueryContext` knows which environment each query ran in."""
    built = _record_calls(monkeypatch, QueryStatistics, "__init__")
    contexts = _record_calls(monkeypatch, QueryContext, "__init__")
    closed = _record_calls(monkeypatch, LambadaDriver, "close")
    yield
    assert leaked_segments() == []
    live = set(SharedObjectMirror._live)
    assert [driver for driver in closed if driver._mirror in live] == []
    envs = {context.query_id: context.env for context in contexts}
    for statistics in built:
        assert statistics.resilience.wasted_cost_dollars <= statistics.cost_total
        query_id = statistics._trace.attrs.get("query_id")
        if query_id in envs:
            assert query_leftovers(envs[query_id], query_id) == []


@pytest.fixture
def env() -> CloudEnvironment:
    """A fresh cloud environment (clock, ledger, S3, SQS, DynamoDB, Lambda)."""
    return CloudEnvironment.create(region="eu")


@pytest.fixture
def small_table() -> dict:
    """A tiny in-memory table used by engine-level tests."""
    return {
        "key": np.array([1, 2, 3, 4, 5], dtype=np.int64),
        "value": np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
        "flag": np.array([0, 1, 0, 1, 0], dtype=np.int32),
    }


@pytest.fixture(scope="session")
def lineitem_table() -> dict:
    """The generated LINEITEM relation at a tiny scale factor (in memory)."""
    return LineitemGenerator(scale_factor=0.001, seed=7).generate()


@pytest.fixture
def dataset(env):
    """A LINEITEM dataset written into the environment's object store."""
    return generate_lineitem_dataset(
        env.s3, scale_factor=0.001, num_files=4, row_group_rows=512, seed=7
    )


@pytest.fixture
def driver(env) -> LambadaDriver:
    """A driver installed into the environment."""
    return LambadaDriver(env, memory_mib=2048)
