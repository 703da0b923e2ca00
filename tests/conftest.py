"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cloud.environment import CloudEnvironment
from repro.cloud.s3 import SHM_SEGMENT_PREFIX, SharedObjectMirror
from repro.driver.driver import LambadaDriver
from repro.driver.spans import QueryStatistics
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


@pytest.fixture(autouse=True)
def invariants(monkeypatch):
    """After every test: no ``lambada_*`` segment outlives the mirror that
    held it, and no query attributes more waste than the cloud billed it.

    Every query reports one :class:`QueryStatistics`, so one hook on its
    constructor sees every query the test ran, whatever ran it."""
    built = []
    init = QueryStatistics.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(QueryStatistics, "__init__", recording)
    yield
    assert leaked_segments() == []
    for statistics in built:
        assert statistics.resilience.wasted_cost_dollars <= statistics.cost_total


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
