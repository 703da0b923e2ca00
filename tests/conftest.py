"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cloud.environment import CloudEnvironment
from repro.cloud.metering import MeteringLedger
from repro.cloud.s3 import SharedObjectMirror, segment_prefix
from repro.driver.dispatch import QueryContext
from repro.driver.driver import LambadaDriver
from repro.driver.integrity import RESULT_BUCKET
from repro.driver.spans import QueryStatistics
from repro.driver.worker import SHUFFLE_BUCKET_PREFIX
from repro.workload.tpch import LineitemGenerator, generate_lineitem_dataset


def shm_segments():
    """Names of the shared-memory segments in ``/dev/shm`` that this process
    created.  Another process's ``lambada_*`` segments (a second test run, an
    e2e ``scan_agg_procs`` run) are its own business: each name carries its
    creator's pid (:func:`~repro.cloud.s3.segment_prefix`)."""
    own = segment_prefix()
    try:
        return sorted(name for name in os.listdir("/dev/shm") if name.startswith(own))
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return []


def leaked_segments():
    """Segments this process created that no live input mirror holds, such as
    the copy of a retired object version or of a closed driver's inputs."""
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


def queue_leftovers(env, query_id: str):
    """Messages whose body carries ``query_id``, left in any queue of the
    environment, read from the queue service itself: no metered request."""
    sqs = getattr(env, "sqs", None)
    queues = getattr(sqs, "_queues", None)
    if queues is None:  # a stand-in environment without a queue service
        return []
    with sqs._lock:
        return [
            f"{name}: {message.body[:80]}"
            for name, messages in queues.items()
            for message in messages
            if query_id in message.body
        ]


def billed_while_running(ledger, query_id: str, start: int, end: int) -> float:
    """Price of the records a query made: every record under its tag, and
    any made untagged while it ran (records ``start:end`` of ``ledger``).

    Priced by a ledger of their own in the original order, so with no
    untagged record in the window the sum is the query's bill bit for bit."""
    mine = MeteringLedger(ledger.prices)
    for index, record in enumerate(ledger.records()):
        if record.tag == query_id or (record.tag is None and start <= index < end):
            mine.record(record.service, record.dimension, record.amount, tag=query_id)
    return mine.total_cost(query_id)


def _ledger_length(env) -> int:
    """Records in ``env``'s ledger so far (0 for a stand-in without one)."""
    ledger = getattr(env, "ledger", None)
    return len(ledger) if ledger is not None else 0


def _record_calls(monkeypatch, cls, name, mark=None):
    """Wrap ``cls.name`` so that every call records its ``self`` — or, with
    ``mark``, ``(self, mark(self))`` as the call returns; returns the list it
    records into."""
    calls = []
    method = getattr(cls, name)

    def recording(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        calls.append(self if mark is None else (self, mark(self)))
        return result

    monkeypatch.setattr(cls, name, recording)
    return calls


@pytest.fixture(autouse=True)
def invariants(monkeypatch):
    """After every test: no segment this process created outlives the mirror
    that held it, a closed driver's mirror is no longer live, no query attributes
    more waste than the cloud billed it, no query's ``cost_total`` differs
    from what the ledger billed it (its tagged records, and any record made
    untagged while it ran: one would be a request billed to no query), and
    no query that returned a result left an object under its prefix in the
    result or shuffle buckets — nor, when no fault was injected into it, a
    message in any queue.  (A faulted query may leave one on purpose: a
    delayed duplicate arrives after the query has moved on, and the (query,
    attempt) dedup ignores it.)

    Every query reports one :class:`QueryStatistics`, so one hook on its
    constructor sees every query the test ran, whatever ran it; one on
    :class:`QueryContext` knows which environment each query ran in, and
    where in its ledger the query began."""
    contexts = _record_calls(
        monkeypatch, QueryContext, "__init__", lambda context: _ledger_length(context.env)
    )

    def ended(statistics):
        query_id = statistics._trace.attrs.get("query_id")
        envs = [context.env for context, _ in contexts if context.query_id == query_id]
        return _ledger_length(envs[-1]) if envs else 0

    built = _record_calls(monkeypatch, QueryStatistics, "__init__", ended)
    closed = _record_calls(monkeypatch, LambadaDriver, "close")
    yield
    assert leaked_segments() == []
    live = set(SharedObjectMirror._live)
    assert [driver for driver in closed if driver._mirror in live] == []
    starts = {context.query_id: (context.env, start) for context, start in contexts}
    for statistics, end in built:
        assert statistics.resilience.wasted_cost_dollars <= statistics.cost_total
        query_id = statistics._trace.attrs.get("query_id")
        if query_id in starts:
            env, start = starts[query_id]
            if getattr(env, "ledger", None) is not None:
                assert statistics.cost_total == env.ledger.total_cost(query_id)
                assert statistics.cost_total == billed_while_running(
                    env.ledger, query_id, start, end
                )
            assert query_leftovers(env, query_id) == []
            if not statistics.resilience.faults_injected:
                assert queue_leftovers(env, query_id) == []


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


@pytest.fixture(scope="session", autouse=True)
def conformance_stacks():
    """The conformance matrix's stacks (``tests/conformance.py``) are shared
    by the whole session; their drivers' process pools close with it."""
    yield
    from tests.conformance import close_stacks

    close_stacks()
