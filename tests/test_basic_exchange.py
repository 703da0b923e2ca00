"""Tests for the one-level exchange (``MultiLevelExchange(levels=1)``) and the
partition (de)serialisation pair of ``repro.exchange.basic``.

The one-level exchange is the paper's Algorithm 1 on the one exchange plane:
every worker writes one combined object for all P receivers and reads its
slice of each, so it issues P PUTs and P² slice reads (the empty ones
elided), and no LIST or HEAD.
"""

import numpy as np
import pytest

from repro.cloud.s3 import ObjectStore
from repro.engine.table import table_num_rows
from repro.errors import ExchangeError
from repro.exchange.basic import deserialize_partition, serialize_partition
from repro.exchange.multilevel import MultiLevelExchange
from repro.exchange.partition import partition_assignments


def _make_tables(num_workers: int, rows_per_worker: int = 200, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        {
            "key": rng.integers(0, 10_000, rows_per_worker).astype(np.int64),
            "value": rng.random(rows_per_worker),
        }
        for _ in range(num_workers)
    ]


def _one_level(store, num_workers: int) -> MultiLevelExchange:
    return MultiLevelExchange(store, num_workers, keys=["key"], levels=1)


@pytest.fixture
def store():
    return ObjectStore()


def test_serialize_roundtrip():
    table = {"a": np.arange(10, dtype=np.int64), "b": np.random.default_rng(0).random(10)}
    restored = deserialize_partition(serialize_partition(table))
    np.testing.assert_array_equal(restored["a"], table["a"])
    np.testing.assert_allclose(restored["b"], table["b"])


def test_serialize_empty_is_empty_bytes():
    assert serialize_partition({}) == b""
    assert deserialize_partition(b"") == {}


def test_exchange_preserves_all_rows(store):
    P = 4
    tables = _make_tables(P)
    result = _one_level(store, P).run(tables)
    total_in = sum(table_num_rows(t) for t in tables)
    total_out = sum(table_num_rows(t) for t in result)
    assert total_in == total_out


def test_exchange_places_rows_on_their_partition(store):
    P = 5
    tables = _make_tables(P)
    result = _one_level(store, P).run(tables)
    for worker, table in enumerate(result):
        if not table:
            continue
        assignment = partition_assignments(table, ["key"], P)
        assert np.all(assignment == worker)


def test_exchange_request_counts_are_quadratic(store):
    P = 6
    exchange = _one_level(store, P)
    exchange.run(_make_tables(P, rows_per_worker=50))
    stats = exchange.stats
    # Algorithm 1's reads: every worker reads one slice of every sender's
    # object, each either fetched or elided as empty.
    assert stats.get_requests + stats.empty_parts_elided == P * P


def test_exchange_with_write_combining_reduces_writes(store):
    P = 6
    tables = _make_tables(P, rows_per_worker=50)
    exchange = _one_level(store, P)
    result = exchange.run(tables)
    stats = exchange.stats
    assert stats.put_requests == P  # one combined object per sender
    assert stats.list_requests == 0
    assert sum(table_num_rows(t) for t in result) == sum(table_num_rows(t) for t in tables)


def test_write_combining_preserves_placement(store):
    P = 4
    result = _one_level(store, P).run(_make_tables(P))
    for worker, table in enumerate(result):
        if not table:
            continue
        assignment = partition_assignments(table, ["key"], P)
        assert np.all(assignment == worker)


def test_exchange_files_spread_over_buckets(store):
    """Combined objects are spread over the buckets by sender (§4.4.1)."""
    P = 8
    _one_level(store, P).run(_make_tables(P, rows_per_worker=20))
    buckets_used = [b for b in store.list_buckets() if store.object_count(b) > 0]
    assert len(buckets_used) == P
    assert all(store.object_count(bucket) == 1 for bucket in buckets_used)


def test_exchange_empty_input_tables(store):
    P = 3
    tables = [{"key": np.zeros(0, dtype=np.int64), "value": np.zeros(0)} for _ in range(P)]
    exchange = _one_level(store, P)
    result = exchange.run(tables)
    assert all(table_num_rows(t) == 0 for t in result)
    # Every sender still PUTs its (empty) object; every slice read is elided.
    assert exchange.stats.put_requests == P
    assert exchange.stats.get_requests == 0
    assert exchange.stats.empty_parts_elided == P * P


def test_exchange_wrong_table_count_raises(store):
    with pytest.raises(ExchangeError):
        _one_level(store, 4).run(_make_tables(3))


def test_exchange_rejects_nonpositive_worker_count(store):
    with pytest.raises(ExchangeError):
        _one_level(store, 0)


def test_read_discovery_is_metadata_based(store):
    """Receivers locate sender objects from the announced directories: no
    LIST, no HEAD, and every GET fetches a slice that is known to exist."""
    P = 4
    exchange = _one_level(store, P)
    exchange.run(_make_tables(P, rows_per_worker=40))
    stats = exchange.stats
    assert stats.list_requests == 0
    assert stats.head_requests == 0
    assert stats.get_requests == stats.ranged_get_requests
    assert stats.get_requests + stats.empty_parts_elided == P * P


def test_combined_read_counts_ranged_gets_and_elisions(store):
    P = 4
    # Single-group tables: every sender routes all rows to one receiver, so
    # most combined-object slices are empty and their GETs are elided.
    tables = [
        {"key": np.full(30, 7, dtype=np.int64), "value": np.random.default_rng(s).random(30)}
        for s in range(P)
    ]
    exchange = _one_level(store, P)
    result = exchange.run(tables)
    stats = exchange.stats
    assert stats.put_requests == P
    assert stats.combined_put_requests == P
    assert stats.ranged_get_requests == P  # one non-empty slice per sender
    assert stats.empty_parts_elided == P * P - P
    assert stats.bytes_touched >= stats.bytes_read
    assert sum(table_num_rows(t) for t in result) == 30 * P


def test_per_worker_stats_available(store):
    P = 3
    exchange = _one_level(store, P)
    exchange.run(_make_tables(P, rows_per_worker=30))
    per_worker, = exchange.round_stats
    assert set(per_worker.keys()) == {0, 1, 2}
    assert all(counts["exchange", "put_requests"] == 1 for counts in per_worker.values())
    assert all(
        counts["exchange", "get_requests"] + counts["exchange", "empty_parts_elided"] == P
        for counts in per_worker.values()
    )
