"""The scan's read plan: vectored, coalesced reads and the one-request open.

Covers the three layers the plan crosses — ``ObjectStore.get_object`` suffix
ranges, ``S3ObjectSource.read_ranges`` / ``read_suffix`` (coalescing rule,
``chunk_bytes`` split, retention, typed failure on a short or flipped merged
response), ``ColumnarFile`` opening in one request — and the end-to-end
properties that depend on it: answers independent of the plan in every
execution mode, and a Q1 worker at the ``scan_agg`` benchmark shape that pays
a handful of round trips instead of one per column chunk.
"""

from __future__ import annotations

import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cloud.network import BandwidthModel
from repro.cloud.s3 import ObjectStore, SharedSegmentStore
from repro.engine.pipeline import execute_worker_plan
from repro.engine.s3io import S3ObjectSource
from repro.engine.scan import S3ScanOperator
from repro.errors import (
    CorruptFileError,
    IntegrityError,
    InvalidRangeError,
    UnknownColumnError,
)
from repro.formats import parquet
from repro.formats.compression import Compression
from repro.formats.parquet import ColumnarFile, write_table
from repro.frontend.sql import parse_sql
from repro.plan.expressions import col
from repro.plan.optimizer import optimize
from repro.workload import queries as q
from repro.workload.tpch import generate_lineitem_dataset, generate_orders_dataset

from tests.conftest import leaked_segments
from tests.test_mode_parity import assert_bit_identical

PATH = "s3://data/object"


def model_with_gap(gap_bytes: int) -> BandwidthModel:
    """A bandwidth model whose break-even hole is ``gap_bytes`` (±1 byte)."""
    steady = BandwidthModel().link_bandwidth(2048, 1)
    return BandwidthModel(request_latency_seconds=gap_bytes / steady)


EXACT = BandwidthModel(request_latency_seconds=0.0)


class RecordingStore(ObjectStore):
    """An object store that logs every GET and can corrupt chosen responses."""

    def __init__(self):
        super().__init__()
        self.create_bucket("data")
        self.gets = []  # (range_start, range_end, was_suffix)
        self.corrupt = None  # callable(result) -> bytes, applied to ranged GETs

    def get_object(self, bucket, key, range_start=0, range_end=None, suffix_length=None):
        result = super().get_object(bucket, key, range_start, range_end, suffix_length)
        self.gets.append((result.range_start, result.range_end, suffix_length is not None))
        if self.corrupt is not None and suffix_length is None:
            result = type(result)(
                data=self.corrupt(result), metadata=result.metadata,
                range_start=result.range_start, range_end=result.range_end,
            )
        return result


def recording_store(data: bytes) -> RecordingStore:
    store = RecordingStore()
    store.put_object("data", "object", data)
    return store


# -- (a) read_ranges: equivalence, request bound, coalescing rule, chunk split -----


@settings(max_examples=200, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=3000),
    ranges=st.lists(
        st.tuples(st.integers(0, 3100), st.integers(0, 700)), min_size=0, max_size=12
    ),
    chunk_bytes=st.integers(1, 1500),
    gap_bytes=st.integers(0, 600),
)
def test_read_ranges_matches_read_at_with_fewer_requests(data, ranges, chunk_bytes, gap_bytes):
    store = recording_store(data)
    source = S3ObjectSource(
        store, PATH, chunk_bytes=chunk_bytes, bandwidth=model_with_gap(gap_bytes)
    )
    size = source.size()
    assert size == len(data)
    opened = len(store.gets)
    assert opened == 1 and store.gets[0][2]

    assert source.read_ranges(ranges) == [data[o:o + n] for o, n in ranges]
    fetched = [(start, end) for start, end, _ in store.gets[opened:]]

    # No more requests than one read_at per range would have issued.
    clamped = [(o, min(o + n, size)) for o, n in ranges if min(o + n, size) > o]
    assert len(fetched) <= sum(-(-(end - start) // chunk_bytes) for start, end in clamped)
    assert source.counts["scan", "get_requests"] == len(store.gets)
    assert source.counts["scan", "bytes_read"] == sum(end - start for start, end, _ in store.gets)

    # Pieces respect chunk_bytes and never overlap.
    assert all(0 < end - start <= chunk_bytes for start, end in fetched)
    assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(fetched, fetched[1:]))

    # Every fetched byte nobody asked for lies in a hole below the break-even.
    wanted = np.zeros(size + 1, dtype=bool)
    for start, end in clamped:
        wanted[start:end] = True
    got = np.zeros(size + 1, dtype=bool)
    for start, end in fetched:
        got[start:end] = True
    hole = np.flatnonzero(np.diff(np.concatenate(([0], (got & ~wanted).view(np.int8), [0]))))
    assert all(
        stop - start < max(source.coalesce_gap, 1) for start, stop in zip(hole[::2], hole[1::2])
    )

    # The batch is retained: reading the same ranges one by one is free.
    before = len(store.gets)
    assert [source.read_at(o, n) for o, n in ranges] == [data[o:o + n] for o, n in ranges]
    assert len(store.gets) == before


def test_zero_break_even_issues_one_request_per_range():
    data = bytes(range(256)) * 8
    store = recording_store(data)
    source = S3ObjectSource(store, PATH, bandwidth=EXACT)
    source.read_ranges([(0, 10), (10, 10), (100, 5)])  # adjacent ranges stay apart
    assert [(s, e) for s, e, _ in store.gets[1:]] == [(0, 10), (10, 20), (100, 105)]


def test_batch_is_charged_as_one_pipelined_transfer():
    # Default model: ~2.8 MB break-even, so ranges 3 MB apart stay separate.
    data = bytes(12_500_000)
    ranges = [(0, 100), (3_000_000, 100), (6_000_000, 100), (9_000_000, 100)]
    model = BandwidthModel()
    batched = S3ObjectSource(recording_store(data), PATH, bandwidth=model)
    batched.size()
    opened = batched.transfer_seconds
    batched.read_ranges(ranges)
    serial = S3ObjectSource(recording_store(data), PATH, bandwidth=model)
    serial.size()
    for offset, length in ranges:
        serial.read_at(offset, length)
    assert batched.counts["scan", "get_requests"] == serial.counts["scan", "get_requests"] == 5
    # Four requests over four connections expose one round trip, not four.
    assert batched.transfer_seconds - opened < 1.5 * model.request_latency_seconds
    assert serial.transfer_seconds - opened > 4 * model.request_latency_seconds


def test_read_ranges_default_and_validation():
    from repro.formats.source import BytesSource

    source = BytesSource(b"0123456789")
    assert source.read_ranges([(8, 5), (0, 2), (3, 0)]) == [b"89", b"01", b""]
    assert source.read_suffix(3) == b"789" and source.read_suffix(99) == b"0123456789"
    assert source.peek(2, 2) == b"23"
    s3 = S3ObjectSource(recording_store(b"0123456789"), PATH)
    with pytest.raises(ValueError):
        s3.read_ranges([(0, 1), (-1, 2)])


# -- (b) suffix ranges ------------------------------------------------------------------


def _stores(data: bytes):
    plain = ObjectStore()
    plain.create_bucket("data")
    plain.put_object("data", "object", data)
    shared = SharedSegmentStore({PATH: memoryview(data)})
    return [plain, shared]


@pytest.mark.parametrize("index", [0, 1], ids=["ObjectStore", "SharedSegmentStore"])
def test_suffix_range_semantics(index):
    data = bytes(range(100))
    store = _stores(data)[index]
    result = store.get_object("data", "object", suffix_length=10)
    assert (result.data, result.range_start, result.range_end) == (data[-10:], 90, 100)
    assert result.metadata.size == 100
    # Longer than the object: clamped to the whole object, as S3 does.
    result = store.get_object("data", "object", suffix_length=1000)
    assert (result.data, result.range_start, result.range_end) == (data, 0, 100)
    # The 416 cases: an empty suffix, and a suffix combined with a start/end.
    for kwargs in (
        {"suffix_length": 0},
        {"suffix_length": -5},
        {"range_start": 3, "suffix_length": 10},
        {"range_end": 50, "suffix_length": 10},
    ):
        with pytest.raises(InvalidRangeError):
            store.get_object("data", "object", **kwargs)
    # Explicit ranges behave as before.
    assert store.get_object("data", "object", 5, 8).data == data[5:8]
    with pytest.raises(InvalidRangeError):
        store.get_object("data", "object", 101)


def test_suffix_range_is_metered_as_one_get():
    store = _stores(bytes(50))[0]
    before = store.ledger.total("s3", "get_requests")
    store.get_object("data", "object", suffix_length=20)
    assert store.ledger.total("s3", "get_requests") - before == 1
    assert store.ledger.total("s3", "bytes_read") == 20
    empty = _stores(b"")[0]
    assert empty.get_object("data", "object", suffix_length=4).data == b""


# -- (c) opening a file -------------------------------------------------------------------


def _table(rows: int = 3000):
    rng = np.random.default_rng(5)
    return {
        "id": np.arange(rows, dtype=np.int64),
        "v": rng.uniform(0, 1, rows),
        "k": rng.integers(0, 9, rows).astype(np.int32),
    }


TAIL_BYTES = 16


def footer_bytes(data: bytes) -> int:
    """Length of a written file's footer, as its tail records it."""
    return struct.unpack("<IQ4s", data[-TAIL_BYTES:])[1]


@pytest.mark.parametrize("checksum", [False, True], ids=["unchecked", "checked"])
def test_open_small_file_is_one_get_and_no_head(checksum):
    table = _table()
    data = write_table(table, row_group_rows=500, checksum=checksum)
    store = recording_store(data)
    counts = dict(store.request_counts["data"])
    source = S3ObjectSource(store, PATH)
    reader = ColumnarFile(source)
    # HEAD is counted under "get" too, so one GET also means no HEAD.
    assert store.request_counts["data"]["get"] - counts["get"] == 1
    assert store.gets == [(0, len(data), True)]
    assert reader.num_rows == 3000 and reader._magic_checked
    # The file arrived whole: reading it issues nothing further.
    result = reader.read_table()
    np.testing.assert_array_equal(result["id"], table["id"])
    assert len(store.gets) == 1 and source.counts["scan", "get_requests"] == 1

    shared = SharedSegmentStore({PATH: memoryview(data)})
    ColumnarFile(S3ObjectSource(shared, PATH))
    assert shared.request_counts == {"get": 1}


@pytest.mark.parametrize("checksum", [False, True], ids=["unchecked", "checked"])
@pytest.mark.parametrize(
    "break_even", [0.0, 0.5, 1.5], ids=["exact", "short", "covers-footer"]
)
def test_open_large_file_is_at_most_two_gets(checksum, break_even):
    table = _table()
    data = write_table(
        table, row_group_rows=500, compression=Compression.NONE, checksum=checksum
    )
    # The break-even hole as a share of what the open needs: footer and tail.
    footer_length = footer_bytes(data)
    gap_bytes = int(break_even * (footer_length + TAIL_BYTES))
    assert gap_bytes < len(data) // 4  # far from fetching the whole file
    store = recording_store(data)
    source = S3ObjectSource(store, PATH, bandwidth=model_with_gap(gap_bytes))
    reader = ColumnarFile(source)
    assert len(reader.metadata.pack()) == footer_length
    # A footer longer than the speculative read costs a second request —
    # never a third, and never one for the 4 magic bytes.
    expected = 1 if source.coalesce_gap >= footer_length + TAIL_BYTES else 2
    assert expected == (1 if break_even > 1 else 2)
    assert len(store.gets) == expected
    assert all(end - start > 4 for start, end, _ in store.gets)
    assert not reader._magic_checked
    assert reader.metadata.pack() == ColumnarFile.from_bytes(data).metadata.pack()
    # The magic is checked with the first data read that reaches offset 0.
    reader.prefetch(reader.row_groups[0], ["id"])
    assert reader._magic_checked
    np.testing.assert_array_equal(reader.read_table()["v"], table["v"])


def test_bad_leading_magic_is_caught_without_a_dedicated_get():
    data = bytearray(write_table(_table(), row_group_rows=500, compression=Compression.NONE))
    data[0] ^= 0xFF
    with pytest.raises(CorruptFileError) as caught:
        ColumnarFile(S3ObjectSource(recording_store(bytes(data)), PATH))  # whole-file open
    assert caught.value.layer == "lpq.magic"
    store = recording_store(bytes(data))
    reader = ColumnarFile(S3ObjectSource(store, PATH, bandwidth=EXACT))  # deferred
    with pytest.raises(CorruptFileError) as caught:
        reader.prefetch(reader.row_groups[0], ["id"])
    assert caught.value.layer == "lpq.magic"
    assert all(end - start > 4 for start, end, _ in store.gets)


def test_lazy_footer_builds_only_projected_chunk_metas(monkeypatch):
    # A memo of its own: an earlier reader of these bytes would hand this one
    # its shared, already built directory.
    monkeypatch.setattr(
        parquet, "_parse_footer",
        functools.lru_cache(maxsize=None)(parquet._parse_footer.__wrapped__),
    )
    data = write_table(_table(), row_group_rows=500)
    reader = ColumnarFile.from_bytes(data)
    group = reader.row_groups[0]
    metadata = reader.metadata
    # Opening parsed no chunk: the directory is one array over the footer bytes.
    assert metadata._directory == {}
    assert metadata.chunks.shape == (6, 3) and metadata.chunks.base is not None
    assert group.schema.names == ["id", "v", "k"]
    with pytest.raises(UnknownColumnError):
        group.column_meta("nope")
    assert metadata._directory == {}
    # One column's first use builds that column's list, for every row group.
    meta = group.column_meta("v")
    assert list(metadata._directory) == ["v"] and len(metadata._directory["v"]) == 6
    assert group.column_meta("v") is meta is metadata.column_metas("v")[0]
    assert (meta.column, meta.num_values, meta.crc is not None) == ("v", 500, True)
    # Serialising the parsed footer reproduces the stored one byte for byte.
    footer = reader.metadata.pack()
    assert data[-TAIL_BYTES - len(footer):-TAIL_BYTES] == footer
    assert group.total_compressed_size == sum(
        group.column_meta(name).compressed_size for name in group.schema.names
    )


# -- (d) answers do not depend on the plan ---------------------------------------------


@pytest.fixture(scope="module")
def tpch():
    env = repro.CloudEnvironment.create()
    lineitem = generate_lineitem_dataset(
        env.s3, scale_factor=0.002, num_files=4, row_group_rows=512, seed=7
    )
    orders = generate_orders_dataset(
        env.s3, scale_factor=0.002, num_files=2, row_group_rows=512, seed=7
    )
    return env, lineitem, orders


@pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
def test_sql_answers_identical_under_any_read_plan(tpch, mode):
    env, lineitem, orders = tpch
    default_model = env.bandwidth
    kwargs = {"max_parallel_invocations": 2} if mode == "processes" else {}
    answers = {}
    try:
        for label, model in (("exact", EXACT), ("default", default_model)):
            # The exact model replays the one-GET-per-chunk plan of the parent
            # commit; pool children always build the default model.
            env.bandwidth = model
            with repro.connect(env, execution_mode=mode, **kwargs) as session:
                session.register(lineitem).register(orders)
                for name, sql in (("q1", q.q1_sql), ("q6", q.q6_sql), ("q3", q.q3_sql)):
                    result = session.sql(sql())
                    answers[label, name] = (result.table, result.statistics.get_requests)
    finally:
        env.bandwidth = default_model
    for name in ("q1", "q6", "q3"):
        assert_bit_identical(answers["exact", name][0], answers["default", name][0], name)
        if mode != "processes":
            assert answers["default", name][1] < answers["exact", name][1]
    assert leaked_segments() == []


# -- (e) corruption of a merged response ---------------------------------------------------


def _truncate(result):
    return result.data[:-3]


def _flip_every_64th_byte(result):
    flipped = bytearray(result.data)
    for position in range(0, len(flipped), 64):
        flipped[position] ^= 0x5A
    return bytes(flipped)


@pytest.mark.parametrize(
    "corrupt, error", [(_truncate, CorruptFileError), (_flip_every_64th_byte, IntegrityError)],
    ids=["truncate", "bitflip"],
)
def test_corrupt_merged_response_raises_typed_chunk_error(corrupt, error):
    table = _table()
    data = write_table(table, row_group_rows=500, compression=Compression.NONE)
    store = recording_store(data)
    # A break-even just past footer + tail: the open fetches the footer and
    # less than the last row group, and a row group's three adjacent chunks
    # come back as one merged response.
    break_even = footer_bytes(data) + TAIL_BYTES + 8
    assert break_even < ColumnarFile.from_bytes(data).row_groups[-1].total_compressed_size
    scan = S3ScanOperator(store, [PATH], bandwidth=model_with_gap(break_even))
    chunks = scan.scan()
    first = next(chunks)
    np.testing.assert_array_equal(first["id"], table["id"][:500])
    assert len(store.gets) == 1 + 1  # open (tail + footer) + one merged batch
    store.corrupt = corrupt
    with pytest.raises(error) as caught:
        next(chunks)
    assert caught.value.layer == "lpq.chunk" and caught.value.key == PATH
    assert isinstance(caught.value, CorruptFileError)


def test_truncated_open_response_raises_typed_tail_error():
    data = write_table(_table(), row_group_rows=500)
    store = recording_store(data)
    original = ObjectStore.get_object

    def short_suffix(bucket, key, range_start=0, range_end=None, suffix_length=None):
        result = original(store, bucket, key, range_start, range_end, suffix_length)
        return type(result)(result.data[:-1], result.metadata, result.range_start,
                            result.range_end)

    store.get_object = short_suffix
    with pytest.raises(CorruptFileError) as caught:
        ColumnarFile(S3ObjectSource(store, PATH))
    assert caught.value.layer == "lpq.tail"


# -- (f) the scan_agg shape ----------------------------------------------------------------


def test_q1_worker_at_scan_agg_shape_pays_a_handful_of_round_trips():
    env = repro.CloudEnvironment.create()
    dataset = generate_lineitem_dataset(env.s3, scale_factor=0.05, num_files=8, seed=7)
    physical, _ = optimize(parse_sql(q.q1_sql(), q.tpch_catalog(lineitem=dataset.paths)))
    worker_plans = physical.base.worker_plans(8)
    assert all(len(plan.files) == 1 for plan in worker_plans)
    result = execute_worker_plan(worker_plans[0], env.s3)
    assert result.counters["scan", "rows_scanned"] > 30_000
    assert result.counters["scan", "get_requests"] <= 3
    assert result.download_seconds + result.metadata_seconds < 0.1
    # With a predicate the group is two batches, and an empty selection
    # skips the second one; with the exact model that is visible per group.
    file_path = worker_plans[0].files[0]
    never = S3ScanOperator(
        env.s3, [file_path], columns=["l_extendedprice"], predicate=col("l_quantity") < 0,
        bandwidth=EXACT,
    )
    assert list(never.scan()) == []
    groups = never.counters.row_groups_total
    assert never.counters.row_groups_shortcircuit_empty == groups
    assert never.counters.column_chunks_skipped == groups
    assert never.counts["scan", "get_requests"] == 2 + groups
