"""The per-page read path: page directory, prefetch, mapper runs, call budget.

A page (one column chunk) costs a directory entry, the source's span lookup,
crc, inflate, length check and parse.  These tests pin the bookkeeping around
the last four, bit for bit:

* each column's page directory (:meth:`FileMetadata.column_metas`) equals,
  field for field, a :class:`ColumnChunkMeta` built from ``chunks[g, c]``, and
  :meth:`ColumnarFile.read_encoded_chunk` gives the views a direct parse of
  the page bytes gives;
* :meth:`S3ObjectSource.prefetch` issues, bills and times exactly the GETs of
  :meth:`read_ranges` on the same batch, and none for a batch inside the open
  tail;
* a join mapper without a group-by emits the rows of the row-group-by-row-group
  scan, gathered by runs;
* a Q1-shaped scan of one ``scan_agg`` file stays under a ceiling of
  ``repro`` Python calls per page (a deterministic count, not a timing).
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import sys
from collections import Counter
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cloud.lambda_service import FunctionConfig, InvocationContext
from repro.counters import Counts
from repro.driver import worker
from repro.engine.s3io import S3ObjectSource
from repro.engine.scan import S3ScanOperator, ScanConfig
from repro.engine.table import concat_tables, table_num_rows
from repro.formats.compression import COMPRESSION_BY_ID, Compression, decompress
from repro.formats.encoding import EncodedChunk, Encoding, parse_encoded_chunk
from repro.formats.parquet import ColumnarFile, ColumnChunkMeta, write_table
from repro.formats.schema import ColumnType, Field, Schema
from repro.frontend.sql import parse_sql
from repro.plan.expressions import col
from repro.plan.optimizer import optimize
from repro.plan.physical import WorkerPlan
from repro.workload import queries as q
from repro.workload import tpch

from tests.test_scan_io_plan import PATH, model_with_gap, recording_store

# -- (a) the per-column page directory -------------------------------------------------

_FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)


@st.composite
def _tables(draw) -> Tuple[Dict[str, np.ndarray], int]:
    rows = draw(st.integers(1, 200))
    # Several group sizes, most with a short last group.
    group_rows = draw(st.sampled_from([1, 7, 16, 64, rows, rows + 5]))
    ints = st.integers(-(2 ** 31), 2 ** 31 - 1)
    narrow = st.integers(0, 9)  # repeats: dictionary / FOR pages
    table = {
        "i32": np.array(draw(st.lists(st.one_of(narrow, ints), min_size=rows, max_size=rows)),
                        dtype=np.int32),
        "i64": np.array(draw(st.lists(st.integers(-(2 ** 62), 2 ** 62), min_size=rows,
                                      max_size=rows)), dtype=np.int64),
        "f64": np.array(draw(st.lists(st.one_of(_FLOATS, st.sampled_from([0.25, 1.5])),
                                      min_size=rows, max_size=rows)), dtype=np.float64),
    }
    return table, group_rows


def _same(actual, expected) -> bool:
    """Equal in type and value; floats compared by their bits (NaN == NaN)."""
    if type(actual) is not type(expected):
        return False
    if isinstance(actual, float):
        return struct.pack("<d", actual) == struct.pack("<d", expected)
    if isinstance(actual, np.ndarray):
        return actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()
    return actual == expected


@settings(max_examples=60, deadline=None)
@given(
    drawn=_tables(),
    compression=st.sampled_from(list(Compression)),
    checksum=st.booleans(),
)
def test_page_directory_matches_a_per_entry_build(drawn, compression, checksum):
    table, group_rows = drawn
    schema = Schema([Field("i32", ColumnType.INT32), Field("i64", ColumnType.INT64),
                     Field("f64", ColumnType.FLOAT64)])
    data = write_table(table, schema, row_group_rows=group_rows, compression=compression,
                       checksum=checksum)
    reader = ColumnarFile.from_bytes(data)
    metadata = reader.metadata
    assert len(reader.row_groups) == math.ceil(len(table["i32"]) / group_rows)
    for position, field_ in enumerate(schema):
        metas = metadata.column_metas(field_.name)
        assert len(metas) == len(reader.row_groups)
        for group in reader.row_groups:
            (offset, compressed_size, uncompressed_size, num_values, encoding, width,
             exponent, codec, base, low, high, crc) = metadata.chunks[group.index, position].item()
            expected = ColumnChunkMeta(
                field_.name, field_.type, Encoding(encoding), COMPRESSION_BY_ID[codec],
                offset, compressed_size, uncompressed_size, num_values, low, high,
                crc if checksum else None, width, exponent, base,
            )
            meta = group.column_meta(field_.name)
            assert meta is metas[group.index]
            for name in ColumnChunkMeta._fields:
                assert _same(getattr(meta, name), getattr(expected, name)), name

            # The read path's views are a direct parse of the page bytes.
            page = decompress(data[offset:offset + compressed_size], expected.compression)
            direct = parse_encoded_chunk(
                page, expected.type, expected.encoding, num_values, width, exponent, base
            )
            chunk = reader.read_encoded_chunk(group, field_.name)
            for slot in dataclasses.fields(EncodedChunk):
                got, want = getattr(chunk, slot.name), getattr(direct, slot.name)
                assert (got is None and want is None) or _same(got, want), slot.name
            assert _same(chunk.decode(), direct.decode())
        decoded = reader.read_table([field_.name])[field_.name]
        np.testing.assert_array_equal(decoded, table[field_.name])


def test_encoded_chunks_have_no_instance_dict():
    chunk = parse_encoded_chunk(np.arange(4, dtype=np.int64).tobytes(), ColumnType.INT64,
                                Encoding.PLAIN, 4)
    assert not hasattr(chunk, "__dict__")
    with pytest.raises(AttributeError):
        chunk.extra = 1


# -- (b) prefetch accounting -----------------------------------------------------------

DATA = bytes(range(256)) * 12  # 3072 bytes


def _source(data: bytes = DATA):
    """A source over ``data`` whose open fetched its last 300 bytes."""
    store = recording_store(data)
    source = S3ObjectSource(store, PATH, chunk_bytes=300, bandwidth=model_with_gap(500))
    source.size()  # the open
    return store, source


def _tail_start(store) -> int:
    ((start, _, suffix),) = store.gets[:1]
    assert suffix
    return start


def _accounting(store, source):
    return (list(store.gets), dict(source.counts), source.transfer_seconds)


def test_prefetch_inside_the_open_tail_issues_nothing_and_drops_the_last_batch():
    store, source = _source()
    tail_start = _tail_start(store)
    assert tail_start == len(DATA) - 300
    source.prefetch([(10, 50)])
    before = _accounting(store, source)
    assert len(before[0]) == 2  # the open + one GET
    assert source.read_at(10, 50) == DATA[10:60]
    assert _accounting(store, source) == before  # served from the batch

    source.prefetch([(tail_start, 40), (len(DATA) - 30, 30)])
    assert _accounting(store, source) == before
    assert source.read_at(tail_start, 40) == DATA[tail_start:tail_start + 40]
    assert _accounting(store, source) == before
    # The previous batch's span is gone: reading it again costs a GET.
    assert source.read_at(10, 50) == DATA[10:60]
    assert len(store.gets) == len(before[0]) + 1
    assert source.prefetch([]) is None


def _planned_gets(source, ranges, tail_start: int) -> List[Tuple[int, int]]:
    """The read plan, restated: ranges starting before the tail, sorted,
    merged through holes under the break-even, split at ``chunk_bytes``."""
    merged: List[List[int]] = []
    for offset, length in sorted(pair for pair in ranges if pair[0] < tail_start):
        end = min(offset + length, len(DATA))
        if end <= offset:
            continue
        if merged and offset - merged[-1][1] < source.coalesce_gap:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([offset, end])
    step = source.chunk_bytes
    return [(at, min(at + step, end)) for start, end in merged for at in range(start, end, step)]


@settings(max_examples=150, deadline=None)
@given(
    ranges=st.lists(st.tuples(st.integers(0, 3200), st.integers(0, 900)), max_size=10),
    earlier=st.lists(st.tuples(st.integers(0, 3200), st.integers(0, 900)), max_size=3),
)
def test_prefetch_bills_exactly_what_read_ranges_bills(ranges, earlier):
    # Outside the tail, inside it and mixed: the planned GETs, billed as one
    # transfer, and the same GETs, bytes and seconds as read_ranges.
    store_a, prefetching = _source()
    store_b, reading = _source()
    for source in (prefetching, reading):
        source.prefetch(earlier)
    gets, seconds = len(store_a.gets), prefetching.transfer_seconds
    requests, nbytes = (prefetching.counts["scan", name] for name in ("get_requests", "bytes_read"))
    prefetching.prefetch(ranges)
    fetched = [(start, end) for start, end, _ in store_a.gets[gets:]]
    assert fetched == _planned_gets(prefetching, ranges, _tail_start(store_a))
    fetched_bytes = sum(end - start for start, end in fetched)
    assert prefetching.counts["scan", "get_requests"] == requests + len(fetched)
    assert prefetching.counts["scan", "bytes_read"] == nbytes + fetched_bytes
    assert prefetching.transfer_seconds == seconds + (
        prefetching._transfer_seconds(len(fetched), fetched_bytes) if fetched else 0.0
    )
    answers = [prefetching.read_at(offset, length) for offset, length in ranges]
    assert reading.read_ranges(ranges) == answers == [DATA[o:o + n] for o, n in ranges]
    assert _accounting(store_a, prefetching) == _accounting(store_b, reading)


def test_a_mixed_batch_fetches_only_what_lies_before_the_tail():
    store, source = _source()
    tail_start = _tail_start(store)
    batch = [(tail_start + 10, 20), (100, 40), (len(DATA) - 5, 5), (120, 30)]
    source.prefetch(batch)
    assert [(start, end) for start, end, _ in store.gets[1:]] == [(100, 150)]
    opened = list(store.gets)
    assert [source.read_at(o, n) for o, n in batch] == [DATA[o:o + n] for o, n in batch]
    assert store.gets == opened


def test_free_sources_prefetch_nothing():
    reader = ColumnarFile.from_bytes(write_table({"v": np.arange(10)}, row_group_rows=4))
    assert reader.source.prefetch([(0, 4), (4, 100)]) is None
    assert reader.source.read_ranges([(0, 4)]) == [b"LPQ3"]


# -- (c) join mappers gather by runs ---------------------------------------------------

SF = 0.01
SEED = 7
RELATIONS = {
    "lineitem": tpch.generate_lineitem_dataset,
    "orders": tpch.generate_orders_dataset,
    "customer": tpch.generate_customer_dataset,
    "supplier": tpch.generate_supplier_dataset,
    "nation": tpch.generate_nation_dataset,
    "region": tpch.generate_region_dataset,
}


@pytest.fixture(scope="module")
def stack():
    env = repro.CloudEnvironment.create(region="eu")
    files = {"lineitem": {"num_files": 8}, "orders": {"num_files": 4}}
    datasets = {
        relation: write(env.s3, scale_factor=SF, seed=SEED, **files.get(relation, {}))
        for relation, write in RELATIONS.items()
    }
    return env, datasets


def _reference(env, side_plan: WorkerPlan, memory_mib: int) -> Tuple[Dict, S3ScanOperator]:
    """The pre-run mapper: one table per row group, concatenated."""
    scan = S3ScanOperator(
        env.s3, files=side_plan.files, columns=side_plan.columns or None,
        prune_ranges=side_plan.prune_ranges, config=ScanConfig(memory_mib=memory_mib),
        bandwidth=env.bandwidth, predicate=side_plan.predicate,
    )
    return concat_tables(list(scan.scan())), scan


def _assert_bits(actual: Dict, expected: Dict) -> None:
    assert list(actual) == list(expected)
    for name in expected:
        assert _same(actual[name], expected[name]), name


def _capture_emits(monkeypatch) -> List[Tuple[Dict, Dict, Counts]]:
    emitted: List[Tuple[Dict, Dict, Counts]] = []
    original = worker._emit

    def recording(env, event, sender, rows, keys, num_partitions, tag, counts, integrity):
        if "plan" in event:  # a scan-wave mapper
            emitted.append((event, rows, Counts(counts)))
        return original(env, event, sender, rows, keys, num_partitions, tag, counts, integrity)

    monkeypatch.setattr(worker, "_emit", recording)
    return emitted


def test_join_mappers_emit_the_row_group_scans_rows(stack, monkeypatch):
    env, datasets = stack
    emitted = _capture_emits(monkeypatch)
    with repro.connect(env) as session:
        for dataset in datasets.values():
            session.register(dataset)
        for sql in (q.q3_sql(), q.q5_sql()):
            session.sql(sql)
    fragment = lambda event: WorkerPlan.from_dict(event["plan"])  # noqa: E731
    row_mappers = [item for item in emitted if not fragment(item[0]).group_by]
    assert len(row_mappers) >= 8
    assert any(len(fragment(event).files) > 1 for event, _, _ in row_mappers)
    for event, rows, counts in row_mappers:
        expected, scan = _reference(env, fragment(event), 2048)
        _assert_bits(rows, expected)
        assert counts["scan", "rows_scanned"] == scan.counters.rows_scanned
        assert counts["scan", "rows_after_filter"] == table_num_rows(expected)
        assert counts["scan", "get_requests"] == scan.counts["scan", "get_requests"]


def test_a_predicate_that_empties_a_whole_run(stack, monkeypatch):
    env, datasets = stack
    paths = datasets["lineitem"].paths
    # The files are laid out by ship date.  No prune range: every row group
    # of the first file is read and rejected by its selection vector, so its
    # one run is empty; the other two are filtered row by row.
    first = ColumnarFile(S3ObjectSource(env.s3, paths[0]))
    last_day = first.metadata.column_ranges()["l_shipdate"][1]
    side_plan = WorkerPlan(
        files=paths[:3], key="l_orderkey",
        columns=["l_orderkey", "l_extendedprice", "l_shipdate"],
        predicate=(col("l_shipdate") > last_day) & (col("l_orderkey") > 30000),
    )
    event = {
        "plan": side_plan.to_dict(), "query_id": "runs", "worker_id": 0, "side": "L",
        "attempt": 0, "num_partitions": 2, "result_queue": "unused",
    }
    emitted: List[Tuple[Dict, Counts]] = []
    monkeypatch.setattr(worker, "_emit", lambda env, event, sender, rows, keys, parts, tag,
                        counts, integrity: emitted.append((rows, Counts(counts))) or {})
    monkeypatch.setattr(worker, "post_result", lambda *args, **kwargs: None)
    handler = worker.make_worker_handler(env)
    handler(event, InvocationContext(FunctionConfig(name="map", memory_mib=2048), 0, False))
    ((rows, counts),) = emitted

    expected, scan = _reference(env, side_plan, 2048)
    assert scan.counters.row_groups_shortcircuit_empty >= len(first.row_groups)
    assert 0 < table_num_rows(expected) < scan.counters.rows_scanned
    _assert_bits(rows, expected)
    assert counts["scan", "rows_scanned"] == scan.counters.rows_scanned
    assert counts["scan", "rows_after_filter"] == table_num_rows(expected)


# -- (d) the page budget ---------------------------------------------------------------

#: ``repro`` Python calls of the Q1-shaped scan below: every call event whose
#: code lives under ``repro/`` (functions, methods, generator resumptions).
#: It read 2 468 on CPython 3.11 while the scan read all 133 of its pages
#: (budgeted then at 18.6 calls a page); with the pages its row groups'
#: statistics answer left unread it reads 1 949 for 95 pages.  A page or row
#: group that costs more Python than its directory entry, span lookup and
#: parse shows here first.
CALLS_CEILING = 1960


def _count_repro_calls(run) -> Counter:
    marker = os.sep + "repro" + os.sep
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and marker in frame.f_code.co_filename:
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_a_q1_scan_stays_inside_its_page_budget():
    env = repro.CloudEnvironment.create()
    dataset = tpch.generate_lineitem_dataset(env.s3, scale_factor=0.05, num_files=8, seed=7)
    physical, _ = optimize(parse_sql(q.q1_sql(), q.tpch_catalog(lineitem=dataset.paths)))
    plan = physical.base.worker_plans(8)[0]
    assert len(plan.files) == 1

    def scan_once():
        scan = S3ScanOperator(
            env.s3, files=plan.files, columns=plan.columns, prune_ranges=plan.prune_ranges,
            predicate=plan.predicate,
        )
        for _ in scan.scan_fused(plan.group_by):
            pass

    scan_once()  # imports and first-use caches
    calls = _count_repro_calls(scan_once)
    pages = calls["read_encoded_chunk"]
    assert pages == calls["parse_encoded_chunk"] > 80
    assert sum(calls.values()) <= CALLS_CEILING, calls.most_common(12)
