"""Stored pages: byte-exact narrowing widths, each page in its smaller form,
and no read for a page the footer's statistics already answer.

* FOR / DELTA store 3-byte values (packed rows, widened to ``<u4`` as a page
  is parsed), in files and in exchange frames alike, and a run of chunks of
  widths 2, 3 and 4 gathers like its chunks one by one;
* the writer keeps a page compressed only where that is strictly smaller, so
  no file grows — and a page stored as encoded is still checked by its crc;
* the scan skips a comparison its row group's min/max prove and reads no page
  of a column that is one value throughout the group; statistics that do not
  pin the rows' values (NaN, an int64 beyond ±2**53, a float64 zero for a
  constant) decide nothing, and every answer is bit-identical to a scan that
  decides nothing.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import FusedBatchAccumulator
from repro.engine.scan import S3ScanOperator
from repro.errors import IntegrityError
from repro.exchange.codec import decode_partition, encode_partition
from repro.formats import encoding as encoding_module
from repro.formats import parquet
from repro.formats.compression import Compression, compress, decompress
from repro.formats.encoding import (
    Encoding,
    decode_gather,
    encode_column,
    gather_run,
    parse_encoded_chunk,
)
from repro.formats.parquet import ColumnarFile, ColumnarWriter, FileMetadata
from repro.formats.schema import ColumnType, Schema
from repro.plan.expressions import ColumnComparison, col
from repro.plan.logical import AggregateSpec
from repro.workload import tpch
from tests.test_exchange_wire_format import directory
from tests.test_scan_io_plan import EXACT, PATH, recording_store

_TYPES = [ColumnType.INT32, ColumnType.INT64, ColumnType.FLOAT64]
#: The spans at the edges of width 3: 2**16 is the first that needs it,
#: 2**24 - 1 the last it holds, 2**24 the first that needs 4 bytes.
_EDGES = [1 << 16, (1 << 24) - 1, 1 << 24]


def _width(span: int) -> int:
    return 3 if span < 1 << 24 else 4


def _values(rng, column_type, span, rows, steps, decimals):
    """``rows`` values whose FOR span (or, with ``steps``, largest DELTA step)
    is exactly ``span``, as ``column_type``."""
    if steps:
        deltas = rng.integers(0, span + 1, rows)
        deltas[0], deltas[rows // 2] = 0, span
        integers = int(rng.integers(-1000, 1000)) + np.cumsum(deltas)
    else:
        integers = int(rng.integers(-(1 << 20), 1 << 20)) + rng.integers(0, span + 1, rows)
        integers[rng.permutation(rows)[:2]] = integers.min(), integers.min() + span
    if column_type is ColumnType.FLOAT64:
        return integers / 100 if decimals else integers.astype(np.float64)
    return integers.astype(column_type.numpy_dtype)


# -- (a) width 3, in files and in frames ----------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    column_type=st.sampled_from(_TYPES),
    encoding=st.sampled_from([Encoding.FOR, Encoding.DELTA]),
    span=st.sampled_from(_EDGES),
    rows=st.integers(16, 600),
    group_rows=st.integers(16, 300),
    decimals=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_width_three_round_trips_in_files_and_frames(
    column_type, encoding, span, rows, group_rows, decimals, seed
):
    rng = np.random.default_rng(seed)
    values = _values(rng, column_type, span, rows, encoding is Encoding.DELTA, decimals)
    schema = Schema.from_pairs([("v", column_type)])

    # A file, every row group narrowed with exactly this encoding.
    data = ColumnarWriter(schema, row_group_rows=group_rows, encodings={"v": encoding}).write(
        {"v": values}
    )
    reader = ColumnarFile.from_bytes(data)
    assert reader.read_table()["v"].tobytes() == values.tobytes()
    whole = encode_column(values, column_type, encoding)
    if whole.encoding is encoding:
        # Narrowed as a whole: its width is the one the span needs.
        assert whole.width == _width(span)
        assert len(whole.data) == whole.width * rows
    for group in reader.row_groups:
        meta = group.column_meta("v")
        assert meta.width in (0, 1, 2, 3, 4)
        if meta.encoding is encoding:
            assert meta.uncompressed_size == meta.width * group.num_rows

    # A frame chooses for itself; whatever it chose decodes bit for bit.
    frame = encode_partition({"v": values})
    assert decode_partition(frame)["v"].tobytes() == values.tobytes()
    chosen, width, _ = directory(frame)["v"]
    if encoding is Encoding.FOR and chosen == Encoding.FOR.value:
        assert width == _width(span)


@settings(max_examples=120, deadline=None)
@given(
    column_type=st.sampled_from([ColumnType.INT64, ColumnType.FLOAT64]),
    encoding=st.sampled_from([Encoding.FOR, Encoding.DELTA]),
    spans=st.lists(st.sampled_from([60_000, (1 << 24) - 1, 1 << 24, 1 << 30]),
                   min_size=2, max_size=8),
    rows=st.integers(1, 200),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_runs_of_mixed_widths_gather_like_their_chunks(
    column_type, encoding, spans, rows, density, seed
):
    rng = np.random.default_rng(seed)
    chunks = []
    for span in spans:
        values = _values(rng, column_type, span, max(rows, 2), encoding is Encoding.DELTA, True)
        page = encode_column(values, column_type, encoding)
        chunks.append(parse_encoded_chunk(
            page.data, column_type, page.encoding, len(values),
            page.width, page.exponent, page.base,
        ))
    assert {chunk.stored.dtype.itemsize for chunk in chunks if chunk.stored is not None} <= {
        2, 4,
    }  # width 3 is widened to <u4 at parse
    starts = np.cumsum([0] + [chunk.num_values for chunk in chunks])
    selection = np.flatnonzero(rng.random(starts[-1]) < density)
    expected = np.concatenate([
        decode_gather(chunk, selection[(selection >= low) & (selection < high)] - low)
        for chunk, low, high in zip(chunks, starts[:-1], starts[1:])
    ])
    gathered = gather_run(chunks, selection)
    assert gathered.dtype == expected.dtype
    assert gathered.tobytes() == expected.tobytes()
    assert gather_run(chunks, None).tobytes() == np.concatenate(
        [chunk.decode() for chunk in chunks]
    ).tobytes()


# -- (b) each page is stored in its smaller form -------------------------------------

_RELATIONS = {
    "lineitem": (tpch.LineitemGenerator, tpch.LINEITEM_SCHEMA),
    "orders": (tpch.OrdersGenerator, tpch.ORDERS_SCHEMA),
    "part": (tpch.PartGenerator, tpch.PART_SCHEMA),
    "customer": (tpch.CustomerGenerator, tpch.CUSTOMER_SCHEMA),
    "supplier": (tpch.SupplierGenerator, tpch.SUPPLIER_SCHEMA),
    "nation": (tpch.NationGenerator, tpch.NATION_SCHEMA),
    "region": (tpch.RegionGenerator, tpch.REGION_SCHEMA),
}


def _pages(data: bytes):
    """``(meta, encoded page)`` of every column chunk of a file."""
    reader = ColumnarFile.from_bytes(data)
    for group in reader.row_groups:
        for name in reader.schema.names:
            meta = group.column_meta(name)
            stored = data[meta.offset:meta.offset + meta.compressed_size]
            yield meta, decompress(stored, meta.compression)


def _all_gzip_size(data: bytes) -> int:
    """The file's size with every page stored GZIP, as the writer once did."""
    pages = list(_pages(data))
    return (
        len(data) - sum(meta.compressed_size for meta, _ in pages)
        + sum(len(compress(page, Compression.GZIP)) for _, page in pages)
    )


@pytest.mark.parametrize("scale_factor", [0.002, 0.05])
@pytest.mark.parametrize("relation", sorted(_RELATIONS))
def test_no_file_is_larger_than_its_all_gzip_form(relation, scale_factor, monkeypatch):
    generator, schema = _RELATIONS[relation]
    table = generator(scale_factor=scale_factor, seed=7).generate()
    data = ColumnarWriter(schema).write(table)
    for meta, page in _pages(data):
        deflated = len(compress(page, Compression.GZIP))
        assert meta.uncompressed_size == len(page)
        assert meta.compressed_size == min(deflated, len(page))
        assert meta.compression is (
            Compression.GZIP if deflated < len(page) else Compression.NONE
        )
    assert len(data) <= _all_gzip_size(data)
    # Nor than the all-GZIP file of the widths before width 3 (1, 2, 4).
    monkeypatch.setattr(encoding_module, "_LIMITS", np.array(
        [0, 0xFF, 0xFFFF, 0xFFFFFFFF], dtype=np.uint64
    ))
    monkeypatch.setattr(encoding_module, "_WIDTHS", np.array([0, 1, 2, 4, 8], dtype=np.uint8))
    assert len(data) <= _all_gzip_size(ColumnarWriter(schema).write(table))


def _incompressible_file():
    rng = np.random.default_rng(3)
    table = {
        "k": rng.integers(0, 4, 3000).astype(np.int64),
        "w": rng.integers(0, 1 << 30, 3000).astype(np.int64),
    }
    return table, ColumnarWriter(Schema.from_table(table), row_group_rows=500).write(table)


def test_a_bit_flip_in_a_page_stored_as_encoded_fails_its_crc_at_its_row_group():
    table, data = _incompressible_file()
    reader = ColumnarFile.from_bytes(data)
    meta = reader.row_groups[2].column_meta("w")
    assert meta.compression is Compression.NONE
    assert meta.compressed_size == meta.uncompressed_size == 4 * 500
    broken = bytearray(data)
    broken[meta.offset + 123] ^= 0x04
    scan = S3ScanOperator(recording_store(bytes(broken)), [PATH], predicate=col("k") < 3)
    with pytest.raises(IntegrityError) as caught:
        list(scan.scan_fused(["k"]))
    error = caught.value
    assert (error.layer, error.key, error.offset) == ("lpq.chunk", PATH, meta.offset)
    assert (error.expected, error.actual) == (
        meta.crc, zlib.crc32(bytes(broken[meta.offset:meta.offset + meta.compressed_size]))
    )
    assert "'w' of row group 2" in str(error)


# -- (c) pages the statistics answer are not read -------------------------------------


def _metadata(table, group_rows):
    return ColumnarFile.from_bytes(
        ColumnarWriter(Schema.from_table(table), row_group_rows=group_rows).write(table)
    ).metadata


def test_statistics_that_do_not_pin_the_values_decide_nothing():
    big = 1 << 53
    table = {
        # group 0: NaN among numbers; group 1: all NaN; group 2: 2.5 throughout
        "f": np.array([1.0, np.nan, 3.0, np.nan, np.nan, np.nan, 2.5, 2.5, 2.5]),
        # groups of 0.0 and -0.0: equal statistics, unknown bits
        "z": np.array([0.0, -0.0, 0.0, -0.0, -0.0, -0.0, 0.0, 0.0, 0.0]),
        # beyond 2**53 float64 statistics round: big + 1 and big + 2 both read big
        "i": np.array([big + 1, big + 2, big + 1, big + 1, big + 1, big + 1, 5, 5, 5]),
    }
    metadata = _metadata(table, 3)
    constant = metadata.constant_groups(["f", "z", "i"])
    assert constant.tolist() == [
        [False, False, False], [False, False, False], [True, False, True],
    ]
    proven = metadata.proven_comparisons([
        ColumnComparison("f", "<", 10.0), ColumnComparison("f", "!=", 7.0),
        ColumnComparison("i", ">", 0), ColumnComparison("i", "==", big + 1),
        ColumnComparison("i", "<", big * 4), ColumnComparison("f", ">", float("nan")),
        ColumnComparison("missing", "<", 1),
    ])
    assert proven.tolist() == [
        [False, False, False, False, False, False, False],
        [False, False, False, False, False, False, False],
        [True, True, True, False, False, False, False],
    ]
    # A comparison treats -0.0 as 0.0 on both sides, so zeros still prove it.
    assert metadata.proven_comparisons([ColumnComparison("z", "==", 0.0)]).all()


def _fused_answer(store, columns, predicate, group_by, aggregates):
    """Every fused batch of a scan (keys materialised), its partial aggregates,
    its GETs (no break-even: one a batch) and its counters."""
    scan = S3ScanOperator(store, [PATH], columns=columns, predicate=predicate, bandwidth=EXACT)
    batches = list(scan.scan_fused(group_by))
    accumulator = FusedBatchAccumulator(group_by, aggregates)
    for batch in batches:
        accumulator.add(batch)
    rows = [
        (
            batch.num_rows, list(batch.group_rows),
            {name: batch.values[name].tobytes() for name in batch.values},
            {name: batch.materialize_key(name).tobytes() for name in group_by},
        )
        for batch in batches
    ]
    partials = [
        {name: (np.asarray(column).dtype.str, np.asarray(column).tobytes())
         for name, column in table.items()}
        for table in accumulator.finish()
    ]
    return rows, partials, scan.counts["scan", "get_requests"], scan.counters


def _undecided(monkeypatch):
    """Statistics decide nothing: every comparison evaluated, every page read.

    Footers parse into a memo of their own, so no file's kept decisions
    stand in for the patched ones and none of these is kept afterwards.
    """
    monkeypatch.setattr(
        parquet, "_parse_footer",
        functools.lru_cache(maxsize=None)(parquet._parse_footer.__wrapped__),
    )
    monkeypatch.setattr(
        FileMetadata, "proven_comparisons",
        lambda self, comparisons: np.zeros((len(self.row_groups), len(comparisons)), bool),
    )
    monkeypatch.setattr(
        FileMetadata, "constant_groups",
        lambda self, columns: np.zeros((len(self.row_groups), len(columns)), bool),
    )


_OPS = ["==", "!=", "<", "<=", ">", ">="]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    group_rows=st.sampled_from([64, 128, 300]),
    ops=st.lists(st.sampled_from(_OPS), min_size=1, max_size=3),
    keyed=st.booleans(),
)
def test_decided_scans_answer_bit_for_bit_like_undecided_ones(seed, group_rows, ops, keyed):
    rng = np.random.default_rng(seed)
    rows = 900
    block = np.arange(rows) // group_rows
    table = {
        # Constant in most row groups, a mix of two values in some.
        "key": np.where(rng.random(block.max() + 1)[block] < 0.7,
                        block % 3, rng.integers(0, 2, rows)).astype(np.int64),
        # Signed zeros, NaN and constants, group by group.
        "flt": np.select(
            [block % 4 == 0, block % 4 == 1, block % 4 == 2],
            [np.where(rng.random(rows) < 0.5, -0.0, 0.0), np.full(rows, 7.25),
             np.where(rng.random(rows) < 0.1, np.nan, 1.5)],
            rng.integers(0, 100, rows) / 4,
        ),
        "big": np.where(block % 2 == 0, (1 << 53) + rng.integers(1, 3, rows),
                        rng.integers(0, 10, rows)).astype(np.int64),
        "val": np.round(rng.uniform(0, 1000, rows), 2),
    }
    data = ColumnarWriter(Schema.from_table(table), row_group_rows=group_rows).write(table)
    predicate = None
    for op in ops:
        column = str(rng.choice(["key", "flt", "big", "val"]))
        value = table[column][int(rng.integers(rows))].item()
        conjunct = {
            "==": col(column) == value, "!=": col(column) != value,
            "<": col(column) < value, "<=": col(column) <= value,
            ">": col(column) > value, ">=": col(column) >= value,
        }[op]
        predicate = conjunct if predicate is None else predicate & conjunct
    group_by = ["key", "flt"] if keyed else []
    aggregates = [AggregateSpec("sum", col("val"), "s"), AggregateSpec("count", None, "n")]
    columns = ["key", "flt", "val", "big"]

    decided = _fused_answer(recording_store(data), columns, predicate, group_by, aggregates)
    with pytest.MonkeyPatch.context() as patch:
        _undecided(patch)
        undecided = _fused_answer(recording_store(data), columns, predicate, group_by, aggregates)
    assert decided[:2] == undecided[:2]
    assert decided[2] <= undecided[2]  # never more GETs


def test_a_constant_group_key_and_proven_comparisons_read_no_page(monkeypatch):
    rows = 4096
    table = {
        "flag": np.repeat(np.array([1, 2], dtype=np.int64), rows // 2),  # constant per group
        "day": np.repeat(np.arange(8, dtype=np.int32), rows // 8),  # one day a group
        "val": np.round(np.random.default_rng(1).uniform(0, 100, rows), 2),
    }
    data = ColumnarWriter(Schema.from_table(table), row_group_rows=512).write(table)
    predicate = (col("day") != 9) & (col("flag") >= 1)
    aggregates = [AggregateSpec("sum", col("val"), "s")]
    reads = []
    original = ColumnarFile.read_encoded_chunk

    def counted(self, group, column):
        reads.append(column)
        return original(self, group, column)

    monkeypatch.setattr(ColumnarFile, "read_encoded_chunk", counted)
    decided = _fused_answer(recording_store(data), ["flag", "val"], predicate, ["flag"], aggregates)
    # Both comparisons hold throughout every group, and "flag" is one value
    # in each: only "val" is read, and no group needs a selection vector.
    assert reads == ["val"] * 8
    assert decided[3].row_groups_shortcircuit_full == 8
    reads.clear()
    _undecided(monkeypatch)
    undecided = _fused_answer(
        recording_store(data), ["flag", "val"], predicate, ["flag"], aggregates
    )
    assert sorted(set(reads)) == ["day", "flag", "val"]
    assert decided[:2] == undecided[:2]
    assert decided[2] < undecided[2]
