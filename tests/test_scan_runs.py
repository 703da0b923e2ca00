"""Row-group runs: a scan decodes consecutive row groups of a file at once.

The fused scan reads and parses each surviving row group as before, then, at
the end of a run, gathers each column once for the whole run.  These tests
hold the run kernels to the per-chunk kernels bit for bit, the run scan to a
scan of one row group per run end to end, and corrupt files to the same typed
errors, at the same row group, as a row-group-at-a-time scan.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import setup_functional_environment
from repro.engine import scan as scan_module
from repro.engine.pipeline import execute_worker_plan_table
from repro.engine.scan import S3ScanOperator
from repro.errors import CorruptFileError, IntegrityError
from repro.formats.encoding import (
    Encoding,
    decode_gather,
    encode_column,
    encoded_key_codes,
    gather_run,
    gather_run_codes,
    parse_encoded_chunk,
)
from repro.formats.compression import Compression
from repro.formats.parquet import _CHUNK, ColumnarFile, write_table
from repro.formats.schema import ColumnType
from repro.frontend.sql import parse_sql
from repro.plan.expressions import col
from repro.plan.optimizer import optimize
from repro.workload import queries as q
from tests.conformance import assert_bit_identical
from tests.test_parquet_format import resealed
from tests.test_scan_io_plan import EXACT, PATH, recording_store

# -- (a) the run kernels equal the per-chunk kernels, bit for bit ---------------------

_TYPES = [ColumnType.INT32, ColumnType.INT64, ColumnType.FLOAT64]
#: Value spans that narrow FOR to widths 0, 1, 2 and 4.
_SPANS = [0, 200, 60_000, 4_000_000_000]
_ENCODINGS = [
    None, Encoding.PLAIN, Encoding.FOR, Encoding.DELTA, Encoding.RLE, Encoding.DICTIONARY,
    "empty dictionary",
]


def _chunk(rng, column_type, encoding, span, rows, sort, decimals):
    if encoding == "empty dictionary":
        return parse_encoded_chunk(struct.pack("<I", 0), column_type, Encoding.DICTIONARY, 0)
    if column_type is ColumnType.INT32:
        span = min(span, 60_000)
    values = int(rng.integers(-1000, 1000)) + rng.integers(0, span + 1, rows)
    if sort:
        values = np.sort(values)
    if column_type is ColumnType.FLOAT64:
        # Scaled decimals narrow with exponent 2, whole numbers with 0.
        values = values / 100 if decimals else values.astype(np.float64)
    page = encode_column(values.astype(column_type.numpy_dtype), column_type, encoding)
    return parse_encoded_chunk(
        page.data, column_type, page.encoding, rows, page.width, page.exponent, page.base
    )


def _selection(rng, total, mode):
    if mode == "none":
        return None
    if mode == "empty":
        return np.zeros(0, dtype=np.intp)
    if mode == "full":
        return np.arange(total)
    return np.flatnonzero(rng.random(total) < rng.random())


def _per_chunk(chunks, selection):
    """Each chunk's own share of a run's selection."""
    starts = np.cumsum([0] + [chunk.num_values for chunk in chunks])
    if selection is None:
        return [None] * len(chunks)
    return [
        selection[(selection >= low) & (selection < high)] - low
        for low, high in zip(starts[:-1], starts[1:])
    ]


@settings(max_examples=200, deadline=None)
@given(
    column_type=st.sampled_from(_TYPES),
    shapes=st.lists(
        st.tuples(
            st.sampled_from(_ENCODINGS), st.sampled_from(_SPANS), st.integers(0, 300),
            st.booleans(), st.booleans(),
        ),
        min_size=1, max_size=40,
    ),
    uniform=st.booleans(),
    mode=st.sampled_from(["none", "empty", "partial", "full"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_gather_equals_per_chunk_gather(column_type, shapes, uniform, mode, seed):
    rng = np.random.default_rng(seed)
    if uniform:  # one encoding, span, order and decimal scale for the whole run
        shapes = [shapes[0][:2] + shape[2:3] + shapes[0][3:] for shape in shapes]
    chunks = [_chunk(rng, column_type, *shape) for shape in shapes]
    selection = _selection(rng, sum(chunk.num_values for chunk in chunks), mode)
    parts = _per_chunk(chunks, selection)

    expected = np.concatenate([decode_gather(chunk, part) for chunk, part in zip(chunks, parts)])
    gathered = gather_run(chunks, selection)
    assert gathered.dtype == expected.dtype
    assert gathered.tobytes() == expected.tobytes()

    codes = gather_run_codes(chunks, selection)
    per_chunk = [encoded_key_codes(chunk, part) for chunk, part in zip(chunks, parts)]
    if codes is None:
        # Some chunk has no codes, or merging would change a value's bits.
        assert None in per_chunk or column_type is ColumnType.FLOAT64
        return
    uniques, run_codes = codes
    assert run_codes.dtype == np.int64 and len(run_codes) == len(expected)
    assert np.all(uniques[1:] > uniques[:-1])
    assert uniques[run_codes].tobytes() == expected.tobytes()


def test_mixed_encodings_and_differing_dictionaries_take_their_paths():
    rng = np.random.default_rng(5)
    flags = [
        _chunk(rng, ColumnType.INT64, Encoding.DICTIONARY, 3, 100, False, False)
        for _ in range(4)
    ]
    assert len({chunk.dictionary.tobytes() for chunk in flags}) > 1
    selection = np.arange(0, 400, 3)
    expected = np.concatenate(
        [decode_gather(chunk, part) for chunk, part in zip(flags, _per_chunk(flags, selection))]
    )
    assert gather_run(flags, selection).tobytes() == expected.tobytes()
    uniques, codes = gather_run_codes(flags, selection)
    assert uniques[codes].tobytes() == expected.tobytes()
    # A plain chunk in the run: no codes, values chunk by chunk.
    mixed = flags[:2] + [_chunk(rng, ColumnType.INT64, Encoding.PLAIN, 3, 50, False, False)]
    assert gather_run_codes(mixed, None) is None
    assert gather_run(mixed, None).tobytes() == np.concatenate(
        [chunk.decode() for chunk in mixed]
    ).tobytes()


def test_zero_and_negative_zero_keys_are_not_merged():
    """``np.unique`` folds ``-0.0`` into ``0.0``: such a run keeps its keys as values."""
    chunks = [
        parse_encoded_chunk(encode_column(np.array([value, 1.0]), ColumnType.FLOAT64,
                                          Encoding.DICTIONARY).data,
                            ColumnType.FLOAT64, Encoding.DICTIONARY, 2)
        for value in (0.0, -0.0)
    ]
    assert gather_run_codes(chunks, None) is None
    assert gather_run(chunks, None).tobytes() == np.array([0.0, 1.0, -0.0, 1.0]).tobytes()


# -- (b) the run scan equals a scan of one row group per run ---------------------------


@pytest.fixture(scope="module")
def lineitem():
    env, dataset, _ = setup_functional_environment(
        scale_factor=0.002, num_files=2, row_group_rows=512
    )
    return env, dataset


def _worker_outputs(env, dataset):
    """Every Q1 and Q6 worker's result payload and table."""
    outputs = []
    for sql in (q.q1_sql, q.q6_sql):
        physical, _ = optimize(parse_sql(sql(), q.tpch_catalog(lineitem=dataset.paths)))
        for plan in physical.base.worker_plans(2):
            result, table = execute_worker_plan_table(plan, env.s3)
            outputs.append((result.to_payload(), table))
    return outputs


def _assert_same_outputs(left, right):
    assert len(left) == len(right)
    for (left_result, left_table), (right_result, right_table) in zip(left, right):
        assert left_result == right_result
        assert_bit_identical(left_table, right_table)


@pytest.mark.parametrize("run_rows", [1000, 1 << 16])
def test_runs_equal_one_row_group_at_a_time(lineitem, monkeypatch, run_rows):
    env, dataset = lineitem
    with monkeypatch.context() as patch:
        patch.setattr(scan_module, "RUN_ROWS", 1)  # every run is one row group
        by_group = _worker_outputs(env, dataset)
    monkeypatch.setattr(scan_module, "RUN_ROWS", run_rows)
    _assert_same_outputs(by_group, _worker_outputs(env, dataset))


def test_a_run_batch_counts_its_row_groups(lineitem, monkeypatch):
    env, dataset = lineitem
    monkeypatch.setattr(scan_module, "RUN_ROWS", 1024)  # two row groups of 512
    arguments = dict(
        columns=["l_returnflag", "l_quantity"], predicate=col("l_quantity") < 25
    )
    scan = S3ScanOperator(env.s3, dataset.paths[:1], **arguments)
    batches = list(scan.scan_fused(["l_returnflag"]))
    # Every row group keeps some row, so every run holds two of them.
    assert scan.counters.row_groups_scanned == 2 * len(batches)
    classic = [
        len(chunk["l_quantity"])
        for chunk in S3ScanOperator(env.s3, dataset.paths[:1], **arguments).scan()
    ]
    assert [list(batch.group_rows) for batch in batches] == [
        classic[index:index + 2] for index in range(0, len(classic), 2)
    ]
    for batch in batches:
        assert batch.num_rows == sum(batch.group_rows) == len(batch.values["l_quantity"])


# -- (c) typed errors, where a row-group-at-a-time scan raised them ---------------------


def _file(rows=3000):
    rng = np.random.default_rng(9)
    table = {
        "k": rng.integers(0, 5, rows).astype(np.int64),
        "v": np.round(rng.uniform(0, 100, rows), 2),
        "w": rng.integers(0, 1 << 30, rows).astype(np.int64),
    }
    return table, write_table(table, row_group_rows=500)


def _fused(store):
    # No break-even: one GET per chunk, so the GET log shows every step.
    scan = S3ScanOperator(store, [PATH], predicate=col("k") < 4, bandwidth=EXACT)
    return scan.scan_fused(["k"])


def _gets_through(gets, reader, index):
    """The GETs a scan had issued once it fetched all of row group ``index``."""
    group = reader.row_groups[index]
    last = max(
        meta.offset + meta.compressed_size - 1
        for meta in map(group.column_meta, reader.schema.names)
    )
    return gets[:next(
        position + 1 for position, (start, end, suffix) in enumerate(gets)
        if not suffix and start <= last < end
    )]


def test_a_flipped_byte_fails_the_crc_at_its_row_group_before_the_next_get():
    _, data = _file()
    clean = recording_store(data)
    list(_fused(clean))
    reader = ColumnarFile.from_bytes(data)
    meta = reader.row_groups[3].column_meta("v")
    broken = bytearray(data)
    broken[meta.offset + meta.compressed_size // 2] ^= 0x10
    store = recording_store(bytes(broken))
    with pytest.raises(IntegrityError) as caught:
        list(_fused(store))
    error = caught.value
    assert (error.layer, error.key, error.offset) == ("lpq.chunk", PATH, meta.offset)
    assert "'v' of row group 3" in str(error)
    # Raised after the row group's second batch, as the scan of one row group
    # at a time did: the next row group was never requested.
    assert store.gets == _gets_through(clean.gets, reader, 3)


def test_a_page_that_does_not_inflate_fails_typed_at_its_row_group(monkeypatch):
    monkeypatch.setattr(scan_module, "RUN_ROWS", 1000)  # runs of two row groups
    _, data = _file()
    clean = recording_store(data)
    list(_fused(clean))
    reader = ColumnarFile.from_bytes(data)
    # "w" (random 30-bit integers) does not deflate and is stored as encoded;
    # "v" (two-decimal prices at two bytes a value) still inflates.
    meta = reader.row_groups[2].column_meta("v")
    assert meta.compression is Compression.GZIP
    broken = bytearray(data)
    broken[meta.offset:meta.offset + 2] = b"\xff\xff"  # no zlib header
    # Its crc recomputed, so the inflate is what fails.
    store = recording_store(resealed(bytes(broken)))
    with pytest.raises(CorruptFileError) as caught:
        list(_fused(store))
    error = caught.value
    assert not isinstance(error, IntegrityError)
    assert (error.layer, error.key, error.offset) == ("lpq.chunk", PATH, meta.offset)
    assert "'v' of row group 2" in str(error)
    # Row groups 2 and 3 are one run, but the page is inflated as its row
    # group is read: nothing of row group 3 was requested.
    assert store.gets == _gets_through(clean.gets, reader, 2)


def test_a_page_of_the_wrong_length_fails_typed_at_the_page_layer():
    _, data = _file()
    _, length, magic = struct.unpack("<IQ4s", data[-16:])
    footer = bytearray(data[-16 - length:-16])
    groups, columns = 6, 3
    directory = np.frombuffer(
        footer, dtype=_CHUNK, offset=len(footer) - groups * columns * _CHUNK.itemsize
    ).reshape(groups, columns)
    directory["uncompressed_size"][1, 2] += 1  # row group 1, column "w"
    broken = resealed(data[:-16 - length] + bytes(footer) + data[-16:])
    with pytest.raises(CorruptFileError) as caught:
        list(_fused(recording_store(broken)))
    error = caught.value
    assert (error.layer, error.key) == ("lpq.page", PATH)
    assert "'w' of row group 1" in str(error) and "footer says" in str(error)
