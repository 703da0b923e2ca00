"""Tests for the LPQ columnar file format (writer, reader, pruning)."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptFileError, IntegrityError, UnknownColumnError
from repro.formats.compression import Compression
from repro.formats.encoding import Encoding
from repro.formats.parquet import (
    _CHUNK,
    CHECKED_MAGIC,
    MAGIC,
    ColumnarFile,
    ColumnarWriter,
    FileMetadata,
    write_table,
)
from repro.formats.schema import ColumnType, Schema
from repro.formats.source import BytesSource


@pytest.fixture
def sample_table():
    rng = np.random.default_rng(3)
    n = 5000
    return {
        "id": np.arange(n, dtype=np.int64),
        "group": (np.arange(n, dtype=np.int32) // 100),
        "value": rng.random(n),
    }


def test_roundtrip_all_columns(sample_table):
    data = write_table(sample_table, row_group_rows=512)
    reader = ColumnarFile.from_bytes(data)
    result = reader.read_table()
    for name, column in sample_table.items():
        np.testing.assert_array_equal(result[name], column)


def test_roundtrip_preserves_dtypes(sample_table):
    data = write_table(sample_table, row_group_rows=512)
    result = ColumnarFile.from_bytes(data).read_table()
    assert result["id"].dtype == np.dtype("int64")
    assert result["group"].dtype == np.dtype("int32")
    assert result["value"].dtype == np.dtype("float64")


def test_row_group_count_and_sizes(sample_table):
    data = write_table(sample_table, row_group_rows=512)
    reader = ColumnarFile.from_bytes(data)
    assert reader.num_rows == 5000
    assert len(reader.row_groups) == 10  # ceil(5000 / 512)
    assert sum(group.num_rows for group in reader.row_groups) == 5000


def test_projection_reads_only_requested_columns(sample_table):
    data = write_table(sample_table, row_group_rows=1024)
    reader = ColumnarFile.from_bytes(data)
    result = reader.read_table(columns=["value"])
    assert list(result.keys()) == ["value"]
    np.testing.assert_array_equal(result["value"], sample_table["value"])


def test_min_max_statistics_are_correct(sample_table):
    data = write_table(sample_table, row_group_rows=1000)
    reader = ColumnarFile.from_bytes(data)
    for group in reader.row_groups:
        start = group.index * 1000
        end = start + group.num_rows
        meta = group.column_meta("id")
        assert meta.min_value == start
        assert meta.max_value == end - 1


def test_prune_row_groups_on_sorted_column(sample_table):
    data = write_table(sample_table, row_group_rows=1000)
    reader = ColumnarFile.from_bytes(data)
    surviving = reader.prune_row_groups("id", lower=2500, upper=3200)
    assert [group.index for group in surviving] == [2, 3]


def test_prune_with_open_bounds(sample_table):
    data = write_table(sample_table, row_group_rows=1000)
    reader = ColumnarFile.from_bytes(data)
    assert len(reader.prune_row_groups("id", lower=None, upper=None)) == 5
    assert len(reader.prune_row_groups("id", lower=4500)) == 1
    assert len(reader.prune_row_groups("id", upper=-1)) == 0
    assert len(reader.prune_row_groups("id", lower=5000)) == 0


def test_unknown_column_raises(sample_table):
    data = write_table(sample_table)
    reader = ColumnarFile.from_bytes(data)
    with pytest.raises(UnknownColumnError):
        reader.read_table(columns=["nope"])


def test_compression_codecs_roundtrip(sample_table):
    for codec in Compression:
        data = write_table(sample_table, compression=codec, row_group_rows=2048)
        result = ColumnarFile.from_bytes(data).read_table()
        np.testing.assert_array_equal(result["id"], sample_table["id"])


def test_gzip_smaller_than_uncompressed(sample_table):
    uncompressed = write_table(sample_table, compression=Compression.NONE)
    gzipped = write_table(sample_table, compression=Compression.GZIP)
    assert len(gzipped) < len(uncompressed)


def test_empty_table_roundtrip():
    table = {"a": np.zeros(0, dtype=np.int64)}
    data = write_table(table)
    reader = ColumnarFile.from_bytes(data)
    assert reader.num_rows == 0
    assert len(reader.read_table()["a"]) == 0


def test_footer_roundtrip(sample_table):
    data = write_table(sample_table, row_group_rows=1024)
    metadata = ColumnarFile.from_bytes(data).metadata
    footer = metadata.pack()
    # The parsed footer serialises back to the stored one, byte for byte.
    assert data[-16 - len(footer):-16] == footer
    assert data[-16:] == struct.pack("<IQ4s", zlib.crc32(footer), len(footer), CHECKED_MAGIC)
    restored = FileMetadata.parse(footer, len(data) - 16 - len(footer), checked=True)
    assert restored.num_rows == metadata.num_rows
    assert restored.schema == metadata.schema
    assert len(restored.row_groups) == len(metadata.row_groups)
    assert restored.chunks.tobytes() == metadata.chunks.tobytes()
    for group, original in zip(restored.row_groups, metadata.row_groups):
        assert group.num_rows == original.num_rows
        assert group.column_meta("value") == original.column_meta("value")


def test_writer_rejects_bad_row_group_size():
    schema = Schema.from_pairs([("a", ColumnType.INT64)])
    with pytest.raises(ValueError):
        ColumnarWriter(schema, row_group_rows=0)


def test_corrupt_magic_raises(sample_table):
    data = bytearray(write_table(sample_table))
    data[-1] = 0x00  # clobber trailing magic
    with pytest.raises(CorruptFileError):
        ColumnarFile.from_bytes(bytes(data))


def test_truncated_file_raises():
    with pytest.raises(CorruptFileError):
        ColumnarFile.from_bytes(b"LP")


def test_corrupt_footer_raises(sample_table):
    data = bytearray(write_table(sample_table))
    # Overwrite a byte in the middle of the file with garbage.
    data[len(data) // 2 + 10] ^= 0xFF
    with pytest.raises(CorruptFileError):
        reader = ColumnarFile.from_bytes(bytes(data))
        reader.read_table()


def test_metadata_only_read_touches_little_data(sample_table):
    class CountingSource(BytesSource):
        def __init__(self, data):
            super().__init__(data)
            self.bytes_served = 0

        def read_at(self, offset, length):
            result = super().read_at(offset, length)
            self.bytes_served += len(result)
            return result

    data = write_table(sample_table, row_group_rows=512)
    source = CountingSource(data)
    ColumnarFile(source)  # metadata read only
    # Only the footer and the magic bytes are read, not the column data.
    assert source.bytes_served < len(data) / 4


column_strategy = st.lists(
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40), min_size=1, max_size=400
)


@settings(max_examples=40, deadline=None)
@given(
    ints=column_strategy,
    floats=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=400
    ),
    row_group_rows=st.integers(min_value=1, max_value=64),
)
def test_roundtrip_property(ints, floats, row_group_rows):
    n = min(len(ints), len(floats))
    table = {
        "i": np.array(ints[:n], dtype=np.int64),
        "f": np.array(floats[:n], dtype=np.float64),
    }
    data = write_table(table, row_group_rows=row_group_rows, compression=Compression.FAST)
    result = ColumnarFile.from_bytes(data).read_table()
    np.testing.assert_array_equal(result["i"], table["i"])
    np.testing.assert_array_equal(result["f"], table["f"])


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=500),
    lower=st.integers(min_value=0, max_value=10_000),
    upper=st.integers(min_value=0, max_value=10_000),
)
def test_pruning_never_drops_matching_rows(values, lower, upper):
    """Pruned row groups must not contain any row inside [lower, upper]."""
    if lower > upper:
        lower, upper = upper, lower
    table = {"v": np.array(sorted(values), dtype=np.int64)}
    data = write_table(table, row_group_rows=32, compression=Compression.NONE)
    reader = ColumnarFile.from_bytes(data)
    surviving = reader.prune_row_groups("v", lower=lower, upper=upper)
    kept = (
        np.concatenate([reader.read_column_chunk(group, "v") for group in surviving])
        if surviving
        else np.zeros(0, dtype=np.int64)
    )
    expected = table["v"][(table["v"] >= lower) & (table["v"] <= upper)]
    # Every row matching the range must still be present after pruning.
    assert np.isin(expected, kept).all()


# -- typed pages: what the writer chooses, per row group ---------------------------------


def _typed_table(rows: int = 3000):
    rng = np.random.default_rng(11)
    return {
        "key": np.cumsum(rng.integers(1, 50, rows)).astype(np.int64) + (1 << 33),
        "flag": rng.integers(0, 3, rows).astype(np.int32),
        "date": np.sort(rng.integers(9000, 9030, rows)).astype(np.int32),
        "price": np.round(rng.uniform(900.0, 105_000.0, rows), 2),
        "qty": rng.integers(1, 51, rows).astype(np.float64),
        "noise": rng.random(rows),
    }


def test_writer_chooses_an_encoding_per_chunk_and_narrow_pages_shrink_the_file():
    table = _typed_table()
    data = write_table(table, row_group_rows=1000)
    reader = ColumnarFile.from_bytes(data)
    chosen = {
        name: {
            (meta.encoding, meta.width, meta.exponent)
            for meta in (group.column_meta(name) for group in reader.row_groups)
        }
        for name in table
    }
    assert chosen == {
        "key": {(Encoding.DELTA, 1, 0)},
        "flag": {(Encoding.DICTIONARY, 0, 0)},
        "date": {(Encoding.DICTIONARY, 0, 0)},
        "price": {(Encoding.FOR, 4, 2)},
        "qty": {(Encoding.FOR, 1, 0)},
        "noise": {(Encoding.PLAIN, 0, 0)},
    }
    group = reader.row_groups[1]
    assert group.column_meta("key").uncompressed_size == 1000
    assert group.column_meta("key").base == int(table["key"][1000])
    assert group.column_meta("price").uncompressed_size == 4000
    assert group.column_meta("flag").uncompressed_size == 4 + 3 * 4 + 1000  # u8 codes
    assert group.column_meta("noise").uncompressed_size == 8000
    result = reader.read_table()
    for name, column in table.items():
        assert result[name].dtype == column.dtype
        assert result[name].tobytes() == column.tobytes()
    # The same table stored PLAIN is what the format used to write.
    plain = ColumnarWriter(
        reader.schema, row_group_rows=1000, encodings=dict.fromkeys(table, Encoding.PLAIN)
    ).write(table)
    assert len(data) < 0.85 * len(plain)


def test_encoding_overrides_apply_to_every_row_group():
    table = _typed_table()
    schema = Schema.from_table(table)
    for override in Encoding:
        data = ColumnarWriter(
            schema, row_group_rows=700, encodings={"key": override, "noise": override}
        ).write(table)
        reader = ColumnarFile.from_bytes(data)
        keys = {group.column_meta("key").encoding for group in reader.row_groups}
        noise = {group.column_meta("noise").encoding for group in reader.row_groups}
        assert keys == {override}
        # Random floats have no integers to narrow to: FOR/DELTA leave them PLAIN.
        narrowing = override in (Encoding.FOR, Encoding.DELTA)
        assert noise == {Encoding.PLAIN if narrowing else override}
        result = reader.read_table()
        assert all(result[name].tobytes() == table[name].tobytes() for name in table)


# -- the footer's min/max columns ---------------------------------------------------------


def test_surviving_groups_and_column_ranges_match_the_chunk_metadata():
    table = _typed_table()
    table["empty_range"] = np.zeros(3000, dtype=np.int64)
    metadata = ColumnarFile.from_bytes(write_table(table, row_group_rows=256)).metadata
    ranges = [("date", 9004.0, 9011.0), ("qty", 10.0, float("inf")), ("missing", 5.0, 6.0)]

    def survives(group):
        for column, lower, upper in ranges:
            if column in metadata.schema:
                meta = group.column_meta(column)
                if meta.max_value < lower or meta.min_value > upper:
                    return False
        return True

    assert metadata.surviving_groups(ranges).tolist() == [
        survives(group) for group in metadata.row_groups
    ]
    assert metadata.surviving_groups([]).all()
    assert not metadata.surviving_groups([("empty_range", 1.0, 2.0)]).any()
    assert metadata.column_ranges() == {
        name: (float(column.min()), float(column.max())) for name, column in table.items()
    }
    # An empty file has no statistics and no surviving group.
    empty = ColumnarFile.from_bytes(write_table({"a": np.zeros(0, dtype=np.int64)})).metadata
    assert empty.surviving_groups([]).tolist() == [False]
    assert empty.column_ranges() == {"a": (float("inf"), float("-inf"))}


# -- malformed footers and pages: typed, with provenance ----------------------------------


def _rewritten(data: bytes, mutate) -> bytes:
    """``data`` (an unchecked file) with ``mutate(footer bytearray)`` applied."""
    _, length, magic = struct.unpack("<IQ4s", data[-16:])
    assert magic == MAGIC
    footer = bytearray(data[-16 - length:-16])
    footer = mutate(footer) or footer
    return data[:-16 - length] + bytes(footer) + struct.pack("<IQ4s", 0, len(footer), MAGIC)


def _directory(footer: bytearray, groups: int, columns: int) -> np.ndarray:
    return np.frombuffer(
        footer, dtype=_CHUNK, offset=len(footer) - groups * columns * _CHUNK.itemsize
    ).reshape(groups, columns)


def _set(field: str, value, group: int = 1, column: int = 0):
    def mutate(footer):
        _directory(footer, 3, 6)[field][group, column] = value
    return mutate


def _truncate_footer(footer):
    return footer[:-1]


def _drop_head(footer):
    return footer[:9]


def _one_group_too_many(footer):
    struct.pack_into("<I", footer, 8, 4)


def _unknown_type(footer):
    footer[14] = 9


def _bad_utf8(footer):
    footer[17] = 0xFF


def _duplicate_name(footer):
    # Columns 0 and 1 are "key" and "flag": give the second the first's name.
    assert footer[17:20] == b"key" and footer[23:27] == b"flag"
    footer[21:27] = struct.pack("<H", 3) + b"key"


MALFORMED_FOOTERS = {
    "short": _truncate_footer,
    "no-head": _drop_head,
    "directory-shape": _one_group_too_many,
    "type-id": _unknown_type,
    "name-utf8": _bad_utf8,
    "encoding-3": _set("encoding", 3),
    "encoding-255": _set("encoding", 255),
    "compression-id": _set("compression", 7),
    "width-3": _set("width", 3),
    "width-is-itemsize": _set("width", 8),
    "width-int32": _set("width", 4, column=1),
    "exponent-1": _set("exponent", 1, column=3),
    "exponent-on-integers": _set("exponent", 2),
    "base-int32": _set("base", 1 << 40, column=2),
    "offset-before-data": _set("offset", 2),
    "offset-past-file": _set("offset", 1 << 60),
    "size-past-file": _set("compressed_size", 1 << 31),
    "value-count": _set("num_values", 999),
}


@pytest.mark.parametrize("name", MALFORMED_FOOTERS)
def test_every_malformed_footer_is_a_typed_footer_error(name):
    table = _typed_table()
    # FOR on every narrowable column, so width/base/exponent checks apply to them.
    schema = Schema.from_table(table)
    data = ColumnarWriter(
        schema, row_group_rows=1000, checksum=False,
        encodings={"key": Encoding.FOR, "flag": Encoding.FOR, "date": Encoding.FOR},
    ).write(table)
    assert ColumnarFile.from_bytes(data, name="obj").num_rows == 3000
    broken = _rewritten(data, MALFORMED_FOOTERS[name])
    with pytest.raises(CorruptFileError) as caught:
        ColumnarFile.from_bytes(broken, name="obj")
    assert (caught.value.layer, caught.value.key) == ("lpq.footer", "obj")
    assert not isinstance(caught.value, IntegrityError)


def test_duplicate_column_names_in_a_footer_are_a_typed_footer_error():
    data = write_table({"key": np.arange(5), "flag": np.arange(5)}, checksum=False)
    with pytest.raises(CorruptFileError) as caught:
        ColumnarFile.from_bytes(_rewritten(data, _duplicate_name), name="obj")
    assert (caught.value.layer, caught.value.key) == ("lpq.footer", "obj")
    assert "duplicate column name" in str(caught.value)


def test_chunk_failures_carry_key_layer_and_offset():
    table = _typed_table()
    schema = Schema.from_table(table)

    def written(compression):
        data = ColumnarWriter(
            schema, row_group_rows=1000, compression=compression, checksum=False
        ).write(table)
        reader = ColumnarFile.from_bytes(data, name="obj")
        return bytearray(data), reader.row_groups[1], reader.row_groups[1].column_meta("flag")

    def failure(data, column="flag"):
        reader = ColumnarFile.from_bytes(bytes(data), name="obj")
        with pytest.raises(CorruptFileError) as caught:
            reader.read_encoded_chunk(reader.row_groups[1], column)
        return caught.value

    # A stored page that does not inflate: the chunk layer.
    data, group, meta = written(Compression.GZIP)
    data[meta.offset + 3] ^= 0xFF
    error = failure(data)
    assert (error.layer, error.key, error.offset) == ("lpq.chunk", "obj", meta.offset)
    assert "'flag'" in str(error) and "row group 1" in str(error)

    # A page that inflates but does not parse: the page layer.
    data, group, meta = written(Compression.NONE)
    data[meta.offset + meta.compressed_size - 1] = 200  # dictionary code out of range
    error = failure(data)
    assert (error.layer, error.key, error.offset) == ("lpq.page", "obj", meta.offset)
    assert "'flag'" in str(error) and "row group 1" in str(error)

    # A page of another size than the footer recorded: also the page layer.
    data, group, meta = written(Compression.GZIP)
    error = failure(_rewritten(bytes(data), _set("uncompressed_size", 17, column=1)))
    assert (error.layer, error.key, error.offset) == ("lpq.page", "obj", meta.offset)

    # With checksums the crc catches the same flip first, as an IntegrityError.
    checked = bytearray(write_table(table, row_group_rows=1000))
    meta = ColumnarFile.from_bytes(bytes(checked)).row_groups[1].column_meta("flag")
    checked[meta.offset + 3] ^= 0xFF
    error = failure(checked)
    assert isinstance(error, IntegrityError)
    assert (error.layer, error.key, error.offset) == ("lpq.chunk", "obj", meta.offset)


def test_old_json_footer_files_are_not_lpq():
    for tail_magic in (b"LPQ1", b"LPQ2"):
        with pytest.raises(CorruptFileError) as caught:
            ColumnarFile.from_bytes(b"LPQ1" + b"{}" * 20 + b"\x00" * 12 + tail_magic, name="old")
        assert (caught.value.layer, caught.value.key) == ("lpq.tail", "old")
