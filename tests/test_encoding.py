"""Tests for column encodings, including property-based round trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptFileError
from repro.formats.encoding import (
    ENTRY,
    Encoding,
    decode_column,
    encode_column,
    encode_tiles,
    tile_rows,
)
from repro.formats.schema import ColumnType

NARROWING = (Encoding.FOR, Encoding.DELTA)


def _roundtrip(values: np.ndarray, ctype: ColumnType, encoding=None):
    """``(page, decoded)`` of one chunk; ``encoding=None`` lets the data choose."""
    page = encode_column(values, ctype, encoding)
    width, exponent, base = page[1:4]
    decoded = decode_column(
        page.data, ctype, page.encoding, len(values), width, exponent, base
    )
    return page, decoded


def _assert_bit_identical(decoded: np.ndarray, values: np.ndarray, ctype: ColumnType):
    assert decoded.dtype == ctype.numpy_dtype
    assert decoded.tobytes() == np.asarray(values, dtype=ctype.numpy_dtype).tobytes()


def _size(page) -> int:
    return len(page.data)


# -- plain examples ------------------------------------------------------------------

@pytest.mark.parametrize("encoding", list(Encoding))
@pytest.mark.parametrize(
    "ctype,values",
    [
        (ColumnType.INT64, np.array([1, 2, 3, 3, 3, -5], dtype=np.int64)),
        (ColumnType.INT32, np.array([7, 7, 7, 0], dtype=np.int32)),
        (ColumnType.FLOAT64, np.array([0.5, 0.5, 2.25, -1.75])),
    ],
)
def test_roundtrip_examples(encoding, ctype, values):
    page, decoded = _roundtrip(values, ctype, encoding)
    _assert_bit_identical(decoded, values, ctype)
    # An override is honoured; FOR/DELTA leave what does not narrow PLAIN.
    assert page.encoding in ((encoding, Encoding.PLAIN) if encoding in NARROWING else (encoding,))


@pytest.mark.parametrize("encoding", list(Encoding))
def test_roundtrip_empty(encoding):
    values = np.zeros(0, dtype=np.int64)
    page, decoded = _roundtrip(values, ColumnType.INT64, encoding)
    assert page.encoding is Encoding.PLAIN and len(decoded) == 0


def test_rle_compresses_runs():
    values = np.repeat(np.arange(10, dtype=np.int64), 1000)
    plain = encode_column(values, ColumnType.INT64, Encoding.PLAIN)
    rle = encode_column(values, ColumnType.INT64, Encoding.RLE)
    assert _size(rle) < _size(plain) / 50


def test_dictionary_compresses_low_cardinality():
    values = np.array([3, 1, 3, 1, 3] * 1000, dtype=np.int64)
    plain = encode_column(values, ColumnType.INT64, Encoding.PLAIN)
    dictionary = encode_column(values, ColumnType.INT64, Encoding.DICTIONARY)
    assert _size(dictionary) < _size(plain) / 7


@pytest.mark.parametrize(
    "distinct, code_width", [(1, 0), (2, 1), (256, 1), (257, 2), (65536, 2), (65537, 4)]
)
def test_dictionary_codes_take_the_minimal_width(distinct, code_width):
    values = np.tile(np.arange(distinct, dtype=np.int64) * 1000, 2)
    page, decoded = _roundtrip(values, ColumnType.INT64, Encoding.DICTIONARY)
    assert _size(page) == 4 + 8 * distinct + code_width * len(values)
    _assert_bit_identical(decoded, values, ColumnType.INT64)


def test_narrowed_pages_hold_width_bytes_per_value():
    keys = np.cumsum(np.arange(1, 1001, dtype=np.int64))  # steps 2..1000, span 500k
    wide = keys * 100  # steps 200..100k, span 50M: beyond 24 bits
    for values, encoding, width in (
        (keys, Encoding.FOR, 3), (keys, Encoding.DELTA, 2),
        (wide, Encoding.FOR, 4), (wide, Encoding.DELTA, 3),
    ):
        page, decoded = _roundtrip(values, ColumnType.INT64, encoding)
        assert (page.encoding, page.width, _size(page)) == (encoding, width, width * 1000)
        _assert_bit_identical(decoded, values, ColumnType.INT64)
    constant, decoded = _roundtrip(np.full(50, -7, dtype=np.int32), ColumnType.INT32, Encoding.FOR)
    assert (constant.width, _size(constant)) == (0, 0)
    assert constant.base == struct.unpack("<I", struct.pack("<i", -7))[0]
    _assert_bit_identical(decoded, np.full(50, -7), ColumnType.INT32)


# -- corruption handling --------------------------------------------------------------

def test_plain_wrong_length_raises():
    with pytest.raises(CorruptFileError):
        decode_column(b"\x00" * 7, ColumnType.INT64, Encoding.PLAIN, 1)


def test_rle_truncated_raises():
    values = np.array([1, 1, 2, 2], dtype=np.int64)
    encoded = encode_column(values, ColumnType.INT64, Encoding.RLE).data
    with pytest.raises(CorruptFileError):
        decode_column(encoded[:-2], ColumnType.INT64, Encoding.RLE, 4)


def test_rle_wrong_count_raises():
    values = np.array([1, 1, 2], dtype=np.int64)
    encoded = encode_column(values, ColumnType.INT64, Encoding.RLE).data
    with pytest.raises(CorruptFileError):
        decode_column(encoded, ColumnType.INT64, Encoding.RLE, 5)


def test_dictionary_truncated_raises():
    values = np.array([1, 2, 1], dtype=np.int64)
    encoded = encode_column(values, ColumnType.INT64, Encoding.DICTIONARY).data
    with pytest.raises(CorruptFileError):
        decode_column(encoded[:-1], ColumnType.INT64, Encoding.DICTIONARY, 3)


def test_dictionary_code_out_of_range_raises():
    values = np.array([1, 2, 1], dtype=np.int64)
    encoded = bytearray(encode_column(values, ColumnType.INT64, Encoding.DICTIONARY).data)
    encoded[-1] = 2
    with pytest.raises(CorruptFileError):
        decode_column(bytes(encoded), ColumnType.INT64, Encoding.DICTIONARY, 3)


def test_too_short_headers_raise():
    with pytest.raises(CorruptFileError):
        decode_column(b"\x01", ColumnType.INT64, Encoding.RLE, 1)
    with pytest.raises(CorruptFileError):
        decode_column(b"\x01", ColumnType.INT64, Encoding.DICTIONARY, 1)


@pytest.mark.parametrize(
    "ctype, data, count, width, exponent, base",
    [
        (ColumnType.INT64, b"\x00" * 7, 4, 2, 0, 0),  # not count * width bytes
        (ColumnType.INT64, b"\x00" * 20, 4, 5, 0, 0),  # no such width
        (ColumnType.INT32, b"\x00" * 16, 4, 4, 0, 0),  # as wide as the column
        (ColumnType.INT64, b"\x00" * 32, 4, 8, 0, 0),
        (ColumnType.INT64, b"\x00" * 4, 4, 1, 2, 0),  # decimal exponent on integers
        (ColumnType.FLOAT64, b"\x00" * 4, 4, 1, 1, 0),  # exponent not in the scale table
        (ColumnType.INT32, b"\x00" * 4, 4, 1, 0, 1 << 32),  # base wider than the column
    ],
)
@pytest.mark.parametrize("encoding", NARROWING)
def test_malformed_narrowed_chunks_raise(encoding, ctype, data, count, width, exponent, base):
    with pytest.raises(CorruptFileError):
        decode_column(data, ctype, encoding, count, width, exponent, base)


# -- encoding choice heuristic ----------------------------------------------------------

def _chosen(values: np.ndarray, ctype: ColumnType):
    page, decoded = _roundtrip(values, ctype)
    _assert_bit_identical(decoded, values, ctype)
    return page.encoding, page.width, page.exponent


def test_choice_prefers_dictionary_for_low_cardinality():
    values = np.array([1, 2, 3] * 10_000, dtype=np.int64)
    assert _chosen(values, ColumnType.INT64)[0] is Encoding.DICTIONARY


def test_choice_prefers_rle_for_sorted_runs():
    values = np.repeat(np.arange(2000, dtype=np.int64), 50)
    assert _chosen(values, ColumnType.INT64)[0] is Encoding.RLE
    few = np.repeat(np.arange(10, dtype=np.int64), 50)
    assert _chosen(few, ColumnType.INT64)[0] is Encoding.DICTIONARY


def test_choice_is_plain_for_random_floats():
    rng = np.random.default_rng(0)
    assert _chosen(rng.random(10_000), ColumnType.FLOAT64) == (Encoding.PLAIN, 0, 0)


def test_choice_narrows_what_a_dictionary_would_not_help():
    rng = np.random.default_rng(1)
    n = 2048  # more than 32 distinct values: too many for a dictionary
    prices = np.round(rng.uniform(900.0, 105_000.0, n), 2)
    assert _chosen(prices, ColumnType.FLOAT64) == (Encoding.FOR, 3, 2)
    quantities = rng.integers(1, 51, n).astype(np.float64)
    assert _chosen(quantities, ColumnType.FLOAT64) == (Encoding.FOR, 1, 0)
    dates = rng.integers(8000, 8200, n).astype(np.int32)
    assert _chosen(dates, ColumnType.INT32) == (Encoding.FOR, 1, 0)
    keys = np.cumsum(rng.integers(1, 200, n)).astype(np.int64) + (1 << 40)
    assert _chosen(keys, ColumnType.INT64) == (Encoding.DELTA, 1, 0)
    hashes = rng.integers(-(2 ** 62), 2 ** 62, n, dtype=np.int64)
    assert _chosen(hashes, ColumnType.INT64) == (Encoding.PLAIN, 0, 0)
    wide = rng.integers(0, 2 ** 31 - 1, n).astype(np.int32)
    assert _chosen(wide, ColumnType.INT32) == (Encoding.PLAIN, 0, 0)


def test_tiles_of_one_column_choose_independently():
    rng = np.random.default_rng(2)
    rows = 1000
    column = np.concatenate([
        rng.integers(0, 5, rows),  # few distinct values
        np.repeat(np.arange(100, 140), 25),  # long runs
        rng.integers(10_000, 60_000, rows),  # narrows to 2 bytes
        np.cumsum(rng.integers(1, 100, rows)) + (1 << 36),  # sorted keys
        rng.integers(-(2 ** 62), 2 ** 62, rows // 2),  # nothing helps; short last tile
    ]).astype(np.int64)
    tiling = tile_rows(len(column), rows)
    entries = np.zeros(len(tiling.slices), dtype=ENTRY)
    pages = encode_tiles(column, ColumnType.INT64, tiling, entries)
    assert [Encoding(code) for code in entries["encoding"].tolist()] == [
        Encoding.DICTIONARY, Encoding.RLE, Encoding.FOR, Encoding.DELTA, Encoding.PLAIN
    ]
    assert entries["width"].tolist() == [0, 0, 2, 1, 0]
    for (start, end), page, (code, width, exponent, base) in zip(
        tiling.slices, pages, entries.tolist()
    ):
        # Every tile is byte-identical to encoding that row group on its own.
        alone = encode_column(column[start:end], ColumnType.INT64)
        assert alone[:4] == (Encoding(code), width, exponent, base)
        assert alone.data == bytes(memoryview(page))
        decoded = decode_column(
            alone.data, ColumnType.INT64, Encoding(code), end - start, width, exponent, base
        )
        _assert_bit_identical(decoded, column[start:end], ColumnType.INT64)


# -- property-based round trips ----------------------------------------------------------

INT64_EDGES = [0, 1, -1, 2 ** 53, 2 ** 53 + 1, -(2 ** 63), 2 ** 63 - 1, 2 ** 62, -(2 ** 62)]
INT32_EDGES = [0, 1, -1, -(2 ** 31), 2 ** 31 - 1, 2 ** 16, 255, 256]
FLOAT_EDGES = [
    0.0, -0.0, 1.0, 0.01, 0.07, 1e15, float(2 ** 53), float(2 ** 53 + 2), 1e300,
    -1e300, float("inf"), float("-inf"), float("nan"), 9.2e18, 5e-324,
]


def _column(edges, wide, narrow):
    """Lists mixing edge values, a wide range and a narrow band (which narrows)."""
    anywhere = st.one_of(st.sampled_from(edges), wide)
    return st.one_of(
        st.lists(anywhere, max_size=120),
        st.lists(narrow, max_size=300),
        st.lists(narrow, min_size=1, max_size=60).map(sorted),
        st.tuples(anywhere, st.integers(1, 80)).map(lambda pair: [pair[0]] * pair[1]),
    )


int64_columns = _column(
    INT64_EDGES,
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.integers(min_value=2 ** 40, max_value=2 ** 40 + 70_000),
)
int32_columns = _column(
    INT32_EDGES,
    st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
    st.integers(min_value=-300, max_value=300),
)
float64_columns = _column(
    FLOAT_EDGES,
    st.floats(width=64),
    st.one_of(
        st.integers(min_value=0, max_value=10_000_000).map(lambda cents: cents / 100),
        st.integers(min_value=-50, max_value=50).map(float),
    ),
)


@settings(max_examples=150, deadline=None)
@given(values=int64_columns, encoding=st.sampled_from([None, *Encoding]))
def test_int64_roundtrip_property(values, encoding):
    array = np.array(values, dtype=np.int64)
    page, decoded = _roundtrip(array, ColumnType.INT64, encoding)
    _assert_bit_identical(decoded, array, ColumnType.INT64)
    if page.encoding in NARROWING:
        assert page.width < 8 and _size(page) == page.width * len(array)


@settings(max_examples=100, deadline=None)
@given(values=int32_columns, encoding=st.sampled_from([None, *Encoding]))
def test_int32_roundtrip_property(values, encoding):
    array = np.array(values, dtype=np.int32)
    page, decoded = _roundtrip(array, ColumnType.INT32, encoding)
    _assert_bit_identical(decoded, array, ColumnType.INT32)
    if page.encoding in NARROWING:
        assert page.width < 4 and page.base < 2 ** 32


@settings(max_examples=200, deadline=None)
@given(values=float64_columns, encoding=st.sampled_from([None, *Encoding]))
def test_float64_roundtrip_property(values, encoding):
    array = np.array(values, dtype=np.float64)
    page, decoded = _roundtrip(array, ColumnType.FLOAT64, encoding)
    if page.encoding in (Encoding.RLE, Encoding.DICTIONARY):
        # Runs and dictionaries are built by value: -0.0 == 0.0, NaN is NaN.
        np.testing.assert_array_equal(decoded, array)
        return
    _assert_bit_identical(decoded, array, ColumnType.FLOAT64)
    special = ~np.isfinite(array) | ((array == 0) & np.signbit(array))
    if special.any():
        # NaN, ±inf and -0.0 have no integer that decodes to their bits.
        assert page.encoding is Encoding.PLAIN
    if encoding is Encoding.FOR and len(array) and not special.any():
        # Two-decimal values spanning less than 2**32 cents always narrow.
        cents = np.rint(array * 100.0)
        exact = np.array_equal((cents / 100.0).view(np.int64), array.view(np.int64))
        if exact and np.abs(cents).max() < 2 ** 62 and np.ptp(cents) < 2 ** 32:
            assert page.encoding is Encoding.FOR and page.width <= 4
