"""The two narrowing planners agree bit for bit, and planning moves no byte.

A frame's only live partition is planned in Python scalars
(``encoding.narrow_tile``); several partitions, and every file's row groups,
in vectorised passes over all tiles at once (``encoding.narrow_tiles``).
They are two independent specifications of one choice, cross-checked here on
every dtype the narrowing covers, on NaN, ±inf, −0.0, |x| ≥ 2**63, integral
and two-decimal floats, and on tiles whose first value passes the head probe
while a later one fails it.  The sha256 digests at the end pin a fixed-seed
frame corpus and a LINEITEM dataset's files as the vectorised planner wrote
them before the scalar one existed: a planning change that moves a byte of a
frame or a file fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.s3 import ObjectStore
from repro.exchange import codec
from repro.exchange.codec import (
    decode_frame,
    decode_partition_slice,
    encode_frame,
    encode_partition,
    encode_partition_set,
)
from repro.formats import encoding
from repro.formats.compression import Compression
from repro.formats.encoding import ENTRY, FOR, RAW, Tiling, narrow_tile, tile_rows
from repro.workload.tpch import generate_lineitem_dataset

CORPUS_DTYPES = (np.int32, np.int64, np.uint16, np.bool_, np.float64)
CORPUS_ROWS = (0, 1, 15, 16, 17, 2048, 60000)
CORPUS_SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 2.0 ** 63, -(2.0 ** 64), 1e300])

#: Values around the edges of the exactness test: specials, the int64 bounds
#: at both scales, and the floats next to them.
EDGES = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 0.5, 1.5, -2.5, 0.125, 0.29, 1e15 + 0.5,
    2.0 ** 63, -(2.0 ** 63), np.nextafter(2.0 ** 63, 0.0), np.nextafter(-(2.0 ** 63), 0.0),
    -(2.0 ** 63) / 100, 2.0 ** 63 / 100, np.nextafter(-(2.0 ** 63) / 100, -np.inf),
    np.nextafter(2.0 ** 63 / 100, np.inf), 1e300, -(2.0 ** 64),
]


def corpus_column(rng, dtype, rows, kind):
    """A column of ``rows`` values of one shape (``kind``), drawn from ``rng``."""
    dtype = np.dtype(dtype)
    if dtype.kind == "b":
        if kind % 3 == 0:
            return np.ones(rows, dtype=bool)
        return rng.random(rows) < (0.5 if kind % 3 == 1 else 0.01)
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        span = (1, 200, 60_000, 1 << 24, 1 << 32, None)[kind % 6]
        if kind % 7 == 6:  # sorted keys: DELTA's shape
            return np.cumsum(rng.integers(0, 4, rows)).astype(dtype)
        if kind % 7 == 5:  # sorted with wider steps: FOR and DELTA may tie
            return np.cumsum(rng.integers(0, 700, rows)).astype(dtype)
        if span is None:
            return rng.integers(info.min, info.max, rows, dtype=dtype, endpoint=True)
        low = int(rng.integers(info.min, max(info.min + 1, info.max - span)))
        return (low + rng.integers(0, span, rows)).astype(dtype)
    shape = kind % 6
    if shape == 0:  # integral floats
        return rng.integers(-1000, 1000, rows).astype(np.float64)
    if shape == 1:  # two-decimal prices
        return rng.integers(0, 10_000_000, rows) / 100.0
    if shape == 2:  # real fractions
        return rng.random(rows) * 1000.0
    values = rng.integers(0, 5000, rows).astype(np.float64)
    if shape == 3 and rows:  # specials dropped in
        where = rng.integers(0, rows, max(1, rows // 50))
        values[where] = rng.choice(CORPUS_SPECIALS, len(where))
    if shape == 4 and rows > 1:  # the head is integral, a later value is not
        values[int(rng.integers(1, rows))] = 0.25
    if shape == 5 and rows > 1:  # the head is a price, a later value a NaN
        values /= 100.0
        values[-1] = np.nan
    return values


def corpus_bounds(rng, rows, several):
    """One live partition between two empty ones, or several (some empty)."""
    if not several:
        return [0, 0, rows, rows]
    cuts = np.sort(rng.integers(0, rows + 1, 5)).tolist()
    return [0, *cuts, rows]


def unsealed(payload: bytes, offsets) -> bytes:
    """``payload`` with every frame in the retired unchecked form (tag 0x04,
    crc field zero), as the pinned corpus holds every fourth shape: the same
    planned bytes under another prefix."""
    out = bytearray(payload)
    for start, end in zip(offsets, offsets[1:]):
        if end > start:
            codec._PREFIX.pack_into(out, start, codec.UNCHECKED_PARTITION_TAG, 0)
    return bytes(out)


def frame_corpus() -> bytes:
    """Every corpus shape as a sender's set payload (with its offsets) and as
    the frame of its whole table, length-prefixed end to end."""
    rng = np.random.default_rng(20_240_607)
    out = []
    for dtype in CORPUS_DTYPES:
        for rows in CORPUS_ROWS:
            for kind in range(12 if rows < 60_000 else 3):
                table = {
                    "k": np.arange(rows, dtype=np.int64) * 3,
                    "c": corpus_column(rng, dtype, rows, kind),
                    "x": corpus_column(rng, np.float64, rows, kind + 1),
                }
                for several in (False, True):
                    payload, offsets = encode_partition_set(
                        table, corpus_bounds(rng, rows, several),
                        Compression.FAST if kind == 5 else Compression.NONE,
                    )
                    if kind % 4 == 3:
                        payload = unsealed(payload, offsets)
                    out += [len(payload).to_bytes(8, "little"), payload,
                            np.asarray(offsets, dtype="<i8").tobytes()]
                frame = encode_frame(table)
                out += [len(frame).to_bytes(8, "little"), frame]
    return b"".join(out)


def assert_bit_identical(expected, actual):
    assert list(actual) == list(expected)
    for name in expected:
        assert actual[name].dtype == expected[name].dtype, name
        assert actual[name].tobytes() == expected[name].tobytes(), name


def _bytes(block):
    return None if block is None else memoryview(block).tobytes()


# -- the two kernels, bit for bit --------------------------------------------------------

SHAPES = st.tuples(
    st.sampled_from(CORPUS_DTYPES),
    st.sampled_from(CORPUS_ROWS),
    st.integers(0, 11),
    st.integers(0, 2 ** 32 - 1),
    # An edge value written at some row (None: the shape as drawn).
    st.one_of(st.none(), st.tuples(st.sampled_from(EDGES), st.floats(0.0, 1.0))),
)


def _column(dtype, rows, kind, seed, edge):
    column = corpus_column(np.random.default_rng(seed), dtype, rows, kind)
    if edge is not None and rows and column.dtype == np.float64:
        value, where = edge
        column[min(rows - 1, int(where * rows))] = value
    return column


@settings(max_examples=300, deadline=None)
@given(shape=SHAPES)
def test_one_tile_kernel_equals_the_vectorised_kernel(shape):
    column = _column(*shape)
    if not len(column):
        return
    tiling = tile_rows(len(column), len(column))
    entries = np.zeros(1, dtype=ENTRY)
    (vectorised,) = encoding.narrow_tiles(column, tiling, entries)
    entry, block = narrow_tile(column)
    assert entry == entries[0].item()
    assert _bytes(block) == _bytes(vectorised)


@settings(max_examples=200, deadline=None)
@given(shape=SHAPES, several=st.booleans())
def test_one_partition_frame_equals_its_slice_of_a_set(shape, several):
    column = _column(*shape)
    rows = len(column)
    table = {"c": column, "k": np.arange(rows, dtype=np.int64)}
    bounds = corpus_bounds(np.random.default_rng(shape[3]), rows, several)
    payload, offsets = encode_partition_set(table, bounds)
    live = [p for p in range(len(bounds) - 1) if bounds[p + 1] > bounds[p]]
    for p in range(len(bounds) - 1):
        piece = payload[offsets[p]:offsets[p + 1]]
        part = {name: values[bounds[p]:bounds[p + 1]] for name, values in table.items()}
        if p not in live:
            assert piece == b""
            continue
        # With several live partitions the set is planned vectorised, the
        # partition alone in scalars.
        assert piece == encode_partition(part)
        assert_bit_identical(part, decode_partition_slice(piece))
    frame = encode_frame(table)
    assert_bit_identical(table, decode_frame(frame))


def test_a_later_value_decides_a_tile_whose_head_passes():
    head_integral = np.arange(40, dtype=np.float64)
    head_integral[30] = 0.125  # exact at neither exponent
    prices = np.arange(40, dtype=np.float64) / 100.0 + 7.0
    prices[-1] = np.nan
    cents = np.arange(40, dtype=np.float64)
    cents[20] = 0.25  # not at exponent 0, exact at 2
    for column, want in ((head_integral, (RAW, 0, 0)), (prices, (RAW, 0, 0)),
                         (cents, (FOR, 2, 2))):
        entry, block = narrow_tile(column)
        assert entry[:3] == want
        frame = encode_partition({"c": column})
        assert_bit_identical({"c": column}, decode_frame(frame))
        tiling = Tiling(np.array([0, 20]), np.array([20, 20]), [(0, 20), (20, 40)],
                        np.array([True, True]))
        entries = np.zeros(2, dtype=ENTRY)
        blocks = encoding.narrow_tiles(column, tiling, entries)
        for index, (start, end) in enumerate(tiling.slices):
            alone, alone_block = narrow_tile(column[start:end])
            assert alone == entries[index].item()
            assert _bytes(alone_block) == _bytes(blocks[index])


def test_a_full_exactness_pass_runs_only_where_the_head_passes(monkeypatch):
    passes = []
    full = encoding._scaled_exactly

    def counting(values, scale):
        if len(values) > 1:  # not the one-value head probe
            passes.append((len(values), scale))
        return full(values, scale)

    monkeypatch.setattr(encoding, "_scaled_exactly", counting)
    rng = np.random.default_rng(3)
    n = 64
    prices = rng.integers(1, 10 ** 6, n) / 100.0
    prices[0] = 12.34
    reals = rng.random(n) + 0.1
    counts = rng.integers(0, 50, n).astype(np.float64)
    for column, want in ((prices, [(n, 100.0)]), (reals, []), (counts, [(n, None)])):
        passes.clear()
        narrow_tile(column)
        assert passes == want


def test_an_exponent_no_tile_survives_narrows_nothing(monkeypatch):
    # Prices whose first tile starts at a whole number: the head probe lets
    # exponent 0 through, its full pass rules every tile out, and only
    # exponent 2's integers are narrowed.
    narrowed = []
    real = encoding._narrow

    def counting(values, tiling, only):
        narrowed.append(values)
        return real(values, tiling, only)

    monkeypatch.setattr(encoding, "_narrow", counting)
    prices = np.random.default_rng(4).integers(1, 10 ** 6, 64) / 100.0
    prices[0] = 12.0
    tiling = tile_rows(64, 16)
    entries = np.zeros(len(tiling.slices), dtype=ENTRY)
    encoding.narrow_tiles(prices, tiling, entries)
    assert len(narrowed) == 1
    assert (entries["exponent"] == 2).all() and (entries["encoding"] == FOR).all()


def test_one_live_partition_plans_without_the_tiling(monkeypatch):
    def vectorised(*args, **kwargs):
        raise AssertionError("a one-partition frame went through the all-tiles kernel")

    monkeypatch.setattr(codec, "narrow_tiles", vectorised)
    rng = np.random.default_rng(5)
    table = {"k": np.arange(300, dtype=np.int64), "p": rng.integers(0, 10 ** 5, 300) / 100.0,
             "f": rng.random(300) < 0.5}
    payload, offsets = encode_partition_set(table, [0, 0, 300, 300])
    assert_bit_identical(table, decode_partition_slice(payload[offsets[1]:offsets[2]]))


# -- pinned bytes ------------------------------------------------------------------------

#: sha256 of :func:`frame_corpus`, as written by the all-partitions planner.
FRAME_CORPUS_SHA256 = "2f129e44aa50575e6471a0d2642498709ed2c1046152d8598ab9f73e3286afdd"

#: sha256 of the four LINEITEM files at SF 0.01, seed 7, length-prefixed in
#: path order, as the LPQ writer wrote them with the all-tiles planner.
LINEITEM_FILES_SHA256 = "0e8b2fb7b750878b191cb88c125f1a8bd771c928b5763a9ceb22a74bdc5c6c8d"


def test_frame_corpus_bytes_are_pinned():
    assert hashlib.sha256(frame_corpus()).hexdigest() == FRAME_CORPUS_SHA256


def test_lineitem_file_bytes_are_pinned():
    store = ObjectStore()
    dataset = generate_lineitem_dataset(store, scale_factor=0.01, num_files=4, seed=7)
    parts = []
    for path in dataset.paths:
        bucket, key = path[len("s3://"):].split("/", 1)
        data = bytes(store.get_object(bucket, key).data)
        parts += [len(data).to_bytes(8, "little"), data]
    assert hashlib.sha256(b"".join(parts)).hexdigest() == LINEITEM_FILES_SHA256
