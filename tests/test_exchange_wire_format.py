"""The typed exchange frame: exact round-trips, the encoding each column shape
gets, slice independence, one-crc integrity, and unchanged query answers.

Everything here pins the layout documented in ``repro/exchange/codec.py``:
the directory is read back with the codec's own ``_read_head``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import IntegrityConfig
from repro.driver.shuffle import ShuffleAggregateCoordinator, ShuffleConfig
from repro.errors import CorruptFileError, IntegrityError
from repro.exchange import codec
from repro.exchange.basic import deserialize_partition, serialize_partition
from repro.exchange.codec import (
    DELTA,
    FOR,
    JSON,
    RAW,
    decode_partition,
    decode_partition_slice,
    decode_ranged_slices,
    encode_partition,
    encode_partition_set,
    slice_crcs,
)
from repro.exchange.partition import partition_scatter
from repro.formats.compression import Compression
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.workload import queries as q

from tests.test_join_wave_fusion import _session, _stack
from tests.test_mode_parity import leaked_segments

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def assert_bit_identical(expected, actual):
    assert list(actual) == list(expected)
    for name in expected:
        want, got = np.asarray(expected[name]), actual[name]
        assert got.dtype == want.dtype, name
        if want.dtype.hasobject:
            assert got.tolist() == want.tolist(), name
        else:
            assert got.tobytes() == want.tobytes(), name


def directory(frame):
    """``{column: (encoding, width, exponent)}`` of one frame."""
    _, names, _, _, entries, _ = codec._read_head(memoryview(frame))
    return {name: tuple(entry[:3]) for name, entry in zip(names, entries)}


# -- bit-identical round trips ------------------------------------------------------------


def _int_columns(dtype):
    info = np.iinfo(dtype)
    elements = st.integers(info.min, info.max)
    return st.one_of(
        hnp.arrays(dtype, st.integers(0, 60), elements=elements),
        # constant, sorted, narrow range far from zero, and the full span
        st.builds(lambda n, v: np.full(n, v, dtype=dtype), st.integers(1, 60), elements),
        hnp.arrays(dtype, st.integers(1, 60), elements=elements).map(np.sort),
        st.builds(
            lambda values, base: np.array(
                [min(base, info.max - 200) + value % 200 for value in values], dtype=dtype
            ),
            st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=60),
            st.integers(max(info.min, 0), info.max),
        ),
        st.just(np.array([info.min, info.max, info.min, 0], dtype=dtype)),
    )


FLOAT64_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                    1.7976931348623157e308, 0.1, 1e15 + 0.5, 2.0 ** 63, -(2.0 ** 63)]


def _float64_columns():
    prices = st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=60).map(
        lambda cents: np.asarray(cents, dtype=np.float64) / 100.0
    )
    counts = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=60).map(
        lambda values: np.asarray(values, dtype=np.float64)
    )
    anything = hnp.arrays(
        np.float64, st.integers(0, 60),
        elements=st.one_of(st.sampled_from(FLOAT64_SPECIALS),
                           st.floats(allow_nan=True, allow_infinity=True, width=64)),
    )
    # A clean decimal column with one special value dropped in.
    spoiled = st.builds(
        lambda values, special: np.append(values, special),
        prices, st.sampled_from(FLOAT64_SPECIALS),
    )
    return st.one_of(prices, counts, anything, spoiled)


COLUMNS = st.one_of(
    *[_int_columns(dtype) for dtype in INT_DTYPES],
    hnp.arrays(np.bool_, st.integers(0, 60)),
    hnp.arrays(np.float32, st.integers(0, 60),
               elements=st.floats(allow_nan=True, allow_infinity=True, width=32)),
    _float64_columns(),
    st.lists(st.one_of(st.none(), st.text(max_size=5), st.integers(-5, 5)), max_size=10).map(
        lambda values: np.asarray(values + [None], dtype=object)[:-1]
    ),
)


@settings(max_examples=400, deadline=None)
@given(column=COLUMNS, compression=st.sampled_from(list(Compression)), checksum=st.booleans())
def test_any_column_round_trips_bit_identically(column, compression, checksum):
    table = {"c": column, "row": np.arange(len(column), dtype=np.int32)}
    frame = encode_partition(table, compression, checksum=checksum)
    assert_bit_identical(table, decode_partition(frame, key="prop"))
    assert_bit_identical(table, decode_partition(frame, copy=False, verify=False))


@settings(max_examples=150, deadline=None)
@given(
    keys=hnp.arrays(np.int64, st.integers(0, 120), elements=st.integers(-50, 50)),
    column=COLUMNS,
    partitions=st.integers(1, 9),
)
def test_set_slices_decode_alone_and_equal_single_partition_frames(keys, column, partitions):
    rows = min(len(keys), len(column))
    table = {"k": keys[:rows], "c": column[:rows]}
    reordered, boundaries = partition_scatter(table, ["k"], partitions)
    payload, offsets = encode_partition_set(reordered, boundaries)
    assert offsets[0] == 0 and offsets[-1] == len(payload) and len(offsets) == partitions + 1
    for p in range(partitions):
        start, end = int(boundaries[p]), int(boundaries[p + 1])
        part = {name: values[start:end] for name, values in reordered.items()}
        piece = payload[offsets[p]:offsets[p + 1]]
        if end == start:
            assert piece == b"" and decode_partition_slice(piece) == {}
            continue
        assert piece == encode_partition(part)
        assert_bit_identical(part, decode_partition_slice(piece))


def test_zero_rows_and_zero_columns():
    for table in ({}, {"k": np.zeros(0, dtype=np.int64), "v": np.zeros(0), "o": np.zeros(0, dtype=object)}):
        assert_bit_identical(table, decode_partition(encode_partition(table)))
    assert serialize_partition({"k": np.zeros(0, dtype=np.int64)}) == b""
    assert deserialize_partition(b"") == {}


# -- each encoding is chosen on the shape it is meant for ---------------------------------


def test_directory_names_the_encoding_of_each_column_shape():
    rng = np.random.default_rng(11)
    n = 2000
    table = {
        "orderkey_sorted": np.cumsum(rng.integers(0, 5, n)).astype(np.int64) + 10 ** 12,
        "suppkey": rng.integers(1, 10_000, n).astype(np.int64),
        "custkey_wide": rng.integers(0, 2 ** 31, n).astype(np.int64),
        "shipdate": rng.integers(8000, 10_500, n).astype(np.int32),
        "returnflag": rng.integers(0, 3, n).astype(np.int32),
        "priority_const": np.zeros(n, dtype=np.int32),
        "hash": rng.integers(-(2 ** 62), 2 ** 62, n).astype(np.int64),
        "extremes": np.where(rng.random(n) < 0.5, np.iinfo(np.int64).min, np.iinfo(np.int64).max),
        "flag": rng.random(n) < 0.5,
        "always": np.ones(n, dtype=bool),
        "quantity": rng.integers(1, 51, n).astype(np.float64),
        "discount": rng.integers(0, 11, n) / 100.0,
        "price": np.round(rng.uniform(900.0, 105_000.0, n), 2),
        "revenue": rng.uniform(900.0, 105_000.0, n) * rng.random(n),
        "with_nan": np.where(rng.random(n) < 0.01, np.nan, 1.0),
        "neg_zero": np.where(rng.random(n) < 0.5, -0.0, 3.0),
        "ratio32": rng.random(n).astype(np.float32),
        "label": np.asarray(["a", "bc"] * (n // 2)),
        "tag": np.asarray([None, "x"] * (n // 2), dtype=object),
    }
    frame = encode_partition(table)
    assert_bit_identical(table, decode_partition(frame))
    assert directory(frame) == {
        "orderkey_sorted": (DELTA, 1, 0),
        "suppkey": (FOR, 2, 0),
        "custkey_wide": (FOR, 4, 0),
        "shipdate": (FOR, 2, 0),
        "returnflag": (FOR, 1, 0),
        "priority_const": (FOR, 0, 0),
        "hash": (RAW, 0, 0),
        "extremes": (RAW, 0, 0),
        "flag": (RAW, 0, 0),
        "always": (FOR, 0, 0),
        "quantity": (FOR, 1, 0),
        "discount": (FOR, 1, 2),
        "price": (FOR, 4, 2),
        "revenue": (RAW, 0, 0),
        "with_nan": (RAW, 0, 0),
        "neg_zero": (RAW, 0, 0),
        "ratio32": (RAW, 0, 0),
        "label": (RAW, 0, 0),
        "tag": (JSON, 0, 0),
    }
    raw = sum(np.asarray(column).nbytes for name, column in table.items() if name != "tag")
    assert len(frame) < 0.7 * raw


def test_partitions_of_one_column_choose_independently():
    n = 20
    ramp = np.arange(n, dtype=np.int64)
    table = {
        "v": np.concatenate([np.full(n, 7), ramp * 15, ramp + 2 ** 40 * (ramp % 2), ramp[:5]]),
        "x": np.concatenate([ramp + 1.0, ramp / 4.0, np.where(ramp == 3, np.nan, 1.5), ramp[:5] * 1.0]),
    }
    bounds = [0, n, 2 * n, 3 * n, 3 * n + 5]
    payload, offsets = encode_partition_set(table, bounds)
    frames = [payload[offsets[p]:offsets[p + 1]] for p in range(4)]
    assert [directory(frame)["v"] for frame in frames] == [
        (FOR, 0, 0), (DELTA, 1, 0), (RAW, 0, 0),
        (RAW, 0, 0),  # would narrow to one byte, but is too short to be worth a look
    ]
    assert [directory(frame)["x"] for frame in frames] == [
        (FOR, 1, 0), (DELTA, 1, 2), (RAW, 0, 0), (RAW, 0, 0),
    ]
    for p, frame in enumerate(frames):
        part = {name: values[bounds[p]:bounds[p + 1]] for name, values in table.items()}
        assert frame == encode_partition(part)
        assert_bit_identical(part, decode_partition_slice(frame))


def test_no_general_purpose_compressor_by_default(monkeypatch):
    import zlib

    def forbidden(*args, **kwargs):
        raise AssertionError("zlib.compress on the default exchange path")

    monkeypatch.setattr(zlib, "compress", forbidden)
    monkeypatch.setattr(zlib, "decompress", forbidden)
    table = {"k": np.arange(100, dtype=np.int64), "v": np.random.default_rng(0).random(100)}
    assert ShuffleConfig().compression is Compression.NONE
    assert_bit_identical(table, deserialize_partition(serialize_partition(table)))
    payload, offsets = encode_partition_set(table, [0, 40, 100])
    assert_bit_identical(
        {name: values[40:] for name, values in table.items()},
        decode_partition_slice(payload[offsets[1]:]),
    )


# -- the wire format is pinned: the kernels moved, the bytes did not ----------------------


def _golden_table():
    rng = np.random.default_rng(20260927)
    n = 5000
    table = {
        "key": np.cumsum(rng.integers(1, 60, n)).astype(np.int64) + (1 << 34),
        "hash": rng.integers(-(2 ** 62), 2 ** 62, n, dtype=np.int64),
        "date": rng.integers(8000, 10500, n).astype(np.int32),
        "flag": rng.integers(0, 2, n).astype(bool),
        "small": rng.integers(-100, 100, n).astype(np.int16),
        "price": np.round(rng.uniform(900.0, 105000.0, n), 2),
        "qty": rng.integers(1, 51, n).astype(np.float64),
        "ratio": rng.random(n),
        "special": np.where(rng.random(n) < 0.001, np.nan, np.round(rng.uniform(0, 9, n), 2)),
        "single": rng.random(n).astype(np.float32),
        "const": np.full(n, 7, dtype=np.int64),
    }
    names = np.empty(n, dtype=object)
    for index in range(n):
        names[index] = ("n%d" % (index % 13), index % 3)
    table["names"] = names
    # Empty, short (below the narrowing threshold) and long partitions.
    return table, [0, 0, 700, 705, 705, 1900, 1915, 3600, 5000, 5000]


@pytest.mark.parametrize(
    "compression, checksum, length, crc",
    [
        # Measured at the commit before the narrowing kernels moved into
        # ``repro.formats.encoding`` (PR 15's codec).
        (Compression.NONE, True, 239994, 2352365570),
        (Compression.NONE, False, 239994, 1478282560),
        (Compression.FAST, True, 158676, 2159878260),
        (Compression.FAST, False, 158676, 1636043203),
    ],
)
def test_frames_are_byte_identical_to_the_pinned_wire_format(compression, checksum, length, crc):
    import zlib

    table, bounds = _golden_table()
    payload, offsets = encode_partition_set(table, bounds, compression, checksum)
    assert (len(payload), zlib.crc32(payload)) == (length, crc)
    assert offsets[-1] == length and offsets[1] == 0 and offsets[3] == offsets[4]
    for index, (low, high) in enumerate(zip(bounds, bounds[1:])):
        decoded = decode_partition_slice(payload[offsets[index]:offsets[index + 1]], copy=True)
        if high == low:
            assert decoded == {}
            continue
        for name, column in table.items():
            expected = column[low:high]
            if column.dtype.hasobject:
                assert decoded[name].tolist() == [list(value) for value in expected]
            else:
                assert decoded[name].dtype == column.dtype
                assert decoded[name].tobytes() == expected.tobytes()


# -- one crc: every flip and every truncation is caught, with provenance ------------------


def _small_frame(compression=Compression.NONE):
    rng = np.random.default_rng(91)
    n = 24
    table = {
        "k": np.cumsum(rng.integers(1, 40, n)).astype(np.int64),
        "price": np.round(rng.uniform(1.0, 500.0, n), 2),
        "v": rng.random(n),
        "n": rng.integers(0, 100, n).astype(np.int32),
    }
    frame = encode_partition(table, compression)
    # Narrowed, decimal and raw blocks are all in the frame that gets flipped.
    assert directory(frame) == {
        "k": (DELTA, 1, 0), "price": (FOR, 2, 2), "v": (RAW, 0, 0), "n": (FOR, 1, 0)
    }
    return table, frame


def _assert_reported(error: CorruptFileError, key: str):
    assert error.key == key
    assert error.layer and error.layer.split(".")[0] in ("codec", "slice", "lpq")


@pytest.mark.parametrize("compression", [Compression.NONE, Compression.FAST])
def test_every_single_bit_flip_of_a_frame_raises(compression):
    _, frame = _small_frame(compression)
    crc = slice_crcs(frame, [0, len(frame)])[0]
    layers = set()
    for position in range(len(frame)):
        for bit in range(8):
            flipped = bytearray(frame)
            flipped[position] ^= 1 << bit
            with pytest.raises(CorruptFileError) as direct:
                decode_partition(bytes(flipped), key="obj")
            _assert_reported(direct.value, "obj")
            # ... and as a receiver sees it: a ranged GET checked against the
            # directory entry (offsets + the published crc).
            with pytest.raises(CorruptFileError) as ranged:
                decode_ranged_slices(
                    bytes(flipped), 100, ((100, 100 + len(frame), crc),), key="obj"
                )
            _assert_reported(ranged.value, "obj")
            layers.add(ranged.value.layer)
    # tag byte -> not a frame (read as LPQ); crc field -> directory disagrees;
    # anything else -> the one hash pass.
    assert layers == {"lpq.tail", "slice.crc", "codec.crc"}


def test_every_truncation_of_a_frame_raises():
    _, frame = _small_frame()
    crc = slice_crcs(frame, [0, len(frame)])[0]
    for cut in range(1, len(frame)):
        with pytest.raises(CorruptFileError) as direct:
            decode_partition(frame[:cut], key="obj")
        _assert_reported(direct.value, "obj")
        with pytest.raises(IntegrityError) as ranged:
            decode_ranged_slices(frame[:cut], 0, ((0, len(frame), crc),), key="obj")
        assert (ranged.value.key, ranged.value.layer) == ("obj", "slice.length")
    with pytest.raises(CorruptFileError) as empty:
        decode_partition(b"", key="obj")
    _assert_reported(empty.value, "obj")


def test_unchecked_frames_fail_typed_on_flips_and_truncations():
    """Without a crc a flip may decode (to other values) — but what raises,
    raises typed with provenance, never a bare NumPy/struct error."""
    table = {"k": np.arange(24, dtype=np.int64) * 3, "v": np.random.default_rng(2).random(24)}
    frame = encode_partition(table, checksum=False)
    assert frame[0] == codec.UNCHECKED_PARTITION_TAG
    assert_bit_identical(table, decode_partition(frame, verify=True))
    for cut in range(1, len(frame)):
        with pytest.raises(CorruptFileError) as error:
            decode_partition(frame[:cut], key="obj")
        _assert_reported(error.value, "obj")
    for position in range(len(frame)):
        for bit in range(8):
            flipped = bytearray(frame)
            flipped[position] ^= 1 << bit
            try:
                decode_partition(bytes(flipped), key="obj")
            except CorruptFileError as error:
                _assert_reported(error, "obj")


def test_directory_crc_is_the_embedded_crc_and_catches_a_stale_body():
    table, frame = _small_frame()
    other = encode_partition({**table, "v": table["v"][::-1].copy()})
    assert len(other) == len(frame)
    crc = slice_crcs(frame, [0, len(frame)])[0]
    assert crc == codec._PREFIX.unpack_from(frame)[1]
    assert slice_crcs(frame + other, [0, len(frame), len(frame), 2 * len(frame)])[1] == 0
    # A self-consistent frame that is not the one the directory announced.
    with pytest.raises(IntegrityError) as stale:
        decode_ranged_slices(other, 0, ((0, len(frame), crc),), key="obj")
    assert stale.value.layer == "slice.crc"
    # verify=False reads it anyway; so does a directory without crcs.
    assert decode_ranged_slices(other, 0, ((0, len(frame), crc),), verify=False)
    assert decode_ranged_slices(other, 0, ((0, len(frame), None),))


def test_one_crc_pass_per_slice_byte_on_each_side(monkeypatch):
    import zlib

    hashed = []
    real = zlib.crc32

    def counting(data, value=0):
        hashed.append(memoryview(data).nbytes)
        return real(data, value)

    monkeypatch.setattr(codec.zlib, "crc32", counting)
    rng = np.random.default_rng(4)
    table = {"k": rng.integers(0, 1000, 500).astype(np.int64), "v": rng.random(500)}
    reordered, boundaries = partition_scatter(table, ["k"], 8)
    payload, offsets = encode_partition_set(reordered, boundaries)
    crcs = slice_crcs(payload, offsets)
    covered = len(payload) - 5 * sum(1 for p in range(8) if offsets[p + 1] > offsets[p])
    assert sum(hashed) == covered
    hashed.clear()
    parts = [(offsets[p], offsets[p + 1], crcs[p]) for p in range(8) if offsets[p + 1] > offsets[p]]
    decode_ranged_slices(payload, 0, parts, key="obj")
    assert sum(hashed) == covered


# -- query answers are the parent's, whatever the wire options ----------------------------

#: sha256 prefixes of the result tables (column names, dtypes and bytes) at
#: SF 0.002 / seed 7, recorded at the parent commit — the zlib + JSON-header
#: wire format — with ``_table_digest`` below.
PARENT_DIGESTS = {
    "q3": "d879a30235dd6d2c",
    "q5": "cbaf6140c70547d2",
    "q18": "c4c9baffcd8c9d4d",
    "l_orderkey": "da071f8569925900",
    "l_suppkey": "a35849a309510de5",
}

WIRE_CONFIGS = {
    "default": ShuffleConfig(),
    "unchecked": ShuffleConfig(integrity=IntegrityConfig(generate=False)),
    "fast-block-stage": ShuffleConfig(compression=Compression.FAST),
}


def _table_digest(table) -> str:
    digest = hashlib.sha256()
    for name in table:
        column = np.ascontiguousarray(table[name])
        digest.update(name.encode())
        digest.update(column.dtype.str.encode())
        digest.update(column.tobytes())
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def stack():
    return _stack()


@pytest.mark.parametrize("wire", list(WIRE_CONFIGS))
@pytest.mark.parametrize("mode", ["serial", "threads", "processes"])
def test_join_queries_return_the_parents_tables(stack, mode, wire):
    config = WIRE_CONFIGS[wire]
    kwargs = {"execution_mode": mode, "shuffle_config": config, "integrity": config.integrity}
    if mode == "processes":
        kwargs["max_parallel_invocations"] = 2
    session = _session(*stack, **kwargs)
    try:
        for name, sql in (("q3", q.q3_sql), ("q5", q.q5_sql), ("q18", q.q18_sql)):
            result = session.sql(sql())
            assert _table_digest(result.table) == PARENT_DIGESTS[name], f"{name}/{mode}/{wire}"
            assert result.statistics.exchange.bytes_written > 0
    finally:
        session.close()
    assert leaked_segments() == []


@pytest.mark.parametrize("wire", list(WIRE_CONFIGS))
def test_group_bys_return_the_parents_tables(stack, wire):
    env, datasets = stack
    coordinator = ShuffleAggregateCoordinator(
        env, memory_mib=2048, num_buckets=4, config=WIRE_CONFIGS[wire]
    )
    aggregates = [
        AggregateSpec("sum", col("l_extendedprice") * (1 - col("l_discount")), "revenue"),
        AggregateSpec("count", None, "items"),
    ]
    for key in ("l_orderkey", "l_suppkey"):
        table, statistics = coordinator.execute(
            datasets["lineitem"].paths, group_by=[key], aggregates=aggregates, order_by=[key]
        )
        assert _table_digest(table) == PARENT_DIGESTS[key], f"{key}/{wire}"
        assert statistics.exchange.combined_put_requests == statistics.map_workers
