"""Round-trip and format-compatibility tests for the partition-frame codec.

The layout itself (encodings chosen, single crc, directory) is pinned in
``test_exchange_wire_format.py``.
"""

import numpy as np
import pytest

from repro.engine.table import table_num_rows, tables_allclose
from repro.errors import CorruptFileError
from repro.exchange.basic import deserialize_partition, serialize_partition
from repro.exchange.codec import (
    CHECKED_PARTITION_TAG,
    UNCHECKED_PARTITION_TAG,
    decode_partition,
    decode_partition_slice,
    encode_partition,
    encode_partition_set,
    is_fast_partition,
)
from repro.exchange.partition import partition_scatter
from repro.formats.compression import Compression
from repro.formats.parquet import MAGIC


def _case_tables():
    rng = np.random.default_rng(23)
    return {
        "mixed_dtypes": {
            "k": rng.integers(-(2 ** 60), 2 ** 60, 500, dtype=np.int64),
            "v": rng.random(500),
            "n": rng.integers(0, 100, 500).astype(np.int32),
            "b": rng.integers(0, 2, 500).astype(bool),
        },
        "single_row": {"k": np.array([7], dtype=np.int64), "v": np.array([1.25])},
        "strings": {
            "flag": np.array(["A", "N", "R", "A"]),
            "x": np.arange(4, dtype=np.float64),
        },
        "nan_and_inf": {
            "x": np.array([np.nan, np.inf, -np.inf, -0.0, 1.5]),
            "k": np.arange(5, dtype=np.int64),
        },
    }


@pytest.mark.parametrize("case", list(_case_tables()))
@pytest.mark.parametrize("compression", list(Compression))
def test_fast_codec_roundtrip_exact(case, compression):
    table = _case_tables()[case]
    restored = decode_partition(encode_partition(table, compression))
    assert list(restored.keys()) == list(table.keys())
    for name in table:
        assert restored[name].dtype == np.asarray(table[name]).dtype
        np.testing.assert_array_equal(restored[name], table[name])


def test_object_dtype_falls_back_to_json_block():
    table = {"tag": np.asarray(["x", None, ("a", 1)], dtype=object)}
    restored = decode_partition(encode_partition(table))
    assert restored["tag"].dtype == object
    assert restored["tag"].tolist() == ["x", None, ["a", 1]]


def test_decoded_columns_are_writable():
    table = {"k": np.arange(10, dtype=np.int64)}
    restored = decode_partition(encode_partition(table))
    restored["k"][0] = -1  # must not raise: frombuffer views are copied
    assert restored["k"][0] == -1


def test_serialize_partition_uses_fast_codec_by_default():
    table = {"k": np.arange(5, dtype=np.int64)}
    data = serialize_partition(table)
    assert is_fast_partition(data)
    # Checksums are on by default, so the checked frame tag is written;
    # checksum=False writes the same layout under the unchecked tag.
    assert data[0] == CHECKED_PARTITION_TAG
    unchecked = serialize_partition(table, checksum=False)
    assert is_fast_partition(unchecked)
    assert unchecked[0] == UNCHECKED_PARTITION_TAG
    assert unchecked[5:] == data[5:]


def test_legacy_lpq_objects_still_decode():
    table = {"k": np.arange(100, dtype=np.int64), "v": np.linspace(0, 1, 100)}
    legacy = serialize_partition(table, fast=False)
    assert not is_fast_partition(legacy)
    assert legacy[:4] == MAGIC
    assert tables_allclose(deserialize_partition(legacy), table)


def test_empty_partition_roundtrip():
    assert serialize_partition({}) == b""
    assert deserialize_partition(b"") == {}
    empty = {"k": np.zeros(0, dtype=np.int64)}
    assert serialize_partition(empty) == b""


def test_deserialize_sniffs_both_formats():
    table = {"k": np.arange(50, dtype=np.int64), "v": np.arange(50, dtype=np.float64)}
    for fast in (True, False):
        restored = deserialize_partition(serialize_partition(table, fast=fast))
        assert tables_allclose(restored, table)


def test_decode_rejects_non_fast_bytes():
    with pytest.raises(CorruptFileError):
        decode_partition(b"LPQ1 definitely not fast")


def test_decode_rejects_truncated_body():
    data = encode_partition({"k": np.arange(100, dtype=np.int64)}, Compression.NONE)
    with pytest.raises(CorruptFileError):
        decode_partition(data[: len(data) - 40])


def test_decode_rejects_truncated_header():
    data = encode_partition({"k": np.arange(10, dtype=np.int64)})
    with pytest.raises(CorruptFileError):
        decode_partition(data[:8])


@pytest.mark.parametrize("compression", list(Compression))
def test_partition_set_roundtrip_matches_per_partition_encode(compression):
    rng = np.random.default_rng(17)
    table = {
        "k": rng.integers(-(2 ** 60), 2 ** 60, 1000, dtype=np.int64),
        "v": rng.random(1000),
        "n": rng.integers(0, 50, 1000).astype(np.int32),
    }
    P = 16
    reordered, boundaries = partition_scatter(table, ["k"], P)
    payload, offsets = encode_partition_set(reordered, boundaries, compression)
    assert len(offsets) == P + 1
    assert offsets[0] == 0 and offsets[-1] == len(payload)
    for partition in range(P):
        blob = payload[offsets[partition]:offsets[partition + 1]]
        restored = decode_partition_slice(blob)
        start, end = int(boundaries[partition]), int(boundaries[partition + 1])
        assert table_num_rows(restored) == end - start
        for name in table:
            expected = reordered[name][start:end]
            assert restored[name].dtype == expected.dtype
            np.testing.assert_array_equal(restored[name], expected)


def test_partition_set_empty_partitions_occupy_zero_bytes():
    table = {"k": np.array([0, 0, 0], dtype=np.int64), "v": np.ones(3)}
    P = 8
    reordered, boundaries = partition_scatter(table, ["k"], P)
    payload, offsets = encode_partition_set(reordered, boundaries)
    non_empty = [p for p in range(P) if boundaries[p + 1] > boundaries[p]]
    assert len(non_empty) == 1
    for partition in range(P):
        width = offsets[partition + 1] - offsets[partition]
        if partition in non_empty:
            assert width > 0
        else:
            assert width == 0
            # Zero-length slices decode without touching any bytes.
            assert decode_partition_slice(b"") == {}


def test_partition_set_of_empty_table():
    table = {"k": np.zeros(0, dtype=np.int64), "v": np.zeros(0)}
    reordered, boundaries = partition_scatter(table, ["k"], 4)
    payload, offsets = encode_partition_set(reordered, boundaries)
    assert payload == b""
    assert offsets == [0, 0, 0, 0, 0]


def test_partition_set_slices_are_independent_fast_blobs():
    """Each non-empty slice is a self-contained fast-codec object."""
    rng = np.random.default_rng(5)
    table = {"k": rng.integers(0, 100, 300, dtype=np.int64), "v": rng.random(300)}
    reordered, boundaries = partition_scatter(table, ["k"], 4)
    payload, offsets = encode_partition_set(reordered, boundaries)
    for partition in range(4):
        blob = payload[offsets[partition]:offsets[partition + 1]]
        if blob:
            assert is_fast_partition(blob)
            # The slice also round-trips through the generic sniffing decoder.
            assert table_num_rows(deserialize_partition(blob)) > 0


def test_decode_partition_slice_accepts_legacy_lpq_parts():
    table = {"k": np.arange(20, dtype=np.int64), "v": np.linspace(0, 1, 20)}
    legacy_blob = serialize_partition(table, fast=False)
    restored = decode_partition_slice(legacy_blob)
    assert tables_allclose(restored, table)


def test_decode_partition_slice_views_and_copies():
    # A column that does not narrow travels raw, and raw decodes zero-copy.
    table = {"v": np.random.default_rng(1).random(10)}
    blob = encode_partition(table, Compression.NONE)
    view = decode_partition_slice(blob)  # zero-copy default
    assert not view["v"].flags.writeable
    assert np.shares_memory(view["v"], np.frombuffer(blob, dtype=np.uint8))
    copied = decode_partition_slice(blob, copy=True)
    copied["v"][0] = -1
    assert copied["v"][0] == -1


def test_exchange_roundtrip_with_legacy_sender():
    """A fleet where one sender still writes LPQ interoperates seamlessly."""
    from repro.cloud.s3 import ObjectStore
    from repro.exchange.basic import BasicExchange, ExchangeConfig

    rng = np.random.default_rng(3)
    P = 4
    tables = [
        {"key": rng.integers(0, 100, 50).astype(np.int64), "v": rng.random(50)}
        for _ in range(P)
    ]
    store = ObjectStore()
    exchange = BasicExchange(store, P, ExchangeConfig(keys=["key"]))
    for worker in range(P - 1):
        exchange.write(worker, tables[worker])
    # The last sender is an old worker: rewrite its objects in LPQ form.
    legacy_config = ExchangeConfig(keys=["key"], fast_codec=False)
    legacy = BasicExchange(store, P, legacy_config, naming=exchange._round.naming)
    legacy.write(P - 1, tables[P - 1])
    results = [exchange.read(worker) for worker in range(P)]
    assert sum(table_num_rows(t) for t in results) == sum(
        table_num_rows(t) for t in tables
    )