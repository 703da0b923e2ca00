"""Tests for the result-table codec: one typed frame, whatever the table.

The message around the frame (header, digest, spill rule) is covered by
``tests/test_result_plane.py``.
"""

import json

import numpy as np
import pytest

from repro.cloud.environment import CloudEnvironment
from repro.config import IntegrityConfig
from repro.driver.integrity import open_message, post_result
from repro.engine.payload import decode_table, encode_table
from repro.errors import CorruptFileError
from repro.exchange.codec import is_fast_partition


def _wire(table) -> str:
    """The message text a worker posts for ``table``."""
    env = CloudEnvironment.create()
    env.sqs.create_queue("results")
    post_result(
        env, "results", IntegrityConfig(), {"worker_id": 0}, encode_table(table),
        "q/worker-0.a0",
    )
    return env.sqs.receive_messages("results")[0].body


def _round_trip(table):
    return decode_table(open_message(_wire(table))["frame"])


def test_large_tables_go_binary():
    rng = np.random.default_rng(5)
    table = {"k": rng.integers(-(2 ** 60), 2 ** 60, 4096, dtype=np.int64)}
    frame = encode_table(table)
    assert isinstance(frame, bytes) and is_fast_partition(frame)
    # The column's own bytes plus a fixed head — no text form of the values.
    assert 8 * 4096 < len(frame) < 8 * 4096 + 64


def test_binary_roundtrip_preserves_dtypes_and_values():
    rng = np.random.default_rng(3)
    table = {
        "i64": rng.integers(-(2 ** 60), 2 ** 60, 1000, dtype=np.int64),
        "u32": rng.integers(0, 2 ** 32 - 1, 1000).astype(np.uint32),
        "f64": rng.random(1000),
        "f32": rng.random(1000).astype(np.float32),
        "b": rng.integers(0, 2, 1000).astype(bool),
    }
    restored = _round_trip(table)
    assert list(restored) == list(table)
    for name in table:
        assert restored[name].dtype == table[name].dtype
        np.testing.assert_array_equal(restored[name], table[name])


def test_small_tables_keep_their_dtypes_too():
    """The ``{name: list}`` form widened a 5-row int8 column to int64."""
    table = {"k": np.arange(5, dtype=np.int8), "f": np.ones(5, dtype=np.float32)}
    restored = _round_trip(table)
    assert [restored[name].dtype for name in table] == [np.int8, np.float32]


def test_binary_roundtrip_preserves_nan_and_inf():
    table = {"x": np.array([np.nan, np.inf, -np.inf, -0.0] * 100)}
    restored = _round_trip(table)
    assert restored["x"].tobytes() == table["x"].tobytes()


def test_unicode_columns_roundtrip():
    table = {"tag": np.array(["A", "N", "R", "żółć"] * 50)}
    restored = _round_trip(table)
    assert restored["tag"].dtype == table["tag"].dtype
    np.testing.assert_array_equal(restored["tag"], table["tag"])


def test_object_columns_fall_back_to_lists():
    table = {"o": np.array([{"a": 1}, {"b": 2}] * 40, dtype=object)}
    restored = _round_trip(table)
    assert restored["o"].dtype == object
    assert restored["o"][1] == {"b": 2}


def test_decoded_columns_are_writable():
    table = {"x": np.arange(1000, dtype=np.float64) / 7}
    restored = _round_trip(table)
    restored["x"][0] = 42.0  # must not raise (frombuffer views are read-only)
    view = decode_table(encode_table(table), copy=False)
    assert not view["x"].flags.writeable


def test_empty_table_roundtrip():
    assert _round_trip({}) == {}


def test_zero_row_columns_roundtrip_binary():
    table = {"x": np.zeros(0, dtype=np.float64), "s": np.zeros(0, dtype="<U3")}
    restored = _round_trip(table)
    assert [restored[name].dtype for name in table] == [np.float64, np.dtype("<U3")]
    assert len(restored["x"]) == len(restored["s"]) == 0


def test_unknown_version_rejected():
    """The frame's first byte is its format tag: anything but the two known
    ones is refused, typed, before a byte of it is interpreted."""
    frame = bytearray(encode_table({"x": np.arange(100.0)}))
    frame[0] = 0x63
    with pytest.raises(CorruptFileError) as refused:
        decode_table(bytes(frame), key="worker-0")
    assert (refused.value.layer, refused.value.key) == ("codec.prefix", "worker-0")


def test_binary_wire_is_json_serialisable_and_smaller_for_floats():
    """The frame travels as text a queue accepts, well under the size of
    the seed's ``tolist`` JSON."""
    rng = np.random.default_rng(11)
    table = {"x": rng.random(10_000)}
    legacy_wire = json.dumps({name: column.tolist() for name, column in table.items()})
    wire = _wire(table)
    assert wire.isascii() and wire.count("\n") == 1  # header, LF, frame
    assert len(wire) < 0.6 * len(legacy_wire)
