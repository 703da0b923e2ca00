"""Byte-flip fuzzing for the checksummed on-wire formats.

The integrity guarantee is *detection*: flipping any byte of a checked
artifact must make the decoder raise — it must never silently return a
table that differs from the original.  These tests XOR-flip byte
positions across each format (every position for small artifacts,
stride-sampled for larger ones) and assert exactly that.

The decoder is allowed to raise anything — a flip in a length field can
surface as a struct/JSON/zlib error before the crc check runs — but the
common path should be :class:`CorruptFileError` (of which
:class:`IntegrityError` is a subclass).  What is *never* allowed is a
clean decode of different data.

The exchange partition frame has the stricter suite — every single bit,
every truncation, a typed error with key and layer each time — in
``test_exchange_wire_format.py``.
"""

import json

import numpy as np
import pytest

from repro.driver.integrity import message_intact, sign_message
from repro.engine.payload import decode_table, encode_table
from repro.errors import CorruptFileError
from repro.formats.compression import Compression
from repro.formats.parquet import ColumnarFile, write_table


def _fuzz_table():
    rng = np.random.default_rng(91)
    n = 256
    return {
        "k": rng.integers(-(2 ** 40), 2 ** 40, n, dtype=np.int64),
        "v": rng.random(n),
        "n": rng.integers(0, 100, n).astype(np.int32),
    }


def _tables_equal(left, right) -> bool:
    if list(left.keys()) != list(right.keys()):
        return False
    for name in left:
        a, b = np.asarray(left[name]), np.asarray(right[name])
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype.hasobject:
            if a.tolist() != b.tolist():
                return False
        elif a.tobytes() != b.tobytes():
            return False
    return True


def _positions(length: int, budget: int = 2048):
    """Every byte position when affordable, else an offset-striding sample."""
    if length <= budget:
        return range(length)
    stride = max(1, length // budget)
    return range(0, length, stride)


def _assert_flips_detected(data: bytes, decode, baseline, label: str):
    """Flip sampled bytes of ``data``; ``decode`` must raise or round-trip."""
    raised = 0
    for position in _positions(len(data)):
        for mask in (0x01, 0xFF):
            corrupted = bytearray(data)
            corrupted[position] ^= mask
            try:
                result = decode(bytes(corrupted))
            except Exception:  # noqa: BLE001 - any raise is a detection
                raised += 1
                continue
            assert _tables_equal(baseline, result), (
                f"{label}: silent corruption at byte {position} mask {mask:#x}"
            )
    # The formats carry no slack bytes, so essentially every flip must land.
    assert raised > 0


# -- LPQ columnar files -----------------------------------------------------------------


def test_lpq_file_flips_always_detected():
    table = _fuzz_table()
    data = write_table(table, row_group_rows=64, compression=Compression.GZIP)

    def decode(blob):
        return ColumnarFile.from_bytes(blob, verify=True, name="fuzz.lpq").read_table()

    _assert_flips_detected(data, decode, decode(data), "lpq")


def test_lpq_unchecked_file_still_decodes():
    table = _fuzz_table()
    data = write_table(table, checksum=False)
    assert data[:4] == b"LPQ1" and data[-4:] == b"LPQ1"
    restored = ColumnarFile.from_bytes(data, verify=True).read_table()
    assert set(restored) == set(table)


# -- result payloads inside signed messages ---------------------------------------------


def test_signed_message_flips_always_detected():
    """Flips of the serialised result message never yield a different table.

    The defence is layered the way the real consumer is: JSON parse, then
    the message digest, then the payload's per-column crcs + structural
    digest.  A flip may be caught at any layer; it must be caught somewhere.
    """
    table = _fuzz_table()
    message = sign_message(
        {"worker_id": 3, "status": "ok", "result": encode_table(table, checksum=True)}
    )
    data = json.dumps(message).encode("utf-8")

    def decode(blob):
        payload = json.loads(blob.decode("utf-8"))
        if not message_intact(payload):
            raise CorruptFileError("message digest mismatch", layer="sqs.digest")
        return decode_table(payload["result"], verify=True, key="fuzz")

    _assert_flips_detected(data, decode, table, "message")


def test_payload_digest_covers_structure():
    """Renames/dtype swaps of intact buffers are caught by the digest."""
    table = _fuzz_table()
    payload = encode_table(table, checksum=True)

    renamed = json.loads(json.dumps(payload))
    renamed["columns"][0]["name"] = "kk"
    with pytest.raises(CorruptFileError):
        decode_table(renamed, verify=True)

    retyped = json.loads(json.dumps(payload))
    retyped["columns"][0]["dtype"] = "<u8"
    with pytest.raises(CorruptFileError):
        decode_table(retyped, verify=True)

    rerowed = json.loads(json.dumps(payload))
    rerowed["num_rows"] = rerowed["num_rows"] + 1
    with pytest.raises(CorruptFileError):
        decode_table(rerowed, verify=True)
