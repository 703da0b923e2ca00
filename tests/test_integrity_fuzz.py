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

LPQ files additionally get the stricter suite the exchange partition frame
has in ``test_exchange_wire_format.py``: every single bit of a small file —
leading magic, pages, footer head, footer directory, tail — and every
truncation, a typed error with key and layer each time.
"""

import numpy as np
import pytest

from repro.errors import CorruptFileError, IntegrityError
from repro.formats.compression import Compression
from repro.formats.encoding import Encoding
from repro.formats.parquet import (
    CHECKED_MAGIC,
    MAGIC,
    ColumnarFile,
    ColumnarWriter,
    write_table,
)
from repro.formats.schema import Schema


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
    assert data[:4] == MAGIC and data[-4:] == MAGIC
    assert write_table(table)[-4:] == CHECKED_MAGIC
    restored = ColumnarFile.from_bytes(data, verify=True).read_table()
    assert _tables_equal(table, restored)


def _small_file(checksum: bool = True):
    """A two-row-group file with a page of every kind, and where its parts lie."""
    rng = np.random.default_rng(91)
    n = 32
    table = {
        "k": np.cumsum(rng.integers(1, 40, n)).astype(np.int64),
        "price": np.round(rng.uniform(1.0, 500.0, n), 2),
        "v": rng.random(n),
        "flag": rng.integers(0, 3, n).astype(np.int32),
        "day": np.repeat(np.arange(4, dtype=np.int32), 8),
    }
    # Chunks this short all hold few enough values for a dictionary: force
    # the encodings a longer file would choose.
    encodings = {
        "k": Encoding.DELTA, "price": Encoding.FOR, "v": Encoding.PLAIN,
        "flag": Encoding.DICTIONARY, "day": Encoding.RLE,
    }
    writer = ColumnarWriter(
        Schema.from_table(table), row_group_rows=16, encodings=encodings, checksum=checksum
    )
    data = writer.write(table)
    reader = ColumnarFile.from_bytes(data, name="obj")
    metas = [group.column_meta(name) for group in reader.row_groups for name in table]
    assert {meta.encoding for meta in metas} == set(Encoding)
    footer_start = len(data) - 16 - len(reader.metadata.pack())
    assert metas[-1].offset + metas[-1].compressed_size == footer_start
    return table, data, footer_start


def _read(blob: bytes):
    return ColumnarFile.from_bytes(blob, verify=True, name="obj").read_table()


def test_every_single_bit_flip_of_a_checked_file_raises_typed():
    table, data, footer_start = _small_file()
    assert _tables_equal(table, _read(data))
    for position in range(len(data)):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[position] ^= 1 << bit
            with pytest.raises(CorruptFileError) as caught:
                _read(bytes(flipped))
            error = caught.value
            assert error.key == "obj", position
            if position < 4:
                expected = {"lpq.magic"}
            elif position < footer_start:
                expected = {"lpq.chunk"}  # the page's crc
            elif position < len(data) - 12:
                expected = {"lpq.footer"}  # head, schema, directory, and the crc itself
            else:
                expected = {"lpq.tail", "lpq.footer"}  # length, magic
            assert error.layer in expected, (position, bit, error.layer)
            if 4 <= position < len(data) - 16:
                # Every page and every footer byte is under a crc.
                assert isinstance(error, IntegrityError), position


def test_every_truncation_of_a_checked_file_raises_typed():
    _, data, _ = _small_file()
    for cut in range(len(data)):
        with pytest.raises(CorruptFileError) as caught:
            _read(data[:cut])
        assert caught.value.key == "obj" and caught.value.layer.startswith("lpq."), cut


def test_unchecked_files_fail_typed_on_flips_and_truncations():
    """Without a crc a flip may decode (to other values) — but what raises,
    raises typed with provenance, never a bare NumPy/struct/zlib error."""
    table, data, _ = _small_file(checksum=False)
    assert _tables_equal(table, _read(data))
    for cut in range(len(data)):
        with pytest.raises(CorruptFileError) as caught:
            _read(data[:cut])
        assert caught.value.key == "obj" and caught.value.layer.startswith("lpq."), cut
    for position in range(len(data)):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[position] ^= 1 << bit
            try:
                _read(bytes(flipped))
            except CorruptFileError as error:
                assert error.key == "obj" and error.layer.startswith("lpq."), position
