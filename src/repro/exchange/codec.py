"""Fast codec for shuffle-internal partition objects.

Every shuffle hop used to round-trip each partition through the full LPQ
columnar-file writer (:mod:`repro.formats.parquet`): per-row-group encoding
choice, min/max statistics, chunk bookkeeping, and a JSON footer — machinery
a *durable* file needs, but pure overhead for a partition object whose only
reader is the exchange peer a few hundred milliseconds later.

This codec ships a partition the way :mod:`repro.engine.payload` ships worker
results: one dtype-tagged raw buffer per column, written and read with a
single ``tobytes`` / ``np.frombuffer`` pass.  Layout::

    +------+------------+-------------+----------------------------------+
    | 0x01 | hdr length | JSON header | column buffers (one compressed   |
    | tag  | uint32 LE  |             |  block, codec named in header)   |
    +------+------------+-------------+----------------------------------+

with a JSON header of the form::

    {"num_rows": 1234, "compression": "fast",
     "columns": [{"name": "k", "dtype": "<i8", "nbytes": 9872},
                 {"name": "tag", "dtype": "object", "values": [...]}]}

The leading *format byte* ``0x01`` distinguishes fast-codec objects from
legacy LPQ files (which start with ``b"LPQ1"``, i.e. ``0x4C``), so
:func:`repro.exchange.basic.deserialize_partition` decodes old partition
objects — including the parts of write-combined objects — unchanged.
Columns holding Python objects cannot be shipped as raw buffers and fall
back to a JSON list inside the header, mirroring the payload codec.

**Multi-partition framing.**  :func:`encode_partition_set` serialises *all*
partitions of one sender into a single buffer in receiver order, returning
the byte-offset directory alongside it: partition ``p`` occupies
``offsets[p]:offsets[p + 1]`` and empty partitions occupy zero bytes.  Each
slice is a self-contained fast-codec blob, so a receiver decodes its share
with :func:`decode_partition_slice` straight from a ranged GET of its slice,
without downloading (or even touching) any other receiver's bytes.  This is
the write-combining layout of the paper's §4.4 cost analysis: one PUT per
sender, one ranged GET per non-empty (sender, receiver) pair.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.table import Table, table_num_rows
from repro.errors import CorruptFileError, IntegrityError
from repro.formats.compression import Compression, compress, decompress

#: Format byte of fast-codec partition objects (legacy LPQ starts with 0x4C).
FAST_PARTITION_TAG = 0x01

#: Format byte of *checksummed* fast-codec partition objects.  Same layout as
#: :data:`FAST_PARTITION_TAG` frames, except the prefix also carries a crc32
#: of the header bytes, the header carries a ``body_crc`` over the framed
#: (compressed) body, and every raw column entry carries a ``crc`` over its
#: decompressed buffer — complete byte coverage, so any flipped bit in the
#: frame fails either the prefix parse or one of the three checksum layers.
CHECKED_PARTITION_TAG = 0x02

#: Framing prefix: format byte + uint32 header length, little endian.
_PREFIX = struct.Struct("<BI")

#: Checksummed framing prefix: format byte + uint32 header length + uint32
#: crc32 of the header bytes, little endian.
_CHECKED_PREFIX = struct.Struct("<BII")


def is_fast_partition(data: Union[bytes, bytearray, memoryview]) -> bool:
    """Whether ``data`` is a fast-codec partition object (either tag)."""
    return len(data) >= _PREFIX.size and data[0] in (
        FAST_PARTITION_TAG,
        CHECKED_PARTITION_TAG,
    )


def _encode_blob(
    names: Sequence[str],
    arrays: Sequence[np.ndarray],
    num_rows: int,
    compression: Compression,
    checksum: bool = True,
) -> bytes:
    """Frame one partition's columns as a self-contained fast-codec blob."""
    columns: List[Dict] = []
    buffers: List[bytes] = []
    for name, array in zip(names, arrays):
        if array.dtype.hasobject:
            columns.append({"name": name, "dtype": "object", "values": array.tolist()})
        else:
            raw = array.tobytes()
            column = {"name": name, "dtype": array.dtype.str, "nbytes": len(raw)}
            if checksum:
                column["crc"] = zlib.crc32(raw)
            columns.append(column)
            buffers.append(raw)
    body = compress(b"".join(buffers), compression)
    payload = {
        "num_rows": int(num_rows), "compression": compression.value, "columns": columns
    }
    if checksum:
        payload["body_crc"] = zlib.crc32(body)
        header = json.dumps(payload).encode("utf-8")
        prefix = _CHECKED_PREFIX.pack(
            CHECKED_PARTITION_TAG, len(header), zlib.crc32(header)
        )
        return prefix + header + body
    header = json.dumps(payload).encode("utf-8")
    return _PREFIX.pack(FAST_PARTITION_TAG, len(header)) + header + body


def encode_partition(
    table: Table,
    compression: Compression = Compression.FAST,
    checksum: bool = True,
) -> bytes:
    """Serialise a partition table into the fast single-pass format.

    ``checksum`` (default on, per :class:`~repro.config.IntegrityConfig`)
    embeds header/body/per-column crc32 digests; pass ``False`` to emit the
    pre-integrity ``0x01`` frame.
    """
    names = list(table.keys())
    arrays = [np.ascontiguousarray(table[name]) for name in names]
    return _encode_blob(
        names, arrays, table_num_rows(table), compression, checksum=checksum
    )


def encode_partition_set(
    reordered: Table,
    boundaries: Union[Sequence[int], np.ndarray],
    compression: Compression = Compression.FAST,
    checksum: bool = True,
) -> Tuple[bytes, List[int]]:
    """Serialise every partition of a scattered table into one buffer.

    ``reordered``/``boundaries`` are the output of
    :func:`repro.exchange.partition.scatter_by_assignment`: partition ``p``
    occupies rows ``boundaries[p]:boundaries[p + 1]`` of every column.
    Returns ``(payload, offsets)`` where ``offsets`` has one entry per
    partition plus a final total length, i.e. partition ``p``'s slice is
    ``payload[offsets[p]:offsets[p + 1]]`` — a self-contained blob that
    :func:`decode_partition_slice` reads from a ranged GET.  Empty partitions
    occupy zero bytes and are never serialised at all, so a sender pays
    nothing — no framing, no compression call — for receivers it has no rows
    for.
    """
    num_partitions = len(boundaries) - 1
    names = list(reordered.keys())
    # One contiguity pass per column for the whole set; partition slices of a
    # contiguous array are themselves contiguous, so the per-partition
    # ``tobytes`` below copies each row range exactly once.
    arrays = [np.ascontiguousarray(reordered[name]) for name in names]
    blobs: List[bytes] = []
    offsets: List[int] = [0]
    for partition in range(num_partitions):
        start, end = int(boundaries[partition]), int(boundaries[partition + 1])
        if end <= start:
            offsets.append(offsets[-1])
            continue
        blob = _encode_blob(
            names,
            [array[start:end] for array in arrays],
            end - start,
            compression,
            checksum=checksum,
        )
        blobs.append(blob)
        offsets.append(offsets[-1] + len(blob))
    return b"".join(blobs), offsets


def decode_partition_slice(
    data: Union[bytes, bytearray, memoryview],
    copy: bool = False,
    verify: bool = True,
    key: Optional[str] = None,
) -> Table:
    """Decode one receiver's slice of a combined partition object.

    Zero-length slices (empty partitions) decode to an empty table without
    any parsing.  The slice format is sniffed per blob, so combined objects
    whose parts were written by an old LPQ sender still decode.  By default
    the columns are read-only zero-copy views of the slice bytes (the reduce
    side folds them straight into a merge); pass ``copy=True`` for mutable
    columns.  ``key`` names the object in corruption reports.
    """
    if not data:
        return {}
    if is_fast_partition(data):
        return decode_partition(data, copy=copy, verify=verify, key=key)
    from repro.formats.parquet import ColumnarFile

    return ColumnarFile.from_bytes(bytes(data), name=key).read_table()


def decode_partition(
    data: Union[bytes, bytearray, memoryview],
    copy: bool = True,
    verify: bool = True,
    key: Optional[str] = None,
) -> Table:
    """Inverse of :func:`encode_partition`.

    ``copy=False`` returns read-only ``frombuffer`` views of the body where
    possible instead of materialising fresh arrays.  Checksummed (``0x02``)
    frames are verified on read unless ``verify=False``; a mismatch raises
    :class:`~repro.errors.IntegrityError` with ``key`` as the provenance.
    Pre-integrity ``0x01`` frames always decode without verification.
    """
    if not is_fast_partition(data):
        raise CorruptFileError(
            "not a fast-codec partition object", key=key, layer="codec.prefix"
        )
    # One view of the input: the checksum and decompress calls below take
    # slices of it instead of copying the body out per layer.
    view = memoryview(data)
    checked = data[0] == CHECKED_PARTITION_TAG
    prefix = _CHECKED_PREFIX if checked else _PREFIX
    if len(data) < prefix.size:
        raise CorruptFileError(
            "truncated fast partition prefix", key=key, layer="codec.prefix"
        )
    header_crc: Optional[int] = None
    if checked:
        _, header_length, header_crc = prefix.unpack_from(data)
    else:
        _, header_length = prefix.unpack_from(data)
    header_end = prefix.size + header_length
    if len(data) < header_end:
        raise CorruptFileError(
            "truncated fast partition header", key=key, layer="codec.header"
        )
    header_bytes = bytes(view[prefix.size:header_end])
    if verify and header_crc is not None:
        actual = zlib.crc32(header_bytes)
        if actual != header_crc:
            raise IntegrityError(
                "fast partition header checksum mismatch",
                key=key, layer="codec.header",
                expected=header_crc, actual=actual,
            )
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFileError(
            f"invalid fast partition header: {exc}", key=key, layer="codec.header"
        ) from exc
    body_crc = header.get("body_crc")
    if verify and body_crc is not None:
        actual = zlib.crc32(view[header_end:])
        if actual != body_crc:
            raise IntegrityError(
                "fast partition body checksum mismatch",
                key=key, layer="codec.body",
                expected=body_crc, actual=actual,
            )
    compression = Compression(header["compression"])
    if compression is Compression.NONE:
        # Zero-copy hot path: an uncompressed body is sliced, not copied, so a
        # partition living in a shared-memory segment decodes into views of
        # the segment itself (``memoryview`` slices reference the same buffer).
        body = view[header_end:]
        if isinstance(data, bytearray):
            # Mutable input: detach, so the columns stay read-only.
            body = memoryview(bytes(body))
    else:
        body = memoryview(decompress(view[header_end:], compression))

    table: Table = {}
    num_rows = int(header["num_rows"])
    offset = 0
    for column in header["columns"]:
        name = column["name"]
        if column["dtype"] == "object":
            table[name] = np.asarray(column["values"], dtype=object)
        else:
            dtype = np.dtype(column["dtype"])
            nbytes = int(column["nbytes"])
            if offset + nbytes > len(body) or nbytes % dtype.itemsize:
                raise CorruptFileError(
                    f"truncated column buffer for {name!r}",
                    key=key, layer="codec.column", offset=offset,
                )
            expected_crc = column.get("crc")
            if verify and expected_crc is not None:
                actual = zlib.crc32(body[offset:offset + nbytes])
                if actual != expected_crc:
                    raise IntegrityError(
                        f"column {name!r} buffer checksum mismatch",
                        key=key, layer="codec.column", offset=offset,
                        expected=expected_crc, actual=actual,
                    )
            # frombuffer is a read-only view of the body; copy (by default) so
            # callers can sort/mutate the columns like any other table.
            view = np.frombuffer(
                body, dtype=dtype, count=nbytes // dtype.itemsize, offset=offset
            )
            table[name] = view.copy() if copy else view
            offset += nbytes
        if len(table[name]) != num_rows:
            raise CorruptFileError(
                f"column {name!r} has {len(table[name])} values, expected {num_rows}",
                key=key, layer="codec.column",
            )
    return table
