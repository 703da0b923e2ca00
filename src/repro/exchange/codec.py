"""Typed, lightweight wire format of shuffle-internal partition objects.

A partition object's only reader is the exchange peer a few hundred
milliseconds later, and the exchange is bound by *requests*, not bytes
(paper §4.4) — so the format spends no CPU on a general-purpose compressor.
Each column is instead stored in the cheapest of the *light-weight*
encodings LPQ files use too (paper §4.3.2; one table and one set of kernels,
:mod:`repro.formats.encoding`), chosen from the data in a handful of
vectorised NumPy passes per column for **all** partitions of a sender at once.

Frame layout (all integers little endian)::

    prefix   u8  tag        0x03 checked frame, 0x04 unchecked (crc field 0)
             u32 crc32      of every byte after the prefix
    head     u16 schema length
             ... schema     identical for every slice of one sender: packed
                            once per ``encode_partition_set`` call, parsed
                            once per distinct schema on the read side
             u32 num_rows
             ... directory  one 11-byte entry per column
    body     column blocks in schema order (one optional block-compression
             stage over the whole body, named in the schema; default none)

    schema   u8  compression   0 none, 1 fast (zlib-1), 2 gzip (zlib-6)
             u16 column count
             per column: u16 name length, utf-8 name,
                         u8 dtype length, ascii ``dtype.str`` or ``object``

    entry    u8  encoding   see below
             u8  width      bytes per stored value of FOR/DELTA: 0, 1, 2 or 4
             u8  exponent   float64 columns stored as integers of
                            ``value * 10**exponent`` (0 or 2); else 0
             u64 base       FOR: minimum; DELTA: first value (both as the
                            unsigned bit pattern); JSON: block length

Encodings (the id in the directory entry; ``RAW``, ``FOR`` and ``DELTA`` are
the file format's ``PLAIN`` / ``FOR`` / ``DELTA``, narrowing rules and all —
see :mod:`repro.formats.encoding`):

``RAW`` (0)
    The column's own bytes — written and read zero-copy.  Everything that
    does not narrow: floats with real fractions, hashed keys, strings.
``FOR`` (1), ``DELTA`` (2)
    Offsets from the partition's minimum / steps from the previous value,
    narrowed to u8/u16/u32; ``float64`` columns go through them as exact
    scaled decimals.
``JSON`` (3)
    Object columns only: the utf-8 JSON list of the values (tuples come back
    as lists).  The only use of ``json`` in this module.

A partition of fewer than 16 rows is shipped ``RAW`` unexamined: looking
costs more than its bytes.  Every choice is made per partition, from that
partition's rows alone.

**Integrity.**  One crc32 pass per byte on each side.  The writer hashes the
frame's bytes after the prefix once and stores the digest in the prefix; a
combined object's key directory publishes that same number per slice
(:func:`slice_crcs` reads it back, it does not re-hash).  The reader hashes a
slice once, against the embedded digest (layer ``codec.crc``), and compares
the embedded digest with the directory's (layer ``slice.crc``, which is what
catches a stale but self-consistent body) — :func:`decode_ranged_slices`;
:func:`verify_frame` is the same checks without the decode, for a frame that
is accepted in one place and decoded in another (a worker's result table,
:mod:`repro.engine.payload`).  The two tags differ in three bits, so no single flipped bit turns a checked
frame into an unchecked one.

**Multi-partition framing.**  :func:`encode_partition_set` serialises all
partitions of one sender into a single buffer in receiver order, returning
the byte-offset directory alongside it: partition ``p`` occupies
``offsets[p]:offsets[p + 1]``, empty partitions occupy zero bytes, and each
slice is a self-contained frame — byte-identical to :func:`encode_partition`
of that partition — that a receiver decodes straight from a ranged GET.  This
is the write-combining layout of the paper's §4.4 cost analysis: one PUT per
sender, one ranged GET per non-empty (sender, receiver) pair.
"""

from __future__ import annotations

import functools
import json
import re
import struct
import zlib
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.table import Table, table_num_rows
from repro.errors import CorruptFileError, IntegrityError
from repro.formats.compression import (
    COMPRESSION_BY_ID,
    COMPRESSION_IDS,
    Compression,
    compress,
    decompress,
)
from repro.formats.encoding import (
    DELTA,
    ENTRY,
    FOR,
    RAW,
    SCALES,
    UNSIGNED,
    Tiling,
    narrow_tiles,
    widen,
)

#: Format byte of a checksummed frame (LPQ files start with 0x4C).
CHECKED_PARTITION_TAG = 0x03

#: Format byte of a frame written with ``checksum=False``: same layout, crc
#: field zero.  Three bits away from :data:`CHECKED_PARTITION_TAG`.
UNCHECKED_PARTITION_TAG = 0x04

#: Directory id of an object column's JSON block; the fixed-width encodings
#: (``RAW`` / ``FOR`` / ``DELTA``) are :mod:`repro.formats.encoding`'s.
JSON = 3

_PREFIX = struct.Struct("<BI")
_SCHEMA_LENGTH = struct.Struct("<H")
_SCHEMA_HEAD = struct.Struct("<BH")
_NAME_LENGTH = struct.Struct("<H")
_NUM_ROWS = struct.Struct("<I")

#: Partitions shorter than this ship RAW without being looked at.  Choosing an
#: encoding costs a fixed couple of dozen NumPy calls per column however few
#: rows there are; below this length that is more time than the at most
#: ``8 * rows`` bytes it could save take to transfer, and the objects that
#: short — a worker's partial aggregates, a dimension table's partitions —
#: are where the fixed cost is all there is.
_MIN_NARROW_ROWS = 16

_FLOAT64 = np.dtype(np.float64)

#: ``dtype.str`` of the fixed-width column types a frame can carry; anything
#: else in a schema section is corruption, not something to hand ``np.dtype``.
_DTYPE_STR = re.compile(rb"[<>|=][biufcmMSUV]\d+(\[[0-9A-Za-z]+\])?")

Buffer = Union[bytes, bytearray, memoryview]


def is_fast_partition(data: Buffer) -> bool:
    """Whether ``data`` starts like a partition frame (either tag)."""
    return len(data) >= _PREFIX.size and data[0] in (
        CHECKED_PARTITION_TAG,
        UNCHECKED_PARTITION_TAG,
    )


# -- write side --------------------------------------------------------------------------


def _pack_schema(
    names: Sequence[str], arrays: Sequence[np.ndarray], compression: Compression
) -> bytes:
    """The schema section, prefixed with its length: once per sender."""
    parts = [_SCHEMA_HEAD.pack(COMPRESSION_IDS[compression], len(names))]
    for name, array in zip(names, arrays):
        encoded = name.encode("utf-8")
        dtype = b"object" if array.dtype.hasobject else array.dtype.str.encode("ascii")
        parts += [_NAME_LENGTH.pack(len(encoded)), encoded, bytes([len(dtype)]), dtype]
    schema = b"".join(parts)
    return _SCHEMA_LENGTH.pack(len(schema)) + schema


def _plan_column(array: np.ndarray, tiling: Tiling, entries: np.ndarray) -> List:
    """Encode one column for every partition: fills ``entries``, returns blocks."""
    slices = tiling.slices
    if array.dtype.hasobject:
        blocks = [
            json.dumps(array[start:end].tolist()).encode("utf-8")
            for start, end in slices
        ]
        entries["encoding"] = JSON
        entries["base"] = [len(block) for block in blocks]
        return blocks
    return [
        array[start:end] if block is None else block
        for block, (start, end) in zip(narrow_tiles(array, tiling, entries), slices)
    ]


def _seal(head: bytes, blocks: Sequence, checksum: bool) -> List:
    """A frame's buffers: the prefix — with the one crc32 over everything
    after it, when ``checksum`` — then ``head`` and ``blocks``."""
    if not checksum:
        return [_PREFIX.pack(UNCHECKED_PARTITION_TAG, 0), head, *blocks]
    crc = zlib.crc32(head)
    for block in blocks:
        crc = zlib.crc32(block, crc)
    return [_PREFIX.pack(CHECKED_PARTITION_TAG, crc), head, *blocks]


def _encode_frames(
    names: Sequence[str],
    arrays: Sequence[np.ndarray],
    bounds: Sequence[int],
    compression: Compression,
    checksum: bool,
) -> Tuple[List, List[int]]:
    """Frame the non-empty partitions ``bounds[p]:bounds[p + 1]`` of ``arrays``.

    Returns the buffers of all frames in order (for one final ``join``) and
    the byte length of each partition's frame (0 for an empty partition).
    """
    lengths = [0] * (len(bounds) - 1)
    live = [p for p in range(len(lengths)) if bounds[p + 1] > bounds[p]]
    if not live:
        return [], lengths
    schema = _pack_schema(names, arrays, compression)
    low, high = bounds[live[0]], bounds[live[-1] + 1]
    slices = [(bounds[p] - low, bounds[p + 1] - low) for p in live]
    counts = np.array([end - start for start, end in slices], dtype=np.intp)
    tiling = Tiling(
        np.array([start for start, _ in slices], dtype=np.intp),
        counts,
        slices,
        counts >= _MIN_NARROW_ROWS,
    )
    directory = np.zeros((len(live), len(arrays)), dtype=ENTRY)
    columns = [
        _plan_column(array[low:high], tiling, directory[:, index])
        for index, array in enumerate(arrays)
    ]
    parts: List = []
    for index, partition in enumerate(live):
        head = b"".join((
            schema,
            _NUM_ROWS.pack(bounds[partition + 1] - bounds[partition]),
            directory[index].tobytes(),
        ))
        blocks = [column[index] for column in columns]
        if compression is not Compression.NONE:
            blocks = [compress(b"".join(blocks), compression)]
        frame = _seal(head, blocks, checksum)
        lengths[partition] = sum(memoryview(part).nbytes for part in frame)
        parts += frame
    return parts, lengths


def encode_frame(
    table: Table,
    compression: Compression = Compression.NONE,
    checksum: bool = True,
) -> bytes:
    """Serialise a table into one frame.

    ``checksum`` (default on, per :class:`~repro.config.IntegrityConfig`)
    embeds the frame crc32; ``False`` writes the unchecked tag and no digest.
    ``compression`` is the optional block stage over the encoded body.
    """
    names = list(table.keys())
    arrays = [np.ascontiguousarray(table[name]) for name in names]
    num_rows = table_num_rows(table)
    if num_rows == 0:
        # Nothing to choose an encoding from: every column is an empty RAW.
        head = (
            _pack_schema(names, arrays, Compression.NONE)
            + _NUM_ROWS.pack(0)
            + np.zeros(len(arrays), dtype=ENTRY).tobytes()
        )
        return b"".join(_seal(head, (), checksum))
    parts, _ = _encode_frames(names, arrays, [0, num_rows], compression, checksum)
    return b"".join(parts)


def encode_partition(
    table: Table,
    compression: Compression = Compression.NONE,
    checksum: bool = True,
) -> bytes:
    """:func:`encode_frame` of one exchange partition.

    The exchange plane's own entry point: result tables
    (:mod:`repro.engine.payload`) go through :func:`encode_frame` directly,
    so a trace that wraps functions from outside tells the two planes apart.
    """
    return encode_frame(table, compression, checksum)


def encode_partition_set(
    reordered: Table,
    boundaries: Union[Sequence[int], np.ndarray],
    compression: Compression = Compression.NONE,
    checksum: bool = True,
) -> Tuple[bytes, List[int]]:
    """Serialise every partition of a scattered table into one buffer.

    ``reordered``/``boundaries`` are the output of
    :func:`repro.exchange.partition.scatter_by_assignment`: partition ``p``
    occupies rows ``boundaries[p]:boundaries[p + 1]`` of every column.
    Returns ``(payload, offsets)`` where ``offsets`` has one entry per
    partition plus a final total length, i.e. partition ``p``'s slice is
    ``payload[offsets[p]:offsets[p + 1]]`` — a self-contained frame that
    :func:`decode_partition_slice` reads from a ranged GET.  Empty partitions
    occupy zero bytes and are never serialised at all.  The schema is packed
    and every column's encodings are chosen once for the whole set.
    """
    names = list(reordered.keys())
    arrays = [np.ascontiguousarray(reordered[name]) for name in names]
    parts, lengths = _encode_frames(
        names, arrays, [int(bound) for bound in boundaries], compression, checksum
    )
    offsets = [0]
    for length in lengths:
        offsets.append(offsets[-1] + length)
    return b"".join(parts), offsets


def slice_crcs(payload: Buffer, offsets: Sequence[int]) -> List[int]:
    """The crc32 each slice of a combined object carries in its prefix.

    These are the numbers a combined object's key publishes next to the
    offset directory (:meth:`~repro.exchange.naming.WriteCombiningNaming.
    combined_key`): read back from the frames, not re-hashed.  Empty slices
    publish 0.
    """
    return [
        _PREFIX.unpack_from(payload, start)[1] if end > start else 0
        for start, end in zip(offsets, offsets[1:])
    ]


# -- read side ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _parse_schema(schema: bytes) -> Tuple[Compression, Tuple[str, ...], Tuple]:
    """``(compression, names, dtypes)`` of a schema section (``None`` = object).

    Cached on the section's bytes: every slice of one sender — and usually of
    one wave — repeats the same section.
    """
    compression_id, count = _SCHEMA_HEAD.unpack_from(schema)
    offset = _SCHEMA_HEAD.size
    names, dtypes = [], []
    for _ in range(count):
        (length,) = _NAME_LENGTH.unpack_from(schema, offset)
        offset += _NAME_LENGTH.size
        names.append(schema[offset:offset + length].decode("utf-8"))
        offset += length
        length = schema[offset]
        text = schema[offset + 1:offset + 1 + length]
        offset += 1 + length
        if text == b"object":
            dtypes.append(None)
        elif _DTYPE_STR.fullmatch(text):
            dtypes.append(np.dtype(text.decode("ascii")))
        else:
            raise ValueError(f"not a plain dtype string: {text!r}")
    if offset != len(schema):
        raise ValueError("schema section does not match its length")
    return COMPRESSION_BY_ID[compression_id], tuple(names), tuple(dtypes)


def _read_head(view: memoryview):
    """A frame's head: ``(compression, names, dtypes, num_rows, directory
    entries as (encoding, width, exponent, base) tuples, body offset)``."""
    (schema_length,) = _SCHEMA_LENGTH.unpack_from(view, _PREFIX.size)
    offset = _PREFIX.size + _SCHEMA_LENGTH.size
    if offset + schema_length > len(view):
        raise ValueError("truncated schema section")
    compression, names, dtypes = _parse_schema(bytes(view[offset:offset + schema_length]))
    offset += schema_length
    (num_rows,) = _NUM_ROWS.unpack_from(view, offset)
    offset += _NUM_ROWS.size
    entries = np.frombuffer(view, dtype=ENTRY, count=len(names), offset=offset)
    offset += len(names) * ENTRY.itemsize
    return compression, names, dtypes, num_rows, entries.tolist(), offset


def _decode_column(
    body: memoryview,
    offset: int,
    dtype: Optional[np.dtype],
    num_rows: int,
    entry: Tuple[int, int, int, int],
    copy: bool,
) -> Tuple[np.ndarray, int]:
    """One column from its directory entry; returns it and its block length."""
    encoding, width, exponent, base = entry
    if num_rows == 0:
        # A zero-row frame stores no blocks, whatever the column type.
        return np.empty(0, dtype=object if dtype is None else dtype), 0
    if dtype is None:
        if encoding != JSON or offset + base > len(body):
            raise ValueError("object column without a JSON block")
        values = json.loads(bytes(body[offset:offset + base]))
        if not isinstance(values, list):
            raise ValueError("JSON block is not a list")
        column = np.empty(len(values), dtype=object)
        for index, value in enumerate(values):
            column[index] = value
        return column, base
    if encoding == RAW:
        raw = np.frombuffer(body, dtype=dtype, count=num_rows, offset=offset)
        return (raw.copy() if copy else raw), num_rows * dtype.itemsize
    decimal = dtype == _FLOAT64
    narrowable = decimal or (dtype.kind in "iub" and dtype.isnative)
    known = (encoding == FOR and width == 0) or (
        encoding in (FOR, DELTA) and width in UNSIGNED
    )
    if not (
        narrowable
        and known
        and width < dtype.itemsize
        and exponent in SCALES
        and (decimal or not exponent)
    ):
        raise ValueError("invalid directory entry")
    stored = (
        np.frombuffer(body, dtype=UNSIGNED[width], count=num_rows, offset=offset)
        if width
        else None
    )
    return widen(stored, num_rows, dtype, encoding, exponent, base), num_rows * width


def verify_frame(
    data: Buffer,
    length: Optional[int] = None,
    crc: Optional[int] = None,
    hashed: bool = True,
    key: Optional[str] = None,
    offset: int = 0,
) -> None:
    """Check a frame without decoding it.

    ``length`` and ``crc`` are what the frame's announcement — a key
    directory, a result header — published about it: the byte count (layer
    ``slice.length``) and the embedded digest (``slice.crc``, which is what
    catches a stale or swapped but self-consistent frame).  ``hashed`` adds
    the one crc32 pass of a checked frame against its embedded digest
    (``codec.crc``).  Raises :class:`~repro.errors.IntegrityError`, or
    :class:`~repro.errors.CorruptFileError` for bytes that are no frame, with
    ``key`` and ``offset`` (where the frame starts in its object) as the
    provenance.
    """
    if length is not None and len(data) != length:
        raise IntegrityError(
            "frame is not the announced length",
            key=key, layer="slice.length", offset=offset,
            expected=length, actual=len(data),
        )
    if not is_fast_partition(data):
        raise CorruptFileError(
            "not a partition frame", key=key, layer="codec.prefix"
        )
    tag, embedded = _PREFIX.unpack_from(data)
    if crc is not None and embedded != crc:
        raise IntegrityError(
            "frame does not carry the crc its announcement publishes",
            key=key, layer="slice.crc", offset=offset, expected=crc, actual=embedded,
        )
    if hashed and tag == CHECKED_PARTITION_TAG:
        actual = zlib.crc32(memoryview(data)[_PREFIX.size:])
        if actual != embedded:
            raise IntegrityError(
                "partition frame checksum mismatch",
                key=key, layer="codec.crc", offset=offset + _PREFIX.size,
                expected=embedded, actual=actual,
            )


def decode_frame(
    data: Buffer,
    copy: bool = True,
    verify: bool = True,
    key: Optional[str] = None,
) -> Table:
    """Inverse of :func:`encode_frame`.

    A checked frame's crc32 is verified in one pass unless ``verify=False``;
    a mismatch raises :class:`~repro.errors.IntegrityError`, a frame that does
    not parse raises :class:`~repro.errors.CorruptFileError`, both with
    ``key`` as the provenance.  ``copy=False`` leaves ``RAW`` columns as
    read-only zero-copy views of ``data`` (a shared-memory segment decodes
    into views of the segment itself); narrowed columns are always fresh.
    """
    view = memoryview(data).toreadonly()
    verify_frame(view, hashed=verify, key=key)
    try:
        compression, names, dtypes, num_rows, entries, body_start = _read_head(view)
    except (struct.error, ValueError, KeyError, TypeError, IndexError) as exc:
        raise CorruptFileError(
            f"invalid partition frame header: {exc}", key=key, layer="codec.header"
        ) from exc
    body = view[body_start:]
    if compression is not Compression.NONE:
        try:
            body = memoryview(decompress(body, compression))
        except CorruptFileError as exc:
            raise CorruptFileError(str(exc), key=key, layer="codec.body") from exc

    table: Table = {}
    offset = 0
    for name, dtype, entry in zip(names, dtypes, entries):
        try:
            table[name], length = _decode_column(
                body, offset, dtype, num_rows, entry, copy
            )
        except (ValueError, OverflowError) as exc:
            raise CorruptFileError(
                f"invalid block of column {name!r}: {exc}",
                key=key, layer="codec.column", offset=offset,
            ) from exc
        if len(table[name]) != num_rows:
            raise CorruptFileError(
                f"column {name!r} has {len(table[name])} values, expected {num_rows}",
                key=key, layer="codec.column", offset=offset,
            )
        offset += length
    if offset != len(body):
        raise CorruptFileError(
            f"frame body holds {len(body)} bytes, its directory describes {offset}",
            key=key, layer="codec.column", offset=offset,
        )
    return table


def decode_partition(
    data: Buffer,
    copy: bool = True,
    verify: bool = True,
    key: Optional[str] = None,
) -> Table:
    """:func:`decode_frame` of one exchange partition (the exchange plane's
    entry point, as :func:`encode_partition` is)."""
    return decode_frame(data, copy, verify, key)


def decode_partition_slice(
    data: Buffer,
    copy: bool = False,
    verify: bool = True,
    key: Optional[str] = None,
) -> Table:
    """Decode one receiver's slice of a combined partition object.

    Zero-length slices (empty partitions) decode to an empty table without
    any parsing; a slice that is not a frame is read as a legacy LPQ file.
    ``RAW`` columns are read-only zero-copy views of the slice by default
    (the reduce side folds them straight into a merge); pass ``copy=True``
    for mutable columns.  ``key`` names the object in corruption reports.
    """
    if not data:
        return {}
    if is_fast_partition(data):
        return decode_partition(data, copy=copy, verify=verify, key=key)
    from repro.formats.parquet import ColumnarFile

    return ColumnarFile.from_bytes(bytes(data), verify=verify, name=key).read_table()


def decode_ranged_slices(
    data: Buffer,
    start: int,
    parts: Sequence[Tuple[int, int, Optional[int]]],
    verify: bool = True,
    key: Optional[str] = None,
) -> List[Table]:
    """Verify a ranged GET against its directory entries, then decode it.

    ``data`` is the response to a GET of a combined object from byte
    ``start``; ``parts`` are the ``(start, end, crc or None)`` directory
    entries of the non-empty slices it covers, which tile the range.  With
    ``verify`` on, the response must have the planned length (layer
    ``slice.length``), each frame must carry the digest its directory entry
    publishes (``slice.crc``) and must hash to it (``codec.crc``, one pass, in
    :func:`decode_partition`).  The one place a directory slice is verified.
    """
    expected = parts[-1][1] - start
    if verify and len(data) != expected:
        raise IntegrityError(
            "ranged GET returned wrong slice length",
            key=key, layer="slice.length", offset=start,
            expected=expected, actual=len(data),
        )
    view = memoryview(data)
    tables: List[Table] = []
    for low, high, crc in parts:
        piece = view[low - start:high - start]
        if verify and crc is not None and is_fast_partition(piece):
            verify_frame(piece, crc=crc, hashed=False, key=key, offset=low)
        tables.append(decode_partition_slice(piece, verify=verify, key=key))
    return tables
