"""Parquet-like columnar file format ("LPQ").

File layout::

    +--------+----------------------+----------------------+-----+---------+
    | magic  | row group 0 chunks   | row group 1 chunks   | ... | footer  |
    | "LPQ1" | col a | col b | ...  | col a | col b | ...  |     | + tail  |
    +--------+----------------------+----------------------+-----+---------+

The *footer* is a JSON document describing the schema and, for every row
group, the byte offset, compressed/uncompressed size, encoding, compression,
value count, and min/max statistics of each column chunk.  The *tail* is an
8-byte little-endian footer length followed by the 4-byte magic, so a reader
can locate the footer with a single read from the end of the file — exactly
the access pattern the paper's scan operator exploits.  The source decides
how much that one read fetches: the S3 source asks for a break-even's worth,
so the footer (and a small file's data) arrives with the tail.

Readers work against a :class:`~repro.formats.source.RandomAccessSource`, so
the same code path serves local bytes and the S3-backed source.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.config import DEFAULT_ROW_GROUP_ROWS
from repro.errors import CorruptFileError, IntegrityError, UnknownColumnError
from repro.formats.compression import Compression, compress, decompress
from repro.formats.encoding import (
    EncodedChunk,
    Encoding,
    choose_encoding,
    encode_column,
    parse_encoded_chunk,
)
from repro.formats.schema import ColumnType, Schema
from repro.formats.source import BytesSource, RandomAccessSource

MAGIC = b"LPQ1"
_TAIL_STRUCT = struct.Struct("<Q4s")  # footer length + magic

#: Tail magic of files whose footer carries a crc32 (the integrity format).
#: The *leading* magic stays ``LPQ1`` either way; only the tail grows, so the
#: reader distinguishes the formats from the same single tail read.
CHECKED_MAGIC = b"LPQ2"
_CHECKED_TAIL_STRUCT = struct.Struct("<IQ4s")  # footer crc + length + magic


@dataclass(frozen=True)
class ColumnChunkMeta:
    """Footer metadata for one column chunk."""

    column: str
    type: ColumnType
    encoding: Encoding
    compression: Compression
    offset: int
    compressed_size: int
    uncompressed_size: int
    num_values: int
    min_value: float
    max_value: float
    #: crc32 of the chunk's stored (compressed) bytes; ``None`` for chunks
    #: written before the integrity format (verification is skipped).
    crc: Optional[int] = None

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        payload = {
            "column": self.column,
            "type": self.type.value,
            "encoding": self.encoding.value,
            "compression": self.compression.value,
            "offset": self.offset,
            "compressed_size": self.compressed_size,
            "uncompressed_size": self.uncompressed_size,
            "num_values": self.num_values,
            "min": self.min_value,
            "max": self.max_value,
        }
        if self.crc is not None:
            payload["crc"] = self.crc
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "ColumnChunkMeta":
        """Inverse of :meth:`to_dict`."""
        return cls(
            column=data["column"],
            type=ColumnType(data["type"]),
            encoding=Encoding(data["encoding"]),
            compression=Compression(data["compression"]),
            offset=int(data["offset"]),
            compressed_size=int(data["compressed_size"]),
            uncompressed_size=int(data["uncompressed_size"]),
            num_values=int(data["num_values"]),
            min_value=float(data["min"]),
            max_value=float(data["max"]),
            crc=data.get("crc"),
        )


class _LazyChunkMetas(Mapping):
    """Read-only ``column -> ColumnChunkMeta`` view over a row group's footer JSON.

    An entry is built (and kept) on first access, so opening a file costs the
    JSON parse only and a scan pays for the chunks it projects.
    """

    def __init__(self, raw: Dict[str, Dict]):
        self._raw = raw
        self._built: Dict[str, ColumnChunkMeta] = {}

    def __getitem__(self, name: str) -> ColumnChunkMeta:
        meta = self._built.get(name)
        if meta is None:
            meta = self._built[name] = ColumnChunkMeta.from_dict(self._raw[name])
        return meta

    def __contains__(self, name: object) -> bool:
        return name in self._raw

    def __iter__(self) -> Iterator[str]:
        return iter(self._raw)

    def __len__(self) -> int:
        return len(self._raw)


@dataclass(frozen=True)
class RowGroupMeta:
    """Footer metadata for one row group."""

    index: int
    num_rows: int
    columns: Mapping[str, ColumnChunkMeta]

    def column_meta(self, name: str) -> ColumnChunkMeta:
        """Metadata of one column chunk."""
        if name not in self.columns:
            raise UnknownColumnError(name)
        return self.columns[name]

    @property
    def total_compressed_size(self) -> int:
        """Sum of compressed chunk sizes in this row group."""
        return sum(meta.compressed_size for meta in self.columns.values())

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        return {
            "index": self.index,
            "num_rows": self.num_rows,
            "columns": {name: meta.to_dict() for name, meta in self.columns.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RowGroupMeta":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(data["index"]),
            num_rows=int(data["num_rows"]),
            columns=_LazyChunkMetas(data["columns"]),
        )


@dataclass(frozen=True)
class FileMetadata:
    """Complete footer contents."""

    schema: Schema
    row_groups: List[RowGroupMeta]
    num_rows: int
    created_by: str = "repro-lambada"

    def to_json(self) -> bytes:
        """Serialise the footer."""
        payload = {
            "schema": self.schema.to_dict(),
            "row_groups": [group.to_dict() for group in self.row_groups],
            "num_rows": self.num_rows,
            "created_by": self.created_by,
        }
        return json.dumps(payload).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes, key: Optional[str] = None) -> "FileMetadata":
        """Parse a footer produced by :meth:`to_json`."""
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptFileError(
                f"invalid footer: {exc}", key=key, layer="lpq.footer"
            ) from exc
        return cls(
            schema=Schema.from_dict(payload["schema"]),
            row_groups=[RowGroupMeta.from_dict(item) for item in payload["row_groups"]],
            num_rows=int(payload["num_rows"]),
            created_by=payload.get("created_by", "unknown"),
        )


class ColumnarWriter:
    """Writes tables (dicts of NumPy arrays) into the LPQ format."""

    def __init__(
        self,
        schema: Schema,
        row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
        compression: Compression = Compression.GZIP,
        encodings: Optional[Dict[str, Encoding]] = None,
        checksum: bool = True,
    ):
        if row_group_rows <= 0:
            raise ValueError("row_group_rows must be positive")
        self.schema = schema
        self.row_group_rows = row_group_rows
        self.compression = compression
        self.encodings = dict(encodings or {})
        #: Embed per-chunk crc32s and the crc-bearing ``LPQ2`` tail (default
        #: on); ``False`` writes the pre-integrity format byte-for-byte.
        self.checksum = checksum

    def write(self, table: Dict[str, np.ndarray]) -> bytes:
        """Serialise ``table`` into a complete LPQ file."""
        self.schema.validate_table(table)
        num_rows = len(next(iter(table.values()))) if table else 0
        buffer = bytearray(MAGIC)
        row_groups: List[RowGroupMeta] = []

        for group_index, start in enumerate(range(0, max(num_rows, 1), self.row_group_rows)):
            if num_rows == 0 and group_index > 0:
                break
            end = min(start + self.row_group_rows, num_rows)
            group_rows = end - start
            columns: Dict[str, ColumnChunkMeta] = {}
            for field_ in self.schema:
                values = np.asarray(table[field_.name][start:end], dtype=field_.type.numpy_dtype)
                encoding = self.encodings.get(field_.name) or choose_encoding(values)
                encoded = encode_column(values, field_.type, encoding)
                compressed = compress(encoded, self.compression)
                offset = len(buffer)
                buffer.extend(compressed)
                if group_rows:
                    min_value = float(values.min())
                    max_value = float(values.max())
                else:
                    min_value = float("inf")
                    max_value = float("-inf")
                columns[field_.name] = ColumnChunkMeta(
                    column=field_.name,
                    type=field_.type,
                    encoding=encoding,
                    compression=self.compression,
                    offset=offset,
                    compressed_size=len(compressed),
                    uncompressed_size=len(encoded),
                    num_values=group_rows,
                    min_value=min_value,
                    max_value=max_value,
                    crc=zlib.crc32(compressed) if self.checksum else None,
                )
            row_groups.append(
                RowGroupMeta(index=group_index, num_rows=group_rows, columns=columns)
            )
            if num_rows == 0:
                break

        metadata = FileMetadata(schema=self.schema, row_groups=row_groups, num_rows=num_rows)
        footer = metadata.to_json()
        buffer.extend(footer)
        if self.checksum:
            buffer.extend(
                _CHECKED_TAIL_STRUCT.pack(zlib.crc32(footer), len(footer), CHECKED_MAGIC)
            )
        else:
            buffer.extend(_TAIL_STRUCT.pack(len(footer), MAGIC))
        return bytes(buffer)


def write_table(
    table: Dict[str, np.ndarray],
    schema: Optional[Schema] = None,
    row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
    compression: Compression = Compression.GZIP,
    checksum: bool = True,
) -> bytes:
    """Convenience wrapper: serialise a table with an inferred schema."""
    schema = schema or Schema.from_table(table)
    writer = ColumnarWriter(
        schema,
        row_group_rows=row_group_rows,
        compression=compression,
        checksum=checksum,
    )
    return writer.write(table)


class ColumnarFile:
    """Reader for LPQ files over a random-access source.

    The constructor performs the metadata read (footer); column data is only
    fetched when :meth:`read_column_chunk` or :meth:`read_row_group` is
    called, so projections and row-group pruning avoid touching unneeded
    bytes — the property Lambada's scan operator depends on.
    """

    def __init__(
        self,
        source: RandomAccessSource,
        verify: bool = True,
        name: Optional[str] = None,
    ):
        self.source = source
        #: Object key / path the file was read from, for corruption reports.
        self.name = name if name is not None else getattr(source, "path", None)
        #: Verify embedded checksums on read (``IntegrityConfig.verify``).
        self.verify = verify
        self._magic_checked = False
        self.metadata = self._read_metadata()

    @classmethod
    def from_bytes(
        cls, data: bytes, verify: bool = True, name: Optional[str] = None
    ) -> "ColumnarFile":
        """Open a file held fully in memory."""
        return cls(BytesSource(data), verify=verify, name=name)

    # -- metadata ---------------------------------------------------------------

    def _read_metadata(self) -> FileMetadata:
        # One tail read serves both formats: the last 12 bytes are always
        # ``<length><magic>``, and a ``LPQ2`` magic means 4 crc bytes precede
        # them.  It also opens the source, so the size is known afterwards.
        tail = self.source.read_suffix(_CHECKED_TAIL_STRUCT.size)
        size = self.source.size()
        if size < len(MAGIC) + _TAIL_STRUCT.size:
            raise CorruptFileError(
                f"file of {size} bytes is too small to be LPQ",
                key=self.name, layer="lpq.tail",
            )
        footer_length, magic = _TAIL_STRUCT.unpack(tail[-_TAIL_STRUCT.size:])
        footer_crc: Optional[int] = None
        tail_used = _TAIL_STRUCT.size
        if magic == CHECKED_MAGIC:
            tail_used = _CHECKED_TAIL_STRUCT.size
            if size < len(MAGIC) + tail_used:
                raise CorruptFileError(
                    f"file of {size} bytes is too small for the checked tail",
                    key=self.name, layer="lpq.tail",
                )
            footer_crc, footer_length, _ = _CHECKED_TAIL_STRUCT.unpack(tail)
        elif magic != MAGIC:
            raise CorruptFileError(
                "bad trailing magic; not an LPQ file",
                key=self.name, layer="lpq.tail",
            )
        footer_start = size - tail_used - footer_length
        if footer_start < len(MAGIC):
            raise CorruptFileError(
                "footer length exceeds file size", key=self.name, layer="lpq.tail"
            )
        # Served from the tail read unless the footer is longer than it.
        footer = self.source.read_at(footer_start, footer_length)
        if self.verify and footer_crc is not None:
            actual = zlib.crc32(footer)
            if actual != footer_crc:
                raise IntegrityError(
                    "LPQ footer checksum mismatch",
                    key=self.name, layer="lpq.footer", offset=footer_start,
                    expected=footer_crc, actual=actual,
                )
        self._check_magic()
        return FileMetadata.from_json(footer, key=self.name)

    def _check_magic(self) -> None:
        """Validate the leading magic once it is available without a request.

        Never worth a round trip of its own: a source that has not fetched
        offset 0 yet is asked again after each :meth:`prefetch`.
        """
        if self._magic_checked:
            return
        header = self.source.peek(0, len(MAGIC))
        if header is None:
            return
        if header != MAGIC:
            raise CorruptFileError(
                "bad leading magic; not an LPQ file",
                key=self.name, layer="lpq.magic", offset=0,
            )
        self._magic_checked = True

    @property
    def schema(self) -> Schema:
        """The file's schema."""
        return self.metadata.schema

    @property
    def num_rows(self) -> int:
        """Total number of rows in the file."""
        return self.metadata.num_rows

    @property
    def row_groups(self) -> List[RowGroupMeta]:
        """Metadata of all row groups."""
        return self.metadata.row_groups

    # -- data access -------------------------------------------------------------

    def prefetch(self, group: RowGroupMeta, columns: Iterable[str]) -> None:
        """Fetch the chunks of ``columns`` of one row group in one vectored read.

        A source that pays per request keeps what it fetched, so the
        :meth:`read_encoded_chunk` calls that follow issue no request.
        """
        metas = [group.column_meta(name) for name in columns]
        ranges = [(meta.offset, meta.compressed_size) for meta in metas]
        if not self._magic_checked:
            # The file's first chunk starts right behind the leading magic:
            # fetch the two as one piece instead of never seeing the magic.
            ranges = [
                (0, offset + length) if offset == len(MAGIC) else (offset, length)
                for offset, length in ranges
            ]
        self.source.read_ranges(ranges)
        self._check_magic()

    def read_encoded_chunk(self, group: RowGroupMeta, column: str) -> EncodedChunk:
        """Read one column chunk as a still-encoded view (no value decode).

        Reads (from a :meth:`prefetch`-ed span, if any), verifies and
        decompresses the chunk bytes but leaves the encoding in place, so the
        late-materialization scan can evaluate predicates on dictionaries/runs
        and gather only surviving rows.
        """
        meta = group.column_meta(column)
        raw = self.source.read_at(meta.offset, meta.compressed_size)
        if len(raw) != meta.compressed_size:
            raise CorruptFileError(
                f"short read for column {column!r} of row group {group.index}",
                key=self.name, layer="lpq.chunk", offset=meta.offset,
                expected=meta.compressed_size, actual=len(raw),
            )
        if self.verify and meta.crc is not None:
            actual = zlib.crc32(raw)
            if actual != meta.crc:
                raise IntegrityError(
                    f"column chunk {column!r} of row group {group.index} "
                    "checksum mismatch",
                    key=self.name, layer="lpq.chunk", offset=meta.offset,
                    expected=meta.crc, actual=actual,
                )
        encoded = decompress(raw, meta.compression)
        return parse_encoded_chunk(encoded, meta.type, meta.encoding, meta.num_values)

    def read_column_chunk(self, group: RowGroupMeta, column: str) -> np.ndarray:
        """Read and decode one column chunk."""
        return self.read_encoded_chunk(group, column).decode()

    def read_row_group(
        self, group: RowGroupMeta, columns: Optional[Sequence[str]] = None
    ) -> Dict[str, np.ndarray]:
        """Read a projection of one row group as a dict of columns."""
        names = list(columns) if columns is not None else self.schema.names
        return {name: self.read_column_chunk(group, name) for name in names}

    def read_table(self, columns: Optional[Sequence[str]] = None) -> Dict[str, np.ndarray]:
        """Read the whole file (projected) as a single table."""
        names = list(columns) if columns is not None else self.schema.names
        parts = [self.read_row_group(group, names) for group in self.row_groups if group.num_rows]
        if not parts:
            return {
                name: np.zeros(0, dtype=self.schema.field(name).type.numpy_dtype)
                for name in names
            }
        return {name: np.concatenate([part[name] for part in parts]) for name in names}

    # -- pruning --------------------------------------------------------------------

    def prune_row_groups(
        self, column: str, lower: Optional[float] = None, upper: Optional[float] = None
    ) -> List[RowGroupMeta]:
        """Row groups whose ``column`` min/max range intersects ``[lower, upper]``.

        ``None`` bounds are unconstrained.  This is the min/max pruning that
        makes 80 % of workers return immediately for TPC-H Q6 (paper §5.3).
        """
        selected: List[RowGroupMeta] = []
        for group in self.row_groups:
            if group.num_rows == 0:
                continue
            meta = group.column_meta(column)
            if lower is not None and meta.max_value < lower:
                continue
            if upper is not None and meta.min_value > upper:
                continue
            selected.append(group)
        return selected
