"""Parquet-like columnar file format ("LPQ").

File layout (all integers little endian)::

    +--------+-----------------------+-----------------------+-----+--------+------+
    | magic  | row group 0 pages     | row group 1 pages     | ... | footer | tail |
    | "LPQ3" | col a | col b | ...   | col a | col b | ...   |     |        |      |
    +--------+-----------------------+-----------------------+-----+--------+------+

    page       one column chunk: the values of one column of one row group in
               one of the light-weight encodings of
               :mod:`repro.formats.encoding` (PLAIN / FOR / DELTA / RLE /
               DICTIONARY — the table shared with the exchange frames), then
               block-compressed (none / zlib-1 / zlib-6; GZIP by default, as
               the paper's dataset).  Each page is stored in its smaller
               form: compressed only when that is strictly smaller than the
               encoded page, else as the encoded page under compression 0

    footer     head       u64 rows, u32 row groups, u16 columns
               schema     per column: u8 type (0 int32, 1 int64, 2 float64),
                          u16 name length, utf-8 name
               directory  (row groups x columns) packed 52-byte entries, row
                          group major:
                            u64 offset            of the page in the file
                            u32 compressed size   the stored page
                            u32 uncompressed size the encoded page
                            u32 value count
                            u8  encoding          0 PLAIN 1 FOR 2 DELTA 4 RLE
                                                  5 DICTIONARY
                            u8  width             bytes per stored FOR/DELTA
                                                  value: 0, 1, 2, 3 or 4
                            u8  exponent          float64 stored as integers
                                                  of value * 10**exponent
                            u8  compression       0 none, 1 fast, 2 gzip (the
                                                  writer's codec, or 0 where
                                                  it would not shrink the page)
                            u64 base              FOR minimum / DELTA first
                                                  value (unsigned bit pattern)
                            f64 min, f64 max      statistics of the chunk
                            u32 crc32             of the stored page

    tail       u32 crc32 of the footer, u64 footer length, 4-byte magic
               "LPQ4": every file is checked.  A file under any other tail —
               the retired unchecked "LPQ3" tail (every crc field zero)
               included — is rejected as corrupt (layer ``lpq.tail``)

A reader locates the footer with a single read from the end of the file —
exactly the access pattern the paper's scan operator exploits — and opens the
directory with one ``np.frombuffer``: nothing is parsed per chunk until a
column is asked for — then that column's page directory, one
:class:`ColumnChunkMeta` per row group, is built in one pass — and row-group
pruning reads the min/max columns as arrays, as do the scan's two other
statistics decisions: a comparison every row of a group satisfies
(:meth:`FileMetadata.proven_comparisons`) and a column that is one value
throughout a group (:meth:`FileMetadata.constant_groups`) need no page
read.  The source decides how much that one read fetches: the S3 source
asks for a break-even's worth, so the footer (and a small file's data)
arrives with the tail.  The read, the size and magic checks and the footer
crc happen on every open; the parse and its checks once per distinct footer
(:meth:`FileMetadata.parse`).

Readers work against a :class:`~repro.formats.source.RandomAccessSource`, so
the same code path serves local bytes and the S3-backed source.
"""

from __future__ import annotations

import functools
import math
import struct
import zlib
from typing import (
    Callable, Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from repro.config import DEFAULT_ROW_GROUP_ROWS
from repro.errors import CorruptFileError, IntegrityError, SchemaMismatchError
from repro.formats.compression import (
    COMPRESSION_BY_ID,
    COMPRESSION_IDS,
    Compression,
    compress,
    decompress,
)
from repro.formats.encoding import (
    SCALES,
    WIDTHS,
    EncodedChunk,
    Encoding,
    encode_tiles,
    parse_encoded_chunk,
    tile_rows,
)
from repro.formats.schema import ColumnType, Field, Schema
from repro.formats.source import BytesSource, RandomAccessSource

#: Leading magic of every file (and the retired tail magic of an unchecked
#: one, which no writer produces and every reader rejects).
MAGIC = b"LPQ3"

#: Tail magic of every file: it carries crc32s.  Three bits away from
#: :data:`MAGIC`.
CHECKED_MAGIC = b"LPQ4"

#: Distinct footers whose parse is kept (:meth:`FileMetadata.parse`).
FOOTERS_KEPT = 256

#: Statistics decisions kept per footer (:meth:`FileMetadata.decision`).
DECISIONS_KEPT = 16

_T = TypeVar("_T")

_TAIL = struct.Struct("<IQ4s")  # footer crc + footer length + magic
#: Bytes :class:`ColumnarFile` asks for from the end of a file to open it: a
#: caller that opens sources ahead of their readers asks for the same.
TAIL_BYTES = _TAIL.size
_HEAD = struct.Struct("<QIH")  # rows + row groups + columns
_FIELD = struct.Struct("<BH")  # type id + name length

_TYPE_IDS = {ColumnType.INT32: 0, ColumnType.INT64: 1, ColumnType.FLOAT64: 2}
_TYPES = {value: column_type for column_type, value in _TYPE_IDS.items()}
#: Encoding id -> member; ``_directory_problem`` rejects unknown ids at open.
_ENCODINGS = {member.value: member for member in Encoding}

#: From this magnitude on a float64 no longer names one integer: 2**53 + 1
#: rounds to 2**53, so an INT64 statistic of 2**53 may stand for either.
_EXACT_INTEGER = 2.0 ** 53

#: ``op -> (min, max, value) ->`` whether every value in ``[min, max]``
#: satisfies ``value_in_group <op> value`` (element-wise over row groups).
_PROVEN = {
    "<": lambda low, high, value: high < value,
    "<=": lambda low, high, value: high <= value,
    ">": lambda low, high, value: low > value,
    ">=": lambda low, high, value: low >= value,
    "==": lambda low, high, value: (low == value) & (high == value),
    "!=": lambda low, high, value: (high < value) | (low > value),
}

#: One column chunk's directory entry (packed, 52 bytes).
_CHUNK = np.dtype(
    [
        ("offset", "<u8"),
        ("compressed_size", "<u4"),
        ("uncompressed_size", "<u4"),
        ("num_values", "<u4"),
        ("encoding", "u1"),
        ("width", "u1"),
        ("exponent", "u1"),
        ("compression", "u1"),
        ("base", "<u8"),
        ("min", "<f8"),
        ("max", "<f8"),
        ("crc", "<u4"),
    ]
)


class ColumnChunkMeta(NamedTuple):
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
    #: crc32 of the chunk's stored (compressed) bytes.
    crc: int
    #: The FOR/DELTA page description (zero for the other encodings).
    width: int = 0
    exponent: int = 0
    base: int = 0


class RowGroupMeta:
    """Footer metadata for one row group: a row of the directory."""

    def __init__(self, index: int, num_rows: int, metadata: "FileMetadata"):
        self.index = index
        self.num_rows = num_rows
        self._metadata = metadata

    def column_meta(self, name: str) -> ColumnChunkMeta:
        """Metadata of one column chunk: this group's entry of the column's
        page directory (:meth:`FileMetadata.column_metas`)."""
        return self._metadata.column_metas(name)[self.index]

    @property
    def schema(self) -> Schema:
        """The file's schema: the columns this row group has a chunk of."""
        return self._metadata.schema

    @property
    def total_compressed_size(self) -> int:
        """Sum of compressed chunk sizes in this row group."""
        return int(self._metadata.chunks["compressed_size"][self.index].sum())


class FileMetadata:
    """Complete footer contents: the schema and the chunk directory."""

    def __init__(self, schema: Schema, num_rows: int, chunks: np.ndarray):
        self.schema = schema
        self.num_rows = num_rows
        #: ``(row groups, columns)`` structured array of directory entries.
        self.chunks = chunks
        rows = chunks["num_values"][:, 0] if len(schema) else np.zeros(len(chunks), int)
        self._group_rows = rows
        self.row_groups = [
            RowGroupMeta(index, count, self) for index, count in enumerate(rows.tolist())
        ]
        self._directory: Dict[str, List[ColumnChunkMeta]] = {}
        #: ``key -> decision`` of :meth:`decision`.
        self._decisions: Dict[Hashable, object] = {}

    def column_metas(self, name: str) -> List[ColumnChunkMeta]:
        """One column's page directory: its :class:`ColumnChunkMeta` per row
        group, built from the column's directory entries on first use — a
        scan pays for the columns it projects, once per file."""
        metas = self._directory.get(name)
        if metas is None:
            position = self.schema.index_of(name)
            column_type = self.schema.field(name).type
            metas = self._directory[name] = [
                ColumnChunkMeta(
                    name, column_type, _ENCODINGS[encoding], COMPRESSION_BY_ID[compression],
                    offset, compressed_size, uncompressed_size, num_values,
                    min_value, max_value, crc, width, exponent, base,
                )
                for (
                    offset, compressed_size, uncompressed_size, num_values, encoding,
                    width, exponent, compression, base, min_value, max_value, crc,
                ) in self.chunks[:, position].tolist()
            ]
        return metas

    def pack(self) -> bytes:
        """Serialise the footer."""
        parts = [_HEAD.pack(self.num_rows, len(self.chunks), len(self.schema))]
        for field_ in self.schema:
            name = field_.name.encode("utf-8")
            parts += [_FIELD.pack(_TYPE_IDS[field_.type], len(name)), name]
        parts.append(self.chunks.tobytes())
        return b"".join(parts)

    @staticmethod
    def parse(
        footer: bytes, data_end: int, key: Optional[str] = None
    ) -> "FileMetadata":
        """Parse a footer produced by :meth:`pack`.

        ``data_end`` is the footer's offset in the file: every page must lie
        between the leading magic and it.  Whatever is wrong with the footer
        — too short, a directory that is not row groups x columns, an entry
        no writer produces — raises :class:`~repro.errors.CorruptFileError`
        with layer ``lpq.footer``.

        A footer is parsed and checked once per distinct ``(footer,
        data_end)`` (the last :data:`FOOTERS_KEPT`): every reader of
        those bytes shares one :class:`FileMetadata`, and with it the
        column directories and statistics decisions already built.  A footer
        that fails is not kept.
        """
        try:
            return _parse_footer(bytes(footer), data_end)
        except _FooterProblem as exc:
            raise CorruptFileError(
                f"invalid footer: {exc}", key=key, layer="lpq.footer"
            ) from exc.__cause__

    def decision(self, key: Hashable, decide: Callable[["FileMetadata"], _T]) -> _T:
        """``decide(self)``, computed once per ``key`` for this footer.

        The scan keeps its statistics decisions here, keyed by its predicate
        and outputs, so a predicate is decided once per file however many
        readers open it.  At most :data:`DECISIONS_KEPT` are kept (the memo
        starts over when full): a key with a NaN literal matches only its own
        NaN object, so fresh ones would otherwise grow it without end.
        """
        decisions = self._decisions
        found = decisions.get(key)
        if found is None:
            found = decide(self)
            if len(decisions) >= DECISIONS_KEPT:
                decisions = self._decisions = {}
            decisions[key] = found
        return found

    # -- min/max statistics ---------------------------------------------------------

    def surviving_groups(
        self, ranges: Iterable[Tuple[str, float, float]]
    ) -> np.ndarray:
        """Which row groups can hold a row inside every ``(column, lower, upper)``.

        One boolean per row group: ``False`` for an empty group and for one
        whose min/max statistics of some range's column lie wholly outside
        ``[lower, upper]``; ranges on columns the file does not have constrain
        nothing.  This is the min/max pruning that makes 80 % of workers
        return immediately for TPC-H Q6 (paper §5.3).
        """
        alive = self._group_rows > 0
        for column, lower, upper in ranges:
            if column in self.schema:
                statistics = self.chunks[:, self.schema.index_of(column)]
                alive &= ~((statistics["max"] < lower) | (statistics["min"] > upper))
        return alive

    def proven_comparisons(self, comparisons: Sequence) -> np.ndarray:
        """``(row groups, comparisons)``: where a group's min/max prove
        ``column <op> value`` for every row of the group.

        ``comparisons`` have a ``column``, an ``op`` and a ``value`` (the
        scan's :class:`~repro.plan.expressions.ColumnComparison`).  A proven
        comparison need not be evaluated there, nor its column read.
        Nothing is proven for a column the file lacks, for a value float64
        does not hold exactly (NaN, an integer of magnitude 2**53 or more) or
        from ``INT64`` statistics that large, which a float64 rounds.  A NaN
        in a group makes its min/max NaN, and a comparison with NaN is false:
        NaN proves nothing either.
        """
        proven = np.zeros((len(self.row_groups), len(comparisons)), dtype=bool)
        lows, highs = self.chunks["min"], self.chunks["max"]
        for index, comparison in enumerate(comparisons):
            column, value = comparison.column, comparison.value
            if column not in self.schema or not _exact_number(value):
                continue
            position = self.schema.index_of(column)
            low, high = lows[:, position], highs[:, position]
            holds = _PROVEN[comparison.op](low, high, value)
            if self.schema.field(column).type is ColumnType.INT64 and holds.any():
                holds &= (np.abs(low) < _EXACT_INTEGER) & (np.abs(high) < _EXACT_INTEGER)
            proven[:, index] = holds
        return proven

    def constant_groups(self, columns: Sequence[str]) -> np.ndarray:
        """``(row groups, columns)``: where every row of a group holds the
        column's ``min`` bit for bit, so its page need not be read.

        Needs ``min == max`` (never true for NaN), the column in the file,
        an ``INT64`` value of magnitude below 2**53 and a non-zero
        ``FLOAT64`` one: the statistics of a group of 0.0 and -0.0 compare
        equal but do not say which bits each row holds.
        """
        constant = np.zeros((len(self.row_groups), len(columns)), dtype=bool)
        lows = self.chunks["min"]
        same = lows == self.chunks["max"]
        somewhere = same.any(axis=0).tolist()
        for index, column in enumerate(columns):
            if column not in self.schema or not somewhere[self.schema.index_of(column)]:
                continue
            position = self.schema.index_of(column)
            hits, low = same[:, position], lows[:, position]
            kind = self.schema.field(column).type
            if kind is ColumnType.INT64:
                hits = hits & (np.abs(low) < _EXACT_INTEGER)
            elif kind is ColumnType.FLOAT64:
                hits = hits & (low != 0)
            constant[:, index] = hits
        return constant

    def encoding_counts(self) -> Dict[Encoding, int]:
        """How many column chunks the writer stored in each encoding."""
        counts = np.bincount(self.chunks["encoding"].ravel(), minlength=256)
        return {member: int(counts[member.value]) for member in Encoding}

    def column_ranges(self) -> Dict[str, Tuple[float, float]]:
        """``column -> (min, max)`` over the file's non-empty row groups."""
        live = self.chunks[self._group_rows > 0]
        if not len(live):
            return {name: (math.inf, -math.inf) for name in self.schema.names}
        lows = live["min"].min(axis=0).tolist()
        highs = live["max"].max(axis=0).tolist()
        return dict(zip(self.schema.names, zip(lows, highs)))


class _FooterProblem(Exception):
    """What makes a footer unusable; :meth:`FileMetadata.parse` raises it as a
    :class:`~repro.errors.CorruptFileError` naming the file."""


@functools.lru_cache(maxsize=FOOTERS_KEPT)
def _parse_footer(footer: bytes, data_end: int) -> FileMetadata:
    """The :class:`FileMetadata` of a footer, cached on the whole input (a
    raise is not cached); see :meth:`FileMetadata.parse`."""
    try:
        num_rows, groups, columns = _HEAD.unpack_from(footer)
        offset = _HEAD.size
        fields = []
        for _ in range(columns):
            type_id, length = _FIELD.unpack_from(footer, offset)
            offset += _FIELD.size
            if offset + length > len(footer):
                raise ValueError("truncated column name")
            name = footer[offset:offset + length].decode("utf-8")
            fields.append(Field(name, _TYPES[type_id]))
            offset += length
        schema = Schema(fields)
    except (struct.error, UnicodeDecodeError, KeyError, ValueError,
            SchemaMismatchError) as exc:
        raise _FooterProblem(f"{type(exc).__name__}: {exc}") from exc
    if len(footer) - offset != groups * columns * _CHUNK.itemsize:
        raise _FooterProblem(
            f"directory of {len(footer) - offset} bytes is not "
            f"{groups} row groups x {columns} columns"
        )
    chunks = np.frombuffer(
        footer, dtype=_CHUNK, count=groups * columns, offset=offset
    ).reshape(groups, columns)
    problem = _directory_problem(schema, num_rows, chunks, data_end)
    if problem is not None:
        raise _FooterProblem(problem)
    return FileMetadata(schema, num_rows, chunks)


def _exact_number(value: object) -> bool:
    """Whether a comparison literal is a number that float64 holds exactly."""
    if isinstance(value, (float, np.floating)):
        return not math.isnan(value)
    return isinstance(value, (int, np.integer)) and abs(value) < _EXACT_INTEGER


def _known(ids: Iterable[int]) -> np.ndarray:
    """Membership table of a set of one-byte ids."""
    table = np.zeros(256, dtype=bool)
    table[list(ids)] = True
    return table


_KNOWN_ENCODINGS = _known(member.value for member in Encoding)
_NARROWED = _known((Encoding.FOR.value, Encoding.DELTA.value))
_KNOWN_COMPRESSIONS = _known(COMPRESSION_BY_ID)
_KNOWN_WIDTHS = _known(WIDTHS)
_KNOWN_EXPONENTS = _known(SCALES)


def _directory_problem(
    schema: Schema, num_rows: int, chunks: np.ndarray, data_end: int
) -> Optional[str]:
    """What makes a parsed directory unusable, or ``None`` if nothing does."""
    if not chunks.size:
        return None if num_rows == 0 else f"{num_rows} rows in no column chunks"
    encoding, width, exponent = chunks["encoding"], chunks["width"], chunks["exponent"]
    offset, counts = chunks["offset"], chunks["num_values"]
    itemsize = np.array([field_.type.item_size for field_ in schema], dtype=np.uint8)
    decimal = np.array([field_.type is ColumnType.FLOAT64 for field_ in schema])
    narrowed = _NARROWED[encoding]
    inside = (offset >= len(MAGIC)) & (offset <= data_end)
    problems = {
        "unknown encoding id": ~_KNOWN_ENCODINGS[encoding],
        "unknown compression id": ~_KNOWN_COMPRESSIONS[chunks["compression"]],
        "narrowed chunk at least as wide as its column":
            narrowed & ~(_KNOWN_WIDTHS[width] & (width < itemsize)),
        "decimal exponent outside the scale table":
            ~_KNOWN_EXPONENTS[exponent] | ((exponent != 0) & ~decimal),
        # A base is the bit pattern of one column value.
        "narrowing base wider than its column":
            narrowed & (itemsize == 4) & (chunks["base"] >> 32 != 0),
        "chunk range outside the file":
            ~inside | (chunks["compressed_size"] > data_end - np.where(inside, offset, 0)),
        "value counts disagree across a row group": counts != counts[:, :1],
    }
    if functools.reduce(np.logical_or, problems.values()).any():
        return next(problem for problem, mask in problems.items() if mask.any())
    if int(counts[:, 0].sum()) != num_rows:
        return "value counts disagree with the row count"
    return None


class ColumnarWriter:
    """Writes tables (dicts of NumPy arrays) into the LPQ format."""

    def __init__(
        self,
        schema: Schema,
        row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
        compression: Compression = Compression.GZIP,
        encodings: Optional[Dict[str, Encoding]] = None,
    ):
        if row_group_rows <= 0:
            raise ValueError("row_group_rows must be positive")
        self.schema = schema
        self.row_group_rows = row_group_rows
        self.compression = compression
        #: Per-column override of the encoding each row group would choose.
        self.encodings = dict(encodings or {})

    def write(self, table: Dict[str, np.ndarray]) -> bytes:
        """Serialise ``table`` into a complete LPQ file.

        Each column is encoded for all row groups in one tiled pass
        (:func:`~repro.formats.encoding.encode_tiles`); an empty table is one
        row group of empty ``PLAIN`` pages.
        """
        self.schema.validate_table(table)
        num_rows = len(next(iter(table.values()))) if table else 0
        tiling = tile_rows(num_rows, self.row_group_rows) if num_rows else None
        groups = len(tiling.slices) if tiling else 1
        chunks = np.zeros((groups, len(self.schema)), dtype=_CHUNK)
        chunks["min"], chunks["max"] = math.inf, -math.inf
        columns: List[List] = []
        for position, field_ in enumerate(self.schema):
            entries = chunks[:, position]
            pages: List = [b""]
            if tiling is not None:
                values = np.ascontiguousarray(
                    table[field_.name], dtype=field_.type.numpy_dtype
                )
                pages = encode_tiles(
                    values, field_.type, tiling, entries, self.encodings.get(field_.name)
                )
                entries["num_values"] = tiling.counts
                entries["min"] = np.minimum.reduceat(values, tiling.starts)
                entries["max"] = np.maximum.reduceat(values, tiling.starts)
            entries["uncompressed_size"] = [memoryview(page).nbytes for page in pages]
            # Each page is stored in its smaller form: compressed only where
            # that is strictly smaller, so no page costs an inflate for nothing.
            deflated = [compress(page, self.compression) for page in pages]
            entries["compressed_size"] = [memoryview(page).nbytes for page in deflated]
            smaller = entries["compressed_size"] < entries["uncompressed_size"]
            entries["compression"] = np.where(
                smaller, COMPRESSION_IDS[self.compression], COMPRESSION_IDS[Compression.NONE]
            )
            entries["compressed_size"] = np.where(
                smaller, entries["compressed_size"], entries["uncompressed_size"]
            )
            pages = [
                stored if keep else page
                for stored, page, keep in zip(deflated, pages, smaller.tolist())
            ]
            entries["crc"] = [zlib.crc32(page) for page in pages]
            columns.append(pages)
        sizes = chunks["compressed_size"].astype(np.uint64).ravel()
        chunks["offset"] = (len(MAGIC) + np.cumsum(sizes) - sizes).reshape(chunks.shape)

        footer = FileMetadata(self.schema, num_rows, chunks).pack()
        parts: List = [MAGIC]
        for group in range(groups):
            parts += [pages[group] for pages in columns]
        parts += [footer, _TAIL.pack(zlib.crc32(footer), len(footer), CHECKED_MAGIC)]
        return b"".join(parts)


def write_table(
    table: Dict[str, np.ndarray],
    schema: Optional[Schema] = None,
    row_group_rows: int = DEFAULT_ROW_GROUP_ROWS,
    compression: Compression = Compression.GZIP,
) -> bytes:
    """Convenience wrapper: serialise a table with an inferred schema."""
    schema = schema or Schema.from_table(table)
    writer = ColumnarWriter(schema, row_group_rows=row_group_rows, compression=compression)
    return writer.write(table)


class ColumnarFile:
    """Reader for LPQ files over a random-access source.

    The constructor performs the metadata read (footer); column data is only
    fetched when :meth:`read_column_chunk` or :meth:`read_row_group` is
    called, so projections and row-group pruning avoid touching unneeded
    bytes — the property Lambada's scan operator depends on.
    """

    def __init__(self, source: RandomAccessSource, name: Optional[str] = None):
        self.source = source
        #: Object key / path the file was read from, for corruption reports.
        self.name = name if name is not None else getattr(source, "path", None)
        self._magic_checked = False
        self.metadata = self._read_metadata()

    @classmethod
    def from_bytes(cls, data: bytes, name: Optional[str] = None) -> "ColumnarFile":
        """Open a file held fully in memory."""
        return cls(BytesSource(data), name=name)

    # -- metadata ---------------------------------------------------------------

    def _read_metadata(self) -> FileMetadata:
        # The tail read also opens the source, so the size is known afterwards.
        tail = self.source.read_suffix(TAIL_BYTES)
        size = self.source.size()
        if size < len(MAGIC) + _TAIL.size:
            raise CorruptFileError(
                f"file of {size} bytes is too small to be LPQ",
                key=self.name, layer="lpq.tail",
            )
        footer_crc, footer_length, magic = _TAIL.unpack(tail)
        if magic != CHECKED_MAGIC:
            raise CorruptFileError(
                "unchecked LPQ file" if magic == MAGIC
                else "bad trailing magic; not an LPQ file",
                key=self.name, layer="lpq.tail",
            )
        footer_start = size - _TAIL.size - footer_length
        if footer_start < len(MAGIC):
            raise CorruptFileError(
                "footer length exceeds file size", key=self.name, layer="lpq.tail"
            )
        # Served from the tail read unless the footer is longer than it.
        footer = self.source.read_at(footer_start, footer_length)
        actual = zlib.crc32(footer)
        if actual != footer_crc:
            raise IntegrityError(
                "LPQ footer checksum mismatch",
                key=self.name, layer="lpq.footer", offset=footer_start,
                expected=footer_crc, actual=actual,
            )
        self._check_magic()
        return FileMetadata.parse(footer, footer_start, key=self.name)

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
        """Announce the chunks of ``columns`` of one row group as one vectored
        read (:meth:`RandomAccessSource.prefetch`).

        A source that pays per request keeps what it fetched, so the
        :meth:`read_encoded_chunk` calls that follow issue no request; nothing
        is copied here.
        """
        ranges = [
            (meta.offset, meta.compressed_size) for meta in map(group.column_meta, columns)
        ]
        if not self._magic_checked:
            # The file's first chunk starts right behind the leading magic:
            # fetch the two as one piece instead of never seeing the magic.
            ranges = [
                (0, offset + length) if offset == len(MAGIC) else (offset, length)
                for offset, length in ranges
            ]
        self.source.prefetch(ranges)
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
        actual = zlib.crc32(raw)
        if actual != meta.crc:
            raise IntegrityError(
                f"column chunk {column!r} of row group {group.index} checksum mismatch",
                key=self.name, layer="lpq.chunk", offset=meta.offset,
                expected=meta.crc, actual=actual,
            )
        layer = "lpq.chunk"  # the stored bytes do not inflate
        try:
            encoded = decompress(raw, meta.compression)
            layer = "lpq.page"  # they do, but not to the page the footer describes
            if len(encoded) != meta.uncompressed_size:
                raise CorruptFileError(
                    f"page of {len(encoded)} bytes, footer says {meta.uncompressed_size}"
                )
            return parse_encoded_chunk(
                encoded, meta.type, meta.encoding, meta.num_values,
                meta.width, meta.exponent, meta.base,
            )
        except CorruptFileError as exc:
            raise CorruptFileError(
                f"column {column!r} of row group {group.index}: {exc}",
                key=self.name, layer=layer, offset=meta.offset,
            ) from exc

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
