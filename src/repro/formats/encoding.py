"""Column encodings: one set for LPQ files and exchange frames.

A column chunk of an LPQ file and a column block of an exchange partition
frame (:mod:`repro.exchange.codec`) are stored in the cheapest of the same few
*light-weight* encodings (paper §4.3.2), named by the same ids in the file's
footer directory and in the frame's directory:

* ``PLAIN`` (0, the frames' ``RAW``) — the column's own little-endian bytes;
* ``FOR`` (1) — frame of reference: ``value - min`` narrowed to u8/u16/u32;
  width 0 is a constant and stores nothing;
* ``DELTA`` (2) — ``value[i] - value[i-1]`` (first delta 0) narrowed the same
  way, chosen when it is narrower than ``FOR`` (sorted keys); decode is a
  ``cumsum``;
* ``RLE`` (4, files only) — (value, run length) pairs, for sorted or
  long-run columns;
* ``DICTIONARY`` (5, files only) — the sorted distinct values plus one code
  per row at the minimal width for the dictionary's size (none for a constant,
  else u8/u16/u32), for low-cardinality columns such as flags or discounts.

(Id 3 is the frames' JSON block of object columns.)  ``FOR`` and ``DELTA``
describe a block by ``(width, exponent, base)``, kept in the directory next to
the encoding id: bytes per stored value, the decimal exponent of a scaled
``float64`` column, and the minimum / first value as an unsigned bit pattern.
All integer arithmetic is modulo 2**(8·itemsize) on the unsigned view of the
column, so a span that overflows simply fails to narrow and every narrowed
column round-trips exactly.  A ``float64`` column is narrowed as the int64
column ``rint(value * 10**e)`` for the first ``e`` in (0, 2) whose decode
reproduces every value of the tile **bit for bit** — counts, quantities,
two-decimal prices — so NaN, ±inf and −0.0 stay ``PLAIN``.

The narrowing kernels work on a :class:`Tiling` — the row groups of a file,
the partitions of a sender — in a handful of vectorised NumPy passes for all
tiles of a column at once (:func:`narrow_tiles`, :func:`encode_tiles`);
:func:`widen` is their inverse.

Besides full decode, chunks can be opened as an :class:`EncodedChunk` *view*
over the raw buffers (run values/lengths, dictionary + codes, narrowed
offsets/steps) without materialising the value array.  The view supports the
late-materialization scan path: :func:`evaluate_comparison` computes a
row-selection mask directly on the encoded form (dictionary chunks evaluate
the comparison once against the dictionary and translate it to a code-set
membership test; RLE chunks evaluate per-run and expand with ``np.repeat``),
and :func:`decode_gather` materialises only the rows a selection vector asks
for.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.errors import CorruptFileError
from repro.formats.schema import ColumnType


class Encoding(enum.Enum):
    """Supported column encodings; the value is the id a directory stores."""

    PLAIN = 0
    FOR = 1
    DELTA = 2
    RLE = 4
    DICTIONARY = 5


#: The ids the narrowing kernels work in (``RAW`` is the frames' name of PLAIN).
RAW, FOR, DELTA = Encoding.PLAIN.value, Encoding.FOR.value, Encoding.DELTA.value

#: How one tile of a column is stored: an exchange frame's (packed, 11-byte)
#: directory entry, and the fields of the same names in an LPQ footer's.
ENTRY = np.dtype(
    [("encoding", "u1"), ("width", "u1"), ("exponent", "u1"), ("base", "<u8")]
)

#: Little-endian unsigned dtype per stored width / column itemsize.
UNSIGNED = {1: np.dtype("u1"), 2: np.dtype("<u2"), 4: np.dtype("<u4"), 8: np.dtype("<u8")}

#: Decimal exponents tried for float64 columns, with their scale factors.
SCALES = {0: None, 2: 100.0}

#: ``span <= _LIMITS[i]`` needs ``_WIDTHS[i]`` bytes; beyond the last, 8.
_LIMITS = np.array([0, 0xFF, 0xFFFF, 0xFFFFFFFF], dtype=np.uint64)
_WIDTHS = np.array([0, 1, 2, 4, 8], dtype=np.uint8)

_FLOAT64 = np.dtype(np.float64)

Buffer = Union[bytes, bytearray, memoryview, np.ndarray]


def _as_typed_array(values: np.ndarray, column_type: ColumnType) -> np.ndarray:
    """Cast ``values`` to the dtype of ``column_type`` without copying if possible."""
    return np.ascontiguousarray(values, dtype=column_type.numpy_dtype)


# ---------------------------------------------------------------------------
# Plain
# ---------------------------------------------------------------------------

def _parse_plain(data: Buffer, column_type: ColumnType, count: int) -> np.ndarray:
    """Validate a plain chunk and return a zero-copy view of its values."""
    expected = count * column_type.item_size
    if len(data) != expected:
        raise CorruptFileError(
            f"plain-encoded chunk has {len(data)} bytes, expected {expected}"
        )
    return np.frombuffer(data, dtype=column_type.numpy_dtype)


# ---------------------------------------------------------------------------
# Run-length encoding
# ---------------------------------------------------------------------------

def _run_lengths(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split an array into (run values, run lengths)."""
    if len(values) == 0:
        return values[:0], np.zeros(0, dtype=np.int64)
    change = np.empty(len(values), dtype=bool)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    lengths = np.diff(np.append(starts, len(values)))
    return values[starts], lengths.astype(np.int64)


def _encode_rle(typed: np.ndarray) -> bytes:
    run_values, run_lengths = _run_lengths(typed)
    header = struct.pack("<I", len(run_values))
    return header + run_values.tobytes() + run_lengths.astype("<u4").tobytes()


def _parse_rle(
    data: Buffer, column_type: ColumnType, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate an RLE chunk and return (run values, run lengths) views."""
    if len(data) < 4:
        raise CorruptFileError("RLE chunk too short for header")
    (num_runs,) = struct.unpack_from("<I", data, 0)
    values_size = num_runs * column_type.item_size
    lengths_offset = 4 + values_size
    expected = lengths_offset + num_runs * 4
    if len(data) != expected:
        raise CorruptFileError(
            f"RLE chunk has {len(data)} bytes, expected {expected}"
        )
    run_values = np.frombuffer(data, dtype=column_type.numpy_dtype, count=num_runs, offset=4)
    run_lengths = np.frombuffer(data, dtype="<u4", count=num_runs, offset=lengths_offset)
    total = int(run_lengths.sum()) if num_runs else 0
    if total != count:
        raise CorruptFileError(
            f"RLE chunk decodes to {total} values, expected {count}"
        )
    return run_values, run_lengths


# ---------------------------------------------------------------------------
# Dictionary encoding
# ---------------------------------------------------------------------------

def _code_width(dict_size: int) -> int:
    """Bytes per dictionary code: the least that addresses ``dict_size`` entries."""
    if dict_size <= 1:
        return 0
    return 1 if dict_size <= 0x100 else 2 if dict_size <= 0x10000 else 4


def _encode_dictionary(typed: np.ndarray) -> bytes:
    ranked = np.sort(typed)
    first = np.ones(len(ranked), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    dictionary = ranked[first]
    width = _code_width(len(dictionary))
    codes = np.searchsorted(dictionary, typed).astype(UNSIGNED[width]) if width else b""
    return b"".join((struct.pack("<I", len(dictionary)), dictionary, codes))


def _parse_dictionary(
    data: Buffer, column_type: ColumnType, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a dictionary chunk and return (dictionary, codes) views."""
    if len(data) < 4:
        raise CorruptFileError("dictionary chunk too short for header")
    (dict_size,) = struct.unpack_from("<I", data, 0)
    width = _code_width(dict_size)
    codes_offset = 4 + dict_size * column_type.item_size
    expected = codes_offset + count * width
    if len(data) != expected:
        raise CorruptFileError(
            f"dictionary chunk has {len(data)} bytes, expected {expected}"
        )
    if dict_size == 0 and count != 0:
        raise CorruptFileError("empty dictionary with non-zero value count")
    dictionary = np.frombuffer(data, dtype=column_type.numpy_dtype, count=dict_size, offset=4)
    if not width:
        return dictionary, np.zeros(count, dtype=np.uint8)
    codes = np.frombuffer(data, dtype=UNSIGNED[width], count=count, offset=codes_offset)
    if codes.size and codes.max() >= dict_size:
        raise CorruptFileError("dictionary code out of range")
    return dictionary, codes


# ---------------------------------------------------------------------------
# Narrowing: FOR / DELTA / scaled decimals, for all tiles of a column at once
# ---------------------------------------------------------------------------

class Tiling(NamedTuple):
    """Contiguous, non-empty row ranges tiling a column: the row groups of a
    file, the non-empty partitions of one sender."""

    #: First row of each tile (strictly increasing, ``starts[0] == 0``).
    starts: np.ndarray
    #: Rows per tile.
    counts: np.ndarray
    #: The same ranges as Python ``(start, end)`` pairs.
    slices: List[Tuple[int, int]]
    #: Which tiles to narrow; the others stay ``RAW`` unexamined.
    long: np.ndarray


def _widths(spans: np.ndarray) -> np.ndarray:
    """Bytes needed to store values in ``[0, span]``, per span."""
    return _WIDTHS[np.searchsorted(_LIMITS, spans)]


def _narrow(
    values: np.ndarray, tiling: Tiling, only: Optional[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List]:
    """Choose FOR/DELTA/RAW per tile of an integer column.

    ``values`` is a native integer (or bool) column; ``only`` restricts the
    choice to ``FOR`` or ``DELTA``.  Returns the directory fields
    ``(encoding, width, base)`` per tile and one block each: the narrowed
    values, ``b""`` for a constant, ``None`` where nothing narrows and the
    caller ships the raw column.
    """
    starts = tiling.starts
    itemsize = values.dtype.itemsize
    unsigned = UNSIGNED[itemsize].newbyteorder("=")
    ordered = values.view(np.uint8) if values.dtype.kind == "b" else values
    bits = values.view(unsigned)
    base = np.minimum.reduceat(ordered, starts).view(unsigned)
    # Modulo 2**bits the difference of the signed extremes is the true span.
    width = _widths(np.maximum.reduceat(ordered, starts).view(unsigned) - base)
    encoding = np.full(len(starts), FOR, dtype=np.uint8)
    steps = None
    if only != FOR and (only == DELTA or width.max() > 1):
        steps = np.empty_like(bits)
        np.subtract(bits[1:], bits[:-1], out=steps[1:])
        steps[starts] = 0
        step_width = _widths(np.maximum.reduceat(steps, starts))
        delta = step_width < width if only is None else np.ones(len(starts), dtype=bool)
        encoding[delta] = DELTA
        base = np.where(delta, bits[starts], base)
        width = np.where(delta, step_width, width)
    raw = (width >= itemsize) | ~tiling.long
    encoding[raw] = RAW
    width[raw] = 0
    base[raw] = 0

    offsets = None
    narrowed = {}
    blocks: List = []
    for (start, end), code, size in zip(tiling.slices, encoding.tolist(), width.tolist()):
        if code == RAW:
            blocks.append(None)
        elif size == 0:
            blocks.append(b"")
        else:
            # One narrowing pass per (encoding, width) in use covers every
            # tile that chose it; FOR subtracts each tile's minimum.
            column = narrowed.get((code, size))
            if column is None:
                if code == FOR and offsets is None:
                    offsets = bits - np.repeat(base, tiling.counts)
                source = steps if code == DELTA else offsets
                column = narrowed[code, size] = source.astype(UNSIGNED[size])
            blocks.append(column[start:end])
    return encoding, width, base, blocks


def _scaled_exactly(
    values: np.ndarray, scale: Optional[float], starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``rint(values * scale)`` as int64, and which tiles it is exact for.

    Exact means decoding the integers reproduces every value of the tile bit
    for bit — never true with a NaN, ±inf, −0.0 or a value beyond int64 in it
    (the invalid cast yields some integer; it cannot decode to those bits).
    """
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = np.rint(values if scale is None else values * scale).astype(np.int64)
    restored = scaled.astype(np.float64)
    if scale is not None:
        restored /= scale
    same = restored.view(np.int64) == values.view(np.int64)
    return scaled, np.logical_and.reduceat(same, starts)


def narrow_tiles(
    array: np.ndarray, tiling: Tiling, entries: np.ndarray, only: Optional[int] = None
) -> List:
    """Narrow one fixed-width column for every tile at once.

    Fills the ``encoding`` / ``width`` / ``exponent`` / ``base`` fields of
    ``entries`` (one zero-initialised entry per tile) and returns one block
    per tile — ``None`` where the tile stays ``RAW``: not ``tiling.long``, not
    a native integer or float64 column, or nothing narrows.
    """
    dtype = array.dtype
    blocks: List = [None] * len(tiling.slices)
    if not tiling.long.any():
        return blocks
    if dtype.isnative and dtype.kind in "iub":
        entries["encoding"], entries["width"], entries["base"], blocks = _narrow(
            array, tiling, only
        )
    elif dtype == _FLOAT64:
        # Per tile, the first exponent that is exact decides: narrowed if its
        # integers narrow, RAW if they do not.
        pending = tiling.long.copy()
        for exponent, scale in SCALES.items():
            scaled, exact = _scaled_exactly(array, scale, tiling.starts)
            exact &= pending
            if exact.any():
                encoding, width, base, narrowed = _narrow(scaled, tiling, only)
                chosen = exact & (encoding != RAW)
                entries["encoding"][chosen] = encoding[chosen]
                entries["width"][chosen] = width[chosen]
                entries["base"][chosen] = base[chosen]
                entries["exponent"][chosen] = exponent
                for index in np.flatnonzero(chosen).tolist():
                    blocks[index] = narrowed[index]
                pending &= ~exact
            if not pending.any():
                break
    return blocks


def widen(
    stored: Optional[np.ndarray],
    count: int,
    dtype: np.dtype,
    encoding: int,
    exponent: int,
    base: int,
) -> np.ndarray:
    """The ``count`` values of a ``FOR`` / ``DELTA`` block, always fresh.

    ``stored`` holds the narrowed offsets / steps, or is ``None`` for a
    width-0 block (every value is ``base``).
    """
    unsigned = UNSIGNED[dtype.itemsize]
    if stored is None:
        bits = np.full(count, base, dtype=unsigned)
    elif encoding == FOR:
        bits = np.add(stored, unsigned.type(base), dtype=unsigned)
    else:
        bits = np.cumsum(stored, dtype=unsigned)
        bits += unsigned.type(base)
    if dtype != _FLOAT64:
        return bits.view(dtype)
    column = bits.view(np.int64).astype(np.float64)
    if exponent:
        column /= SCALES[exponent]
    return column


def _parse_narrowed(
    data: Buffer, column_type: ColumnType, count: int, width: int, exponent: int, base: int
) -> Optional[np.ndarray]:
    """Validate a FOR/DELTA chunk and return its stored values (``None``: width 0)."""
    itemsize = column_type.item_size
    if (width and width not in UNSIGNED) or width >= itemsize:
        raise CorruptFileError(f"narrowed chunk of width {width} in a {itemsize}-byte column")
    if exponent not in SCALES or (exponent and column_type is not ColumnType.FLOAT64):
        raise CorruptFileError(f"narrowed chunk with decimal exponent {exponent}")
    if base >> (8 * itemsize):
        raise CorruptFileError(f"narrowed chunk base {base} exceeds the column type")
    if len(data) != count * width:
        raise CorruptFileError(
            f"narrowed chunk has {len(data)} bytes, expected {count * width}"
        )
    return np.frombuffer(data, dtype=UNSIGNED[width]) if width else None


# ---------------------------------------------------------------------------
# Write side: one column, every tile
# ---------------------------------------------------------------------------

def tile_rows(num_rows: int, rows: int) -> Tiling:
    """The tiling of ``num_rows > 0`` rows into consecutive tiles of ``rows``."""
    starts = np.arange(0, num_rows, rows, dtype=np.intp)
    counts = np.minimum(rows, num_rows - starts)
    slices = list(zip(starts.tolist(), (starts + counts).tolist()))
    return Tiling(starts, counts, slices, np.ones(len(starts), dtype=bool))


def _tile_runs(values: np.ndarray, tiling: Tiling) -> np.ndarray:
    """Number of runs of equal neighbours per tile."""
    change = np.empty(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=change[1:])
    change[tiling.starts] = True
    return np.add.reduceat(change, tiling.starts, dtype=np.intp)


def _tile_cardinalities(values: np.ndarray, tiling: Tiling) -> np.ndarray:
    """Number of distinct values per tile (every NaN counts)."""
    starts, counts = tiling.starts, tiling.counts
    # One matrix row per tile, a short tile padded with its own first value;
    # sorted row by row, a tile's distinct values are where neighbours differ.
    padded = np.repeat(values[starts][:, None], counts.max(), axis=1)
    tile = np.repeat(np.arange(len(starts)), counts)
    padded[tile, np.arange(len(values)) - np.repeat(starts, counts)] = values
    padded.sort(axis=1)
    return 1 + np.count_nonzero(padded[:, 1:] != padded[:, :-1], axis=1)


def encode_tiles(
    values: np.ndarray,
    column_type: ColumnType,
    tiling: Tiling,
    entries: np.ndarray,
    encoding: Optional[Encoding] = None,
) -> List[Buffer]:
    """Encode one column for every tile of ``tiling`` in one pass.

    Fills the ``encoding`` / ``width`` / ``exponent`` / ``base`` fields of
    ``entries`` (one zero-initialised entry per tile) and returns one page per
    tile.  Without an ``encoding`` override each tile chooses for itself, the
    way a Parquet writer would: ``DICTIONARY`` when it holds few distinct
    values, ``RLE`` when its runs are long (sorted columns), else the narrower
    of ``FOR`` / ``DELTA``, and ``PLAIN`` when nothing narrows.  A ``FOR`` or
    ``DELTA`` override narrows with exactly that encoding and leaves the tiles
    it cannot represent narrower ``PLAIN``.
    """
    typed = _as_typed_array(values, column_type)
    nowhere = np.zeros(len(tiling.slices), dtype=bool)
    as_dictionary, as_rle, only = nowhere, nowhere, None
    if encoding is None:
        counts = tiling.counts
        as_dictionary = _tile_cardinalities(typed, tiling) <= np.maximum(16, counts // 64)
        as_rle = ~as_dictionary & (_tile_runs(typed, tiling) <= counts // 8)
    elif encoding is Encoding.DICTIONARY:
        as_dictionary = ~nowhere
    elif encoding is Encoding.RLE:
        as_rle = ~nowhere
    elif encoding is not Encoding.PLAIN:
        only = encoding.value
    blocks: List = [None] * len(nowhere)
    if encoding is None or only is not None:
        blocks = narrow_tiles(
            typed, tiling._replace(long=~(as_dictionary | as_rle)), entries, only
        )
    entries["encoding"][as_dictionary] = Encoding.DICTIONARY.value
    entries["encoding"][as_rle] = Encoding.RLE.value
    pages: List[Buffer] = []
    for (start, end), block, dictionary, rle in zip(
        tiling.slices, blocks, as_dictionary.tolist(), as_rle.tolist()
    ):
        tile = typed[start:end]
        if dictionary:
            pages.append(_encode_dictionary(tile))
        elif rle:
            pages.append(_encode_rle(tile))
        else:
            pages.append(tile if block is None else block)
    return pages


class EncodedPage(NamedTuple):
    """One encoded chunk and the directory entry that describes it."""

    encoding: Encoding
    width: int
    exponent: int
    base: int
    data: bytes


def encode_column(
    values: np.ndarray, column_type: ColumnType, encoding: Optional[Encoding] = None
) -> EncodedPage:
    """Encode one column chunk: :func:`encode_tiles` of a single tile.

    An empty chunk is an empty ``PLAIN`` page whatever was asked for.
    """
    if len(values) == 0:
        return EncodedPage(Encoding.PLAIN, 0, 0, 0, b"")
    entries = np.zeros(1, dtype=ENTRY)
    (page,) = encode_tiles(
        values, column_type, tile_rows(len(values), len(values)), entries, encoding
    )
    code, width, exponent, base = entries[0].item()
    return EncodedPage(Encoding(code), width, exponent, base, bytes(memoryview(page)))


def decode_column(
    data: Buffer,
    column_type: ColumnType,
    encoding: Encoding,
    count: int,
    width: int = 0,
    exponent: int = 0,
    base: int = 0,
) -> np.ndarray:
    """Decode a column chunk produced by :func:`encode_column`."""
    return parse_encoded_chunk(
        data, column_type, encoding, count, width, exponent, base
    ).decode()


# ---------------------------------------------------------------------------
# Encoded-chunk views (late materialization)
# ---------------------------------------------------------------------------

@dataclass
class EncodedChunk:
    """A validated, still-encoded column chunk.

    Holds zero-copy views of the chunk's raw buffers so predicates can be
    evaluated and selections gathered without decoding the full value array.
    Exactly one of the buffer groups is populated, matching ``encoding``:
    ``values`` (PLAIN), ``run_values``/``run_lengths`` (RLE),
    ``dictionary``/``codes`` (DICTIONARY), or ``stored``/``exponent``/``base``
    (FOR and DELTA; ``stored`` is ``None`` for a width-0 chunk).
    """

    column_type: ColumnType
    encoding: Encoding
    num_values: int
    values: Optional[np.ndarray] = None
    run_values: Optional[np.ndarray] = None
    run_lengths: Optional[np.ndarray] = None
    dictionary: Optional[np.ndarray] = None
    codes: Optional[np.ndarray] = None
    stored: Optional[np.ndarray] = None
    exponent: int = 0
    base: int = 0
    #: Cached exclusive run end offsets (RLE only), built on first gather.
    _run_ends: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def run_ends(self) -> np.ndarray:
        """Exclusive end offset of each RLE run (cumulative run lengths)."""
        if self._run_ends is None:
            self._run_ends = np.cumsum(self.run_lengths, dtype=np.int64)
        return self._run_ends

    def _widen(self, stored: Optional[np.ndarray], count: int) -> np.ndarray:
        return widen(
            stored, count, self.column_type.numpy_dtype,
            self.encoding.value, self.exponent, self.base,
        )

    def decode(self) -> np.ndarray:
        """Materialise the full value array (the classic decode path)."""
        if self.encoding is Encoding.PLAIN:
            return self.values.copy()
        if self.encoding is Encoding.RLE:
            decoded = np.repeat(self.run_values, self.run_lengths)
            return decoded.astype(self.column_type.numpy_dtype, copy=False)
        if self.encoding is Encoding.DICTIONARY:
            if len(self.dictionary) == 0:
                return np.zeros(0, dtype=self.column_type.numpy_dtype)
            return self.dictionary.take(self.codes)
        return self._widen(self.stored, self.num_values)


def parse_encoded_chunk(
    data: Buffer,
    column_type: ColumnType,
    encoding: Encoding,
    count: int,
    width: int = 0,
    exponent: int = 0,
    base: int = 0,
) -> EncodedChunk:
    """Open a chunk as an :class:`EncodedChunk` view without decoding it.

    ``width`` / ``exponent`` / ``base`` are the chunk's directory fields; only
    ``FOR`` and ``DELTA`` chunks have any.
    """
    if encoding is Encoding.PLAIN:
        return EncodedChunk(
            column_type, encoding, count, values=_parse_plain(data, column_type, count)
        )
    if encoding is Encoding.RLE:
        run_values, run_lengths = _parse_rle(data, column_type, count)
        return EncodedChunk(
            column_type, encoding, count, run_values=run_values, run_lengths=run_lengths
        )
    if encoding is Encoding.DICTIONARY:
        dictionary, codes = _parse_dictionary(data, column_type, count)
        return EncodedChunk(
            column_type, encoding, count, dictionary=dictionary, codes=codes
        )
    stored = _parse_narrowed(data, column_type, count, width, exponent, base)
    return EncodedChunk(
        column_type, encoding, count, stored=stored, exponent=exponent, base=base
    )


def decode_gather(chunk: EncodedChunk, selection: Optional[np.ndarray]) -> np.ndarray:
    """Materialise only the rows named by a selection vector.

    ``selection`` is a sorted array of row indices, or ``None`` for "all rows"
    (a plain full decode).  The gather never expands the chunk to its full
    length where the encoding allows: RLE chunks binary-search each selected
    row into its run, dictionary chunks gather codes first and hit the
    dictionary per selected row only, FOR chunks gather the narrow offsets and
    widen those, plain chunks fancy-index the raw value view.  (A DELTA
    chunk's rows depend on all rows before them: full decode, then gather.)
    """
    if selection is None:
        return chunk.decode()
    if chunk.encoding is Encoding.PLAIN:
        return chunk.values[selection]
    if chunk.encoding is Encoding.RLE:
        run_index = np.searchsorted(chunk.run_ends, selection, side="right")
        gathered = chunk.run_values[run_index]
        return gathered.astype(chunk.column_type.numpy_dtype, copy=False)
    if chunk.encoding is Encoding.DICTIONARY:
        if len(chunk.dictionary) == 0:
            return np.zeros(0, dtype=chunk.column_type.numpy_dtype)
        return chunk.dictionary.take(chunk.codes[selection])
    if chunk.encoding is Encoding.FOR:
        stored = None if chunk.stored is None else chunk.stored[selection]
        return chunk._widen(stored, len(selection))
    return chunk.decode()[selection]


def encoded_key_codes(
    chunk: EncodedChunk, selection: Optional[np.ndarray]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Distinct values (ascending) and per-row codes of a group-key chunk.

    The fused scan→agg path consumes group keys as ``(uniques, codes)`` pairs
    instead of materialised value arrays, so the group-by kernel can combine
    codes directly.  For DICTIONARY chunks the stored dictionary *is* the
    sorted unique list and the codes come for free; RLE chunks factorise the
    (small) run-value array and map selected rows to their run's code.
    Returns ``None`` when codes cannot be derived cheaply (PLAIN, FOR and
    DELTA chunks, or a dictionary that is not strictly ascending), in which
    case the caller falls back to ``decode_gather``.
    """
    if chunk.encoding is Encoding.DICTIONARY:
        dictionary = chunk.dictionary
        if len(dictionary) > 1 and not np.all(dictionary[1:] > dictionary[:-1]):
            return None
        codes = chunk.codes if selection is None else chunk.codes[selection]
        return dictionary, codes.astype(np.int64, copy=False)
    if chunk.encoding is Encoding.RLE:
        uniques, run_codes = np.unique(np.asarray(chunk.run_values), return_inverse=True)
        if selection is None:
            codes = np.repeat(run_codes, chunk.run_lengths)
        else:
            codes = run_codes[np.searchsorted(chunk.run_ends, selection, side="right")]
        uniques = uniques.astype(chunk.column_type.numpy_dtype, copy=False)
        return uniques, codes.astype(np.int64, copy=False)
    return None


_COMPARISON_UFUNCS = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def evaluate_comparison(chunk: EncodedChunk, op: str, value: float) -> np.ndarray:
    """Row-level boolean mask of ``column <op> value`` on the encoded chunk.

    Dictionary chunks compare the (small) dictionary once and translate the
    result to a per-row code-set membership test; RLE chunks compare per run
    and expand the run mask with ``np.repeat``; plain chunks compare the raw
    value view directly; FOR and DELTA chunks widen first (a few passes over
    narrow integers).  Identical to comparing the decoded array.
    """
    ufunc = _COMPARISON_UFUNCS[op]
    if chunk.encoding is Encoding.PLAIN:
        return ufunc(chunk.values, value)
    if chunk.encoding is Encoding.RLE:
        run_mask = ufunc(chunk.run_values, value)
        return np.repeat(run_mask, chunk.run_lengths)
    if chunk.encoding is Encoding.DICTIONARY:
        if len(chunk.dictionary) == 0:
            return np.zeros(0, dtype=bool)
        return ufunc(chunk.dictionary, value).take(chunk.codes)
    return ufunc(chunk.decode(), value)
