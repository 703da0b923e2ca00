"""Columnar file format substrate.

Lambada scans Parquet files from S3.  Since the reproduction cannot depend on
the Arrow C++ Parquet library, this package implements a from-scratch
columnar format ("LPQ") that reproduces the structural properties the paper's
scan operator relies on:

* data is laid out in **row groups**, each storing one **column chunk** per
  projected column;
* each column chunk is independently encoded (plain / FOR / DELTA / RLE /
  dictionary — light-weight, typed pages) and then block-compressed (none /
  zlib), so projections only read the needed byte ranges;
* the binary **footer** holds the schema and one packed directory of per-chunk
  byte offsets, page descriptions and min/max statistics, so a single small
  read is enough to plan the scan and prune row groups against predicates.

The public surface is :class:`~repro.formats.parquet.ColumnarWriter`,
:class:`~repro.formats.parquet.ColumnarFile`, and the schema classes.
"""

from repro.formats.schema import ColumnType, Field, Schema
from repro.formats.encoding import Encoding, encode_column, decode_column
from repro.formats.compression import Compression, compress, decompress
from repro.formats.parquet import (
    ColumnarWriter,
    ColumnarFile,
    ColumnChunkMeta,
    RowGroupMeta,
    FileMetadata,
    write_table,
)
from repro.formats.csvfmt import write_csv, read_csv
from repro.formats.source import RandomAccessSource, BytesSource

__all__ = [
    "ColumnType",
    "Field",
    "Schema",
    "Encoding",
    "encode_column",
    "decode_column",
    "Compression",
    "compress",
    "decompress",
    "ColumnarWriter",
    "ColumnarFile",
    "ColumnChunkMeta",
    "RowGroupMeta",
    "FileMetadata",
    "write_table",
    "write_csv",
    "read_csv",
    "RandomAccessSource",
    "BytesSource",
]
