"""Column chunk compression codecs.

The paper's dataset uses GZIP-compressed Parquet, and the scan operator's
design explicitly distinguishes between light-weight and heavy-weight
compression (decompression of heavy-weight codecs can be slower than the
download and is therefore worth parallelising, §4.3.2).  We provide:

* ``NONE`` — no compression;
* ``FAST`` — zlib at level 1, standing in for light-weight codecs (Snappy);
* ``GZIP`` — zlib at level 6, standing in for the heavy-weight default.
"""

from __future__ import annotations

import enum
import zlib
from typing import Union

from repro.errors import CorruptFileError


class Compression(enum.Enum):
    """Supported compression codecs."""

    NONE = "none"
    FAST = "fast"
    GZIP = "gzip"

    @property
    def is_heavyweight(self) -> bool:
        """Whether decompression is expensive enough to bound the scan."""
        return self is Compression.GZIP


_LEVELS = {Compression.FAST: 1, Compression.GZIP: 6}

#: The id an LPQ footer or an exchange frame's schema section stores per codec.
COMPRESSION_IDS = {Compression.NONE: 0, Compression.FAST: 1, Compression.GZIP: 2}
COMPRESSION_BY_ID = {value: codec for codec, value in COMPRESSION_IDS.items()}

Buffer = Union[bytes, bytearray, memoryview]


def compress(data: Buffer, codec: Compression) -> Buffer:
    """Compress ``data`` (any bytes-like object) with ``codec``.

    ``NONE`` hands ``data`` back as it came — no copy.
    """
    if codec is Compression.NONE:
        return data
    return zlib.compress(data, _LEVELS[codec])


def decompress(data: Buffer, codec: Compression) -> Buffer:
    """Decompress data produced by :func:`compress` (``NONE``: no copy)."""
    if codec is Compression.NONE:
        return data
    try:
        return zlib.decompress(data)
    except zlib.error as exc:
        raise CorruptFileError(f"failed to decompress column chunk: {exc}") from exc
