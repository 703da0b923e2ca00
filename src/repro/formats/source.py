"""Random-access byte sources for the columnar reader.

The paper's scan operator (Figure 8) implements the Parquet library's
user-level filesystem interface on top of S3, exposing a random-access
``ReadAt`` method so that several column chunks can be fetched concurrently.
The reader in this package consumes the same abstraction:
:class:`RandomAccessSource` with :meth:`size`, :meth:`read_at` for one range
and :meth:`read_ranges` for a batch of ranges — the call through which a
source with a per-request cost can fetch several column chunks at once.

The two implementations here (in-memory bytes and a local file) have no such
cost and simply loop; the S3-backed source that coalesces a batch into few
ranged GETs and accounts for them lives in :mod:`repro.engine.s3io` because
it depends on the cloud substrate.
"""

from __future__ import annotations

import abc
import os
from typing import List, Optional, Sequence, Tuple


class RandomAccessSource(abc.ABC):
    """Abstract random-access byte source."""

    @abc.abstractmethod
    def size(self) -> int:
        """Total size in bytes."""

    @abc.abstractmethod
    def read_at(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset``.

        Reading past the end returns the available suffix (like a ranged HTTP
        GET clamped to the object size).
        """

    def read_ranges(self, ranges: Sequence[Tuple[int, int]]) -> List[bytes]:
        """Read several ``(offset, length)`` ranges; one result per range, in order.

        Equivalent to calling :meth:`read_at` per range; sources that pay per
        request override it to fetch the batch in as few requests as pay off.
        """
        return [self.read_at(offset, length) for offset, length in ranges]

    def read_suffix(self, length: int) -> bytes:
        """Read the last ``length`` bytes (the whole source if it is shorter)."""
        size = self.size()
        start = max(0, size - length)
        return self.read_at(start, size - start)

    def peek(self, offset: int, length: int) -> Optional[bytes]:
        """The range if it can be served without a request, else ``None``."""
        return self.read_at(offset, length)

    def read_all(self) -> bytes:
        """Read the entire source."""
        return self.read_at(0, self.size())


class BytesSource(RandomAccessSource):
    """A source over an in-memory bytes object."""

    def __init__(self, data: bytes):
        self._data = bytes(data)

    def size(self) -> int:
        return len(self._data)

    def read_at(self, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        return self._data[offset:offset + length]


class LocalFileSource(RandomAccessSource):
    """A source over a file on the local filesystem."""

    def __init__(self, path: str):
        self._path = path
        self._size = os.path.getsize(path)

    def size(self) -> int:
        return self._size

    def read_at(self, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        with open(self._path, "rb") as handle:
            handle.seek(offset)
            return handle.read(length)
