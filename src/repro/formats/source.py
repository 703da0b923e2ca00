"""Random-access byte sources for the columnar reader.

The paper's scan operator (Figure 8) implements the Parquet library's
user-level filesystem interface on top of S3, exposing a random-access
``ReadAt`` method so that several column chunks can be fetched concurrently.
The reader in this package consumes the same abstraction:
:class:`RandomAccessSource` with :meth:`size`, :meth:`read_at` for one range
and :meth:`prefetch` for a batch of ranges about to be read — the call
through which a source with a per-request cost can fetch several column
chunks at once (:meth:`read_ranges` is the two together).

The implementation here (in-memory bytes) has no such cost: its
:meth:`prefetch` does nothing.  The S3-backed source that
coalesces a batch into few ranged GETs and accounts for them lives in
:mod:`repro.engine.s3io` because it depends on the cloud substrate.
"""

from __future__ import annotations

import abc
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

    def prefetch(self, ranges: Sequence[Tuple[int, int]]) -> None:
        """Announce that ``(offset, length)`` ranges are about to be read.

        A no-op here; a source that pays per request overrides it to fetch
        the batch in as few requests as pay off, so the :meth:`read_at` calls
        that follow are served from memory.
        """

    def read_ranges(self, ranges: Sequence[Tuple[int, int]]) -> List[bytes]:
        """Read several ``(offset, length)`` ranges; one result per range, in
        order: :meth:`prefetch` of the batch, then one :meth:`read_at` per range."""
        self.prefetch(ranges)
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

