"""S3-backed random-access source with request accounting and a timing model.

This is the reproduction of the "S3 file system" layer of the paper's scan
operator (Figure 8): it implements the reader-facing random-access interface
on top of the object store's ranged GETs and records the statistics needed to
model scan bandwidth and request cost (Figures 6 and 7).

Requests are planned, not issued one per call.  Opening costs one suffix GET
(its response carries the object size, so there is no HEAD), and
:meth:`S3ObjectSource.prefetch` turns a batch of ranges into few GETs:
neighbours are merged when the hole between them streams faster than another
round trip would take — gap < request latency x steady link bandwidth, both
read from the :class:`~repro.cloud.network.BandwidthModel`, so a zero-latency
model degenerates to exactly one GET per range — merged spans are
split at ``chunk_bytes``, and the batch is charged as *one* transfer pipelined
over the configured connections.  Several objects opened together
(:func:`open_sources`) are one such transfer of their suffix GETs.  The open
tail and the latest batch are kept so that the reader's per-chunk
:meth:`~S3ObjectSource.read_at` calls are served from memory.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cloud.network import BandwidthModel, TransferPlan
from repro.cloud.s3 import GetResult, ObjectStore, parse_s3_path
from repro.config import DEFAULT_SCAN_CHUNK_BYTES, DEFAULT_SCAN_CONNECTIONS
from repro.counters import Counts
from repro.errors import CorruptFileError
from repro.formats.source import RandomAccessSource


class S3ObjectSource(RandomAccessSource):
    """Random-access reads of one object, planned into coalesced ranged GETs.

    Its GETs and bytes are noted into ``counts`` as ``("scan",
    "get_requests")`` / ``("scan", "bytes_read")`` (several sources of one
    scan share one), the modelled time they took in :attr:`transfer_seconds`.
    """

    def __init__(
        self,
        store: ObjectStore,
        path: str,
        chunk_bytes: int = DEFAULT_SCAN_CHUNK_BYTES,
        connections: int = DEFAULT_SCAN_CONNECTIONS,
        memory_mib: int = 2048,
        bandwidth: Optional[BandwidthModel] = None,
        counts: Optional[Counts] = None,
    ):
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if connections < 1:
            raise ValueError("connections must be at least 1")
        self.store = store
        self.bucket, self.key = parse_s3_path(path)
        self.path = path
        self.chunk_bytes = chunk_bytes
        self.connections = connections
        self.memory_mib = memory_mib
        self.bandwidth = bandwidth or BandwidthModel()
        self.counts = counts if counts is not None else Counts()
        #: Modelled seconds this object's transfers took (latency + stream).
        self.transfer_seconds = 0.0
        self._size: Optional[int] = None
        #: Retained ``(offset, bytes)`` spans: the open tail first, then the
        #: latest :meth:`prefetch` batch.
        self._spans: List[Tuple[int, bytes]] = []

    @property
    def coalesce_gap(self) -> int:
        """Bytes that stream in one request round trip: the break-even hole.

        Reading through a smaller hole is cheaper than paying another round
        trip to skip it (adjacent ranges included, unless latency is zero).
        """
        return int(
            self.bandwidth.request_latency_seconds
            * self.bandwidth.link_bandwidth(self.memory_mib, 1)
        )

    def size(self) -> int:
        if self._size is None:
            self.read_suffix(1)
        return self._size

    def read_suffix(self, length: int) -> bytes:
        """Read the last ``length`` bytes; the first call opens the object.

        Opening is one suffix GET whose response also carries the object
        size.  It fetches a break-even's worth speculatively: a footer, or a
        whole small file, arrives with the round trip that is paid anyway.
        """
        if self._size is None:
            self._charge(1, self._open(length))
        return super().read_suffix(length)

    def _open(self, length: int) -> int:
        """Issue the opening suffix GET (uncharged); returns the bytes it read."""
        wanted = max(length, 1, min(self.coalesce_gap, self.chunk_bytes))
        result = self.store.get_object(self.bucket, self.key, suffix_length=wanted)
        size = result.metadata.size
        self._check_length(result, min(wanted, size), "lpq.tail")
        self._size = size
        self._spans = [(size - len(result.data), result.data)]
        return len(result.data)

    def peek(self, offset: int, length: int) -> Optional[bytes]:
        end = offset + length
        for start, data in self._spans:
            if start <= offset and end <= start + len(data):
                return data[offset - start:end - start]
        return None

    def read_at(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``, from a retained span if one covers it."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        end = min(offset + length, self.size())
        if end <= offset:
            return b""
        data = self.peek(offset, end - offset)
        if data is None:
            ((_, data),) = self._fetch([(offset, end)])
        return data

    def prefetch(self, ranges: Sequence[Tuple[int, int]]) -> None:
        """Fetch a batch of ranges with coalesced, ``chunk_bytes``-split GETs.

        Ranges starting inside the open tail cost nothing (a batch of only
        those returns at once); the spans fetched for the rest replace the
        previous batch's, so retention stays bounded.
        """
        for offset, length in ranges:
            if offset < 0 or length < 0:
                raise ValueError("offset and length must be non-negative")
        size = self.size()
        del self._spans[1:]
        tail_start = self._spans[0][0]
        outside = [pair for pair in ranges if pair[0] < tail_start]
        if not outside:
            return
        gap = self.coalesce_gap
        merged: List[List[int]] = []
        for offset, length in sorted(outside):
            end = min(offset + length, size)
            if end <= offset:
                continue
            if merged and offset - merged[-1][1] < gap:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([offset, end])
        self._spans += self._fetch(merged)

    def _fetch(self, spans: Sequence[Sequence[int]]) -> List[Tuple[int, bytes]]:
        """GET each ``[start, end)`` span in ``chunk_bytes`` pieces, as one transfer."""
        fetched: List[Tuple[int, bytes]] = []
        requests = 0
        for start, end in spans:
            pieces = []
            for position in range(start, end, self.chunk_bytes):
                piece_end = min(position + self.chunk_bytes, end)
                result = self.store.get_object(self.bucket, self.key, position, piece_end)
                self._check_length(result, piece_end - position, "lpq.chunk")
                pieces.append(result.data)
            requests += len(pieces)
            fetched.append((start, b"".join(pieces)))
        if requests:
            self._charge(requests, sum(len(data) for _, data in fetched))
        return fetched

    def _check_length(self, result: GetResult, expected: int, layer: str) -> None:
        """A short response would shift every slice cut from it: fail typed."""
        if len(result.data) != expected:
            raise CorruptFileError(
                "short response to a ranged GET",
                key=self.path, layer=layer, offset=result.range_start,
                expected=expected, actual=len(result.data),
            )

    def _transfer_seconds(self, requests: int, total_bytes: int) -> float:
        """Modelled time of ``requests`` GETs pipelined over the connections."""
        return self.bandwidth.transfer_seconds(TransferPlan(
            total_bytes=total_bytes,
            chunk_bytes=self.chunk_bytes,
            connections=self.connections,
            memory_mib=self.memory_mib,
            requests=requests,
        ))

    def _charge(self, requests: int, total_bytes: int, seconds: Optional[float] = None) -> None:
        """Account ``requests`` GETs as one transfer pipelined over the connections
        (or as ``seconds``, this source's share of a batch priced elsewhere)."""
        if seconds is None:
            seconds = self._transfer_seconds(requests, total_bytes)
        self.counts.note("scan", "get_requests", requests)
        self.counts.note("scan", "bytes_read", total_bytes)
        self.transfer_seconds += seconds


def open_sources(sources: Sequence[S3ObjectSource], length: int) -> None:
    """Open several objects as one batch of suffix GETs.

    Each source issues exactly the GET its own first :meth:`~S3ObjectSource.read_suffix`
    of ``length`` bytes would, but the k requests are charged as *one*
    transfer pipelined over the first source's connections: ⌈k / connections⌉
    round trips instead of k.  Each source bills its own request and bytes,
    and the batch's seconds by its share of the bytes, so one source alone is
    charged exactly what its own open would cost.
    """
    if not sources:
        return
    read = [source._open(length) for source in sources]
    total = sum(read)
    seconds = sources[0]._transfer_seconds(len(sources), total)
    for source, nbytes in zip(sources, read):
        source._charge(1, nbytes, seconds * (nbytes / total) if total else 0.0)
