"""S3-backed random-access source with request accounting and a timing model.

This is the reproduction of the "S3 file system" layer of the paper's scan
operator (Figure 8): it implements the reader-facing random-access interface
on top of the object store's ranged GETs and records the statistics needed to
model scan bandwidth and request cost (Figures 6 and 7).

Requests are planned, not issued one per call.  Opening costs one suffix GET
(its response carries the object size, so there is no HEAD), and
:meth:`S3ObjectSource.read_ranges` turns a batch of ranges into few GETs:
neighbours are merged when the hole between them streams faster than another
round trip would take — gap < request latency x steady link bandwidth, both
read from the :class:`~repro.cloud.network.BandwidthModel`, so a zero-latency
model degenerates to exactly one GET per range — merged spans are
split at ``chunk_bytes``, and the batch is charged as *one* transfer pipelined
over the configured connections.  The open tail and the latest batch are kept
so that the reader's per-chunk :meth:`~S3ObjectSource.read_at` calls are
served from memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cloud.network import BandwidthModel, TransferPlan
from repro.cloud.s3 import GetResult, ObjectStore, parse_s3_path
from repro.config import DEFAULT_SCAN_CHUNK_BYTES, DEFAULT_SCAN_CONNECTIONS
from repro.errors import CorruptFileError
from repro.formats.source import RandomAccessSource


@dataclass
class ScanStatistics:
    """Accumulated I/O statistics of one worker's scan activity."""

    get_requests: int = 0
    bytes_read: int = 0
    #: Modelled wall-clock seconds spent transferring data (latency + stream).
    transfer_seconds: float = 0.0

    def merge(self, other: "ScanStatistics") -> None:
        """Fold another statistics object into this one."""
        self.get_requests += other.get_requests
        self.bytes_read += other.bytes_read
        self.transfer_seconds += other.transfer_seconds

    @property
    def effective_bandwidth(self) -> float:
        """Average achieved bandwidth in bytes/second (0 if nothing was read)."""
        if self.transfer_seconds <= 0:
            return 0.0
        return self.bytes_read / self.transfer_seconds


class S3ObjectSource(RandomAccessSource):
    """Random-access reads of one object, planned into coalesced ranged GETs."""

    def __init__(
        self,
        store: ObjectStore,
        path: str,
        chunk_bytes: int = DEFAULT_SCAN_CHUNK_BYTES,
        connections: int = DEFAULT_SCAN_CONNECTIONS,
        memory_mib: int = 2048,
        bandwidth: Optional[BandwidthModel] = None,
        statistics: Optional[ScanStatistics] = None,
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
        self.statistics = statistics if statistics is not None else ScanStatistics()
        self._size: Optional[int] = None
        #: Retained ``(offset, bytes)`` spans: the open tail first, then the
        #: latest :meth:`read_ranges` batch.
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
            wanted = max(length, 1, min(self.coalesce_gap, self.chunk_bytes))
            result = self.store.get_object(self.bucket, self.key, suffix_length=wanted)
            size = result.metadata.size
            self._check_length(result, min(wanted, size), "lpq.tail")
            self._size = size
            self._spans = [(size - len(result.data), result.data)]
            self._charge(1, len(result.data))
        return super().read_suffix(length)

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

    def read_ranges(self, ranges: Sequence[Tuple[int, int]]) -> List[bytes]:
        """Read a batch of ranges with coalesced, ``chunk_bytes``-split GETs.

        Ranges inside the open tail cost nothing; the spans fetched for the
        rest replace the previous batch's, so retention stays bounded.
        """
        if any(offset < 0 or length < 0 for offset, length in ranges):
            raise ValueError("offset and length must be non-negative")
        size = self.size()
        del self._spans[1:]
        tail_start = self._spans[0][0]
        gap = self.coalesce_gap
        merged: List[List[int]] = []
        for offset, length in sorted(ranges):
            end = min(offset + length, size)
            if end <= offset or offset >= tail_start:
                continue
            if merged and offset - merged[-1][1] < gap:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([offset, end])
        self._spans += self._fetch(merged)
        return [self.read_at(offset, length) for offset, length in ranges]

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

    def _charge(self, requests: int, total_bytes: int) -> None:
        """Account ``requests`` GETs as one transfer pipelined over the connections."""
        plan = TransferPlan(
            total_bytes=total_bytes,
            chunk_bytes=self.chunk_bytes,
            connections=self.connections,
            memory_mib=self.memory_mib,
            requests=requests,
        )
        self.statistics.get_requests += requests
        self.statistics.bytes_read += total_bytes
        self.statistics.transfer_seconds += self.bandwidth.transfer_seconds(plan)
