"""Per-worker network bandwidth model for S3 transfers.

The paper (§4.3.1, Figures 6 and 7) observes the following behaviour of the
network path between a serverless worker and S3:

* A steady-state ingress limit of about 90 MiB/s per worker, independent of
  the worker memory size (except for very small workers) and of the number of
  concurrent connections.
* A *burst* allowance: for a few seconds, large workers can exceed the steady
  limit — up to almost 300 MiB/s — but only when several connections are used
  concurrently, consistent with a credit-based traffic shaper.
* Each request pays a round-trip latency before the first byte arrives, so
  small chunk sizes need multiple in-flight requests to hide latency.

:class:`BandwidthModel` turns a transfer description (bytes, number of
connections, chunk size, worker memory) into a modelled duration, and exposes
the effective bandwidth so that benchmarks can reproduce Figures 6 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import (
    MiB,
    S3_BURST_BANDWIDTH_BYTES_PER_S,
    S3_BURST_WINDOW_SECONDS,
    S3_REQUEST_LATENCY_SECONDS,
    S3_STEADY_BANDWIDTH_BYTES_PER_S,
)


@dataclass(frozen=True)
class TransferPlan:
    """Description of a (modelled) bulk transfer from S3 into one worker."""

    total_bytes: int
    chunk_bytes: int
    connections: int = 1
    memory_mib: int = 2048
    #: Explicit number of GETs for a vectored read whose requests are not
    #: ``chunk_bytes``-sized pieces of one contiguous range; ``None`` derives
    #: it from the sizes.
    requests: Optional[int] = None

    def __post_init__(self):
        if self.total_bytes < 0:
            raise ValueError("total_bytes must be non-negative")
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if self.connections < 1:
            raise ValueError("connections must be at least 1")
        if self.memory_mib <= 0:
            raise ValueError("memory_mib must be positive")
        if self.requests is not None and self.requests < 0:
            raise ValueError("requests must be non-negative")

    @property
    def request_count(self) -> int:
        """Number of ranged GET requests needed for the transfer."""
        if self.requests is not None:
            return self.requests
        if self.total_bytes == 0:
            return 0
        return -(-self.total_bytes // self.chunk_bytes)  # ceil division


class BandwidthModel:
    """Models per-worker ingress bandwidth from S3.

    Parameters default to the constants measured in the paper but can be
    overridden to study sensitivity.
    """

    def __init__(
        self,
        steady_bandwidth: float = S3_STEADY_BANDWIDTH_BYTES_PER_S,
        burst_bandwidth: float = S3_BURST_BANDWIDTH_BYTES_PER_S,
        burst_window_seconds: float = S3_BURST_WINDOW_SECONDS,
        request_latency_seconds: float = S3_REQUEST_LATENCY_SECONDS,
    ):
        if steady_bandwidth <= 0 or burst_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if burst_bandwidth < steady_bandwidth:
            raise ValueError("burst bandwidth cannot be below steady bandwidth")
        self.steady_bandwidth = steady_bandwidth
        self.burst_bandwidth = burst_bandwidth
        self.burst_window_seconds = burst_window_seconds
        self.request_latency_seconds = request_latency_seconds

    # -- capacity -----------------------------------------------------------

    def link_bandwidth(self, memory_mib: int, connections: int) -> float:
        """Instantaneous link capacity for a worker, ignoring request latency.

        Small workers (< 1 GiB) see a slightly lower steady bandwidth (the
        paper observes this in Figure 6a).  The burst ceiling is only
        reachable with multiple connections and scales with worker size up to
        the largest configuration.
        """
        if memory_mib < 1024:
            steady = 0.85 * self.steady_bandwidth
        else:
            steady = self.steady_bandwidth
        if connections <= 1:
            return steady
        # Burst ceiling grows with memory (traffic-shaping credits appear to
        # be provisioned per instance size) and with connection count, but
        # never exceeds the measured ~300 MiB/s.
        size_factor = min(1.0, memory_mib / 3008.0)
        connection_factor = min(1.0, (connections - 1) / 3.0)
        burst_ceiling = steady + (self.burst_bandwidth - steady) * size_factor * connection_factor
        return burst_ceiling

    def effective_bandwidth(self, plan: TransferPlan) -> float:
        """Average bandwidth achieved for a transfer, in bytes/second."""
        duration = self.transfer_seconds(plan)
        if duration == 0:
            return 0.0
        return plan.total_bytes / duration

    # -- timing -------------------------------------------------------------

    def transfer_seconds(self, plan: TransferPlan) -> float:
        """Modelled duration of a transfer described by ``plan``.

        The model pipelines chunk requests over ``plan.connections``
        concurrent connections: each connection alternates between waiting one
        request round-trip and streaming a chunk at the per-connection share
        of the link.  Burst credits apply to the first
        :attr:`burst_window_seconds` of the transfer.
        """
        if plan.total_bytes == 0:
            return 0.0

        requests = plan.request_count
        link = self.link_bandwidth(plan.memory_mib, plan.connections)

        # Time during which latency is *not* hidden: with ``c`` connections,
        # roughly one round-trip per ``c`` requests stays on the critical
        # path, because the other requests are issued while data is flowing.
        rounds = -(-requests // plan.connections)
        exposed_latency = self.request_latency_seconds * max(1, rounds) \
            if plan.connections == 1 else self.request_latency_seconds * (
                1 + 0.25 * max(0, rounds - 1)
            )

        # Streaming time.  Burst credits only cover transfers that fit within
        # the burst window (small objects); sustained transfers of large
        # objects run at the steady per-worker limit regardless of connection
        # count, which is what Figure 6a observes for 1 GB files.
        burst_link = link
        steady_link = self.link_bandwidth(plan.memory_mib, 1)
        burst_bytes = burst_link * self.burst_window_seconds
        if plan.connections > 1 and plan.total_bytes <= burst_bytes:
            stream_seconds = plan.total_bytes / burst_link
        else:
            stream_seconds = plan.total_bytes / steady_link

        return exposed_latency + stream_seconds

    def scan_bandwidth(
        self,
        total_bytes: int,
        chunk_bytes: int,
        connections: int,
        memory_mib: int = 3008,
    ) -> float:
        """Convenience wrapper returning the achieved bandwidth of a scan."""
        plan = TransferPlan(
            total_bytes=total_bytes,
            chunk_bytes=chunk_bytes,
            connections=connections,
            memory_mib=memory_mib,
        )
        return self.effective_bandwidth(plan)
