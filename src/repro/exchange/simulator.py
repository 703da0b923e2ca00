"""Timing simulation of the two-level exchange at the paper's scale.

The functional exchange implementation in :mod:`repro.exchange.multilevel`
moves real bytes; this module complements it with a calibrated *timing* model
that reproduces the behaviour the paper reports for 100 GB–3 TB shuffles on
hundreds to thousands of workers (Table 3 and Figure 13):

* every phase (read input, per-round write/read) moves ``data/P`` bytes per
  worker at the steady scan bandwidth (~85 MiB/s);
* per-worker write times have a heavy upper tail (stragglers): the paper
  observes the slowest worker being ~30 % slower than the median on the 1 TB
  run and ~4× slower on the 3 TB run;
* waiting propagates: a receiver cannot finish reading a round before every
  sender in its group has finished writing, and groups of the second round
  inherit the delays of the first.

The simulation is deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import MiB
from repro.exchange.multilevel import grid_coordinates, grid_side

#: Steady per-worker S3 bandwidth assumed by the exchange analysis (§4.4.4).
EXCHANGE_BANDWIDTH_BYTES_PER_S = 85 * MiB

#: Base per-request round-trip to S3 (the minimum "wait" in Figure 13).
REQUEST_ROUND_TRIP_SECONDS = 0.1


@dataclass
class PhaseBreakdown:
    """Per-worker timings of every phase of a two-level exchange, in seconds."""

    read_input: np.ndarray
    round1_write: np.ndarray
    round1_wait: np.ndarray
    round1_read: np.ndarray
    round2_write: np.ndarray
    round2_wait: np.ndarray
    round2_read: np.ndarray

    def total_per_worker(self) -> np.ndarray:
        """End-to-end time of each worker."""
        return (
            self.read_input
            + self.round1_write
            + self.round1_wait
            + self.round1_read
            + self.round2_write
            + self.round2_wait
            + self.round2_read
        )

    def phases(self) -> Dict[str, np.ndarray]:
        """All phases keyed by the labels used in Figure 13."""
        return {
            "Read input": self.read_input,
            "Round 1 write": self.round1_write,
            "Round 1 wait": self.round1_wait,
            "Round 1 read": self.round1_read,
            "Round 2 write": self.round2_write,
            "Round 2 wait": self.round2_wait,
            "Round 2 read": self.round2_read,
        }


@dataclass
class ExchangeTimings:
    """Summary of one simulated exchange."""

    num_workers: int
    data_bytes: float
    breakdown: PhaseBreakdown
    #: End-to-end latency (slowest worker), seconds.
    total_seconds: float
    #: End-to-end time of the fastest worker, seconds.
    fastest_worker_seconds: float
    #: Sum of the fastest observed time of each phase (informal lower bound).
    lower_bound_seconds: float

    @property
    def waiting_fraction(self) -> float:
        """Fraction of the slowest worker's time spent waiting."""
        waits = self.breakdown.round1_wait + self.breakdown.round2_wait
        slowest = int(np.argmax(self.breakdown.total_per_worker()))
        return float(waits[slowest] / self.total_seconds) if self.total_seconds else 0.0


class ExchangeSimulator:
    """Simulates the two-level exchange timing with stragglers."""

    def __init__(
        self,
        bandwidth_bytes_per_s: float = EXCHANGE_BANDWIDTH_BYTES_PER_S,
        seed: int = 20,
    ):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth = bandwidth_bytes_per_s
        self.seed = seed

    # -- straggler model ---------------------------------------------------------

    def _straggler_multipliers(
        self, num_workers: int, data_bytes: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-worker slowdown factors for a write phase.

        The tail grows with scale: larger fleets writing more data hit slower
        objects/instances more often.  Calibrated so that the slowest of
        ~1250 workers on 1 TB is ~1.3× the median and the slowest of ~2500
        workers on 3 TB is ~4× the median (paper Figure 13).
        """
        scale_pressure = math.log10(max(data_bytes / (1 << 40), 0.1) + 1.0)  # ~TB scale
        fleet_pressure = math.log2(max(num_workers, 2)) / 11.0
        sigma = 0.05 + 0.45 * scale_pressure * fleet_pressure
        multipliers = rng.lognormal(mean=0.0, sigma=sigma, size=num_workers)
        # Normalise so the median is 1.0 (the paper reports slowdowns vs median).
        return multipliers / np.median(multipliers)

    # -- simulation -----------------------------------------------------------------

    def simulate(
        self,
        num_workers: int,
        data_bytes: float,
        dims: Optional[Sequence[int]] = None,
    ) -> ExchangeTimings:
        """Simulate a two-level exchange of ``data_bytes`` over ``num_workers``."""
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if data_bytes <= 0:
            raise ValueError("data_bytes must be positive")
        dims = list(dims) if dims is not None else grid_side(num_workers, 2)
        if len(dims) != 2 or dims[0] * dims[1] != num_workers:
            raise ValueError(f"dims {dims} do not form a two-level grid of {num_workers}")

        rng = np.random.default_rng(self.seed)
        per_worker_bytes = data_bytes / num_workers
        base_phase = per_worker_bytes / self.bandwidth

        read_input = np.full(num_workers, base_phase)
        write1 = base_phase * self._straggler_multipliers(num_workers, data_bytes, rng)
        write2 = base_phase * self._straggler_multipliers(num_workers, data_bytes, rng)
        read1 = np.full(num_workers, base_phase)
        read2 = np.full(num_workers, base_phase)

        coords = [grid_coordinates(worker, dims) for worker in range(num_workers)]

        # Round 1: groups share coordinate 1 (exchange along dimension 0).
        write1_done = read_input + write1
        group1_members: Dict[int, List[int]] = {}
        for worker, (c0, c1) in enumerate(coords):
            group1_members.setdefault(c1, []).append(worker)
        group1_ready = {
            key: max(write1_done[member] for member in members)
            for key, members in group1_members.items()
        }
        wait1 = np.empty(num_workers)
        read1_done = np.empty(num_workers)
        for worker, (c0, c1) in enumerate(coords):
            ready = group1_ready[c1]
            wait1[worker] = max(ready - write1_done[worker], REQUEST_ROUND_TRIP_SECONDS)
            read1_done[worker] = write1_done[worker] + wait1[worker] + read1[worker]

        # Round 2: groups share coordinate 0 (exchange along dimension 1).
        write2_done = read1_done + write2
        group2_members: Dict[int, List[int]] = {}
        for worker, (c0, c1) in enumerate(coords):
            group2_members.setdefault(c0, []).append(worker)
        group2_ready = {
            key: max(write2_done[member] for member in members)
            for key, members in group2_members.items()
        }
        wait2 = np.empty(num_workers)
        total = np.empty(num_workers)
        for worker, (c0, c1) in enumerate(coords):
            ready = group2_ready[c0]
            wait2[worker] = max(ready - write2_done[worker], REQUEST_ROUND_TRIP_SECONDS)
            total[worker] = write2_done[worker] + wait2[worker] + read2[worker]

        breakdown = PhaseBreakdown(
            read_input=read_input,
            round1_write=write1,
            round1_wait=wait1,
            round1_read=read1,
            round2_write=write2,
            round2_wait=wait2,
            round2_read=read2,
        )
        lower_bound = float(
            read_input.min()
            + write1.min()
            + REQUEST_ROUND_TRIP_SECONDS
            + read1.min()
            + write2.min()
            + REQUEST_ROUND_TRIP_SECONDS
            + read2.min()
        )
        return ExchangeTimings(
            num_workers=num_workers,
            data_bytes=data_bytes,
            breakdown=breakdown,
            total_seconds=float(total.max()),
            fastest_worker_seconds=float(breakdown.total_per_worker().min()),
            lower_bound_seconds=lower_bound,
        )

    def table3_running_time(self, num_workers: int, data_bytes: float) -> float:
        """End-to-end exchange time including worker start-up (Table 3 rows)."""
        from repro.driver.invocation import InvocationModel

        startup = InvocationModel(region="eu").time_to_start_all(num_workers)
        return startup + self.simulate(num_workers, data_bytes).total_seconds
