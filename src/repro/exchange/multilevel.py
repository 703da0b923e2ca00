"""Multi-level (two- and k-level) serverless exchange.

The paper's key optimisation (§4.4.2): instead of every worker exchanging
with every other worker (O(P²) requests), workers are arranged on a grid and
exchange once per grid dimension, only with the workers that share all other
coordinates.  For a k-dimensional grid with side length P^(1/k) this brings
the request count down to k·P·P^(1/k) at the cost of reading and writing the
data k times.

Every round runs on the shuffle's own exchange halves
(:mod:`repro.exchange.fetch`): per group, each sender writes **one** combined
object for all group members (:func:`~repro.exchange.fetch.write_combined`,
k·P PUTs in all) and announces its offset directory; each receiver reads its
slice of every member's object with one :class:`~repro.exchange.fetch.
FetchPlan` — k·P·P^(1/k) slices, the empty ones elided, and no LIST or HEAD.
``levels=1`` is the one-level exchange (Table 2's write-combined ``1l`` row).

The functional implementation requires the worker count to factor exactly
into the grid dimensions (the analytic cost models in
:mod:`repro.exchange.cost_model` handle arbitrary P).  The default
factorisation picks divisors as close to P^(1/k) as possible.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.network import BandwidthModel
from repro.cloud.s3 import ObjectStore
from repro.config import LAMBDA_MAX_MEMORY_MIB
from repro.counters import Counts, LayerView
from repro.engine.table import Table, concat_tables
from repro.errors import ExchangeError
from repro.exchange.fetch import FetchPlan, SenderManifest, sender_entries, write_combined
from repro.exchange.naming import WriteCombiningNaming
from repro.exchange.partition import partition_assignments, scatter_by_assignment

#: Buckets a round's combined objects are spread over, by sender (§4.4.1).
NUM_BUCKETS = 10


def grid_side(num_workers: int, levels: int) -> List[int]:
    """Factor ``num_workers`` into ``levels`` dimensions as evenly as possible.

    Returns a list of ``levels`` factors whose product is ``num_workers``.
    Raises :class:`~repro.errors.ExchangeError` if no such factorisation
    exists with every factor > 1, except that trailing factors of 1 are
    allowed when the worker count is too small (e.g. 2 workers on 2 levels).
    """
    if num_workers <= 0:
        raise ExchangeError("num_workers must be positive")
    if levels <= 0:
        raise ExchangeError("levels must be positive")
    if levels == 1:
        return [num_workers]

    dims: List[int] = []
    remaining = num_workers
    for level in range(levels, 1, -1):
        ideal = remaining ** (1.0 / level)
        # Find the divisor of ``remaining`` closest to the ideal side length.
        # Divisors come in pairs (d, remaining // d) with one member at or
        # below sqrt(remaining), so scanning to the square root covers all of
        # them in O(sqrt(P)) instead of the former O(P) full scan.  Ties break
        # toward the smaller divisor, matching the old ascending scan.
        best: Optional[int] = None
        candidate = 1
        while candidate * candidate <= remaining:
            if remaining % candidate == 0:
                for divisor in (candidate, remaining // candidate):
                    if (
                        best is None
                        or abs(divisor - ideal) < abs(best - ideal)
                        or (abs(divisor - ideal) == abs(best - ideal) and divisor < best)
                    ):
                        best = divisor
            candidate += 1
        assert best is not None
        dims.append(best)
        remaining //= best
    dims.append(remaining)
    if math.prod(dims) != num_workers:
        raise ExchangeError(
            f"internal error factorising {num_workers} into {levels} dimensions"
        )
    return dims


def grid_coordinates(worker: int, dims: Sequence[int]) -> Tuple[int, ...]:
    """Mixed-radix coordinates of ``worker`` on a grid with side lengths ``dims``."""
    coords = []
    remainder = worker
    for dim in dims:
        coords.append(remainder % dim)
        remainder //= dim
    return tuple(coords)


class MultiLevelExchange:
    """k-level exchange over a grid of workers."""

    def __init__(
        self,
        store: ObjectStore,
        num_workers: int,
        keys: Sequence[str],
        levels: int = 2,
        dims: Optional[Sequence[int]] = None,
        tag: str = "mlx",
    ):
        if num_workers <= 0:
            raise ExchangeError("num_workers must be positive")
        self.store = store
        self.num_workers = num_workers
        self.keys = list(keys)
        self.levels = levels
        self.dims = list(dims) if dims is not None else grid_side(num_workers, levels)
        if math.prod(self.dims) != num_workers:
            raise ExchangeError(
                f"grid dimensions {self.dims} do not multiply to {num_workers} workers"
            )
        if len(self.dims) != levels:
            raise ExchangeError(f"expected {levels} dimensions, got {self.dims}")
        self.tag = tag
        #: Every round's counts, summed.
        self.counts = Counts()
        #: Per-round, per-worker counts (Table 2 per round).
        self.round_stats: List[Dict[int, Counts]] = []
        #: Mixed-radix stride of each dimension (coordinate d of worker w is
        #: ``(w // stride[d]) % dims[d]``).
        self._strides: List[int] = [
            math.prod(self.dims[:dimension]) for dimension in range(self.levels)
        ]
        # The group structure of every round depends only on the grid, so it
        # is computed once here instead of being rebuilt from
        # ``grid_coordinates`` on every round.
        self._groups_by_round: List[List[List[int]]] = [
            self._build_groups(dimension) for dimension in range(self.levels)
        ]

    @property
    def stats(self) -> LayerView:
        """The exchange's requests and bytes, every round summed."""
        return LayerView(self.counts, "exchange")

    # -- group construction ------------------------------------------------------

    def _build_groups(self, dimension: int) -> List[List[int]]:
        """Compute the worker groups along ``dimension`` (vectorized).

        A group's members differ only in their coordinate along the round's
        dimension, i.e. they are ``representative + coord * stride`` for
        ``coord`` in ``0..dims[dimension]``; enumerating representatives and
        strides avoids the per-worker ``grid_coordinates`` loop.
        """
        stride = self._strides[dimension]
        side = self.dims[dimension]
        workers = np.arange(self.num_workers, dtype=np.int64)
        coord = (workers // stride) % side
        representatives = np.unique(workers - coord * stride)
        members = representatives[:, None] + stride * np.arange(side, dtype=np.int64)
        return [row.tolist() for row in members]

    def _groups_for_round(self, dimension: int) -> List[List[int]]:
        """Worker groups for the exchange along ``dimension`` (cached).

        Each group contains the workers that share all coordinates except the
        round's dimension; its size is ``dims[dimension]``, and members are
        listed in ascending coordinate (= ascending worker id) order.
        """
        return self._groups_by_round[dimension]

    def _route_for_round(self, dimension: int, group: Sequence[int]) -> Callable:
        """Routing function of one group in one round.

        A row with global target partition ``t`` goes to the group member
        whose coordinate along the round's dimension equals ``t``'s
        coordinate along that dimension.  The coordinate -> worker map is a
        precomputed int64 lookup table, so routing a batch of targets is one
        divmod plus one fancy-index — no per-row Python.
        """
        stride = self._strides[dimension]
        side = self.dims[dimension]
        group_array = np.asarray(group, dtype=np.int64)
        lookup = np.empty(side, dtype=np.int64)
        lookup[(group_array // stride) % side] = group_array

        def route(targets: np.ndarray) -> np.ndarray:
            targets = np.asarray(targets, dtype=np.int64)
            return lookup[(targets // stride) % side]

        return route

    # -- execution ------------------------------------------------------------------

    def run(self, tables: Sequence[Table]) -> List[Table]:
        """Run all exchange rounds, returning the final per-worker tables.

        ``tables[p]`` is worker ``p``'s share of the input; the result's entry
        ``p`` contains exactly the rows whose key hashes to partition ``p``.
        """
        if len(tables) != self.num_workers:
            raise ExchangeError(
                f"expected {self.num_workers} input tables, got {len(tables)}"
            )
        current: List[Table] = list(tables)
        for dimension in range(self.levels):
            current = self._run_round(dimension, current)
        return current

    def _run_round(self, dimension: int, tables: List[Table]) -> List[Table]:
        """One round: per group, every member writes one combined object for
        the group (empty or not), then every member fetches its slots."""
        next_tables: List[Table] = [{} for _ in range(self.num_workers)]
        round_stats = {worker: Counts() for worker in range(self.num_workers)}
        for group_id, group in enumerate(self._groups_for_round(dimension)):
            naming = WriteCombiningNaming(
                f"{self.tag}-wc", f"r{dimension}/g{group_id}/", NUM_BUCKETS
            )
            route = self._route_for_round(dimension, group)
            members = np.asarray(group, dtype=np.int64)
            announcements = []
            for worker in group:
                table = tables[worker]
                targets = partition_assignments(table, self.keys, self.num_workers)
                # Members are listed in ascending order, so a receiver's slot
                # in the combined object is its position in the group.
                slots = np.searchsorted(members, route(targets))
                reordered, boundaries = scatter_by_assignment(table, slots, len(group))
                announcements.append({"worker_id": worker, **write_combined(
                    self.store, naming.path(worker, 0), reordered, boundaries,
                    round_stats[worker],
                )})
            manifest = SenderManifest(sender_entries(announcements))
            for slot, worker in enumerate(group):
                counts = round_stats[worker]
                plan = FetchPlan.build([manifest], slot, len(group), counts)
                # The modelled fetch seconds are the shuffle's concern; a
                # round here only counts requests and bytes.
                (pieces,), _ = plan.fetch(
                    self.store, BandwidthModel(), LAMBDA_MAX_MEMORY_MIB, counts
                )
                next_tables[worker] = concat_tables(pieces)
        for counts in round_stats.values():
            self.counts.update(counts)
        self.round_stats.append(round_stats)
        return next_tables
