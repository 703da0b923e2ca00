"""Basic (one-level) S3 exchange and the group-exchange building block.

``BasicGroupExchange`` implements the paper's Algorithm 1 generalised with a
routing function (Algorithm 2's ``BasicGroupExchange``): every sender
partitions its rows by the hash of the key columns, maps each row's *target
partition* to a receiver inside the group, writes one object per receiver
(or, with write combining, a single combined object), and every receiver
polls for and reads the objects addressed to it.

``BasicExchange`` is the one-level special case where the group is the whole
worker set and the routing is the identity, i.e. the O(P²)-request baseline
of the paper's cost analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.s3 import ObjectMetadata, ObjectStore, parse_s3_path
from repro.config import IntegrityConfig
from repro.engine.table import Table, concat_tables, table_num_rows
from repro.errors import ExchangeError, NoSuchBucketError, NoSuchKeyError
from repro.exchange.codec import (
    decode_partition_slice,
    decode_ranged_slices,
    encode_partition,
    encode_partition_set,
    slice_crcs,
)
from repro.exchange.naming import FileNaming, MultiBucketNaming, WriteCombiningNaming
from repro.exchange.partition import (
    partition_assignments,
    scatter_by_assignment,
    slice_partition,
)
from repro.formats.compression import Compression
from repro.formats.parquet import write_table


@dataclass
class ExchangeConfig:
    """Configuration of an exchange operation."""

    #: Key columns whose hash determines the target partition.
    keys: List[str] = field(default_factory=list)
    #: Combine all partitions of one sender into a single object.
    write_combining: bool = False
    #: Number of buckets to spread files over (rate-limit bypass, §4.4.1).
    num_buckets: int = 10
    #: Optional block-compression stage over the encoded partition frames.
    #: Off by default: the typed column encodings of
    #: :mod:`repro.exchange.codec` already ship fewer bytes than zlib did on
    #: keys, dates and decimals, and the exchange is request-bound (§4.4).
    compression: Compression = Compression.NONE
    #: Serialise partitions as typed frames (:mod:`repro.exchange.codec`)
    #: instead of with the full LPQ file writer.
    #: Readers accept both formats regardless of this flag.
    fast_codec: bool = True
    #: How often a receiver re-checks for a missing sender file before failing.
    max_poll_attempts: int = 100
    #: Content-checksum generation/verification knobs (both default on).
    integrity: IntegrityConfig = field(default_factory=IntegrityConfig)


@dataclass
class ExchangeStats:
    """Request and byte counters accumulated by an exchange.

    ``combined_put_requests`` and ``ranged_get_requests`` are subsets of
    ``put_requests`` / ``get_requests`` that went through the write-combined
    I/O plane (one combined object per sender, one ranged GET per non-empty
    slice).  ``empty_parts_elided`` counts the requests *avoided* because a
    (sender, receiver) part was empty — a PUT skipped on the write side or a
    GET skipped on the read side.  ``bytes_touched`` is the total size of the
    objects that slice reads were served from; comparing it with
    ``bytes_read`` (the bytes actually shipped) shows how much transfer the
    ranged reads avoided.
    """

    put_requests: int = 0
    get_requests: int = 0
    list_requests: int = 0
    head_requests: int = 0
    combined_put_requests: int = 0
    ranged_get_requests: int = 0
    empty_parts_elided: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    bytes_touched: int = 0

    def merge(self, other: "ExchangeStats") -> None:
        """Fold another counter set into this one."""
        self.put_requests += other.put_requests
        self.get_requests += other.get_requests
        self.list_requests += other.list_requests
        self.head_requests += other.head_requests
        self.combined_put_requests += other.combined_put_requests
        self.ranged_get_requests += other.ranged_get_requests
        self.empty_parts_elided += other.empty_parts_elided
        self.bytes_written += other.bytes_written
        self.bytes_read += other.bytes_read
        self.bytes_touched += other.bytes_touched

    @property
    def total_requests(self) -> int:
        """All requests issued by the exchange."""
        return (
            self.put_requests
            + self.get_requests
            + self.list_requests
            + self.head_requests
        )

    def to_dict(self) -> Dict[str, int]:
        """JSON-compatible form for worker result payloads."""
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    @classmethod
    def from_dict(cls, payload: Optional[Dict[str, int]]) -> "ExchangeStats":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        if not payload:
            return cls()
        known = {f.name for f in dataclass_fields(cls)}
        return cls(**{key: int(value) for key, value in payload.items() if key in known})


def discover_combined_objects(
    store: ObjectStore,
    naming: WriteCombiningNaming,
    senders: Sequence[int],
    max_poll_attempts: int,
    stats: ExchangeStats,
) -> Dict[int, Tuple[ObjectMetadata, List[int]]]:
    """Find every sender's combined object — and its offsets — with LISTs.

    One poll round LISTs each bucket of the naming scheme once; the offset
    directories ride in the object keys, so discovery needs no GET/HEAD at
    all and each sender's offsets are parsed exactly once.  Shared by the
    exchange read phase and the shuffle reduce wave.
    """
    found: Dict[int, Tuple[ObjectMetadata, List[int]]] = {}
    pending = set(senders)
    attempts = 0
    while pending:
        attempts += 1
        if attempts > max_poll_attempts:
            raise ExchangeError(
                f"missing combined objects from senders {sorted(pending)}"
            )
        # Only the buckets that still owe a pending sender are listed (LISTs
        # are billed and rate-limited like writes); satisfied buckets are not
        # re-listed on retry rounds.
        for bucket in sorted({naming.bucket_for(sender) for sender in pending}):
            stats.list_requests += 1
            try:
                listing = store.list_objects(bucket, naming.prefix)
            except NoSuchBucketError:
                continue
            for meta in listing:
                try:
                    sender, offsets = WriteCombiningNaming.parse_offsets(meta.key)
                except ExchangeError:
                    continue
                if sender in pending:
                    found[sender] = (meta, offsets)
        pending -= set(found)
    return found


def serialize_partition(
    table: Table,
    compression: Compression = Compression.NONE,
    fast: bool = True,
    checksum: bool = True,
) -> bytes:
    """Serialise a partition table into bytes (empty table -> empty bytes).

    By default one typed frame of :mod:`repro.exchange.codec` is written;
    ``fast=False`` writes a full LPQ columnar file instead (the seed
    behaviour, kept for durable outputs and legacy-format tests).
    ``checksum=False`` writes no embedded crc.
    """
    if table_num_rows(table) == 0:
        return b""
    if fast:
        return encode_partition(table, compression, checksum=checksum)
    return write_table(table, compression=compression, checksum=checksum)


def deserialize_partition(
    data: bytes, verify: bool = True, key: Optional[str] = None
) -> Table:
    """Inverse of :func:`serialize_partition` (empty bytes -> empty table).

    Sniffs the leading format byte, so typed frames and legacy LPQ objects
    both decode.
    Embedded checksums (when present) are verified unless ``verify=False``;
    ``key`` names the object in corruption reports.
    """
    return decode_partition_slice(data, copy=True, verify=verify, key=key)


class BasicGroupExchange:
    """One exchange round among a group of workers.

    Parameters
    ----------
    store:
        The shared object store.
    group:
        Global worker ids participating in this round, in a fixed order that
        all participants agree on (receiver slots in combined objects follow
        this order).
    total_partitions:
        Number of global partitions ``P`` (the total worker count).
    route:
        Maps an array of global target-partition ids to an array of global
        worker ids *within the group* that should receive those rows in this
        round.
    naming:
        File naming scheme.
    config:
        Exchange configuration.
    """

    def __init__(
        self,
        store: ObjectStore,
        group: Sequence[int],
        total_partitions: int,
        route: Callable[[np.ndarray], np.ndarray],
        naming: FileNaming,
        config: ExchangeConfig,
    ):
        if not group:
            raise ExchangeError("exchange group cannot be empty")
        self.store = store
        self.group = list(group)
        self.group_index = {worker: position for position, worker in enumerate(self.group)}
        self.total_partitions = total_partitions
        self.route = route
        self.naming = naming
        self.config = config
        self.stats_per_worker: Dict[int, ExchangeStats] = {}
        for bucket in naming.buckets():
            store.ensure_bucket(bucket)

    def _stats(self, worker: int) -> ExchangeStats:
        return self.stats_per_worker.setdefault(worker, ExchangeStats())

    # -- write phase -----------------------------------------------------------

    def write(self, worker: int, table: Table) -> None:
        """Partition ``table`` and write this sender's exchange objects."""
        if worker not in self.group_index:
            raise ExchangeError(f"worker {worker} is not part of this exchange group")
        stats = self._stats(worker)
        targets = partition_assignments(table, self.config.keys, self.total_partitions)
        receivers = np.asarray(self.route(targets)) if len(targets) else targets
        # Map receiver worker ids to group slots in one vectorized lookup, then
        # scatter the rows once so each receiver's part is a contiguous slice
        # (rows routed outside the group land in an overflow slot and are
        # dropped, as the per-receiver mask loop did implicitly).
        num_slots = len(self.group)
        group_array = np.asarray(self.group, dtype=np.int64)
        group_order = np.argsort(group_array, kind="stable")
        sorted_group = group_array[group_order]
        slots = np.full(len(receivers), num_slots, dtype=np.int64)
        if len(receivers):
            positions = np.minimum(
                np.searchsorted(sorted_group, receivers), num_slots - 1
            )
            in_group = sorted_group[positions] == receivers
            slots[in_group] = group_order[positions[in_group]]
        reordered, boundaries = scatter_by_assignment(table, slots, num_slots + 1)

        if self.config.write_combining:
            self._write_combined(worker, reordered, boundaries, stats)
        else:
            for slot, receiver in enumerate(self.group):
                data = serialize_partition(
                    slice_partition(reordered, boundaries, slot),
                    self.config.compression,
                    fast=self.config.fast_codec,
                    checksum=self.config.integrity.generate,
                )
                path = self.naming.path(worker, receiver)
                self.store.put_path(path, data)
                stats.put_requests += 1
                stats.bytes_written += len(data)

    def _write_combined(
        self,
        worker: int,
        reordered: Table,
        boundaries: np.ndarray,
        stats: ExchangeStats,
    ) -> None:
        if not isinstance(self.naming, WriteCombiningNaming):
            raise ExchangeError("write combining requires WriteCombiningNaming")
        num_slots = len(self.group)
        generate = self.config.integrity.generate
        if self.config.fast_codec:
            payload, offsets = encode_partition_set(
                reordered,
                boundaries[: num_slots + 1],
                self.config.compression,
                checksum=generate,
            )
        else:
            # Legacy LPQ parts: frame each non-empty slot with the full
            # columnar-file writer (old combined objects looked like this).
            blobs = [
                serialize_partition(
                    slice_partition(reordered, boundaries, slot),
                    self.config.compression,
                    fast=False,
                    checksum=generate,
                )
                for slot in range(num_slots)
            ]
            offsets = [0]
            for blob in blobs:
                offsets.append(offsets[-1] + len(blob))
            payload = b"".join(blobs)
        # The crc each frame already carries rides in the key next to the
        # offsets: receivers check their ranged GET against the directory they
        # already hold.  LPQ parts embed their own checksums instead.
        crcs = slice_crcs(payload, offsets) if generate and self.config.fast_codec else None
        path = self.naming.combined_path(worker, offsets, crcs)
        self.store.put_path(path, payload)
        stats.put_requests += 1
        stats.combined_put_requests += 1
        stats.bytes_written += len(payload)

    # -- read phase -------------------------------------------------------------

    def read(self, worker: int) -> Table:
        """Read and concatenate all parts addressed to ``worker``."""
        if worker not in self.group_index:
            raise ExchangeError(f"worker {worker} is not part of this exchange group")
        stats = self._stats(worker)
        if self.config.write_combining:
            return self._read_combined(worker, stats)

        self._discover_objects(worker, stats)
        pieces: List[Table] = []
        for sender in self.group:
            path = self.naming.path(sender, worker)
            result = self.store.get_path(path)
            stats.get_requests += 1
            stats.bytes_read += len(result.data)
            stats.bytes_touched += result.metadata.size
            piece = deserialize_partition(
                result.data, verify=self.config.integrity.verify, key=path
            )
            if table_num_rows(piece):
                pieces.append(piece)
        return concat_tables(pieces)

    def _discover_objects(self, worker: int, stats: ExchangeStats) -> None:
        """Metadata-based discovery of this receiver's per-sender objects.

        Instead of the seed's exception-driven GET polling (issue the GET,
        catch ``NoSuchKey``, retry — every miss billed as a failed request),
        each poll round issues one LIST per bucket that still owes us objects
        and then point-checks the stragglers with HEAD; data is only ever
        fetched with a GET once the object is known to exist.
        """
        expected: Dict[int, Tuple[str, str]] = {
            sender: parse_s3_path(self.naming.path(sender, worker))
            for sender in self.group
        }
        prefix = getattr(self.naming, "prefix", "")
        missing = set(self.group)
        attempts = 0
        while missing:
            attempts += 1
            if attempts > self.config.max_poll_attempts:
                raise ExchangeError(
                    f"missing exchange objects from senders {sorted(missing)}"
                )
            listed: set = set()
            for bucket in sorted({expected[sender][0] for sender in missing}):
                stats.list_requests += 1
                for meta in self.store.list_objects(bucket, prefix):
                    listed.add((meta.bucket, meta.key))
            missing = {
                sender for sender in missing if expected[sender] not in listed
            }
            # Stragglers may have landed between the LIST and now: point-check
            # their exact keys before the next (rate-limited) LIST round.
            still_missing = set()
            for sender in sorted(missing):
                stats.head_requests += 1
                try:
                    self.store.head_object(*expected[sender])
                except NoSuchKeyError:
                    still_missing.add(sender)
            missing = still_missing

    def _read_combined(self, worker: int, stats: ExchangeStats) -> Table:
        naming = self.naming
        assert isinstance(naming, WriteCombiningNaming)
        my_slot = self.group_index[worker]
        found = discover_combined_objects(
            self.store, naming, self.group, self.config.max_poll_attempts, stats
        )

        verify = self.config.integrity.verify
        pieces: List[Table] = []
        for sender in self.group:
            meta, offsets = found[sender]
            if len(offsets) != len(self.group) + 1:
                raise ExchangeError(
                    f"combined object {meta.path!r} has {len(offsets) - 1} parts, "
                    f"expected {len(self.group)}"
                )
            try:
                _, _, crcs = WriteCombiningNaming.parse_directory(meta.key)
            except ExchangeError:
                crcs = None
            start, end = offsets[my_slot], offsets[my_slot + 1]
            if end > start:
                result = self.store.get_path(meta.path, start, end)
                stats.get_requests += 1
                stats.ranged_get_requests += 1
                stats.bytes_read += len(result.data)
                stats.bytes_touched += meta.size
                crc = crcs[my_slot] if crcs is not None else None
                piece, = decode_ranged_slices(
                    result.data, start, ((start, end, crc),), verify=verify, key=meta.path
                )
                if table_num_rows(piece):
                    pieces.append(piece)
            else:
                # Zero-length part: the empty partition costs no request.
                stats.empty_parts_elided += 1
        return concat_tables(pieces)

    # -- aggregate statistics -----------------------------------------------------

    def total_stats(self) -> ExchangeStats:
        """Sum of the per-worker request counters."""
        total = ExchangeStats()
        for stats in self.stats_per_worker.values():
            total.merge(stats)
        return total


class BasicExchange:
    """The one-level exchange: every worker exchanges with every other worker."""

    def __init__(
        self,
        store: ObjectStore,
        num_workers: int,
        config: Optional[ExchangeConfig] = None,
        naming: Optional[FileNaming] = None,
        tag: str = "exchange",
    ):
        if num_workers <= 0:
            raise ExchangeError("num_workers must be positive")
        self.num_workers = num_workers
        self.config = config or ExchangeConfig()
        if naming is None:
            if self.config.write_combining:
                naming = WriteCombiningNaming(bucket=tag, prefix="r0/")
            else:
                naming = MultiBucketNaming(
                    num_buckets=self.config.num_buckets, bucket_prefix=f"{tag}-b", prefix="r0/"
                )
        self._round = BasicGroupExchange(
            store=store,
            group=list(range(num_workers)),
            total_partitions=num_workers,
            route=lambda targets: targets,
            naming=naming,
            config=self.config,
        )

    def write(self, worker: int, table: Table) -> None:
        """Write phase for one worker."""
        self._round.write(worker, table)

    def read(self, worker: int) -> Table:
        """Read phase for one worker."""
        return self._round.read(worker)

    def run(self, tables: Sequence[Table]) -> List[Table]:
        """Run the full exchange for all workers (write all, then read all)."""
        if len(tables) != self.num_workers:
            raise ExchangeError(
                f"expected {self.num_workers} input tables, got {len(tables)}"
            )
        for worker, table in enumerate(tables):
            self.write(worker, table)
        return [self.read(worker) for worker in range(self.num_workers)]

    def total_stats(self) -> ExchangeStats:
        """Request counters summed over all workers."""
        return self._round.total_stats()

    def stats_per_worker(self) -> Dict[int, ExchangeStats]:
        """Per-worker request counters."""
        return dict(self._round.stats_per_worker)
