"""Receiver-side fetch plan of the shuffle exchange (paper §4.4, read side).

A receiver knows everything it is going to read before it issues the first
request: the accepted senders announced their combined objects — offset
directory and slice crcs in the key — through the driver barrier, and legacy
per-receiver objects are located with one LIST per attempt prefix.
:meth:`FetchPlan.build` turns the manifests of **all** input sides into the
full list of ranges for one partition (empty slices elided: zero requests),
and :meth:`FetchPlan.fetch` issues it as one batch, verifies and decodes every
slice, and charges the batch as a single transfer pipelined over the scan's
connection count — the same :class:`~repro.cloud.network.BandwidthModel` the
scan operator is charged by, so S3's first-byte latency is paid once per round
of connections instead of once per slice.

A *broadcast* side (:attr:`SenderManifest.broadcast`) is read whole instead:
one GET per sender object — the same request count as reading one slice of
it — split by the offset directory into its non-empty slices, each verified
against its directory entry and decoded like any other slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.network import BandwidthModel, TransferPlan
from repro.cloud.s3 import ObjectMetadata, ObjectStore, parse_s3_path
from repro.config import DEFAULT_SCAN_CHUNK_BYTES, DEFAULT_SCAN_CONNECTIONS
from repro.engine.table import Table, table_num_rows
from repro.errors import CorruptFileError, ExchangeError, NoSuchBucketError
from repro.exchange.basic import ExchangeStats, deserialize_partition
from repro.exchange.codec import decode_ranged_slices
from repro.exchange.naming import MultiBucketNaming, WriteCombiningNaming


@dataclass(frozen=True)
class SenderManifest:
    """What one input side's accepted senders announced through the barrier.

    ``combined`` lists ``(sender, path, size)`` of every write-combined
    object; only announced keys are ever read, so an orphan left by a mapper
    attempt that crashed after its PUT is never touched.  ``object_senders``
    lists legacy one-object-per-receiver senders as ``(sender, attempt)``
    (a bare sender id means attempt 0); ``legacy_naming(attempt)`` names the
    prefix that attempt wrote under.  ``broadcast`` makes every receiver read
    the side whole — all partitions of every combined object — instead of its
    own partition; such a side must consist of combined objects only.
    """

    combined: Sequence = ()
    object_senders: Sequence = ()
    legacy_naming: Optional[Callable[[int], MultiBucketNaming]] = None
    broadcast: bool = False


@dataclass(frozen=True)
class SliceRange:
    """One request of a fetch plan: ``path[start:end]`` of one sender."""

    #: Index of the input side (manifest) the slice belongs to.
    side: int
    sender: int
    path: str
    start: int
    #: Exclusive end of a combined object's slice; ``None`` reads a legacy
    #: per-receiver object whole.
    end: Optional[int]
    #: Directory crc32 of the slice, when the sender published one.
    crc: Optional[int]
    #: Size of the object the range is served from.
    object_size: int
    #: For a whole combined object (a broadcast side): the ``(start, end,
    #: crc)`` of each non-empty slice the response is split into.  Empty for a
    #: range that is one slice, described by the fields above.
    parts: Tuple[Tuple[int, int, Optional[int]], ...] = ()

    @property
    def length(self) -> int:
        """Bytes the request is planned to return."""
        return self.object_size if self.end is None else self.end - self.start

    @property
    def slices(self) -> int:
        """Slices the response decodes into."""
        return len(self.parts) or 1


class FetchPlan:
    """Every range one receiver reads, in global sender order per side."""

    def __init__(self, partition: int, num_sides: int, ranges: Sequence[SliceRange]):
        self.partition = partition
        self.num_sides = num_sides
        self.ranges: Tuple[SliceRange, ...] = tuple(ranges)

    @property
    def slices(self) -> int:
        """Slices the plan decodes (a whole-object range holds several)."""
        return sum(item.slices for item in self.ranges)

    @classmethod
    def build(
        cls,
        store: ObjectStore,
        manifests: Sequence[SenderManifest],
        partition: int,
        num_partitions: int,
        stats: ExchangeStats,
    ) -> "FetchPlan":
        """Plan the reads of ``partition`` across every input side.

        Combined objects cost no discovery at all (the offsets ride in the
        announced keys); legacy senders cost one LIST per attempt prefix.
        Empty slices and elided legacy objects are counted into
        ``stats.empty_parts_elided`` and planned as zero requests.  A
        broadcast side plans one whole-object range per non-empty sender.
        """
        ranges: List[SliceRange] = []
        for side, manifest in enumerate(manifests):
            if manifest.broadcast and manifest.object_senders:
                raise ExchangeError(
                    "a broadcast side must consist of combined objects only"
                )
            by_sender: Dict[int, SliceRange] = {}
            for sender, path, size in manifest.combined:
                _, offsets, crcs = WriteCombiningNaming.parse_directory(
                    parse_s3_path(path)[1]
                )
                if len(offsets) != num_partitions + 1:
                    raise ExchangeError(
                        f"combined object {path!r} has {len(offsets) - 1} "
                        f"parts, expected {num_partitions}"
                    )
                parts = tuple(
                    (offsets[p], offsets[p + 1], crcs[p] if crcs is not None else None)
                    for p in (range(num_partitions) if manifest.broadcast else (partition,))
                    if offsets[p + 1] > offsets[p]
                )
                if not parts:
                    stats.empty_parts_elided += 1
                    continue
                if manifest.broadcast:
                    # Empty slices occupy no bytes, so the non-empty ones tile
                    # the object: one GET of [0, size) returns them all.
                    by_sender[int(sender)] = SliceRange(
                        side, int(sender), path, 0, offsets[-1], None, int(size), parts
                    )
                else:
                    (start, end, crc), = parts
                    by_sender[int(sender)] = SliceRange(
                        side, int(sender), path, start, end, crc, int(size)
                    )
            for sender, meta in _discover_legacy(store, manifest, partition, stats).items():
                by_sender[sender] = SliceRange(
                    side, sender, meta.path, 0, None, None, meta.size
                )
            ranges.extend(by_sender[sender] for sender in sorted(by_sender))
        return cls(partition, len(manifests), ranges)

    def transfer_plan(
        self, memory_mib: int, connections: int = DEFAULT_SCAN_CONNECTIONS
    ) -> TransferPlan:
        """The whole plan as one transfer of ``len(ranges)`` requests."""
        return _transfer(self.ranges, memory_mib, connections)

    def fetch(
        self,
        store: ObjectStore,
        bandwidth: BandwidthModel,
        memory_mib: int,
        stats: ExchangeStats,
        verify: bool = True,
        integrity=None,
    ) -> Tuple[List[List[Table]], float]:
        """Issue the plan; returns ``(pieces per side, modelled seconds)``.

        Pieces keep plan order with empty tables dropped, so the consumer's
        output is bit-identical however each sender shipped its partitions.
        With ``verify`` on, every response is checked before its rows are
        used: ranged-GET length against the offset directory, each frame's
        embedded crc against the directory's, and the frame's bytes against
        that crc in one pass (:func:`~repro.exchange.codec.
        decode_ranged_slices`).  A failed check re-fetches that range alone (in-flight
        corruption is cured by a clean second read, counted into
        ``integrity.re_reads`` and charged as its own one-request transfer);
        a second failure propagates with full provenance and the driver's
        wave retry re-executes the consuming attempt.
        """
        pieces: List[List[Table]] = [[] for _ in range(self.num_sides)]
        seconds = bandwidth.transfer_seconds(self.transfer_plan(memory_mib))
        for item in self.ranges:
            try:
                tables, nbytes = self._read(store, item, stats, verify)
            except CorruptFileError as exc:
                _note_mismatch(integrity, exc)
                seconds += bandwidth.transfer_seconds(
                    _transfer((item,), memory_mib, DEFAULT_SCAN_CONNECTIONS)
                )
                try:
                    tables, nbytes = self._read(store, item, stats, verify)
                except CorruptFileError as again:
                    _note_mismatch(integrity, again)
                    raise
                if integrity is not None:
                    integrity.re_reads += 1
            if integrity is not None and verify:
                integrity.verified_bytes += nbytes
            pieces[item.side].extend(
                table for table in tables if table_num_rows(table)
            )
        return pieces, seconds

    def _read(
        self, store: ObjectStore, item: SliceRange, stats: ExchangeStats, verify: bool
    ) -> Tuple[List[Table], int]:
        """One GET of ``item``, verified against its directory entries and decoded."""
        data = store.get_path(item.path, item.start, item.end).data
        stats.get_requests += 1
        stats.bytes_read += len(data)
        stats.bytes_touched += item.object_size
        if item.end is None:
            return [deserialize_partition(data, verify=verify, key=item.path)], len(data)
        stats.ranged_get_requests += 1
        parts = item.parts or ((item.start, item.end, item.crc),)
        tables = decode_ranged_slices(data, item.start, parts, verify=verify, key=item.path)
        return tables, len(data)


def _transfer(
    ranges: Sequence[SliceRange], memory_mib: int, connections: int
) -> TransferPlan:
    return TransferPlan(
        total_bytes=sum(item.length for item in ranges),
        chunk_bytes=DEFAULT_SCAN_CHUNK_BYTES,
        connections=connections,
        memory_mib=memory_mib,
        requests=len(ranges),
    )


def _note_mismatch(integrity, exc: CorruptFileError) -> None:
    if integrity is not None:
        integrity.note_mismatch(getattr(exc, "layer", None) or "slice.decode")


def _discover_legacy(
    store: ObjectStore, manifest: SenderManifest, partition: int, stats: ExchangeStats
) -> Dict[int, ObjectMetadata]:
    """Find the legacy per-receiver objects addressed to ``partition``.

    One LIST per attempt prefix covers the receiver's bucket.  The wave
    barrier (the driver collects every sender's result before invoking the
    receivers) guarantees all objects are already visible, so a key absent
    from the LIST is definitively an empty partition the sender elided — no
    HEAD probe is spent confirming it.  (The barrier-free generic exchange
    keeps its HEAD-for-stragglers path in ``BasicGroupExchange``.)
    """
    by_attempt: Dict[int, List[int]] = {}
    for entry in manifest.object_senders:
        sender, attempt = entry if isinstance(entry, (list, tuple)) else (entry, 0)
        by_attempt.setdefault(int(attempt), []).append(int(sender))
    found: Dict[int, ObjectMetadata] = {}
    for attempt in sorted(by_attempt):
        naming = manifest.legacy_naming(attempt)
        stats.list_requests += 1
        try:
            listed = {
                meta.key: meta
                for meta in store.list_objects(naming.bucket_for(partition), naming.prefix)
            }
        except NoSuchBucketError:
            listed = {}
        for sender in by_attempt[attempt]:
            meta = listed.get(parse_s3_path(naming.path(sender, partition))[1])
            if meta is None:
                stats.empty_parts_elided += 1
            else:
                found[sender] = meta
    return found
