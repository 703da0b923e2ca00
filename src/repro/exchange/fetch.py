"""Both halves of the exchange (paper §4.4): one combined object per sender,
one fetch plan per receiver.

**Write side.**  :func:`write_combined` PUTs all of a sender's partitions as
one object and returns its *announcement*: path, size, offset directory and
slice crcs.  The shuffle's mappers ship it in their result message; the
multi-level exchange (:mod:`repro.exchange.multilevel`) hands it to the
round's receivers directly.  :func:`sender_entries` turns the announcements
of one input side into a :class:`SenderManifest`.

**Read side.**  A receiver knows everything it is going to read before it
issues the first request: every accepted sender's announcement reached it
(in the shuffle, through the driver's wave barrier).  :meth:`FetchPlan.build`
turns the manifests of **all** input sides into the full list of ranges for
one partition without a request of its own (empty slices elided: zero
requests), and :meth:`FetchPlan.fetch` issues it as one batch, verifies and
decodes every slice, and charges the batch as a single transfer pipelined
over the scan's connection count — the same
:class:`~repro.cloud.network.BandwidthModel` the scan operator is charged by,
so S3's first-byte latency is paid once per round of connections instead of
once per slice.

A *broadcast* side (:attr:`SenderManifest.broadcast`) is read whole instead:
one GET per sender object — the same request count as reading one slice of
it — split by the offset directory into its non-empty slices, each verified
against its directory entry and decoded like any other slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.network import BandwidthModel, TransferPlan
from repro.cloud.s3 import ObjectStore
from repro.config import DEFAULT_SCAN_CHUNK_BYTES, DEFAULT_SCAN_CONNECTIONS
from repro.counters import Counts
from repro.engine.table import Table, table_num_rows
from repro.errors import CorruptFileError, ExchangeError
from repro.exchange.codec import decode_ranged_slices, encode_partition_set, slice_crcs


def write_combined(
    store: ObjectStore,
    path: str,
    reordered: Table,
    boundaries: Sequence[int],
    counts: Counts,
) -> Dict:
    """PUT every partition of a scattered table as one combined object.

    ``reordered``/``boundaries`` are :func:`~repro.exchange.partition.
    scatter_by_assignment`'s output, one partition per receiver slot; empty
    partitions occupy zero bytes, and an empty table is still one (empty)
    PUT.  Returns the announcement: ``format``, ``combined_path``,
    ``combined_size``, ``offsets`` (one per slot plus the end) and ``crcs``
    (one per slot).  The PUT and its bytes are noted into ``counts``.
    """
    payload, offsets = encode_partition_set(reordered, boundaries)
    store.put_path(path, payload)
    counts.note("exchange", "put_requests")
    counts.note("exchange", "combined_put_requests")
    counts.note("exchange", "bytes_written", len(payload))
    return {
        "format": "combined",
        "combined_path": path,
        "combined_size": len(payload),
        "offsets": offsets,
        "crcs": slice_crcs(payload, offsets),
    }


def sender_entries(announcements: Sequence[Dict]) -> List[List]:
    """What one input side's senders announced, as :attr:`SenderManifest.
    senders` reads it: ``[sender, path, size, offsets, crcs]`` per combined
    object, in sender order.

    Each announcement carries its sender as ``worker_id``.  ``"empty"``
    senders (a shuffle mapper that kept zero rows) wrote nothing and are not
    listed.
    """
    return sorted(
        [m["worker_id"], m["combined_path"], m["combined_size"], m["offsets"], m["crcs"]]
        for m in announcements
        if m.get("format") == "combined"
    )


@dataclass(frozen=True)
class SenderManifest:
    """What one input side's accepted senders announced through the barrier.

    ``senders`` lists ``(sender, path, size, offsets, crcs)`` per combined
    object: ``offsets`` holds one entry per partition plus the object's end
    (partition ``p`` is ``offsets[p]:offsets[p + 1]``), ``crcs`` one crc32
    per slice (an entry without one is corrupt, rejected when it is read,
    layer ``slice.crc``).  Only announced
    paths are ever read, so an orphan left by a mapper attempt that crashed
    after its PUT is never touched.  ``broadcast`` makes every receiver read
    the side whole — all partitions of every object — instead of its own
    partition.
    """

    senders: Sequence = ()
    broadcast: bool = False


@dataclass(frozen=True)
class SliceRange:
    """One request of a fetch plan: ``path[start:end]`` of one sender."""

    #: Index of the input side (manifest) the slice belongs to.
    side: int
    sender: int
    path: str
    start: int
    #: Exclusive end of the range.
    end: int
    #: Directory crc32 of the slice (``None`` for a whole-object range, whose
    #: ``parts`` carry one each; else only when the announcement was corrupt).
    crc: Optional[int]
    #: Size of the object the range is served from.
    object_size: int
    #: For a whole object (a broadcast side): the ``(start, end, crc)`` of
    #: each non-empty slice the response is split into.  Empty for a range
    #: that is one slice, described by the fields above.
    parts: Tuple[Tuple[int, int, Optional[int]], ...] = ()

    @property
    def length(self) -> int:
        """Bytes the request is planned to return."""
        return self.end - self.start

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
        manifests: Sequence[SenderManifest],
        partition: int,
        num_partitions: int,
        counts: Counts,
    ) -> "FetchPlan":
        """Plan the reads of ``partition`` across every input side.

        Planning reads only the announced directories.  Empty slices are
        noted into ``counts`` as ``("exchange", "empty_parts_elided")`` and
        planned as zero requests.  A broadcast side plans one whole-object range per
        non-empty sender.
        """
        ranges: List[SliceRange] = []
        for side, manifest in enumerate(manifests):
            for sender, path, size, offsets, crcs in sorted(
                manifest.senders, key=lambda entry: int(entry[0])
            ):
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
                    counts.note("exchange", "empty_parts_elided")
                    continue
                if manifest.broadcast:
                    # Empty slices occupy no bytes, so the non-empty ones tile
                    # the object: one GET of [0, size) returns them all.
                    ranges.append(SliceRange(
                        side, int(sender), path, 0, offsets[-1], None, int(size), parts
                    ))
                else:
                    (start, end, crc), = parts
                    ranges.append(SliceRange(
                        side, int(sender), path, start, end, crc, int(size)
                    ))
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
        counts: Counts,
    ) -> Tuple[List[List[Table]], float]:
        """Issue the plan; returns ``(pieces per side, modelled seconds)``.

        Pieces keep plan order with empty tables dropped, so the consumer's
        output does not depend on which of a sender's slices were empty.
        Every response is checked before its rows are used: ranged-GET length against the offset directory, each frame's
        embedded crc against the directory's, and the frame's bytes against
        that crc in one pass (:func:`~repro.exchange.codec.
        decode_ranged_slices`).  A failed check re-fetches that range alone (in-flight
        corruption is cured by a clean second read, noted as ``("integrity",
        "re_reads")`` and charged as its own one-request transfer); a second
        failure propagates with full provenance and the driver's wave retry
        re-executes the consuming attempt.  Requests and bytes are noted into
        ``counts`` under ``exchange``, mismatches and verified bytes under
        ``integrity``.
        """
        pieces: List[List[Table]] = [[] for _ in range(self.num_sides)]
        seconds = bandwidth.transfer_seconds(self.transfer_plan(memory_mib))
        for item in self.ranges:
            try:
                tables, nbytes = self._read(store, item, counts)
            except CorruptFileError as exc:
                _note_mismatch(counts, exc)
                seconds += bandwidth.transfer_seconds(
                    _transfer((item,), memory_mib, DEFAULT_SCAN_CONNECTIONS)
                )
                try:
                    tables, nbytes = self._read(store, item, counts)
                except CorruptFileError as again:
                    _note_mismatch(counts, again)
                    raise
                counts.note("integrity", "re_reads")
            counts.note("integrity", "verified_bytes", nbytes)
            pieces[item.side].extend(
                table for table in tables if table_num_rows(table)
            )
        return pieces, seconds

    def _read(
        self, store: ObjectStore, item: SliceRange, counts: Counts
    ) -> Tuple[List[Table], int]:
        """One ranged GET of ``item``, verified against its directory entries
        and decoded."""
        data = store.get_path(item.path, item.start, item.end).data
        counts.note("exchange", "get_requests")
        counts.note("exchange", "ranged_get_requests")
        counts.note("exchange", "bytes_read", len(data))
        counts.note("exchange", "bytes_touched", item.object_size)
        parts = item.parts or ((item.start, item.end, item.crc),)
        tables = decode_ranged_slices(data, item.start, parts, key=item.path)
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


def _note_mismatch(counts: Counts, exc: CorruptFileError) -> None:
    site = getattr(exc, "layer", None) or "slice.decode"
    counts.note("integrity", f"mismatch.{site}")
