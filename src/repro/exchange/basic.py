"""Exchange request counters and the partition (de)serialisation pair.

The exchange itself — every sender writes one combined object per round,
every receiver reads its slice of each — is :func:`repro.exchange.fetch.
write_combined` on the write side and :class:`~repro.exchange.fetch.FetchPlan`
on the read side; the shuffle's waves and the paper's multi-level exchange
(:mod:`repro.exchange.multilevel`) both run on them.  This module keeps what
both count their requests in (:class:`ExchangeStats`) and the one-partition
entry points of the frame codec.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, Optional

from repro.engine.table import Table, table_num_rows
from repro.exchange.codec import decode_partition_slice, encode_partition
from repro.formats.compression import Compression


@dataclass
class ExchangeStats:
    """Request and byte counters accumulated by an exchange.

    ``combined_put_requests`` and ``ranged_get_requests`` are the subsets
    of ``put_requests`` / ``get_requests`` that wrote a combined object or
    read a range of one.  ``empty_parts_elided`` counts the GETs *avoided*
    because a (sender, receiver) slice was empty.  ``list_requests`` and
    ``head_requests`` count discovery requests; offset directories travel in
    the senders' announcements, so no exchange issues one and both stay 0
    (kept so reports can show it).  ``bytes_touched`` is the total size of the
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


def serialize_partition(
    table: Table,
    compression: Compression = Compression.NONE,
    checksum: bool = True,
) -> bytes:
    """Serialise a partition table into one typed frame of
    :mod:`repro.exchange.codec` (empty table -> empty bytes).

    ``checksum=False`` writes no embedded crc.
    """
    if table_num_rows(table) == 0:
        return b""
    return encode_partition(table, compression, checksum=checksum)


def deserialize_partition(
    data: bytes, verify: bool = True, key: Optional[str] = None
) -> Table:
    """Inverse of :func:`serialize_partition` (empty bytes -> empty table).

    The embedded checksum of a checked frame is verified unless
    ``verify=False``; ``key`` names the object in corruption reports.
    """
    return decode_partition_slice(data, copy=True, verify=verify, key=key)
