"""The partition (de)serialisation pair.

The exchange itself — every sender writes one combined object per round,
every receiver reads its slice of each — is :func:`repro.exchange.fetch.
write_combined` on the write side and :class:`~repro.exchange.fetch.FetchPlan`
on the read side; the shuffle's waves and the paper's multi-level exchange
(:mod:`repro.exchange.multilevel`) both run on them, and note their requests
and bytes as ``("exchange", ...)`` counts (:mod:`repro.counters`).  This
module keeps the one-partition entry points of the frame codec.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.table import Table, table_num_rows
from repro.exchange.codec import decode_partition_slice, encode_partition
from repro.formats.compression import Compression


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
