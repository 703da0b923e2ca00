"""Result tables on the wire: one typed exchange frame.

A worker's result table — a scan worker's partial aggregates or collected
rows, a final join wave's partials — travels as **one** frame of
:mod:`repro.exchange.codec`, the format of the shuffle exchange's partitions
and of the process pool's shared-memory plane: columns keep their dtypes bit
for bit, each is stored raw or in the cheapest light-weight encoding, and one
crc32 covers the frame.  The frame rides behind a result message's JSON
header or, when the message would outgrow the queue, as a raw S3 object (see
:func:`repro.driver.integrity.post_result`);
:attr:`~repro.engine.pipeline.WorkerResult.partial` holds it in every
execution mode.

The codec imports :mod:`repro.engine.table` and the engine package imports
this module, so the codec is imported where it is called.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.table import Table


def encode_table(table: Table, checksum: bool = True) -> bytes:
    """Serialise a result table into one frame.

    ``checksum`` (default on, per :class:`~repro.config.IntegrityConfig`)
    embeds the frame crc32; ``False`` writes the unchecked tag and no digest.
    """
    from repro.exchange.codec import encode_frame

    return encode_frame(table, checksum=checksum)


def decode_table(
    frame: bytes,
    copy: bool = True,
    verify: bool = True,
    key: Optional[str] = None,
) -> Table:
    """Inverse of :func:`encode_table`.

    ``copy=False`` leaves raw columns as read-only views of ``frame`` —
    enough for merge paths that only concatenate.  A checked frame is
    verified unless ``verify=False`` (the collectors verify a frame where
    they accept it, so the merge does not hash it again); a mismatch raises
    :class:`~repro.errors.IntegrityError` with ``key`` naming the origin.
    """
    from repro.exchange.codec import decode_frame

    return decode_frame(frame, copy=copy, verify=verify, key=key)
