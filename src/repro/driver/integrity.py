"""The result plane and the driver-side data-integrity primitives.

Everything the verify-and-recover read path shares lives here:

* :func:`post_result` / :func:`open_message` — the one sender and the one
  opener of result messages.  A message is text::

      [digest] header [LF base64(frame)]

  ``header`` is one JSON object (ids, status, counters, announcements).
  ``digest`` is the crc32 of the header text *as it travels*, eight hex
  digits, computed once by the sender and checked by the receiver before it
  parses anything; an unsigned message (``integrity.generate=False``) starts
  with the header's ``{``.  A message that reports a result table describes
  its frame (:mod:`repro.engine.payload`) in the header: ``"frame": [length,
  crc32]``, and ``"result_s3"``, where the frame is when it is not in the
  message.  The frame rides behind the header while the whole message fits
  :data:`RESULT_SPILL_BYTES`; otherwise its raw bytes are PUT at
  ``result_s3`` — no JSON, no base64 — and the message is the header alone.
  Either way the receiver checks the frame the way a ranged GET checks a
  slice — announced length, announced crc against the embedded one, one
  hash pass (:func:`repro.exchange.codec.verify_frame`) — so each result
  byte is hashed once per side.
* :func:`fetch_spilled_result` — the one reader of spilled frames: GET with
  backoff, verify, re-read once on a mismatch.

What the checks find is noted as ``("integrity", ...)`` counts of the
query's record (:mod:`repro.counters`): bytes whose checksum matched,
mismatches by verification site (``mismatch.<site>``), and how recovery
resolved them — re-issued GETs for in-flight corruption, re-executed
producing attempts for at-rest corruption.  A clean run notes no mismatch.
"""

from __future__ import annotations

import base64
import json
import zlib
from typing import Any, Dict, Optional

from repro.cloud.s3 import parse_s3_path
from repro.config import DEFAULT_RESILIENCE, IntegrityConfig
from repro.counters import Counts
from repro.driver.resilience import call_with_backoff
from repro.errors import CorruptFileError
from repro.exchange.codec import slice_crcs, verify_frame

#: A result whose message would exceed this many bytes is staged through S3
#: instead (SQS messages are limited to 256 KiB).
RESULT_SPILL_BYTES = 200 * 1024

#: Bucket used for spilled worker results.
RESULT_BUCKET = "lambada-results"


def post_result(
    env: Any,
    queue: str,
    integrity: IntegrityConfig,
    header: Dict[str, Any],
    frame: Optional[bytes] = None,
    spill_key: Optional[str] = None,
) -> None:
    """Send one result message: ``header``, and ``frame`` inline or spilled.

    ``spill_key`` is where in :data:`RESULT_BUCKET` the frame goes when the
    message would not fit the queue; the caller suffixes it with the attempt,
    so a retry never overwrites (or races with) an earlier attempt's object.
    """
    if frame is not None:
        header = {
            **header,
            "frame": [len(frame), slice_crcs(frame, (0, len(frame)))[0]],
            "result_s3": f"s3://{RESULT_BUCKET}/{spill_key}",
        }
    text = json.dumps(header)
    if integrity.generate:
        text = f"{zlib.crc32(text.encode()):08x}{text}"
    if frame is not None:
        if len(text) + 1 + 4 * ((len(frame) + 2) // 3) > RESULT_SPILL_BYTES:
            env.s3.ensure_bucket(RESULT_BUCKET)
            env.s3.put_object(RESULT_BUCKET, spill_key, frame)
        else:
            text = f"{text}\n{base64.b64encode(frame).decode('ascii')}"
    env.sqs.send_message(queue, text)


def open_message(
    body: str, verify: bool = True, counts: Optional[Counts] = None
) -> Optional[Dict[str, Any]]:
    """Parse one delivered result message; ``None`` when it is corrupt.

    An inline frame comes back as its bytes under ``"frame"``, checked, with
    ``"result_s3"`` removed (nothing was spilled); a spilled one keeps its
    ``[length, crc32]`` description there for :func:`fetch_spilled_result`.
    A message that does not parse (site ``sqs.parse``) or fails its digest or
    its frame's checks (``sqs.digest``) is noted into ``counts`` and
    dropped: its producer looks missing and the retry machinery re-invokes
    it, so a corrupt message can never contribute rows.  Unsigned messages
    and unchecked frames pass a verifying receiver.
    """
    site = "sqs.parse"
    try:
        text, _, tail = body.partition("\n")
        if not text.startswith("{"):
            digest, text = text[:8], text[8:]
            if verify and digest != f"{zlib.crc32(text.encode()):08x}":
                site = "sqs.digest"
                raise ValueError("message digest mismatch")
        message = json.loads(text)
        if not isinstance(message, dict):
            raise ValueError("result message is not an object")
        if tail:
            frame = base64.b64decode(tail, validate=True)
            # The last quantum's spare bits decode to nothing: a rewrite
            # there must not pass for the text the sender wrote.
            spare = len(frame) % 3
            if spare and base64.b64encode(frame[-spare:]).decode("ascii") != tail[-4:]:
                raise ValueError("non-canonical base64")
            path = message.pop("result_s3")
            if verify:
                site = "sqs.digest"
                verify_frame(frame, *message["frame"], key=path)
            message["frame"] = frame
    except (ValueError, KeyError, TypeError, CorruptFileError):
        if counts is not None:
            counts.note("integrity", f"mismatch.{site}")
            counts.note("integrity", "re_executions")
        return None
    return message


def fetch_spilled_result(
    s3: Any,
    message: Dict[str, Any],
    verify: bool,
    counts: Optional[Counts] = None,
    **backoff: Any,
) -> bytes:
    """Fetch the frame a pointer ``message`` spilled, retrying transients.

    The pointed-to object may be transiently invisible under an injected
    read-after-write lag, so the GET goes through
    :func:`~repro.driver.resilience.call_with_backoff` with the caller's
    ``backoff`` context (``policy``/``rng`` and the overload plane's
    ``breakers``/``budget``/``now_fn``), its retries noted into ``counts``.
    With ``verify`` on, the object must be the frame the message describes
    (length, crc, one hash pass; site ``spill.digest``): a corrupt first read
    (in-flight corruption) is cured by one re-issued GET, noted as
    ``("integrity", "re_reads")``, and a stale or swapped object —
    self-consistent, but not the one announced — fails on the crc.
    """
    path = message["result_s3"]
    bucket, key = parse_s3_path(path)
    attempts = DEFAULT_RESILIENCE.spill_read_attempts
    for read_attempt in range(attempts):
        frame = call_with_backoff(s3.get_object, bucket, key, counts=counts, **backoff).data
        if not verify:
            break
        try:
            verify_frame(frame, *message["frame"], key=path)
        except CorruptFileError:
            if counts is not None:
                counts.note("integrity", "mismatch.spill.digest")
            if read_attempt + 1 == attempts:
                raise
        else:
            if counts is not None:
                counts.note("integrity", "verified_bytes", len(frame))
                if read_attempt:
                    counts.note("integrity", "re_reads")
            break
    return frame
