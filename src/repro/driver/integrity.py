"""Driver-side data-integrity primitives.

Everything the verify-and-recover read path shares lives here:

* :class:`IntegrityStats` — the ``integrity`` block of
  :class:`~repro.driver.driver.QueryStatistics`: bytes whose content
  checksums were verified on read, mismatches by verification site, and how
  the recovery escalation resolved them (re-issued GETs for in-flight
  corruption, re-executed producing attempts for at-rest corruption).
* :func:`sign_message` / :func:`message_intact` — the crc32 digest every
  result message (and spilled result object) carries so the driver detects a
  payload corrupted on the queue before acting on it.  The digest covers the
  canonical (sorted-keys) JSON form of the message minus the digest field
  itself; JSON round-trips of ints, strings, and shortest-repr floats are
  representation-stable, so the receiver recomputes the identical value from
  the parsed dict.
* :func:`fetch_spilled_result` — the one reader of spilled result objects:
  GET with backoff, parse, verify the digest, re-read once on a mismatch.

A clean run with verification disabled (or unchecksummed inputs) reports
all-zero mismatch counters; verified byte counts accumulate wherever a
checksum actually matched.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.cloud.s3 import parse_s3_path
from repro.config import DEFAULT_RESILIENCE
from repro.driver.resilience import call_with_backoff
from repro.errors import IntegrityError

#: Key under which a result message carries its content digest.
MESSAGE_DIGEST_KEY = "digest"


def message_digest(payload: Dict[str, Any]) -> int:
    """crc32 over the canonical JSON form of ``payload`` minus its digest."""
    body = {k: v for k, v in payload.items() if k != MESSAGE_DIGEST_KEY}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


def sign_message(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Attach the content digest to a result message (mutates and returns)."""
    payload[MESSAGE_DIGEST_KEY] = message_digest(payload)
    return payload


def message_intact(payload: Dict[str, Any]) -> bool:
    """Whether a parsed message matches its digest (unsigned messages pass)."""
    expected = payload.get(MESSAGE_DIGEST_KEY)
    if expected is None:
        return True
    return expected == message_digest(payload)


@dataclass
class IntegrityStats:
    """The ``integrity`` block of :class:`QueryStatistics`.

    Cheap counters only; all-zero mismatches on a corruption-free run.
    """

    #: Bytes that passed content-checksum verification on read (exchange
    #: slices, spilled results, decoded payload buffers).
    verified_bytes: int = 0
    #: Checksum mismatches detected, by verification site (e.g.
    #: ``{"slice.crc": 2, "sqs.digest": 1}``).
    mismatches: Dict[str, int] = field(default_factory=dict)
    #: GETs re-issued because the first response failed verification
    #: (in-flight corruption: the object at rest was fine).
    re_reads: int = 0
    #: Producing attempts re-executed because their output failed
    #: verification persistently or their result message was corrupt
    #: (at-rest / on-queue corruption).
    re_executions: int = 0

    def note_mismatch(self, site: Optional[str]) -> None:
        """Count one detected mismatch at ``site``."""
        site = site or "unknown"
        self.mismatches[site] = self.mismatches.get(site, 0) + 1

    def merge(self, other: "IntegrityStats") -> None:
        """Fold another stats block (e.g. a worker's) into this one."""
        self.verified_bytes += other.verified_bytes
        for site, count in other.mismatches.items():
            self.mismatches[site] = self.mismatches.get(site, 0) + count
        self.re_reads += other.re_reads
        self.re_executions += other.re_executions

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for reports, worker payloads, and tests."""
        return {
            "verified_bytes": self.verified_bytes,
            "mismatches": dict(self.mismatches),
            "re_reads": self.re_reads,
            "re_executions": self.re_executions,
        }

    @classmethod
    def from_dict(cls, payload: Optional[Dict[str, Any]]) -> "IntegrityStats":
        """Inverse of :meth:`to_dict`; missing keys default to zero."""
        if not payload:
            return cls()
        return cls(
            verified_bytes=int(payload.get("verified_bytes", 0)),
            mismatches={
                str(site): int(count)
                for site, count in (payload.get("mismatches") or {}).items()
            },
            re_reads=int(payload.get("re_reads", 0)),
            re_executions=int(payload.get("re_executions", 0)),
        )

    @property
    def clean(self) -> bool:
        """True when no corruption was detected (recovery never ran)."""
        return not self.mismatches and self.re_reads == 0 and self.re_executions == 0


def fetch_spilled_result(
    s3: Any,
    path: str,
    verify: bool,
    integrity: Optional[IntegrityStats] = None,
    **backoff: Any,
) -> Dict[str, Any]:
    """Fetch and decode a spilled result message, retrying transients.

    The pointed-to object may be transiently invisible under an injected
    read-after-write lag, so the GET goes through
    :func:`~repro.driver.resilience.call_with_backoff` with the caller's
    ``backoff`` context (``policy``/``rng``/``stats`` and the overload
    plane's ``breakers``/``budget``/``now_fn``).  With ``verify`` on, the
    spilled JSON must parse and match its content digest; a corrupt first
    read (in-flight corruption) is cured by one re-issued GET counted into
    ``integrity.re_reads``.  Unverified mode still needs parseable JSON, for
    which a blind re-read is the best recovery available.
    """
    bucket, key = parse_s3_path(path)
    last_error: Optional[IntegrityError] = None
    for read_attempt in range(DEFAULT_RESILIENCE.spill_read_attempts):
        raw = call_with_backoff(s3.get_object, bucket, key, **backoff).data
        try:
            spilled = json.loads(raw.decode("utf-8"))
            if not isinstance(spilled, dict):
                raise ValueError("spilled result is not an object")
        except (ValueError, UnicodeDecodeError) as exc:
            last_error = IntegrityError(
                f"spilled result does not parse: {exc}",
                key=path, layer="spill.digest",
            )
        else:
            if not verify or message_intact(spilled):
                if integrity is not None:
                    if verify:
                        integrity.verified_bytes += len(raw)
                    if read_attempt:
                        integrity.re_reads += 1
                return spilled
            last_error = IntegrityError(
                "spilled result failed its content digest",
                key=path, layer="spill.digest",
            )
        if integrity is not None:
            integrity.note_mismatch("spill.digest")
    raise last_error
