"""S3-like object store.

The store holds objects fully in memory (optionally spilling large objects to
a directory on disk) and reproduces the aspects of S3 that Lambada's design
depends on:

* ranged ``GET`` requests (HTTP ``Range`` header semantics),
* ``PUT`` (keys up to S3's 1024-byte limit), ``LIST`` (with prefix),
  ``HEAD`` and ``DELETE``,
* request accounting per bucket (reads vs writes vs lists),
* optional per-bucket request-rate limiting that raises
  :class:`~repro.errors.SlowDownError` like the real service, and
* metering of every request into a :class:`~repro.cloud.metering.MeteringLedger`.

Objects are immutable once written (as on S3); overwriting a key replaces the
object atomically.
"""

from __future__ import annotations

import os
import threading
import uuid
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.cloud.clock import VirtualClock
from repro.cloud.metering import MeteringLedger
from repro.config import (
    S3_MAX_KEY_LENGTH,
    S3_READ_RATE_LIMIT_PER_S,
    S3_WRITE_RATE_LIMIT_PER_S,
)
from repro.errors import (
    BucketAlreadyExistsError,
    InvalidRangeError,
    KeyTooLongError,
    NoSuchBucketError,
    NoSuchKeyError,
    SlowDownError,
)


@dataclass(frozen=True)
class ObjectMetadata:
    """Metadata returned by HEAD and LIST requests."""

    bucket: str
    key: str
    size: int
    created_at: float

    @property
    def path(self) -> str:
        """The full ``s3://bucket/key`` path of the object."""
        return f"s3://{self.bucket}/{self.key}"


@dataclass(frozen=True)
class GetResult:
    """Result of a (possibly ranged) GET request."""

    data: bytes
    metadata: ObjectMetadata
    range_start: int
    range_end: int  # exclusive


@dataclass
class _RateWindow:
    """Sliding one-second window used for per-bucket rate limiting."""

    window_start: float = 0.0
    count: int = 0


def parse_s3_path(path: str) -> Tuple[str, str]:
    """Split an ``s3://bucket/key`` path into ``(bucket, key)``.

    Raises :class:`ValueError` for paths that are not of that form.
    """
    if not path.startswith("s3://"):
        raise ValueError(f"not an s3:// path: {path!r}")
    remainder = path[len("s3://"):]
    if "/" not in remainder:
        return remainder, ""
    bucket, key = remainder.split("/", 1)
    if not bucket:
        raise ValueError(f"empty bucket name in path: {path!r}")
    return bucket, key


def resolve_range(
    size: int, range_start: int, range_end: Optional[int], suffix_length: Optional[int]
) -> Tuple[int, int]:
    """Byte span ``[start, end)`` a ranged GET of a ``size``-byte object serves.

    ``suffix_length`` is S3's ``Range: bytes=-N``: the last ``N`` bytes,
    clamped to the whole object; it excludes an explicit start/end, and
    ``N <= 0`` is unsatisfiable.  Raises
    :class:`~repro.errors.InvalidRangeError` where S3 returns 416.
    """
    if suffix_length is not None:
        if range_start != 0 or range_end is not None:
            raise InvalidRangeError("suffix range excludes an explicit start/end")
        if suffix_length <= 0:
            raise InvalidRangeError(f"unsatisfiable suffix length {suffix_length}")
        return max(0, size - suffix_length), size
    if range_start < 0:
        raise InvalidRangeError(f"negative range start {range_start}")
    if range_start > size or (range_start == size and size > 0):
        raise InvalidRangeError(f"range start {range_start} beyond object size {size}")
    end = size if range_end is None else min(range_end, size)
    if end < range_start:
        raise InvalidRangeError(f"range end {end} before range start {range_start}")
    return range_start, end


class ObjectStore:
    """In-memory object store with S3 request semantics."""

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        ledger: Optional[MeteringLedger] = None,
        enforce_rate_limits: bool = False,
        read_rate_limit_per_s: int = S3_READ_RATE_LIMIT_PER_S,
        write_rate_limit_per_s: int = S3_WRITE_RATE_LIMIT_PER_S,
    ):
        self.clock = clock or VirtualClock()
        self.ledger = ledger if ledger is not None else MeteringLedger()
        self.enforce_rate_limits = enforce_rate_limits
        self.read_rate_limit_per_s = read_rate_limit_per_s
        self.write_rate_limit_per_s = write_rate_limit_per_s
        self._buckets: Dict[str, Dict[str, bytes]] = {}
        self._metadata: Dict[str, Dict[str, ObjectMetadata]] = {}
        #: Previous object versions, retained (only while a fault plan is
        #: installed) so ``s3.stale_body`` can serve an eventually-consistent
        #: overwrite.  Never consulted on the fault-free path.
        self._previous: Dict[str, Dict[str, bytes]] = {}
        self._read_windows: Dict[str, _RateWindow] = {}
        self._write_windows: Dict[str, _RateWindow] = {}
        self._lock = threading.RLock()
        #: Optional fault-injection plan (see :mod:`repro.cloud.faults`).
        #: ``None`` keeps every request on the fault-free fast path.
        self.fault_plan = None
        # Request counters per bucket, useful for asserting request complexity.
        self.request_counts: Dict[str, Dict[str, int]] = {}

    # -- bucket management --------------------------------------------------

    def create_bucket(self, bucket: str) -> None:
        """Create a bucket.  Raises if it already exists."""
        with self._lock:
            if bucket in self._buckets:
                raise BucketAlreadyExistsError(bucket)
            self._buckets[bucket] = {}
            self._metadata[bucket] = {}
            self.request_counts[bucket] = {"get": 0, "put": 0, "list": 0, "delete": 0}

    def ensure_bucket(self, bucket: str) -> None:
        """Create a bucket if it does not exist yet (idempotent)."""
        with self._lock:
            if bucket not in self._buckets:
                self.create_bucket(bucket)

    def delete_bucket(self, bucket: str) -> None:
        """Delete an (empty or non-empty) bucket and all its objects."""
        with self._lock:
            self._require_bucket(bucket)
            del self._buckets[bucket]
            del self._metadata[bucket]
            self._previous.pop(bucket, None)
            self.request_counts.pop(bucket, None)
            self._read_windows.pop(bucket, None)
            self._write_windows.pop(bucket, None)

    def list_buckets(self) -> List[str]:
        """Names of all buckets."""
        with self._lock:
            return sorted(self._buckets)

    def _require_bucket(self, bucket: str) -> None:
        if bucket not in self._buckets:
            raise NoSuchBucketError(bucket)

    # -- rate limiting ------------------------------------------------------

    def _check_rate(self, bucket: str, kind: str) -> None:
        if not self.enforce_rate_limits:
            return
        windows = self._read_windows if kind == "read" else self._write_windows
        limit = (
            self.read_rate_limit_per_s if kind == "read" else self.write_rate_limit_per_s
        )
        window = windows.setdefault(bucket, _RateWindow(self.clock.now, 0))
        now = self.clock.now
        if now - window.window_start >= 1.0:
            window.window_start = now
            window.count = 0
        window.count += 1
        if window.count > limit:
            raise SlowDownError(
                f"bucket {bucket!r} exceeded {kind} rate limit of {limit}/s"
            )

    # -- object operations --------------------------------------------------

    def put_object(self, bucket: str, key: str, data: bytes) -> ObjectMetadata:
        """Store an object, replacing any existing object under ``key``.

        A key longer than :data:`~repro.config.S3_MAX_KEY_LENGTH` UTF-8 bytes
        raises :class:`~repro.errors.KeyTooLongError`, as S3 answers.
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("object data must be bytes-like")
        key_bytes = len(key.encode("utf-8"))
        if key_bytes > S3_MAX_KEY_LENGTH:
            raise KeyTooLongError(
                f"key of {key_bytes} bytes in bucket {bucket!r} exceeds the "
                f"{S3_MAX_KEY_LENGTH}-byte limit"
            )
        payload = bytes(data)
        with self._lock:
            self._require_bucket(bucket)
            self._check_rate(bucket, "write")
            if self.fault_plan is not None:
                self.fault_plan.s3_fault("put", bucket, key)
            if self.fault_plan is not None:
                existing = self._buckets[bucket].get(key)
                if existing is not None and existing != payload:
                    self._previous.setdefault(bucket, {})[key] = existing
            metadata = ObjectMetadata(
                bucket=bucket, key=key, size=len(payload), created_at=self.clock.now
            )
            self._buckets[bucket][key] = payload
            self._metadata[bucket][key] = metadata
            self.request_counts[bucket]["put"] += 1
            self.ledger.record("s3", "put_requests", 1, self.clock.now)
            self.ledger.record("s3", "bytes_written", len(payload), self.clock.now)
            if self.fault_plan is not None:
                # May raise WorkerCrashError *after* the write landed — the
                # duplicate-object hazard retried shuffle mappers must survive.
                self.fault_plan.s3_after_put(bucket, key)
            return metadata

    def get_object(
        self,
        bucket: str,
        key: str,
        range_start: int = 0,
        range_end: Optional[int] = None,
        suffix_length: Optional[int] = None,
    ) -> GetResult:
        """Fetch an object or a byte range of it.

        ``range_end`` is exclusive; ``None`` means "to the end of the object".
        ``suffix_length`` asks for the last *N* bytes instead (see
        :func:`resolve_range`); the result's metadata carries the object
        size, so a reader needs no HEAD to locate a footer.  Requesting a
        range that starts beyond the object raises
        :class:`~repro.errors.InvalidRangeError` (as S3 returns 416).
        """
        with self._lock:
            self._require_bucket(bucket)
            self._check_rate(bucket, "read")
            if key not in self._buckets[bucket]:
                raise NoSuchKeyError(f"s3://{bucket}/{key}")
            data = self._buckets[bucket][key]
            metadata = self._metadata[bucket][key]
            corruption = None
            if self.fault_plan is not None:
                self.fault_plan.s3_fault(
                    "get", bucket, key,
                    age_seconds=self.clock.now - metadata.created_at,
                )
                previous = self._previous.get(bucket, {}).get(key)
                corruption = self.fault_plan.s3_body_fault(
                    "get", bucket, key, has_previous=previous is not None
                )
                if corruption == "stale_body":
                    # Serve the retained previous version — the stored object
                    # is untouched, exactly like a lagging replica.
                    data = previous
            range_start, end = resolve_range(
                len(data), range_start, range_end, suffix_length
            )
            chunk = data[range_start:end]
            self.request_counts[bucket]["get"] += 1
            self.ledger.record("s3", "get_requests", 1, self.clock.now)
            self.ledger.record("s3", "bytes_read", len(chunk), self.clock.now)
            if corruption in ("bitflip", "truncate"):
                # In-flight response corruption: metered as the clean transfer
                # (the bytes were sent; they arrived wrong).
                chunk = self.fault_plan.corrupt_body(chunk, corruption)
            return GetResult(
                data=chunk, metadata=metadata, range_start=range_start, range_end=end
            )

    def head_object(self, bucket: str, key: str) -> ObjectMetadata:
        """Return metadata for an object without fetching its data."""
        with self._lock:
            self._require_bucket(bucket)
            self._check_rate(bucket, "read")
            if key not in self._metadata[bucket]:
                raise NoSuchKeyError(f"s3://{bucket}/{key}")
            if self.fault_plan is not None:
                meta = self._metadata[bucket][key]
                self.fault_plan.s3_fault(
                    "head", bucket, key,
                    age_seconds=self.clock.now - meta.created_at,
                )
            self.request_counts[bucket]["get"] += 1
            self.ledger.record("s3", "get_requests", 1, self.clock.now)
            return self._metadata[bucket][key]

    def object_exists(self, bucket: str, key: str) -> bool:
        """Whether an object exists (counts as a read request)."""
        try:
            self.head_object(bucket, key)
            return True
        except NoSuchKeyError:
            return False

    def list_objects(self, bucket: str, prefix: str = "") -> List[ObjectMetadata]:
        """List object metadata under ``prefix``, sorted by key."""
        with self._lock:
            self._require_bucket(bucket)
            self._check_rate(bucket, "write")  # LIST is billed/limited like writes
            if self.fault_plan is not None:
                self.fault_plan.s3_fault("list", bucket)
            self.request_counts[bucket]["list"] += 1
            self.ledger.record("s3", "list_requests", 1, self.clock.now)
            # Filter before sorting: LIST-heavy discovery (exchange receivers)
            # only pays for the keys under its prefix, not the whole bucket.
            matches = [
                (key, meta)
                for key, meta in self._metadata[bucket].items()
                if key.startswith(prefix)
            ]
            matches.sort()
            return [meta for _, meta in matches]

    def delete_object(self, bucket: str, key: str) -> None:
        """Delete an object.  Deleting a missing key is a no-op (as on S3)."""
        with self._lock:
            self._require_bucket(bucket)
            self.request_counts[bucket]["delete"] += 1
            self._buckets[bucket].pop(key, None)
            self._metadata[bucket].pop(key, None)
            self._previous.get(bucket, {}).pop(key, None)

    # -- convenience path-based API ------------------------------------------

    def put_path(self, path: str, data: bytes) -> ObjectMetadata:
        """PUT using an ``s3://bucket/key`` path, creating the bucket if needed."""
        bucket, key = parse_s3_path(path)
        self.ensure_bucket(bucket)
        return self.put_object(bucket, key, data)

    def get_path(
        self, path: str, range_start: int = 0, range_end: Optional[int] = None
    ) -> GetResult:
        """GET using an ``s3://bucket/key`` path."""
        bucket, key = parse_s3_path(path)
        return self.get_object(bucket, key, range_start, range_end)

    def glob(self, pattern: str) -> List[str]:
        """Expand a trailing-``*`` glob such as ``s3://bucket/dir/*.parquet``.

        Only a single ``*`` wildcard in the key part is supported, which is
        what the query frontend uses for table directories.
        """
        bucket, key_pattern = parse_s3_path(pattern)
        if "*" not in key_pattern:
            return [pattern] if self.object_exists(bucket, key_pattern) else []
        prefix, _, suffix = key_pattern.partition("*")
        matches = [
            meta.path
            for meta in self.list_objects(bucket, prefix)
            if meta.key.endswith(suffix)
        ]
        return matches

    # -- statistics ----------------------------------------------------------

    def total_bytes(self, bucket: Optional[str] = None) -> int:
        """Total size of stored objects, optionally limited to one bucket."""
        with self._lock:
            buckets: Iterable[str]
            if bucket is not None:
                self._require_bucket(bucket)
                buckets = [bucket]
            else:
                buckets = self._buckets
            return sum(
                meta.size for b in buckets for meta in self._metadata[b].values()
            )

    def object_count(self, bucket: Optional[str] = None) -> int:
        """Number of stored objects, optionally limited to one bucket."""
        with self._lock:
            if bucket is not None:
                self._require_bucket(bucket)
                return len(self._buckets[bucket])
            return sum(len(objs) for objs in self._buckets.values())


# ---------------------------------------------------------------------------
# Shared-memory backing store (process-pool execution plane)
# ---------------------------------------------------------------------------

#: Name prefix of every shared-memory segment the engine creates, so tests can
#: assert that no ``/dev/shm`` entries leak after a query.
SHM_SEGMENT_PREFIX = "lambada_"


class SharedObjectMirror:
    """Input objects mirrored into shared memory, one segment per object version.

    The process pool's children read their files from here.  The store keeps
    each object as an immutable ``bytes`` that ``put_object`` replaces, so a
    mirrored object is current exactly when it ``is`` the store's object, and
    a query whose objects are all current creates no segment and copies no
    byte.  Children get their task's ``{path: (segment name, length)}``
    :attr:`directory` entries and keep their attachments across queries.

    The mirror bypasses the store's GET metering on purpose: it models the
    *backing* data plane, while the simulated S3 requests are counted by each
    child's :class:`SharedSegmentStore` and written to the ledger by the
    driver.  The driver owns every segment; :meth:`close` unlinks them all.
    """

    #: Every mirror neither closed nor collected (leak checks exclude its
    #: segments).
    _live: "weakref.WeakSet[SharedObjectMirror]" = weakref.WeakSet()

    def __init__(self) -> None:
        #: ``{path: (mirrored object, its segment)}``.
        self._mirrored: Dict[str, Tuple[bytes, object]] = {}
        weakref.finalize(self, _unlink_segments, self._mirrored)
        SharedObjectMirror._live.add(self)

    @property
    def directory(self) -> Dict[str, Tuple[str, int]]:
        """``{path: (segment name, length)}`` of every mirrored object."""
        return {path: (shm.name, len(data)) for path, (data, shm) in self._mirrored.items()}

    @classmethod
    def live_segment_names(cls) -> Set[str]:
        return {shm.name for mirror in cls._live for _, shm in mirror._mirrored.values()}

    def sync(
        self, store: ObjectStore, paths: Iterable[str], forget: Callable[[List[str]], None]
    ) -> bool:
        """Make ``paths`` current; ``False`` (nothing copied) if the new or
        changed objects do not fit the free space of ``/dev/shm``, where a
        write past capacity would kill the writer with SIGBUS, even once
        every mirrored object outside ``paths`` is retired.

        Objects overwritten or deleted since are retired first — ``forget``
        tells the children to drop them, then they are unlinked.  A missing
        key raises :class:`~repro.errors.NoSuchKeyError`.
        """
        SharedObjectMirror._live.add(self)
        with store._lock:
            wanted = {path: _stored(store, path) for path in paths}
            stale = {path: entry for path, entry in self._mirrored.items()
                     if _stored(store, path) is not entry[0]}
        self._retire(stale, forget)
        for path, data in wanted.items():
            if data is None:
                raise NoSuchKeyError(path)
        copies = {path: data for path, data in wanted.items() if path not in self._mirrored}
        if not copies:
            return True
        nbytes = sum(map(len, copies.values()))
        if not _shm_fits(nbytes):
            self._retire(
                {path: entry for path, entry in self._mirrored.items() if path not in wanted},
                forget,
            )
            if not _shm_fits(nbytes):
                return False
        from multiprocessing import shared_memory

        for path, data in copies.items():
            shm = shared_memory.SharedMemory(
                name=f"{SHM_SEGMENT_PREFIX}m_{uuid.uuid4().hex[:12]}",
                create=True,
                size=max(len(data), 1),
            )
            shm.buf[: len(data)] = data
            self._mirrored[path] = (data, shm)
        return True

    def _retire(
        self, retired: Dict[str, Tuple[bytes, object]], forget: Callable[[List[str]], None]
    ) -> None:
        """Drop these mirrored objects: the children forget them, then they are unlinked."""
        if not retired:
            return
        forget([shm.name for _, shm in retired.values()])
        for path in retired:
            del self._mirrored[path]
        _unlink_segments(retired)

    def close(self) -> None:
        """Unlink every segment and leave the live set; idempotent, and the
        mirror stays usable (its next :meth:`sync` makes it live again)."""
        _unlink_segments(self._mirrored)
        SharedObjectMirror._live.discard(self)


def _stored(store: ObjectStore, path: str) -> Optional[bytes]:
    bucket, key = parse_s3_path(path)
    return store._buckets.get(bucket, {}).get(key)


def _unlink_segments(mirrored: Dict[str, Tuple[bytes, object]]) -> None:
    for _, shm in mirrored.values():
        try:
            shm.close()
        except BufferError:
            # Live views keep the mapping alive; unlink still removes the
            # /dev/shm entry and the memory goes away with the last view.
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
    mirrored.clear()


def _shm_fits(nbytes: int) -> bool:
    try:
        stats = os.statvfs("/dev/shm")
    except OSError:  # no /dev/shm: not a tmpfs to overrun
        return True
    return nbytes <= stats.f_bavail * stats.f_frsize


class SharedSegmentStore:
    """Read-only object-store facade over mirrored objects.

    ``objects`` maps each ``s3://`` path to a buffer of exactly its bytes — in
    a pool child, a view of the path's :class:`SharedObjectMirror` segment.
    Implements exactly the surface the scan stack touches
    (:meth:`get_object`, suffix ranges included) with the same error and
    request-accounting semantics as :class:`ObjectStore` — so per-worker scan
    statistics (and therefore modelled request costs) are identical to a scan
    against the real simulated store.
    """

    def __init__(self, objects: Dict[str, memoryview]):
        self._objects = objects
        self.request_counts: Dict[str, int] = {"get": 0}

    def get_object(
        self,
        bucket: str,
        key: str,
        range_start: int = 0,
        range_end: Optional[int] = None,
        suffix_length: Optional[int] = None,
    ) -> GetResult:
        path = f"s3://{bucket}/{key}"
        try:
            data = self._objects[path]
        except KeyError:
            raise NoSuchKeyError(path) from None
        size = len(data)
        range_start, end = resolve_range(size, range_start, range_end, suffix_length)
        chunk = bytes(data[range_start:end])
        self.request_counts["get"] += 1
        return GetResult(
            data=chunk,
            metadata=ObjectMetadata(bucket=bucket, key=key, size=size, created_at=0.0),
            range_start=range_start,
            range_end=end,
        )
