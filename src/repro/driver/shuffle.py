"""Shuffle-based (repartitioned) aggregation across two waves of workers.

The driver-merge aggregation path (``LambadaDriver.execute``) is ideal for the
paper's evaluation queries, whose results have a handful of groups.  For
high-cardinality group-bys the driver would become the bottleneck; the paper's
exchange operator exists precisely so that such queries can repartition data
among the serverless workers through S3.

:class:`ShuffleAggregateCoordinator` implements that execution strategy as two
waves of serverless function invocations riding the write-combined exchange
I/O plane (paper §4.4):

* **map wave** — each worker scans its files, applies the filter, computes
  per-group partial aggregates, and hash-partitions them by the group keys.
  With write combining (the default) all of a mapper's partitions are
  serialised into **one** combined object via
  :func:`~repro.exchange.codec.encode_partition_set`; the per-receiver byte
  offsets ride in the object key (:class:`~repro.exchange.naming.
  WriteCombiningNaming`), empty partitions occupy zero bytes, and the map
  wave issues exactly one PUT per mapper — O(P) requests instead of the
  legacy O(P²) one-object-per-receiver pattern.  The legacy pattern survives
  behind ``ShuffleConfig(write_combining=False)`` as the parity baseline
  (with empty partitions elided before the PUT);
* **reduce wave** — each worker builds one
  :class:`~repro.exchange.fetch.FetchPlan` from the manifest the map barrier
  announced (the offset directory rides in the combined keys, so discovery
  costs no request; legacy per-receiver objects cost one LIST), issues it as
  one batch — **one ranged GET per non-empty slice**, charged as a single
  transfer pipelined over the scan's connection count — decodes the slices
  zero-copy, folds them with a single
  :func:`~repro.engine.aggregates.merge_partials` pass, and returns its
  result rows to the driver through SQS (spilling to S3 when large).
  Combined and legacy senders interoperate within one query.

Request/byte counters of both waves are accumulated into
:class:`~repro.exchange.basic.ExchangeStats`, shipped inside each worker's
:class:`~repro.engine.pipeline.WorkerResult`, and folded into the returned
:class:`ShuffleStatistics`.

The driver only concatenates the disjoint reduce outputs and finalises derived
aggregates (``avg``), so its work is proportional to the result size of its
own share, not to the number of groups.

:class:`ShuffleJoinCoordinator` extends the same machinery to distributed
equi-joins (TPC-H Q3/Q12/Q14): one map wave per side repartitions the
filtered, projected rows by join-key hash through the write-combined
exchange, and the join wave probes both sides' slices with the vectorized
:func:`~repro.engine.join.hash_join` kernel before computing the partial
aggregates placed above the join.  Because the driver barriers on the map
waves, mappers announce their offset-bearing combined keys through the
result queue and the join wave needs **zero** discovery requests — one
fetch plan over both sides, one ranged GET per non-empty slice, is all it
issues.
"""

from __future__ import annotations

import json
import random
import uuid
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import FunctionConfig, InvocationContext
from repro.cloud.s3 import parse_s3_path
from repro.config import DEFAULT_RESILIENCE, IntegrityConfig
from repro.driver.integrity import IntegrityStats, message_intact, sign_message
from repro.driver.resilience import (
    DEFAULT_RESILIENCE_POLICY,
    TRANSIENT_CLOUD_ERRORS,
    AttemptLog,
    ResiliencePolicy,
    ResilienceStats,
    call_with_backoff,
    decorrelated_jitter,
)
from repro.driver.worker import RESULT_BUCKET, RESULT_SPILL_BYTES
from repro.engine.aggregates import (
    finalize_aggregates,
    merge_partials,
    partial_aggregate,
    partial_aggregate_fused,
)
from repro.engine.join import hash_join
from repro.engine.payload import decode_table, encode_table
from repro.engine.pipeline import WorkerResult
from repro.engine.scan import S3ScanOperator, ScanConfig
from repro.engine.table import (
    Table,
    concat_tables,
    filter_table,
    select_columns,
    sort_table,
    table_num_rows,
)
from repro.errors import (
    CloudError,
    ExchangeError,
    ExecutionError,
    IntegrityError,
    NoSuchBucketError,
    QueryCancelledError,
    QueryTimeoutError,
    WorkerCrashError,
    WorkerFailedError,
)
from repro.exchange.basic import ExchangeStats, serialize_partition
from repro.exchange.codec import encode_partition_set
from repro.exchange.fetch import FetchPlan, SenderManifest
from repro.exchange.naming import MultiBucketNaming, WriteCombiningNaming
from repro.exchange.partition import partition_assignments, scatter_by_assignment, slice_partition
from repro.formats.compression import Compression
from repro.plan.expressions import evaluate, expression_from_dict, expression_to_dict
from repro.plan.logical import AggregateSpec
from repro.plan.optimizer import _decompose_aggregates
from repro.plan.physical import (
    DagPhysicalPlan,
    JoinPhysicalPlan,
    JoinSidePlan,
    PruneRange,
)

MAP_FUNCTION_NAME = "lambada-shuffle-map"
REDUCE_FUNCTION_NAME = "lambada-shuffle-reduce"
SHUFFLE_RESULT_QUEUE = "lambada-shuffle-results"
JOIN_MAP_FUNCTION_NAME = "lambada-join-map"
JOIN_REDUCE_FUNCTION_NAME = "lambada-join-reduce"

#: Bucket family of the shuffle exchange objects (spread per §4.4.1).
SHUFFLE_BUCKET_PREFIX = "shuffle-b"


@dataclass
class ShuffleConfig:
    """Configuration of the shuffle I/O plane.

    ``write_combining=True`` (the default) makes every mapper write one
    combined object — O(P) PUTs for the whole map wave — and every reducer
    issue one ranged GET per non-empty slice.  ``write_combining=False``
    restores the legacy one-object-per-receiver format as the parity
    baseline; it still elides empty partitions before the PUT.
    """

    #: Combine all of a mapper's partitions into a single object.
    write_combining: bool = True
    #: Serialise legacy per-receiver objects with the fast codec
    #: (:mod:`repro.exchange.codec`); ``False`` writes full LPQ files.
    #: Readers sniff the format per object/slice regardless.
    fast_codec: bool = True
    #: Compression of the partition payloads.
    compression: Compression = Compression.FAST
    #: Content-checksum generation/verification knobs (both default on):
    #: slice crcs in the combined-object keys, embedded frame checksums, and
    #: digests on every result message.
    integrity: IntegrityConfig = field(default_factory=IntegrityConfig)


@dataclass
class ShuffleStatistics:
    """Statistics of one shuffle-aggregation execution."""

    map_workers: int
    reduce_workers: int
    rows_scanned: int
    #: Partition objects written by the map wave (combined objects count 1).
    partition_objects_written: int
    #: Objects / non-empty slices read by the reduce wave.
    partition_objects_read: int
    result_rows: int
    #: Request and byte counters of both waves (PUT/GET/LIST/HEAD, combined
    #: PUTs, ranged GETs, empty partitions elided, bytes shipped vs touched).
    exchange: ExchangeStats = field(default_factory=ExchangeStats)
    #: Modelled duration of the slowest worker per wave (scan/merge time, the
    #: fetch plan's pipelined transfer, and one round trip per PUT/LIST).
    modelled_map_seconds: float = 0.0
    modelled_reduce_seconds: float = 0.0
    #: Retries, wave re-runs, fallbacks, and injected-fault counts survived.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: Checksum verification and corruption-recovery counters.
    integrity: IntegrityStats = field(default_factory=IntegrityStats)

    @property
    def modelled_latency_seconds(self) -> float:
        """Modelled end-to-end shuffle latency (the waves are barriered),
        including any backoff the retry machinery charged."""
        return (
            self.modelled_map_seconds
            + self.modelled_reduce_seconds
            + self.resilience.backoff_seconds
        )


def _expand_glob_paths(s3, paths: Sequence[str]) -> List[str]:
    """Expand glob patterns against the object store.

    Globs over missing buckets expand to nothing; the caller then reports
    "no input files" (mirroring ``LambadaDriver._expand_paths``).
    """
    expanded: List[str] = []
    for path in paths:
        if "*" in path:
            try:
                expanded.extend(s3.glob(path))
            except NoSuchBucketError:
                continue
        else:
            expanded.append(path)
    return expanded


def _message_key(payload: Dict):
    """Wave-local identity of a result message.

    Join map waves run both sides concurrently with overlapping worker ids,
    so their messages are keyed ``(side, worker_id)``; every other wave keys
    by the bare worker id (the reduce waves report their partition there).
    """
    side = payload.get("side")
    worker = payload.get("worker_id", -1)
    return (side, worker) if side is not None else worker


def _merge_wave_message(
    by_key: Dict, key, payload: Dict, resilience: Optional[ResilienceStats]
) -> None:
    """Fold one result message into ``by_key`` under (key, attempt) dedup.

    A higher attempt supersedes a lower one; within the same attempt an ok
    result beats an error (an injected SQS duplicate of either is dropped).
    Superseded and duplicate deliveries are counted, never double-applied.
    """
    current = by_key.get(key)
    if current is None:
        by_key[key] = payload
        return
    current_attempt = int(current.get("attempt", 0))
    new_attempt = int(payload.get("attempt", 0))
    if new_attempt > current_attempt:
        by_key[key] = payload
    elif new_attempt < current_attempt:
        if resilience is not None:
            resilience.stale_messages_ignored += 1
    elif current.get("status") != "ok" and payload.get("status") == "ok":
        by_key[key] = payload
    else:
        if resilience is not None:
            resilience.duplicate_messages_ignored += 1


def _collect_wave_messages(
    sqs,
    queue: str,
    query_id: str,
    expected: int,
    what: str,
    want: Optional[Set] = None,
    min_attempt: Optional[Dict] = None,
    by_key: Optional[Dict] = None,
    resilience: Optional[ResilienceStats] = None,
    raise_on_timeout: bool = True,
    verify: bool = True,
    integrity: Optional[IntegrityStats] = None,
) -> Dict:
    """Poll ``queue`` until every wanted worker of ``query_id`` reported.

    Returns ``{key: message}`` with (key, attempt) dedup applied — duplicate
    and stale deliveries (injected or real) are counted into ``resilience``
    and dropped.  A key is satisfied once it holds a message (ok *or* error)
    of at least ``min_attempt[key]`` — older messages cannot end the poll,
    so a wave retry is never confused with the attempt it superseded.  The
    bounded poll budget models the wave deadline; on exhaustion the caller
    either gets the partial dict back (``raise_on_timeout=False``, the retry
    loops) or :class:`~repro.errors.QueryTimeoutError`.

    Messages that fail to parse or whose content digest mismatches (payload
    corrupted on the queue) are dropped and counted into ``integrity``; the
    wave machinery then re-invokes the silently-missing worker, so a corrupt
    message can never contribute rows to the result.
    """
    by_key = {} if by_key is None else by_key
    min_attempt = min_attempt or {}

    def satisfied() -> int:
        keys = want if want is not None else set(by_key)
        count = 0
        for key in keys:
            message = by_key.get(key)
            if message is None:
                continue
            if int(message.get("attempt", 0)) >= min_attempt.get(key, 0):
                count += 1
        return count

    target = len(want) if want is not None else expected
    max_polls = max(
        DEFAULT_RESILIENCE.min_poll_rounds,
        expected * DEFAULT_RESILIENCE.poll_rounds_per_worker,
    )
    for _ in range(max_polls):
        for message in sqs.receive_messages(queue, max_messages=10):
            try:
                payload = message.json()
                if not isinstance(payload, dict):
                    raise ValueError("result message is not an object")
            except ValueError:
                # Corrupted beyond JSON: the producing worker looks missing
                # and the wave machinery re-invokes it.
                if integrity is not None:
                    integrity.note_mismatch("sqs.parse")
                    integrity.re_executions += 1
                continue
            if verify and not message_intact(payload):
                if integrity is not None:
                    integrity.note_mismatch("sqs.digest")
                    integrity.re_executions += 1
                continue
            if payload.get("query_id") != query_id:
                continue
            key = _message_key(payload)
            if want is not None and key not in want:
                continue
            _merge_wave_message(by_key, key, payload, resilience)
        if satisfied() >= target:
            return by_key
    if raise_on_timeout:
        raise QueryTimeoutError(
            f"received {satisfied()} of {target} {what} results before giving up"
        )
    return by_key


def _run_wave(
    env: CloudEnvironment,
    function_name: str,
    events: Dict,
    queue: str,
    query_id: str,
    what: str,
    policy: ResiliencePolicy,
    rng: random.Random,
    resilience: ResilienceStats,
    on_retry: Optional[Callable[[object, Dict], None]] = None,
    verify: bool = True,
    integrity: Optional[IntegrityStats] = None,
    cancel=None,
    breakers=None,
    budget=None,
    now_fn: Optional[Callable[[], float]] = None,
) -> Dict:
    """Invoke one wave of workers and collect one ok-result per event.

    ``events`` maps wave keys (worker id, or ``(side, worker_id)`` for the
    join map wave) to invocation payloads carrying ``"attempt": 0``.  Workers
    that failed or never reported (dropped invocation, timeout, crash) are
    re-invoked with the next attempt number after a jittered backoff charged
    to the modelled ledger, up to ``policy.max_attempts``; ``on_retry(key,
    event)`` lets the coordinator degrade a retry (combined → legacy).  On
    an exhausted budget the first failing worker raises
    :class:`~repro.errors.WorkerFailedError` with its full attempt history.

    The overload plane (PR 9) threads through here: ``cancel`` is checked at
    wave dispatch and every retry round, ``breakers``/``budget``/``now_fn``
    make the Invoke requests themselves breaker-aware (a brownout fleet cap
    rejecting invocations is retried with backoff instead of aborting the
    wave) and cap total retry spend.
    """

    def invoke(payload: Dict) -> None:
        call_with_backoff(
            env.lambda_service.invoke,
            function_name,
            payload,
            policy=policy,
            rng=rng,
            stats=resilience,
            retry_on=TRANSIENT_CLOUD_ERRORS,
            breakers=breakers,
            budget=budget,
            now_fn=now_fn,
        )

    if cancel is not None:
        cancel.check(f"{what} dispatch")
    for key in sorted(events):
        invoke(events[key])
    by_key: Dict = {}
    attempt_log = AttemptLog()
    rounds = max(1, policy.max_attempts)
    sleep = 0.0
    failed: List = []
    for round_index in range(rounds):
        if cancel is not None:
            # Mid-wave pump point: the wave is dispatched (workers may have
            # written exchange state) but not yet collected.
            cancel.check(what)
        _collect_wave_messages(
            env.sqs,
            queue,
            query_id,
            len(events),
            what,
            want=set(events),
            min_attempt={k: int(e.get("attempt", 0)) for k, e in events.items()},
            by_key=by_key,
            resilience=resilience,
            raise_on_timeout=False,
            verify=verify,
            integrity=integrity,
        )
        failed = sorted(
            key for key in events if by_key.get(key, {}).get("status") != "ok"
        )
        if not failed:
            return by_key
        if round_index == rounds - 1:
            break
        sleep = decorrelated_jitter(
            sleep, rng, policy.backoff_base_seconds, policy.backoff_cap_seconds
        )
        resilience.backoff_seconds += sleep
        resilience.wave_retries += 1
        for key in failed:
            message = by_key.get(key)
            previous = int(events[key].get("attempt", 0))
            error = (message or {}).get("error") or (
                "no result message (lost invocation or worker crash)"
            )
            worker_id = key[1] if isinstance(key, tuple) else key
            attempt_log.record(worker_id, previous, error=error, backoff_seconds=sleep)
            if integrity is not None and error.startswith("IntegrityError"):
                # The worker detected at-rest corruption that re-GETs could
                # not cure; this retry re-executes the producing attempt
                # under a fresh attempt-suffixed prefix.
                integrity.re_executions += 1
            retry = dict(events[key])
            retry["attempt"] = previous + 1
            if on_retry is not None:
                on_retry(key, retry)
            events[key] = retry
            if budget is not None:
                budget.charge("wave_retries")
            resilience.retries += 1
            invoke(retry)
    key = failed[0]
    worker_id = key[1] if isinstance(key, tuple) else key
    message = by_key.get(key) or {}
    error = message.get("error") or (
        "no result message (lost invocation or worker crash)"
    )
    history = attempt_log.for_worker(worker_id) + [
        {"attempt": int(events[key].get("attempt", 0)), "error": error}
    ]
    raise WorkerFailedError(worker_id, f"{what}: {error}", attempts=history)


def _fault_delta(env: CloudEnvironment, snapshot: Optional[Dict]) -> Dict[str, int]:
    """Faults the installed plan injected since ``snapshot`` (per kind)."""
    plan = getattr(env, "fault_plan", None)
    if plan is None or snapshot is None:
        return {}
    now = plan.to_dict()
    return {
        kind: count - snapshot.get(kind, 0)
        for kind, count in now.items()
        if count > snapshot.get(kind, 0)
    }


def _slice_crcs(payload: bytes, offsets: Sequence[int]) -> List[int]:
    """Per-receiver crc32 digests of a combined object's slices.

    They ride in the object key next to the offset directory
    (:meth:`~repro.exchange.naming.WriteCombiningNaming.combined_key`), so a
    reducer verifies each ranged GET against a directory it already holds —
    no extra request, and a truncated or bit-flipped slice is caught before
    it is decoded.
    """
    return [
        zlib.crc32(payload[offsets[index]:offsets[index + 1]])
        for index in range(len(offsets) - 1)
    ]


def _gc_query_objects(env: CloudEnvironment, query_id: str, namings) -> int:
    """Delete every exchange object a query's attempts wrote; returns count.

    All attempt prefixes (and, for DAG queries, all side/stage tags) live
    under ``{query_id}/`` in every naming's buckets, so one LIST per bucket
    sweeps the lot.  Best-effort: an injected fault during cleanup skips
    that bucket rather than masking the caller's own outcome.
    """
    deleted = 0
    swept: Set[str] = set()
    for naming in namings:
        for bucket in naming.buckets():
            if bucket in swept:
                continue
            swept.add(bucket)
            try:
                metas = env.s3.list_objects(bucket, prefix=f"{query_id}/")
            except CloudError:
                continue
            for meta in metas:
                try:
                    env.s3.delete_object(bucket, meta.key)
                    deleted += 1
                except CloudError:
                    continue
    return deleted


def _gc_tag_objects(
    env: CloudEnvironment,
    query_id: str,
    tag: str,
    num_buckets: int,
    max_attempts: int,
) -> int:
    """Delete one exchange tag's objects across every attempt prefix.

    Used by the DAG scheduler to drop a consumed intermediate result (tag
    ``J{k}``) as soon as the wave that read it completes, bounding peak
    shuffle storage to two live stages instead of the whole DAG.  Listing
    the exact ``{attempt prefix}{tag}/`` prefix catches combined and legacy
    objects alike, including orphans from superseded attempts.
    """
    deleted = 0
    buckets = _join_map_naming(query_id, tag, num_buckets).buckets()
    for attempt in range(max(1, max_attempts)):
        prefix = f"{_attempt_prefix(query_id, attempt)}{tag}/"
        for bucket in buckets:
            try:
                metas = env.s3.list_objects(bucket, prefix=prefix)
            except CloudError:
                continue
            for meta in metas:
                try:
                    env.s3.delete_object(bucket, meta.key)
                    deleted += 1
                except CloudError:
                    continue
    return deleted


def _delete_consumed_outputs(
    env: CloudEnvironment, messages: Sequence[Dict], num_partitions: int, legacy_naming
) -> int:
    """Delete the objects the senders of fully-folded waves announced.

    By path, not by LIST: the driver holds every accepted ``combined_path``
    and spilled ``result_s3``, and a legacy sender's per-receiver keys follow
    from its id and the ``legacy_naming(message)`` of the attempt it announced
    (a key elided as empty is a no-op).  DELETE is unmetered, so this costs
    no request.  Returns the number of objects the senders reported writing.
    """
    deleted = 0
    for message in messages:
        paths = [message[name] for name in ("combined_path", "result_s3") if name in message]
        if message.get("format") == "objects":
            naming = legacy_naming(message)
            paths.extend(
                naming.path(message["worker_id"], receiver)
                for receiver in range(num_partitions)
            )
        for path in paths:
            env.s3.delete_object(*parse_s3_path(path))
        deleted += int(message.get("partitions_written", 0)) + ("result_s3" in message)
    return deleted


def _gc_cancelled_query(env: CloudEnvironment, query_id: str, namings, queue: str) -> int:
    """Garbage-collect a cancelled query's cloud state; returns keys deleted.

    Deletes every exchange object the query's attempts wrote (all attempt
    prefixes live under ``{query_id}/`` in every naming's buckets) and purges
    the result queue so no orphaned message can leak into a later query's
    poll.  Best-effort: an injected fault during cleanup (the brownout that
    provoked the cancellation may still be raging) skips that bucket rather
    than masking the cancellation itself.
    """
    deleted = _gc_query_objects(env, query_id, namings)
    try:
        env.sqs.purge_queue(queue)
    except CloudError:
        pass
    return deleted


def _attempt_prefix(query_id: str, attempt: int) -> str:
    """Key prefix of one attempt's map outputs.

    Retries write under a fresh ``r{attempt}`` prefix, so a mapper that
    crashed *after* its PUT (duplicate-object hazard) can never have its
    orphaned first-attempt object confused with the retry's: the reduce wave
    reads only the keys announced by the attempt the driver accepted.
    """
    return f"{query_id}/" if attempt <= 0 else f"{query_id}/r{attempt}/"


def _map_naming(
    query_id: str, num_buckets: int, attempt: int = 0
) -> WriteCombiningNaming:
    """Naming of the combined (write-combined) map outputs."""
    return WriteCombiningNaming(
        bucket=SHUFFLE_BUCKET_PREFIX,
        prefix=_attempt_prefix(query_id, attempt),
        num_buckets=num_buckets,
    )


def _legacy_naming(
    query_id: str, num_buckets: int, attempt: int = 0
) -> MultiBucketNaming:
    """Naming of the legacy one-object-per-receiver map outputs."""
    return MultiBucketNaming(
        num_buckets=num_buckets,
        bucket_prefix=SHUFFLE_BUCKET_PREFIX,
        prefix=_attempt_prefix(query_id, attempt),
    )


def _guarded(env: CloudEnvironment, run):
    """Wrap a wave handler so failures surface as error result messages.

    Any exception (throttle, visibility lag, execution bug) becomes an
    attempt-tagged error message on the result queue for the wave retry loop
    to act on — except :class:`~repro.errors.WorkerCrashError`, which models
    the instance dying: it propagates so *no* message is posted and the
    driver sees a silently-lost worker.
    """

    def handler(event: Dict, context: InvocationContext) -> Dict:
        try:
            return run(event, context)
        except WorkerCrashError:
            raise
        except Exception as exc:  # noqa: BLE001 - every failure must surface
            message = {
                "query_id": event.get("query_id"),
                "worker_id": event.get("worker_id", event.get("partition", -1)),
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "attempt": int(event.get("attempt", 0)),
            }
            if event.get("side") is not None:
                message["side"] = event["side"]
            if IntegrityConfig.from_dict(event.get("integrity")).generate:
                sign_message(message)
            env.sqs.send_json(event["result_queue"], message)
            return message

    return handler


def _make_map_handler(env: CloudEnvironment):
    """Handler of the map-wave function."""

    def handler(event: Dict, context: InvocationContext) -> Dict:
        query_id = event["query_id"]
        worker_id = event["worker_id"]
        attempt = int(event.get("attempt", 0))
        group_by = list(event["group_by"])
        partials_specs = [AggregateSpec.from_dict(item) for item in event["aggregates"]]
        predicate = expression_from_dict(event.get("predicate"))
        prune_ranges = [PruneRange.from_dict(item) for item in event.get("prune_ranges", [])]
        num_partitions = event["num_partitions"]
        write_combining = bool(event.get("write_combining", True))
        fast_codec = bool(event.get("fast_codec", True))
        compression = Compression(event.get("compression", Compression.FAST.value))
        num_buckets = int(event.get("num_buckets", 10))
        integrity = IntegrityConfig.from_dict(event.get("integrity"))

        # The predicate is pushed into the scan (selection vectors on encoded
        # chunks) and the fused kernel folds surviving rows straight into the
        # partial aggregates — same single-pass pipeline as scan workers.
        scan = S3ScanOperator(
            env.s3,
            files=event["files"],
            columns=event.get("columns") or None,
            prune_ranges=prune_ranges,
            config=ScanConfig(memory_mib=context.memory_mib),
            bandwidth=env.bandwidth,
            predicate=predicate,
        )
        partials: List[Table] = []
        for batch in scan.scan_fused(group_by):
            partials.append(partial_aggregate_fused(batch, group_by, partials_specs))
        merged = merge_partials(partials, group_by, partials_specs)

        # Partition once into contiguous slices; both formats serialise
        # straight from the scattered columns without re-gathering rows.
        assignment = partition_assignments(merged, group_by, num_partitions)
        reordered, boundaries = scatter_by_assignment(merged, assignment, num_partitions)

        stats = ExchangeStats()
        written = 0
        combined_written = False
        if write_combining:
            naming = _map_naming(query_id, num_buckets, attempt)
            payload, offsets = encode_partition_set(
                reordered, boundaries, compression, checksum=integrity.generate
            )
            crcs = _slice_crcs(payload, offsets) if integrity.generate else None
            try:
                path = naming.combined_path(worker_id, offsets, crcs)
            except ExchangeError:
                # The offset directory of a very wide fleet overflows the S3
                # key limit; fall back to per-receiver objects for this
                # mapper — the reduce wave handles mixed formats.
                pass
            else:
                env.s3.put_path(path, payload)
                stats.put_requests += 1
                stats.combined_put_requests += 1
                stats.bytes_written += len(payload)
                written = 1
                combined_written = True
        if not combined_written:
            naming = _legacy_naming(query_id, num_buckets, attempt)
            for receiver in range(num_partitions):
                data = serialize_partition(
                    slice_partition(reordered, boundaries, receiver),
                    compression,
                    fast=fast_codec,
                    checksum=integrity.generate,
                )
                if not data:
                    # Empty partition: skip the PUT entirely (the reduce wave
                    # treats the missing object as an elided empty).
                    stats.empty_parts_elided += 1
                    continue
                env.s3.put_path(naming.path(worker_id, receiver), data)
                stats.put_requests += 1
                stats.bytes_written += len(data)
                written += 1
        modelled_seconds = _charge_worker(env, context, scan.modelled_seconds(), stats)

        result = WorkerResult(
            partial={},
            rows_scanned=scan.counters.rows_scanned,
            get_requests=scan.statistics.get_requests,
            bytes_read=scan.statistics.bytes_read,
            duration_seconds=modelled_seconds,
            exchange_stats=stats.to_dict(),
        )
        message = {
            "query_id": query_id,
            "worker_id": worker_id,
            "status": "ok",
            "attempt": attempt,
            "format": "combined" if combined_written else "objects",
            "rows_scanned": scan.counters.rows_scanned,
            "partitions_written": written,
            "worker_result": result.to_payload(),
        }
        if combined_written:
            # Announcing the offset-bearing path through the map barrier lets
            # the driver hand the reduce wave a manifest: zero discovery
            # LISTs, and an orphaned duplicate from a crashed earlier attempt
            # is never read.
            message["combined_path"] = path
            message["combined_size"] = len(payload)
        if integrity.generate:
            sign_message(message)
        env.sqs.send_json(event["result_queue"], message)
        return message

    return _guarded(env, handler)


def _reduce_compute_seconds(objects_read: int) -> float:
    """Modelled merge/probe time of a reduce-side worker: a fixed start-up
    share plus a per-slice decode cost."""
    return 0.1 + 0.001 * objects_read


def _charge_worker(
    env: CloudEnvironment,
    context: InvocationContext,
    compute_seconds: float,
    stats: ExchangeStats,
    fetch_seconds: float = 0.0,
) -> float:
    """Charge one wave worker's modelled duration to its invocation.

    ``compute_seconds`` is the worker's own work (a mapper's scan, a
    reducer's merge).  The exchange GETs are already priced in
    ``fetch_seconds`` — the fetch plan's pipelined transfer plus any
    re-reads — while every other exchange request (the emit PUTs, a legacy
    discovery LIST) is issued on its own, as in Algorithm 1, and costs one
    round trip: this is where write combining buys its latency.
    """
    round_trips = stats.total_requests - stats.get_requests
    seconds = (
        compute_seconds
        + fetch_seconds
        + round_trips * env.bandwidth.request_latency_seconds
    ) * getattr(context, "straggler_factor", 1.0)
    context.charge(seconds)
    return seconds


def _fetch_partition(
    env: CloudEnvironment,
    context: InvocationContext,
    manifests: Sequence[SenderManifest],
    partition: int,
    num_partitions: int,
    stats: ExchangeStats,
    integrity: IntegrityConfig,
    istats: IntegrityStats,
) -> tuple:
    """Plan and fetch ``partition``'s slices of every input side.

    Returns ``(pieces per side, slices read, modelled fetch seconds)``.
    """
    plan = FetchPlan.build(env.s3, manifests, partition, num_partitions, stats)
    pieces, fetch_seconds = plan.fetch(
        env.s3, env.bandwidth, context.memory_mib, stats,
        verify=integrity.verify, integrity=istats,
    )
    return pieces, len(plan.ranges), fetch_seconds


def _make_reduce_handler(env: CloudEnvironment):
    """Handler of the reduce-wave function."""

    def handler(event: Dict, context: InvocationContext) -> Dict:
        import json

        query_id = event["query_id"]
        partition = event["partition"]
        attempt = int(event.get("attempt", 0))
        num_partitions = event["num_partitions"]
        group_by = list(event["group_by"])
        partials_specs = [AggregateSpec.from_dict(item) for item in event["aggregates"]]
        num_buckets = int(event.get("num_buckets", 10))
        integrity = IntegrityConfig.from_dict(event.get("integrity"))
        istats = IntegrityStats()

        stats = ExchangeStats()
        manifest = SenderManifest(
            event.get("combined", []),
            event.get("object_senders", []),
            lambda map_attempt: _legacy_naming(query_id, num_buckets, map_attempt),
        )
        (pieces,), objects_read, fetch_seconds = _fetch_partition(
            env, context, [manifest], partition, num_partitions, stats,
            integrity, istats,
        )
        # Single merge pass: the zero-copy slice views are folded (and thereby
        # materialised into fresh group buffers) exactly once.
        merged = merge_partials(pieces, group_by, partials_specs)
        modelled_seconds = _charge_worker(
            env, context, _reduce_compute_seconds(objects_read), stats, fetch_seconds
        )

        result = WorkerResult(
            partial={},
            rows_output=table_num_rows(merged),
            duration_seconds=modelled_seconds,
            exchange_stats=stats.to_dict(),
            integrity_stats=istats.to_dict(),
        )
        payload = {
            "query_id": query_id,
            "worker_id": partition,
            "status": "ok",
            "attempt": attempt,
            "objects_read": objects_read,
            "worker_result": result.to_payload(),
            "result": encode_table(merged, checksum=integrity.generate),
        }
        if integrity.generate:
            sign_message(payload)
        encoded = json.dumps(payload).encode("utf-8")
        if len(encoded) > RESULT_SPILL_BYTES:
            env.s3.ensure_bucket(RESULT_BUCKET)
            # The attempt suffix keeps a retried reducer from overwriting an
            # earlier attempt's spill mid-read.
            key = f"{query_id}/reduce-{partition}.a{attempt}.json"
            env.s3.put_object(RESULT_BUCKET, key, encoded)
            pointer = {
                "query_id": query_id,
                "worker_id": partition,
                "status": "ok",
                "attempt": attempt,
                "objects_read": objects_read,
                "worker_result": result.to_payload(),
                "result_s3": f"s3://{RESULT_BUCKET}/{key}",
            }
            if integrity.generate:
                sign_message(pointer)
            env.sqs.send_json(event["result_queue"], pointer)
        else:
            # Reuse the bytes already serialised for the spill-size check.
            env.sqs.send_message(event["result_queue"], encoded.decode("utf-8"))
        return payload

    return _guarded(env, handler)


class _ResilientWaves:
    """Shared wave-retry plumbing of the shuffle coordinators.

    Expects the subclass to provide ``env``, ``result_queue``,
    ``resilience_policy``, and ``_jitter_rng``.

    The overload-control context (PR 9) is armed per query through
    :meth:`_arm_overload`: the driver passes its cancellation token, breaker
    board, retry budget, and modelled now-function before delegating, and
    every wave threads them into :func:`_run_wave`.
    """

    #: Per-query overload context; ``None`` on plain (pre-PR-9) calls.
    _cancel = None
    _breakers = None
    _budget = None
    _now_fn = None

    def _arm_overload(self, cancel=None, breakers=None, budget=None, now_fn=None):
        """Install the per-query overload context (cleared by the caller)."""
        self._cancel = cancel
        self._breakers = breakers
        self._budget = budget
        self._now_fn = now_fn

    def _expand(self, paths: Sequence[str]) -> List[str]:
        return _expand_glob_paths(self.env.s3, paths)

    def _fault_snapshot(self) -> Optional[Dict]:
        plan = getattr(self.env, "fault_plan", None)
        return plan.to_dict() if plan is not None else None

    def _wave(
        self,
        function_name: str,
        events: Dict,
        query_id: str,
        what: str,
        resilience: ResilienceStats,
        on_retry=None,
        integrity: Optional[IntegrityStats] = None,
    ) -> List[Dict]:
        """Run one wave with retries; messages in wave-key order."""
        by_key = _run_wave(
            self.env,
            function_name,
            events,
            self.result_queue,
            query_id,
            what,
            self.resilience_policy,
            self._jitter_rng,
            resilience,
            on_retry=on_retry,
            verify=self.config.integrity.verify,
            integrity=integrity,
            cancel=self._cancel,
            breakers=self._breakers,
            budget=self._budget,
            now_fn=self._now_fn,
        )
        return [by_key[key] for key in sorted(by_key)]

    def _degrade_map_retry(self, resilience: ResilienceStats):
        """Retry hook flipping a repeatedly-failing mapper to the legacy plane.

        A mapper whose combined write keeps failing (e.g. throttles or
        crash-after-PUT aimed at its one big object) degrades to the legacy
        one-object-per-receiver format from
        ``policy.combined_fallback_attempt`` on — the reduce wave handles
        mixed formats within one query, so correctness is unaffected.
        """

        def on_retry(key, retry: Dict) -> None:
            if not retry.get("write_combining"):
                return
            threshold = self.resilience_policy.combined_fallback_attempt
            if self._breakers is not None and "s3" in self._breakers.open_services():
                # Brownout response: with the S3 breaker open the combined
                # write plane (one big PUT per mapper) is the most exposed,
                # so degrade to the legacy format on the first retry already.
                threshold = 1
            if retry["attempt"] >= threshold:
                retry["write_combining"] = False
                resilience.note_fallback("combined_to_legacy")

        return on_retry

    def _fetch_spilled(
        self,
        path: str,
        resilience: ResilienceStats,
        integrity: Optional[IntegrityStats] = None,
    ) -> Dict:
        """Fetch and decode a spilled result message, retrying transients.

        With verification on, the spilled JSON must parse and match its
        content digest; a corrupt first read (in-flight corruption) is cured
        by one re-issued GET counted into ``integrity.re_reads``.
        """
        import json

        bucket, key = parse_s3_path(path)
        verify = self.config.integrity.verify
        last_error: Optional[IntegrityError] = None
        for read_attempt in range(2):
            spilled = call_with_backoff(
                self.env.s3.get_object, bucket, key,
                policy=self.resilience_policy, rng=self._jitter_rng,
                stats=resilience,
            )
            try:
                payload = json.loads(spilled.data.decode("utf-8"))
                if not isinstance(payload, dict):
                    raise ValueError("spilled result is not an object")
            except (ValueError, UnicodeDecodeError) as exc:
                last_error = IntegrityError(
                    f"spilled result does not parse: {exc}",
                    key=path, layer="spill.digest",
                )
            else:
                if not verify or message_intact(payload):
                    if integrity is not None:
                        if verify:
                            integrity.verified_bytes += len(spilled.data)
                        if read_attempt:
                            integrity.re_reads += 1
                    return payload
                last_error = IntegrityError(
                    "spilled result failed its content digest",
                    key=path, layer="spill.digest",
                )
            if integrity is not None:
                integrity.note_mismatch("spill.digest")
            if not verify:
                # Unverified mode still needs parseable JSON; one blind
                # re-read is the best recovery available.
                continue
        raise last_error


class ShuffleAggregateCoordinator(_ResilientWaves):
    """Coordinates two-wave (map + reduce) aggregation over serverless workers."""

    def __init__(
        self,
        env: CloudEnvironment,
        memory_mib: int = 2048,
        num_buckets: int = 10,
        result_queue: str = SHUFFLE_RESULT_QUEUE,
        config: Optional[ShuffleConfig] = None,
        resilience_policy: Optional[ResiliencePolicy] = None,
    ):
        self.env = env
        self.memory_mib = memory_mib
        self.num_buckets = num_buckets
        self.result_queue = result_queue
        self.config = config or ShuffleConfig()
        self.resilience_policy = resilience_policy or DEFAULT_RESILIENCE_POLICY
        self._jitter_rng = random.Random(self.resilience_policy.jitter_seed)
        env.sqs.create_queue(result_queue)
        # The handlers are stateless (per-query naming is derived from the
        # event), so coordinators sharing an environment can interleave.
        env.lambda_service.deploy(
            FunctionConfig(name=MAP_FUNCTION_NAME, memory_mib=memory_mib),
            _make_map_handler(env),
        )
        env.lambda_service.deploy(
            FunctionConfig(name=REDUCE_FUNCTION_NAME, memory_mib=memory_mib),
            _make_reduce_handler(env),
        )

    # -- execution ------------------------------------------------------------------

    def _map_mode(self, worker_id: int) -> bool:
        """Whether mapper ``worker_id`` write-combines its partitions.

        The default applies the coordinator's configuration uniformly;
        subclasses (and the mixed-format parity tests) may vary it per
        mapper — the reduce wave handles both formats within one query.
        """
        return self.config.write_combining

    def execute(
        self,
        paths: Sequence[str],
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        predicate=None,
        columns: Optional[Sequence[str]] = None,
        num_workers: Optional[int] = None,
        order_by: Optional[Sequence[str]] = None,
        cancel=None,
        breakers=None,
        budget=None,
        now_fn=None,
    ):
        """Run a repartitioned group-by aggregation and return (table, statistics).

        ``cancel``/``breakers``/``budget``/``now_fn`` arm the overload plane
        for this query (see :class:`_ResilientWaves`); a cancellation raised
        mid-wave garbage-collects every exchange object the query wrote and
        purges its result-queue messages before propagating.
        """
        paths = self._expand(paths)
        if not paths:
            raise ExecutionError("shuffle aggregation has no input files")
        if not group_by:
            raise ExecutionError("shuffle aggregation requires group-by keys")
        num_workers = num_workers or len(paths)
        num_workers = min(num_workers, len(paths))

        partials, finals = _decompose_aggregates(list(aggregates))
        query_id = uuid.uuid4().hex[:12]
        namings = (
            _map_naming(query_id, self.num_buckets),
            _legacy_naming(query_id, self.num_buckets),
        )
        for naming in namings:
            for bucket in naming.buckets():
                self.env.s3.ensure_bucket(bucket)

        # Per-query jitter reseed: backoff schedules must not depend on how
        # many queries this coordinator ran before (order-independent chaos).
        self._jitter_rng = random.Random(self.resilience_policy.jitter_seed)
        self._arm_overload(cancel, breakers, budget, now_fn)
        if cancel is not None and now_fn is not None:
            cancel.bind(now_fn, query_id=query_id)
        try:
            return self._execute_waves(
                paths, group_by, partials, finals, predicate, columns,
                num_workers, order_by, query_id,
            )
        except QueryCancelledError:
            _gc_cancelled_query(self.env, query_id, namings, self.result_queue)
            raise
        finally:
            self._arm_overload()

    def _execute_waves(
        self,
        paths: Sequence[str],
        group_by: Sequence[str],
        partials,
        finals,
        predicate,
        columns: Optional[Sequence[str]],
        num_workers: int,
        order_by: Optional[Sequence[str]],
        query_id: str,
    ):
        """The wave body of :meth:`execute` (split out for cancellation GC)."""
        resilience = ResilienceStats()
        integrity_stats = IntegrityStats()
        fault_snapshot = self._fault_snapshot()

        # -- map wave -------------------------------------------------------------
        assignments = [paths[i::num_workers] for i in range(num_workers)]
        assignments = [files for files in assignments if files]
        map_events = {}
        for worker_id, files in enumerate(assignments):
            map_events[worker_id] = {
                "query_id": query_id,
                "worker_id": worker_id,
                "attempt": 0,
                "files": files,
                "columns": list(columns) if columns else None,
                "predicate": expression_to_dict(predicate),
                "prune_ranges": [],
                "group_by": list(group_by),
                "aggregates": [spec.to_dict() for spec in partials],
                "num_partitions": len(assignments),
                "result_queue": self.result_queue,
                "write_combining": self._map_mode(worker_id),
                "fast_codec": self.config.fast_codec,
                "compression": self.config.compression.value,
                "num_buckets": self.num_buckets,
                "integrity": self.config.integrity.to_dict(),
            }
        map_messages = self._wave(
            MAP_FUNCTION_NAME, map_events, query_id, "shuffle map", resilience,
            on_retry=self._degrade_map_retry(resilience),
            integrity=integrity_stats,
        )
        rows_scanned = sum(message.get("rows_scanned", 0) for message in map_messages)
        objects_written = sum(message.get("partitions_written", 0) for message in map_messages)
        # Reduce manifest: combined objects are announced with their
        # offset-bearing paths (zero discovery requests, and an orphaned
        # earlier-attempt duplicate is never read); legacy senders travel as
        # (sender, attempt) pairs so retried mappers' prefixes are found.
        combined_entries = sorted(
            [m["worker_id"], m["combined_path"], m["combined_size"]]
            for m in map_messages
            if m.get("format") == "combined"
        )
        object_senders = sorted(
            [m["worker_id"], int(m.get("attempt", 0))]
            for m in map_messages
            if m.get("format") != "combined"
        )

        # -- reduce wave ------------------------------------------------------------
        reduce_events = {}
        for partition in range(len(assignments)):
            reduce_events[partition] = {
                "query_id": query_id,
                "partition": partition,
                "attempt": 0,
                "num_partitions": len(assignments),
                "combined": combined_entries,
                "object_senders": object_senders,
                "group_by": list(group_by),
                "aggregates": [spec.to_dict() for spec in partials],
                "result_queue": self.result_queue,
                "num_buckets": self.num_buckets,
                "integrity": self.config.integrity.to_dict(),
            }
        reduce_messages = self._wave(
            REDUCE_FUNCTION_NAME, reduce_events, query_id, "shuffle reduce",
            resilience, integrity=integrity_stats,
        )
        objects_read = sum(message.get("objects_read", 0) for message in reduce_messages)

        exchange = ExchangeStats()
        wave_seconds = {"map": 0.0, "reduce": 0.0}
        for wave, messages in (("map", map_messages), ("reduce", reduce_messages)):
            for message in messages:
                worker_result = message.get("worker_result")
                if not worker_result:
                    continue
                parsed = WorkerResult.from_payload(worker_result)
                exchange.merge(ExchangeStats.from_dict(parsed.exchange_stats))
                integrity_stats.merge(IntegrityStats.from_dict(parsed.integrity_stats))
                wave_seconds[wave] = max(wave_seconds[wave], parsed.duration_seconds)

        pieces = []
        for message in reduce_messages:
            if "result_s3" in message:
                message = self._fetch_spilled(
                    message["result_s3"], resilience, integrity_stats
                )
            pieces.append(
                decode_table(
                    message["result"],
                    verify=self.config.integrity.verify,
                    key=f"reduce-{message.get('worker_id')}",
                )
            )
        # Both waves are folded: the accepted mappers' objects and the spilled
        # reduce results have no reader left.
        _delete_consumed_outputs(
            self.env, map_messages + reduce_messages, len(assignments),
            lambda m: _legacy_naming(
                query_id, self.num_buckets, int(m.get("attempt", 0))
            ),
        )
        merged = concat_tables([piece for piece in pieces if table_num_rows(piece)])
        result = finalize_aggregates(merged, list(group_by), list(finals))
        if order_by:
            result = sort_table(result, list(order_by))

        resilience.faults_injected = _fault_delta(self.env, fault_snapshot)
        statistics = ShuffleStatistics(
            map_workers=len(assignments),
            reduce_workers=len(assignments),
            rows_scanned=rows_scanned,
            partition_objects_written=objects_written,
            partition_objects_read=objects_read,
            result_rows=table_num_rows(result),
            exchange=exchange,
            modelled_map_seconds=wave_seconds["map"],
            modelled_reduce_seconds=wave_seconds["reduce"],
            resilience=resilience,
            integrity=integrity_stats,
        )
        return result, statistics

# ---------------------------------------------------------------------------
# Distributed shuffle join
# ---------------------------------------------------------------------------

JOIN_RESULT_QUEUE = "lambada-join-results"

#: Side tags of the join exchange; each side writes under its own prefix of
#: the shuffle buckets so the two repartition streams never collide.
JOIN_SIDES = ("L", "R")


def _join_map_naming(
    query_id: str, side: str, num_buckets: int, attempt: int = 0
) -> WriteCombiningNaming:
    """Naming of one side's combined (write-combined) map outputs."""
    return WriteCombiningNaming(
        bucket=SHUFFLE_BUCKET_PREFIX,
        prefix=f"{_attempt_prefix(query_id, attempt)}{side}/",
        num_buckets=num_buckets,
    )


def _join_legacy_naming(
    query_id: str, side: str, num_buckets: int, attempt: int = 0
) -> MultiBucketNaming:
    """Naming of one side's legacy one-object-per-receiver map outputs."""
    return MultiBucketNaming(
        num_buckets=num_buckets,
        bucket_prefix=SHUFFLE_BUCKET_PREFIX,
        prefix=f"{_attempt_prefix(query_id, attempt)}{side}/",
    )


def _make_join_map_handler(env: CloudEnvironment):
    """Handler of the join map-wave function.

    One side's mapper scans its files with the side's pushed-down predicate
    and projection, hash-partitions the surviving rows by the join key, and
    ships the partitions through the write-combined exchange (one combined
    PUT per mapper; the legacy one-object-per-receiver plane survives behind
    ``write_combining=False``).
    """

    def handler(event: Dict, context: InvocationContext) -> Dict:
        query_id = event["query_id"]
        worker_id = event["worker_id"]
        side = event["side"]
        attempt = int(event.get("attempt", 0))
        side_plan = JoinSidePlan.from_dict(event)
        num_partitions = event["num_partitions"]
        write_combining = bool(event.get("write_combining", True))
        fast_codec = bool(event.get("fast_codec", True))
        compression = Compression(event.get("compression", Compression.FAST.value))
        num_buckets = int(event.get("num_buckets", 10))
        integrity = IntegrityConfig.from_dict(event.get("integrity"))

        scan = S3ScanOperator(
            env.s3,
            files=side_plan.files,
            columns=side_plan.columns or None,
            prune_ranges=side_plan.prune_ranges,
            config=ScanConfig(memory_mib=context.memory_mib),
            bandwidth=env.bandwidth,
            predicate=side_plan.predicate,
        )
        # The pushed-down predicate rides inside the scan operator, so chunks
        # arrive already filtered through the late-materialization path.
        rows = concat_tables(list(scan.scan()))

        assignment = partition_assignments(rows, [side_plan.key], num_partitions)
        reordered, boundaries = scatter_by_assignment(rows, assignment, num_partitions)

        stats = ExchangeStats()
        written = 0
        combined_written = False
        if write_combining:
            naming = _join_map_naming(query_id, side, num_buckets, attempt)
            payload, offsets = encode_partition_set(
                reordered, boundaries, compression, checksum=integrity.generate
            )
            crcs = _slice_crcs(payload, offsets) if integrity.generate else None
            try:
                path = naming.combined_path(worker_id, offsets, crcs)
            except ExchangeError:
                # Offset directory overflows the S3 key limit (very wide
                # fleet): fall back to per-receiver objects for this mapper.
                pass
            else:
                env.s3.put_path(path, payload)
                stats.put_requests += 1
                stats.combined_put_requests += 1
                stats.bytes_written += len(payload)
                written = 1
                combined_written = True
        if not combined_written:
            naming = _join_legacy_naming(query_id, side, num_buckets, attempt)
            for receiver in range(num_partitions):
                data = serialize_partition(
                    slice_partition(reordered, boundaries, receiver),
                    compression,
                    fast=fast_codec,
                    checksum=integrity.generate,
                )
                if not data:
                    stats.empty_parts_elided += 1
                    continue
                env.s3.put_path(naming.path(worker_id, receiver), data)
                stats.put_requests += 1
                stats.bytes_written += len(data)
                written += 1
        modelled_seconds = _charge_worker(env, context, scan.modelled_seconds(), stats)

        result = WorkerResult(
            partial={},
            rows_scanned=scan.counters.rows_scanned,
            rows_after_filter=table_num_rows(rows),
            get_requests=scan.statistics.get_requests,
            bytes_read=scan.statistics.bytes_read,
            duration_seconds=modelled_seconds,
            exchange_stats=stats.to_dict(),
        )
        message = {
            "query_id": query_id,
            "worker_id": worker_id,
            "side": side,
            "status": "ok",
            "attempt": attempt,
            "format": "combined" if combined_written else "objects",
            "rows_scanned": scan.counters.rows_scanned,
            "partitions_written": written,
            "worker_result": result.to_payload(),
        }
        if combined_written:
            # The offset directory rides in the key; shipping the path through
            # the driver's map barrier lets the join wave skip discovery LISTs
            # entirely (zero requests beyond the ranged slice GETs).
            message["combined_path"] = path
            message["combined_size"] = len(payload)
        if integrity.generate:
            sign_message(message)
        env.sqs.send_json(event["result_queue"], message)
        return message

    return _guarded(env, handler)


def _emit_intermediate(
    env: CloudEnvironment,
    event: Dict,
    context: InvocationContext,
    joined: Table,
    stats: ExchangeStats,
    istats: IntegrityStats,
    objects_read: int,
    fetch_seconds: float,
    probe_rows: int,
    build_rows: int,
    integrity: IntegrityConfig,
) -> Dict:
    """Repartition a non-final join wave's output back into the exchange.

    A middle DAG stage does not return rows to the driver: it prunes the
    joined rows to the columns later stages still need, scatters them by the
    *next* stage's probe key under the intermediate tag (``J{k}``), and
    announces the combined object's offset-bearing path through the result
    queue — so the next join wave reads its slices with zero discovery
    requests, exactly like a scan-side mapper with the join output as its
    "scan".  Zero joined rows cost zero PUTs (format ``"empty"``).
    """
    query_id = event["query_id"]
    partition = event["partition"]
    attempt = int(event.get("attempt", 0))
    emit = event["emit"]
    emit_tag = emit["tag"]
    emit_key = emit["key"]
    emit_partitions = int(emit.get("num_partitions", event["num_partitions"]))
    out_columns = list(emit.get("columns") or [])
    write_combining = bool(event.get("write_combining", True))
    fast_codec = bool(event.get("fast_codec", True))
    compression = Compression(event.get("compression", Compression.FAST.value))
    num_buckets = int(event.get("num_buckets", 10))

    rows = joined
    if out_columns and table_num_rows(joined):
        rows = select_columns(joined, out_columns)

    written = 0
    combined_written = False
    path = None
    payload_len = 0
    if table_num_rows(rows):
        assignment = partition_assignments(rows, [emit_key], emit_partitions)
        reordered, boundaries = scatter_by_assignment(rows, assignment, emit_partitions)
        if write_combining:
            naming = _join_map_naming(query_id, emit_tag, num_buckets, attempt)
            payload, offsets = encode_partition_set(
                reordered, boundaries, compression, checksum=integrity.generate
            )
            crcs = _slice_crcs(payload, offsets) if integrity.generate else None
            try:
                path = naming.combined_path(partition, offsets, crcs)
            except ExchangeError:
                # Offset directory overflows the S3 key limit: fall back to
                # per-receiver objects for this emitter.
                path = None
            else:
                env.s3.put_path(path, payload)
                stats.put_requests += 1
                stats.combined_put_requests += 1
                stats.bytes_written += len(payload)
                payload_len = len(payload)
                written = 1
                combined_written = True
        if not combined_written:
            naming = _join_legacy_naming(query_id, emit_tag, num_buckets, attempt)
            for receiver in range(emit_partitions):
                data = serialize_partition(
                    slice_partition(reordered, boundaries, receiver),
                    compression,
                    fast=fast_codec,
                    checksum=integrity.generate,
                )
                if not data:
                    stats.empty_parts_elided += 1
                    continue
                env.s3.put_path(naming.path(partition, receiver), data)
                stats.put_requests += 1
                stats.bytes_written += len(data)
                written += 1

    modelled_seconds = _charge_worker(
        env, context, _reduce_compute_seconds(objects_read), stats, fetch_seconds
    )

    result = WorkerResult(
        partial={},
        rows_output=table_num_rows(rows),
        join_probe_rows=probe_rows,
        join_build_rows=build_rows,
        join_output_rows=table_num_rows(joined),
        duration_seconds=modelled_seconds,
        exchange_stats=stats.to_dict(),
        integrity_stats=istats.to_dict(),
    )
    if combined_written:
        out_format = "combined"
    elif written:
        out_format = "objects"
    else:
        out_format = "empty"
    message = {
        "query_id": query_id,
        "worker_id": partition,
        "status": "ok",
        "attempt": attempt,
        "objects_read": objects_read,
        "format": out_format,
        "partitions_written": written,
        "worker_result": result.to_payload(),
    }
    if event.get("side") is not None:
        message["side"] = event["side"]
    if combined_written:
        message["combined_path"] = path
        message["combined_size"] = payload_len
    if integrity.generate:
        sign_message(message)
    env.sqs.send_json(event["result_queue"], message)
    return message


def _make_join_reduce_handler(env: CloudEnvironment):
    """Handler of the join-wave function.

    Each join worker owns one hash partition of the key space: it reads its
    slice of every mapper's output on both sides (write-combined objects are
    announced with their offset-bearing keys through the driver barrier, so
    non-empty slices cost one ranged GET each and nothing else), probes the
    build (right) side with the vectorized join kernel, applies the residual
    two-sided predicate, computes the partial aggregates placed above the
    join, and returns the partials (or the joined rows for aggregate-free
    queries) to the driver.
    """

    def handler(event: Dict, context: InvocationContext) -> Dict:
        import json

        query_id = event["query_id"]
        partition = event["partition"]
        attempt = int(event.get("attempt", 0))
        num_partitions = event["num_partitions"]
        group_by = list(event["group_by"])
        partials_specs = [AggregateSpec.from_dict(item) for item in event["aggregates"]]
        residual = expression_from_dict(event.get("residual_predicate"))
        collect_rows = bool(event.get("collect_rows", False))
        suffix = event.get("suffix", "_right")
        num_buckets = int(event.get("num_buckets", 10))
        integrity = IntegrityConfig.from_dict(event.get("integrity"))
        istats = IntegrityStats()

        stats = ExchangeStats()
        manifests = []
        for side in JOIN_SIDES:
            spec = event["sides"][side]
            # DAG stages address each input by its exchange tag: the probe
            # side of stage k>0 is the previous stage's intermediate
            # ("J{k-1}"), the build side a scan fleet ("R{k}").  Binary
            # joins omit the tag and keep the historical "L"/"R" prefixes.
            tag = spec.get("tag", side)
            manifests.append(
                SenderManifest(
                    spec.get("combined", []),
                    spec.get("object_senders", []),
                    lambda map_attempt, tag=tag: _join_legacy_naming(
                        query_id, tag, num_buckets, map_attempt
                    ),
                )
            )
        # One plan over both sides: the probe and build slices go out as a
        # single pipelined batch.
        pieces, objects_read, fetch_seconds = _fetch_partition(
            env, context, manifests, partition, num_partitions, stats,
            integrity, istats,
        )
        left, right = (
            concat_tables(side_pieces) if side_pieces else {} for side_pieces in pieces
        )
        left_key = event["sides"]["L"]["key"]
        right_key = event["sides"]["R"]["key"]
        probe_rows = table_num_rows(left)
        build_rows = table_num_rows(right)
        if probe_rows and build_rows:
            joined = hash_join(left, right, left_key, right_key, suffix=suffix)
            if (
                bool(event.get("restore_right_key", False))
                and table_num_rows(joined)
                and right_key not in joined
            ):
                # hash_join drops the build side's key column (it equals the
                # probe key on every joined row); a later stage or residual
                # that references it gets the column materialized back here.
                joined = dict(joined)
                joined[right_key] = joined[left_key]
            if residual is not None and table_num_rows(joined):
                joined = filter_table(
                    joined, np.asarray(evaluate(residual, joined), dtype=bool)
                )
        else:
            # One side is empty: an inner join produces nothing; the partial
            # aggregate below still emits the right (empty) columns.
            joined = {}
        output_rows = table_num_rows(joined)

        if event.get("emit") is not None:
            return _emit_intermediate(
                env,
                event,
                context,
                joined,
                stats,
                istats,
                objects_read,
                fetch_seconds,
                probe_rows,
                build_rows,
                integrity,
            )

        if collect_rows:
            partial_table = joined
        else:
            partial_table = partial_aggregate(joined, group_by, partials_specs)
        modelled_seconds = _charge_worker(
            env, context, _reduce_compute_seconds(objects_read), stats, fetch_seconds
        )

        result = WorkerResult(
            partial={},
            rows_output=table_num_rows(partial_table),
            join_probe_rows=probe_rows,
            join_build_rows=build_rows,
            join_output_rows=output_rows,
            duration_seconds=modelled_seconds,
            exchange_stats=stats.to_dict(),
            integrity_stats=istats.to_dict(),
        )
        payload = {
            "query_id": query_id,
            "worker_id": partition,
            "status": "ok",
            "attempt": attempt,
            "objects_read": objects_read,
            "worker_result": result.to_payload(),
            "result": encode_table(partial_table, checksum=integrity.generate),
        }
        if event.get("side") is not None:
            payload["side"] = event["side"]
        if integrity.generate:
            sign_message(payload)
        encoded = json.dumps(payload).encode("utf-8")
        if len(encoded) > RESULT_SPILL_BYTES:
            env.s3.ensure_bucket(RESULT_BUCKET)
            spill_key = f"{query_id}/join-{partition}.a{attempt}.json"
            env.s3.put_object(RESULT_BUCKET, spill_key, encoded)
            pointer = {
                "query_id": query_id,
                "worker_id": partition,
                "status": "ok",
                "attempt": attempt,
                "objects_read": objects_read,
                "worker_result": result.to_payload(),
                "result_s3": f"s3://{RESULT_BUCKET}/{spill_key}",
            }
            if event.get("side") is not None:
                pointer["side"] = event["side"]
            if integrity.generate:
                sign_message(pointer)
            env.sqs.send_json(event["result_queue"], pointer)
        else:
            env.sqs.send_message(event["result_queue"], encoded.decode("utf-8"))
        return payload

    return _guarded(env, handler)


@dataclass
class JoinStatistics:
    """Statistics of one distributed join execution."""

    left_map_workers: int
    right_map_workers: int
    reduce_workers: int
    rows_scanned: int
    #: Rows entering the join kernels across the fleet (after repartition).
    join_probe_rows: int
    join_build_rows: int
    #: Rows produced by the join kernels (before the residual predicate).
    join_output_rows: int
    result_rows: int
    #: Partition objects written / non-empty slices read, both sides summed.
    partition_objects_written: int
    partition_objects_read: int
    #: Request and byte counters of all three waves.
    exchange: ExchangeStats = field(default_factory=ExchangeStats)
    modelled_map_seconds: float = 0.0
    modelled_reduce_seconds: float = 0.0
    #: Retries, wave re-runs, fallbacks, and injected-fault counts survived.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: Checksum verification and corruption-recovery counters.
    integrity: IntegrityStats = field(default_factory=IntegrityStats)
    #: Number of join waves the DAG scheduler ran (1 for a binary join).
    dag_stages: int = 1
    #: Intermediate/exchange objects garbage-collected during and after the
    #: query (per-stage intermediate GC plus the end-of-query sweep).
    gc_objects_deleted: int = 0

    @property
    def modelled_latency_seconds(self) -> float:
        """Modelled end-to-end join latency (map and join waves are
        barriered), including any backoff the retry machinery charged."""
        return (
            self.modelled_map_seconds
            + self.modelled_reduce_seconds
            + self.resilience.backoff_seconds
        )

    @property
    def num_workers(self) -> int:
        """Total serverless workers across all waves."""
        return self.left_map_workers + self.right_map_workers + self.reduce_workers


class ShuffleJoinCoordinator(_ResilientWaves):
    """Schedules a join DAG as a scan wave + successive shuffle-join waves.

    Accepts any shuffle physical plan (:class:`JoinPhysicalPlan` is
    normalised through ``as_dag()`` into a one-stage
    :class:`~repro.plan.physical.DagPhysicalPlan`):

    1. **scan wave** — every relation's fleet in one wave: scan, per-side
       pushed-down filter, projection, repartition by that relation's join
       key through the write-combined exchange (one combined PUT per
       mapper, offsets in the key);
    2. **join waves** (one per DAG stage) — one worker per hash partition
       reads its slice of every announced sender object (the combined
       paths ride through the driver barrier, so discovery costs zero
       requests), probes with :func:`~repro.engine.join.hash_join`,
       restores the build key when a later stage needs it, applies the
       stage residual, then either *emits* — reprojects to the columns
       later stages need and scatters by the next stage's probe key under
       the intermediate tag ``J{k}`` — or, on the final stage, computes
       the partial aggregates placed above the join;
    3. **driver scope** — merge the disjoint partials, finalise derived
       aggregates, order, and limit.

    Consumed intermediates are garbage-collected as soon as the wave that
    read them completes, and a multi-stage query ends with a sweep of its
    whole exchange prefix, so retried attempts leave no orphaned objects.  A
    binary join deletes its scan fleets' outputs by their announced paths.
    """

    def __init__(
        self,
        env: CloudEnvironment,
        memory_mib: int = 2048,
        num_buckets: int = 10,
        result_queue: str = JOIN_RESULT_QUEUE,
        config: Optional[ShuffleConfig] = None,
        resilience_policy: Optional[ResiliencePolicy] = None,
    ):
        self.env = env
        self.memory_mib = memory_mib
        self.num_buckets = num_buckets
        self.result_queue = result_queue
        self.config = config or ShuffleConfig()
        self.resilience_policy = resilience_policy or DEFAULT_RESILIENCE_POLICY
        self._jitter_rng = random.Random(self.resilience_policy.jitter_seed)
        env.sqs.create_queue(result_queue)
        env.lambda_service.deploy(
            FunctionConfig(name=JOIN_MAP_FUNCTION_NAME, memory_mib=memory_mib),
            _make_join_map_handler(env),
        )
        env.lambda_service.deploy(
            FunctionConfig(name=JOIN_REDUCE_FUNCTION_NAME, memory_mib=memory_mib),
            _make_join_reduce_handler(env),
        )

    # -- execution ------------------------------------------------------------------

    def _map_mode(self, side: str, worker_id: int) -> bool:
        """Whether mapper ``worker_id`` of ``side`` write-combines (see
        :meth:`ShuffleAggregateCoordinator._map_mode`)."""
        return self.config.write_combining

    def execute(
        self,
        physical,
        num_workers: Optional[int] = None,
        cancel=None,
        breakers=None,
        budget=None,
        now_fn=None,
    ):
        """Run the join plan; returns ``(table, statistics, worker_results)``.

        ``physical`` is a :class:`JoinPhysicalPlan` or
        :class:`DagPhysicalPlan`; binary plans are normalised through
        ``as_dag()`` and run as a one-stage DAG with the historical
        ``"L"``/``"R"`` exchange tags.

        ``cancel``/``breakers``/``budget``/``now_fn`` arm the overload plane
        for this query (see :class:`_ResilientWaves`); a cancellation raised
        mid-wave garbage-collects every tag's exchange objects (scan sides
        and intermediates alike — they all live under the query prefix) and
        purges the query's result-queue messages before propagating.
        """
        dag = physical.as_dag()
        fleets: Dict[str, JoinSidePlan] = {"L": dag.base}
        build_tags: List[str] = []
        for index, stage in enumerate(dag.stages):
            tag = "R" if index == 0 else f"R{index}"
            build_tags.append(tag)
            fleets[tag] = stage.right
        inter_tags = [f"J{k}" for k in range(len(dag.stages) - 1)]

        paths: Dict[str, List[str]] = {}
        for tag, plan in fleets.items():
            expanded = self._expand(plan.files)
            if not expanded:
                label = "left" if tag == "L" else "right"
                raise ExecutionError(f"join {label} side has no input files")
            paths[tag] = expanded

        mappers = {
            tag: min(num_workers or len(paths[tag]), len(paths[tag]))
            for tag in fleets
        }
        num_partitions = num_workers or max(mappers.values())

        query_id = uuid.uuid4().hex[:12]
        namings = []
        for tag in list(fleets) + inter_tags:
            namings.extend(
                (
                    _join_map_naming(query_id, tag, self.num_buckets),
                    _join_legacy_naming(query_id, tag, self.num_buckets),
                )
            )
        seen_buckets: Set[str] = set()
        for naming in namings:
            for bucket in naming.buckets():
                if bucket not in seen_buckets:
                    seen_buckets.add(bucket)
                    self.env.s3.ensure_bucket(bucket)

        # Per-query jitter reseed: backoff schedules must not depend on how
        # many queries this coordinator ran before (order-independent chaos).
        self._jitter_rng = random.Random(self.resilience_policy.jitter_seed)
        self._arm_overload(cancel, breakers, budget, now_fn)
        if cancel is not None and now_fn is not None:
            cancel.bind(now_fn, query_id=query_id)
        try:
            return self._execute_waves(
                dag, fleets, build_tags, inter_tags, paths, mappers,
                num_partitions, query_id,
            )
        except QueryCancelledError:
            _gc_cancelled_query(self.env, query_id, namings, self.result_queue)
            raise
        finally:
            self._arm_overload()

    def _execute_waves(
        self,
        dag: DagPhysicalPlan,
        fleets: Dict[str, JoinSidePlan],
        build_tags: List[str],
        inter_tags: List[str],
        paths: Dict[str, List[str]],
        mappers: Dict[str, int],
        num_partitions: int,
        query_id: str,
    ):
        """The wave body of :meth:`execute` (split out for cancellation GC)."""
        resilience = ResilienceStats()
        integrity_stats = IntegrityStats()
        fault_snapshot = self._fault_snapshot()
        num_stages = len(dag.stages)

        # -- scan wave (every relation's fleet dispatched together) ----------------
        assignments: Dict[str, List[List[str]]] = {}
        map_events: Dict = {}
        for tag, plan in fleets.items():
            tag_assignments = [paths[tag][i::mappers[tag]] for i in range(mappers[tag])]
            tag_assignments = [files for files in tag_assignments if files]
            assignments[tag] = tag_assignments
            for worker_id, files in enumerate(tag_assignments):
                # The side fragment travels through its own serialisation
                # (with the worker's file assignment substituted in).
                fragment = plan.to_dict()
                fragment["files"] = files
                map_events[(tag, worker_id)] = {
                    **fragment,
                    "query_id": query_id,
                    "worker_id": worker_id,
                    "side": tag,
                    "attempt": 0,
                    "num_partitions": num_partitions,
                    "result_queue": self.result_queue,
                    "write_combining": self._map_mode(tag, worker_id),
                    "fast_codec": self.config.fast_codec,
                    "compression": self.config.compression.value,
                    "num_buckets": self.num_buckets,
                    "integrity": self.config.integrity.to_dict(),
                }
        map_messages = self._wave(
            JOIN_MAP_FUNCTION_NAME, map_events, query_id, "join map", resilience,
            on_retry=self._degrade_map_retry(resilience),
            integrity=integrity_stats,
        )

        def sender_spec(
            key: str, tag: str, messages: List[Dict], side: Optional[str] = None
        ) -> Dict:
            # ``tag`` names the exchange prefix the objects live under;
            # ``side`` the wave key their announcements carried (an emit
            # wave's messages are keyed "S{k}" but write under "J{k}").
            tagged = [m for m in messages if m.get("side") == (side or tag)]
            return {
                "key": key,
                "tag": tag,
                # Combined objects are announced with their offset-bearing
                # paths: the join wave needs no discovery requests for them,
                # and an orphaned earlier-attempt duplicate is never read.
                "combined": sorted(
                    [m["worker_id"], m["combined_path"], m["combined_size"]]
                    for m in tagged
                    if m.get("format") == "combined"
                ),
                # Legacy senders as (sender, attempt) pairs: retried writers
                # wrote under attempt-suffixed prefixes.  ``"empty"`` senders
                # (an emit stage that joined zero rows) wrote nothing and are
                # announced in neither list.
                "object_senders": sorted(
                    [m["worker_id"], int(m.get("attempt", 0))]
                    for m in tagged
                    if m.get("format") == "objects"
                ),
            }

        rows_scanned = sum(message.get("rows_scanned", 0) for message in map_messages)
        objects_written = sum(message.get("partitions_written", 0) for message in map_messages)

        # -- join waves (one per DAG stage, chained through the exchange) ----------
        left_spec = sender_spec(dag.stages[0].left_key, "L", map_messages)
        reduce_waves: List[List[Dict]] = []
        objects_read = 0
        gc_deleted = 0
        for k, stage in enumerate(dag.stages):
            final = k == num_stages - 1
            emit = None
            if not final:
                emit = {
                    "tag": inter_tags[k],
                    "key": dag.stages[k + 1].left_key,
                    "num_partitions": num_partitions,
                    "columns": list(stage.output_columns),
                }
            reduce_events: Dict = {}
            for partition in range(num_partitions):
                reduce_events[(f"S{k}", partition)] = {
                    "query_id": query_id,
                    "partition": partition,
                    "side": f"S{k}",
                    "attempt": 0,
                    "num_partitions": num_partitions,
                    "sides": {
                        "L": left_spec,
                        "R": sender_spec(stage.right.key, build_tags[k], map_messages),
                    },
                    "group_by": list(dag.group_by) if final else [],
                    "aggregates": (
                        [spec.to_dict() for spec in dag.aggregates] if final else []
                    ),
                    "residual_predicate": expression_to_dict(stage.residual_predicate),
                    "collect_rows": dag.driver.collect_rows if final else False,
                    "suffix": stage.suffix,
                    "restore_right_key": stage.restore_right_key,
                    "emit": emit,
                    "result_queue": self.result_queue,
                    "num_buckets": self.num_buckets,
                    "integrity": self.config.integrity.to_dict(),
                    "write_combining": self.config.write_combining,
                    "fast_codec": self.config.fast_codec,
                    "compression": self.config.compression.value,
                }
            reduce_messages = self._wave(
                JOIN_REDUCE_FUNCTION_NAME, reduce_events, query_id,
                "join" if final else f"join stage {k}", resilience,
                on_retry=None if final else self._degrade_map_retry(resilience),
                integrity=integrity_stats,
            )
            reduce_waves.append(reduce_messages)
            objects_read += sum(m.get("objects_read", 0) for m in reduce_messages)
            if not final:
                objects_written += sum(
                    m.get("partitions_written", 0) for m in reduce_messages
                )
                left_spec = sender_spec(
                    dag.stages[k + 1].left_key, inter_tags[k], reduce_messages,
                    side=f"S{k}",
                )
            if k > 0:
                # Stage k has fully consumed the previous intermediate: drop
                # its objects now so peak exchange storage stays bounded by
                # two live stages, not the whole DAG.
                gc_deleted += _gc_tag_objects(
                    self.env, query_id, inter_tags[k - 1], self.num_buckets,
                    self.resilience_policy.max_attempts,
                )
        if num_stages > 1:
            # End-of-query sweep: superseded attempts of any tag (scan sides
            # included) may have left orphans the per-stage GC and the
            # announced-path manifests never referenced.  Both naming planes
            # must be swept — a degraded retry writes one-object-per-receiver
            # keys into the legacy buckets, not the write-combined ones.
            gc_deleted += _gc_query_objects(
                self.env, query_id,
                [
                    _join_map_naming(query_id, "L", self.num_buckets),
                    _join_legacy_naming(query_id, "L", self.num_buckets),
                ],
            )

        # -- fold statistics ---------------------------------------------------------
        exchange = ExchangeStats()
        wave_seconds = {"map": 0.0, "reduce": 0.0}
        worker_results: List[WorkerResult] = []
        counters = {"probe": 0, "build": 0, "output": 0}
        folds = [("map", map_messages)]
        folds.extend(("reduce", messages) for messages in reduce_waves)
        for wave, messages in folds:
            wave_max = 0.0
            for message in messages:
                payload = message.get("worker_result")
                if not payload:
                    continue
                parsed = WorkerResult.from_payload(payload)
                worker_results.append(parsed)
                exchange.merge(ExchangeStats.from_dict(parsed.exchange_stats))
                integrity_stats.merge(IntegrityStats.from_dict(parsed.integrity_stats))
                wave_max = max(wave_max, parsed.duration_seconds)
                counters["probe"] += parsed.join_probe_rows
                counters["build"] += parsed.join_build_rows
                counters["output"] += parsed.join_output_rows
            if wave == "map":
                wave_seconds["map"] = max(wave_seconds["map"], wave_max)
            else:
                # Join waves are barriered on each other: their modelled
                # latencies add, while workers within one wave run abreast.
                wave_seconds["reduce"] += wave_max

        # -- driver scope ------------------------------------------------------------
        partials: List[Table] = []
        for message in reduce_waves[-1]:
            if "result_s3" in message:
                message = self._fetch_spilled(
                    message["result_s3"], resilience, integrity_stats
                )
            partials.append(
                decode_table(
                    message["result"],
                    verify=self.config.integrity.verify,
                    key=f"join-{message.get('worker_id')}",
                )
            )

        # The final wave is folded: its spilled results have no reader left,
        # and a binary join (no intermediates, hence no sweep above) drops its
        # scan fleets' outputs the same way.
        gc_deleted += _delete_consumed_outputs(
            self.env,
            reduce_waves[-1] + (map_messages if num_stages == 1 else []),
            num_partitions,
            lambda m: _join_legacy_naming(
                query_id, m["side"], self.num_buckets, int(m.get("attempt", 0))
            ),
        )

        driver_plan = dag.driver
        if driver_plan.collect_rows:
            result = concat_tables([piece for piece in partials if table_num_rows(piece)])
            if dag.project and result:
                # Explicit projection above the join: drop the join key and
                # predicate columns the repartition needed but the user did
                # not select.
                result = select_columns(result, dag.project)
        else:
            merged = merge_partials(partials, dag.group_by, dag.aggregates)
            result = finalize_aggregates(
                merged, dag.group_by, driver_plan.final_aggregates
            )
        if driver_plan.order_by:
            result = sort_table(result, driver_plan.order_by, driver_plan.descending)
        if driver_plan.limit is not None:
            count = min(driver_plan.limit, table_num_rows(result))
            result = {name: np.asarray(column)[:count] for name, column in result.items()}

        resilience.faults_injected = _fault_delta(self.env, fault_snapshot)
        statistics = JoinStatistics(
            left_map_workers=len(assignments["L"]),
            right_map_workers=sum(
                len(workers) for tag, workers in assignments.items() if tag != "L"
            ),
            reduce_workers=num_partitions * num_stages,
            rows_scanned=rows_scanned,
            join_probe_rows=counters["probe"],
            join_build_rows=counters["build"],
            join_output_rows=counters["output"],
            result_rows=table_num_rows(result),
            partition_objects_written=objects_written,
            partition_objects_read=objects_read,
            exchange=exchange,
            modelled_map_seconds=wave_seconds["map"],
            modelled_reduce_seconds=wave_seconds["reduce"],
            resilience=resilience,
            integrity=integrity_stats,
            dag_stages=num_stages,
            gc_objects_deleted=gc_deleted,
        )
        return result, statistics, worker_results
