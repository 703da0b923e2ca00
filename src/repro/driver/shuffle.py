"""The shuffle coordinator: every repartitioning plan as waves over one exchange.

The driver-merge path (``LambadaDriver.execute``) suits queries whose results
have a handful of groups and whose inputs need not meet.  Joins and
high-cardinality group-bys have to repartition data among the serverless
workers through S3 — the paper's exchange operator (§4.4) — and
:class:`ShuffleJoinCoordinator` runs every such plan, lowered to a
:class:`~repro.plan.physical.DagPhysicalPlan`, as barriered waves of function
invocations with one wave body (:func:`repro.driver.dispatch.run_fleet`, the
loop every fleet runs through), one map handler and one reduce handler:

* **scan wave** — every base relation's fleet at once.  A mapper scans its
  files with the fragment's pushed-down predicate and projection (a fragment
  that carries a group-by folds the map-side partial aggregation into the
  scan), hash-partitions the rows by the fragment's partition keys and ships
  them through the write-combined exchange: all partitions serialised into
  **one** combined object via
  :func:`~repro.exchange.codec.encode_partition_set`, the per-receiver byte
  offsets riding in the object key
  (:class:`~repro.exchange.naming.WriteCombiningNaming`), empty partitions
  occupying zero bytes — O(P) PUTs per fleet instead of the legacy O(P²)
  one-object-per-receiver pattern, which survives behind
  ``ShuffleConfig(write_combining=False)`` as the parity baseline and as the
  degradation target of a mapper whose combined write keeps failing;
* **0…k join waves** — the exchange has as many hash partitions as its
  bytes keep streaming (:func:`exchange_fan_out`: the catalog's stored size
  of every relation against the fixed time a join worker costs, at most one
  per file of the largest relation); one worker per hash partition builds one
  :class:`~repro.exchange.fetch.FetchPlan` from the manifests the barrier
  before it announced (the offset directory rides in the combined keys, so
  discovery costs **zero** requests; legacy per-receiver objects cost one
  LIST), issues it as one batch — one ranged GET per non-empty slice,
  charged as a single pipelined transfer — and runs the wave's join steps
  with :func:`~repro.engine.join.hash_join`.  A DAG's stages are grouped into
  as few waves as its build sides allow: a stage whose build side is cheaper
  to read whole than a wave is to run is fused into the wave before it as a
  broadcast join (:func:`_group_join_waves`).  A non-final wave re-emits its
  rows by the next wave's probe key; the final wave computes the plan's
  partial aggregates and returns them to the driver through SQS (spilling to
  S3 when large);
* **driver scope** — merge the partials, finalise derived aggregates
  (``avg``), order, limit.

A repartitioned aggregation is the **k = 0** case: the base fragment
aggregates, the final wave has no join step, and its ``aggregates`` are the
merge functions (sum of sums, min of mins) — so the reduce side is the join
wave's own partial aggregation over the fetched slices.
:class:`ShuffleAggregateCoordinator` is the facade that lowers a group-by to
that plan and repackages the run as :class:`ShuffleStatistics`; what its waves
are *called* (functions, stage labels, spill-key stem) is data
(:class:`WaveNames`), not a second code path.

Request/byte counters of every wave are accumulated into
:class:`~repro.exchange.basic.ExchangeStats`, shipped inside each worker's
:class:`~repro.engine.pipeline.WorkerResult`, and folded into the returned
statistics.  Every wave's inputs are deleted by their announced paths as soon
as the wave has folded, so a clean query issues no LIST at all; only a query
that saw a retry, fallback or injected fault ends with a LIST sweep of its
exchange and result prefixes for the objects of superseded attempts.
"""

from __future__ import annotations

import math
import random
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import FunctionConfig, InvocationContext
from repro.cloud.network import BandwidthModel
from repro.cloud.s3 import parse_s3_path
from repro.config import DEFAULT_SCAN_CONNECTIONS, IntegrityConfig, MiB
from repro.driver.dispatch import (
    NO_RESULT_ERROR,
    FleetLabels,
    collect_results,
    current_attempts,
    failed_keys,
    run_fleet,
)
from repro.driver.integrity import (
    RESULT_BUCKET,
    IntegrityStats,
    fetch_spilled_result,
    post_result,
)
from repro.driver.resilience import (
    DEFAULT_RESILIENCE_POLICY,
    TRANSIENT_CLOUD_ERRORS,
    AttemptLog,
    ResiliencePolicy,
    ResilienceStats,
    call_with_backoff,
    fault_delta,
    fault_snapshot,
)
from repro.engine.aggregates import (
    FusedBatchAccumulator,
    finalize_aggregates,
    merge_partials,
    partial_aggregate,
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
    NoSuchBucketError,
    QueryCancelledError,
    WorkerCrashError,
    WorkerFailedError,
)
from repro.exchange.basic import ExchangeStats, serialize_partition
from repro.exchange.codec import encode_partition_set, slice_crcs
from repro.exchange.fetch import FetchPlan, SenderManifest
from repro.exchange.naming import MultiBucketNaming, WriteCombiningNaming
from repro.exchange.partition import partition_assignments, scatter_by_assignment, slice_partition
from repro.formats.compression import Compression
from repro.plan.expressions import (
    col,
    evaluate,
    expression_from_dict,
    expression_to_dict,
    referenced_columns,
)
from repro.plan.logical import AggregateSpec
from repro.plan.optimizer import _decompose_aggregates
from repro.plan.physical import DagPhysicalPlan, DriverPlan, JoinSidePlan

MAP_FUNCTION_NAME = "lambada-shuffle-map"
REDUCE_FUNCTION_NAME = "lambada-shuffle-reduce"
SHUFFLE_RESULT_QUEUE = "lambada-shuffle-results"
JOIN_MAP_FUNCTION_NAME = "lambada-join-map"
JOIN_REDUCE_FUNCTION_NAME = "lambada-join-reduce"
JOIN_RESULT_QUEUE = "lambada-join-results"


@dataclass(frozen=True)
class WaveNames:
    """What a coordinator's waves are called.

    The deployed functions (each keeps its own warm instances and memory
    size), the stage labels that cancellation pump points and worker-failure
    errors report, and the stem of spilled-result keys (fault rules match on
    it).  Data on the coordinator class, so that an aggregation and a join
    run the same wave body under the names their callers know.
    """

    map_function: str
    reduce_function: str
    #: Stage label of the scan wave; ``"<label> dispatch"`` before it starts.
    map_label: str
    #: Stage label of the final wave (non-final waves are ``join stage k``).
    reduce_label: str
    #: Final-wave results spill to ``{query_id}/{stem}-{partition}.a{attempt}``.
    spill_stem: str


AGGREGATE_WAVES = WaveNames(
    map_function=MAP_FUNCTION_NAME,
    reduce_function=REDUCE_FUNCTION_NAME,
    map_label="shuffle map",
    reduce_label="shuffle reduce",
    spill_stem="reduce",
)
JOIN_WAVES = WaveNames(
    map_function=JOIN_MAP_FUNCTION_NAME,
    reduce_function=JOIN_REDUCE_FUNCTION_NAME,
    map_label="join map",
    reduce_label="join",
    spill_stem="join",
)

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
    #: Serialise legacy per-receiver objects as typed frames
    #: (:mod:`repro.exchange.codec`); ``False`` writes full LPQ files.
    #: Readers sniff the format per object/slice regardless.
    fast_codec: bool = True
    #: Optional block-compression stage over the encoded partition frames
    #: (off: the typed column encodings do the size work, without the CPU).
    compression: Compression = Compression.NONE
    #: Content-checksum generation/verification knobs (both default on): one
    #: crc32 per partition frame, published again in the combined-object
    #: keys, and digests on every result message.
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
    #: Modelled dollars of the run (Lambda duration and requests, S3 and SQS
    #: requests), priced by :func:`join_costs`.
    cost_total: float = 0.0

    @property
    def modelled_latency_seconds(self) -> float:
        """Modelled end-to-end shuffle latency (the waves are barriered),
        including any backoff the retry machinery charged."""
        return (
            self.modelled_map_seconds
            + self.modelled_reduce_seconds
            + self.resilience.backoff_seconds
        )


def expand_glob_paths(s3, paths: Sequence[str]) -> List[str]:
    """Expand glob patterns against the object store.

    Globs over missing buckets expand to nothing (the caller then reports
    "no input files"), mirroring how a CLI glob over a missing directory
    behaves.
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


def _gc_query_objects(env: CloudEnvironment, query_id: str, num_buckets: int) -> tuple:
    """Sweep every object a query's attempts wrote.

    All attempt prefixes and all side/stage tags live under ``{query_id}/``
    in the shuffle buckets (both naming planes — a degraded retry writes
    one-object-per-receiver keys into the legacy buckets), and every spilled
    result under the same prefix of the result bucket, so one LIST per
    bucket sweeps the lot — including the orphans of superseded attempts,
    which no announced path names.  Best-effort: an injected fault during
    cleanup skips that bucket rather than masking the caller's own outcome,
    and a result bucket no worker ever spilled into does not exist yet.
    Returns ``(objects deleted, LIST requests answered)``.
    """
    deleted = lists = 0
    for bucket in _exchange_buckets(num_buckets) + [RESULT_BUCKET]:
        try:
            metas = env.s3.list_objects(bucket, prefix=f"{query_id}/")
        except CloudError:
            continue
        lists += 1
        for meta in metas:
            try:
                env.s3.delete_object(bucket, meta.key)
                deleted += 1
            except CloudError:
                continue
    return deleted, lists


def _delete_consumed_outputs(
    env: CloudEnvironment,
    messages: Sequence[Dict],
    num_partitions: int,
    legacy_naming=None,
) -> int:
    """Delete the objects the senders of fully-folded waves announced.

    By path, not by LIST: the driver holds every accepted ``combined_path``
    and spilled ``result_s3``, and a legacy sender's per-receiver keys follow
    from its id and the ``legacy_naming(attempt)`` of the attempt it announced
    (a key elided as empty is a no-op; result messages need no naming).
    DELETE is unmetered, so this costs no request.  Returns the number of
    objects the senders reported writing.
    """
    deleted = 0
    for message in messages:
        paths = [message[name] for name in ("combined_path", "result_s3") if name in message]
        if message.get("format") == "objects":
            naming = legacy_naming(int(message.get("attempt", 0)))
            paths.extend(
                naming.path(message["worker_id"], receiver)
                for receiver in range(num_partitions)
            )
        for path in paths:
            env.s3.delete_object(*parse_s3_path(path))
        deleted += int(message.get("partitions_written", 0)) + ("result_s3" in message)
    return deleted


def _gc_cancelled_query(env: CloudEnvironment, query_id: str, num_buckets: int, queue: str) -> int:
    """Garbage-collect a cancelled query's cloud state; returns keys deleted.

    Deletes every object the query's attempts wrote (:func:`_gc_query_objects`;
    a scan query passes ``num_buckets=0`` and sweeps its spilled results only)
    and purges the result queue — its owner polls it alone — so no orphaned
    message can leak into a later query's poll.  Best-effort: an injected
    fault during cleanup (the brownout that provoked the cancellation may
    still be raging) skips that bucket rather than masking the typed error
    being raised.
    """
    deleted, _ = _gc_query_objects(env, query_id, num_buckets)
    try:
        env.sqs.purge_queue(queue)
    except CloudError:
        pass
    return deleted


def _attempt_prefix(query_id: str, attempt: int) -> str:
    """Key prefix of one attempt's map outputs.

    Retries write under a fresh ``r{attempt}`` prefix, so a mapper that
    crashed *after* its PUT (duplicate-object hazard) can never have its
    orphaned first-attempt object confused with the retry's: the consuming
    wave reads only the keys announced by the attempt the driver accepted.
    """
    return f"{query_id}/" if attempt <= 0 else f"{query_id}/r{attempt}/"


def _join_map_naming(
    query_id: str, side: str, num_buckets: int, attempt: int = 0
) -> WriteCombiningNaming:
    """Naming of one side's combined (write-combined) map outputs.

    ``side`` is the exchange tag of the stream — ``"L"`` the base fleet,
    ``"R{k}"`` stage ``k``'s build fleet, ``"J{k}"`` the intermediate a wave
    re-emits — so the repartition streams of one query never collide.
    """
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


def _exchange_buckets(num_buckets: int) -> List[str]:
    """Buckets of both exchange planes; every query and every exchange tag
    shares them (only the key prefix differs).  A scan query has no exchange:
    zero buckets."""
    if not num_buckets:
        return []
    return list(
        dict.fromkeys(
            _join_map_naming("", "", num_buckets).buckets()
            + _join_legacy_naming("", "", num_buckets).buckets()
        )
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
            post_result(
                env, event["result_queue"],
                IntegrityConfig.from_dict(event.get("integrity")), message,
            )
            return message

    return handler


def _write_partitions(
    env: CloudEnvironment,
    event: Dict,
    sender: int,
    rows: Table,
    keys: Sequence[str],
    num_partitions: int,
    combined_naming: WriteCombiningNaming,
    legacy_naming: MultiBucketNaming,
    stats: ExchangeStats,
    integrity: IntegrityConfig,
) -> Dict:
    """Hash-partition ``rows`` by ``keys`` and ship them through the exchange.

    Partitions once into contiguous slices; both formats serialise straight
    from the scattered columns without re-gathering rows.  A one-partition
    exchange neither hashes nor reorders: the rows are the single slice
    (same object layout, naming and crcs as the scatter would produce).
    With write combining the sender issues one PUT for all receivers and the
    returned announcement carries the offset-bearing path — shipped through
    the driver's wave barrier, it lets the consuming wave skip discovery
    entirely, and an orphaned duplicate from a crashed earlier attempt is
    never read.  Otherwise (``write_combining`` off, or an offset directory
    that overflows the S3 key limit on a very wide fleet) it writes one
    object per non-empty receiver; the consuming wave handles mixed formats.
    Returns the announcement fields of the sender's result message.
    """
    compression = Compression(event.get("compression", Compression.NONE.value))
    if num_partitions == 1:
        # Every row goes to the one receiver: the rows, in the order they
        # arrived, are already the scattered table.
        reordered, boundaries = rows, [0, table_num_rows(rows)]
    else:
        assignment = partition_assignments(rows, list(keys), num_partitions)
        reordered, boundaries = scatter_by_assignment(rows, assignment, num_partitions)
    if bool(event.get("write_combining", True)):
        payload, offsets = encode_partition_set(
            reordered, boundaries, compression, checksum=integrity.generate
        )
        crcs = slice_crcs(payload, offsets) if integrity.generate else None
        try:
            path = combined_naming.combined_path(sender, offsets, crcs)
        except ExchangeError:
            pass
        else:
            env.s3.put_path(path, payload)
            stats.put_requests += 1
            stats.combined_put_requests += 1
            stats.bytes_written += len(payload)
            return {
                "format": "combined",
                "partitions_written": 1,
                "combined_path": path,
                "combined_size": len(payload),
            }
    written = 0
    for receiver in range(num_partitions):
        data = serialize_partition(
            slice_partition(reordered, boundaries, receiver),
            compression,
            fast=bool(event.get("fast_codec", True)),
            checksum=integrity.generate,
        )
        if not data:
            # Empty partition: skip the PUT entirely (the consuming wave
            # treats the missing object as an elided empty).
            stats.empty_parts_elided += 1
            continue
        env.s3.put_path(legacy_naming.path(sender, receiver), data)
        stats.put_requests += 1
        stats.bytes_written += len(data)
        written += 1
    return {"format": "objects", "partitions_written": written}


def _make_map_handler(env: CloudEnvironment):
    """Handler of the scan-wave functions.

    One fleet's mapper scans its files with the fragment's pushed-down
    predicate and projection, hash-partitions what survives by the
    fragment's partition keys, and ships the partitions through the
    write-combined exchange (one combined PUT per mapper; the legacy
    one-object-per-receiver plane survives behind ``write_combining=False``).
    A fragment that carries a group-by ships one partial-aggregate row per
    group instead of the rows themselves.
    """

    def handler(event: Dict, context: InvocationContext) -> Dict:
        query_id = event["query_id"]
        worker_id = event["worker_id"]
        side = event["side"]
        attempt = int(event.get("attempt", 0))
        side_plan = JoinSidePlan.from_dict(event)
        num_buckets = int(event.get("num_buckets", 10))
        integrity = IntegrityConfig.from_dict(event.get("integrity"))

        # The pushed-down predicate rides inside the scan operator, so chunks
        # arrive already filtered through the late-materialization path.
        scan = S3ScanOperator(
            env.s3,
            files=side_plan.files,
            columns=side_plan.columns or None,
            prune_ranges=side_plan.prune_ranges,
            config=ScanConfig(memory_mib=context.memory_mib),
            bandwidth=env.bandwidth,
            predicate=side_plan.predicate,
        )
        if side_plan.group_by:
            # The fused kernel folds surviving rows straight into the partial
            # aggregates — same single-pass pipeline as scan workers.
            accumulator = FusedBatchAccumulator(side_plan.group_by, side_plan.aggregates)
            for batch in scan.scan_fused(side_plan.group_by):
                accumulator.add(batch)
            rows = merge_partials(
                accumulator.finish(), side_plan.group_by, side_plan.aggregates
            )
        else:
            rows = concat_tables(list(scan.scan()))

        stats = ExchangeStats()
        announcement = _write_partitions(
            env, event, worker_id, rows, side_plan.partition_keys, event["num_partitions"],
            _join_map_naming(query_id, side, num_buckets, attempt),
            _join_legacy_naming(query_id, side, num_buckets, attempt),
            stats, integrity,
        )
        modelled_seconds = _charge_worker(env, context, scan.modelled_seconds(), stats)

        result = WorkerResult(
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
            "rows_scanned": scan.counters.rows_scanned,
            "worker_result": result.to_payload(),
            **announcement,
        }
        post_result(env, event["result_queue"], integrity, message)
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
    return pieces, plan.slices, fetch_seconds


def _emit_intermediate(
    env: CloudEnvironment,
    event: Dict,
    rows: Table,
    stats: ExchangeStats,
    integrity: IntegrityConfig,
) -> Dict:
    """Repartition a non-final join wave's output back into the exchange.

    A non-final wave does not return rows to the driver: it scatters its
    joined rows by the *next wave's* probe key under the intermediate tag
    (``J{k}``, ``k`` the wave's last stage) — exactly like a scan-side mapper
    with the join output as its "scan" — and announces what it wrote through
    the result queue.  Zero joined rows cost zero PUTs (format ``"empty"``).
    Returns the announcement fields of the worker's result message.
    """
    emit = event["emit"]
    attempt = int(event.get("attempt", 0))
    num_buckets = int(event.get("num_buckets", 10))
    if table_num_rows(rows):
        announcement = _write_partitions(
            env, event, event["partition"], rows, [emit["key"]],
            int(emit.get("num_partitions", event["num_partitions"])),
            _join_map_naming(event["query_id"], emit["tag"], num_buckets, attempt),
            _join_legacy_naming(event["query_id"], emit["tag"], num_buckets, attempt),
            stats, integrity,
        )
        if announcement["partitions_written"]:
            return announcement
    return {"format": "empty", "partitions_written": 0}


def _join_step(probe: Table, build: Table, step: Dict) -> Table:
    """One join of a wave: ``probe ⋈ build`` on the step's keys, the build
    key restored, the stage residual applied, pruned to the columns later
    stages still need."""
    if not (table_num_rows(probe) and table_num_rows(build)):
        # One side is empty: an inner join produces nothing.
        return {}
    left_key, right_key = step["left_key"], step["right_key"]
    restore = bool(step.get("restore_right_key")) and right_key not in probe
    residual = expression_from_dict(step.get("residual_predicate"))
    columns = step.get("output_columns")
    # The join gathers only what survives this step: the carried columns and
    # whatever the residual reads on the way there.
    gathered = None
    if columns:
        gathered = set(columns)
        if residual is not None:
            gathered |= referenced_columns(residual)
        if restore:
            # hash_join drops the build side's key column (it equals the
            # probe key on every joined row); it is materialized back below.
            gathered.discard(right_key)
            gathered.add(left_key)
    joined = hash_join(
        probe, build, left_key, right_key,
        suffix=step.get("suffix", "_right"), columns=gathered,
    )
    if not table_num_rows(joined):
        return joined
    if restore:
        joined[right_key] = joined[left_key]
    if residual is not None:
        joined = filter_table(
            joined, np.asarray(evaluate(residual, joined), dtype=bool)
        )
    if columns and table_num_rows(joined):
        joined = select_columns(joined, columns)
    return joined


def _make_reduce_handler(env: CloudEnvironment):
    """Handler of the join-wave functions.

    Each join worker owns one hash partition of the wave's probe input and
    runs the wave's join *steps* in order (none at all in the one wave of a
    repartitioned aggregation, whose probe input is already the partial
    aggregates to merge).  Step 0's build side is
    partitioned by the same key, so the worker reads its slice of it; every
    later step is a DAG stage fused into the wave because its build side is
    small — the worker reads that side whole (*broadcast*) and joins in
    place, instead of the fleet re-shuffling the probe rows through one more
    barriered wave.  All reads, partition slices and whole objects alike, are
    one fetch plan issued as a single batch (write-combined objects are
    announced with their offset-bearing keys through the driver barrier, so
    discovery costs nothing).  After the last step the worker either
    re-emits by the next wave's probe key, or computes the partial
    aggregates placed above the join and returns them (or the joined rows
    for aggregate-free queries) to the driver.
    """

    def handler(event: Dict, context: InvocationContext) -> Dict:
        query_id = event["query_id"]
        partition = event["partition"]
        attempt = int(event.get("attempt", 0))
        num_buckets = int(event.get("num_buckets", 10))
        integrity = IntegrityConfig.from_dict(event.get("integrity"))
        istats = IntegrityStats()
        stats = ExchangeStats()
        steps = event["steps"]

        def manifest(spec: Dict, broadcast: bool = False) -> SenderManifest:
            # Each input is addressed by its exchange tag: the probe side of a
            # later wave is the previous wave's intermediate ("J{k}"), a
            # build side a scan fleet ("R{k}").
            return SenderManifest(
                spec.get("combined", []),
                spec.get("object_senders", []),
                lambda map_attempt: _join_legacy_naming(
                    query_id, spec["tag"], num_buckets, map_attempt
                ),
                broadcast,
            )

        pieces, slices_read, fetch_seconds = _fetch_partition(
            env, context,
            [manifest(event["probe"])]
            + [manifest(step["build"], bool(step.get("broadcast"))) for step in steps],
            partition, event["num_partitions"], stats, integrity, istats,
        )
        joined, *builds = (
            concat_tables(side_pieces) if side_pieces else {} for side_pieces in pieces
        )
        probe_rows = build_rows = output_rows = 0
        for step, build in zip(steps, builds):
            probe_rows += table_num_rows(joined)
            build_rows += table_num_rows(build)
            joined = _join_step(joined, build, step)
            output_rows += table_num_rows(joined)

        message = {
            "query_id": query_id,
            "worker_id": partition,
            "status": "ok",
            "attempt": attempt,
            "objects_read": slices_read,
        }
        if event.get("side") is not None:
            message["side"] = event["side"]
        frame = None
        if event.get("emit") is not None:
            rows_output = table_num_rows(joined)
            message.update(_emit_intermediate(env, event, joined, stats, integrity))
        else:
            # With no joined rows the partial aggregate still emits the right
            # (empty) columns.
            partial_table = joined if event.get("collect_rows") else partial_aggregate(
                joined,
                list(event["group_by"]),
                [AggregateSpec.from_dict(item) for item in event["aggregates"]],
            )
            rows_output = table_num_rows(partial_table)
            frame = encode_table(partial_table, checksum=integrity.generate)
        modelled_seconds = _charge_worker(
            env, context, _reduce_compute_seconds(slices_read), stats, fetch_seconds
        )
        message["worker_result"] = WorkerResult(
            rows_output=rows_output,
            join_probe_rows=probe_rows,
            join_build_rows=build_rows,
            join_output_rows=output_rows,
            duration_seconds=modelled_seconds,
            exchange_stats=stats.to_dict(),
            integrity_stats=istats.to_dict(),
        ).to_payload()

        # Only result rows can spill: an emit announcement is header fields,
        # which reach the driver in the message itself (they hold the path
        # the next wave reads).
        post_result(
            env, event["result_queue"], integrity, message, frame,
            f"{query_id}/{event['spill_stem']}-{partition}.a{attempt}",
        )
        return message

    return _guarded(env, handler)


@dataclass
class JoinStatistics:
    """Statistics of one coordinator run (any shuffle DAG, joins or none)."""

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
    #: Logical join stages of the plan (1 for a binary join, 0 for a
    #: repartitioned aggregation).
    dag_stages: int = 1
    #: The join waves that ran, each the DAG stages it executed: its first
    #: stage repartitioned, every further one fused in as a broadcast join
    #: (``[[]]`` for a repartitioned aggregation: one wave, nothing joined).
    wave_stages: List[List[int]] = field(default_factory=lambda: [[0]])
    #: Exchange objects deleted during and after the query: the inputs each
    #: wave consumed, spilled results, and whatever a post-fault sweep found.
    gc_objects_deleted: int = 0
    #: LIST requests of the end-of-query orphan sweep (0 on a clean run,
    #: which deletes by announced path alone).
    gc_list_requests: int = 0
    #: Final-wave results too large for a queue message: each travelled
    #: through the result bucket instead (one PUT, one driver-side GET).
    results_spilled: int = 0
    #: Hash partitions of the exchange = join workers per wave
    #: (:func:`exchange_fan_out`), and the byte estimate it was priced from
    #: (0 = unknown); ``exchange.bytes_written`` is the measured counterpart.
    exchange_partitions: int = 0
    estimated_exchange_bytes: int = 0

    @property
    def join_waves(self) -> int:
        """Join waves executed (at most ``dag_stages``)."""
        return len(self.wave_stages)

    @property
    def broadcast_stages(self) -> int:
        """Stages that ran as a broadcast join inside another stage's wave."""
        return sum(len(wave) - 1 for wave in self.wave_stages if wave)

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


def merge_driver_scope(
    frames: Sequence[bytes],
    driver_plan: DriverPlan,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
    project: Optional[Sequence[str]] = None,
) -> Table:
    """Driver scope of a plan: merge the workers' partials, finalise derived
    aggregates, order, limit.

    ``frames`` are the workers' result frames, each verified where it was
    accepted (message, spilled object, pool segment), so they decode as
    views: the merge only concatenates them (one concatenate + one vectorised
    group-by pass) and never mutates a decoded column in place.  ``project``
    is a row-collecting join's explicit projection: it drops the join-key and
    predicate columns the repartition needed but the user did not select.
    """
    partials = [decode_table(frame, copy=False, verify=False) for frame in frames]
    if driver_plan.collect_rows:
        table = concat_tables(partials)
        if project and table:
            table = select_columns(table, project)
    else:
        merged = merge_partials(partials, group_by, aggregates)
        table = finalize_aggregates(merged, group_by, driver_plan.final_aggregates)
    if driver_plan.order_by:
        table = sort_table(table, driver_plan.order_by, driver_plan.descending)
    if driver_plan.limit is not None:
        table = {name: np.asarray(column)[: driver_plan.limit] for name, column in table.items()}
    return table


def join_costs(
    prices,
    memory_mib: int,
    statistics: JoinStatistics,
    worker_results: Sequence[WorkerResult],
    final_receives: int = 1,
) -> Dict[str, float]:
    """Modelled dollars of one coordinator run, keyed by the
    :class:`~repro.driver.driver.QueryStatistics` cost component.

    Every worker bills its modelled duration and one invocation (retried
    attempts bill a further one each); S3 bills the scans' GETs, every
    exchange request — LISTs, including the post-fault sweep's, at the PUT
    rate — and a PUT + GET per spilled result; SQS bills one send per worker,
    the batched receives the barriered waves are drained with, one control
    request, and the ``final_receives`` that hand the last wave's results to
    the driver (its :class:`~repro.driver.invocation.CollectionPlan`'s; one
    for a caller that reports no collection term, as the aggregation facade).
    """
    num_total = statistics.num_workers
    exchange = statistics.exchange
    spilled = statistics.results_spilled
    scan_gets = sum(result.get_requests for result in worker_results)
    return {
        "cost_lambda_duration": sum(
            prices.lambda_duration_cost(memory_mib, result.duration_seconds)
            for result in worker_results
        ),
        "cost_lambda_requests": prices.lambda_invocation_cost(
            num_total + statistics.resilience.retries
        ),
        "cost_s3_requests": prices.s3_get_cost(
            scan_gets + exchange.get_requests + exchange.head_requests + spilled
        )
        + prices.s3_put_cost(
            exchange.put_requests
            + exchange.list_requests
            + statistics.gc_list_requests
            + spilled
        ),
        "cost_sqs_requests": prices.sqs_cost(
            num_total + math.ceil(num_total / 10) + 1 + final_receives
        ),
    }


def _sender_spec(tag: str, messages: Sequence[Dict]) -> Dict:
    """What one input side's accepted senders announced, as shipped to the
    join workers; ``tag`` names the exchange prefix they wrote under."""
    return {
        "tag": tag,
        # Combined objects are announced with their offset-bearing paths: the
        # join wave needs no discovery requests for them, and an orphaned
        # earlier-attempt duplicate is never read.
        "combined": sorted(
            [m["worker_id"], m["combined_path"], m["combined_size"]]
            for m in messages
            if m.get("format") == "combined"
        ),
        # Legacy senders as (sender, attempt) pairs: retried writers wrote
        # under attempt-suffixed prefixes.  ``"empty"`` senders (an emit wave
        # that joined zero rows) wrote nothing and are announced in neither
        # list.
        "object_senders": sorted(
            [m["worker_id"], int(m.get("attempt", 0))]
            for m in messages
            if m.get("format") == "objects"
        ),
    }


#: Share of a join worker's memory the broadcast build sides of one wave may
#: fill, counted in announced (encoded) bytes: the decoded columns — narrowed
#: keys and decimals widen back to 8 bytes a value — and the join's working
#: set need the rest.
BROADCAST_MEMORY_FRACTION = 0.125


def _group_join_waves(
    env: CloudEnvironment,
    build_sides: Sequence[Dict],
    num_partitions: int,
    memory_mib: int,
) -> List[List[int]]:
    """Group a DAG's consecutive join stages into waves, from what the scan
    wave announced.

    ``build_sides[k]`` is stage ``k``'s build-side sender spec (none at all
    for a repartitioned aggregation, which runs one wave that joins
    nothing).  A wave starts at a stage whose probe input is partitioned by
    that stage's key (stage 0 always is) and absorbs the following stages for as long as
    their build side can be *broadcast*: every sender announced a combined
    object (a whole-object read needs the offset directory), reading and
    decoding the whole side costs a worker less modelled time than the wave
    the fusion removes — a reduce worker's fixed share, one emit PUT and one
    fetch round — and the wave's broadcast sides together stay within
    :data:`BROADCAST_MEMORY_FRACTION` of the worker's memory.  The side is
    priced as the very fetch plan a worker would issue for it, with the
    environment's own bandwidth model, so there is nothing to configure.
    """
    removed_wave_seconds = (
        _reduce_compute_seconds(0) + 2 * env.bandwidth.request_latency_seconds
    )
    budget = BROADCAST_MEMORY_FRACTION * memory_mib * MiB
    waves = [[0] if build_sides else []]
    fused_bytes = 0
    for stage in range(1, len(build_sides)):
        side = build_sides[stage]
        fuse = False
        if not side["object_senders"]:
            plan = FetchPlan.build(
                env.s3, [SenderManifest(side["combined"], broadcast=True)],
                0, num_partitions, ExchangeStats(),
            )
            transfer = plan.transfer_plan(memory_mib)
            broadcast_seconds = (
                env.bandwidth.transfer_seconds(transfer)
                + _reduce_compute_seconds(plan.slices)
                - _reduce_compute_seconds(0)
            )
            fuse = (
                fused_bytes + transfer.total_bytes <= budget
                and broadcast_seconds < removed_wave_seconds
            )
        if fuse:
            waves[-1].append(stage)
            fused_bytes += transfer.total_bytes
        else:
            waves.append([stage])
            fused_bytes = 0
    return waves


def exchange_fan_out(
    bandwidth: BandwidthModel,
    memory_mib: int,
    estimated_bytes: int,
    mappers: Sequence[int],
    num_workers: Optional[int] = None,
) -> int:
    """Hash partitions of a shuffle DAG = join workers started per wave.

    The smallest ``P`` at which one join worker's share of the exchange,
    ``estimated_bytes / P``, streams in no more modelled time than the fixed
    time the model charges that worker before its first byte — a reduce
    worker's start-up share plus one request round trip.  Below that share a
    further worker costs more than the streaming it takes over (and every
    receiver reads from every sender, so requests grow with ``P`` while the
    bytes do not): the break-even :func:`_group_join_waves` and
    ``S3ObjectSource.coalesce_gap`` apply, priced with the same bandwidth
    model, so there is nothing to configure.  Clamped to ``1 ≤ P ≤`` the
    widest scan fleet (``mappers`` holds every fleet's size), which is also
    the answer when the bytes are unknown (``estimated_bytes == 0``) —
    one join worker per file of the largest relation.  An explicit
    ``num_workers`` wins.  One number per query: step 0 of every wave is
    co-partitioned with a scan fleet.
    """
    if num_workers:
        return num_workers
    widest = max(mappers)
    if estimated_bytes <= 0:
        return widest
    fixed_seconds = _reduce_compute_seconds(0) + bandwidth.request_latency_seconds
    break_even_bytes = int(
        fixed_seconds * bandwidth.link_bandwidth(memory_mib, DEFAULT_SCAN_CONNECTIONS)
    )
    return min(widest, -(-estimated_bytes // max(1, break_even_bytes)))


class ShuffleJoinCoordinator:
    """Schedules a shuffle DAG as a scan wave + as few join waves as its
    build sides allow.

    Accepts any shuffle physical plan (:class:`JoinPhysicalPlan` is
    normalised through ``as_dag()`` into a one-stage
    :class:`~repro.plan.physical.DagPhysicalPlan`):

    1. **scan wave** — every relation's fleet in one wave: scan, per-side
       pushed-down filter, projection (and, for an aggregating fragment, the
       map-side partial aggregation), repartition by that fragment's
       partition keys through the write-combined exchange (one combined PUT
       per mapper, offsets in the key);
    2. **join waves** — behind the scan barrier the driver knows every build
       side's exact size and groups consecutive stages into waves
       (:func:`_group_join_waves`): a stage whose build side is cheaper to
       read whole than a wave is to run joins *in place*, inside the wave of
       the stage before it.  The number of hash partitions — join workers
       per wave — is one priced decision per query (:func:`exchange_fan_out`):
       the smallest count whose share of the plan's
       ``estimated_exchange_bytes`` streams within the fixed time the model
       charges a join worker, never more than the widest scan fleet, which
       is also what a plan of unknown size gets; ``num_workers`` overrides
       it.  One worker per hash partition of the wave's probe input reads,
       in one fetch plan, its slice of the probe side and of the first
       stage's build side plus the whole of every fused (broadcast) build
       side (the combined paths ride through the driver barrier, so
       discovery costs zero requests), runs the stages' joins
       with :func:`~repro.engine.join.hash_join` — build key restored,
       residual applied, columns pruned per stage — then either *emits*,
       scattering by the next wave's probe key under the intermediate tag
       ``J{k}``, or, after the final stage, computes the partial aggregates
       placed above the join.  A plan without stages runs exactly one such
       wave with no join in it: the partial aggregation over the fetched
       slices is the merge of the mappers' partials;
    3. **driver scope** — merge the disjoint partials, finalise derived
       aggregates, order, and limit.

    Every wave's inputs are deleted by their announced paths as soon as the
    wave completes (DELETE is unmetered), so peak exchange storage is the
    live waves' inputs and a clean query issues no LIST at all.  Only a query
    that saw a retry, hedge, fallback or injected fault ends with a LIST
    sweep of its exchange and result prefixes: a superseded attempt may have
    left objects no announcement names.

    The overload-control context (PR 9) is armed per query: the driver passes
    its cancellation token, breaker board, retry budget, and modelled
    now-function to :meth:`execute`, and every wave and spill read threads
    them into :func:`~repro.driver.dispatch.run_fleet` /
    :func:`~repro.driver.resilience.call_with_backoff`.
    """

    #: What this coordinator's waves are called (see :class:`WaveNames`).
    names = JOIN_WAVES

    #: Per-query overload context; ``None`` on plain (pre-PR-9) calls.
    _cancel = None
    _breakers = None
    _budget = None
    _now_fn = None

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
        # The handlers are stateless (per-query naming is derived from the
        # event), so coordinators sharing an environment can interleave.
        env.lambda_service.deploy(
            FunctionConfig(name=self.names.map_function, memory_mib=memory_mib),
            _make_map_handler(env),
        )
        env.lambda_service.deploy(
            FunctionConfig(name=self.names.reduce_function, memory_mib=memory_mib),
            _make_reduce_handler(env),
        )

    # -- execution ------------------------------------------------------------------

    def _map_mode(self, side: str, worker_id: int) -> bool:
        """Whether mapper ``worker_id`` of ``side`` write-combines its
        partitions.

        The default applies the coordinator's configuration uniformly;
        subclasses (and the mixed-format parity tests) may vary it per
        mapper — the consuming wave handles both formats within one query.
        """
        return self.config.write_combining

    def _writes_combined(self, side: str, worker_id: int) -> bool:
        """What the scan wave asks per mapper; the aggregation facade answers
        from its one-fleet :meth:`_map_mode` signature."""
        return self._map_mode(side, worker_id)

    def _arm_overload(self, cancel=None, breakers=None, budget=None, now_fn=None):
        """Install the per-query overload context (cleared by the caller)."""
        self._cancel = cancel
        self._breakers = breakers
        self._budget = budget
        self._now_fn = now_fn

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
        """Run one wave through :func:`~repro.driver.dispatch.run_fleet`;
        one ok message per event, in wave-key order.

        ``events`` maps wave keys ``(side, worker_id)`` to invocation payloads
        carrying ``"attempt": 0``.  Workers that failed or never reported are
        re-invoked up to ``policy.max_attempts`` times; ``on_retry`` lets the
        coordinator degrade a retry (combined → legacy).  A worker still
        failing then raises :class:`~repro.errors.WorkerFailedError` with its
        full attempt history.  The armed overload context threads through:
        the cancellation token is checked at dispatch and at every poll, and
        the Invoke requests themselves are breaker-aware (a brownout fleet
        cap rejecting invocations is retried with backoff, not fatal).
        """
        policy = self.resilience_policy
        redispatch = False

        def transport(payloads: List[Dict], by_key: Dict) -> None:
            nonlocal redispatch
            if redispatch:
                resilience.wave_retries += 1
            redispatch = True
            for payload in payloads:
                call_with_backoff(
                    self.env.lambda_service.invoke, function_name, payload,
                    policy=policy, rng=self._jitter_rng, stats=resilience,
                    retry_on=TRANSIENT_CLOUD_ERRORS, breakers=self._breakers,
                    budget=self._budget, now_fn=self._now_fn,
                )
            collect_results(
                self.env.sqs, self.result_queue, query_id,
                current_attempts(events), by_key, what, resilience=resilience,
                verify=self.config.integrity.verify, integrity=integrity,
                cancel=self._cancel,
            )

        attempt_log = AttemptLog()
        by_key = run_fleet(
            events, transport, max(1, policy.max_attempts), policy,
            self._jitter_rng, resilience,
            FleetLabels(dispatch=f"{what} dispatch", retry=what, budget="wave_retries"),
            attempt_log, integrity=integrity, cancel=self._cancel,
            budget=self._budget, on_retry=on_retry,
        )
        failed = failed_keys(events, by_key)
        if failed:
            _, worker_id = failed[0]
            error = by_key.get(failed[0], {}).get("error") or NO_RESULT_ERROR
            history = attempt_log.for_worker(worker_id) + [
                {"attempt": int(events[failed[0]].get("attempt", 0)), "error": error}
            ]
            raise WorkerFailedError(worker_id, f"{what}: {error}", attempts=history)
        return [by_key[key] for key in sorted(by_key)]

    def _degrade_map_retry(self, resilience: ResilienceStats):
        """Retry hook flipping a repeatedly-failing writer to the legacy plane.

        A mapper whose combined write keeps failing (e.g. throttles or
        crash-after-PUT aimed at its one big object) degrades to the legacy
        one-object-per-receiver format from
        ``policy.combined_fallback_attempt`` on — the consuming wave handles
        mixed formats within one query, so correctness is unaffected.
        """

        def on_retry(key, retry: Dict, error: str) -> None:
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
        for this query; a cancellation raised mid-wave garbage-collects every
        tag's exchange objects (scan sides and intermediates alike — they
        all live under the query prefix) and purges the query's result-queue
        messages before propagating.
        """
        dag = physical.as_dag()
        fleets: Dict[str, JoinSidePlan] = dict(dag.sides())
        build_tags = [tag for tag in fleets if tag != "L"]
        inter_tags = [f"J{k}" for k in range(len(dag.stages) - 1)]

        paths: Dict[str, List[str]] = {}
        for tag, plan in fleets.items():
            expanded = expand_glob_paths(self.env.s3, plan.files)
            if not expanded:
                label = "left" if tag == "L" else "right"
                raise ExecutionError(f"join {label} side has no input files")
            paths[tag] = expanded

        mappers = {
            tag: min(num_workers or len(paths[tag]), len(paths[tag]))
            for tag in fleets
        }
        num_partitions = exchange_fan_out(
            self.env.bandwidth, self.memory_mib, dag.estimated_exchange_bytes,
            list(mappers.values()), num_workers,
        )

        query_id = uuid.uuid4().hex[:12]
        for bucket in _exchange_buckets(self.num_buckets):
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
            _gc_cancelled_query(self.env, query_id, self.num_buckets, self.result_queue)
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
        faults_before = fault_snapshot(self.env)

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
                    "write_combining": self._writes_combined(tag, worker_id),
                    "fast_codec": self.config.fast_codec,
                    "compression": self.config.compression.value,
                    "num_buckets": self.num_buckets,
                    "integrity": self.config.integrity.to_dict(),
                }
        map_messages = self._wave(
            self.names.map_function, map_events, query_id, self.names.map_label,
            resilience, on_retry=self._degrade_map_retry(resilience),
            integrity=integrity_stats,
        )

        rows_scanned = sum(message.get("rows_scanned", 0) for message in map_messages)
        objects_written = sum(message.get("partitions_written", 0) for message in map_messages)

        # -- join waves (grouped from the announced sizes, chained through the
        # exchange) ------------------------------------------------------------------
        announced = {
            tag: [m for m in map_messages if m.get("side") == tag] for tag in fleets
        }
        build_sides = [_sender_spec(tag, announced[tag]) for tag in build_tags]
        wave_stages = _group_join_waves(
            self.env, build_sides, num_partitions, self.memory_mib
        )
        probe_tag, probe_messages = "L", announced["L"]
        reduce_waves: List[List[Dict]] = []
        objects_read = 0
        gc_deleted = 0
        for wave in wave_stages:
            final = wave is wave_stages[-1]
            side = f"S{len(reduce_waves)}"
            event = {
                "query_id": query_id,
                "side": side,
                "attempt": 0,
                "num_partitions": num_partitions,
                "probe": _sender_spec(probe_tag, probe_messages),
                "steps": [
                    {
                        "left_key": dag.stages[k].left_key,
                        "right_key": dag.stages[k].right.key,
                        "build": build_sides[k],
                        "broadcast": k != wave[0],
                        "suffix": dag.stages[k].suffix,
                        "restore_right_key": dag.stages[k].restore_right_key,
                        "residual_predicate": expression_to_dict(
                            dag.stages[k].residual_predicate
                        ),
                        "output_columns": list(dag.stages[k].output_columns),
                    }
                    for k in wave
                ],
                "group_by": list(dag.group_by) if final else [],
                "aggregates": (
                    [spec.to_dict() for spec in dag.aggregates] if final else []
                ),
                "collect_rows": dag.driver.collect_rows if final else False,
                "emit": None if final else {
                    "tag": inter_tags[wave[-1]],
                    "key": dag.stages[wave[-1] + 1].left_key,
                    "num_partitions": num_partitions,
                },
                "spill_stem": self.names.spill_stem,
                "result_queue": self.result_queue,
                "num_buckets": self.num_buckets,
                "integrity": self.config.integrity.to_dict(),
                "write_combining": self.config.write_combining,
                "fast_codec": self.config.fast_codec,
                "compression": self.config.compression.value,
            }
            if final:
                what = self.names.reduce_label
            elif len(wave) == 1:
                what = f"join stage {wave[0]}"
            else:
                what = f"join stages {wave[0]}-{wave[-1]}"
            reduce_messages = self._wave(
                self.names.reduce_function,
                {
                    (side, partition): {**event, "partition": partition}
                    for partition in range(num_partitions)
                },
                query_id, what, resilience,
                on_retry=None if final else self._degrade_map_retry(resilience),
                integrity=integrity_stats,
            )
            reduce_waves.append(reduce_messages)
            objects_read += sum(m.get("objects_read", 0) for m in reduce_messages)
            # The wave has folded: nothing reads its inputs again.
            consumed = [(probe_tag, probe_messages)]
            consumed.extend((build_tags[k], announced[build_tags[k]]) for k in wave)
            for tag, messages in consumed:
                gc_deleted += _delete_consumed_outputs(
                    self.env, messages, num_partitions,
                    lambda attempt, tag=tag: _join_legacy_naming(
                        query_id, tag, self.num_buckets, attempt
                    ),
                )
            if not final:
                objects_written += sum(
                    m.get("partitions_written", 0) for m in reduce_messages
                )
                probe_tag, probe_messages = inter_tags[wave[-1]], reduce_messages

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
        for message in reduce_waves[-1]:
            if "result_s3" in message:
                message["frame"] = fetch_spilled_result(
                    self.env.s3, message, self.config.integrity.verify,
                    integrity_stats, policy=self.resilience_policy,
                    rng=self._jitter_rng, stats=resilience, breakers=self._breakers,
                    budget=self._budget, now_fn=self._now_fn,
                )
        result = merge_driver_scope(
            [message["frame"] for message in reduce_waves[-1]],
            dag.driver, dag.group_by, dag.aggregates, dag.project,
        )

        # The final wave is folded: its spilled results have no reader left.
        gc_deleted += _delete_consumed_outputs(self.env, reduce_waves[-1], num_partitions)
        resilience.faults_injected = fault_delta(self.env, faults_before)
        # The request fee of every superseded attempt bought nothing.
        resilience.wasted_cost_dollars += self.env.ledger.prices.lambda_invocation_cost(
            resilience.retries
        )
        gc_lists = 0
        if not resilience.clean:
            # A superseded attempt (crash after PUT, hedge loser, degraded
            # retry) may have left objects no announcement names: exchange
            # objects on either naming plane, or a spilled result.
            swept, gc_lists = _gc_query_objects(self.env, query_id, self.num_buckets)
            gc_deleted += swept

        statistics = JoinStatistics(
            left_map_workers=len(assignments["L"]),
            right_map_workers=sum(
                len(workers) for tag, workers in assignments.items() if tag != "L"
            ),
            reduce_workers=num_partitions * len(wave_stages),
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
            dag_stages=len(dag.stages),
            wave_stages=wave_stages,
            gc_objects_deleted=gc_deleted,
            gc_list_requests=gc_lists,
            results_spilled=sum("result_s3" in message for message in reduce_waves[-1]),
            exchange_partitions=num_partitions,
            estimated_exchange_bytes=dag.estimated_exchange_bytes,
        )
        return result, statistics, worker_results


class ShuffleAggregateCoordinator(ShuffleJoinCoordinator):
    """Repartitioned (two-wave) group-by aggregation: a facade over the DAG
    coordinator.

    :meth:`execute` lowers the group-by to a zero-stage
    :class:`~repro.plan.physical.DagPhysicalPlan` — the base fragment carries
    the map-side partial aggregation and partitions by all group keys, the
    plan's ``aggregates`` merge the partials — runs it on the inherited
    waves, and repackages the run as :class:`ShuffleStatistics`.  Only the
    names of its waves differ (:data:`AGGREGATE_WAVES`).
    """

    names = AGGREGATE_WAVES

    def __init__(
        self,
        env: CloudEnvironment,
        memory_mib: int = 2048,
        num_buckets: int = 10,
        result_queue: str = SHUFFLE_RESULT_QUEUE,
        config: Optional[ShuffleConfig] = None,
        resilience_policy: Optional[ResiliencePolicy] = None,
    ):
        super().__init__(
            env, memory_mib, num_buckets, result_queue, config, resilience_policy
        )

    def _map_mode(self, worker_id: int) -> bool:
        """Whether mapper ``worker_id`` write-combines its partitions (see
        :meth:`ShuffleJoinCoordinator._map_mode`; there is one fleet)."""
        return self.config.write_combining

    def _writes_combined(self, side: str, worker_id: int) -> bool:
        return self._map_mode(worker_id)

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

        The facade's own signature: it takes the group-by, not the physical
        plan :meth:`ShuffleJoinCoordinator.execute` takes.  ``columns`` is the
        scan projection; left ``None`` it is derived as the group keys plus
        every column an aggregate or the predicate references.
        ``cancel``/``breakers``/``budget``/``now_fn`` arm the overload plane
        for this query, as there.
        """
        paths = expand_glob_paths(self.env.s3, paths)
        if not paths:
            raise ExecutionError("shuffle aggregation has no input files")
        if not group_by:
            raise ExecutionError("shuffle aggregation requires group-by keys")
        group_by = list(group_by)
        partials, finals = _decompose_aggregates(list(aggregates))
        if columns is None:
            # Projection push-down: scan only what the query references.
            needed = set(group_by)
            for expression in [predicate] + [spec.expression for spec in partials]:
                if expression is not None:
                    needed |= referenced_columns(expression)
            columns = sorted(needed)
        dag = DagPhysicalPlan(
            base=JoinSidePlan(
                files=paths,
                key=group_by[0],
                columns=list(columns),
                predicate=predicate,
                group_by=group_by,
                aggregates=partials,
            ),
            stages=[],
            driver=DriverPlan(
                group_by=group_by,
                final_aggregates=finals,
                order_by=list(order_by or []),
            ),
            group_by=group_by,
            # Partial sums and counts add up; mins/maxes merge with themselves.
            aggregates=[
                AggregateSpec(
                    "sum" if spec.function == "count" else spec.function,
                    col(spec.alias),
                    spec.alias,
                )
                for spec in partials
            ],
        )
        # One reducer per mapper, never more mappers than files.
        table, run, worker_results = super().execute(
            dag,
            num_workers=min(num_workers or len(paths), len(paths)),
            cancel=cancel, breakers=breakers, budget=budget, now_fn=now_fn,
        )
        costs = join_costs(self.env.ledger.prices, self.memory_mib, run, worker_results)
        return table, ShuffleStatistics(
            map_workers=run.left_map_workers,
            reduce_workers=run.reduce_workers,
            rows_scanned=run.rows_scanned,
            partition_objects_written=run.partition_objects_written,
            partition_objects_read=run.partition_objects_read,
            result_rows=run.result_rows,
            exchange=run.exchange,
            modelled_map_seconds=run.modelled_map_seconds,
            modelled_reduce_seconds=run.modelled_reduce_seconds,
            resilience=run.resilience,
            integrity=run.integrity,
            cost_total=sum(costs.values()),
        )
