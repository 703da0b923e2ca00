"""The query coordinator: every plan as waves over one exchange.

Every query, lowered to a :class:`~repro.plan.physical.DagPhysicalPlan`, runs
through :class:`ShuffleJoinCoordinator` as barriered waves of function
invocations with one wave body — :meth:`repro.driver.dispatch.QueryContext.wave`,
the one way every fleet runs (retries, hedges, fold), over the query
context's Lambda + SQS transport — one scan handler
(:func:`~repro.driver.worker.make_worker_handler`) and one reduce handler.
A scan (a plan without joins) has no exchange: its scan wave is the final
wave, its workers return their partials to the driver, and the driver runs
that wave on its own transport (the process pool, or Lambda + SQS launched
in the priced shape).  Joins and high-cardinality group-bys repartition data
among the serverless workers through S3 — the paper's exchange operator
(§4.4):

* **scan wave** — every base relation's fleet at once, each as many mappers
  as its stored bytes are worth (:func:`scan_fan_out`: one per driver
  invocation interval's worth of streaming, at most one per file; a scan's
  one fleet keeps a worker per file).  A mapper
  opens its files as one pipelined batch and scans them with the fragment's
  pushed-down predicate and projection (a fragment that carries a group-by
  folds the map-side partial aggregation into the scan), hash-partitions the
  rows by the fragment's partition keys and ships them through the
  write-combined exchange: all partitions serialised into **one** combined
  object at ``{attempt prefix}{tag}/sender-{n}``
  (:class:`~repro.exchange.naming.WriteCombiningNaming`) via
  :func:`~repro.exchange.fetch.write_combined`, empty partitions
  occupying zero bytes — at most one PUT per mapper (none when its predicate
  kept no row), O(P) per fleet however wide it is.  The per-receiver byte
  offsets and slice crcs ride in the mapper's result message (under its
  digest), not in the key, so no fleet width reaches the S3 key limit;
* **0…k join waves** — the exchange has as many hash partitions as its
  bytes keep streaming (:func:`exchange_fan_out`: the catalog's stored size
  of every relation against the fixed time a join worker costs, at most one
  per file of the largest relation); one worker per hash partition builds one
  :class:`~repro.exchange.fetch.FetchPlan` from the manifests the barrier
  before it announced (the offset directories travel with them, so
  discovery costs **zero** requests), issues it as one batch — one ranged
  GET per non-empty slice, charged as a single pipelined transfer — and runs
  the wave's join steps with :func:`~repro.engine.join.hash_join`.  A DAG's
  stages are grouped into as few waves as its build sides allow: a stage
  whose build side is cheaper to read whole than a wave is to run is fused
  into the wave before it as a broadcast join (:func:`_group_join_waves`).
  A non-final wave re-emits its rows by the next wave's probe key; the final
  wave computes the plan's partial aggregates and returns them to the driver
  through SQS (spilling to S3 when large);
* **driver scope** — merge the partials (or fold a ``reduce(fn)`` plan's
  values), finalise derived aggregates (``avg``), order, limit.

A repartitioned aggregation is the **k = 0** case: the base fragment
aggregates, the final wave has no join step, and its ``aggregates`` are the
merge functions (sum of sums, min of mins) — so the reduce side is the join
wave's own partial aggregation over the fetched slices.
:class:`ShuffleAggregateCoordinator` is the facade that lowers a group-by to
that plan and returns the run's :class:`~repro.driver.spans.QueryStatistics` —
the one run record every query reports; what its waves are *called*
(functions, stage labels, spill-key stem) is data (:class:`WaveNames`), not a
second code path.

Every worker notes its rows, requests and bytes into a counter record of
its own (:mod:`repro.counters`), shipped inside its
:class:`~repro.engine.pipeline.WorkerResult`; each wave's accepted results
are added to the query's record, which the returned statistics read.  Every
wave's inputs, and the final wave's spilled results, are deleted by their
announced paths as soon as the wave has folded, so a clean query issues no
LIST at all; only a query
that saw a retry or injected fault ends with a LIST sweep of its exchange and
result prefixes for the objects of superseded attempts.

A query runs under one :class:`~repro.driver.dispatch.QueryContext` — the
driver's, or one the coordinator opens — so its waves, Invokes and spilled
result reads share one jitter stream, one breaker board, one retry budget and
one cancellation token, and a typed abort sweeps the query's exchange.
"""

from __future__ import annotations

import dataclasses
import functools
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import FunctionConfig, InvocationContext
from repro.cloud.network import BandwidthModel
from repro.cloud.s3 import parse_s3_path
from repro.config import DEFAULT_SCAN_CONNECTIONS, INVOCATION_RATE_DRIVER, MiB
from repro.counters import Counts, LayerView
from repro.driver import spans
from repro.driver.dispatch import FleetLabels, QueryContext
from repro.driver.integrity import RESULT_BUCKET, post_result
from repro.driver.invocation import LaunchPlan
from repro.driver.resilience import DEFAULT_RESILIENCE_POLICY, ResiliencePolicy
from repro.driver.spans import QueryStatistics
from repro.driver.worker import _charge_worker, _emit, _join_map_naming, make_worker_handler
from repro.engine.aggregates import finalize_aggregates, merge_partials, partial_aggregate
from repro.engine.join import hash_join
from repro.engine.payload import decode_table, encode_table
from repro.engine.pipeline import WorkerResult
from repro.engine.table import (
    Table,
    concat_tables,
    filter_table,
    select_columns,
    sort_table,
    table_num_rows,
)
from repro.errors import CloudError, ExecutionError, NoSuchBucketError, WorkerCrashError
from repro.exchange.fetch import FetchPlan, SenderManifest, sender_entries
from repro.plan.expressions import (
    col,
    evaluate,
    expression_from_dict,
    expression_to_dict,
    referenced_columns,
)
from repro.plan.logical import AggregateSpec
from repro.plan.optimizer import _decompose_aggregates
from repro.plan.physical import DagPhysicalPlan, DriverPlan, WorkerPlan, resolve_udf

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

@dataclass(frozen=True)
class ScanWave:
    """Where a plan's scan wave runs.

    The deployed scan function and the result queue its workers report to,
    the event fields they need beside their fragment, and ``fleet(events)``,
    a context manager yielding the fleet's transport and labels for
    :meth:`~repro.driver.dispatch.QueryContext.wave`.  A coordinator runs a
    DAG's scan wave flat on its own map function; the driver runs a scan's —
    the plan's final wave — on its own transport.
    """

    function: str
    queue: str
    fleet: Callable[[Dict], ContextManager[Tuple[Callable, FleetLabels]]]
    fields: Dict[str, Any] = field(default_factory=dict)


def _expand_globs(list_objects, paths: Sequence[str]) -> Tuple[List[str], Dict[str, int]]:
    """Expand the glob patterns among ``paths``, one ``list_objects(bucket,
    prefix)`` call each: the files in order, and the stored size of every
    file a glob matched.

    Globs over missing buckets expand to nothing (the caller then reports
    "no input files"), mirroring how a CLI glob over a missing directory
    behaves.
    """
    files: List[str] = []
    sizes: Dict[str, int] = {}
    for path in paths:
        if "*" not in path:
            files.append(path)
            continue
        bucket, pattern = parse_s3_path(path)
        prefix, _, suffix = pattern.partition("*")
        try:
            metas = list_objects(bucket, prefix)
        except NoSuchBucketError:
            continue
        matches = [meta for meta in metas if meta.key.endswith(suffix)]
        files.extend(meta.path for meta in matches)
        sizes.update((meta.path, meta.size) for meta in matches)
    return files, sizes


def expand_glob_paths(s3, paths: Sequence[str]) -> List[str]:
    """Expand glob patterns against the object store, one LIST each."""
    return _expand_globs(s3.list_objects, paths)[0]


def list_input_files(
    s3, paths: Sequence[str], call: Optional[Callable] = None
) -> Tuple[List[str], int]:
    """Expand ``paths`` like :func:`expand_glob_paths` and sum the stored
    bytes of the files from listings: ``(files, stored bytes)``.

    A glob's own LIST returns its matches' sizes; the explicit paths cost one
    LIST per distinct directory, of whose objects only the ones they name
    count.  Every LIST is issued as ``call(s3.list_objects, bucket, prefix)``
    when given — a query's :meth:`~repro.driver.dispatch.QueryContext.call`,
    retrying with backoff — and directly otherwise.  A file in a missing
    bucket sizes as 0 bytes.
    """
    listing = s3.list_objects
    if call is not None:
        listing = functools.partial(call, s3.list_objects)
    files, sizes = _expand_globs(listing, paths)
    for directory in sorted({path.rpartition("/")[0] for path in files if path not in sizes}):
        bucket, prefix = parse_s3_path(directory + "/")
        try:
            sizes.update((meta.path, meta.size) for meta in listing(bucket, prefix))
        except NoSuchBucketError:
            pass
    return files, sum(sizes.get(path, 0) for path in files)


def _gc_query_objects(env: CloudEnvironment, query_id: str, num_buckets: int) -> tuple:
    """Sweep every object a query's attempts wrote.

    All attempt prefixes and all side/stage tags live under ``{query_id}/``
    in the shuffle buckets, and every spilled result under the same prefix
    of the result bucket, so one LIST per
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


def _delete_consumed_outputs(env: CloudEnvironment, messages: Sequence[Dict]) -> int:
    """Delete the objects the senders of fully-folded waves announced.

    By path, not by LIST: the driver holds every accepted ``combined_path``
    and spilled ``result_s3``.  DELETE is unmetered, so this costs no
    request.  Returns the number of objects deleted.
    """
    deleted = 0
    for message in messages:
        for name in ("combined_path", "result_s3"):
            if name in message:
                env.s3.delete_object(*parse_s3_path(message[name]))
                deleted += 1
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


def _exchange_buckets(num_buckets: int) -> List[str]:
    """Buckets of the exchange; every query and every exchange tag shares
    them (only the key prefix differs).  A scan query has no exchange: zero
    buckets."""
    return _join_map_naming("", "", num_buckets).buckets() if num_buckets else []


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
            post_result(env, event["result_queue"], message)
            return message

    return handler


def _reduce_compute_seconds(objects_read: int) -> float:
    """Modelled merge/probe time of a reduce-side worker: a fixed start-up
    share plus a per-slice decode cost."""
    return 0.1 + 0.001 * objects_read


def _fetch_partition(
    env: CloudEnvironment,
    context: InvocationContext,
    manifests: Sequence[SenderManifest],
    partition: int,
    num_partitions: int,
    counts: Counts,
) -> tuple:
    """Plan and fetch ``partition``'s slices of every input side.

    Returns ``(pieces per side, slices read, modelled fetch seconds)``.
    """
    plan = FetchPlan.build(manifests, partition, num_partitions, counts)
    pieces, fetch_seconds = plan.fetch(env.s3, env.bandwidth, context.memory_mib, counts)
    return pieces, plan.slices, fetch_seconds


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
    one fetch plan issued as a single batch (every sender's offset directory
    was announced through the driver barrier, so discovery costs nothing).
    After the last step the worker either re-emits by the next wave's probe
    key, or computes the partial
    aggregates placed above the join and returns them (or the joined rows
    for aggregate-free queries) to the driver.
    """

    def handler(event: Dict, context: InvocationContext) -> Dict:
        query_id = event["query_id"]
        partition = event["partition"]
        attempt = int(event.get("attempt", 0))
        counts = Counts()
        steps = event["steps"]

        pieces, slices_read, fetch_seconds = _fetch_partition(
            env, context,
            [SenderManifest(event["probe"])]
            + [SenderManifest(step["build"], bool(step.get("broadcast"))) for step in steps],
            partition, event["num_partitions"], counts,
        )
        joined, *builds = (
            concat_tables(side_pieces) if side_pieces else {} for side_pieces in pieces
        )
        for step, build in zip(steps, builds):
            counts.note("join", "probe_rows", table_num_rows(joined))
            counts.note("join", "build_rows", table_num_rows(build))
            joined = _join_step(joined, build, step)
            counts.note("join", "output_rows", table_num_rows(joined))

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
            emit = event["emit"]
            message.update(_emit(
                env, event, partition, joined, [emit["key"]],
                int(emit.get("num_partitions", event["num_partitions"])), emit["tag"],
                counts,
            ))
        else:
            # With no joined rows the partial aggregate still emits the right
            # (empty) columns.
            partial_table = joined if event.get("collect_rows") else partial_aggregate(
                joined,
                list(event["group_by"]),
                [AggregateSpec.from_dict(item) for item in event["aggregates"]],
            )
            frame = encode_table(partial_table)
        modelled_seconds = _charge_worker(
            env, context, _reduce_compute_seconds(slices_read), counts, fetch_seconds
        )
        message["result"] = WorkerResult(
            counters=counts, duration_seconds=modelled_seconds
        ).to_payload()

        # Only result rows can spill: an emit announcement is header fields,
        # which reach the driver in the message itself (they hold the path
        # the next wave reads).
        post_result(
            env, event["result_queue"], message, frame,
            f"{query_id}/{event['spill_stem']}-{partition}.a{attempt}",
        )
        return message

    return _guarded(env, handler)


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
    order_by = list(driver_plan.order_by)
    # The merge emits its groups in ascending key order: an ascending prefix
    # of the group keys is already sorted, and a stable sort would not move.
    if order_by and (
        driver_plan.collect_rows or driver_plan.descending
        or order_by != list(group_by[: len(order_by)])
    ):
        table = sort_table(table, order_by, driver_plan.descending)
    if driver_plan.limit is not None:
        table = {name: np.asarray(column)[: driver_plan.limit] for name, column in table.items()}
    return table


def fold_reduce_values(ref: str, results: Sequence[WorkerResult]) -> Optional[Any]:
    """Driver scope of a ``reduce(fn)`` plan: fold the workers' values with
    the registered ``fn`` (``None`` when no worker had a value)."""
    values = [result.reduce_value for result in results if result.reduce_value is not None]
    return functools.reduce(resolve_udf(ref), values) if values else None


#: Share of a join worker's memory the broadcast build sides of one wave may
#: fill, counted in announced (encoded) bytes: the decoded columns — narrowed
#: keys and decimals widen back to 8 bytes a value — and the join's working
#: set need the rest.
BROADCAST_MEMORY_FRACTION = 0.125


def _group_join_waves(
    env: CloudEnvironment,
    build_sides: Sequence[Sequence],
    num_partitions: int,
    memory_mib: int,
) -> List[List[int]]:
    """Group a DAG's consecutive join stages into waves, from what the scan
    wave announced.

    ``build_sides[k]`` is stage ``k``'s build-side sender spec (none at all
    for a repartitioned aggregation, which runs one wave that joins
    nothing).  A wave starts at a stage whose probe input is partitioned by
    that stage's key (stage 0 always is) and absorbs the following stages for
    as long as their build side can be *broadcast*: reading and decoding the
    whole side costs a worker less modelled time than the wave the fusion
    removes — a reduce worker's fixed share, one emit PUT and one
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
        plan = FetchPlan.build(
            [SenderManifest(build_sides[stage], broadcast=True)],
            0, num_partitions, Counts(),
        )
        transfer = plan.transfer_plan(memory_mib)
        broadcast_seconds = (
            env.bandwidth.transfer_seconds(transfer)
            + _reduce_compute_seconds(plan.slices)
            - _reduce_compute_seconds(0)
        )
        if (
            fused_bytes + transfer.total_bytes <= budget
            and broadcast_seconds < removed_wave_seconds
        ):
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
    files: Sequence[int],
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
    file count of the largest relation (``files`` holds every fleet's),
    which is also the answer when the bytes are unknown
    (``estimated_bytes == 0``).  An explicit ``num_workers`` wins.  One
    number per query: step 0 of every wave is co-partitioned with a scan
    fleet.
    """
    if num_workers:
        return num_workers
    widest = max(files)
    if estimated_bytes <= 0:
        return widest
    fixed_seconds = _reduce_compute_seconds(0) + bandwidth.request_latency_seconds
    break_even_bytes = int(
        fixed_seconds * bandwidth.link_bandwidth(memory_mib, DEFAULT_SCAN_CONNECTIONS)
    )
    return min(widest, -(-estimated_bytes // max(1, break_even_bytes)))


def scan_fan_out(
    bandwidth: BandwidthModel,
    memory_mib: int,
    input_bytes: int,
    files: int,
    num_workers: Optional[int] = None,
    region: str = "eu",
) -> int:
    """Mappers one scan fleet of a shuffle DAG starts (the paper's W for F
    files per worker, Fig. 10).

    Every mapper adds one driver invocation interval to the launch (Table 1:
    ``1 / driver_rate`` of the region the driver's
    :class:`~repro.driver.invocation.InvocationModel` prices), so a mapper
    pays off only for the bytes it streams in that interval:
    ``break_even = link bandwidth / driver_rate`` — ≈ 0.83 MB for a 2 GiB
    worker in ``eu``.  The fleet starts ``⌈input_bytes / break_even⌉``
    mappers, at most one per file (as many as the paper's 500 MB files give);
    a mapper dealt several files opens them as one pipelined batch
    (:meth:`~repro.engine.scan.S3ScanOperator.scan`).  Unknown bytes
    (``input_bytes == 0``: a hand-built plan) keep one mapper per file, and
    an explicit ``num_workers`` caps the fleet at that many instead.
    """
    if num_workers:
        return min(num_workers, files)
    if input_bytes <= 0:
        return files
    break_even_bytes = int(
        bandwidth.link_bandwidth(memory_mib, DEFAULT_SCAN_CONNECTIONS)
        / INVOCATION_RATE_DRIVER[region]
    )
    return min(files, -(-input_bytes // max(1, break_even_bytes)))


class ShuffleJoinCoordinator:
    """The one executor: schedules a plan as a scan wave + as few join waves
    as its build sides allow.

    Runs a :class:`~repro.plan.physical.DagPhysicalPlan` as it is — a query
    with one join is its one-stage case, a repartitioned aggregation its
    zero-stage case, and a scan its zero-stage case without exchange, whose
    scan wave is the final wave (step 1 without the repartition, then
    step 3):

    1. **scan wave** — every relation's fleet in one wave, sized from the
       relation's stored bytes (:func:`scan_fan_out`; one mapper per file
       when the plan does not know them, at most ``num_workers`` when given):
       scan, per-side pushed-down filter, projection (and, for an aggregating
       fragment, the map-side partial aggregation), repartition by that fragment's
       partition keys through the write-combined exchange (one combined PUT
       per mapper that kept a row, its offset directory announced in the
       result message);
    2. **join waves** — behind the scan barrier the driver knows every build
       side's exact size and groups consecutive stages into waves
       (:func:`_group_join_waves`): a stage whose build side is cheaper to
       read whole than a wave is to run joins *in place*, inside the wave of
       the stage before it.  The number of hash partitions — join workers
       per wave — is one priced decision per query (:func:`exchange_fan_out`):
       the smallest count whose share of the plan's
       ``estimated_exchange_bytes`` streams within the fixed time the model
       charges a join worker, never more than the largest relation's file
       count, which is also what a plan of unknown size gets;
       ``num_workers`` overrides it.  One worker per hash partition of the wave's probe input reads,
       in one fetch plan, its slice of the probe side and of the first
       stage's build side plus the whole of every fused (broadcast) build
       side (the announcements ride through the driver barrier, so
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
    that saw a retry, hedge or injected fault ends with a LIST sweep of its
    exchange and result prefixes: a superseded attempt may have left objects
    no announcement names.

    A query runs under one :class:`~repro.driver.dispatch.QueryContext`: the
    driver passes its own to :meth:`execute` (the token, breaker board and
    retry budget it opened), and every wave, Invoke and spill read goes
    through it.
    """

    #: What this coordinator's waves are called (see :class:`WaveNames`).
    names = JOIN_WAVES

    def __init__(
        self,
        env: CloudEnvironment,
        memory_mib: int = 2048,
        num_buckets: int = 10,
        result_queue: str = JOIN_RESULT_QUEUE,
        resilience_policy: Optional[ResiliencePolicy] = None,
    ):
        self.env = env
        self.memory_mib = memory_mib
        self.num_buckets = num_buckets
        self.result_queue = result_queue
        self.resilience_policy = resilience_policy or DEFAULT_RESILIENCE_POLICY
        env.sqs.create_queue(result_queue)
        # The handlers are stateless (per-query naming is derived from the
        # event), so coordinators sharing an environment can interleave.
        env.lambda_service.deploy(
            FunctionConfig(name=self.names.map_function, memory_mib=memory_mib),
            make_worker_handler(env),
        )
        env.lambda_service.deploy(
            FunctionConfig(name=self.names.reduce_function, memory_mib=memory_mib),
            _make_reduce_handler(env),
        )

    # -- execution ------------------------------------------------------------------

    def _stage(
        self, context: QueryContext, function_name: str, what: str
    ) -> Tuple[Callable, FleetLabels]:
        """The transport and labels of one wave of the query, run by
        ``context.wave``: flat on the context's Lambda + SQS transport, its
        retries (each writing under its own ``r{attempt}/`` prefix) charged to
        the ``wave_retries`` budget account, its failure named after the stage
        ``what``."""
        transport = context.lambda_transport(function_name, self.result_queue, what)
        return transport, FleetLabels(f"{what} dispatch", what, "wave_retries", stage=what)

    def _map_wave(self, context: QueryContext) -> "ScanWave":
        """The scan wave run flat on this coordinator's own map function and
        result queue."""
        return ScanWave(
            self.names.map_function, self.result_queue,
            lambda events: nullcontext(
                self._stage(context, self.names.map_function, self.names.map_label)
            ),
        )

    def execute(
        self,
        dag: DagPhysicalPlan,
        num_workers: Optional[int] = None,
        context: Optional[QueryContext] = None,
        final_scan: Optional["ScanWave"] = None,
        launch: Optional[Callable[[int], LaunchPlan]] = None,
    ):
        """Run the DAG plan; returns ``(table, statistics, worker_results)``.

        The base relation's fleet writes under the exchange tag ``"L"``, the
        build sides under ``"R"``, ``"R1"``, ... (so a one-join plan reads
        ``"L"``/``"R"``), and the intermediates of a multi-wave run under
        ``"J0"``, ``"J1"``, ....  A plan without exchange (a scan) runs its
        one wave through ``final_scan`` — the caller's function, queue and
        transport — or, without one, flat on this coordinator's map
        function; its fleet keeps one worker per file, at most
        ``num_workers``.  The run is placed on the modelled clock once: behind
        ``launch(workers)``, the priced start of the driver's query that
        passes it (:func:`~repro.driver.spans.place_scan` for a scan,
        :func:`~repro.driver.spans.place_dag` for a DAG), or on its own
        (:func:`~repro.driver.spans.place_run`: the aggregation facade, which
        launches nothing).

        The query runs under ``context`` — without one, under a context of
        its own with no breaker board, no retry budget and no token.  A
        typed abort raised mid-wave (cancellation, deadline, retry-budget
        exhaustion) garbage-collects every tag's exchange objects (scan sides
        and intermediates alike — they all live under the query prefix) and
        spilled results, and purges the result queue, before propagating.
        """
        context = context or QueryContext(self.env, self.resilience_policy)
        with context.scope():
            paths: Dict[str, List[str]] = {}
            for tag, plan in dag.sides():
                expanded = expand_glob_paths(self.env.s3, plan.files)
                if not expanded:
                    label = "left" if tag == "L" else "right"
                    raise ExecutionError(f"join {label} side has no input files")
                paths[tag] = expanded

            mappers = {
                tag: scan_fan_out(
                    self.env.bandwidth, self.memory_mib, dag.priced_bytes(plan),
                    len(paths[tag]), num_workers, self.env.region,
                )
                for tag, plan in dag.sides()
            }
            scan = self._map_wave(context) if dag.has_exchange or not final_scan else final_scan
            num_buckets = num_partitions = 0
            if dag.has_exchange:
                num_buckets = self.num_buckets
                num_partitions = exchange_fan_out(
                    self.env.bandwidth, self.memory_mib, dag.estimated_exchange_bytes,
                    [len(files) for files in paths.values()], num_workers,
                )
            for bucket in _exchange_buckets(num_buckets):
                self.env.s3.ensure_bucket(bucket)

            with context.teardown(
                lambda query_id: _gc_cancelled_query(
                    self.env, query_id, num_buckets, scan.queue
                )
            ):
                table, statistics, worker_results = self._execute_waves(
                    dag, paths, mappers, num_partitions, scan, context
                )
            backoff = statistics.resilience.backoff_seconds
            if launch is None:
                spans.place_run(context.trace, backoff)
            else:
                place = spans.place_dag if dag.has_exchange else spans.place_scan
                place(context.trace, launch(statistics.num_workers), backoff)
            return table, statistics, worker_results

    def _scan_events(
        self,
        dag: DagPhysicalPlan,
        paths: Dict[str, List[str]],
        mappers: Dict[str, int],
        num_partitions: int,
        scan: "ScanWave",
        query_id: str,
    ) -> Dict:
        """The scan wave's events: every fleet's files dealt round-robin to
        its mappers (:meth:`~repro.plan.physical.WorkerPlan.partition_files`;
        :func:`scan_fan_out` never returns more mappers than files), each
        fragment travelling through its own serialisation.  A fleet that
        feeds the exchange is keyed ``(tag, worker id)`` and names its side;
        a scan's workers are keyed by their id alone."""
        exchange = dag.has_exchange
        shared = {
            "query_id": query_id, "attempt": 0, "result_queue": scan.queue,
            **scan.fields,
        }
        events: Dict = {}
        for tag, plan in dag.sides():
            fragment = plan.to_dict()
            assignments = dataclasses.replace(plan, files=paths[tag]).partition_files(
                mappers[tag]
            )
            for worker_id, files in enumerate(assignments):
                event = {**shared, "worker_id": worker_id, "plan": {**fragment, "files": files}}
                if not exchange:
                    events[worker_id] = event
                    continue
                event.update(
                    side=tag,
                    num_partitions=num_partitions,
                    num_buckets=self.num_buckets,
                )
                events[tag, worker_id] = event
        return events

    def _execute_waves(
        self,
        dag: DagPhysicalPlan,
        paths: Dict[str, List[str]],
        mappers: Dict[str, int],
        num_partitions: int,
        scan: "ScanWave",
        context: QueryContext,
    ):
        """The wave body of :meth:`execute` (split out for the teardown)."""
        query_id = context.query_id
        resilience = LayerView(context.counters, "resilience")
        # What the caller already retried on this context (the facade's
        # LIST) is not this run's: it orphans nothing.
        context.note_faults()
        before = resilience.to_dict()

        # -- scan wave (every relation's fleet dispatched together) ----------------
        map_events = self._scan_events(dag, paths, mappers, num_partitions, scan, query_id)
        with scan.fleet(map_events) as (transport, labels):
            map_messages, worker_results = context.wave(
                map_events, transport, labels, self.memory_mib
            )
        objects_written = sum("combined_path" in message for message in map_messages)

        # -- join waves (grouped from the announced sizes, chained through the
        # exchange); a scan's scan wave is its final wave -----------------------------
        build_tags = [tag for tag, _ in dag.sides()[1:]]
        announced = {
            tag: [m for m in map_messages if m.get("side") == tag] for tag, _ in dag.sides()
        }
        build_sides = [sender_entries(announced[tag]) for tag in build_tags]
        wave_stages = (
            _group_join_waves(self.env, build_sides, num_partitions, self.memory_mib)
            if dag.has_exchange else []
        )
        probe_messages, final = announced["L"], map_messages
        objects_read = 0
        gc_deleted = 0
        for index, wave in enumerate(wave_stages):
            last = index == len(wave_stages) - 1
            side = f"S{index}"
            event = {
                "query_id": query_id,
                "side": side,
                "attempt": 0,
                "num_partitions": num_partitions,
                "probe": sender_entries(probe_messages),
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
                "group_by": list(dag.group_by) if last else [],
                "aggregates": (
                    [spec.to_dict() for spec in dag.aggregates] if last else []
                ),
                "collect_rows": dag.driver.collect_rows if last else False,
                "emit": None if last else {
                    "tag": f"J{wave[-1]}",
                    "key": dag.stages[wave[-1] + 1].left_key,
                    "num_partitions": num_partitions,
                },
                "spill_stem": self.names.spill_stem,
                "result_queue": self.result_queue,
                "num_buckets": self.num_buckets,
            }
            if last:
                what = self.names.reduce_label
            elif len(wave) == 1:
                what = f"join stage {wave[0]}"
            else:
                what = f"join stages {wave[0]}-{wave[-1]}"
            final, results = context.wave(
                {
                    (side, partition): {**event, "partition": partition}
                    for partition in range(num_partitions)
                },
                *self._stage(context, self.names.reduce_function, what), self.memory_mib,
            )
            worker_results += results
            objects_read += sum(m.get("objects_read", 0) for m in final)
            # The wave has folded: nothing reads its inputs again.
            for messages in [probe_messages] + [announced[build_tags[k]] for k in wave]:
                gc_deleted += _delete_consumed_outputs(self.env, messages)
            if not last:
                objects_written += sum("combined_path" in m for m in final)
                probe_messages = final

        # -- driver scope ------------------------------------------------------------
        context.fetch_spilled(final)
        for result, message in zip(worker_results[-len(final):], final):
            result.partial = message.get("frame")
        result = {} if dag.base.reduce_udf else merge_driver_scope(
            [message["frame"] for message in final],
            dag.driver, dag.group_by, dag.aggregates, dag.project,
        )

        # The final wave is folded: its spilled results have no reader left.
        gc_deleted += _delete_consumed_outputs(self.env, final)
        context.note_faults()
        faulted = resilience.to_dict() != before
        gc_lists = 0
        if faulted:
            # A superseded attempt (crash after PUT, hedge loser) may have
            # left objects no announcement names: exchange objects or a
            # spilled result.
            swept, gc_lists = _gc_query_objects(
                self.env, query_id, self.num_buckets if dag.has_exchange else 0
            )
            gc_deleted += swept

        statistics = QueryStatistics(
            num_workers=sum(mappers.values()) + num_partitions * len(wave_stages),
            memory_mib=self.memory_mib,
            cold=False,
            map_fleets=dict(mappers),
            result_rows=table_num_rows(result),
            partition_objects_written=objects_written,
            partition_objects_read=objects_read,
            dag_stages=len(dag.stages),
            wave_stages=wave_stages,
            gc_objects_deleted=gc_deleted,
            gc_list_requests=gc_lists,
            results_spilled=sum("result_s3" in message for message in final),
            exchange_partitions=num_partitions,
            estimated_exchange_bytes=dag.estimated_exchange_bytes,
            _counters=context.counters, _trace=context.trace, _bill=context.bill,
        )
        return result, statistics, worker_results


class ShuffleAggregateCoordinator(ShuffleJoinCoordinator):
    """Repartitioned (two-wave) group-by aggregation: a facade over the DAG
    coordinator.

    :meth:`execute` lowers the group-by to a zero-stage
    :class:`~repro.plan.physical.DagPhysicalPlan` — the base fragment carries
    the map-side partial aggregation and partitions by all group keys, the
    plan's ``aggregates`` merge the partials — runs it on the inherited
    waves, and returns the run's
    :class:`~repro.driver.spans.QueryStatistics`, whose dollars
    (``cost_total``) include the listing's and whose ``latency_seconds`` is
    the run's length.  Its fleets
    are sized by the inherited rules too: the base fragment carries the
    input's stored bytes, learnt from a listing
    (:func:`list_input_files`), so :func:`scan_fan_out` starts as many
    mappers and :func:`exchange_fan_out` as many reducers as those bytes are
    worth.  Only the names of its waves differ (:data:`AGGREGATE_WAVES`).
    """

    names = AGGREGATE_WAVES

    def __init__(
        self,
        env: CloudEnvironment,
        memory_mib: int = 2048,
        num_buckets: int = 10,
        result_queue: str = SHUFFLE_RESULT_QUEUE,
        resilience_policy: Optional[ResiliencePolicy] = None,
    ):
        super().__init__(env, memory_mib, num_buckets, result_queue, resilience_policy)

    def execute(
        self,
        paths: Sequence[str],
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        predicate=None,
        columns: Optional[Sequence[str]] = None,
        num_workers: Optional[int] = None,
        order_by: Optional[Sequence[str]] = None,
        context: Optional[QueryContext] = None,
    ):
        """Run a repartitioned group-by aggregation and return (table, statistics).

        The facade's own signature: it takes the group-by, not the physical
        plan :meth:`ShuffleJoinCoordinator.execute` takes.  ``columns`` is the
        scan projection; left ``None`` it is derived as the group keys plus
        every column an aggregate or the predicate references.

        Both fleets are priced from the input's stored bytes: one LIST per
        glob and per distinct directory of the explicit paths (billed with the
        query, not on the modelled clock; a retried LIST's backoff is, and its
        retry bills no invocation).  An explicit ``num_workers``
        sets both fleets to ``min(num_workers, files)`` instead.
        The LIST and the waves run under ``context``, as there — e.g.
        ``QueryContext(env, cancel=token)`` or ``QueryContext(env,
        breakers=board)``.
        """
        context = context or QueryContext(self.env, self.resilience_policy)
        with context.scope():
            paths, input_bytes = list_input_files(self.env.s3, paths, context.call)
            if not paths:
                raise ExecutionError("shuffle aggregation has no input files")
            if not group_by:
                raise ExecutionError("shuffle aggregation requires group-by keys")
            group_by = list(group_by)
            partials, finals = _decompose_aggregates(list(aggregates))
            if columns is None:
                # Projection push-down: the scan outputs what the aggregates
                # read (its predicate's columns it reads itself).
                needed = set(group_by)
                for spec in partials:
                    if spec.expression is not None:
                        needed |= referenced_columns(spec.expression)
                columns = sorted(needed)
            dag = DagPhysicalPlan(
                base=WorkerPlan(
                    files=paths,
                    key=group_by[0],
                    columns=list(columns),
                    predicate=predicate,
                    group_by=group_by,
                    aggregates=partials,
                    input_bytes=input_bytes,
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
            table, run, _ = super().execute(
                dag,
                # Clamped here: exchange_fan_out takes an explicit count as it is.
                num_workers=num_workers and min(num_workers, len(paths)),
                context=context,
            )
            return table, run
