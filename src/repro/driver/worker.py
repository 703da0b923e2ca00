"""Serverless worker: the Lambda event handler of every scan fleet.

The handler mirrors the paper's description (§3.3): it extracts the worker id,
the query plan fragment, and its input from the invocation parameters, runs
the execution engine, and posts a success or error message to the SQS result
queue from which the driver polls.  First-generation workers of a fleet
large enough to be launched as a tree (§4.2) additionally invoke their
second-generation children before starting their own fragment.

A fragment ends either at the driver or in the exchange (§4.4): a worker
whose event names an exchange side and a partition count ships its output
table through the write-combined exchange and announces the object it wrote
in its result message, so the one scan handler runs a scan query's fleet and
every scan wave of a shuffle DAG alike.  The exchange-writing half lives here
because the join waves' handler (:mod:`repro.driver.shuffle`) re-emits
through it too.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import InvocationContext
from repro.counters import Counts, LayerView
from repro.driver.integrity import post_result
from repro.engine.payload import encode_table
from repro.engine.pipeline import execute_worker_plan_table
from repro.engine.table import Table, table_num_rows
from repro.errors import WorkerCrashError
from repro.exchange.fetch import write_combined
from repro.exchange.naming import WriteCombiningNaming
from repro.exchange.partition import partition_assignments, scatter_by_assignment
from repro.plan.physical import WorkerPlan

#: Name under which the worker function is deployed at installation time.
WORKER_FUNCTION_NAME = "lambada-worker"

#: Cold runs are about 20 % slower end to end (paper §5.2), partly because of
#: loading code from the dependency layer; we model it as slower execution.
COLD_EXECUTION_PENALTY = 1.15

#: Bucket family of the shuffle exchange objects (spread per §4.4.1).
SHUFFLE_BUCKET_PREFIX = "shuffle-b"


def apply_cold_penalty(duration_seconds: float, cold_start: bool) -> float:
    """Modelled execution duration with the cold-start slowdown applied.

    Shared between the in-process worker handler and the process-pool
    accounting path (via ``LambdaService.account_invocation``'s
    ``cold_penalty``), so both execution planes model cold runs identically.
    """
    return duration_seconds * COLD_EXECUTION_PENALTY if cold_start else duration_seconds


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


def _write_partitions(
    env: CloudEnvironment,
    event: Dict,
    sender: int,
    rows: Table,
    keys: Sequence[str],
    num_partitions: int,
    naming: WriteCombiningNaming,
    counts: Counts,
) -> Dict:
    """Hash-partition ``rows`` by ``keys`` and ship them through the exchange.

    Partitions once into contiguous slices and serialises them straight from
    the scattered columns, without re-gathering rows, into one combined
    object: one PUT for all receivers.  A one-partition exchange neither
    hashes nor reorders: the rows are the single slice (same object layout
    and crcs as the scatter would produce).  The returned announcement
    carries the object's path, size, offset directory and slice crcs —
    shipped through the driver's wave barrier, it lets the consuming wave
    skip discovery entirely, and an orphaned duplicate from a crashed
    earlier attempt (written under that attempt's prefix) is never read.
    Returns the announcement fields of the sender's result message.
    """
    if num_partitions == 1:
        # Every row goes to the one receiver: the rows, in the order they
        # arrived, are already the scattered table.
        reordered, boundaries = rows, [0, table_num_rows(rows)]
    else:
        assignment = partition_assignments(rows, list(keys), num_partitions)
        reordered, boundaries = scatter_by_assignment(rows, assignment, num_partitions)
    return write_combined(env.s3, naming.path(sender, 0), reordered, boundaries, counts)


def _emit(
    env: CloudEnvironment,
    event: Dict,
    sender: int,
    rows: Table,
    keys: Sequence[str],
    num_partitions: int,
    tag: str,
    counts: Counts,
) -> Dict:
    """Ship one worker's output rows into the exchange under ``tag``.

    A scan worker emits what its fragment kept under its fleet's tag; a
    non-final join wave, which does not return rows to the driver, emits its
    joined rows by the *next wave's* probe key under the intermediate tag
    (``J{k}``, ``k`` the wave's last stage).  Either way the worker announces
    what it wrote through the result queue, and zero rows cost zero PUTs
    (format ``"empty"``: the consuming wave does not list the sender at all).
    Returns the announcement fields of the worker's result message.
    """
    if not table_num_rows(rows):
        return {"format": "empty"}
    naming = _join_map_naming(
        event["query_id"], tag, int(event.get("num_buckets", 10)),
        int(event.get("attempt", 0)),
    )
    return _write_partitions(env, event, sender, rows, keys, num_partitions, naming, counts)


def _charge_worker(
    env: CloudEnvironment,
    context: InvocationContext,
    compute_seconds: float,
    counts: Counts,
    fetch_seconds: float = 0.0,
) -> float:
    """Charge one worker's modelled duration to its invocation.

    ``compute_seconds`` is the worker's own work (a scan, a reducer's
    merge).  The exchange GETs are already priced in ``fetch_seconds`` — the
    fetch plan's pipelined transfer plus any re-reads — while every other
    exchange request (the emit PUT) is issued on its own, as in Algorithm 1,
    and costs one round trip: this is where write combining buys its
    latency.  A worker that touched no exchange is charged its compute alone.
    """
    exchange = LayerView(counts, "exchange")
    round_trips = exchange.total_requests - exchange.get_requests
    seconds = (
        compute_seconds
        + fetch_seconds
        + round_trips * env.bandwidth.request_latency_seconds
    ) * getattr(context, "straggler_factor", 1.0)
    context.charge(seconds)
    return seconds


def make_worker_handler(env: CloudEnvironment) -> Callable[[Dict[str, Any], InvocationContext], Dict]:
    """Create the scan worker's event handler bound to a cloud environment.

    The returned callable is deployed into the
    :class:`~repro.cloud.lambda_service.LambdaService` as the Lambada worker
    function, and as the map function of every shuffle coordinator.  An
    event's ``"plan"`` is the worker's :class:`~repro.plan.physical.WorkerPlan`;
    with a ``"side"`` (its exchange tag) and ``"num_partitions"`` its output
    goes to the exchange, otherwise its frame or reduce value to the driver.
    """

    def handler(event: Dict[str, Any], context: InvocationContext) -> Dict[str, Any]:
        worker_id = event["worker_id"]
        attempt = event.get("attempt", 0)
        result_queue: Optional[str] = event.get("result_queue")
        query_id = event.get("query_id", "query")
        function_name = event.get("function_name", WORKER_FUNCTION_NAME)
        side = event.get("side")

        # 1. Invoke second-generation children first so the whole fleet starts
        #    as quickly as possible (tree invocation, §4.2).
        children = event.get("children") or []
        for child in children:
            child_event = dict(child)
            child_event.setdefault("result_queue", result_queue)
            child_event.setdefault("query_id", query_id)
            child_event.setdefault("function_name", function_name)
            child_event.pop("children", None)
            env.lambda_service.invoke(function_name, child_event, from_driver=False)
        if children:
            # The same rate the launch plan predicted this worker's children with.
            rate = env.lambda_service.invocation_rate(from_driver=False)
            context.charge(len(children) / rate)

        # 2. Execute the query fragment and report the outcome.
        message = {"query_id": query_id, "worker_id": worker_id, "attempt": attempt}
        if side is not None:
            message["side"] = side
        frame = None
        try:
            plan = WorkerPlan.from_dict(event["plan"])
            result, table = execute_worker_plan_table(
                plan,
                env.s3,
                memory_mib=context.memory_mib,
                threads=event.get("threads", 2),
                bandwidth=env.bandwidth,
            )
            if side is not None:
                message.update(_emit(
                    env, event, worker_id, table, plan.partition_keys,
                    event["num_partitions"], side, result.counters,
                ))
            elif table is not None:
                frame = encode_table(table)
            # A cold start slows a scan that reports to the driver (§5.2); one
            # that feeds the exchange is charged warm, like every exchange wave.
            cold_start = context.cold_start and side is None
            result.duration_seconds = _charge_worker(
                env, context, apply_cold_penalty(result.duration_seconds, cold_start),
                result.counters,
            )
            result.attempt = attempt
            message.update(status="ok", result=result.to_payload())
        except WorkerCrashError:
            # The instance died — no result message reaches the driver.
            raise
        except Exception as exc:  # noqa: BLE001 - report, never die silently
            message.update(status="error", error=f"{type(exc).__name__}: {exc}")

        if result_queue:
            post_result(
                env, result_queue, message, frame,
                f"{query_id}/worker-{worker_id}.a{attempt}",
            )
        return message

    return handler
