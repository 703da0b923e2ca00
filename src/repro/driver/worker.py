"""Serverless worker: the Lambda event handler.

The handler mirrors the paper's description (§3.3): it extracts the worker id,
the query plan fragment, and its input from the invocation parameters, runs
the execution engine, and posts a success or error message to the SQS result
queue from which the driver polls.  First-generation workers of a fleet
large enough to be launched as a tree (§4.2) additionally invoke their
second-generation children before starting their own fragment.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.cloud.environment import CloudEnvironment
from repro.cloud.lambda_service import InvocationContext
from repro.config import IntegrityConfig
from repro.driver.integrity import post_result
from repro.engine.pipeline import execute_worker_plan
from repro.errors import WorkerCrashError
from repro.plan.physical import WorkerPlan

#: Name under which the worker function is deployed at installation time.
WORKER_FUNCTION_NAME = "lambada-worker"

#: Cold runs are about 20 % slower end to end (paper §5.2), partly because of
#: loading code from the dependency layer; we model it as slower execution.
COLD_EXECUTION_PENALTY = 1.15


def apply_cold_penalty(duration_seconds: float, cold_start: bool) -> float:
    """Modelled execution duration with the cold-start slowdown applied.

    Shared between the in-process worker handler and the process-pool
    accounting path (via ``LambdaService.account_invocation``'s
    ``cold_penalty``), so both execution planes model cold runs identically.
    """
    return duration_seconds * COLD_EXECUTION_PENALTY if cold_start else duration_seconds


def make_worker_handler(env: CloudEnvironment) -> Callable[[Dict[str, Any], InvocationContext], Dict]:
    """Create the worker event handler bound to a cloud environment.

    The returned callable is deployed into the
    :class:`~repro.cloud.lambda_service.LambdaService` as the Lambada worker
    function.
    """

    def handler(event: Dict[str, Any], context: InvocationContext) -> Dict[str, Any]:
        worker_id = event["worker_id"]
        attempt = event.get("attempt", 0)
        result_queue: Optional[str] = event.get("result_queue")
        query_id = event.get("query_id", "query")
        function_name = event.get("function_name", WORKER_FUNCTION_NAME)
        integrity = IntegrityConfig.from_dict(event.get("integrity"))

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
        frame = None
        try:
            plan = WorkerPlan.from_dict(event["plan"])
            result = execute_worker_plan(
                plan,
                env.s3,
                memory_mib=context.memory_mib,
                threads=event.get("threads", 2),
                bandwidth=env.bandwidth,
            )
            duration = apply_cold_penalty(result.duration_seconds, context.cold_start)
            duration *= getattr(context, "straggler_factor", 1.0)
            result.duration_seconds = duration
            result.attempt = attempt
            context.charge(duration)
            message.update(status="ok", result=result.to_payload())
            frame = result.partial
        except WorkerCrashError:
            # The instance died — no result message reaches the driver.
            raise
        except Exception as exc:  # noqa: BLE001 - report, never die silently
            message.update(status="error", error=f"{type(exc).__name__}: {exc}")

        if result_queue:
            post_result(
                env, result_queue, integrity, message, frame,
                f"{query_id}/worker-{worker_id}.a{attempt}",
            )
        return message

    return handler
