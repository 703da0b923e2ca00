"""The Lambada driver.

The driver runs on the data scientist's machine: it compiles queries, deploys
the worker function (at installation time), invokes the serverless workers —
in one hop or through the two-level tree of §4.2, whichever the invocation
rates price as faster — and collects their partial results from the SQS
result queue.
"""

from repro.driver.invocation import (
    FlatInvocationModel,
    InvocationModel,
    TreeInvocationModel,
    InvocationTimeline,
    LaunchPlan,
    build_invocation_tree,
)
from repro.driver.worker import make_worker_handler, WORKER_FUNCTION_NAME
from repro.driver.driver import LambadaDriver, QueryResult, QueryStatistics
from repro.driver.catalog import StatisticsCatalog, FileStatistics
from repro.driver.shuffle import ShuffleAggregateCoordinator

__all__ = [
    "ShuffleAggregateCoordinator",
    "FlatInvocationModel",
    "InvocationModel",
    "TreeInvocationModel",
    "InvocationTimeline",
    "LaunchPlan",
    "build_invocation_tree",
    "make_worker_handler",
    "WORKER_FUNCTION_NAME",
    "LambadaDriver",
    "QueryResult",
    "QueryStatistics",
    "StatisticsCatalog",
    "FileStatistics",
]
