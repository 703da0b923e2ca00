"""Worker invocation: one launch arithmetic, three shapes.

Starting thousands of workers from the driver alone takes 13–18 s at the
measured invocation rates (Table 1), which would dominate an interactive
query.  The paper's solution (§4.2) is a two-level *tree* invocation: the
driver invokes ~√P first-generation workers, each of which invokes ~√P
second-generation workers before starting on its own query fragment; 4096
workers start in under 3 s.

A small fleet is the opposite case: the second hop costs one more request
latency and start-up than the driver needs to start every worker itself.
The launch is therefore a *priced plan* (:class:`LaunchPlan`): the number of
first-generation workers is the one that minimises the modelled time the
last worker starts, from the region's Table 1 rates and the cold/warm
start-up.  All of them is the flat launch; ⌈√P⌉ is the paper's tree; both
stay available as fixed shapes of the same arithmetic
(:class:`FlatInvocationModel`, :class:`TreeInvocationModel`) next to the
priced :class:`InvocationModel` the driver uses, which shapes the payloads
(:func:`build_invocation_tree`) and charges the start times of one plan.

The other end of a fleet's lifetime is priced the same way
(:class:`CollectionPlan`): the driver drains the SQS result queue (§3.3) with
long-poll receives that are outstanding while the fleet runs, so the last
result is in its hands one receive after the last worker finishes — from the
same Table 1 round trip, SQS's 10 messages a receive, and as many of the
driver's threads polling as get it there soonest.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import (
    DRIVER_INVOKER_THREADS,
    INVOCATION_LATENCY_SECONDS,
    INVOCATION_RATE_DRIVER,
    INVOCATION_RATE_INTRA_REGION,
    LAMBDA_COLD_START_SECONDS,
    LAMBDA_WARM_START_SECONDS,
)


@dataclass
class InvocationTimeline:
    """Timeline of a two-level invocation (the data behind Figure 5).

    All arrays are indexed by first-generation worker in invocation order.
    """

    #: Time the driver spent before initiating this worker's invocation.
    before_own_invocation: np.ndarray
    #: Duration of this worker's own invocation (request latency + start-up).
    own_invocation: np.ndarray
    #: Time this worker spent invoking its second-generation children.
    invoking_workers: np.ndarray

    @property
    def completion_times(self) -> np.ndarray:
        """Time at which each first-generation worker finished invoking children."""
        return self.before_own_invocation + self.own_invocation + self.invoking_workers

    @property
    def all_started_at(self) -> float:
        """Time at which the last worker of the fleet has been started."""
        return float(self.completion_times.max())


@dataclass(frozen=True)
class LaunchPlan:
    """How one fleet is started, and when each of its workers runs.

    The driver invokes workers ``0 … first_generation − 1`` one after the
    other at ``driver_rate``; the remaining workers are dealt round-robin to
    those parents, each of which invokes its children at ``worker_rate``
    before starting on its own fragment.  ``first_generation ==
    num_workers`` is the flat launch: nobody has children, nobody pays a
    second hop.
    """

    num_workers: int
    first_generation: int
    driver_rate: float
    worker_rate: float
    #: Table 1's driver↔region request latency: what one invocation takes to
    #: land, and the round trip of one result-queue receive.
    latency: float
    #: Cold or warm start-up of one function instance.
    startup: float

    def timeline(self) -> InvocationTimeline:
        """Per-first-generation-worker timing breakdown (Figure 5)."""
        parents = self.first_generation
        base, extra = divmod(self.num_workers - parents, parents)
        children = np.full(parents, base, dtype=np.int64)
        children[:extra] += 1
        return InvocationTimeline(
            before_own_invocation=np.arange(parents) / self.driver_rate,
            own_invocation=np.full(parents, self.latency + self.startup),
            invoking_workers=children / self.worker_rate,
        )

    def worker_start_times(self) -> np.ndarray:
        """Modelled start time of every worker, by worker id.

        A first-generation worker starts one request latency + start-up
        after the driver initiated it; its n-th child one latency + start-up
        after the parent got to the n-th of its invocations.
        """
        timeline = self.timeline()
        parent_started = timeline.before_own_invocation + timeline.own_invocation
        child = np.arange(self.num_workers - self.first_generation)
        child_started = (
            parent_started[child % self.first_generation]
            + (child // self.first_generation + 1) / self.worker_rate
            + self.latency
            + self.startup
        )
        return np.concatenate([parent_started, child_started])

    @property
    def time_to_start_all(self) -> float:
        """Time until every worker of the fleet is running."""
        return float(self.worker_start_times().max())

    def collection(
        self, completion_times: Sequence[float], pollers: Optional[int] = None
    ) -> "CollectionPlan":
        """How the results of workers finishing at ``completion_times``
        (seconds since the launch began) reach the driver."""
        return plan_collection(completion_times, self.latency, pollers)


#: Messages one SQS ``ReceiveMessage`` call returns at most (an API limit;
#: the ``max_messages=10`` of the driver's collect loops).
SQS_RECEIVE_BATCH = 10


@dataclass(frozen=True)
class CollectionPlan:
    """How one fleet's result messages are drained from the result queue.

    ``pollers`` driver threads each keep one long-poll receive outstanding
    from the moment the launch begins.  A message is visible half a round
    trip after its worker finishes; a receive reaches the queue half a round
    trip after it is issued, is served as soon as one unclaimed message is
    visible — it does not wait to fill its batch — carries every message
    visible by then up to :data:`SQS_RECEIVE_BATCH`, and is back at the
    driver half a round trip later, whereupon its poller issues the next.
    """

    pollers: int
    #: Messages each served receive carried, in the order they were served.
    batches: Tuple[int, ...]
    #: When the last worker finished / when the last message reached the
    #: driver, in seconds since the launch began.
    last_completion: float
    finish: float

    @property
    def receives(self) -> int:
        """Receive requests that were served (and are billed)."""
        return len(self.batches)

    @property
    def seconds(self) -> float:
        """What collection adds after the last worker finished."""
        return self.finish - self.last_completion


def _drain(
    visible: List[float], round_trip: float, pollers: int
) -> Tuple[float, List[int]]:
    """Run ``pollers`` long-polling threads over the messages (at least one)
    visible at the ascending times ``visible``; returns the time the last
    receive is back at the driver and the size of every served receive.

    Receives are served in the order they reached the queue; the heap holds
    the time each poller's outstanding receive got (or gets) there.
    """
    half = round_trip / 2
    at_queue = [half] * pollers
    batches: List[int] = []
    claimed = 0
    while claimed < len(visible):
        served = max(at_queue[0], visible[claimed])
        upto = min(bisect_right(visible, served, claimed), claimed + SQS_RECEIVE_BATCH)
        batches.append(upto - claimed)
        claimed = upto
        heapq.heapreplace(at_queue, served + round_trip)
    return served + half, batches


def plan_collection(
    completion_times: Sequence[float],
    round_trip: float,
    pollers: Optional[int] = None,
) -> CollectionPlan:
    """The drain of a fleet whose workers finish at ``completion_times``.

    The number of pollers is priced like the launch's first generation: the
    smallest count, up to the driver's :data:`DRIVER_INVOKER_THREADS` and one
    per full batch, that puts the last message in the driver's hands soonest
    (a tie goes to fewer pollers, which issue fewer billed receives).  An
    explicit ``pollers`` fixes the count instead — the sequentially polling
    driver the figures print next to the priced one.
    """
    completion = np.sort(np.asarray(completion_times, dtype=np.float64))
    if completion.size == 0:
        raise ValueError("a collection needs at least one completion time")
    if pollers is None:
        most = min(DRIVER_INVOKER_THREADS, math.ceil(completion.size / SQS_RECEIVE_BATCH))
        candidates = range(1, most + 1)
    elif pollers <= 0:
        raise ValueError("pollers must be positive")
    else:
        candidates = (pollers,)
    half = round_trip / 2
    visible = (completion + half).tolist()
    # No receive can return before the last message became visible.
    soonest = visible[-1] + half
    best: Optional[Tuple[float, int, List[int]]] = None
    for count in candidates:
        finish, batches = _drain(visible, round_trip, count)
        if best is None or finish < best[0]:
            best = (finish, count, batches)
        if finish <= soonest:
            break
    finish, count, batches = best
    return CollectionPlan(
        pollers=count,
        batches=tuple(batches),
        last_completion=float(completion[-1]),
        finish=finish,
    )


def _startup_seconds(cold: bool) -> float:
    return LAMBDA_COLD_START_SECONDS if cold else LAMBDA_WARM_START_SECONDS


def _last_start_seconds(
    num_workers: int,
    first_generation: np.ndarray,
    driver_rate: float,
    worker_rate: float,
    hop: float,
) -> np.ndarray:
    """``LaunchPlan.time_to_start_all`` for an array of first-generation counts.

    The closed form of the same arithmetic: children are dealt round-robin,
    so the parents split into an early group with one child more and a late
    group, and within a group the last parent finishes last.  The last worker
    to start is that parent's last child — or, when the late group has no
    children at all, possibly the last worker the driver invoked itself.
    """
    base, extra = np.divmod(num_workers - first_generation, first_generation)
    last_root = (first_generation - 1) / driver_rate + hop
    early_parent = np.where(
        extra > 0, (extra - 1) / driver_rate + (base + 1) / worker_rate, -np.inf
    )
    late_parent = np.where(
        base > 0, (first_generation - 1) / driver_rate + base / worker_rate, -np.inf
    )
    last_child = np.maximum(early_parent, late_parent) + 2 * hop
    return np.maximum(last_root, last_child)


class InvocationModel:
    """The launch priced from Table 1: whichever shape starts the fleet first."""

    def __init__(self, region: str = "eu"):
        if region not in INVOCATION_RATE_DRIVER:
            raise ValueError(f"unknown region {region!r}")
        self.region = region
        self.driver_rate = INVOCATION_RATE_DRIVER[region]
        self.worker_rate = INVOCATION_RATE_INTRA_REGION[region]
        self.latency = INVOCATION_LATENCY_SECONDS[region]

    def first_generation_count(self, num_workers: int, cold: bool = True) -> int:
        """Number of workers the driver invokes itself.

        The count that minimises the time the last worker starts: all of
        them while the driver's last invocation lands before a second hop
        could (up to 29 warm / 250 cold workers in ``eu``), towards
        √(P · driver_rate / worker_rate) ≈ 1.9 √P for a large fleet.
        """
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        candidates = np.arange(1, num_workers + 1)
        seconds = _last_start_seconds(
            num_workers, candidates, self.driver_rate, self.worker_rate,
            self.latency + _startup_seconds(cold),
        )
        return int(candidates[np.argmin(seconds)])

    def plan(self, num_workers: int, cold: bool = True) -> LaunchPlan:
        """The launch of a fleet of ``num_workers``."""
        return LaunchPlan(
            num_workers=num_workers,
            first_generation=self.first_generation_count(num_workers, cold),
            driver_rate=self.driver_rate,
            worker_rate=self.worker_rate,
            latency=self.latency,
            startup=_startup_seconds(cold),
        )

    def timeline(self, num_workers: int, cold: bool = True) -> InvocationTimeline:
        """Per-first-generation-worker timing breakdown (Figure 5)."""
        return self.plan(num_workers, cold).timeline()

    def time_to_start_all(self, num_workers: int, cold: bool = True) -> float:
        """Time until all ``num_workers`` are running."""
        return self.plan(num_workers, cold).time_to_start_all

    def worker_start_times(self, num_workers: int, cold: bool = True) -> np.ndarray:
        """Modelled start time of every worker, by worker id."""
        return self.plan(num_workers, cold).worker_start_times()


class FlatInvocationModel(InvocationModel):
    """Driver-only invocation with a pool of invoker threads (the baseline)."""

    @property
    def rate(self) -> float:
        """Invocations per second the driver sustains (Table 1)."""
        return self.driver_rate

    def first_generation_count(self, num_workers: int, cold: bool = True) -> int:
        """Every worker is invoked by the driver."""
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        return num_workers


class TreeInvocationModel(InvocationModel):
    """Two-level tree invocation with ⌈√P⌉ parents (the paper's strategy)."""

    @staticmethod
    def first_generation_count(num_workers: int, cold: bool = True) -> int:
        """Number of first-generation workers (~√P, §4.2)."""
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        return int(math.ceil(math.sqrt(num_workers)))


def build_invocation_tree(
    worker_payloads: Sequence[Dict[str, Any]],
    plan: Optional[LaunchPlan] = None,
) -> List[Dict[str, Any]]:
    """Arrange worker payloads into the invocation tree of a launch plan.

    Returns the payloads of the first-generation workers; each carries its
    second-generation children under the ``"children"`` key — dealt
    round-robin, as :meth:`LaunchPlan.worker_start_times` charges them, and
    empty for every worker of a flat launch.  Without a plan the fleet is
    priced as a cold launch in the default region.
    """
    total = len(worker_payloads)
    if total == 0:
        return []
    if plan is None:
        plan = InvocationModel().plan(total)
    elif plan.num_workers != total:
        raise ValueError(
            f"launch plan is for {plan.num_workers} workers, got {total} payloads"
        )
    first_gen = plan.first_generation
    parents = [dict(payload) for payload in worker_payloads[:first_gen]]
    for parent in parents:
        parent["children"] = []
    for index, payload in enumerate(worker_payloads[first_gen:]):
        parents[index % first_gen]["children"].append(dict(payload))
    return parents
