"""Driver-side fault-tolerance primitives.

Everything the hardened driver uses to survive an installed
:class:`~repro.cloud.faults.FaultPlan` (and, by the same mechanisms, the
failures a real deployment would see) lives here:

* :class:`ResiliencePolicy` — the retry/hedging knobs: attempt budget,
  exponential backoff with decorrelated jitter, per-wave deadlines, straggler
  quantile thresholds, and the per-query retry budget.
* :func:`decorrelated_jitter` — the AWS-recommended backoff schedule
  (``sleep = min(cap, uniform(base, prev * 3))``).  Backoff is charged to the
  *modelled* latency ledger, never slept on the wall clock.
* :func:`call_with_backoff` — retry wrapper for driver-side cloud requests
  (e.g. fetching a spilled result object that a fault plan made transiently
  invisible).
* :class:`ResilienceStats` — the ``resilience`` block of
  :class:`~repro.driver.driver.QueryStatistics`: retries, hedges won/lost,
  stale/duplicate messages ignored, injected faults survived, degradation
  fallbacks, and the wasted modelled dollars the failures cost.
* :func:`merge_attempt_message` — the (worker, attempt) dedup every result
  collector applies; :func:`fault_snapshot` / :func:`fault_delta` — what the
  installed fault plan injected during one query.

A clean run (no fault plan, homogeneous fleet) reports all-zero stats and
takes none of these code paths beyond a handful of comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.config import DEFAULT_RESILIENCE
from repro.errors import NoSuchKeyError, SlowDownError, TooManyRequestsError


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the driver's fault-tolerance machinery.

    Every numeric default comes from
    :data:`repro.config.DEFAULT_RESILIENCE`, the single home of the
    retry/backoff/breaker/budget numbers — this class only re-exposes them as
    a per-driver override surface.
    """

    #: Total attempts per worker including the first (>= 1).
    max_attempts: int = DEFAULT_RESILIENCE.max_attempts
    #: First backoff sleep (modelled seconds).
    backoff_base_seconds: float = DEFAULT_RESILIENCE.backoff_base_seconds
    #: Backoff ceiling (modelled seconds).
    backoff_cap_seconds: float = DEFAULT_RESILIENCE.backoff_cap_seconds
    #: Modelled deadline for one wave of workers; workers still missing when
    #: the poll budget runs out are treated as failed and retried.
    wave_deadline_seconds: float = DEFAULT_RESILIENCE.wave_deadline_seconds
    #: A worker is a straggler when its modelled duration exceeds
    #: ``hedge_factor`` x the fleet median ...
    hedge_factor: float = DEFAULT_RESILIENCE.hedge_factor
    #: ... and this absolute floor (so tiny fleets/queries never hedge).
    hedge_min_seconds: float = DEFAULT_RESILIENCE.hedge_min_seconds
    #: At most this fraction of the fleet is hedged per query.
    hedge_max_fraction: float = DEFAULT_RESILIENCE.hedge_max_fraction
    #: Seed for the backoff/jitter RNG (independent of any fault plan).
    jitter_seed: int = DEFAULT_RESILIENCE.jitter_seed
    #: Per-query cap on combined retry/hedge spend (see
    #: :class:`repro.driver.breakers.RetryBudget`).
    retry_budget: int = DEFAULT_RESILIENCE.retry_budget


DEFAULT_RESILIENCE_POLICY = ResiliencePolicy()

#: Errors that driver-side cloud requests may retry on.
TRANSIENT_CLOUD_ERRORS = (SlowDownError, NoSuchKeyError, TooManyRequestsError)


def decorrelated_jitter(
    previous_seconds: float,
    rng: random.Random,
    base_seconds: float = DEFAULT_RESILIENCE_POLICY.backoff_base_seconds,
    cap_seconds: float = DEFAULT_RESILIENCE_POLICY.backoff_cap_seconds,
) -> float:
    """Next backoff sleep under AWS-style decorrelated jitter.

    ``sleep = min(cap, uniform(base, max(previous, base) * 3))`` — grows
    roughly exponentially in expectation while decorrelating concurrent
    retriers, exactly the schedule the AWS architecture blog recommends.
    """
    upper = max(previous_seconds, base_seconds) * 3.0
    return min(cap_seconds, rng.uniform(base_seconds, upper))


def call_with_backoff(
    fn: Callable[..., Any],
    *args: Any,
    policy: ResiliencePolicy = DEFAULT_RESILIENCE_POLICY,
    rng: Optional[random.Random] = None,
    stats: Optional["ResilienceStats"] = None,
    retry_on: tuple = TRANSIENT_CLOUD_ERRORS,
    breakers: Optional[Any] = None,
    budget: Optional[Any] = None,
    now_fn: Optional[Callable[[], float]] = None,
    **kwargs: Any,
) -> Any:
    """Call ``fn`` retrying transient cloud errors with jittered backoff.

    The backoff is accounted to ``stats.backoff_seconds`` (modelled time, no
    wall-clock sleeping).  After ``policy.max_attempts`` attempts the last
    error propagates.

    With a :class:`~repro.driver.breakers.BreakerBoard` (``breakers``) each
    failure is charged to its service's breaker and, when that breaker is
    open, the remaining cooldown is charged to modelled backoff before the
    next attempt proceeds as a half-open probe; a probe success closes the
    loop.  With a :class:`~repro.driver.breakers.RetryBudget` (``budget``)
    every retry spends one unit — exhaustion raises
    :class:`~repro.errors.RetryBudgetExhaustedError` instead of retrying.
    ``now_fn`` supplies modelled "now" for breaker bookkeeping (typically
    environment clock + accumulated backoff).
    """
    rng = rng or random.Random(policy.jitter_seed)
    now_fn = now_fn or (lambda: 0.0)
    sleep = 0.0
    failed_service: Optional[str] = None
    for attempt in range(policy.max_attempts):
        try:
            result = fn(*args, **kwargs)
        except retry_on as error:
            service = None
            if breakers is not None:
                service = breakers.record_failure(error, now_fn())
                failed_service = service or failed_service
            if attempt == policy.max_attempts - 1:
                raise
            if budget is not None:
                budget.charge("backoff_retries")
            sleep = decorrelated_jitter(
                sleep, rng, policy.backoff_base_seconds, policy.backoff_cap_seconds
            )
            if stats is not None:
                stats.retries += 1
                stats.backoff_seconds += sleep
            if breakers is not None and service is not None:
                # An open breaker converts doomed hammering into a modelled
                # wait: charge the cooldown to latency and probe half-open.
                cooldown = breakers.wait_seconds(service, now_fn())
                if cooldown > 0.0 and stats is not None:
                    stats.backoff_seconds += cooldown
                    breakers.wait_seconds(service, now_fn())
        else:
            if breakers is not None and failed_service is not None:
                breakers.record_success(failed_service, now_fn())
            return result


@dataclass
class ResilienceStats:
    """The ``resilience`` block of :class:`QueryStatistics`.

    All-zero on a clean run; every field is cheap counters only.
    """

    #: Re-invocations of failed or missing workers (all planes).
    retries: int = 0
    #: Speculative duplicate invocations launched for stragglers.
    hedges_launched: int = 0
    #: Hedges whose result beat the original worker's.
    hedges_won: int = 0
    #: Hedges that lost the race (their cost is wasted).
    hedges_lost: int = 0
    #: Late/duplicate result messages discarded by (worker, attempt) dedup.
    duplicate_messages_ignored: int = 0
    #: Messages from a superseded attempt discarded in favour of a newer one.
    stale_messages_ignored: int = 0
    #: Total modelled backoff time charged to query latency.
    backoff_seconds: float = 0.0
    #: Shuffle wave re-runs (map or reduce wave level).
    wave_retries: int = 0
    #: Process-pool children respawned during this query.
    pool_respawns: int = 0
    #: Graceful-degradation events, e.g. {"hedge_suppressed": 1}.
    fallbacks: Dict[str, int] = field(default_factory=dict)
    #: Faults the installed FaultPlan injected during this query, by kind.
    faults_injected: Dict[str, int] = field(default_factory=dict)
    #: Modelled dollars spent on attempts that produced no used result
    #: (failed attempts, lost hedges).
    wasted_cost_dollars: float = 0.0

    def note_fallback(self, kind: str) -> None:
        """Count one graceful-degradation event."""
        self.fallbacks[kind] = self.fallbacks.get(kind, 0) + 1

    def merge(self, other: "ResilienceStats") -> None:
        """Fold another stats block (e.g. a shuffle wave's) into this one."""
        self.retries += other.retries
        self.hedges_launched += other.hedges_launched
        self.hedges_won += other.hedges_won
        self.hedges_lost += other.hedges_lost
        self.duplicate_messages_ignored += other.duplicate_messages_ignored
        self.stale_messages_ignored += other.stale_messages_ignored
        self.backoff_seconds += other.backoff_seconds
        self.wave_retries += other.wave_retries
        self.pool_respawns += other.pool_respawns
        for kind, count in other.fallbacks.items():
            self.fallbacks[kind] = self.fallbacks.get(kind, 0) + count
        for kind, count in other.faults_injected.items():
            self.faults_injected[kind] = self.faults_injected.get(kind, 0) + count
        self.wasted_cost_dollars += other.wasted_cost_dollars

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for reports and tests."""
        return {
            "retries": self.retries,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "hedges_lost": self.hedges_lost,
            "duplicate_messages_ignored": self.duplicate_messages_ignored,
            "stale_messages_ignored": self.stale_messages_ignored,
            "backoff_seconds": self.backoff_seconds,
            "wave_retries": self.wave_retries,
            "pool_respawns": self.pool_respawns,
            "fallbacks": dict(self.fallbacks),
            "faults_injected": dict(self.faults_injected),
            "wasted_cost_dollars": self.wasted_cost_dollars,
        }

    @property
    def clean(self) -> bool:
        """True when nothing resilience-related happened (fault-free run)."""
        return (
            self.retries == 0
            and self.hedges_launched == 0
            and self.duplicate_messages_ignored == 0
            and self.stale_messages_ignored == 0
            and self.wave_retries == 0
            and self.pool_respawns == 0
            and not self.fallbacks
            and not self.faults_injected
        )


def fault_snapshot(env: Any) -> Optional[Dict[str, int]]:
    """Per-kind injection counts of the installed fault plan, or ``None``."""
    plan = getattr(env, "fault_plan", None)
    return plan.to_dict() if plan is not None else None


def fault_delta(env: Any, snapshot: Optional[Dict[str, int]]) -> Dict[str, int]:
    """Faults injected since ``snapshot`` (the plan outlives single queries)."""
    if snapshot is None:
        return {}
    current = fault_snapshot(env) or {}
    return {
        kind: count - snapshot.get(kind, 0)
        for kind, count in current.items()
        if count > snapshot.get(kind, 0)
    }


def merge_attempt_message(
    by_key: Dict, key: Any, message: Dict, stats: Optional[ResilienceStats] = None
) -> None:
    """Fold one result message into ``by_key`` under (key, attempt) dedup.

    A higher attempt supersedes a lower one; within the same attempt an ok
    result beats an error (an injected SQS duplicate of either is dropped).
    A late or re-delivered message from an earlier attempt can therefore
    never clobber a successful retry; superseded and duplicate deliveries
    are counted, never double-applied.
    """
    current = by_key.get(key)
    if current is None:
        by_key[key] = message
        return
    current_attempt = int(current.get("attempt", 0))
    attempt = int(message.get("attempt", 0))
    if attempt > current_attempt:
        by_key[key] = message
    elif attempt < current_attempt:
        if stats is not None:
            stats.stale_messages_ignored += 1
    elif current.get("status") != "ok" and message.get("status") == "ok":
        by_key[key] = message
    elif stats is not None:
        stats.duplicate_messages_ignored += 1


@dataclass
class AttemptLog:
    """Per-worker attempt history of the fleets of one query.

    Keyed by fleet key — the worker id, or ``(side, worker_id)`` for a
    shuffle wave — with one entry per failed attempt that was re-dispatched,
    so its length is the re-invocations to bill.  Feeds the full history into
    :class:`~repro.errors.WorkerFailedError` when a worker exhausts its
    budget, instead of only the first failure string.
    """

    history: Dict[Any, List[Dict[str, Any]]] = field(default_factory=dict)

    def record(
        self,
        worker_id: Any,
        attempt: int,
        error: str = "",
        backoff_seconds: float = 0.0,
    ) -> None:
        """Append one attempt outcome for a worker."""
        entry: Dict[str, Any] = {"attempt": attempt, "error": error}
        if backoff_seconds:
            entry["backoff_seconds"] = backoff_seconds
        self.history.setdefault(worker_id, []).append(entry)

    def for_worker(self, worker_id: Any) -> List[Dict[str, Any]]:
        """Attempt history of one worker (possibly empty)."""
        return self.history.get(worker_id, [])

    def __len__(self) -> int:
        """Attempts recorded, across every worker."""
        return sum(len(entries) for entries in self.history.values())


def pick_stragglers(
    durations: Dict[int, float],
    policy: ResiliencePolicy,
) -> List[int]:
    """Worker ids whose modelled duration marks them as stragglers.

    A worker is hedge-eligible when its duration exceeds both
    ``policy.hedge_factor`` x the fleet median and the absolute
    ``policy.hedge_min_seconds`` floor; at most
    ``policy.hedge_max_fraction`` of the fleet is returned (slowest first).
    Fleets smaller than 4 never hedge — the median is too noisy.
    """
    if len(durations) < 4:
        return []
    ordered = sorted(durations.values())
    median = ordered[len(ordered) // 2]
    threshold = max(policy.hedge_min_seconds, policy.hedge_factor * median)
    stragglers = [
        worker_id
        for worker_id, duration in durations.items()
        if duration > threshold
    ]
    if not stragglers:
        return []
    budget = max(1, int(len(durations) * policy.hedge_max_fraction))
    stragglers.sort(key=lambda worker_id: -durations[worker_id])
    return stragglers[:budget]
