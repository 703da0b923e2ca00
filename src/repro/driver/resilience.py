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
* :func:`merge_attempt_message` — the (worker, attempt) dedup every result
  collector applies.

What they count — retries, backoff, messages ignored — is noted as
``("resilience", ...)`` counts of the query's record (:mod:`repro.counters`).
A clean run (no fault plan, homogeneous fleet) notes none and takes none of
these code paths beyond a handful of comparisons.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.counters import Counts
from repro.errors import NoSuchKeyError, SlowDownError, TooManyRequestsError


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the driver's fault-tolerance machinery, a per-driver override
    surface.

    Each knob is declared here and nowhere else; the plane's constants that
    no policy carries (poll rounds, spill reads, the pool, the breakers) are
    :data:`repro.config.DEFAULT_RESILIENCE`.
    """

    #: Total attempts per worker including the first (>= 1).
    max_attempts: int = 4
    #: First backoff sleep (modelled seconds).
    backoff_base_seconds: float = 0.05
    #: Backoff ceiling (modelled seconds).
    backoff_cap_seconds: float = 2.0
    #: Modelled deadline for one wave of workers; workers still missing when
    #: the poll budget runs out are treated as failed and retried.
    wave_deadline_seconds: float = 60.0
    #: A worker is a straggler when its modelled duration exceeds
    #: ``hedge_factor`` x the fleet median ...
    hedge_factor: float = 4.0
    #: ... and this absolute floor (so tiny fleets/queries never hedge).
    hedge_min_seconds: float = 0.5
    #: At most this fraction of the fleet is hedged per query.
    hedge_max_fraction: float = 0.25
    #: Seed for the backoff/jitter RNG (independent of any fault plan).
    jitter_seed: int = 20260808
    #: Per-query cap on the combined spend of ``call_with_backoff`` retries,
    #: wave retries, driver re-invocations and hedges (see
    #: :class:`repro.driver.breakers.RetryBudget`): exhausting it raises
    #: :class:`~repro.errors.RetryBudgetExhaustedError` instead of burning
    #: backoff and dollars forever under a sustained brownout.
    retry_budget: int = 256


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
    counts: Optional[Counts] = None,
    retry_on: tuple = TRANSIENT_CLOUD_ERRORS,
    breakers: Optional[Any] = None,
    budget: Optional[Any] = None,
    now_fn: Optional[Callable[[], float]] = None,
    **kwargs: Any,
) -> Any:
    """Call ``fn`` retrying transient cloud errors with jittered backoff.

    Each retry and its backoff are noted into ``counts`` as ``("resilience",
    "retries")`` / ``("resilience", "backoff_seconds")`` (modelled time, no
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
            if counts is not None:
                counts.note("resilience", "retries")
                counts.note("resilience", "backoff_seconds", sleep)
            if breakers is not None and service is not None:
                # An open breaker converts doomed hammering into a modelled
                # wait: charge the cooldown to latency and probe half-open.
                cooldown = breakers.wait_seconds(service, now_fn())
                if cooldown > 0.0 and counts is not None:
                    counts.note("resilience", "backoff_seconds", cooldown)
                    breakers.wait_seconds(service, now_fn())
        else:
            if breakers is not None and failed_service is not None:
                breakers.record_success(failed_service, now_fn())
            return result


def merge_attempt_message(
    by_key: Dict, key: Any, message: Dict, counts: Optional[Counts] = None
) -> None:
    """Fold one result message into ``by_key`` under (key, attempt) dedup.

    A higher attempt supersedes a lower one; within the same attempt an ok
    result beats an error (an injected SQS duplicate of either is dropped).
    A late or re-delivered message from an earlier attempt can therefore
    never clobber a successful retry; superseded and duplicate deliveries
    are noted into ``counts``, never double-applied.
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
        if counts is not None:
            counts.note("resilience", "stale_messages_ignored")
    elif current.get("status") != "ok" and message.get("status") == "ok":
        by_key[key] = message
    elif counts is not None:
        counts.note("resilience", "duplicate_messages_ignored")


def pick_stragglers(
    durations: Dict[Any, float],
    policy: ResiliencePolicy,
) -> Tuple[List[Any], float]:
    """The fleet keys whose modelled duration marks them as stragglers, and
    the detection threshold they crossed.

    A worker is hedge-eligible when its duration exceeds the threshold: both
    ``policy.hedge_factor`` x the fleet median (the upper median of an
    even-sized fleet) and the absolute ``policy.hedge_min_seconds`` floor; at
    most ``policy.hedge_max_fraction`` of the fleet is returned (slowest
    first).  Fleets smaller than 4 never hedge — the median is too noisy —
    and their threshold is infinite.
    """
    if len(durations) < 4:
        return [], math.inf
    ordered = sorted(durations.values())
    median = ordered[len(ordered) // 2]
    threshold = max(policy.hedge_min_seconds, policy.hedge_factor * median)
    stragglers = [key for key, duration in durations.items() if duration > threshold]
    budget = max(1, int(len(durations) * policy.hedge_max_fraction))
    stragglers.sort(key=lambda key: -durations[key])
    return stragglers[:budget], threshold
