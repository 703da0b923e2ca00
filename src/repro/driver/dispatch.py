"""One way to run a fleet: dispatch, collect, retry.

The paper's driver does one thing per fleet, whatever it computes (§3.2–3.3):
invoke the workers, learn of completion through the SQS result queue,
re-invoke what failed.  :func:`run_fleet` is that loop, :func:`collect_results`
that queue's only poller; the scan fleet, the process pool and every shuffle
wave run through them.  What differs per caller is data: a *transport* closure
that starts attempts and folds their reports into ``by_key``, the
:class:`FleetLabels` its pump points and budget charges carry, its rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.config import DEFAULT_RESILIENCE
from repro.driver.integrity import IntegrityStats, open_message
from repro.driver.resilience import (
    AttemptLog,
    ResiliencePolicy,
    ResilienceStats,
    decorrelated_jitter,
    merge_attempt_message,
)

#: What a worker that never reported (dropped invocation, crash) failed with.
NO_RESULT_ERROR = "no result message (lost invocation or worker crash)"


@dataclass(frozen=True)
class FleetLabels:
    """What a fleet's pump points and retry charges are called.

    Data on the call (the cancellation and overload suites pin the names per
    caller), so the loop never asks which caller it serves.
    """

    #: Cancellation stage checked before the first dispatch, if any.
    dispatch: Optional[str]
    #: Cancellation stage checked before every retry round.
    retry: str
    #: Retry-budget account one re-dispatched worker is charged to.
    budget: str


def current_attempts(events: Dict) -> Dict:
    """``{key: attempt}`` of a fleet as dispatched so far — what a poll wants."""
    return {key: int(event.get("attempt", 0)) for key, event in events.items()}


def failed_keys(events: Dict, by_key: Dict) -> List:
    """Keys of ``events`` that hold no ok result yet, sorted."""
    return sorted(key for key in events if by_key.get(key, {}).get("status") != "ok")


def collect_results(
    sqs: Any,
    queue: str,
    query_id: str,
    want: Dict,
    by_key: Dict,
    label: str,
    resilience: Optional[ResilienceStats] = None,
    verify: bool = True,
    integrity: Optional[IntegrityStats] = None,
    cancel: Optional[Any] = None,
) -> int:
    """Poll ``queue`` until every key of ``want`` reported; returns how many did.

    ``want`` maps fleet keys — the worker id, or ``(side, worker_id)`` for
    messages that name a side — to the attempt dispatched for them.  Messages
    of ``query_id`` are folded into ``by_key`` under (key, attempt) dedup:
    duplicate and stale deliveries are counted into ``resilience`` and
    dropped, keys outside ``want`` are dropped uncounted.  A key is satisfied
    by a message (ok *or* error) of at least its wanted attempt — an older
    one cannot end the poll, so a retry is never confused with the attempt it
    superseded.  A corrupt message is counted into ``integrity`` and dropped:
    its worker looks missing and is re-invoked, so it never contributes rows.
    ``cancel`` is checked before every receive under the stage ``label``; the
    poll budget is bounded (the wave deadline), and what it leaves missing is
    absent from, or stale in, ``by_key``.
    """
    missing = {
        key
        for key, attempt in want.items()
        if key not in by_key or int(by_key[key].get("attempt", 0)) < attempt
    }
    max_polls = max(
        DEFAULT_RESILIENCE.min_poll_rounds,
        len(want) * DEFAULT_RESILIENCE.poll_rounds_per_worker,
    )
    for _ in range(max_polls):
        if cancel is not None:
            cancel.check(label)
        for message in sqs.receive_messages(queue, max_messages=10):
            payload = open_message(message.body, verify, integrity)
            if payload is None or payload.get("query_id") != query_id:
                continue  # corrupt, or stale from an earlier query
            side, key = payload.get("side"), payload.get("worker_id", -1)
            if side is not None:
                key = (side, key)
            if key not in want:
                continue
            merge_attempt_message(by_key, key, payload, resilience)
            if int(payload.get("attempt", 0)) >= want[key]:
                missing.discard(key)
        if not missing:
            break
    return len(want) - len(missing)


def run_fleet(
    events: Dict,
    transport: Callable[[List[Dict], Dict], None],
    rounds: int,
    policy: ResiliencePolicy,
    rng: random.Random,
    resilience: ResilienceStats,
    labels: FleetLabels,
    attempt_log: AttemptLog,
    integrity: Optional[IntegrityStats] = None,
    cancel: Optional[Any] = None,
    budget: Optional[Any] = None,
    on_retry: Optional[Callable[[Any, Dict, str], None]] = None,
    give_up: Optional[Callable[[], bool]] = None,
) -> Optional[Dict]:
    """Dispatch ``events`` and re-dispatch what failed; returns ``{key: message}``.

    ``events`` maps fleet keys to invocation payloads; ``transport(payloads,
    by_key)`` starts the given payloads and folds their reports into
    ``by_key``.  Up to ``rounds - 1`` times, the workers that failed or never
    reported are re-dispatched in key order as their next attempt (``events``
    is updated in place) after one jittered backoff, charged to the modelled
    latency and never slept.  Each failed attempt lands in ``attempt_log``;
    each re-dispatch is charged to ``budget`` and counted as a retry;
    ``on_retry(key, retry, error)`` lets the caller edit the retry payload
    and book the failure.  ``give_up()`` is asked before a retry round is
    paid for: true abandons the fleet and returns ``None``.  An exhausted
    fleet is returned as it stands — what that raises is the caller's.
    """
    if cancel is not None and labels.dispatch is not None:
        cancel.check(labels.dispatch)
    by_key: Dict = {}
    transport([events[key] for key in sorted(events)], by_key)
    sleep = 0.0
    for _ in range(rounds - 1):
        failed = failed_keys(events, by_key)
        if not failed:
            break
        if cancel is not None:
            cancel.check(labels.retry)
        if give_up is not None and give_up():
            return None
        sleep = decorrelated_jitter(
            sleep, rng, policy.backoff_base_seconds, policy.backoff_cap_seconds
        )
        resilience.backoff_seconds += sleep
        for key in failed:
            error = by_key.get(key, {}).get("error") or NO_RESULT_ERROR
            previous = int(events[key].get("attempt", 0))
            worker_id = key[1] if isinstance(key, tuple) else key
            attempt_log.record(worker_id, previous, error, backoff_seconds=sleep)
            if integrity is not None and error.startswith("IntegrityError"):
                # At-rest corruption no re-GET cured: the retry re-executes.
                integrity.re_executions += 1
            retry = {**events[key], "attempt": previous + 1}
            if on_retry is not None:
                on_retry(key, retry, error)
            events[key] = retry
            if budget is not None:
                budget.charge(labels.budget)
            resilience.retries += 1
        transport([events[key] for key in failed], by_key)
    return by_key
