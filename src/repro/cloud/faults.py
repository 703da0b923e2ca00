"""Seeded, deterministic fault-injection plane for the simulated cloud.

The paper's serverless design assumes workers and storage fail routinely —
throttled S3 requests, lost invocations, slow ("straggler") instances, lagging
read-after-write visibility, duplicated queue deliveries.  This module gives
the simulation a way to *create* those failures on demand so the driver's
fault-tolerance machinery can be exercised deterministically:

* A :class:`FaultPlan` is a seed plus an ordered list of
  :class:`FaultRule`\\ s.  Each rule names one fault kind, fires with
  probability ``rate`` per eligible request, and is optionally capped at
  ``max_count`` total injections so bounded retry budgets provably converge.
* Services consult the plan at a named site (:data:`SITES`) through one
  method, :meth:`FaultPlan.decide`, which returns the first rule that fires
  there (a :class:`Decision`) or ``None``; the service owns the effect.  With
  no plan installed
  (:meth:`repro.cloud.environment.CloudEnvironment.install_fault_plan`) the
  consultation is a single ``is None`` check, keeping the fault-free path
  bitwise-unchanged and effectively free.
* Every injection is counted in :attr:`FaultPlan.injected`, and per query
  (:data:`~repro.cloud.metering.QUERY_TAG`), so a query's statistics report
  the faults it survived, not its neighbours'.

Draws are counter-based, after Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3" (SC 2011): a rule fires when a blake2b hash of (seed, rule
index, scope, ordinal), read as a fraction, is below its ``rate``.  The
*scope* (:data:`FAULT_SCOPE`) is who asked: inside an invocation, the worker
attempt (:func:`attempt_scope`, opened by the Lambda service and around each
payload of the driver's process-pool transport, so an attempt draws alike on
either transport); on the driver, the query
(:meth:`repro.driver.dispatch.QueryContext.scope`).  The *ordinal* counts the
scope's consultations.  An SQS delivery draws at the position stamped on its
message at send (:meth:`FaultPlan.stamp`) plus its delivery count, not at the
receiver's poll order.  So a decision depends neither on which thread got
there first nor on another scope's traffic.  The query id is random and stays
out of the key: queries of one shape under one plan draw alike.

The order-dependent state is shared on purpose: the ``max_count`` caps (they
bound retries), the once-per-key read-after-write memory, and the brownout
windows, which read the clock.  Under concurrency, positions are
arrival-independent until a cap is spent; which scope spends it is arrival
order.

Fault kinds by site, and what the service does:

* ``s3.request`` — ``slowdown``: raise :class:`~repro.errors.SlowDownError`;
  ``throttle_storm``: the same, for every matching request of the rule's
  window; ``read_after_write``: raise :class:`~repro.errors.NoSuchKeyError`
  once per freshly-written key (visibility lag).
* ``s3.body`` — ``bitflip`` (1–4 bytes XOR-flipped) or ``truncate`` (cut at a
  drawn length): the served GET body arrives corrupted, the stored object is
  intact; ``stale_body``: the key's previous version is served, if it has one.
* ``s3.after_put`` — ``crash_after_put``: raise
  :class:`~repro.errors.WorkerCrashError` after the PUT landed (the object
  stays behind).
* ``lambda.admit`` — ``capacity``: reject an invocation (TooManyRequests) at
  or above ``capacity_limit`` active instances.
* ``lambda.run`` — ``drop``: the function never runs (request fee billed);
  ``timeout``: it hangs until killed at its timeout (full duration billed);
  ``straggler``: it runs, its modelled duration multiplied by ``factor``.
* ``sqs.deliver`` — ``delay``: skipped this receive, back of the queue;
  ``corrupt_payload``: one character of the delivered body rewritten;
  ``duplicate``: delivered now and again later.
* ``pool.task`` — ``crash``: a process-pool task's result is lost; the
  driver cleans up its segment and retries.

Sustained brownouts are *time-windowed*: any rule may carry
``window_start_seconds``/``window_seconds`` and then only fires while the
environment's modelled clock is inside the window (the plan is bound to the
clock by :meth:`~repro.cloud.environment.CloudEnvironment.install_fault_plan`).
A windowed ``slowdown`` rule at rate 1.0 is a full outage window; the
dedicated ``throttle_storm``/``capacity`` kinds are the canonical brownout
schedule used by :func:`brownout_plan` and the overload chaos suite.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.cloud.metering import QUERY_TAG

#: Each consultation site and the fault kinds (``service.fault``) it can fire.
SITES: Dict[str, Tuple[str, ...]] = {
    "s3.request": ("s3.slowdown", "s3.throttle_storm", "s3.read_after_write"),
    "s3.body": ("s3.bitflip", "s3.truncate", "s3.stale_body"),
    "s3.after_put": ("s3.crash_after_put",),
    "lambda.admit": ("lambda.capacity",),
    "lambda.run": ("lambda.drop", "lambda.timeout", "lambda.straggler"),
    "sqs.deliver": ("sqs.delay", "sqs.corrupt_payload", "sqs.duplicate"),
    "pool.task": ("pool.crash",),
}
_SITE_OF = {kind: site for site, kinds in SITES.items() for kind in kinds}


@dataclass(frozen=True)
class FaultRule:
    """One injection rule of a :class:`FaultPlan`.

    ``operation`` narrows S3 rules to one verb (``get``/``put``/``head``/
    ``list``; empty matches any).  ``match`` is a substring filter against the
    request target — ``bucket/key`` for S3, function name for Lambda and the
    pool, queue name for SQS — so chaos schedules can scope faults to e.g.
    the shuffle bucket without touching the base dataset.  ``max_count`` caps
    the total number of injections from this rule (``None`` = unlimited);
    capped rules guarantee that bounded retry budgets eventually converge.
    """

    service: str
    fault: str
    rate: float
    operation: str = ""
    match: str = ""
    max_count: Optional[int] = None
    #: Straggler duration multiplier (``straggler`` rules only).
    factor: float = 6.0
    #: Visibility-lag window for ``read_after_write`` rules: only objects
    #: younger than this (modelled seconds) can be injected as missing.
    lag_seconds: float = 5.0
    #: Brownout window (any rule): the rule only fires while the bound
    #: clock reads ``window_start_seconds <= now < window_start_seconds +
    #: window_seconds``.  ``None`` window_seconds = always armed.  Plans with
    #: windowed rules must be installed via ``install_fault_plan`` so the
    #: environment binds its clock.
    window_start_seconds: float = 0.0
    window_seconds: Optional[float] = None
    #: Fleet cap for ``lambda.capacity`` rules: invocations are rejected
    #: while at least this many instances are already active.
    capacity_limit: int = 0

    def __post_init__(self):
        if self.kind not in _SITE_OF:
            if not any(kind.startswith(f"{self.service}.") for kind in _SITE_OF):
                raise ValueError(f"unknown fault service {self.service!r}")
            raise ValueError(
                f"unknown fault {self.fault!r} for service {self.service!r}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1.0")
        if self.window_seconds is not None and self.window_seconds <= 0.0:
            raise ValueError("window_seconds must be positive (or None)")
        if self.fault == "capacity" and self.capacity_limit < 1:
            raise ValueError("capacity rules need capacity_limit >= 1")

    @property
    def kind(self) -> str:
        """``service.fault``, the name injections are counted under."""
        return f"{self.service}.{self.fault}"

    def applies(self, target: str, facts: Dict[str, Any]) -> bool:
        """Whether a consultation about ``target`` with ``facts`` is eligible
        for this rule (before its window, cap and draw)."""
        if self.match and self.match not in target:
            return False
        operation = facts.get("operation")
        if self.operation and self.operation != operation:
            return False
        if self.fault == "read_after_write":
            age = facts.get("age_seconds")
            return operation in ("get", "head") and (age is None or age <= self.lag_seconds)
        if self.fault == "stale_body":
            return bool(facts.get("has_previous"))
        if self.fault == "capacity":
            return facts["active"] >= self.capacity_limit
        return True


class Decision(NamedTuple):
    """A rule that fired, and the draw it fired on: a corruption seeds
    ``random.Random(draw)`` for its offsets."""

    rule: FaultRule
    draw: int

    @property
    def fault(self) -> str:
        return self.rule.fault


#: Who consults a plan: a key, and the counter of its consultations.
FaultScope = Tuple[str, Iterator[int]]

#: The scope consulting the plan in this context (``None``: the plan's own).
FAULT_SCOPE: ContextVar[Optional[FaultScope]] = ContextVar("fault_scope", default=None)


@contextmanager
def attempt_scope(function_name: str, event: Dict[str, Any]) -> Iterator[None]:
    """Consult the plan as one worker attempt, read from its ``event``."""
    worker = event.get("worker_id", event.get("partition"))
    key = f"{function_name}/{event.get('side')}/{worker}/{event.get('attempt', 0)}"
    token = FAULT_SCOPE.set((key, itertools.count()))
    try:
        yield
    finally:
        FAULT_SCOPE.reset(token)


_SPAN = float(2 ** 64)


class FaultPlan:
    """A seeded schedule of fault injections consulted by the cloud services
    through :meth:`decide`: each draw is a function of the seed, the rule and
    the consulting scope's position, so a seed replays its schedule exactly
    and one scope's draws do not move when another's interleave with them.
    Under concurrency, positions are arrival-independent until a cap is spent.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0):
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self._key = str(seed).encode()
        # Zero-rate rules never fire: they are not consulted, nor hashed.
        self._sites: Dict[str, List[Tuple[int, FaultRule]]] = {site: [] for site in SITES}
        for index, rule in enumerate(self.rules):
            if rule.rate > 0.0:
                self._sites[_SITE_OF[rule.kind]].append((index, rule))
        self._clock = None
        # Guards the shared books below, never a draw.
        self._lock = threading.Lock()
        self.reset()

    def bind_clock(self, clock) -> None:
        """Attach the environment's clock so windowed rules can fire.

        Called by ``install_fault_plan``; a plan with windowed rules but no
        bound clock treats every window as inactive (fails safe to
        no-injection rather than firing at arbitrary times).
        """
        self._clock = clock

    def reset(self) -> None:
        """Re-arm the plan: zero every counter and cap.

        Restores the post-construction state so one plan object can be
        reused across queries or pytest cases with a reproducible schedule —
        cumulative ``injected`` counts, per-rule ``max_count`` exhaustion, the
        once-per-key read-after-write memory and the position of consultations
        made outside any scope are all cleared.
        """
        with self._lock:
            self._fired: List[int] = [0] * len(self.rules)
            self._raw_injected: Set[str] = set()
            self._loose: FaultScope = ("plan", itertools.count())
            #: Injection counts by fault kind, e.g. ``{"s3.slowdown": 3}``.
            self.injected: Counter = Counter()
            #: The same, by the query that drew them (``None``: outside any).
            self._by_query: Dict[Optional[str], Counter] = defaultdict(Counter)

    def stamp(self) -> Tuple[str, int]:
        """The calling scope's next draw position (the plan's own scope
        outside any); an SQS message carries it from its send."""
        key, ordinals = FAULT_SCOPE.get() or self._loose
        return key, next(ordinals)

    def decide(
        self, site: str, target: str = "", stamp: Optional[Tuple] = None, **facts: Any
    ) -> Optional[Decision]:
        """The first rule of ``site`` that fires on this consultation, or ``None``.

        ``target`` is what the request names (``bucket/key``, function or
        queue name), ``facts`` what eligibility reads: ``operation``,
        ``age_seconds``, ``has_previous``, ``active``.  Every call takes the
        calling scope's next position, unless ``stamp`` gives one (an SQS
        delivery: its send stamp plus its delivery count).  A firing rule is
        counted plan-wide and under the calling query.
        """
        if stamp is None:
            stamp = self.stamp()
        for index, rule in self._sites[site]:
            if not rule.applies(target, facts) or not self._window_active(rule):
                continue
            position = "|".join(map(str, (index, *stamp))).encode()
            draw = int.from_bytes(
                hashlib.blake2b(position, digest_size=8, key=self._key).digest(), "big"
            )
            if draw >= rule.rate * _SPAN:
                continue
            with self._lock:
                if rule.max_count is not None and self._fired[index] >= rule.max_count:
                    continue
                if rule.fault == "read_after_write":
                    # Fire at most once per key so retries converge.
                    if target in self._raw_injected:
                        continue
                    self._raw_injected.add(target)
                self._fired[index] += 1
                self.injected[rule.kind] += 1
                self._by_query[QUERY_TAG.get()][rule.kind] += 1
            return Decision(rule, draw)
        return None

    def _window_active(self, rule: FaultRule) -> bool:
        """Whether ``rule``'s brownout window is currently open."""
        if rule.window_seconds is None:
            return True
        if self._clock is None:
            return False
        start = rule.window_start_seconds
        return start <= self._clock.now < start + rule.window_seconds

    # -- statistics -----------------------------------------------------------

    def injected_total(self) -> int:
        """Total number of faults injected so far."""
        with self._lock:
            return sum(self.injected.values())

    def injected_into(self, query_id: str) -> Dict[str, int]:
        """Per-kind counts of the faults injected while ``query_id`` ran."""
        with self._lock:
            return dict(self._by_query.get(query_id, ()))

    def to_dict(self) -> Dict[str, int]:
        """Copy of the per-kind injection counts."""
        with self._lock:
            return dict(self.injected)


def chaos_plan(
    seed: int,
    rate: float = 0.1,
    max_count: int = 6,
    match: str = "",
    straggler_factor: float = 8.0,
) -> FaultPlan:
    """A representative all-services chaos schedule, used by the chaos suite.

    Every always-fatal fault kind is capped at ``max_count`` injections so a
    bounded retry budget is guaranteed to converge regardless of ``rate``;
    benign kinds (stragglers, duplicate/delayed deliveries) are capped too so
    poll loops stay short.  ``match`` scopes the S3 rules (substring of
    ``bucket/key``) so chaos can target e.g. shuffle traffic only.
    """
    return FaultPlan(
        rules=[
            FaultRule("s3", "slowdown", rate, match=match, max_count=max_count),
            FaultRule(
                "s3", "read_after_write", rate, match=match, max_count=max_count
            ),
            FaultRule(
                "s3", "crash_after_put", rate, match=match, max_count=max_count
            ),
            FaultRule("lambda", "drop", rate, max_count=max_count),
            FaultRule("lambda", "timeout", rate / 2, max_count=max_count),
            FaultRule(
                "lambda",
                "straggler",
                rate,
                max_count=max_count,
                factor=straggler_factor,
            ),
            FaultRule("sqs", "duplicate", rate, max_count=max_count),
            FaultRule("sqs", "delay", rate, max_count=max_count),
            FaultRule("pool", "crash", rate, max_count=max_count),
        ],
        seed=seed,
    )


def corruption_chaos_plan(
    seed: int,
    rate: float = 0.15,
    max_count: int = 8,
    match: str = "",
) -> FaultPlan:
    """A corruption-focused chaos schedule, used by the corruption parity suite.

    Every served-body and message-payload corruption kind fires at ``rate``
    per eligible request, capped at ``max_count`` injections each so the
    driver's bounded re-read/re-execute budget provably converges.  ``match``
    scopes the S3 rules (substring of ``bucket/key``), e.g. to shuffle
    traffic only.  Kept separate from :func:`chaos_plan` so the loss-fault
    suite's injection budget (exactly 9 rules) is unchanged.
    """
    return FaultPlan(
        rules=[
            FaultRule(
                "s3", "bitflip", rate, operation="get", match=match,
                max_count=max_count,
            ),
            FaultRule(
                "s3", "truncate", rate, operation="get", match=match,
                max_count=max_count,
            ),
            FaultRule(
                "s3", "stale_body", rate, operation="get", match=match,
                max_count=max_count,
            ),
            FaultRule("sqs", "corrupt_payload", rate, max_count=max_count),
        ],
        seed=seed,
    )


def brownout_plan(
    seed: int,
    storm_start_seconds: float = 0.0,
    storm_seconds: float = 120.0,
    storm_rate: float = 0.35,
    capacity_limit: int = 6,
    max_count: int = 24,
    match: str = "",
) -> FaultPlan:
    """A sustained-brownout schedule, used by the overload chaos suite.

    Models the regional bad afternoon the overload control plane exists for: an S3
    throttle storm plus a Lambda fleet cap, both confined to one clock window
    (``storm_start_seconds`` .. ``+ storm_seconds``) so tests can drive the
    environment's clock into and out of the brownout deterministically.  Both
    rules stay capped at ``max_count`` injections each, so bounded retry
    budgets provably converge even inside the window.
    """
    return FaultPlan(
        rules=[
            FaultRule(
                "s3",
                "throttle_storm",
                storm_rate,
                match=match,
                max_count=max_count,
                window_start_seconds=storm_start_seconds,
                window_seconds=storm_seconds,
            ),
            FaultRule(
                "lambda",
                "capacity",
                1.0,
                max_count=max_count,
                capacity_limit=capacity_limit,
                window_start_seconds=storm_start_seconds,
                window_seconds=storm_seconds,
            ),
        ],
        seed=seed,
    )


__all__ = [
    "SITES",
    "FAULT_SCOPE",
    "FaultRule",
    "Decision",
    "FaultPlan",
    "attempt_scope",
    "chaos_plan",
    "corruption_chaos_plan",
    "brownout_plan",
]
