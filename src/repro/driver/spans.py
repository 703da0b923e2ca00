"""One clock: a query's modelled time is one span tree.

The paper explains a query's latency as launching the fleet (§4.2), the
slowest worker — or a shuffle DAG's barriered waves — and draining the SQS
result queue (§3.3).  Each part is a :class:`Span` of one tree: the query span
opens with its :class:`~repro.driver.dispatch.QueryContext`,
:func:`~repro.driver.dispatch.run_fleet` opens a ``wave`` span per fleet and
records an ``attempt`` span per payload each round dispatched (a re-dispatch
is a ``redispatch`` event on the failed attempt, a hedge an attempt with a
``hedge_won`` / ``hedge_lost`` event), and placing the query adds its
``launch`` and ``collection``.  Every span has a wall interval
(``perf_counter``) and a modelled one, in seconds since the launch began,
placed here alone (:func:`place_scan`, :func:`place_run`, :func:`place_dag`)
from the accepted attempts; any other attempt is an instant at its slot.  The
timings of :class:`QueryStatistics`, every query's one run record, are views
over the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.counters import CounterViews, Counts, LayerView, viewed


class Span:
    """One stretch of a query: ``name``, ``attrs``, ``children`` and
    ``events`` (``(name, attrs)``) in recorded order, and its wall
    (``wall_start``/``wall_end``) and modelled (``start``/``end``) intervals."""

    __slots__ = ("name", "attrs", "children", "events", "wall_start", "wall_end", "start", "end")

    def __init__(
        self, name: str, parent: Optional["Span"] = None,
        wall_start: Optional[float] = None, **attrs: Any,
    ):
        self.name, self.attrs = name, attrs
        self.children: List[Span] = []
        self.events: List[Tuple[str, Dict[str, Any]]] = []
        self.wall_start = perf_counter() if wall_start is None else wall_start
        self.wall_end: Optional[float] = None
        self.start = self.end = 0.0
        if parent is not None:
            parent.children.append(self)

    def event(self, name: str, **attrs: Any) -> None:
        self.events.append((name, attrs))

    def walk(self) -> Iterator["Span"]:
        """This span, then its descendants, depth first in recorded order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        return [child for child in self.children if child.name == name]

    def last(self, name: str) -> Optional["Span"]:
        found = self.find(name)
        return found[-1] if found else None


def duration(message: Dict) -> float:
    """The modelled duration in a scan's or a wave worker's result message."""
    result = message.get("result") or message.get("worker_result") or {}
    return result.get("duration_seconds", 0.0)


def record_round(
    wave: Span, keys: Sequence, events: Dict, by_key: Dict, wall_start: float,
    hedge: bool = False,
) -> Dict[Tuple[Any, int], Span]:
    """One attempt span per key of a round that dispatched ``events[key]``
    and folded the reports into ``by_key``, by ``(key, attempt)``."""
    wall_end, spans = perf_counter(), {}
    for key in keys:
        attempt = int(events[key].get("attempt", 0))
        message = by_key.get(key, {})
        if not message or int(message.get("attempt", 0)) != attempt:
            message = {"status": "missing"}
        spans[key, attempt] = span = Span(
            "attempt", wave, wall_start, key=key, attempt=attempt,
            status=message.get("status", "error"), duration=duration(message), wait=0.0,
            hedge=hedge, accepted=False,
        )
        span.wall_end = wall_end
    return spans


def accept(attempts: Dict[Tuple[Any, int], Span], by_key: Dict) -> None:
    """Mark the attempt of every ok message ``by_key`` holds as accepted."""
    for key, message in by_key.items():
        span = attempts.get((key, int(message.get("attempt", 0))))
        if span is not None and message.get("status") == "ok":
            span.attrs.update(status="ok", duration=duration(message), accepted=True)


def supersede(wave: Span, key: Any, hedge: Span, wait: float) -> None:
    """``key``'s hedge won: it is accepted, ending ``wait`` (its detection
    threshold) after its own run, and the attempt it raced is not."""
    for span in accepted(wave):
        if span.attrs["key"] == key:
            span.attrs["accepted"] = False
    hedge.attrs.update(accepted=True, wait=wait)


def accepted(wave: Span) -> List[Span]:
    """The wave's accepted attempts, in key order."""
    spans = [span for span in wave.children if span.attrs["accepted"]]
    return sorted(spans, key=lambda span: span.attrs["key"])


def length(attempt: Span) -> float:
    """An accepted attempt's run, plus the wait before a won hedge started."""
    return attempt.attrs["duration"] + attempt.attrs["wait"]


def wave_seconds(wave: Span) -> float:
    return max(length(span) for span in accepted(wave))


def attempts(query: Span) -> List[Span]:
    """Every attempt of the query: each is one billed invocation."""
    return [span for span in query.walk() if span.name == "attempt"]


def redispatches(query: Span) -> List[Dict[str, Any]]:
    """The ``redispatch`` events (``key``, failed ``attempt``, ``error``,
    ``backoff_seconds``), in the order they were booked."""
    return [attrs for span in query.walk() for name, attrs in span.events if name == "redispatch"]


def worker_durations(query: Span) -> List[float]:
    """Per-worker modelled durations: the accepted attempts' lengths, waves in
    order, keys in order."""
    return [length(span) for wave in query.find("wave") for span in accepted(wave)]


def map_seconds(query: Span) -> float:
    """The scan wave's length: its slowest worker."""
    waves = query.find("wave")
    return wave_seconds(waves[0]) if waves else 0.0


def reduce_seconds(query: Span) -> float:
    """The join waves' lengths, added in order (they are barriered)."""
    total = 0.0
    for wave in query.find("wave")[1:]:
        total += wave_seconds(wave)
    return total


def run_seconds(query: Span, backoff: float) -> float:
    """A coordinator run's length: its waves, then the ``backoff``."""
    return (map_seconds(query) + reduce_seconds(query)) + backoff


def _place(wave: Span, slot: Callable[[Any, float], Tuple[float, float]]) -> None:
    """An accepted attempt at ``slot(key, length)``, any other an instant at
    its key's slot start, and the wave around them."""
    for span in wave.children:
        key = span.attrs["key"]
        if span.attrs["accepted"]:
            span.start, span.end = slot(key, length(span))
        else:
            span.start = span.end = slot(key, 0.0)[0]
    wave.start = min(span.start for span in wave.children)
    wave.end = max(span.end for span in wave.children)


def _modelled(name: str, start: float, end: float, around: Span, **attrs: Any) -> Span:
    """A span of the modelled clock only; on the wall clock it is the fleet
    ``around``."""
    span = Span(name, None, around.wall_start, **attrs)
    span.wall_end, span.start, span.end = around.wall_end, start, end
    return span


def _launch_and_collect(query: Span, launch: Any, first: Span, final: Span) -> float:
    """Open the query with the ``launch`` of every worker and close it with
    the drain of ``final``'s accepted results; returns when the last result
    reached the driver."""
    plan = launch.collection([span.end for span in accepted(final)])
    query.children = (
        [_modelled("launch", 0.0, launch.time_to_start_all, first, workers=launch.num_workers)]
        + query.children
        + [_modelled(
            "collection", plan.last_completion, plan.finish, final,
            seconds=plan.seconds, pollers=plan.pollers, receives=plan.receives,
        )]
    )
    return plan.finish


def place_scan(query: Span, launch: Any, backoff: float) -> None:
    """A scan: worker ``i`` runs its accepted attempt from the ``launch``'s
    start time ``i``, the queue is drained behind them, then the retry
    rounds' ``backoff`` is charged."""
    wave, starts = query.last("wave"), launch.worker_start_times()
    _place(wave, lambda key, seconds: (float(starts[key]), float(starts[key] + seconds)))
    query.start, query.end = 0.0, _launch_and_collect(query, launch, wave, wave) + backoff


def _place_waves(query: Span, offset: float) -> List[Span]:
    """The run's barriered waves back to back from ``offset``."""
    waves, first, done = query.find("wave"), map_seconds(query), 0.0
    _place(waves[0], lambda key, seconds: (offset, offset + seconds))
    for wave in waves[1:]:
        _place(wave, lambda key, seconds, before=done: (
            offset + (first + before), offset + (first + (before + seconds))
        ))
        done += wave_seconds(wave)
    return waves


def place_run(query: Span, backoff: float) -> None:
    """A coordinator run on its own (the aggregation facade): its waves from
    0, and the query as long as the run."""
    _place_waves(query, 0.0)
    query.start, query.end = 0.0, run_seconds(query, backoff)


def place_dag(query: Span, launch: Any, backoff: float) -> None:
    """A DAG under the driver: one ``launch`` of every worker, the run behind
    it — the final wave's workers start together, so its slowest ends the
    run — and only the final wave's results collected."""
    waves = _place_waves(query, launch.time_to_start_all)
    base = launch.time_to_start_all + run_seconds(query, backoff) - wave_seconds(waves[-1])
    _place(waves[-1], lambda key, seconds: (base, base + seconds))
    query.start, query.end = 0.0, _launch_and_collect(query, launch, waves[0], waves[-1])


def describe_latency(query: Span, backoff: float) -> str:
    """The critical path of the modelled latency as one line: the launch,
    the workers — a scan's last start to last completion, a DAG's waves —
    what the queue drain adds, and any backoff."""
    launch, collection = query.last("launch"), query.last("collection")
    waves = query.find("wave")
    terms = [("launch", launch.end)]
    if len(waves) > 1:
        plural = "" if len(waves) == 2 else "s"
        terms.append(("scan wave", map_seconds(query)))
        terms.append((f"{len(waves) - 1} join wave{plural}", reduce_seconds(query)))
    else:
        terms.append(("last worker", waves[0].end - launch.end))
    terms.append(("collection", collection.attrs["seconds"]))
    line = f"latency {query.end:.3f} s = " + " + ".join(
        f"{label} {seconds:.3f}" for label, seconds in terms
    )
    pollers, receives = collection.attrs["pollers"], collection.attrs["receives"]
    line += (
        f" ({pollers} poller{'' if pollers == 1 else 's'},"
        f" {receives} receive{'' if receives == 1 else 's'})"
    )
    return line + (f" + backoff {backoff:.3f}" if backoff else "")


def chrome_trace(query: Span) -> Dict[str, Any]:
    """The tree as Chrome trace-event JSON: one ``"X"`` event per span on
    each clock (pid 0 modelled, pid 1 wall since the query opened), its
    attributes and events as ``args``; a wave's attempts in key order are rows
    (tid) 1, 2, ... and every other span is row 0."""
    rows = {id(span): row for wave in query.find("wave") for row, span in enumerate(
        sorted(wave.children, key=lambda span: span.attrs["key"]), 1)}
    events = []
    for span in query.walk():
        args = {**span.attrs, "events": [{"name": name, **attrs} for name, attrs in span.events]}
        wall_end = span.wall_start if span.wall_end is None else span.wall_end
        for pid, start, end in (
            (0, span.start, span.end),
            (1, span.wall_start - query.wall_start, wall_end - query.wall_start),
        ):
            events.append({
                "name": span.attrs.get("label", span.name), "cat": span.name, "ph": "X",
                "pid": pid, "tid": rows.get(id(span), 0), "ts": start * 1e6,
                "dur": (end - start) * 1e6, "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def clocked(read: Callable[[Span], Any], doc: str) -> property:
    """A read-only attribute: ``read(self._trace)``."""
    return property(lambda self: read(self._trace), doc=doc)


def _launch_end(query: Span) -> float:
    launch = query.last("launch")
    return 0.0 if launch is None else launch.end


def _collection(attr: str, zero: Any) -> Callable[[Span], Any]:
    """Reads ``attr`` of the query's collection span, ``zero`` when it has
    none (a catalog-pruned query)."""

    def read(query: Span) -> Any:
        collection = query.last("collection")
        return zero if collection is None else collection.attrs[attr]

    return read


def _median(query: Span) -> float:
    durations = worker_durations(query)
    return float(np.median(durations)) if durations else 0.0


class QueryClock:
    """The timings of a query: views over its placed tree."""

    _trace: Span

    latency_seconds = clocked(
        lambda query: query.end,
        "Modelled end-to-end latency: the query span's end (the facade's: its run).",
    )
    invocation_seconds = clocked(
        _launch_end, "Modelled time until every worker ran: the launch span's end."
    )
    worker_durations = clocked(worker_durations, worker_durations.__doc__)
    max_worker_seconds = clocked(
        lambda query: float(max(worker_durations(query), default=0.0)),
        "Modelled duration of the slowest worker.",
    )
    median_worker_seconds = clocked(_median, "Modelled duration of the median worker.")
    collection_seconds = clocked(
        _collection("seconds", 0.0), "What the result drain adds after the last worker."
    )
    collection_pollers = clocked(_collection("pollers", 0), "Threads polling the results.")
    collection_receives = clocked(_collection("receives", 0), "Receives the drain modelled.")
    redispatches = clocked(
        lambda query: len(redispatches(query)), "Re-dispatched workers: one invocation each."
    )

    def trace(self) -> Dict[str, Any]:
        """The query's span tree as Chrome trace-event JSON (load it in
        ``chrome://tracing`` or Perfetto)."""
        return chrome_trace(self._trace)


@dataclass
class QueryStatistics(CounterViews, QueryClock):
    """Performance and cost statistics of one query: the one run record.

    What :meth:`~repro.driver.driver.LambadaDriver.execute` reports for a
    scan or a shuffle DAG, and what
    :meth:`~repro.driver.shuffle.ShuffleJoinCoordinator.execute` and the
    aggregation facade return for a coordinator run.  The counts — rows,
    bytes and GETs of the scans, the late-materialization and join counters,
    each summed over the fleets, and the ``exchange``, ``resilience`` and
    ``integrity`` blocks — are read-only views over the query's counter
    record (:attr:`~repro.driver.dispatch.QueryContext.counters`); the dollars
    are read-only views over the query's bill, the metering ledger's price of
    the records made while the query ran
    (:meth:`~repro.driver.dispatch.QueryContext.bill`), so ``cost_total`` is
    exactly what the simulated cloud billed the query; the timings are
    read-only views over the query's span tree
    (:attr:`~repro.driver.dispatch.QueryContext.trace`, placed on the modelled
    clock by this module), which :meth:`trace` renders.  The other fields are
    what the driver or the coordinator planned and measured.
    """

    #: Workers the query started: a scan's fleet, or a coordinator run's
    #: mappers plus its join workers (hash partitions × join waves).
    num_workers: int
    memory_mib: int
    cold: bool
    #: Modelled time until every worker of the fleet was running: the
    #: launch span's end (0 for a coordinator run on its own).
    invocation_seconds: float = viewed()
    #: Modelled execution time of the slowest / median worker.
    max_worker_seconds: float = viewed()
    median_worker_seconds: float = viewed()
    #: Modelled end-to-end query latency seen by the user: the query span's
    #: end — for the aggregation facade, the run's barriered waves plus any
    #: backoff.
    latency_seconds: float = viewed()
    rows_scanned: int = viewed()
    bytes_read: int = viewed()
    get_requests: int = viewed()
    #: Dollar cost breakdown, by service: Lambda GiB-seconds and requests,
    #: S3 requests (scans, exchange, LISTs of globs and sweeps, spills), SQS
    #: requests (result sends and the receives the driver issued) and the
    #: §5.3 catalog's DynamoDB reads; they sum to ``cost_total``.
    cost_lambda_duration: float = viewed()
    cost_lambda_requests: float = viewed()
    cost_s3_requests: float = viewed()
    cost_sqs_requests: float = viewed()
    cost_dynamodb_requests: float = viewed()
    #: Late-materialization scan counters: row groups whose selection vector
    #: short-circuited, rows never fully decoded, column-chunk downloads
    #: avoided.
    row_groups_shortcircuited: int = viewed()
    rows_decode_saved: int = viewed()
    column_chunks_skipped: int = viewed()
    #: Exchange-plane requests and bytes (non-zero only for plans with an
    #: exchange hop).
    exchange: LayerView = viewed()
    #: Join counters (non-zero only for join plans): rows entering the
    #: probe/build sides of the join kernels after repartitioning, and rows
    #: the kernels produced.
    join_probe_rows: int = viewed()
    join_build_rows: int = viewed()
    join_output_rows: int = viewed()
    #: Fault-tolerance counters: retries, hedges won/lost, injected faults
    #: survived, degradation fallbacks, wasted modelled cost.  All-zero on a
    #: clean run.
    resilience: LayerView = viewed()
    #: Workers the fleets re-dispatched (their ``redispatch`` events), each
    #: billed as one more invocation.
    redispatches: int = viewed()
    #: Data-integrity counters: bytes whose checksums were verified on read,
    #: mismatches by site, re-reads vs re-executions.
    integrity: LayerView = viewed()
    #: Per-worker modelled execution durations (every wave's accepted
    #: attempts), seconds.
    worker_durations: List[float] = viewed()
    #: Result collection (the collection span, priced by
    #: :class:`~repro.driver.invocation.CollectionPlan`): what the modelled
    #: queue drain adds after the last worker finished, and its polling
    #: threads and receive requests.  A scan's ``latency_seconds`` is the
    #: last completion + ``collection_seconds`` + the resilience block's
    #: backoff.  ``collection_receives`` is the modelled drain's count; the
    #: bill (``cost_sqs_requests``) counts the receives the driver issued.
    collection_seconds: float = viewed()
    collection_pollers: int = viewed()
    collection_receives: int = viewed()
    #: Logical join stages of the plan (1 for a binary join,
    #: ``len(dag.stages)`` for an N-way join DAG, 0 for a repartitioned
    #: aggregation; 1 for scan queries too, where no join exists but the
    #: field keeps a uniform meaning).
    dag_stages: int = 1
    #: The join waves that actually ran, each the DAG stages it executed —
    #: its first stage repartitioned, the others fused in as broadcast joins
    #: (decided at run time from the build sides' sizes; ``[[]]`` for a
    #: repartitioned aggregation, one wave joining nothing; empty for scans).
    wave_stages: List[List[int]] = field(default_factory=list)
    #: Join workers started per wave (the exchange's hash partitions) and
    #: the planner's byte estimate they were priced from (0 = unknown; both 0
    #: for scans); ``exchange.bytes_written`` is what the run measured.
    exchange_partitions: int = 0
    estimated_exchange_bytes: int = 0
    #: Mappers each scan fleet of a DAG started, by exchange tag (``"L"``,
    #: ``"R"``, ``"R1"``, ...; empty for scans).
    map_fleets: Dict[str, int] = field(default_factory=dict)
    #: Partition objects written (combined objects count 1) / non-empty
    #: slices read, every wave summed (0 for scans).
    partition_objects_written: int = 0
    partition_objects_read: int = 0
    #: Rows of a coordinator run's result (0 for the driver's scans).
    result_rows: int = 0
    #: Final-wave results too large for a queue message: each travelled
    #: through the result bucket instead (one PUT, one driver-side GET).
    results_spilled: int = 0
    #: Exchange objects the coordinator deleted: each wave's consumed inputs,
    #: spilled results, and whatever a post-fault sweep found (0 for scans).
    gc_objects_deleted: int = 0
    #: LIST requests of the coordinator's end-of-query orphan sweep, which
    #: only runs after a fault (0 on a clean run).
    gc_list_requests: int = 0
    #: Overload-control block: this query's retry-budget spend plus the
    #: owning driver's circuit-breaker states and transition log at query
    #: end.  ``None`` for a coordinator run on its own and for
    #: catalog-pruned empty results, which never touch the fleet.
    overload: Optional[Dict[str, Any]] = None
    #: The query's counter record, span tree and bill (its context's).
    _counters: Counts = field(default_factory=Counts, repr=False)
    _trace: Span = field(default_factory=lambda: Span("query"), repr=False)
    _bill: Callable[[], Dict[str, float]] = field(default=dict, repr=False)

    @property
    def join_waves(self) -> int:
        """Join waves executed (0 for scans, at most ``dag_stages``)."""
        return len(self.wave_stages)

    @property
    def broadcast_stages(self) -> int:
        """Join stages that ran as a broadcast join inside an earlier wave."""
        return sum(len(wave) - 1 for wave in self.wave_stages if wave)

    def describe_latency(self) -> str:
        """The critical path of the modelled latency, as one line
        (:func:`describe_latency`): the launch, then the workers — for a scan
        the stretch from the last start to the last completion, for a DAG its
        barriered waves — then what the result-queue drain adds, and any
        backoff the retry machinery charged; the terms sum to
        ``latency_seconds``.
        """
        return describe_latency(self._trace, self.resilience.backoff_seconds)
