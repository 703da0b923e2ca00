"""Exception hierarchy for the Lambada reproduction.

Every error raised by the library derives from :class:`LambadaError` so that
callers can catch a single base class.  Sub-hierarchies mirror the major
subsystems: the simulated cloud services, the columnar file format, query
planning, and query execution.
"""

from __future__ import annotations


class LambadaError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Cloud substrate errors
# ---------------------------------------------------------------------------

class CloudError(LambadaError):
    """Base class for errors raised by the simulated cloud services."""


class NoSuchBucketError(CloudError):
    """A request referenced a bucket that does not exist."""


class NoSuchKeyError(CloudError):
    """A GET/HEAD request referenced an object key that does not exist."""


class BucketAlreadyExistsError(CloudError):
    """A bucket with the requested name already exists."""


class KeyTooLongError(CloudError):
    """A PUT named a key longer than S3 allows (``KeyTooLongError`` on AWS)."""


class InvalidRangeError(CloudError):
    """A ranged GET requested bytes outside of the object."""


class SlowDownError(CloudError):
    """The object store throttled the request (HTTP 503 SlowDown on AWS).

    Raised when the per-bucket request rate limit is exceeded.  Callers are
    expected to back off and retry, exactly as against the real service.
    """


class NoSuchQueueError(CloudError):
    """A queue operation referenced a queue that does not exist."""


class NoSuchTableError(CloudError):
    """A key-value operation referenced a table that does not exist."""


class ConditionalCheckFailedError(CloudError):
    """A conditional put on the key-value store failed its precondition."""


class FunctionNotFoundError(CloudError):
    """An invocation referenced a Lambda function that was never deployed."""


class TooManyRequestsError(CloudError):
    """The function service rejected an invocation (concurrency limit)."""


class FunctionTimeoutError(CloudError):
    """A function invocation exceeded its configured timeout."""


class FunctionOutOfMemoryError(CloudError):
    """A function invocation exceeded its configured memory limit."""


class WorkerCrashError(CloudError):
    """The execution environment died mid-invocation (injected by a FaultPlan).

    Unlike ordinary handler exceptions this models the *instance* crashing —
    the worker's catch-all error reporting deliberately re-raises it, so no
    result message is ever posted and the driver only notices the worker is
    missing at the wave deadline.
    """


class PayloadTooLargeError(CloudError):
    """An invocation payload or message exceeded the service limit."""


# ---------------------------------------------------------------------------
# File format errors
# ---------------------------------------------------------------------------

class FormatError(LambadaError):
    """Base class for errors in the columnar file format."""


def _integrity_context(
    key=None, layer=None, offset=None, expected=None, actual=None
) -> str:
    """Render the structured corruption context shared by the integrity errors."""
    parts = []
    if key:
        parts.append(f"object={key}")
    if layer:
        parts.append(f"layer={layer}")
    if offset is not None:
        parts.append(f"offset={offset}")
    if expected is not None:
        parts.append(f"expected=0x{expected:08x}")
    if actual is not None:
        parts.append(f"actual=0x{actual:08x}")
    return f" [{', '.join(parts)}]" if parts else ""


class CorruptFileError(FormatError):
    """The file footer or a page failed validation.

    Carries optional structured context so a corruption report names the
    object it came from: ``key`` (object key or path), ``layer`` (which
    validation failed, e.g. ``"lpq.chunk"``), ``offset`` (byte offset of the
    corrupt region within the object, when known), and the ``expected`` /
    ``actual`` crc32 digests for checksum mismatches.
    """

    def __init__(
        self,
        message: str,
        key=None,
        layer=None,
        offset=None,
        expected=None,
        actual=None,
    ):
        super().__init__(
            message + _integrity_context(key, layer, offset, expected, actual)
        )
        self.key = key
        self.layer = layer
        self.offset = offset
        self.expected = expected
        self.actual = actual


class UnsupportedTypeError(FormatError):
    """A column type is not supported by the format or an encoding."""


class SchemaMismatchError(FormatError):
    """Data supplied to a writer does not match the declared schema."""


# ---------------------------------------------------------------------------
# Planning and execution errors
# ---------------------------------------------------------------------------

class PlanError(LambadaError):
    """Base class for query planning errors."""


class UnknownColumnError(PlanError):
    """An expression referenced a column that is not in scope."""


class InvalidPlanError(PlanError):
    """A plan failed structural validation."""


class SqlSyntaxError(PlanError):
    """The mini-SQL frontend could not parse a statement."""


class SqlParseError(SqlSyntaxError):
    """A statement failed to parse at a known position.

    Also a :class:`SqlSyntaxError`, so existing ``except SqlSyntaxError``
    handlers keep working.  Carries the offending location so tooling can
    point at the exact character: ``position`` is the 0-based character
    offset into ``statement``; ``line`` and ``column`` are 1-based and
    derived from it (``None`` when no position is known).
    """

    def __init__(self, message: str, statement: str = "", position=None):
        self.statement = statement
        self.position = position
        if statement and position is not None:
            clamped = min(position, len(statement))
            prefix = statement[:clamped]
            self.line = prefix.count("\n") + 1
            self.column = clamped - (prefix.rfind("\n") + 1) + 1
            message = f"{message} (line {self.line}, column {self.column})"
        else:
            self.line = None
            self.column = None
        super().__init__(message)


class ExecutionError(LambadaError):
    """Base class for runtime execution errors."""


class WorkerFailedError(ExecutionError):
    """A serverless worker reported a failure to the driver.

    ``attempts`` optionally carries the full attempt history — a list of
    ``{"attempt": int, "error": str, "backoff_seconds": float}`` dicts — so
    the exception text shows every attempt, not just the first failure.
    """

    def __init__(self, worker_id: int, message: str, attempts=None):
        text = f"worker {worker_id} failed: {message}"
        if attempts:
            lines = [
                f"  attempt {a.get('attempt', i)}: "
                f"{a.get('error', '') or 'ok'}"
                + (
                    f" (backoff {a['backoff_seconds']:.3f}s)"
                    if a.get("backoff_seconds")
                    else ""
                )
                for i, a in enumerate(attempts)
            ]
            text += "\nattempt history:\n" + "\n".join(lines)
        super().__init__(text)
        self.worker_id = worker_id
        self.message = message
        self.attempts = list(attempts) if attempts else []


class QueryTimeoutError(ExecutionError):
    """The driver gave up waiting for worker results."""


class QueryRejectedError(ExecutionError):
    """The admission controller refused a query submission outright.

    Raised *before* any fleet resource is spent: the admission queue is
    full (``reason="queue_full"``), the tenant's invocation token bucket is
    empty (``reason="invocation_budget"``), or its modelled-dollar bucket is
    (``reason="dollar_budget"``).  Failing fast here is the point — an
    over-budget tenant degrades only itself, never the shared fleet.
    """

    def __init__(self, message: str, tenant: str = "", reason: str = ""):
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason


class QueryCancelledError(ExecutionError):
    """A query was cancelled (explicitly or by its deadline) mid-flight.

    ``stage`` names where the cancellation was observed (e.g.
    ``"map-wave"``, ``"collect"``); ``deadline`` is True when the trigger
    was deadline expiry rather than an explicit ``cancel()``.  By the time
    this propagates, in-flight attempts have been drained: shared-memory
    segments released, the query's shuffle prefixes and queue messages
    garbage-collected.
    """

    def __init__(self, message: str, query_id: str = "", stage: str = "",
                 deadline: bool = False):
        super().__init__(message)
        self.query_id = query_id
        self.stage = stage
        self.deadline = deadline


class RetryBudgetExhaustedError(ExecutionError):
    """A query spent its whole per-query retry budget and was aborted.

    Converts the sustained-brownout failure mode from "slow, expensive,
    and invisible" into a fast, attributed failure: ``spent`` spells out
    how the budget went (retries, wave retries, hedges) and
    ``breaker_states`` records which service breakers were open at abort.
    """

    def __init__(self, message: str, query_id: str = "", spent=None,
                 breaker_states=None):
        super().__init__(message)
        self.query_id = query_id
        self.spent = dict(spent) if spent else {}
        self.breaker_states = dict(breaker_states) if breaker_states else {}


class BreakerOpenError(ExecutionError):
    """A request was refused because its service's circuit breaker is open.

    Raised by breaker-aware call sites that cannot degrade (what can
    degrade — processes→serial — does so instead of raising).  ``service`` is ``"s3"``/``"lambda"``/``"sqs"``.
    """

    def __init__(self, message: str, service: str = ""):
        super().__init__(message)
        self.service = service


class ExchangeError(ExecutionError):
    """An exchange operator failed (missing partition files, bad offsets...)."""


class IntegrityError(ExecutionError, CorruptFileError):
    """A content checksum failed verification on read.

    Also a :class:`CorruptFileError`: callers that already treat structural
    corruption as fatal-or-retryable handle checksum mismatches identically
    without naming the new class.

    Raised by every integrity-checking consumer — the LPQ scan, the exchange
    slice decode, the reduce wave's ranged-GET length validation, and the
    driver's check of a spilled result frame.  Carries full provenance so the recovery
    escalation (re-GET, then re-execute the producing attempt, then fail)
    can report exactly what was corrupt and where:

    ``key``
        The object key / path / queue the corrupt bytes were served from.
    ``layer``
        The verification site, e.g. ``"lpq.chunk"``, ``"slice.length"``,
        ``"slice.crc"``, ``"codec.crc"`` (exchange slices and result frames
        share the ``slice.*`` / ``codec.*`` layers: they are one format).
    ``offset``
        Byte offset of the corrupt region within the object, when known.
    ``expected`` / ``actual``
        The crc32 digests (or byte lengths, for truncation checks) that
        disagreed.
    """

    def __init__(
        self,
        message: str,
        key=None,
        layer=None,
        offset=None,
        expected=None,
        actual=None,
    ):
        super().__init__(
            message + _integrity_context(key, layer, offset, expected, actual)
        )
        self.key = key
        self.layer = layer
        self.offset = offset
        self.expected = expected
        self.actual = actual
