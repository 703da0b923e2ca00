"""Usage metering and billing ledger.

Every simulated cloud service records billable events (requests, bytes,
durations) into a :class:`MeteringLedger`.  The ledger converts usage into
dollar cost using a :class:`~repro.cloud.pricing.PriceList` and produces the
per-service breakdowns that the paper's cost analyses report.

Each record is tagged with the query that was running when it was made
(:data:`QUERY_TAG`, set by :meth:`repro.driver.dispatch.QueryContext.scope`),
so one query's bill is the ledger's price of its own slice of records.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextvars import ContextVar
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.cloud.pricing import DEFAULT_PRICES, PriceList


class UsageRecord(NamedTuple):
    """A single billable event (a tuple: one is made per request).

    ``dimension`` is a dotted name such as ``"s3.get_requests"`` or
    ``"lambda.gib_seconds"``; ``amount`` is in the natural unit of that
    dimension (requests, GiB-seconds, bytes...).
    """

    service: str
    dimension: str
    amount: float
    timestamp: float = 0.0
    tag: Optional[str] = None


#: The query a record made in this context belongs to (``None``: no query).
QUERY_TAG: ContextVar[Optional[str]] = ContextVar("query_tag", default=None)


class MeteringLedger:
    """Accumulates :class:`UsageRecord` entries and computes costs."""

    def __init__(self, prices: PriceList = DEFAULT_PRICES):
        self.prices = prices
        self._records: List[UsageRecord] = []
        self._totals: Dict[str, float] = defaultdict(float)
        #: ``_totals`` of each query's records alone, by tag.
        self._tagged: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        # Services record concurrently when the driver runs the fleet through
        # its thread pool; the read-modify-write on the totals needs a lock.
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def record(
        self,
        service: str,
        dimension: str,
        amount: float,
        timestamp: float = 0.0,
        tag: Optional[str] = None,
    ) -> None:
        """Append a usage record and update the running totals.

        Left ``None``, ``tag`` is the query running in the calling context.
        """
        if amount < 0:
            raise ValueError(f"usage amount must be non-negative, got {amount}")
        if tag is None:
            tag = QUERY_TAG.get()
        record = UsageRecord(service, dimension, amount, timestamp, tag)
        key = f"{service}.{dimension}"
        with self._lock:
            self._records.append(record)
            self._totals[key] += amount
            if tag is not None:
                self._tagged[tag][key] += amount

    # -- introspection ------------------------------------------------------

    def total(self, service: str, dimension: str) -> float:
        """Total usage of ``service.dimension`` recorded so far."""
        with self._lock:
            return self._totals.get(f"{service}.{dimension}", 0.0)

    def records(self) -> Iterator[UsageRecord]:
        """Iterate over all records in insertion order.

        Returns a snapshot, so iteration is safe while workers on other
        threads are still recording.
        """
        with self._lock:
            return iter(list(self._records))

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def reset(self) -> None:
        """Clear all recorded usage (e.g. between benchmark repetitions)."""
        with self._lock:
            self._records.clear()
            self._totals.clear()
            self._tagged.clear()

    # -- billing ------------------------------------------------------------

    def cost_breakdown(self, tag: Optional[str] = None) -> Dict[str, float]:
        """Dollar cost per billing dimension, of the whole ledger or, given a
        ``tag``, of that query's records alone: the one pricing of usage.

        Only the dimensions that have a price attached contribute; unknown
        dimensions (e.g. ``s3.bytes_read``, which AWS does not bill for
        intra-region traffic) are reported with a cost of zero so that they
        still show up in the breakdown.
        """
        prices = self.prices
        with self._lock:
            totals = dict(self._totals if tag is None else self._tagged.get(tag, {}))
        breakdown: Dict[str, float] = {}
        for key, amount in sorted(totals.items()):
            if key == "s3.get_requests":
                breakdown[key] = prices.s3_get_cost(int(amount))
            elif key in ("s3.put_requests", "s3.list_requests"):
                breakdown[key] = prices.s3_put_cost(int(amount))
            elif key == "lambda.gib_seconds":
                breakdown[key] = amount * prices.lambda_gib_second
            elif key == "lambda.invocations":
                breakdown[key] = prices.lambda_invocation_cost(int(amount))
            elif key == "sqs.requests":
                breakdown[key] = prices.sqs_cost(int(amount))
            elif key == "dynamodb.read_units":
                breakdown[key] = int(amount) / 1e6 * prices.dynamodb_read_per_million
            elif key == "dynamodb.write_units":
                breakdown[key] = int(amount) / 1e6 * prices.dynamodb_write_per_million
            else:
                breakdown[key] = 0.0
        return breakdown

    def total_cost(self, tag: Optional[str] = None) -> float:
        """Total dollar cost of all recorded usage, or of query ``tag``'s."""
        return sum(self.cost_breakdown(tag).values())
