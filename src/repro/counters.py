"""One counter record: every count of a query, keyed by ``(layer, name)``.

Whatever a query counts — a worker's rows and GETs, an exchange PUT, a
retry, a checksum mismatch — is one :meth:`Counts.note` into a
:class:`Counts`: ``("exchange", "put_requests")``, ``("resilience",
"retries")``, ``("integrity", "mismatch.slice.crc")``, ``("scan",
"rows_scanned")``.  A worker notes into a record of its own, which travels in
its :class:`~repro.engine.pipeline.WorkerResult`; the driver adds the
accepted results into the query's record
(:attr:`repro.driver.dispatch.QueryContext.counters`) with one
``Counter.update`` each.

The statistics objects only read that record.  :class:`LayerView` shows one
layer as the block the statistics have always had (``statistics.exchange``,
``.resilience``, ``.integrity``): one attribute per name of
:data:`LAYERS`, a ``name.key`` family as one dict (``mismatches``,
``fallbacks``, ``faults_injected``), ``to_dict()``, and the layer's derived
``clean`` / ``total_requests``.  :class:`CounterViews` is the attributes the
statistics read off the record; the statistics list them as :func:`viewed`
fields, so its field list still names every statistic.

A query's dollars are read the same way, off its bill — the metering
ledger's price of the query's own records
(:meth:`repro.driver.dispatch.QueryContext.bill`): :func:`billed` views one
service's share, ``cost_total`` the whole.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import field
from typing import Any, Callable, Dict, List


class Counts(Counter):
    """Counts keyed by ``(layer, name)``; a missing count reads 0."""

    def note(self, layer: str, name: str, n: float = 1) -> None:
        """Add ``n`` to the count ``(layer, name)``."""
        self[layer, name] += n


#: The layers a statistics object shows as a block: each block's names, in
#: order, with what a name reads when nothing was noted — a number, or, for
#: a dict of the ``prefix.key`` counts, the prefix.
LAYERS: Dict[str, Dict[str, Any]] = {
    "exchange": {
        "put_requests": 0,
        "get_requests": 0,
        "list_requests": 0,
        "head_requests": 0,
        # The subsets of the PUTs / GETs that wrote a combined object / read
        # a range of one, and the GETs avoided because a slice was empty.
        "combined_put_requests": 0,
        "ranged_get_requests": 0,
        "empty_parts_elided": 0,
        "bytes_written": 0,
        "bytes_read": 0,
        # Size of the objects slice reads were served from (vs bytes_read).
        "bytes_touched": 0,
    },
    "resilience": {
        # Re-dispatched workers, and backoff retries of cloud requests.
        "retries": 0,
        "hedges_launched": 0,
        "hedges_won": 0,
        "hedges_lost": 0,
        "duplicate_messages_ignored": 0,
        "stale_messages_ignored": 0,
        # Modelled backoff charged to the query's latency.
        "backoff_seconds": 0.0,
        # Retry rounds of every fleet, and pool children respawned.
        "wave_retries": 0,
        "pool_respawns": 0,
        "fallbacks": "fallback",
        "faults_injected": "fault",
        # Modelled dollars of attempts that produced no used result.
        "wasted_cost_dollars": 0.0,
    },
    "integrity": {
        # Bytes whose checksum matched on read.
        "verified_bytes": 0,
        "mismatches": "mismatch",
        # GETs re-issued after a failed check, and producing attempts
        # re-executed because their output stayed corrupt.
        "re_reads": 0,
        "re_executions": 0,
    },
}
#: What a block's ``clean`` ignores; a layer without an entry has no ``clean``.
QUIET = {
    "resilience": {"hedges_won", "hedges_lost", "backoff_seconds", "wasted_cost_dollars"},
    "integrity": {"verified_bytes"},
}
#: What a block's ``total_requests`` sums; only the exchange has one.
REQUESTS = {"exchange": ("put_requests", "get_requests", "list_requests", "head_requests")}


class LayerView:
    """One layer of a counter record, read as the block of :data:`LAYERS`.

    A view holds no number of its own: it reads the record each time, and
    cannot be written to.
    """

    __slots__ = ("_counts", "_layer")

    def __init__(self, counts: Counter, layer: str):
        self._counts = counts
        self._layer = layer

    def _read(self, name: str, zero: Any) -> Any:
        if isinstance(zero, str):
            prefix = zero + "."
            return {
                key[len(prefix):]: value
                for (layer, key), value in self._counts.items()
                if layer == self._layer and key.startswith(prefix) and value
            }
        return self._counts.get((self._layer, name), zero)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):  # an unset slot (a copy in the making)
            raise AttributeError(name)
        layer, names = self._layer, LAYERS[self._layer]
        if name in names:
            return self._read(name, names[name])
        if name == "clean" and layer in QUIET:
            quiet = QUIET[layer]
            return not any(value for key, value in self.to_dict().items() if key not in quiet)
        if name == "total_requests" and layer in REQUESTS:
            return sum(self._read(key, 0) for key in REQUESTS[layer])
        raise AttributeError(f"{layer} counters have no {name!r}")

    def __dir__(self) -> List[str]:
        derived = [
            name for name, layers in (("clean", QUIET), ("total_requests", REQUESTS))
            if self._layer in layers
        ]
        return [*LAYERS[self._layer], *derived, "to_dict"]

    def to_dict(self) -> Dict[str, Any]:
        """Every name of the block with its value (dicts are copies)."""
        return {name: self._read(name, zero) for name, zero in LAYERS[self._layer].items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LayerView):
            return NotImplemented
        return (self._layer, self.to_dict()) == (other._layer, other.to_dict())

    def __repr__(self) -> str:
        return f"{self._layer}{self.to_dict()}"


def counted(layer: str, name: str) -> property:
    """A read-only attribute: the count ``(layer, name)`` of ``self._counters``."""
    return property(lambda self: self._counters[layer, name], doc=f"``({layer}, {name})``")


def block(layer: str) -> property:
    """A read-only attribute: the :class:`LayerView` of ``layer`` of ``self._counters``."""
    return property(lambda self: LayerView(self._counters, layer), doc=f"The {layer} block.")


def billed(prefix: str) -> property:
    """A read-only attribute: the dollars of ``self._bill()`` whose billing
    dimension starts with ``prefix`` (``"sqs."``, ``"lambda.gib_seconds"``)."""
    return property(
        lambda self: sum(cost for key, cost in self._bill().items() if key.startswith(prefix)),
        doc=f"Dollars of ``{prefix}*`` on the query's bill.",
    )


def viewed() -> Any:
    """A dataclass field that names a view a base class defines.

    ``__init__`` does not take or set it, and the dataclass removes the class
    attribute, so reading it reaches the base class's property.
    """
    return field(init=False)


class CounterViews:
    """The attributes the statistics read off their ``_counters``: the
    fleets' summed scan and join counters and the three blocks; and the
    query's dollars, off its ``_bill``."""

    _counters: Counts
    _bill: Callable[[], Dict[str, float]]

    rows_scanned = counted("scan", "rows_scanned")
    bytes_read = counted("scan", "bytes_read")
    get_requests = counted("scan", "get_requests")
    row_groups_shortcircuited = counted("scan", "row_groups_shortcircuited")
    rows_decode_saved = counted("scan", "rows_decode_saved")
    column_chunks_skipped = counted("scan", "column_chunks_skipped")
    #: Rows entering the probe / build sides of the join kernels (after
    #: repartitioning), and rows the kernels produced.
    join_probe_rows = counted("join", "probe_rows")
    join_build_rows = counted("join", "build_rows")
    join_output_rows = counted("join", "output_rows")
    exchange = block("exchange")
    resilience = block("resilience")
    integrity = block("integrity")
    cost_lambda_duration = billed("lambda.gib_seconds")
    cost_lambda_requests = billed("lambda.invocations")
    cost_s3_requests = billed("s3.")
    cost_sqs_requests = billed("sqs.")
    cost_dynamodb_requests = billed("dynamodb.")

    @property
    def cost_total(self) -> float:
        """Total dollar cost of the query: the ledger's price of its records,
        exactly (``MeteringLedger.total_cost(query_id)``).

        Retried and hedged invocations are billed like any other request;
        ``resilience.wasted_cost_dollars`` reports which part of this total
        bought nothing (it is an attribution, not an extra charge).
        """
        return sum(self._bill().values())
