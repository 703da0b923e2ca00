"""Analytic request-count and cost models of the exchange variants (Table 2).

For ``P`` workers the paper derives the following request counts:

============  ===============  ===============  ========  ======
variant       #reads           #writes          #lists    #scans
============  ===============  ===============  ========  ======
``1l``        P²               P²               O(P)      1
``1l-wc``     P²               P                O(P)      1
``2l``        2·P·√P           2·P·√P           O(P)      2
``2l-wc``     2·P·√P           2·P               O(P)      2
``3l``        3·P·∛P           3·P·∛P           O(P)      3
``3l-wc``     3·P·∛P           3·P               O(P)      3
============  ===============  ===============  ========  ======

The dollar cost uses the S3 request prices ($5 per million writes/lists, $0.4
per million reads) and, for context, the cost of running the workers
themselves — the horizontal band of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cloud.pricing import DEFAULT_PRICES, PriceList
from repro.config import GiB, MiB

#: Identifiers of the exchange variants analysed in the paper.
EXCHANGE_VARIANTS = ("1l", "1l-wc", "2l", "2l-wc", "3l", "3l-wc")

#: Effective scan bandwidth assumed for the worker-cost band (§4.4.4).
_WORKER_BANDWIDTH_BYTES_PER_S = 85 * MiB

#: Per-second price of a 2 GiB worker (§4.4.4, $3.3e-5/s).
_WORKER_PRICE_PER_SECOND = 3.3e-5


def _levels_of(variant: str) -> int:
    if variant not in EXCHANGE_VARIANTS:
        raise ValueError(f"unknown exchange variant {variant!r}")
    return int(variant[0])


def _uses_write_combining(variant: str) -> bool:
    return variant.endswith("-wc")


def request_counts(variant: str, num_workers: int) -> Dict[str, float]:
    """Request counts of one exchange execution (Table 2).

    Returns a dict with ``reads``, ``writes``, ``lists``, and ``scans``.
    Counts are real-valued because the side length P^(1/k) generally is.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    levels = _levels_of(variant)
    side = num_workers ** (1.0 / levels)
    reads = levels * num_workers * side
    if _uses_write_combining(variant):
        writes = float(levels * num_workers)
    else:
        writes = reads
    lists = float(levels * num_workers)
    return {"reads": reads, "writes": writes, "lists": lists, "scans": float(levels)}


def exchange_cost(
    variant: str,
    num_workers: int,
    prices: PriceList = DEFAULT_PRICES,
) -> Dict[str, float]:
    """Dollar cost of the S3 requests of one exchange execution.

    Returns ``read_cost``, ``write_cost`` (PUT + LIST), ``total_cost``, and
    ``cost_per_worker`` — the quantity plotted in Figure 9.
    """
    counts = request_counts(variant, num_workers)
    read_cost = prices.s3_get_cost(int(round(counts["reads"])))
    write_cost = prices.s3_put_cost(int(round(counts["writes"] + counts["lists"])))
    total = read_cost + write_cost
    return {
        "read_cost": read_cost,
        "write_cost": write_cost,
        "total_cost": total,
        "cost_per_worker": total / num_workers,
    }


def worker_cost_band(
    variant: str,
    bytes_per_worker_low: int = 100 * MiB,
    bytes_per_worker_high: int = GiB,
    scans_high_multiplier: int = 3,
) -> Tuple[float, float]:
    """Per-worker running-cost range used as the reference band in Figure 9.

    The lower edge is one scan of 100 MiB per worker; the upper edge is three
    scans of 1 GiB per worker (the paper's "typical configurations" band).
    """
    low_seconds = bytes_per_worker_low / _WORKER_BANDWIDTH_BYTES_PER_S
    high_seconds = (
        scans_high_multiplier * bytes_per_worker_high / _WORKER_BANDWIDTH_BYTES_PER_S
    )
    return (
        low_seconds * _WORKER_PRICE_PER_SECOND,
        high_seconds * _WORKER_PRICE_PER_SECOND,
    )


@dataclass
class ExchangeCostModel:
    """Object-oriented wrapper bundling the Table 2 / Figure 9 computations."""

    prices: PriceList = DEFAULT_PRICES

    def requests(self, variant: str, num_workers: int) -> Dict[str, float]:
        """Request counts for one execution (see :func:`request_counts`)."""
        return request_counts(variant, num_workers)

    def cost(self, variant: str, num_workers: int) -> Dict[str, float]:
        """Dollar costs for one execution (see :func:`exchange_cost`)."""
        return exchange_cost(variant, num_workers, self.prices)

    def figure9_series(self, worker_counts=(64, 256, 1024, 4096, 16384)) -> Dict[str, Dict[int, float]]:
        """Cost-per-worker series for every variant (the bars of Figure 9)."""
        return {
            variant: {
                num_workers: self.cost(variant, num_workers)["cost_per_worker"]
                for num_workers in worker_counts
            }
            for variant in EXCHANGE_VARIANTS
        }
