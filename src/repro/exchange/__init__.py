"""Purely serverless exchange (shuffle) operators.

Serverless workers cannot accept incoming connections, so all data exchange
goes through the object store (paper §4.4).  There is one exchange plane:
every sender writes **one** combined object per round and announces its
offset directory and slice crcs; every receiver reads its slice of each
announced object with ranged GETs, empty slices elided and no discovery
request at all.

* :mod:`~repro.exchange.fetch` — both halves of that plane:
  :func:`~repro.exchange.fetch.write_combined` and
  :class:`~repro.exchange.fetch.FetchPlan`, which the shuffle's waves
  (:mod:`repro.driver.shuffle`) run on;
* :class:`~repro.exchange.multilevel.MultiLevelExchange` — the paper's
  k-level exchange over a grid of workers on the same halves, with
  k·P PUTs and k·P·P^(1/k) slice reads (``levels=1`` is the one-level
  exchange);
* :mod:`~repro.exchange.cost_model` — the request-count formulas of Table 2
  and their dollar costs (Figure 9), for all six variants;
* :mod:`~repro.exchange.simulator` — the timing model with stragglers and
  wait propagation used for Table 3 and Figure 13.
"""

from repro.exchange.partition import (
    hash_partition,
    partition_assignments,
    partition_scatter,
    scatter_by_assignment,
    slice_partition,
)
from repro.exchange.naming import WriteCombiningNaming
from repro.exchange.codec import (
    decode_partition,
    decode_partition_slice,
    encode_partition,
    encode_partition_set,
    is_fast_partition,
)
from repro.exchange.multilevel import MultiLevelExchange, grid_coordinates, grid_side
from repro.exchange.cost_model import (
    ExchangeCostModel,
    EXCHANGE_VARIANTS,
    request_counts,
    exchange_cost,
)
from repro.exchange.simulator import ExchangeSimulator, ExchangeTimings, PhaseBreakdown

__all__ = [
    "hash_partition",
    "partition_assignments",
    "partition_scatter",
    "scatter_by_assignment",
    "slice_partition",
    "WriteCombiningNaming",
    "decode_partition",
    "decode_partition_slice",
    "encode_partition",
    "encode_partition_set",
    "is_fast_partition",
    "MultiLevelExchange",
    "grid_coordinates",
    "grid_side",
    "ExchangeCostModel",
    "EXCHANGE_VARIANTS",
    "request_counts",
    "exchange_cost",
    "ExchangeSimulator",
    "ExchangeTimings",
    "PhaseBreakdown",
]
