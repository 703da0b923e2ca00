"""Grouped and scalar aggregation.

The workers compute *partial* aggregates over their table chunks; the driver
*merges* the partials and *finalises* derived aggregates (``avg``).  All three
steps operate on tables (dicts of NumPy arrays) and are implemented with
vectorised NumPy group-by kernels.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.plan.expressions import col, evaluate
from repro.plan.logical import AggregateSpec
from repro.engine.scan import FusedBatch
from repro.engine.table import Table, concat_tables, empty_table_like, table_num_rows


def _column_codes(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct values (ascending) and the per-row code of one key column.

    Single-character string columns (e.g. TPC-H flag columns) are compared as
    their UCS-4 code points, which turns the string sort inside ``np.unique``
    into an integer sort at identical ordering.
    """
    array = np.asarray(values)
    if array.dtype.kind == "U" and array.dtype.itemsize == 4:
        unique_ints, inverse = np.unique(array.view(np.uint32), return_inverse=True)
        return unique_ints.view(array.dtype), inverse
    unique, inverse = np.unique(array, return_inverse=True)
    return unique, inverse


#: Hard cap on the dense factorisation's code space, whatever the row count:
#: 2^21 int64 counts is a 16 MiB scratch array.
DENSE_FACTORIZE_MAX_CARDINALITY = 1 << 21

#: Rows of fused batches a :class:`FusedBatchAccumulator` collects per kernel
#: pass (32 row groups of 2048 rows).
FUSED_PASS_ROWS = 1 << 16

#: Leading group key of a segmented pass: the batch's ordinal in the pass.
_SEGMENT_KEY = "__segment__"


def _fits_dense(cardinality: int, num_rows: int) -> bool:
    """Whether a code space of ``cardinality`` is worth a dense pass over
    ``num_rows`` rows: the ``bincount`` remap costs O(N + C), so it wins only
    while C stays a small multiple of N; beyond that sorting the N codes
    (O(N log N), independent of C) is cheaper and allocates nothing C-sized.
    """
    return cardinality <= min(4 * num_rows + 64, DENSE_FACTORIZE_MAX_CARDINALITY)


def _dense_factorize(combined: np.ndarray, cardinality: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(combined, return_inverse=True)`` for small dense code spaces.

    ``combined`` holds non-negative codes below ``cardinality``.  Presence is
    established with one bincount; the sorted unique codes and the per-row
    inverse fall out of a cumulative-sum remap without sorting the rows.
    """
    counts = np.bincount(combined, minlength=cardinality)
    present = counts > 0
    remap = np.cumsum(present) - 1
    return np.flatnonzero(present), remap[combined]


def _factorize(
    group_by: Sequence[str],
    per_key: Sequence[Tuple[np.ndarray, np.ndarray]],
    num_rows: int,
) -> Tuple[Table, np.ndarray, int]:
    """Group rows given each key as ``(ascending uniques, per-row codes)``.

    The one combine-and-factorize routine behind every group-by: returns
    ``(key_table, inverse, num_groups)`` with the distinct key combinations
    in lexicographic order.  ``uniques`` may be a superset of the values
    present (a chunk dictionary after filtering); absent combinations drop
    out.  Per-column codes are rank-preserving, so the codes are combined
    into one int64 per row instead of sorting a record array (slow per-row
    void comparisons), and the strategy follows the shape: the dense remap
    when the combined code space C fits the N rows (:func:`_fits_dense`),
    a sort of the N combined codes otherwise — O(N + min(C, N log N)).
    With no keys all rows form one group.
    """
    if not per_key:
        return {}, np.zeros(num_rows, dtype=np.int64), 1
    widths = [max(len(uniques), 1) for uniques, _ in per_key]
    cardinality = 1
    for width in widths:
        cardinality *= width

    if cardinality > 2 ** 62:
        # Combined codes would overflow int64: sort the keys as records.
        stacked = np.rec.fromarrays(
            [uniques[codes] for uniques, codes in per_key],
            names=[f"k{i}" for i in range(len(per_key))],
        )
        unique, inverse = np.unique(stacked, return_inverse=True)
        key_table = {name: np.asarray(unique[f"k{i}"]) for i, name in enumerate(group_by)}
        return key_table, inverse, len(unique)

    combined: Optional[np.ndarray] = None
    for width, (_, codes) in zip(widths, per_key):
        combined = (
            codes.astype(np.int64, copy=False)
            if combined is None
            else combined * width + codes
        )
    if _fits_dense(cardinality, num_rows):
        unique_codes, inverse = _dense_factorize(combined, cardinality)
    else:
        unique_codes, inverse = np.unique(combined, return_inverse=True)
    key_table: Table = {}
    remaining = unique_codes
    for name, width, (uniques, _) in zip(
        reversed(group_by), reversed(widths), reversed(per_key)
    ):
        key_table[name] = uniques[remaining % width]
        remaining = remaining // width
    key_table = {name: key_table[name] for name in group_by}
    return key_table, inverse, len(unique_codes)


def _group_indices(table: Table, group_by: Sequence[str]) -> Tuple[Table, np.ndarray, int]:
    """Compute group keys and per-row group indices.

    Returns ``(key_table, inverse, num_groups)`` where ``key_table`` holds the
    distinct key combinations in sorted order and ``inverse[i]`` is the group
    index of row ``i``.
    """
    if len(group_by) == 1:
        # One key's codes already are the factorisation.
        unique_values, inverse = _column_codes(table[group_by[0]])
        return {group_by[0]: unique_values}, inverse, len(unique_values)
    per_key = [_column_codes(table[name]) for name in group_by]
    return _factorize(group_by, per_key, table_num_rows(table))


def _reduce_column(
    values: Optional[np.ndarray], inverse: np.ndarray, num_groups: int, function: str
) -> np.ndarray:
    """Reduce ``values`` per group index (``count`` takes no values)."""
    if function == "sum":
        return np.bincount(inverse, weights=values, minlength=num_groups)
    if function == "count":
        return np.bincount(inverse, minlength=num_groups).astype(np.float64)
    if function in ("min", "max"):
        result = np.full(num_groups, np.inf if function == "min" else -np.inf)
        reducer = np.minimum if function == "min" else np.maximum
        reducer.at(result, inverse, values)
        return result
    raise ExecutionError(f"unsupported partial aggregate {function!r}")


def _aggregate_groups(
    table: Table, aggregates: Sequence[AggregateSpec], inverse: np.ndarray, num_groups: int
) -> Table:
    """One column per aggregate alias, reduced over the group indices.

    Each distinct ``(function, expression)`` is evaluated and reduced once and
    shared by every alias that names it (``avg(x)`` and ``sum(x)`` both ship a
    sum of ``x``).  A count needs no input values — there are no NULLs — so
    every ``count``, with or without an argument, is the same reduction.
    """
    reduced: Dict[Tuple[str, Optional[str]], np.ndarray] = {}
    columns: Table = {}
    for spec in aggregates:
        counting = spec.function == "count"
        # ``==`` on expressions builds a comparison; the repr is structural.
        key = (spec.function, None if counting else repr(spec.expression))
        if key not in reduced:
            values = None if counting else np.asarray(
                evaluate(spec.expression, table), dtype=np.float64
            )
            reduced[key] = _reduce_column(values, inverse, num_groups, spec.function)
        columns[spec.alias] = reduced[key]
    return columns


def partial_aggregate(
    table: Table,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """Compute partial aggregates of one table chunk.

    The result has the group-by columns followed by one column per aggregate
    alias.  An empty input yields an empty result table with the right
    columns.
    """
    if table_num_rows(table) == 0:
        return empty_table_like(list(group_by) + [spec.alias for spec in aggregates])

    key_table, inverse, num_groups = _group_indices(table, group_by)
    return {**key_table, **_aggregate_groups(table, aggregates, inverse, num_groups)}


class _FusedEvalTable(dict):
    """Table view over a :class:`~repro.engine.scan.FusedBatch` for expressions.

    Aggregate-input columns resolve from the batch's gathered ``values``;
    group keys referenced by an aggregate expression materialise lazily from
    their code pairs on first access (``uniques[codes]`` — identical to the
    classic gather).
    """

    def __init__(self, batch):
        super().__init__(batch.values)
        self.update(batch.key_values)
        self._batch = batch

    def __contains__(self, name):
        return super().__contains__(name) or name in self._batch.key_codes

    def __missing__(self, name):
        values = self._batch.materialize_key(name)
        self[name] = values
        return values


def _batch_key_codes(batch: FusedBatch, name: str) -> Tuple[np.ndarray, np.ndarray]:
    """One group key of a fused batch as ``(ascending uniques, per-row codes)``.

    Keys the scan delivered in code space skip the ``np.unique`` pass: their
    codes index the chunk's sorted dictionary (a superset of the values that
    survived the filter), which is rank-preserving exactly like
    :func:`_column_codes` output.
    """
    if name in batch.key_codes:
        return batch.key_codes[name]
    return _column_codes(batch.key_values[name])


def partial_aggregate_fused(
    batch: FusedBatch,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """:func:`partial_aggregate` over a :class:`~repro.engine.scan.FusedBatch`.

    Selection vectors feed the aggregate kernels directly — the batch's keys
    stay in code space and no intermediate filtered table is materialised.
    The output is bit-identical to running :func:`partial_aggregate` on the
    equivalent materialised chunk: the factorisation drops dictionary entries
    no surviving row uses, which is what ``np.unique`` on the materialised
    values produces, and the bincount accumulation order is the same.
    """
    num_rows = batch.num_rows
    if num_rows == 0:
        return empty_table_like(list(group_by) + [spec.alias for spec in aggregates])

    per_key = [_batch_key_codes(batch, name) for name in group_by]
    key_table, inverse, num_groups = _factorize(group_by, per_key, num_rows)
    columns = _aggregate_groups(_FusedEvalTable(batch), aggregates, inverse, num_groups)
    return {**key_table, **columns}


def _unify_codes(
    pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-express one key's per-batch ``(uniques, codes)`` over one dictionary.

    Returns the merged ascending dictionary and the concatenated codes into
    it.  Equal dictionaries (the common case for low-cardinality columns) are
    taken as they are; otherwise each small dictionary is located in the
    merged one and its batch's codes are translated through that mapping.
    """
    first = pairs[0][0]
    signature = (first.dtype, first.tobytes())
    if all(
        uniques is first or (uniques.dtype, uniques.tobytes()) == signature
        for uniques, _ in pairs
    ):
        return first, np.concatenate([codes for _, codes in pairs])
    merged, _ = _column_codes(np.concatenate([uniques for uniques, _ in pairs]))
    return merged, np.concatenate(
        [np.searchsorted(merged, uniques)[codes] for uniques, codes in pairs]
    )


class FusedBatchAccumulator:
    """Runs the fused group-by kernel once per pass of row groups, not per group.

    A scan worker feeds its :class:`~repro.engine.scan.FusedBatch` es to
    :meth:`add`; every :data:`FUSED_PASS_ROWS` rows the pending batches are
    aggregated in one call of :func:`partial_aggregate_fused` whose leading
    group key is the batch's ordinal.  Groups come out ordered by (batch,
    keys) and every group's rows keep their order, so the pass produces
    exactly the concatenation of the per-batch partial tables — same rows,
    same order, same float accumulation order, same bits — which is what
    :func:`merge_partials` consumes either way.

    The segmented code space is batches × merged groups.  When it does not
    fit the rows in hand (:func:`_fits_dense`), or a key arrived as values —
    near-unique keys, for which the writer keeps no chunk dictionary and a
    batch's sort already dominates its call — the batches are aggregated one
    by one.
    """

    def __init__(self, group_by: Sequence[str], aggregates: Sequence[AggregateSpec]):
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self._pending: List[FusedBatch] = []
        self._pending_rows = 0
        self._partials: List[Table] = []

    def add(self, batch: FusedBatch) -> None:
        """Take one scanned batch."""
        if batch.num_rows == 0:
            return
        self._pending.append(batch)
        self._pending_rows += batch.num_rows
        if self._pending_rows >= FUSED_PASS_ROWS:
            self._flush()

    def finish(self) -> List[Table]:
        """The partial tables of everything added, for :func:`merge_partials`."""
        self._flush()
        return self._partials

    def _flush(self) -> None:
        batches, num_rows = self._pending, self._pending_rows
        self._pending, self._pending_rows = [], 0
        segmented = self._segmented(batches, num_rows) if len(batches) > 1 else None
        if segmented is None:
            self._partials.extend(
                partial_aggregate_fused(batch, self.group_by, self.aggregates)
                for batch in batches
            )
            return
        table = partial_aggregate_fused(
            segmented, [_SEGMENT_KEY] + self.group_by, self.aggregates
        )
        del table[_SEGMENT_KEY]
        self._partials.append(table)

    def _segmented(self, batches: Sequence[FusedBatch], num_rows: int) -> Optional[FusedBatch]:
        """The batches as one batch keyed by (ordinal, keys), if that fits."""
        if any(name not in batch.key_codes for batch in batches for name in self.group_by):
            # A key the scan delivered as values has no chunk dictionary: the
            # writer found too many distinct values to keep one.
            return None
        ordinals = np.arange(len(batches))
        key_codes = {
            _SEGMENT_KEY: (ordinals, np.repeat(ordinals, [batch.num_rows for batch in batches]))
        }
        cardinality = len(batches)
        for name in self.group_by:
            key_codes[name] = _unify_codes([batch.key_codes[name] for batch in batches])
            cardinality *= len(key_codes[name][0])
            if not _fits_dense(cardinality, num_rows):
                return None
        values = {
            name: np.concatenate([batch.values[name] for batch in batches])
            for name in batches[0].values
        }
        return FusedBatch(num_rows=num_rows, values=values, key_codes=key_codes, key_values={})


def merge_partials(
    partials: Sequence[Table],
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Table:
    """Merge per-worker partial aggregate tables into one.

    Partial sums and counts add up; partial mins/maxes combine with min/max.
    """
    non_empty = [table for table in partials if table_num_rows(table) > 0]
    if not non_empty:
        return partial_aggregate({}, group_by, aggregates)
    combined = concat_tables(non_empty)
    # Partial sums and counts add up; mins/maxes merge with themselves.
    merge_specs = [
        AggregateSpec(
            "sum" if spec.function == "count" else spec.function,
            col(spec.alias),
            spec.alias,
        )
        for spec in aggregates
    ]
    return partial_aggregate(combined, group_by, merge_specs)


def finalize_aggregates(
    merged: Table,
    group_by: Sequence[str],
    final_aggregates: Sequence[AggregateSpec],
) -> Table:
    """Produce the user-facing result from merged partials.

    ``avg`` aggregates are finalised as ``sum / count`` from their partial
    columns (named ``__<alias>_sum`` / ``__<alias>_count``); the other
    functions pass through under their alias.
    """
    result: Table = {name: np.asarray(merged[name]) for name in group_by}
    for spec in final_aggregates:
        if spec.function == "avg":
            sum_alias = f"__{spec.alias}_sum"
            count_alias = f"__{spec.alias}_count"
            if sum_alias not in merged or count_alias not in merged:
                raise ExecutionError(f"missing partials for avg aggregate {spec.alias!r}")
            counts = np.asarray(merged[count_alias], dtype=np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                result[spec.alias] = np.where(
                    counts > 0,
                    np.asarray(merged[sum_alias], dtype=np.float64) / np.where(counts > 0, counts, 1.0),
                    np.nan,
                )
        else:
            if spec.alias not in merged:
                raise ExecutionError(f"missing merged column for aggregate {spec.alias!r}")
            result[spec.alias] = np.asarray(merged[spec.alias])
    return result
