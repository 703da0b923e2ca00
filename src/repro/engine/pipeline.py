"""Worker pipeline execution.

:func:`execute_worker_plan` is what the serverless worker's event handler
calls: it executes one :class:`~repro.plan.physical.WorkerPlan` against the
object store — scan (with pruning and push-downs), filter, map, partial
aggregation or row collection — and returns a :class:`WorkerResult` holding
the partial result plus the statistics and modelled timings that the driver
and the benchmarks consume.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.cloud.network import BandwidthModel
from repro.cloud.s3 import ObjectStore
from repro.counters import Counts
from repro.engine.aggregates import (
    FusedBatchAccumulator,
    merge_partials,
    partial_aggregate,
)
from repro.engine.payload import encode_table
from repro.engine.scan import S3ScanOperator, ScanConfig
from repro.engine.table import Table, concat_tables, filter_table, table_num_rows
from repro.errors import ExecutionError
from repro.plan.expressions import evaluate
from repro.plan.physical import WorkerPlan, resolve_udf

#: Vectorised reductions for the built-in associative reduce UDFs (see
#: ``BUILTIN_REDUCE_UDFS`` in :mod:`repro.plan.physical`): the per-chunk fold
#: becomes one ufunc reduction instead of a per-row ``functools.reduce``.
_BUILTIN_REDUCE_UFUNCS = {
    "builtin-reduce:add": np.add,
    "builtin-reduce:mul": np.multiply,
    "builtin-reduce:min": np.minimum,
    "builtin-reduce:max": np.maximum,
}


@dataclass
class WorkerResult:
    """Result and statistics of executing one worker plan fragment."""

    #: Partial aggregate table (or collected rows) as one typed frame
    #: (:func:`~repro.engine.payload.encode_table`); ``None`` when the worker
    #: produced no table (reduce plans, shuffle mappers).
    partial: Optional[bytes] = None
    #: Result of a UDF reduce, if the plan used one.
    reduce_value: Optional[Any] = None
    #: Everything the worker counted, keyed by ``(layer, name)``: a scan's
    #: ``("scan", ...)`` rows (scanned, after the filter, output), row groups
    #: (total, pruned, short-circuited), rows whose full decode was saved,
    #: column chunks skipped, GETs and bytes; a join worker's ``("join",
    #: ...)`` probe, build and output rows; the ``exchange`` and
    #: ``integrity`` counts of its reads and writes.
    counters: Counts = field(default_factory=Counts)
    #: Modelled time breakdown, seconds.
    metadata_seconds: float = 0.0
    download_seconds: float = 0.0
    compute_seconds: float = 0.0
    duration_seconds: float = 0.0
    #: Which attempt produced this result (0 = first invocation); set by the
    #: worker from its payload so the driver can dedup late re-deliveries.
    attempt: int = 0

    def to_payload(self) -> Dict:
        """The JSON header of the result message: everything but
        :attr:`partial`, which travels as a frame beside it; the counters as
        ``{"layer.name": n}``."""
        payload = {
            f.name: getattr(self, f.name) for f in dataclass_fields(self) if f.name != "partial"
        }
        payload["counters"] = {f"{layer}.{name}": n for (layer, name), n in self.counters.items()}
        return payload

    @classmethod
    def from_payload(cls, payload: Dict, partial: Optional[bytes] = None) -> "WorkerResult":
        """Inverse of :meth:`to_payload`, given the frame that came with it.

        Unknown keys are ignored so that results recorded by a newer payload
        format (which may carry extra fields) still replay on this version.
        """
        known = {f.name for f in dataclass_fields(cls)} - {"partial"}
        fields = {key: value for key, value in payload.items() if key in known}
        fields["counters"] = Counts({
            tuple(key.split(".", 1)): n for key, n in (payload.get("counters") or {}).items()
        })
        return cls(partial=partial, **fields)


def _rows_as_tuples(table: Table, column_order: Sequence[str]) -> List[tuple]:
    """Materialise a table chunk as a list of row tuples (for opaque UDFs)."""
    columns = [np.asarray(table[name]) for name in column_order]
    return list(zip(*columns)) if columns else []


def _apply_filter(
    plan: WorkerPlan,
    chunk: Table,
    column_order: Sequence[str],
    skip_expression: bool = False,
) -> Table:
    """Apply the plan's predicate conjuncts (expression and/or UDF) to a chunk.

    ``skip_expression`` is set when the scan already consumed the expression
    predicate through its selection vector; the opaque UDF conjunct (if any)
    still applies on top.
    """
    result = chunk
    if not skip_expression and plan.predicate is not None:
        mask = np.asarray(evaluate(plan.predicate, result), dtype=bool)
        result = filter_table(result, mask)
    if plan.predicate_udf is not None:
        udf = resolve_udf(plan.predicate_udf)
        rows = _rows_as_tuples(result, column_order)
        mask = np.array([bool(udf(row)) for row in rows], dtype=bool)
        result = filter_table(result, mask)
    return result


def _apply_map(plan: WorkerPlan, chunk: Table, column_order: Sequence[str]) -> Table:
    """Apply the plan's computed columns (expressions or a UDF) to a chunk."""
    if plan.map_udf is not None:
        udf = resolve_udf(plan.map_udf)
        rows = _rows_as_tuples(chunk, column_order)
        values = np.array([udf(row) for row in rows], dtype=np.float64)
        mapped = {"value": values}
        if plan.map_replace:
            return mapped
        combined = dict(chunk)
        combined.update(mapped)
        return combined
    if plan.map_outputs:
        outputs = {
            alias: np.asarray(evaluate(expression, chunk))
            for alias, expression in plan.map_outputs
        }
        if plan.map_replace:
            return outputs
        combined = dict(chunk)
        combined.update(outputs)
        return combined
    return chunk


def _plan_supports_fused(plan: WorkerPlan, config: ScanConfig) -> bool:
    """Whether the fused scan path can run this plan: it covers
    expression-only plans that aggregate or collect rows; opaque UDFs,
    computed map columns and reduce folds need materialised chunks, and
    without late materialization there is no selection vector to fuse."""
    return bool(
        plan.predicate_udf is None
        and plan.map_udf is None
        and not plan.map_outputs
        and plan.reduce_udf is None
        and config.late_materialization
    )


def execute_worker_plan(
    plan: WorkerPlan,
    store: ObjectStore,
    memory_mib: int = 2048,
    threads: int = 2,
    bandwidth: Optional[BandwidthModel] = None,
    fused: bool = True,
) -> WorkerResult:
    """Execute a worker plan fragment and return its partial result.

    The partial table comes back encoded as one frame in ``result.partial``
    (see :mod:`repro.engine.payload`); :func:`execute_worker_plan_table`
    returns the raw table instead, for callers that encode it themselves.
    """
    result, table = execute_worker_plan_table(
        plan, store, memory_mib=memory_mib, threads=threads, bandwidth=bandwidth,
        fused=fused,
    )
    if table is not None:
        result.partial = encode_table(table)
    return result


def execute_worker_plan_table(
    plan: WorkerPlan,
    store: ObjectStore,
    memory_mib: int = 2048,
    threads: int = 2,
    bandwidth: Optional[BandwidthModel] = None,
    fused: bool = True,
) -> tuple:
    """Execute a worker plan fragment; return ``(result, table)``.

    ``result.partial`` is left ``None`` — the partial aggregate (or collected
    rows) comes back as the raw ``table`` (``None`` for reduce plans), so
    process-pool workers can encode it straight into shared memory.
    ``fused=False`` forces the classic chunk-materialising pipeline (used by
    parity tests and benchmarks).
    """
    config = ScanConfig(
        chunk_bytes=plan.scan_chunk_bytes,
        connections=plan.scan_connections,
        memory_mib=memory_mib,
        threads=threads,
    )
    scan = S3ScanOperator(
        store,
        files=plan.files,
        columns=plan.columns or None,
        prune_ranges=plan.prune_ranges,
        config=config,
        bandwidth=bandwidth,
        # Expression predicates are pushed into the scan, which evaluates them
        # on encoded chunks and yields pre-filtered chunks; UDF predicates are
        # opaque and stay here.
        predicate=plan.predicate,
    )

    partials: List[Table] = []
    collected: List[Table] = []
    reduce_values: List[Any] = []
    reduce_fn = resolve_udf(plan.reduce_udf) if plan.reduce_udf else None
    reduce_ufunc = _BUILTIN_REDUCE_UFUNCS.get(plan.reduce_udf) if plan.reduce_udf else None
    rows_after_filter = 0

    if fused and _plan_supports_fused(plan, config):
        if not plan.aggregates:
            # Row collection: one gather per run of row groups, bit-identical
            # to concatenating the row groups' tables.
            table = concat_tables(batch.values for batch in scan.scan_fused(()))
            return _finish_worker_plan(scan, table, None, table_num_rows(table))
        # Fused pipeline: the scan's selection vectors feed the aggregate
        # kernels directly, group keys stay in code space, and no filtered
        # chunk is ever materialised.
        accumulator = FusedBatchAccumulator(plan.group_by, plan.aggregates)
        for batch in scan.scan_fused(plan.group_by):
            rows_after_filter += batch.num_rows
            accumulator.add(batch)
        table = merge_partials(accumulator.finish(), plan.group_by, plan.aggregates)
        return _finish_worker_plan(scan, table, None, rows_after_filter)

    column_order: List[str] = list(plan.columns)
    for chunk in scan.scan():
        if not column_order:
            column_order = list(chunk.keys())
        # The scan already consumed the expression predicate's selection
        # vector; only a UDF conjunct (if any) remains to apply here.
        filtered = _apply_filter(
            plan, chunk, column_order, skip_expression=scan.applies_predicate
        )
        rows_after_filter += table_num_rows(filtered)
        mapped = _apply_map(plan, filtered, column_order)
        if plan.aggregates:
            partials.append(partial_aggregate(mapped, plan.group_by, plan.aggregates))
        elif reduce_fn is not None:
            values = mapped.get("value")
            if values is None:
                if len(mapped) != 1:
                    raise ExecutionError("reduce requires a single value column")
                values = next(iter(mapped.values()))
            if len(values):
                values = np.asarray(values)
                # add/mul of integer values keeps the Python fold: the old
                # path reduced arbitrary-precision ints, which a fixed-width
                # ufunc reduction would silently wrap on overflow.
                safe = reduce_ufunc in (np.minimum, np.maximum) or values.dtype.kind == "f"
                if reduce_ufunc is not None and safe:
                    reduce_values.append(reduce_ufunc.reduce(values).item())
                else:
                    reduce_values.append(functools.reduce(reduce_fn, values.tolist()))
        else:
            collected.append(mapped)

    table: Optional[Table] = None
    reduce_value = None
    if plan.aggregates:
        table = merge_partials(partials, plan.group_by, plan.aggregates)
    elif reduce_fn is not None:
        reduce_value = functools.reduce(reduce_fn, reduce_values) if reduce_values else None
    else:
        table = concat_tables(collected)
    return _finish_worker_plan(scan, table, reduce_value, rows_after_filter)


def _finish_worker_plan(
    scan: S3ScanOperator,
    table: Optional[Table],
    reduce_value: Any,
    rows_after_filter: int,
) -> tuple:
    """Assemble the (result, table) pair: the scan's counters and modelled
    timings around the output table or reduce value."""
    rows_output = table_num_rows(table) if table is not None else int(reduce_value is not None)
    counters = scan.counters
    counts = Counts(scan.counts)  # the GETs and bytes
    for name in (
        "rows_scanned", "row_groups_total", "row_groups_pruned",
        "row_groups_shortcircuited", "rows_decode_saved", "column_chunks_skipped",
    ):
        counts.note("scan", name, getattr(counters, name))
    counts.note("scan", "rows_after_filter", rows_after_filter)
    counts.note("scan", "rows_output", rows_output)
    result = WorkerResult(
        reduce_value=reduce_value,
        counters=counts,
        metadata_seconds=counters.metadata_seconds,
        download_seconds=counters.download_seconds,
        compute_seconds=counters.decode_seconds,
        duration_seconds=scan.modelled_seconds(),
    )
    return result, table
