"""Vectorized execution engine run inside the serverless workers.

The engine executes :class:`~repro.plan.physical.WorkerPlan` fragments against
the object store: it scans columnar files (with projection push-down, min/max
row-group pruning, and a modelled multi-connection download strategy), applies
filters and computed columns, and produces partial aggregates.  The same
operators also run on the driver for small local scopes.

The public entry point is :func:`~repro.engine.pipeline.execute_worker_plan`.
"""

from repro.engine.table import (
    Table,
    table_num_rows,
    concat_tables,
    filter_table,
    select_columns,
    empty_table_like,
)
from repro.engine.payload import decode_table, encode_table
from repro.engine.s3io import S3ObjectSource, ScanStatistics
from repro.engine.scan import S3ScanOperator, ScanConfig
from repro.engine.aggregates import (
    partial_aggregate,
    merge_partials,
    finalize_aggregates,
)
from repro.engine.pipeline import execute_worker_plan, WorkerResult
from repro.engine.join import hash_join

__all__ = [
    "Table",
    "table_num_rows",
    "concat_tables",
    "filter_table",
    "select_columns",
    "empty_table_like",
    "encode_table",
    "decode_table",
    "S3ObjectSource",
    "ScanStatistics",
    "S3ScanOperator",
    "ScanConfig",
    "partial_aggregate",
    "merge_partials",
    "finalize_aggregates",
    "execute_worker_plan",
    "WorkerResult",
    "hash_join",
]
