"""Workloads: TPC-H-style data generation and the evaluation queries.

The paper evaluates on the TPC-H ``LINEITEM`` relation generated at scale
factor 1000, modified to contain only numbers (no strings) and sorted by
``l_shipdate``.  This package reproduces that generator at arbitrary (small)
scale factors, writes datasets into the simulated object store, and provides
the evaluation queries as SQL text (``q*_sql``, lowered by the SQL frontend
over :func:`tpch_catalog`) with NumPy reference implementations.
"""

from repro.workload.tpch import (
    LINEITEM_SCHEMA,
    ORDERS_SCHEMA,
    PART_SCHEMA,
    LineitemGenerator,
    OrdersGenerator,
    PartGenerator,
    DatasetInfo,
    generate_lineitem_dataset,
    generate_orders_dataset,
    generate_part_dataset,
    write_dataset,
)
from repro.workload.queries import (
    q1_sql,
    q3_sql,
    q6_sql,
    q12_sql,
    q14_sql,
    q14_promo_revenue,
    tpch_catalog,
    reference_q1,
    reference_q3,
    reference_q6,
    reference_q12,
    reference_q14,
    Q1_SHIPDATE_CUTOFF_DAYS,
    Q3_CUTOFF_DAYS,
    Q6_SHIPDATE_LOWER_DAYS,
    Q6_SHIPDATE_UPPER_DAYS,
)

__all__ = [
    "LINEITEM_SCHEMA",
    "ORDERS_SCHEMA",
    "PART_SCHEMA",
    "LineitemGenerator",
    "OrdersGenerator",
    "PartGenerator",
    "DatasetInfo",
    "generate_lineitem_dataset",
    "generate_orders_dataset",
    "generate_part_dataset",
    "write_dataset",
    "q1_sql",
    "q3_sql",
    "q6_sql",
    "q12_sql",
    "q14_sql",
    "q14_promo_revenue",
    "tpch_catalog",
    "reference_q1",
    "reference_q3",
    "reference_q6",
    "reference_q12",
    "reference_q14",
    "Q1_SHIPDATE_CUTOFF_DAYS",
    "Q3_CUTOFF_DAYS",
    "Q6_SHIPDATE_LOWER_DAYS",
    "Q6_SHIPDATE_UPPER_DAYS",
]
