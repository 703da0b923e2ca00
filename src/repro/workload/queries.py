"""TPC-H queries over the numeric schema: SQL text and NumPy references.

The paper evaluates the two most scan-bound TPC-H queries:

* **Q1** selects ~98 % of LINEITEM (``l_shipdate <= 1998-12-01 - 90 days``),
  touches seven attributes, and aggregates into a handful of groups;
* **Q6** selects ~2 % (one shipdate year, a discount band, a quantity cap),
  touches four attributes, and computes a single scalar sum.

The multi-table queries exercise the distributed join path over the
write-combined exchange (scan → repartition by key → shuffle join → partial
aggregate → driver merge):

* **Q3-style** (LINEITEM ⋈ ORDERS) — per-side date predicates, revenue per
  order, top-10 by revenue;
* **Q12-style** (LINEITEM ⋈ ORDERS) — the shipmode/commit-receipt window
  predicates on the probe side, line counts per (shipmode, orderpriority);
* **Q14-style** (LINEITEM ⋈ PART) — one shipdate month, promo revenue share
  via the ``p_promo`` flag.

The N-way queries exercise the join-DAG planner (join-order selection,
per-level push-down, multi-wave scheduling with intermediate re-exchange):

* **Q5-style** (6 relations) — local supplier volume in one region, with the
  classic ``c_nationkey = s_nationkey`` cross-relation residual;
* **Q7-style** (4 relations) — volume shipping between a nation pair (the
  two-sided OR residual over supplier/customer nations);
* **Q9-style** (5 relations) — product-type profit per supplier nation;
* **Q10-style** (4 relations) — returned-item revenue per customer, top-20;
* **Q18-style** (3 relations) — large orders per customer segment, top-100.

Each query is defined once, as SQL text in the mini-SQL dialect (``q*_sql``):
``parse_sql(q3_sql(), tpch_catalog(lineitem=..., orders=...))`` or
``Session.sql(q3_sql())`` lowers it to the logical plan the optimizer turns
into waves.  The NumPy ``reference_q*`` implementations check that the
distributed execution returns the correct answer.
"""

from __future__ import annotations

import datetime as _dt
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.frontend.sql import SqlCatalog
from repro.workload.tpch import (
    CUSTOMER_SCHEMA,
    LINEITEM_SCHEMA,
    NATION_SCHEMA,
    ORDERS_SCHEMA,
    PART_SCHEMA,
    REGION_SCHEMA,
    SUPPLIER_SCHEMA,
)


def tpch_catalog(**tables: Sequence[str]) -> SqlCatalog:
    """A catalog of TPC-H tables passed as ``name=paths`` (``lineitem=...``),
    each with its schema's columns and no stored size, for ``q*_sql``."""
    schemas = {"customer": CUSTOMER_SCHEMA, "lineitem": LINEITEM_SCHEMA,
               "nation": NATION_SCHEMA, "orders": ORDERS_SCHEMA, "part": PART_SCHEMA,
               "region": REGION_SCHEMA, "supplier": SUPPLIER_SCHEMA}
    catalog = SqlCatalog()
    for name, paths in tables.items():
        catalog.register(name, paths, columns=schemas[name].names)
    return catalog


def _days(year: int, month: int, day: int) -> int:
    return (_dt.date(year, month, day) - _dt.date(1970, 1, 1)).days


#: Q1 predicate: l_shipdate <= date '1998-12-01' - interval '90' day.
Q1_SHIPDATE_CUTOFF_DAYS = _days(1998, 12, 1) - 90

#: Q6 predicate bounds: shipdate in [1994-01-01, 1995-01-01).
Q6_SHIPDATE_LOWER_DAYS = _days(1994, 1, 1)
Q6_SHIPDATE_UPPER_DAYS = _days(1995, 1, 1)


# ---------------------------------------------------------------------------
# Query 1
# ---------------------------------------------------------------------------

def q1_sql(table_name: str = "lineitem") -> str:
    """TPC-H Query 1 in the mini-SQL dialect."""
    return (
        "SELECT l_returnflag, l_linestatus, "
        "sum(l_quantity) AS sum_qty, "
        "sum(l_extendedprice) AS sum_base_price, "
        "sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
        "sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
        "avg(l_quantity) AS avg_qty, "
        "avg(l_extendedprice) AS avg_price, "
        "avg(l_discount) AS avg_disc, "
        "count(*) AS count_order "
        f"FROM {table_name} "
        f"WHERE l_shipdate <= {Q1_SHIPDATE_CUTOFF_DAYS} "
        "GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus"
    )


def reference_q1(table: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """NumPy reference implementation of Q1 (used to verify results)."""
    mask = table["l_shipdate"] <= Q1_SHIPDATE_CUTOFF_DAYS
    selected = {name: column[mask] for name, column in table.items()}
    keys = np.rec.fromarrays(
        [selected["l_returnflag"], selected["l_linestatus"]], names=["rf", "ls"]
    )
    unique, inverse = np.unique(keys, return_inverse=True)
    num_groups = len(unique)

    def group_sum(values: np.ndarray) -> np.ndarray:
        return np.bincount(inverse, weights=values, minlength=num_groups)

    quantity = selected["l_quantity"]
    price = selected["l_extendedprice"]
    discount = selected["l_discount"]
    tax = selected["l_tax"]
    disc_price = price * (1 - discount)
    charge = disc_price * (1 + tax)
    counts = np.bincount(inverse, minlength=num_groups).astype(np.float64)
    return {
        "l_returnflag": np.asarray(unique["rf"]),
        "l_linestatus": np.asarray(unique["ls"]),
        "sum_qty": group_sum(quantity),
        "sum_base_price": group_sum(price),
        "sum_disc_price": group_sum(disc_price),
        "sum_charge": group_sum(charge),
        "avg_qty": group_sum(quantity) / counts,
        "avg_price": group_sum(price) / counts,
        "avg_disc": group_sum(discount) / counts,
        "count_order": counts,
    }


# ---------------------------------------------------------------------------
# Query 6
# ---------------------------------------------------------------------------

def q6_sql(table_name: str = "lineitem") -> str:
    """TPC-H Query 6 in the mini-SQL dialect."""
    return (
        "SELECT sum(l_extendedprice * l_discount) AS revenue "
        f"FROM {table_name} "
        f"WHERE l_shipdate >= {Q6_SHIPDATE_LOWER_DAYS} "
        f"AND l_shipdate < {Q6_SHIPDATE_UPPER_DAYS} "
        "AND l_discount BETWEEN 0.05 AND 0.07 "
        "AND l_quantity < 24"
    )


def reference_q6(table: Dict[str, np.ndarray]) -> float:
    """NumPy reference implementation of Q6."""
    mask = (
        (table["l_shipdate"] >= Q6_SHIPDATE_LOWER_DAYS)
        & (table["l_shipdate"] < Q6_SHIPDATE_UPPER_DAYS)
        & (table["l_discount"] >= 0.05)
        & (table["l_discount"] <= 0.07)
        & (table["l_quantity"] < 24)
    )
    return float(np.sum(table["l_extendedprice"][mask] * table["l_discount"][mask]))


# ---------------------------------------------------------------------------
# Join-query machinery
# ---------------------------------------------------------------------------

def _inner_join_indices(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-index pairs of an inner equi-join (probe order, like the engine)."""
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    starts = np.searchsorted(sorted_keys, left_keys, side="left")
    ends = np.searchsorted(sorted_keys, left_keys, side="right")
    counts = ends - starts
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(left_keys), dtype=np.int64), counts)
    run_offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.int64) - run_offsets
    right_idx = order[np.repeat(starts, counts) + within]
    return left_idx, right_idx


# ---------------------------------------------------------------------------
# Query 3 (two-table variant: LINEITEM ⋈ ORDERS)
# ---------------------------------------------------------------------------

#: Q3 cutoff: orders placed before, lineitems shipped after 1995-03-15.
Q3_CUTOFF_DAYS = _days(1995, 3, 15)


def q3_sql(
    lineitem_table: str = "lineitem", orders_table: str = "orders", limit: int = 10
) -> str:
    """TPC-H Query 3 (two-table form) in the mini-SQL dialect."""
    return (
        "SELECT l_orderkey, o_orderdate, o_shippriority, "
        "sum(l_extendedprice * (1 - l_discount)) AS revenue "
        f"FROM {lineitem_table} JOIN {orders_table} "
        "ON l_orderkey = o_orderkey "
        f"WHERE o_orderdate < {Q3_CUTOFF_DAYS} AND l_shipdate > {Q3_CUTOFF_DAYS} "
        "GROUP BY l_orderkey, o_orderdate, o_shippriority "
        "ORDER BY revenue, l_orderkey DESC "
        f"LIMIT {limit}"
    )


def reference_q3(
    lineitem: Dict[str, np.ndarray],
    orders: Dict[str, np.ndarray],
    limit: int = 10,
) -> Dict[str, np.ndarray]:
    """NumPy reference implementation of the two-table Q3."""
    lmask = lineitem["l_shipdate"] > Q3_CUTOFF_DAYS
    omask = orders["o_orderdate"] < Q3_CUTOFF_DAYS
    left_idx, right_idx = _inner_join_indices(
        lineitem["l_orderkey"][lmask], orders["o_orderkey"][omask]
    )
    orderkey = lineitem["l_orderkey"][lmask][left_idx]
    revenue = (
        lineitem["l_extendedprice"][lmask][left_idx]
        * (1 - lineitem["l_discount"][lmask][left_idx])
    )
    orderdate = orders["o_orderdate"][omask][right_idx]
    shippriority = orders["o_shippriority"][omask][right_idx]

    unique, inverse = np.unique(orderkey, return_inverse=True)
    revenue_sum = np.bincount(inverse, weights=revenue, minlength=len(unique))
    # o_orderdate / o_shippriority are functionally dependent on the order key.
    first = np.zeros(len(unique), dtype=np.int64)
    first[inverse[::-1]] = np.arange(len(inverse) - 1, -1, -1)
    result = {
        "l_orderkey": unique,
        "o_orderdate": orderdate[first],
        "o_shippriority": shippriority[first],
        "revenue": revenue_sum,
    }
    order = np.lexsort((result["l_orderkey"], result["revenue"]))[::-1][:limit]
    return {name: column[order] for name, column in result.items()}


# ---------------------------------------------------------------------------
# Query 12 (LINEITEM ⋈ ORDERS, shipmode/receipt window)
# ---------------------------------------------------------------------------

#: Q12 receipt-year window [1994-01-01, 1995-01-01).
Q12_RECEIPT_LOWER_DAYS = _days(1994, 1, 1)
Q12_RECEIPT_UPPER_DAYS = _days(1995, 1, 1)
#: The two ship modes Q12 inspects (integer codes of the numeric schema).
Q12_SHIPMODES = (3, 4)


def q12_sql(
    lineitem_table: str = "lineitem", orders_table: str = "orders"
) -> str:
    """TPC-H Query 12 (grouped form) in the mini-SQL dialect."""
    return (
        "SELECT l_shipmode, o_orderpriority, count(*) AS line_count "
        f"FROM {lineitem_table} JOIN {orders_table} "
        f"ON {lineitem_table}.l_orderkey = {orders_table}.o_orderkey "
        f"WHERE (l_shipmode = {Q12_SHIPMODES[0]} OR l_shipmode = {Q12_SHIPMODES[1]}) "
        "AND l_commitdate < l_receiptdate "
        "AND l_shipdate < l_commitdate "
        f"AND l_receiptdate >= {Q12_RECEIPT_LOWER_DAYS} "
        f"AND l_receiptdate < {Q12_RECEIPT_UPPER_DAYS} "
        "GROUP BY l_shipmode, o_orderpriority "
        "ORDER BY l_shipmode, o_orderpriority"
    )


def reference_q12(
    lineitem: Dict[str, np.ndarray], orders: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """NumPy reference implementation of the grouped Q12."""
    lmask = (
        np.isin(lineitem["l_shipmode"], Q12_SHIPMODES)
        & (lineitem["l_commitdate"] < lineitem["l_receiptdate"])
        & (lineitem["l_shipdate"] < lineitem["l_commitdate"])
        & (lineitem["l_receiptdate"] >= Q12_RECEIPT_LOWER_DAYS)
        & (lineitem["l_receiptdate"] < Q12_RECEIPT_UPPER_DAYS)
    )
    left_idx, right_idx = _inner_join_indices(
        lineitem["l_orderkey"][lmask], orders["o_orderkey"]
    )
    keys = np.rec.fromarrays(
        [
            lineitem["l_shipmode"][lmask][left_idx],
            orders["o_orderpriority"][right_idx],
        ],
        names=["sm", "op"],
    )
    unique, counts = np.unique(keys, return_counts=True)
    return {
        "l_shipmode": np.asarray(unique["sm"]),
        "o_orderpriority": np.asarray(unique["op"]),
        "line_count": counts.astype(np.float64),
    }


# ---------------------------------------------------------------------------
# Query 14 (LINEITEM ⋈ PART, promo revenue share)
# ---------------------------------------------------------------------------

#: Q14 shipdate month [1995-09-01, 1995-10-01).
Q14_SHIPDATE_LOWER_DAYS = _days(1995, 9, 1)
Q14_SHIPDATE_UPPER_DAYS = _days(1995, 10, 1)


def q14_sql(lineitem_table: str = "lineitem", part_table: str = "part") -> str:
    """TPC-H Query 14 (grouped form) in the mini-SQL dialect."""
    return (
        "SELECT p_promo, sum(l_extendedprice * (1 - l_discount)) AS revenue "
        f"FROM {lineitem_table} JOIN {part_table} "
        "ON l_partkey = p_partkey "
        "WHERE l_shipdate >= date '1995-09-01' AND l_shipdate < date '1995-10-01' "
        "GROUP BY p_promo "
        "ORDER BY p_promo"
    )


def q14_promo_revenue(result: Dict[str, np.ndarray]) -> float:
    """The Q14 scalar: promo revenue as a percentage of total revenue."""
    promo = np.asarray(result["p_promo"], dtype=np.int64)
    revenue = np.asarray(result["revenue"], dtype=np.float64)
    total = float(revenue.sum())
    if total == 0.0:
        return 0.0
    return 100.0 * float(revenue[promo == 1].sum()) / total


def reference_q14(
    lineitem: Dict[str, np.ndarray], part: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """NumPy reference implementation of the grouped Q14."""
    lmask = (
        (lineitem["l_shipdate"] >= Q14_SHIPDATE_LOWER_DAYS)
        & (lineitem["l_shipdate"] < Q14_SHIPDATE_UPPER_DAYS)
    )
    left_idx, right_idx = _inner_join_indices(
        lineitem["l_partkey"][lmask], part["p_partkey"]
    )
    promo = part["p_promo"][right_idx]
    revenue = (
        lineitem["l_extendedprice"][lmask][left_idx]
        * (1 - lineitem["l_discount"][lmask][left_idx])
    )
    unique, inverse = np.unique(promo, return_inverse=True)
    return {
        "p_promo": unique,
        "revenue": np.bincount(inverse, weights=revenue, minlength=len(unique)),
    }


# ---------------------------------------------------------------------------
# N-way join-DAG queries
#
# The references below exploit that CUSTOMER, SUPPLIER, NATION, and REGION
# have dense primary keys (1..N, or 0..N-1 for nation/region) covering their
# foreign-key domains, so a join against them is a direct array lookup.
# ORDERS is *not* dense — lineitems may reference absent orders — so that
# join always goes through :func:`_inner_join_indices`.
#
# The volume/profit/revenue measure is ``l_quantity * (100 - l_discount *
# 100)`` — the discounted quantity in basis points.  Both factors are exactly
# integer-valued in float64 (``l_quantity`` is generated as integers;
# ``(k/100) * 100`` rounds back to exactly ``k`` for k <= 10), so every
# partial sum is an exact integer far below 2**53.  That makes the aggregate
# independent of summation order, which is what lets the multi-wave DAG
# schedule — whose per-partition merge order differs from a single NumPy
# pass — stay *bit-identical* to these references at any worker count.  A
# price-based measure would not survive reassociation: cent-rounded doubles
# are not dyadic, so their sums drift by ULPs across partitionings.
# ---------------------------------------------------------------------------

#: Q5 window: orders placed within 1994; region code 2 plays "ASIA".
Q5_ORDERDATE_LOWER_DAYS = _days(1994, 1, 1)
Q5_ORDERDATE_UPPER_DAYS = _days(1995, 1, 1)
Q5_REGION_CODE = 2

#: Q7 window: lineitems shipped 1995-1996; the nation pair under study.
Q7_SHIPDATE_LOWER_DAYS = _days(1995, 1, 1)
Q7_SHIPDATE_UPPER_DAYS = _days(1997, 1, 1)
Q7_NATION_A = 1
Q7_NATION_B = 2

#: Q9 part-type band (plays the ``p_name like '%green%'`` filter).
Q9_TYPE_CUTOFF = 30

#: Q10 window: orders of 1993Q4; return flag code 1 plays 'R'.
Q10_ORDERDATE_LOWER_DAYS = _days(1993, 10, 1)
Q10_ORDERDATE_UPPER_DAYS = _days(1994, 1, 1)
Q10_RETURNFLAG = 1

#: Q18 thresholds: large orders within one market segment.
Q18_TOTALPRICE_MIN = 400_000.0
Q18_MKTSEGMENT = 0


# -- Query 5 (6 relations: local supplier volume) ----------------------------

def q5_sql(
    lineitem_table: str = "lineitem",
    orders_table: str = "orders",
    customer_table: str = "customer",
    supplier_table: str = "supplier",
    nation_table: str = "nation",
    region_table: str = "region",
) -> str:
    """TPC-H Query 5 in the mini-SQL dialect."""
    return (
        "SELECT n_nationkey, "
        "sum(l_quantity * (100 - l_discount * 100)) AS volume "
        f"FROM {lineitem_table} "
        f"JOIN {orders_table} ON l_orderkey = o_orderkey "
        f"JOIN {customer_table} ON o_custkey = c_custkey "
        f"JOIN {supplier_table} ON l_suppkey = s_suppkey "
        f"JOIN {nation_table} ON s_nationkey = n_nationkey "
        f"JOIN {region_table} ON n_regionkey = r_regionkey "
        f"WHERE o_orderdate >= {Q5_ORDERDATE_LOWER_DAYS} "
        f"AND o_orderdate < {Q5_ORDERDATE_UPPER_DAYS} "
        f"AND r_name = {Q5_REGION_CODE} "
        "AND c_nationkey = s_nationkey "
        "GROUP BY n_nationkey "
        "ORDER BY volume, n_nationkey DESC"
    )


def reference_q5(
    lineitem: Dict[str, np.ndarray],
    orders: Dict[str, np.ndarray],
    customer: Dict[str, np.ndarray],
    supplier: Dict[str, np.ndarray],
    nation: Dict[str, np.ndarray],
    region: Dict[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """NumPy reference implementation of Q5."""
    omask = (
        (orders["o_orderdate"] >= Q5_ORDERDATE_LOWER_DAYS)
        & (orders["o_orderdate"] < Q5_ORDERDATE_UPPER_DAYS)
    )
    left_idx, right_idx = _inner_join_indices(
        lineitem["l_orderkey"], orders["o_orderkey"][omask]
    )
    custkey = orders["o_custkey"][omask][right_idx]
    c_nation = customer["c_nationkey"][custkey - 1]
    s_nation = supplier["s_nationkey"][lineitem["l_suppkey"][left_idx] - 1]
    r_name = region["r_name"][nation["n_regionkey"][s_nation]]
    mask = (c_nation == s_nation) & (r_name == Q5_REGION_CODE)

    volume = (
        lineitem["l_quantity"][left_idx]
        * (100 - lineitem["l_discount"][left_idx] * 100)
    )[mask]
    unique, inverse = np.unique(s_nation[mask], return_inverse=True)
    volume_sum = np.bincount(inverse, weights=volume, minlength=len(unique))
    order = np.lexsort((unique, volume_sum))[::-1]
    return {"n_nationkey": unique[order], "volume": volume_sum[order]}


# -- Query 7 (4 relations: volume shipping between two nations) --------------

def q7_sql(
    lineitem_table: str = "lineitem",
    orders_table: str = "orders",
    customer_table: str = "customer",
    supplier_table: str = "supplier",
) -> str:
    """TPC-H Query 7 in the mini-SQL dialect."""
    return (
        "SELECT s_nationkey, c_nationkey, "
        "sum(l_quantity * (100 - l_discount * 100)) AS volume "
        f"FROM {lineitem_table} "
        f"JOIN {orders_table} ON l_orderkey = o_orderkey "
        f"JOIN {customer_table} ON o_custkey = c_custkey "
        f"JOIN {supplier_table} ON l_suppkey = s_suppkey "
        f"WHERE l_shipdate >= {Q7_SHIPDATE_LOWER_DAYS} "
        f"AND l_shipdate < {Q7_SHIPDATE_UPPER_DAYS} "
        f"AND ((s_nationkey = {Q7_NATION_A} AND c_nationkey = {Q7_NATION_B}) "
        f"OR (s_nationkey = {Q7_NATION_B} AND c_nationkey = {Q7_NATION_A})) "
        "GROUP BY s_nationkey, c_nationkey "
        "ORDER BY s_nationkey, c_nationkey"
    )


def reference_q7(
    lineitem: Dict[str, np.ndarray],
    orders: Dict[str, np.ndarray],
    customer: Dict[str, np.ndarray],
    supplier: Dict[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """NumPy reference implementation of Q7."""
    lmask = (
        (lineitem["l_shipdate"] >= Q7_SHIPDATE_LOWER_DAYS)
        & (lineitem["l_shipdate"] < Q7_SHIPDATE_UPPER_DAYS)
    )
    left_idx, right_idx = _inner_join_indices(
        lineitem["l_orderkey"][lmask], orders["o_orderkey"]
    )
    c_nation = customer["c_nationkey"][orders["o_custkey"][right_idx] - 1]
    s_nation = supplier["s_nationkey"][
        lineitem["l_suppkey"][lmask][left_idx] - 1
    ]
    pair = (
        ((s_nation == Q7_NATION_A) & (c_nation == Q7_NATION_B))
        | ((s_nation == Q7_NATION_B) & (c_nation == Q7_NATION_A))
    )
    volume = (
        lineitem["l_quantity"][lmask][left_idx]
        * (100 - lineitem["l_discount"][lmask][left_idx] * 100)
    )[pair]
    keys = np.rec.fromarrays([s_nation[pair], c_nation[pair]], names=["s", "c"])
    unique, inverse = np.unique(keys, return_inverse=True)
    return {
        "s_nationkey": np.asarray(unique["s"]),
        "c_nationkey": np.asarray(unique["c"]),
        "volume": np.bincount(inverse, weights=volume, minlength=len(unique)),
    }


# -- Query 9 (5 relations: product-type profit by supplier nation) -----------

def q9_sql(
    lineitem_table: str = "lineitem",
    part_table: str = "part",
    supplier_table: str = "supplier",
    orders_table: str = "orders",
    nation_table: str = "nation",
) -> str:
    """TPC-H Query 9 in the mini-SQL dialect."""
    return (
        "SELECT n_nationkey, "
        "sum(l_quantity * (100 - l_discount * 100)) AS profit "
        f"FROM {lineitem_table} "
        f"JOIN {part_table} ON l_partkey = p_partkey "
        f"JOIN {supplier_table} ON l_suppkey = s_suppkey "
        f"JOIN {orders_table} ON l_orderkey = o_orderkey "
        f"JOIN {nation_table} ON s_nationkey = n_nationkey "
        f"WHERE p_type < {Q9_TYPE_CUTOFF} "
        "GROUP BY n_nationkey "
        "ORDER BY n_nationkey"
    )


def reference_q9(
    lineitem: Dict[str, np.ndarray],
    part: Dict[str, np.ndarray],
    supplier: Dict[str, np.ndarray],
    orders: Dict[str, np.ndarray],
    nation: Dict[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """NumPy reference implementation of Q9."""
    lmask = part["p_type"][lineitem["l_partkey"] - 1] < Q9_TYPE_CUTOFF
    left_idx, _ = _inner_join_indices(
        lineitem["l_orderkey"][lmask], orders["o_orderkey"]
    )
    s_nation = supplier["s_nationkey"][
        lineitem["l_suppkey"][lmask][left_idx] - 1
    ]
    profit = (
        lineitem["l_quantity"][lmask][left_idx]
        * (100 - lineitem["l_discount"][lmask][left_idx] * 100)
    )
    unique, inverse = np.unique(s_nation, return_inverse=True)
    return {
        "n_nationkey": unique,
        "profit": np.bincount(inverse, weights=profit, minlength=len(unique)),
    }


# -- Query 10 (4 relations: returned-item revenue per customer) --------------

def q10_sql(
    lineitem_table: str = "lineitem",
    orders_table: str = "orders",
    customer_table: str = "customer",
    nation_table: str = "nation",
    limit: int = 20,
) -> str:
    """TPC-H Query 10 in the mini-SQL dialect."""
    return (
        "SELECT c_custkey, n_nationkey, "
        "sum(l_quantity * (100 - l_discount * 100)) AS revenue "
        f"FROM {lineitem_table} "
        f"JOIN {orders_table} ON l_orderkey = o_orderkey "
        f"JOIN {customer_table} ON o_custkey = c_custkey "
        f"JOIN {nation_table} ON c_nationkey = n_nationkey "
        f"WHERE o_orderdate >= {Q10_ORDERDATE_LOWER_DAYS} "
        f"AND o_orderdate < {Q10_ORDERDATE_UPPER_DAYS} "
        f"AND l_returnflag = {Q10_RETURNFLAG} "
        "GROUP BY c_custkey, n_nationkey "
        "ORDER BY revenue, c_custkey DESC "
        f"LIMIT {limit}"
    )


def reference_q10(
    lineitem: Dict[str, np.ndarray],
    orders: Dict[str, np.ndarray],
    customer: Dict[str, np.ndarray],
    nation: Dict[str, np.ndarray],
    limit: int = 20,
) -> Dict[str, np.ndarray]:
    """NumPy reference implementation of Q10."""
    lmask = lineitem["l_returnflag"] == Q10_RETURNFLAG
    omask = (
        (orders["o_orderdate"] >= Q10_ORDERDATE_LOWER_DAYS)
        & (orders["o_orderdate"] < Q10_ORDERDATE_UPPER_DAYS)
    )
    left_idx, right_idx = _inner_join_indices(
        lineitem["l_orderkey"][lmask], orders["o_orderkey"][omask]
    )
    custkey = orders["o_custkey"][omask][right_idx]
    nationkey = customer["c_nationkey"][custkey - 1]
    revenue = (
        lineitem["l_quantity"][lmask][left_idx]
        * (100 - lineitem["l_discount"][lmask][left_idx] * 100)
    )
    keys = np.rec.fromarrays([custkey, nationkey], names=["ck", "nk"])
    unique, inverse = np.unique(keys, return_inverse=True)
    revenue_sum = np.bincount(inverse, weights=revenue, minlength=len(unique))
    custkeys = np.asarray(unique["ck"])
    order = np.lexsort((custkeys, revenue_sum))[::-1][:limit]
    return {
        "c_custkey": custkeys[order],
        "n_nationkey": np.asarray(unique["nk"])[order],
        "revenue": revenue_sum[order],
    }


# -- Query 18 (3 relations: large orders in one market segment) --------------

def q18_sql(
    lineitem_table: str = "lineitem",
    orders_table: str = "orders",
    customer_table: str = "customer",
    limit: int = 100,
) -> str:
    """TPC-H Query 18 in the mini-SQL dialect."""
    return (
        "SELECT c_custkey, o_orderkey, o_totalprice, "
        "sum(l_quantity) AS sum_qty "
        f"FROM {lineitem_table} "
        f"JOIN {orders_table} ON l_orderkey = o_orderkey "
        f"JOIN {customer_table} ON o_custkey = c_custkey "
        f"WHERE o_totalprice > {Q18_TOTALPRICE_MIN} "
        f"AND c_mktsegment = {Q18_MKTSEGMENT} "
        "GROUP BY c_custkey, o_orderkey, o_totalprice "
        "ORDER BY o_totalprice, o_orderkey DESC "
        f"LIMIT {limit}"
    )


def reference_q18(
    lineitem: Dict[str, np.ndarray],
    orders: Dict[str, np.ndarray],
    customer: Dict[str, np.ndarray],
    limit: int = 100,
) -> Dict[str, np.ndarray]:
    """NumPy reference implementation of Q18."""
    omask = orders["o_totalprice"] > Q18_TOTALPRICE_MIN
    left_idx, right_idx = _inner_join_indices(
        lineitem["l_orderkey"], orders["o_orderkey"][omask]
    )
    custkey = orders["o_custkey"][omask][right_idx]
    segment_ok = customer["c_mktsegment"][custkey - 1] == Q18_MKTSEGMENT

    custkey = custkey[segment_ok]
    orderkey = orders["o_orderkey"][omask][right_idx][segment_ok]
    totalprice = orders["o_totalprice"][omask][right_idx][segment_ok]
    quantity = lineitem["l_quantity"][left_idx][segment_ok]
    keys = np.rec.fromarrays(
        [custkey, orderkey, totalprice], names=["ck", "ok", "tp"]
    )
    unique, inverse = np.unique(keys, return_inverse=True)
    qty_sum = np.bincount(inverse, weights=quantity, minlength=len(unique))
    orderkeys = np.asarray(unique["ok"])
    totalprices = np.asarray(unique["tp"])
    order = np.lexsort((orderkeys, totalprices))[::-1][:limit]
    return {
        "c_custkey": np.asarray(unique["ck"])[order],
        "o_orderkey": orderkeys[order],
        "o_totalprice": totalprices[order],
        "sum_qty": qty_sum[order],
    }
