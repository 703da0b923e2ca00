"""Tests for the TPC-H query definitions and reference implementations."""

import numpy as np

from repro.frontend.sql import parse_sql
from repro.plan.optimizer import optimize
from repro.workload.queries import (
    Q1_SHIPDATE_CUTOFF_DAYS,
    Q6_SHIPDATE_LOWER_DAYS,
    Q6_SHIPDATE_UPPER_DAYS,
    q1_sql,
    q6_sql,
    reference_q1,
    reference_q6,
    tpch_catalog,
)


def test_date_constants_are_consistent():
    # 1998-12-01 minus 90 days is in September 1998.
    assert Q1_SHIPDATE_CUTOFF_DAYS == 10561 - 90
    assert Q6_SHIPDATE_UPPER_DAYS - Q6_SHIPDATE_LOWER_DAYS == 365


def test_q1_selectivity_is_high(lineitem_table):
    mask = lineitem_table["l_shipdate"] <= Q1_SHIPDATE_CUTOFF_DAYS
    assert mask.mean() > 0.9


def test_q6_selectivity_is_low(lineitem_table):
    mask = (
        (lineitem_table["l_shipdate"] >= Q6_SHIPDATE_LOWER_DAYS)
        & (lineitem_table["l_shipdate"] < Q6_SHIPDATE_UPPER_DAYS)
        & (lineitem_table["l_discount"] >= 0.05)
        & (lineitem_table["l_discount"] <= 0.07)
        & (lineitem_table["l_quantity"] < 24)
    )
    assert 0.001 < mask.mean() < 0.05


def test_reference_q1_group_count(lineitem_table):
    result = reference_q1(lineitem_table)
    # Three (returnflag, linestatus) combinations survive the date filter:
    # (A,F), (R,F), and N rows are mostly after the cutoff but some (N,O) remain.
    assert 2 <= len(result["sum_qty"]) <= 4
    assert np.all(result["count_order"] > 0)


def test_reference_q1_internal_consistency(lineitem_table):
    result = reference_q1(lineitem_table)
    np.testing.assert_allclose(
        result["avg_qty"], result["sum_qty"] / result["count_order"], rtol=1e-12
    )
    # Discounted price is never above the base price (discounts are >= 0).
    assert np.all(result["sum_disc_price"] <= result["sum_base_price"] + 1e-9)
    # Charges include tax, so they are at least the discounted price.
    assert np.all(result["sum_charge"] >= result["sum_disc_price"])


def test_reference_q6_nonzero(lineitem_table):
    assert reference_q6(lineitem_table) > 0


def test_q1_sql_lowers_to_a_grouped_driver_merge():
    physical, _ = optimize(parse_sql(q1_sql(), tpch_catalog(lineitem=["s3://b/f.lpq"])))
    assert physical.driver.group_by == ["l_returnflag", "l_linestatus"]
    assert len(physical.driver.final_aggregates) == 8
    assert physical.driver.order_by == ["l_returnflag", "l_linestatus"]


def test_q6_sql_lowers_to_a_scalar_driver_merge():
    physical, _ = optimize(parse_sql(q6_sql(), tpch_catalog(lineitem=["s3://b/f.lpq"])))
    assert physical.driver.group_by == []
    assert [spec.alias for spec in physical.driver.final_aggregates] == ["revenue"]


def test_sql_strings_mention_all_predicates():
    assert "l_shipdate" in q1_sql()
    assert "BETWEEN" in q6_sql()
    assert "l_quantity" in q6_sql()
    assert "lineitem" in q1_sql()
    assert q1_sql("other_table").count("other_table") == 1
