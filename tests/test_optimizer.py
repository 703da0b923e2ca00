"""Tests for the logical-to-physical optimizer (push-downs, two-phase aggregation)."""

import math

import pytest

from repro.errors import InvalidPlanError
from repro.frontend.sql import parse_sql
from repro.plan.expressions import col
from repro.plan.logical import (
    AggregateNode,
    AggregateSpec,
    FilterNode,
    JoinNode,
    LimitNode,
    MapNode,
    OrderByNode,
    ProjectNode,
    ScanNode,
)
from repro.plan.optimizer import optimize
from repro.workload.queries import q1_sql, q6_sql, tpch_catalog


def test_projection_pushdown_collects_referenced_columns():
    plan = AggregateNode(
        child=FilterNode(
            child=ScanNode(paths=("s3://b/x.lpq",)),
            predicate=col("a") > 1,
        ),
        group_by=("g",),
        aggregates=(AggregateSpec("sum", col("b") * col("c"), "s"),),
    )
    physical, report = optimize(plan)
    # The scan outputs what the aggregate reads; it reads "a" for its
    # selection vector itself.
    assert physical.worker_template.columns == ["b", "c", "g"]
    assert report.pushed_columns == ["b", "c", "g"]
    assert not report.read_all_columns


def test_udf_plans_read_all_columns():
    plan = FilterNode(child=ScanNode(paths=("s3://b/x.lpq",)), udf=lambda row: True)
    physical, report = optimize(plan)
    assert physical.worker_template.columns == []
    assert report.read_all_columns


def test_selection_pushdown_generates_prune_ranges():
    plan = FilterNode(
        child=ScanNode(paths=("s3://b/x.lpq",)),
        predicate=(col("d") >= 10) & (col("d") < 20) & (col("q") < 5),
    )
    physical, report = optimize(plan)
    ranges = {r.column: (r.lower, r.upper) for r in physical.worker_template.prune_ranges}
    assert ranges["d"] == (10, 20)
    assert ranges["q"] == (-math.inf, 5)
    assert physical.worker_template.predicate is not None


def test_multiple_filters_are_conjoined():
    plan = FilterNode(
        child=FilterNode(child=ScanNode(paths=("s3://b/x.lpq",)), predicate=col("a") > 1),
        predicate=col("b") < 5,
    )
    physical, _ = optimize(plan)
    ranges = {r.column for r in physical.worker_template.prune_ranges}
    assert ranges == {"a", "b"}


def test_avg_decomposed_into_sum_and_count():
    plan = AggregateNode(
        child=ScanNode(paths=("s3://b/x.lpq",)),
        aggregates=(AggregateSpec("avg", col("v"), "mean_v"),),
    )
    physical, report = optimize(plan)
    partial_aliases = [spec.alias for spec in physical.worker_template.aggregates]
    assert "__mean_v_sum" in partial_aliases
    assert "__mean_v_count" in partial_aliases
    finals = [spec.alias for spec in physical.driver.final_aggregates]
    assert finals == ["mean_v"]


def test_simple_aggregates_pass_through():
    plan = AggregateNode(
        child=ScanNode(paths=("s3://b/x.lpq",)),
        group_by=("g",),
        aggregates=(
            AggregateSpec("sum", col("v"), "s"),
            AggregateSpec("min", col("v"), "lo"),
            AggregateSpec("count", None, "n"),
        ),
    )
    physical, _ = optimize(plan)
    assert [spec.alias for spec in physical.worker_template.aggregates] == ["s", "lo", "n"]
    assert physical.driver.group_by == ["g"]
    assert not physical.driver.collect_rows


def test_no_aggregation_means_collect_rows():
    plan = ProjectNode(child=ScanNode(paths=("s3://b/x.lpq",)), columns=("a", "b"))
    physical, _ = optimize(plan)
    assert physical.driver.collect_rows
    assert physical.worker_template.columns == ["a", "b"]


def test_order_by_and_limit_land_in_driver_plan():
    plan = LimitNode(
        child=OrderByNode(
            child=AggregateNode(
                child=ScanNode(paths=("s3://b/x.lpq",)),
                group_by=("g",),
                aggregates=(AggregateSpec("sum", col("v"), "s"),),
            ),
            keys=("g",),
            descending=True,
        ),
        count=10,
    )
    physical, _ = optimize(plan)
    assert physical.driver.order_by == ["g"]
    assert physical.driver.descending
    assert physical.driver.limit == 10


def test_map_outputs_are_forwarded():
    plan = MapNode(
        child=ScanNode(paths=("s3://b/x.lpq",)),
        outputs=(("v", col("a") * col("b")),),
    )
    physical, _ = optimize(plan)
    assert physical.worker_template.map_outputs[0][0] == "v"
    assert physical.worker_template.columns == ["a", "b"]


def test_plan_must_start_with_scan():
    with pytest.raises(InvalidPlanError):
        optimize(FilterNode(child=None, predicate=col("x") > 1))  # type: ignore[arg-type]


def test_join_nodes_lower_into_a_one_stage_dag_plan():
    from repro.plan.physical import DagPhysicalPlan

    plan = JoinNode(
        child=ScanNode(paths=("s3://b/l.lpq",)),
        right=ScanNode(paths=("s3://b/r.lpq",)),
        left_key="k",
        right_key="rk",
    )
    physical, report = optimize(plan)
    assert isinstance(physical, DagPhysicalPlan)
    assert len(physical.stages) == 1
    assert physical.base.key == "k"
    assert physical.stages[0].right.key == "rk"
    assert physical.driver.collect_rows
    assert report.join_keys == ("k", "rk")


def test_q1_pushdowns():
    catalog = tpch_catalog(lineitem=["s3://tpch/lineitem/part-0.lpq"])
    physical, report = optimize(parse_sql(q1_sql(), catalog))
    assert set(physical.worker_template.columns) == {
        "l_returnflag",
        "l_linestatus",
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_tax",
    }
    assert any(r.column == "l_shipdate" for r in physical.worker_template.prune_ranges)
    assert physical.driver.group_by == ["l_returnflag", "l_linestatus"]


def test_q6_pushdowns():
    catalog = tpch_catalog(lineitem=["s3://tpch/lineitem/part-0.lpq"])
    physical, report = optimize(parse_sql(q6_sql(), catalog))
    ranges = {r.column: (r.lower, r.upper) for r in physical.worker_template.prune_ranges}
    assert "l_shipdate" in ranges
    assert "l_discount" in ranges
    assert "l_quantity" in ranges
    assert set(physical.worker_template.columns) == {"l_extendedprice", "l_discount"}

