"""Tests for logical plan nodes."""

import pytest

from repro.errors import InvalidPlanError, PlanError
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


def _scan():
    return ScanNode(paths=("s3://b/a.lpq", "s3://b/b.lpq"))


def test_scan_requires_paths():
    with pytest.raises(InvalidPlanError):
        ScanNode(paths=())


def test_chain_is_in_leaf_to_root_order():
    plan = LimitNode(child=FilterNode(child=_scan(), predicate=col("x") > 1), count=5)
    chain = plan.chain()
    assert isinstance(chain[0], ScanNode)
    assert isinstance(chain[1], FilterNode)
    assert isinstance(chain[2], LimitNode)


def test_scan_accessor_returns_leaf():
    plan = FilterNode(child=_scan(), predicate=col("x") > 1)
    assert plan.scan().paths == ("s3://b/a.lpq", "s3://b/b.lpq")


def test_filter_requires_exactly_one_of_predicate_or_udf():
    with pytest.raises(InvalidPlanError):
        FilterNode(child=_scan())
    with pytest.raises(InvalidPlanError):
        FilterNode(child=_scan(), predicate=col("x") > 1, udf=lambda row: True)


def test_project_requires_columns():
    with pytest.raises(InvalidPlanError):
        ProjectNode(child=_scan(), columns=())


def test_map_requires_outputs_or_udf():
    with pytest.raises(InvalidPlanError):
        MapNode(child=_scan())
    MapNode(child=_scan(), outputs=(("v", col("a") * col("b")),))
    MapNode(child=_scan(), udf=lambda row: row[0])


def test_aggregate_spec_validation():
    with pytest.raises(PlanError):
        AggregateSpec("median", col("x"), "m")
    with pytest.raises(PlanError):
        AggregateSpec("sum", None, "s")
    AggregateSpec("count", None, "c")


def test_aggregate_spec_dict_roundtrip():
    spec = AggregateSpec("sum", col("x") * 2, "total")
    restored = AggregateSpec.from_dict(spec.to_dict())
    assert restored.function == "sum"
    assert restored.alias == "total"
    assert restored.expression.equals(spec.expression)


def test_aggregate_node_requires_aggregates():
    with pytest.raises(InvalidPlanError):
        AggregateNode(child=_scan(), group_by=("g",), aggregates=())


def test_aggregate_node_rejects_duplicate_aliases():
    with pytest.raises(InvalidPlanError):
        AggregateNode(
            child=_scan(),
            aggregates=(
                AggregateSpec("sum", col("x"), "v"),
                AggregateSpec("max", col("x"), "v"),
            ),
        )


def test_order_by_requires_keys():
    with pytest.raises(InvalidPlanError):
        OrderByNode(child=_scan(), keys=())


def test_limit_rejects_negative():
    with pytest.raises(InvalidPlanError):
        LimitNode(child=_scan(), count=-1)


def test_join_requires_right_and_keys():
    with pytest.raises(InvalidPlanError):
        JoinNode(child=_scan(), right=None, left_key="a", right_key="b")
    with pytest.raises(InvalidPlanError):
        JoinNode(child=_scan(), right=_scan(), left_key="", right_key="b")
    JoinNode(child=_scan(), right=_scan(), left_key="a", right_key="b")


def test_describe_mentions_all_nodes():
    plan = AggregateNode(
        child=FilterNode(child=_scan(), predicate=col("x") > 1),
        group_by=("g",),
        aggregates=(AggregateSpec("sum", col("x"), "s"),),
    )
    description = plan.describe()
    assert "Scan" in description
    assert "Filter" in description
    assert "Aggregate" in description
