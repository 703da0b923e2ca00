"""Tests for the Python dataflow frontend (Listing 1)."""

import numpy as np
import pytest

from repro.errors import InvalidPlanError
from repro.frontend.dataframe import LambadaSession, from_files
from repro.plan.expressions import col
from repro.plan.logical import AggregateNode, FilterNode, MapNode, ProjectNode, ScanNode


# -- plan construction (no execution) -------------------------------------------------

def test_from_files_builds_scan():
    flow = from_files("s3://b/*.lpq")
    assert isinstance(flow.plan, ScanNode)
    assert flow.plan.paths == ("s3://b/*.lpq",)


def test_from_files_accepts_list():
    flow = from_files(["s3://b/1.lpq", "s3://b/2.lpq"])
    assert len(flow.plan.paths) == 2


def test_filter_with_expression_and_udf():
    base = from_files("s3://b/*.lpq")
    with_expr = base.filter(col("x") > 1)
    assert isinstance(with_expr.plan, FilterNode)
    with_udf = base.filter(lambda row: row[0] > 1)
    assert with_udf.plan.udf is not None


def test_filter_rejects_other_types():
    with pytest.raises(InvalidPlanError):
        from_files("s3://b/*.lpq").filter("x > 1")  # type: ignore[arg-type]


def test_dataflows_are_immutable():
    base = from_files("s3://b/*.lpq")
    derived = base.filter(col("x") > 1)
    assert isinstance(base.plan, ScanNode)
    assert base is not derived


def test_map_with_dict_and_callable():
    base = from_files("s3://b/*.lpq")
    with_exprs = base.map({"v": col("a") * col("b")})
    assert isinstance(with_exprs.plan, MapNode)
    with_udf = base.map(lambda row: row[1] * row[2])
    assert with_udf.plan.udf is not None
    with pytest.raises(InvalidPlanError):
        base.map(42)  # type: ignore[arg-type]


def test_select_builds_projection():
    flow = from_files("s3://b/*.lpq").select("a", "b")
    assert isinstance(flow.plan, ProjectNode)
    assert flow.plan.columns == ("a", "b")


def test_scalar_aggregates_build_aggregate_nodes():
    base = from_files("s3://b/*.lpq")
    for method, alias in (
        (lambda: base.sum(col("x")), "sum"),
        (lambda: base.count(), "count"),
        (lambda: base.min(col("x")), "min"),
        (lambda: base.max(col("x")), "max"),
        (lambda: base.avg(col("x")), "avg"),
    ):
        flow = method()
        assert isinstance(flow.plan, AggregateNode)
        assert flow.plan.aggregates[0].alias == alias


def test_group_by_agg():
    flow = from_files("s3://b/*.lpq").group_by("g").agg(
        ("sum", col("x"), "s"), ("count", None, "n")
    )
    assert isinstance(flow.plan, AggregateNode)
    assert flow.plan.group_by == ("g",)
    assert [spec.alias for spec in flow.plan.aggregates] == ["s", "n"]


def test_explain_lists_operators():
    text = from_files("s3://b/*.lpq").filter(col("x") > 1).sum(col("x")).explain()
    assert "Scan" in text and "Filter" in text and "Aggregate" in text


def test_physical_plan_includes_pending_reduce():
    flow = from_files("s3://b/*.lpq").map(lambda row: row[0]).reduce(lambda a, b: a + b)
    physical = flow.physical_plan()
    assert physical.base.reduce_udf is not None
    assert not physical.driver.collect_rows


def test_collect_without_session_raises():
    with pytest.raises(InvalidPlanError):
        from_files("s3://b/*.lpq").count().collect()


# -- execution through a session -------------------------------------------------------

@pytest.fixture
def session(driver):
    return LambadaSession(driver)


def test_listing1_style_query(session, dataset, lineitem_table):
    """The paper's Listing 1: filter + map + reduce over record lambdas."""
    # Column order in the file is the LINEITEM schema order; l_extendedprice
    # is index 5 and l_discount index 6.
    result = (
        session.from_parquet(dataset.glob)
        .filter(lambda x: x[6] >= 0.05)
        .map(lambda x: x[5] * x[6])
        .reduce(lambda a, b: a + b)
        .collect()
    )
    mask = lineitem_table["l_discount"] >= 0.05
    expected = float(
        np.sum(lineitem_table["l_extendedprice"][mask] * lineitem_table["l_discount"][mask])
    )
    assert result.reduce_value == pytest.approx(expected, rel=1e-9)


def test_expression_query_through_session(session, dataset, lineitem_table):
    result = (
        session.from_parquet(dataset.glob)
        .filter((col("l_discount") >= 0.05) & (col("l_quantity") < 24))
        .sum(col("l_extendedprice") * col("l_discount"), alias="revenue")
        .collect()
    )
    mask = (lineitem_table["l_discount"] >= 0.05) & (lineitem_table["l_quantity"] < 24)
    expected = float(
        np.sum(lineitem_table["l_extendedprice"][mask] * lineitem_table["l_discount"][mask])
    )
    assert result.column("revenue")[0] == pytest.approx(expected, rel=1e-9)


def test_group_by_through_session(session, dataset, lineitem_table):
    result = (
        session.from_parquet(dataset.glob)
        .group_by("l_linestatus")
        .agg(("count", None, "n"))
        .order_by("l_linestatus")
        .collect()
    )
    statuses, counts = np.unique(lineitem_table["l_linestatus"], return_counts=True)
    np.testing.assert_array_equal(result.column("l_linestatus"), statuses)
    np.testing.assert_allclose(result.column("n"), counts)


def test_avg_through_session(session, dataset, lineitem_table):
    result = session.from_parquet(dataset.glob).avg(col("l_quantity"), alias="m").collect()
    assert result.column("m")[0] == pytest.approx(float(lineitem_table["l_quantity"].mean()))


def test_session_sql_entry_point(session, dataset, lineitem_table):
    result = session.sql(
        "SELECT count(*) AS n FROM lineitem", catalog={"lineitem": dataset.paths}
    ).collect()
    assert result.column("n")[0] == pytest.approx(len(lineitem_table["l_quantity"]))
