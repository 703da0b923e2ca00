"""Tests for the mini-SQL frontend."""

import numpy as np
import pytest

from repro.errors import SqlSyntaxError
from repro.frontend.sql import SqlCatalog, date_to_days, parse_sql
from repro.plan.expressions import evaluate
from repro.plan.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    OrderByNode,
    ProjectNode,
    ScanNode,
)
from repro.workload.queries import q1_sql, q6_sql, reference_q1, reference_q6


@pytest.fixture
def catalog():
    return SqlCatalog({"lineitem": ["s3://tpch/lineitem/*.lpq"], "t": ["s3://b/t.lpq"]})


def test_simple_projection(catalog):
    plan = parse_sql("SELECT a, b FROM t", catalog)
    assert isinstance(plan, ProjectNode)
    assert plan.columns == ("a", "b")
    assert isinstance(plan.child, ScanNode)


def test_where_clause_becomes_filter(catalog):
    plan = parse_sql("SELECT a FROM t WHERE a > 5 AND b <= 3", catalog)
    chain = plan.chain()
    assert any(isinstance(node, FilterNode) for node in chain)


def test_aggregates_with_group_by(catalog):
    plan = parse_sql(
        "SELECT g, sum(v) AS total, count(*) AS n FROM t GROUP BY g", catalog
    )
    agg = next(node for node in plan.chain() if isinstance(node, AggregateNode))
    assert agg.group_by == ("g",)
    assert [spec.alias for spec in agg.aggregates] == ["total", "n"]


def test_order_by_and_limit(catalog):
    plan = parse_sql("SELECT a FROM t ORDER BY a DESC LIMIT 5", catalog)
    chain = plan.chain()
    order = next(node for node in chain if isinstance(node, OrderByNode))
    limit = next(node for node in chain if isinstance(node, LimitNode))
    assert order.descending
    assert limit.count == 5


def test_expression_arithmetic_parsed(catalog):
    plan = parse_sql("SELECT sum(a * (1 - b)) AS s FROM t", catalog)
    agg = next(node for node in plan.chain() if isinstance(node, AggregateNode))
    expr = agg.aggregates[0].expression
    table = {"a": np.array([2.0, 4.0]), "b": np.array([0.5, 0.25])}
    np.testing.assert_allclose(evaluate(expr, table), [1.0, 3.0])


def test_between_is_rewritten_as_range(catalog):
    plan = parse_sql("SELECT a FROM t WHERE a BETWEEN 2 AND 4", catalog)
    predicate = next(node for node in plan.chain() if isinstance(node, FilterNode)).predicate
    table = {"a": np.array([1.0, 2.0, 3.0, 4.0, 5.0])}
    np.testing.assert_array_equal(
        evaluate(predicate, table), [False, True, True, True, False]
    )


def test_date_literals_become_day_numbers(catalog):
    plan = parse_sql("SELECT a FROM t WHERE d >= DATE '1994-01-01'", catalog)
    predicate = next(node for node in plan.chain() if isinstance(node, FilterNode)).predicate
    table = {"a": np.zeros(2), "d": np.array([date_to_days(1993, 12, 31), date_to_days(1994, 1, 1)])}
    np.testing.assert_array_equal(evaluate(predicate, table), [False, True])


def test_or_and_not_supported(catalog):
    plan = parse_sql("SELECT a FROM t WHERE a < 1 OR NOT b = 2", catalog)
    predicate = next(node for node in plan.chain() if isinstance(node, FilterNode)).predicate
    table = {"a": np.array([0.0, 5.0, 5.0]), "b": np.array([2.0, 2.0, 3.0])}
    np.testing.assert_array_equal(evaluate(predicate, table), [True, False, True])


def test_case_insensitive_keywords(catalog):
    plan = parse_sql("select a from t where a > 1", catalog)
    assert isinstance(plan, ProjectNode)


def test_unknown_table_raises(catalog):
    with pytest.raises(SqlSyntaxError):
        parse_sql("SELECT a FROM missing", catalog)


def test_syntax_errors_raise(catalog):
    for statement in (
        "SELEC a FROM t",
        "SELECT a t",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t LIMIT x",
        "SELECT a FROM t GROUP BY",
        "SELECT a FROM t trailing garbage !!!",
        "SELECT sum(a FROM t",
    ):
        with pytest.raises(SqlSyntaxError):
            parse_sql(statement, catalog)


def test_non_grouped_plain_column_with_aggregate_rejected(catalog):
    with pytest.raises(SqlSyntaxError):
        parse_sql("SELECT a, sum(b) AS s FROM t", catalog)


def test_group_by_without_aggregate_rejected(catalog):
    with pytest.raises(SqlSyntaxError):
        parse_sql("SELECT a FROM t GROUP BY a", catalog)


def test_catalog_register_and_lookup():
    catalog = SqlCatalog()
    catalog.register("Orders", ["s3://b/orders/*.lpq"])
    assert catalog.paths_of("orders") == ("s3://b/orders/*.lpq",)
    with pytest.raises(SqlSyntaxError):
        catalog.paths_of("lineitem")


def test_catalog_register_takes_one_bare_path_like_the_constructor():
    """A string is one path or glob, not a sequence of characters."""
    glob = "s3://bucket/t/*.lpq"
    catalog = SqlCatalog(tables={"built": glob})
    catalog.register("registered", glob)
    assert catalog.paths_of("built") == catalog.paths_of("registered") == (glob,)
    scan = parse_sql("SELECT sum(a) AS s FROM registered", catalog).scan()
    assert scan.paths == (glob,)


def test_catalog_reregistration_forgets_what_it_leaves_out():
    catalog = SqlCatalog()
    catalog.register("t", ["s3://b/t.lpq"], columns=("a", "b"), size_bytes=4096)
    assert (catalog.columns_of("t"), catalog.size_of("T")) == (("a", "b"), 4096)
    assert parse_sql("SELECT sum(a) AS s FROM t", catalog).scan().size_bytes == 4096
    catalog.register("t", ["s3://b/other.lpq"])
    assert (catalog.columns_of("t"), catalog.size_of("t")) == ((), 0)
    assert parse_sql("SELECT sum(a) AS s FROM t", catalog).scan().size_bytes == 0


def test_q1_sql_parses_and_matches_plan_builder(catalog):
    plan = parse_sql(q1_sql(), catalog)
    agg = next(node for node in plan.chain() if isinstance(node, AggregateNode))
    assert agg.group_by == ("l_returnflag", "l_linestatus")
    assert len(agg.aggregates) == 8


def test_q6_sql_parses(catalog):
    plan = parse_sql(q6_sql(), catalog)
    agg = next(node for node in plan.chain() if isinstance(node, AggregateNode))
    assert agg.aggregates[0].alias == "revenue"


def test_sql_q1_executes_correctly(driver, dataset, lineitem_table):
    catalog = SqlCatalog({"lineitem": dataset.paths})
    result = driver.execute(parse_sql(q1_sql(), catalog))
    expected = reference_q1(lineitem_table)
    np.testing.assert_allclose(result.column("sum_qty"), expected["sum_qty"], rtol=1e-9)
    np.testing.assert_allclose(result.column("avg_disc"), expected["avg_disc"], rtol=1e-9)


def test_sql_q6_executes_correctly(driver, dataset, lineitem_table):
    catalog = SqlCatalog({"lineitem": dataset.paths})
    result = driver.execute(parse_sql(q6_sql(), catalog))
    assert result.column("revenue")[0] == pytest.approx(
        reference_q6(lineitem_table), rel=1e-9
    )


# ---------------------------------------------------------------------------
# JOIN ... ON parsing
# ---------------------------------------------------------------------------

@pytest.fixture
def join_catalog():
    catalog = SqlCatalog()
    catalog.register("lineitem", ["s3://tpch/lineitem/*.lpq"],
                     columns=["l_orderkey", "l_shipdate", "l_extendedprice"])
    catalog.register("orders", ["s3://tpch/orders/*.lpq"],
                     columns=["o_orderkey", "o_orderdate"])
    return catalog


def _join_of(plan):
    node = plan
    while node is not None and not isinstance(node, JoinNode):
        node = node.child
    assert node is not None, "plan contains no JoinNode"
    return node


def test_join_on_parses_into_join_node(join_catalog):
    plan = parse_sql(
        "SELECT count(*) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
        join_catalog,
    )
    join = _join_of(plan)
    assert join.left_key == "l_orderkey"
    assert join.right_key == "o_orderkey"
    assert join.child.schema_columns == ("l_orderkey", "l_shipdate", "l_extendedprice")
    assert join.right.schema_columns == ("o_orderkey", "o_orderdate")


def test_join_on_qualified_references(join_catalog):
    plan = parse_sql(
        "SELECT count(*) AS n FROM lineitem JOIN orders "
        "ON orders.o_orderkey = lineitem.l_orderkey",
        join_catalog,
    )
    join = _join_of(plan)
    # Qualifiers decide the sides regardless of textual order.
    assert join.left_key == "l_orderkey"
    assert join.right_key == "o_orderkey"


def test_join_keys_resolved_via_catalog_columns(join_catalog):
    plan = parse_sql(
        "SELECT count(*) AS n FROM lineitem JOIN orders ON o_orderkey = l_orderkey",
        join_catalog,
    )
    join = _join_of(plan)
    assert join.left_key == "l_orderkey"
    assert join.right_key == "o_orderkey"


def test_join_where_stays_above_join_for_optimizer_split(join_catalog):
    plan = parse_sql(
        "SELECT count(*) AS n FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE l_shipdate > 9000 AND o_orderdate < 9000",
        join_catalog,
    )
    chain = plan.chain()
    join_index = next(i for i, node in enumerate(chain) if isinstance(node, JoinNode))
    assert isinstance(chain[join_index + 1], FilterNode)

    from repro.plan.optimizer import optimize

    _, report = optimize(plan)
    assert report.left_pushed_predicates == 1
    assert report.right_pushed_predicates == 1
    assert report.residual_predicates == 0


def test_join_condition_same_side_rejected(join_catalog):
    with pytest.raises(SqlSyntaxError):
        parse_sql(
            "SELECT count(*) AS n FROM lineitem JOIN orders "
            "ON lineitem.l_orderkey = lineitem.l_shipdate",
            join_catalog,
        )


def test_join_unknown_qualifier_rejected(join_catalog):
    with pytest.raises(SqlSyntaxError):
        parse_sql(
            "SELECT count(*) AS n FROM lineitem JOIN orders "
            "ON customer.c_custkey = o_orderkey",
            join_catalog,
        )


def test_join_unknown_table_rejected(join_catalog):
    with pytest.raises(SqlSyntaxError):
        parse_sql(
            "SELECT count(*) AS n FROM lineitem JOIN nosuch ON a = b", join_catalog
        )


def test_qualified_columns_in_select_and_where(join_catalog):
    plan = parse_sql(
        "SELECT lineitem.l_orderkey, sum(lineitem.l_extendedprice) AS total "
        "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
        "WHERE orders.o_orderdate < 9000 "
        "GROUP BY lineitem.l_orderkey",
        join_catalog,
    )
    node = plan
    while not isinstance(node, AggregateNode):
        node = node.child
    assert node.group_by == ("l_orderkey",)
