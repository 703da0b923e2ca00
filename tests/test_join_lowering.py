"""One join lowering: a single join is the one-stage case of the DAG pipeline.

``golden_join_lowering.json`` holds, per case, the lowered plan of a query
with one join as the binary join lowering produced it before that lowering
was folded into the DAG pipeline (its plan taken in the equivalent one-stage
DAG form): ``repr()``, ``explain()``, ``waves()`` and the optimizer report's
push-down fields.  The pipeline must reproduce every one of them exactly.

Three behaviours a single join gained by taking the DAG path, each the one
N >= 2 joins already had, are pinned here and in ``test_join_e2e.py``:

* grouping by the build-side key answers (``test_join_e2e.py``);
* with unknown schemas the build key is restored, so a row-collecting join
  also returns it, equal to the probe key;
* a right relation with strictly more files becomes the probe base.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.frontend.sql import SqlCatalog, parse_sql
from repro.plan.logical import JoinNode, ScanNode
from repro.plan.optimizer import optimize
from repro.plan.physical import DagPhysicalPlan
from repro.workload.queries import (
    q3_sql,
    q12_sql,
    q14_sql,
    reference_q12,
    tpch_catalog,
)
from repro.workload.tpch import (
    LINEITEM_SCHEMA,
    ORDERS_SCHEMA,
    PART_SCHEMA,
    OrdersGenerator,
    generate_orders_dataset,
)

GOLDEN = Path(__file__).with_name("golden_join_lowering.json")

LINEITEM = [f"s3://tpch/lineitem/part-{index:05d}.lpq" for index in range(8)]
ORDERS = [f"s3://tpch/orders/part-{index:05d}.lpq" for index in range(4)]
PART = ["s3://tpch/part/part-00000.lpq"]

ROWS_SQL = (
    "SELECT o_orderpriority FROM lineitem JOIN orders "
    "ON l_orderkey = o_orderkey WHERE l_shipdate > 10500"
)


def _catalog(orders_files=ORDERS) -> SqlCatalog:
    catalog = SqlCatalog()
    catalog.register("lineitem", LINEITEM, columns=LINEITEM_SCHEMA.names,
                     size_bytes=4_000_000)
    catalog.register("orders", orders_files, columns=ORDERS_SCHEMA.names,
                     size_bytes=1_000_000)
    catalog.register("part", PART, columns=PART_SCHEMA.names, size_bytes=200_000)
    return catalog


#: case -> logical plan builder; every plan has exactly one join.
CASES = {
    "q3_sql": lambda: parse_sql(q3_sql(), _catalog()),
    "q12_sql": lambda: parse_sql(q12_sql(), _catalog()),
    "q14_sql": lambda: parse_sql(q14_sql(), _catalog()),
    # Schema columns but no sizes: the fan-out falls back to one join
    # worker per file of the largest fleet.
    "q3_sql_unsized": lambda: parse_sql(
        q3_sql(), tpch_catalog(lineitem=LINEITEM, orders=ORDERS)
    ),
    "q12_sql_unsized": lambda: parse_sql(
        q12_sql(), tpch_catalog(lineitem=LINEITEM, orders=ORDERS)
    ),
    "q14_sql_unsized": lambda: parse_sql(q14_sql(), tpch_catalog(lineitem=LINEITEM, part=PART)),
    "q3_sql_file_count_tie": lambda: parse_sql(
        q3_sql(), _catalog([path.replace("lineitem", "orders") for path in LINEITEM])
    ),
    "rows_sql": lambda: parse_sql(ROWS_SQL, _catalog()),
}


def lowering_record(physical, report) -> dict:
    """What a golden pins of one lowered plan (JSON-shaped)."""
    return json.loads(json.dumps({
        "repr": repr(physical),
        "explain": physical.explain(),
        "waves": physical.waves(),
        "report": {
            "pushed_columns": report.pushed_columns,
            "read_all_columns": report.read_all_columns,
            "prune_ranges": repr(report.prune_ranges),
            "partial_aggregates": report.partial_aggregates,
            "join_keys": report.join_keys,
            "left_pushed_predicates": report.left_pushed_predicates,
            "right_pushed_predicates": report.right_pushed_predicates,
            "residual_predicates": report.residual_predicates,
        },
    }))


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_join_lowering_reproduces_the_golden(case):
    physical, report = optimize(CASES[case]())
    assert isinstance(physical, DagPhysicalPlan) and len(physical.stages) == 1
    assert report.dag_stages == 1
    assert lowering_record(physical, report) == json.loads(GOLDEN.read_text())[case]


def test_report_describes_a_single_join_as_one_stage():
    _, report = optimize(CASES["q3_sql"]())
    assert report.describe().splitlines()[0] == "join order: lineitem -> orders (1 stage)"
    assert "join on" not in report.describe()


# -- (b) unknown schemas restore the build key --------------------------------------------


@pytest.fixture
def orders_dataset(env):
    return generate_orders_dataset(
        env.s3, scale_factor=0.001, num_files=3, row_group_rows=512, seed=7
    )


def test_unknown_schemas_restore_the_build_key(driver, dataset, orders_dataset,
                                                lineitem_table):
    plan = JoinNode(
        child=ScanNode(paths=tuple(dataset.paths)),
        right=ScanNode(paths=tuple(orders_dataset.paths)),
        left_key="l_orderkey",
        right_key="o_orderkey",
    )
    physical, report = optimize(plan)
    (stage,) = physical.stages
    assert stage.restore_right_key and report.read_all_columns
    assert physical.base.files == list(dataset.paths)  # syntactic order

    result = driver.execute(plan)
    orders = OrdersGenerator(scale_factor=0.001, seed=7).generate()
    expected = int(np.isin(lineitem_table["l_orderkey"], orders["o_orderkey"]).sum())
    assert result.num_rows == expected
    np.testing.assert_array_equal(result.table["o_orderkey"], result.table["l_orderkey"])
    assert "o_totalprice" in result.table


# -- (c) the relation with strictly more files is the probe base -------------------------


def test_right_relation_with_more_files_becomes_the_probe_base(
    driver, dataset, orders_dataset, lineitem_table
):
    catalog = SqlCatalog()
    catalog.register_dataset(dataset)
    catalog.register_dataset(orders_dataset)
    assert len(dataset.paths) > len(orders_dataset.paths)
    swapped = q12_sql().replace(
        "FROM lineitem JOIN orders ON lineitem.l_orderkey = orders.o_orderkey",
        "FROM orders JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey",
    )
    assert swapped != q12_sql()
    plan = parse_sql(swapped, catalog)

    physical, report = optimize(plan)
    assert physical.base.files == list(dataset.paths)
    assert (physical.stages[0].left_key, physical.stages[0].right.key) == (
        "l_orderkey", "o_orderkey",
    )
    assert report.describe().splitlines()[0] == "join order: lineitem -> orders (1 stage)"

    result = driver.execute(plan)
    reference = reference_q12(
        lineitem_table, OrdersGenerator(scale_factor=0.001, seed=7).generate()
    )
    assert sorted(result.table) == sorted(reference)
    for name, column in reference.items():
        np.testing.assert_array_equal(
            np.asarray(result.table[name], dtype=np.float64),
            np.asarray(column, dtype=np.float64),
            err_msg=name,
        )
