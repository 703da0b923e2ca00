"""All ten TPC-H queries against an independent oracle: stdlib ``sqlite3``.

Each query is defined once, as its ``q*_sql`` text.  ``tests/oracle.py``
runs that same text in SQLite over the generated tables (with the two
dialect rewrites it documents), and this suite holds two things to it at
two scale factors:

* ``Session.sql`` — the whole serverless path: parse, optimize, scan and
  join waves, driver merge;
* every NumPy ``reference_q*`` — the answers the end-to-end benchmark
  checks its runs against.

Comparison is exact (as float64), except for the sums of non-integer
measures in Q1/Q3/Q6/Q14: the engine adds them in another order than
SQLite does, so they match at ``rtol=1e-9``.  The five join-DAG queries
measure in integer-valued basis points, so they are exact throughout.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.workload import queries as q
from repro.workload import tpch
from tests import oracle

SCALE_FACTORS = (0.002, 0.01)
SEED = 7

#: query -> (SQL text, NumPy reference, the reference's tables in order)
QUERIES = {
    "q1": (q.q1_sql, q.reference_q1, ("lineitem",)),
    "q3": (q.q3_sql, q.reference_q3, ("lineitem", "orders")),
    "q5": (q.q5_sql, q.reference_q5,
           ("lineitem", "orders", "customer", "supplier", "nation", "region")),
    "q6": (q.q6_sql, q.reference_q6, ("lineitem",)),
    "q7": (q.q7_sql, q.reference_q7, ("lineitem", "orders", "customer", "supplier")),
    "q9": (q.q9_sql, q.reference_q9, ("lineitem", "part", "supplier", "orders", "nation")),
    "q10": (q.q10_sql, q.reference_q10, ("lineitem", "orders", "customer", "nation")),
    "q12": (q.q12_sql, q.reference_q12, ("lineitem", "orders")),
    "q14": (q.q14_sql, q.reference_q14, ("lineitem", "part")),
    "q18": (q.q18_sql, q.reference_q18, ("lineitem", "orders", "customer")),
}

#: Columns summed (or averaged) over non-integer measures: order-dependent.
FLOAT_SUMS = {
    "q1": ("sum_base_price", "sum_disc_price", "sum_charge", "avg_price", "avg_disc"),
    "q3": ("revenue",),
    "q6": ("revenue",),
    "q14": ("revenue",),
}


def assert_matches(query: str, actual: dict, expected: dict, label: str) -> None:
    assert sorted(actual) == sorted(expected), label
    for name, column in expected.items():
        got = np.asarray(actual[name], dtype=np.float64)
        if name in FLOAT_SUMS.get(query, ()):
            np.testing.assert_allclose(got, column, rtol=1e-9, err_msg=f"{label}: {name}")
        else:
            np.testing.assert_array_equal(got, column, err_msg=f"{label}: {name}")


@pytest.fixture(scope="module", params=SCALE_FACTORS, ids=lambda sf: f"sf{sf}")
def session(request):
    """A session over all seven relations at one scale factor."""
    env = repro.CloudEnvironment.create()
    session = repro.connect(env)
    for name in oracle.GENERATORS:
        generate = getattr(tpch, f"generate_{name}_dataset")
        session.register(generate(env.s3, scale_factor=request.param, seed=SEED))
    yield request.param, session
    session.close()


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_session_sql_matches_sqlite(session, query):
    scale_factor, facade = session
    text = QUERIES[query][0]()
    expected = oracle.run(text, scale_factor, SEED)
    assert len(next(iter(expected.values()))) > 0, "the oracle returned no rows"
    assert_matches(query, facade.sql(text).table, expected, f"{query}@{scale_factor}")


@pytest.mark.parametrize("scale_factor", SCALE_FACTORS, ids=lambda sf: f"sf{sf}")
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_reference_matches_sqlite(query, scale_factor):
    sql, reference, names = QUERIES[query]
    tables = oracle.tables(scale_factor, SEED)
    result = reference(*(tables[name] for name in names))
    if not isinstance(result, dict):  # Q6's reference returns the scalar
        result = {"revenue": np.array([result])}
    expected = oracle.run(sql(), scale_factor, SEED)
    assert_matches(query, result, expected, f"reference {query}@{scale_factor}")


@pytest.mark.parametrize("query", ["q3", "q5", "q10", "q18"])
def test_trailing_desc_is_spelled_out_for_every_key(query):
    """SQLite binds ``DESC`` to the last key only: unrewritten, these four
    queries return other rows, so the rewrite is what makes the oracle agree."""
    text = QUERIES[query][0]()
    rewritten = oracle.to_sqlite(text)
    keys = text.split("ORDER BY ")[1].split(" DESC")[0].split(", ")
    assert f"ORDER BY {' DESC, '.join(keys)} DESC" in rewritten
    literal = oracle.database(SCALE_FACTORS[0], SEED).execute(text).fetchall()
    assert literal != oracle.database(SCALE_FACTORS[0], SEED).execute(rewritten).fetchall()


def test_date_literal_becomes_its_day_number():
    rewritten = oracle.to_sqlite(q.q14_sql())
    assert "date '" not in rewritten
    assert f">= {q.Q14_SHIPDATE_LOWER_DAYS} " in rewritten
    assert f"< {q.Q14_SHIPDATE_UPPER_DAYS} " in rewritten


def test_count_star_reads_one_column_of_the_relation(monkeypatch):
    """``count(*)`` reads no column's values, but a scan of no columns would
    read every column: it names the relation's first one instead."""
    from repro.formats.parquet import ColumnarFile

    env = repro.CloudEnvironment.create()
    session = repro.connect(env)
    session.register(
        tpch.generate_lineitem_dataset(env.s3, scale_factor=0.002, num_files=2, seed=SEED)
    )
    read = ColumnarFile.read_encoded_chunk
    columns = []

    def counting(self, group, column):
        columns.append(column)
        return read(self, group, column)

    monkeypatch.setattr(ColumnarFile, "read_encoded_chunk", counting)
    text = "SELECT count(*) AS n FROM lineitem"
    result = session.sql(text)
    session.close()
    assert set(columns) == {"l_orderkey"}
    # One page per row group of the two files, not one per column (82).
    assert len(columns) == 6
    np.testing.assert_array_equal(
        np.asarray(result.table["n"], dtype=np.float64), oracle.run(text, 0.002, SEED)["n"]
    )
