"""An independent answer for the TPC-H queries: stdlib ``sqlite3`` running
each query's own SQL text over the generated tables.

The seven relations of one (scale factor, seed) are generated and loaded into
an in-memory database once per test session.  :func:`run` then executes a
``q*_sql`` string as written, apart from the two places where the mini-SQL
dialect and SQLite's differ — both rewrites live here and nowhere else:

* ``date 'YYYY-MM-DD'`` becomes its day number since 1970-01-01, the date
  encoding of the numeric TPC-H generator (SQLite has no date literal);
* the mini-SQL's trailing ``DESC`` applies to *every* ``ORDER BY`` key, while
  SQL binds it to the last key only, so it is spelled out per key.
"""

from __future__ import annotations

import datetime
import functools
import re
import sqlite3
from typing import Dict

import numpy as np

from repro.workload import tpch

GENERATORS = {
    "lineitem": tpch.LineitemGenerator,
    "orders": tpch.OrdersGenerator,
    "customer": tpch.CustomerGenerator,
    "supplier": tpch.SupplierGenerator,
    "part": tpch.PartGenerator,
    "nation": tpch.NationGenerator,
    "region": tpch.RegionGenerator,
}

_DATE = re.compile(r"date\s*'(\d{4})-(\d{2})-(\d{2})'", re.IGNORECASE)
_ORDER_BY_DESC = re.compile(r"ORDER BY ([\w.]+(?:\s*,\s*[\w.]+)*)\s+DESC\b", re.IGNORECASE)


@functools.lru_cache(maxsize=None)
def tables(scale_factor: float, seed: int) -> Dict[str, Dict[str, np.ndarray]]:
    """The seven generated relations, as the dataset writers store them."""
    return {
        name: generator(scale_factor, seed=seed).generate()
        for name, generator in GENERATORS.items()
    }


@functools.lru_cache(maxsize=None)
def database(scale_factor: float, seed: int) -> sqlite3.Connection:
    """An in-memory SQLite database holding :func:`tables`."""
    connection = sqlite3.connect(":memory:")
    for name, table in tables(scale_factor, seed).items():
        columns = list(table)
        connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        connection.executemany(
            f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
            zip(*(table[column].tolist() for column in columns)),
        )
    return connection


def to_sqlite(text: str) -> str:
    """A mini-SQL statement in SQLite's dialect (the two rewrites above)."""
    text = _DATE.sub(
        lambda match: str(
            (datetime.date(*map(int, match.groups())) - datetime.date(1970, 1, 1)).days
        ),
        text,
    )
    return _ORDER_BY_DESC.sub(
        lambda match: "ORDER BY "
        + ", ".join(f"{key.strip()} DESC" for key in match.group(1).split(",")),
        text,
    )


def run(text: str, scale_factor: float, seed: int) -> Dict[str, np.ndarray]:
    """The statement's result as ``{column: float64 array}``."""
    cursor = database(scale_factor, seed).execute(to_sqlite(text))
    names = [description[0] for description in cursor.description]
    rows = cursor.fetchall()
    return {
        name: np.array([row[index] for row in rows], dtype=np.float64)
        for index, name in enumerate(names)
    }
