"""The five workloads: what each runs, at what size, and why it is there.

A workload is set up from a seed alone (:func:`set_up`) and then runs
*sweeps*: one ordered pass over its queries, warm functions, fault-free,
one client waiting for each answer.  Everything goes through the system's
public surface — ``repro.connect`` → ``Session.register/sql`` →
``QueryResult.table/statistics``, the ``repro.workload`` generators,
``q*_sql()``/``reference_q*``, and ``ShuffleAggregateCoordinator.execute``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import col
from repro.driver.shuffle import ShuffleAggregateCoordinator
from repro.plan.logical import AggregateSpec
from repro.workload import queries as q
from repro.workload import tpch

Table = Dict[str, np.ndarray]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (sizes sized for ~0.1-0.2 s sweeps on 2 cores)."""

    name: str
    why: str
    scale_factor: float
    lineitem_files: int
    #: SQL query names from :data:`SQL_QUERIES`, or the group-by keys of the
    #: ``ShuffleAggregateCoordinator`` workload.
    queries: Tuple[str, ...]
    #: ``serial`` / ``processes`` for SQL workloads; ``coordinator`` drives
    #: ``ShuffleAggregateCoordinator`` directly.
    mode: str = "serial"


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "scan_agg",
        "LINEITEM SF 0.05, Q1+Q6, serial: formats decode + engine scan/aggregate do ~90 % "
        "of the work and exchange does none; control for every shuffle change",
        scale_factor=0.05, lineitem_files=8, queries=("q1", "q6"),
    ),
    Workload(
        "scan_agg_procs",
        "same data and queries through the process pool (size min(2, nproc)) and its "
        "shared-memory plane: the other dispatch path and the multi-core wall number",
        scale_factor=0.05, lineitem_files=8, queries=("q1", "q6"), mode="processes",
    ),
    Workload(
        "join_dag",
        "SF 0.01, Q3 (binary shuffle join) + Q5 (5-stage DAG, 58 workers): exchange "
        "partition/encode/decode + engine.join + wave handlers; stage count sets modelled latency",
        scale_factor=0.01, lineitem_files=8, queries=("q3", "q5"),
    ),
    Workload(
        "groupby_shuffle",
        "LINEITEM SF 0.015 via ShuffleAggregateCoordinator: group by l_orderkey (MBs through "
        "the exchange) then l_suppkey (KBs); aggregation repartition instead of a join",
        scale_factor=0.015, lineitem_files=8, queries=("l_orderkey", "l_suppkey"),
        mode="coordinator",
    ),
    Workload(
        "fixed_overhead",
        "SF 0.002, all ten TPC-H queries, serial: data is negligible, so per-query and "
        "per-worker fixed cost (dispatch, handler glue, simulated cloud calls) dominates",
        scale_factor=0.002, lineitem_files=4,
        queries=("q1", "q3", "q5", "q6", "q7", "q9", "q10", "q12", "q14", "q18"),
    ),
)

BY_NAME: Dict[str, Workload] = {workload.name: workload for workload in WORKLOADS}

#: relation -> (dataset writer, generator class)
RELATIONS = {
    "lineitem": (tpch.generate_lineitem_dataset, tpch.LineitemGenerator),
    "orders": (tpch.generate_orders_dataset, tpch.OrdersGenerator),
    "customer": (tpch.generate_customer_dataset, tpch.CustomerGenerator),
    "supplier": (tpch.generate_supplier_dataset, tpch.SupplierGenerator),
    "part": (tpch.generate_part_dataset, tpch.PartGenerator),
    "nation": (tpch.generate_nation_dataset, tpch.NationGenerator),
    "region": (tpch.generate_region_dataset, tpch.RegionGenerator),
}

#: query -> (SQL text, reference function, its relations in argument order,
#: bit-identical?).  The DAG queries' measures are integer-valued in float64,
#: so summation order cannot show; the price measures of the others move by
#: ULPs with partial-aggregate merge order and are held to rtol=1e-9.
SQL_QUERIES: Dict[str, Tuple[Callable[[], str], Callable[..., object], Tuple[str, ...], bool]] = {
    "q1": (q.q1_sql, q.reference_q1, ("lineitem",), False),
    "q3": (q.q3_sql, q.reference_q3, ("lineitem", "orders"), False),
    "q5": (q.q5_sql, q.reference_q5,
           ("lineitem", "orders", "customer", "supplier", "nation", "region"), True),
    "q6": (q.q6_sql, q.reference_q6, ("lineitem",), False),
    "q7": (q.q7_sql, q.reference_q7, ("lineitem", "orders", "customer", "supplier"), True),
    "q9": (q.q9_sql, q.reference_q9,
           ("lineitem", "part", "supplier", "orders", "nation"), True),
    "q10": (q.q10_sql, q.reference_q10, ("lineitem", "orders", "customer", "nation"), True),
    "q12": (q.q12_sql, q.reference_q12, ("lineitem", "orders"), False),
    "q14": (q.q14_sql, q.reference_q14, ("lineitem", "part"), False),
    "q18": (q.q18_sql, q.reference_q18, ("lineitem", "orders", "customer"), True),
}

GROUPBY_AGGREGATES = (
    AggregateSpec("sum", col("l_extendedprice") * (1 - col("l_discount")), "revenue"),
    AggregateSpec("count", None, "items"),
)


def pool_size() -> int:
    """Process-pool size of ``scan_agg_procs``: never more workers than cores."""
    return min(2, os.cpu_count() or 1)


def tables_match(reference: Table, table: Table, exact: bool) -> bool:
    """Whether an engine result equals its NumPy reference."""
    if set(reference) != set(table):
        return False
    for name, expected in reference.items():
        actual, expected = np.asarray(table[name]), np.asarray(expected)
        if actual.shape != expected.shape:
            return False
        if exact or expected.dtype.kind != "f":
            if not np.array_equal(actual, expected, equal_nan=True):
                return False
        elif not np.allclose(actual, expected, rtol=1e-9, equal_nan=True):
            return False
    return True


def _groupby_reference(lineitem: Table, key: str) -> Table:
    keys, inverse = np.unique(lineitem[key], return_inverse=True)
    revenue = lineitem["l_extendedprice"] * (1 - lineitem["l_discount"])
    return {
        key: keys,
        "revenue": np.bincount(inverse, weights=revenue, minlength=len(keys)),
        "items": np.bincount(inverse, minlength=len(keys)),
    }


class QueryFailed(Exception):
    """A query raised instead of answering; the message names it."""


@dataclass
class Answer:
    """What one query execution returned: the table and its public statistics."""

    query: str
    table: Table
    statistics: object


class Instance:
    """A set-up workload: data written, session open, references computed."""

    def __init__(self, workload: Workload, seed: int, scale: float = 1.0):
        self.workload = workload
        scale_factor = workload.scale_factor * scale
        if workload.mode == "coordinator":
            relations: Tuple[str, ...] = ("lineitem",)
        else:
            relations = tuple(dict.fromkeys(
                relation for name in workload.queries for relation in SQL_QUERIES[name][2]
            ))
        self.env = repro.CloudEnvironment.create()
        self.session: Optional[repro.Session] = None
        self.degraded: Optional[str] = None
        datasets = {}
        tables: Dict[str, Table] = {}
        for relation in relations:
            write, generator = RELATIONS[relation]
            files = {}
            if relation == "lineitem":
                files = {"num_files": workload.lineitem_files}
            elif relation == "orders":
                files = {"num_files": max(2, workload.lineitem_files // 2)}
            datasets[relation] = write(
                self.env.s3, scale_factor=scale_factor, seed=seed, **files
            )
            tables[relation] = generator(scale_factor, seed=seed).generate()

        self._runners: List[Tuple[str, Callable[[], Answer]]] = []
        self._references: Dict[str, Tuple[Table, bool]] = {}
        if workload.mode == "coordinator":
            coordinator = ShuffleAggregateCoordinator(
                self.env, memory_mib=2048, num_buckets=8
            )
            paths = datasets["lineitem"].paths
            for key in workload.queries:
                self._references[key] = (_groupby_reference(tables["lineitem"], key), False)
                self._runners.append((key, self._groupby_runner(coordinator, paths, key)))
        else:
            driver_kwargs = {"execution_mode": workload.mode}
            if workload.mode == "processes":
                if pool_size() < 2:
                    # The driver falls back to serial dispatch on its own.
                    self.degraded = "single_core"
                else:
                    driver_kwargs["max_parallel_invocations"] = pool_size()
            self.session = repro.connect(self.env, **driver_kwargs)
            for dataset in datasets.values():
                self.session.register(dataset)
            for name in workload.queries:
                sql, reference, arguments, exact = SQL_QUERIES[name]
                expected = reference(*(tables[relation] for relation in arguments))
                if not isinstance(expected, dict):  # Q6's reference is the scalar
                    expected = {"revenue": np.asarray([expected])}
                self._references[name] = (expected, exact)
                self._runners.append((name, self._sql_runner(name, sql())))

    def _sql_runner(self, name: str, text: str) -> Callable[[], Answer]:
        def run() -> Answer:
            result = self.session.sql(text)
            return Answer(name, result.table, result.statistics)

        return run

    @staticmethod
    def _groupby_runner(coordinator, paths, key: str) -> Callable[[], Answer]:
        def run() -> Answer:
            table, statistics = coordinator.execute(
                paths, group_by=[key], aggregates=list(GROUPBY_AGGREGATES), order_by=[key]
            )
            return Answer(key, table, statistics)

        return run

    @property
    def queries_per_sweep(self) -> int:
        return len(self._runners)

    def sweep(self) -> List[Answer]:
        """One ordered pass over the workload's queries."""
        answers = []
        for name, run in self._runners:
            try:
                answers.append(run())
            except Exception as error:
                raise QueryFailed(f"{self.workload.name}/{name} raised {error!r}") from error
        return answers

    def wrong(self, answers: List[Answer]) -> List[str]:
        """Names of the queries whose answer does not match its reference."""
        mismatching = []
        for answer in answers:
            reference, exact = self._references[answer.query]
            if not tables_match(reference, answer.table, exact):
                mismatching.append(answer.query)
        return mismatching

    def close(self) -> None:
        """Stop the process pool (if any) and wait for its children."""
        if self.session is not None:
            self.session.close()


def set_up(workload: Workload, seed: int, scale: float = 1.0) -> Tuple[Instance, List[str]]:
    """Full set-up — data, references, session, one checked warm-up sweep.

    Returns the instance and the names of warm-up queries that were wrong.
    """
    instance = Instance(workload, seed, scale)
    try:
        return instance, instance.wrong(instance.sweep())
    except BaseException:
        instance.close()
        raise
