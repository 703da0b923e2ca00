"""Python dataflow frontend (the paper's Listing 1).

A :class:`DataFlow` is an immutable description of a query; every method
returns a new dataflow with one more logical operator.  Dataflows can be
built either against expressions (``col("l_discount") >= 0.05``), which the
optimizer can push down and prune with, or against opaque Python lambdas over
record tuples (``lambda x: x[1] >= 0.05``), mirroring the UDF interface of the
paper — those are shipped to the workers by reference (the "dependency
layer").

A :class:`LambadaSession` binds dataflows to a driver so that
``.collect()`` / ``.reduce(...).collect()`` execute on the serverless fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.driver.driver import LambadaDriver, QueryResult
from repro.errors import InvalidPlanError
from repro.plan.expressions import Expression
from repro.plan.logical import (
    AggregateNode,
    AggregateSpec,
    FilterNode,
    LimitNode,
    LogicalPlan,
    MapNode,
    OrderByNode,
    ProjectNode,
    ScanNode,
)
from repro.plan.optimizer import optimize
from repro.plan.physical import DagPhysicalPlan, register_udf


def from_files(paths: Union[str, Sequence[str]]) -> "DataFlow":
    """Start a dataflow from columnar files (accepts a glob pattern)."""
    if isinstance(paths, str):
        paths = (paths,)
    return DataFlow(plan=ScanNode(paths=tuple(paths)))


@dataclass(frozen=True)
class DataFlow:
    """An immutable, composable query description."""

    plan: LogicalPlan
    session: Optional["LambadaSession"] = None
    #: A pending UDF reduce (set by :meth:`reduce`, applied at execution).
    _reduce_udf: Optional[Callable] = None

    # -- transformations ---------------------------------------------------------

    def filter(self, predicate: Union[Expression, Callable]) -> "DataFlow":
        """Keep rows satisfying ``predicate`` (expression or record lambda)."""
        if isinstance(predicate, Expression):
            node = FilterNode(child=self.plan, predicate=predicate)
        elif callable(predicate):
            node = FilterNode(child=self.plan, udf=predicate)
        else:
            raise InvalidPlanError("filter takes an expression or a callable")
        return replace(self, plan=node)

    def map(self, mapping: Union[Callable, Dict[str, Expression]], replace_columns: bool = True) -> "DataFlow":
        """Compute new columns.

        ``mapping`` is either a record lambda producing a single value (the
        paper's ``map(lambda x: x[1] * x[2])``) or a dict of
        ``alias -> expression``.
        """
        if callable(mapping):
            node = MapNode(child=self.plan, outputs=(), udf=mapping, replace=replace_columns)
        elif isinstance(mapping, dict):
            node = MapNode(
                child=self.plan,
                outputs=tuple(mapping.items()),
                replace=replace_columns,
            )
        else:
            raise InvalidPlanError("map takes a callable or a dict of expressions")
        return replace(self, plan=node)

    def select(self, *columns: str) -> "DataFlow":
        """Keep only the given columns."""
        return replace(self, plan=ProjectNode(child=self.plan, columns=tuple(columns)))

    def group_by(self, *keys: str) -> "GroupedDataFlow":
        """Group by key columns; follow with :meth:`GroupedDataFlow.agg`."""
        return GroupedDataFlow(parent=self, keys=tuple(keys))

    # -- aggregations ----------------------------------------------------------------

    def _scalar_aggregate(self, function: str, expression: Optional[Expression], alias: str) -> "DataFlow":
        node = AggregateNode(
            child=self.plan,
            group_by=(),
            aggregates=(AggregateSpec(function, expression, alias),),
        )
        return replace(self, plan=node)

    def sum(self, expression: Expression, alias: str = "sum") -> "DataFlow":
        """Scalar sum aggregate."""
        return self._scalar_aggregate("sum", expression, alias)

    def count(self, alias: str = "count") -> "DataFlow":
        """Scalar row count."""
        return self._scalar_aggregate("count", None, alias)

    def min(self, expression: Expression, alias: str = "min") -> "DataFlow":
        """Scalar minimum."""
        return self._scalar_aggregate("min", expression, alias)

    def max(self, expression: Expression, alias: str = "max") -> "DataFlow":
        """Scalar maximum."""
        return self._scalar_aggregate("max", expression, alias)

    def avg(self, expression: Expression, alias: str = "avg") -> "DataFlow":
        """Scalar average."""
        return self._scalar_aggregate("avg", expression, alias)

    def reduce(self, function: Callable) -> "DataFlow":
        """Fold all values with an associative binary Python function.

        Follows the paper's Listing 1: the values being folded are the output
        of the preceding :meth:`map`.  Workers fold their own values and the
        driver folds the per-worker partials, so ``function`` must be
        associative.
        """
        return replace(self, _reduce_udf=function)

    # -- result shaping ------------------------------------------------------------------

    def order_by(self, *keys: str, descending: bool = False) -> "DataFlow":
        """Sort the (small) result on the driver."""
        return replace(self, plan=OrderByNode(child=self.plan, keys=tuple(keys), descending=descending))

    def limit(self, count: int) -> "DataFlow":
        """Keep only the first ``count`` result rows."""
        return replace(self, plan=LimitNode(child=self.plan, count=count))

    # -- planning and execution ------------------------------------------------------------

    def logical_plan(self) -> LogicalPlan:
        """The logical plan built so far."""
        return self.plan

    def physical_plan(self) -> DagPhysicalPlan:
        """Optimize into a physical plan (including a pending UDF reduce)."""
        physical, _ = optimize(self.plan)
        if self._reduce_udf is not None:
            physical.base.reduce_udf = register_udf(self._reduce_udf)
            physical.driver.collect_rows = False
        return physical

    def explain(self) -> str:
        """Human-readable description of the logical plan."""
        return self.plan.describe()

    def bind(self, session: "LambadaSession") -> "DataFlow":
        """Attach a session so that :meth:`collect` can execute the query."""
        return replace(self, session=session)

    def collect(self, **execute_kwargs) -> QueryResult:
        """Execute on the bound session's driver and return the result."""
        if self.session is None:
            raise InvalidPlanError(
                "dataflow is not bound to a session; use session.from_parquet(...) "
                "or .bind(session)"
            )
        return self.session.driver.execute(self.physical_plan(), **execute_kwargs)


@dataclass(frozen=True)
class GroupedDataFlow:
    """A dataflow with pending group-by keys."""

    parent: DataFlow
    keys: Tuple[str, ...]

    def agg(self, *specs: Tuple[str, Optional[Expression], str]) -> DataFlow:
        """Aggregate the groups.

        Each spec is a ``(function, expression, alias)`` tuple, e.g.
        ``("sum", col("l_quantity"), "sum_qty")``.
        """
        aggregates = tuple(AggregateSpec(function, expression, alias) for function, expression, alias in specs)
        node = AggregateNode(child=self.parent.plan, group_by=self.keys, aggregates=aggregates)
        return replace(self.parent, plan=node)


class LambadaSession:
    """Binds the dataflow frontend to a driver (and thus a cloud environment)."""

    def __init__(self, driver: LambadaDriver):
        self.driver = driver

    def from_parquet(self, paths: Union[str, Sequence[str]]) -> DataFlow:
        """Start a dataflow over columnar files, bound to this session."""
        return from_files(paths).bind(self)

    def sql(self, statement: str, catalog: Optional[Dict[str, Sequence[str]]] = None) -> DataFlow:
        """Parse a SQL statement into a bound dataflow."""
        from repro.frontend.sql import SqlCatalog, parse_sql

        plan = parse_sql(statement, SqlCatalog(catalog or {}))
        return DataFlow(plan=plan, session=self)
