"""Logical query plan.

A logical plan is a linear chain (with the exception of joins) of nodes, each
holding a reference to its input.  The frontend builds these nodes; the
optimizer rewrites them; the physical planner lowers them into worker and
driver fragments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import InvalidPlanError, PlanError
from repro.plan.expressions import Expression, expression_from_dict, expression_to_dict

#: Aggregate functions supported by the engine.
AGGREGATE_FUNCTIONS = ("sum", "count", "min", "max", "avg")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in an :class:`AggregateNode`.

    ``function`` is one of :data:`AGGREGATE_FUNCTIONS`; ``expression`` is the
    argument (``None`` only for ``count``); ``alias`` names the output column.
    """

    function: str
    expression: Optional[Expression]
    alias: str

    def __post_init__(self):
        if self.function not in AGGREGATE_FUNCTIONS:
            raise PlanError(f"unknown aggregate function {self.function!r}")
        if self.expression is None and self.function != "count":
            raise PlanError(f"aggregate {self.function!r} requires an argument")

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        return {
            "function": self.function,
            "expression": expression_to_dict(self.expression),
            "alias": self.alias,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AggregateSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            function=data["function"],
            expression=expression_from_dict(data["expression"]),
            alias=data["alias"],
        )


class LogicalPlan:
    """Base class of logical plan nodes."""

    #: The input node, or ``None`` for leaf nodes (scans).
    child: Optional["LogicalPlan"] = None

    def chain(self) -> List["LogicalPlan"]:
        """The chain of nodes from the leaf scan to this node, in order."""
        nodes: List[LogicalPlan] = []
        node: Optional[LogicalPlan] = self
        while node is not None:
            nodes.append(node)
            node = node.child
        nodes.reverse()
        return nodes

    def scan(self) -> "ScanNode":
        """The leaf scan node of this plan."""
        leaf = self.chain()[0]
        if not isinstance(leaf, ScanNode):
            raise InvalidPlanError("plan does not start with a scan")
        return leaf

    def describe(self) -> str:
        """Multi-line human-readable description of the plan."""
        lines = []
        for depth, node in enumerate(self.chain()):
            lines.append("  " * depth + repr(node))
        return "\n".join(lines)


@dataclass(repr=True)
class ScanNode(LogicalPlan):
    """Scan of a dataset stored as columnar files on the object store.

    ``schema_columns`` is an optional hint naming the columns of the scanned
    relation.  Single-table plans never need it; the join optimizer uses it
    to decide which side of a join owns a referenced column (per-side
    predicate push-down and projection push-down).  An empty tuple means the
    schema is unknown.  ``size_bytes`` is the same kind of hint for the
    relation's stored size (all files, all columns): the shuffle coordinator
    prices its exchange fan-out from it.  ``0`` means the size is unknown.
    """

    paths: Tuple[str, ...]
    format: str = "lpq"
    child: Optional[LogicalPlan] = None
    schema_columns: Tuple[str, ...] = ()
    size_bytes: int = 0

    def __post_init__(self):
        if not self.paths:
            raise InvalidPlanError("scan requires at least one path or glob pattern")
        if self.format not in ("lpq", "csv"):
            raise InvalidPlanError(f"unsupported scan format {self.format!r}")
        if self.child is not None:
            raise InvalidPlanError("scan is a leaf node and cannot have a child")

    def __repr__(self) -> str:
        shown = list(self.paths[:2]) + (["..."] if len(self.paths) > 2 else [])
        return f"Scan({shown}, format={self.format})"


@dataclass(repr=True)
class FilterNode(LogicalPlan):
    """Row filter by a boolean expression or a Python predicate UDF."""

    child: LogicalPlan
    predicate: Optional[Expression] = None
    udf: Optional[Callable] = None

    def __post_init__(self):
        if (self.predicate is None) == (self.udf is None):
            raise InvalidPlanError("filter requires exactly one of predicate or udf")

    def __repr__(self) -> str:
        body = self.predicate if self.predicate is not None else f"udf:{self.udf}"
        return f"Filter({body!r})"


@dataclass(repr=True)
class ProjectNode(LogicalPlan):
    """Column projection (keep a subset of columns)."""

    child: LogicalPlan
    columns: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.columns:
            raise InvalidPlanError("projection requires at least one column")

    def __repr__(self) -> str:
        return f"Project({list(self.columns)})"


@dataclass(repr=True)
class MapNode(LogicalPlan):
    """Computed columns: each output column is an expression or a UDF."""

    child: LogicalPlan
    outputs: Tuple[Tuple[str, Expression], ...] = ()
    udf: Optional[Callable] = None
    #: When set, only the computed columns are kept (the frontend ``map``).
    replace: bool = True

    def __post_init__(self):
        if not self.outputs and self.udf is None:
            raise InvalidPlanError("map requires output expressions or a udf")

    def __repr__(self) -> str:
        names = [name for name, _ in self.outputs]
        return f"Map({names}, replace={self.replace})"


@dataclass(repr=True)
class AggregateNode(LogicalPlan):
    """Grouped or scalar aggregation."""

    child: LogicalPlan
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[AggregateSpec, ...] = ()

    def __post_init__(self):
        if not self.aggregates:
            raise InvalidPlanError("aggregation requires at least one aggregate")
        aliases = [spec.alias for spec in self.aggregates]
        if len(set(aliases)) != len(aliases):
            raise InvalidPlanError(f"duplicate aggregate aliases: {aliases}")

    def __repr__(self) -> str:
        aggs = [f"{spec.function}({spec.expression!r}) as {spec.alias}" for spec in self.aggregates]
        return f"Aggregate(group_by={list(self.group_by)}, aggs={aggs})"


@dataclass(repr=True)
class OrderByNode(LogicalPlan):
    """Sort the (small, post-aggregation) result on the driver."""

    child: LogicalPlan
    keys: Tuple[str, ...] = ()
    descending: bool = False

    def __post_init__(self):
        if not self.keys:
            raise InvalidPlanError("order by requires at least one key")

    def __repr__(self) -> str:
        return f"OrderBy({list(self.keys)}, descending={self.descending})"


@dataclass(repr=True)
class LimitNode(LogicalPlan):
    """Keep only the first ``count`` result rows (driver side)."""

    child: LogicalPlan
    count: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise InvalidPlanError("limit must be non-negative")

    def __repr__(self) -> str:
        return f"Limit({self.count})"


@dataclass(repr=True)
class JoinNode(LogicalPlan):
    """Hash equi-join of two plans on a pair of key columns.

    The build side is repartitioned with the serverless exchange operator so
    that matching keys meet on the same worker.  Joins are not part of the
    paper's evaluation but are supported as the natural extension of the
    exchange operator.
    """

    child: LogicalPlan
    right: LogicalPlan = None  # type: ignore[assignment]
    left_key: str = ""
    right_key: str = ""

    def __post_init__(self):
        if self.right is None:
            raise InvalidPlanError("join requires a right input")
        if not self.left_key or not self.right_key:
            raise InvalidPlanError("join requires key columns on both sides")

    def __repr__(self) -> str:
        return f"Join(left_key={self.left_key!r}, right_key={self.right_key!r})"
