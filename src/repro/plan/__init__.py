"""Query plan intermediate representation and optimizer.

The frontend (Python dataflow API or mini-SQL) produces a
:class:`~repro.plan.logical.LogicalPlan`.  The optimizer applies the rewrites
described in the paper (§3.2): selection and projection push-down into the
scan, predicate-derived min/max pruning ranges, and splitting aggregations
into a data-parallel partial phase and a driver-side final phase.  The result
is a :class:`~repro.plan.physical.DagPhysicalPlan` with two *scopes* — a
serverless scope executed by the workers (a scan wave, then one wave per group
of join stages) and a driver scope executed locally — whose serialisable
:class:`~repro.plan.physical.WorkerPlan` fragments are shipped to each scan
worker in its invocation payload.
"""

from repro.plan.expressions import (
    Expression,
    Column,
    Literal,
    Arithmetic,
    Comparison,
    BooleanExpr,
    col,
    lit,
    evaluate,
    referenced_columns,
    extract_column_ranges,
    expression_to_dict,
    expression_from_dict,
)
from repro.plan.logical import (
    LogicalPlan,
    ScanNode,
    FilterNode,
    ProjectNode,
    MapNode,
    AggregateNode,
    AggregateSpec,
    OrderByNode,
    LimitNode,
    JoinNode,
)
from repro.plan.optimizer import optimize, OptimizerReport
from repro.plan.physical import DagPhysicalPlan, WorkerPlan, DriverPlan, PruneRange

__all__ = [
    "Expression",
    "Column",
    "Literal",
    "Arithmetic",
    "Comparison",
    "BooleanExpr",
    "col",
    "lit",
    "evaluate",
    "referenced_columns",
    "extract_column_ranges",
    "expression_to_dict",
    "expression_from_dict",
    "LogicalPlan",
    "ScanNode",
    "FilterNode",
    "ProjectNode",
    "MapNode",
    "AggregateNode",
    "AggregateSpec",
    "OrderByNode",
    "LimitNode",
    "JoinNode",
    "optimize",
    "OptimizerReport",
    "DagPhysicalPlan",
    "WorkerPlan",
    "DriverPlan",
    "PruneRange",
]
