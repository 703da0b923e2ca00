"""Logical-to-physical optimizer.

Applies the rewrites described in the paper (§3.2) and lowers a logical plan
into one of two physical plans.  A plan without joins lowers into the
single-stage :class:`~repro.plan.physical.PhysicalPlan`
(:func:`_lower_scan`):

1. **Selection push-down** — filter predicates move into the scan fragment;
   conjunctive single-column comparisons additionally yield
   :class:`~repro.plan.physical.PruneRange` entries for min/max row-group
   pruning.
2. **Projection push-down** — the scan's columns are the base columns its
   output needs downstream (maps, aggregates, group-by keys); it reads its
   predicate's columns for the selection vector itself and does not output
   them.  Plans that use opaque Python UDFs, and plans that collect whole
   rows, fall back to reading all columns.
3. **Two-phase aggregation** — every aggregate is decomposed into a partial
   aggregate computed by the workers and a final merge computed on the driver
   (``avg`` becomes a partial ``sum`` + ``count`` pair).
4. **Scope assignment** — scan/filter/map/partial-aggregate run in the
   serverless scope; final merge, ordering, and limits run in the driver
   scope.

A plan with inner equi-joins lowers into a
:class:`~repro.plan.physical.DagPhysicalPlan` with one stage per join — a
single join is simply the one-stage case — through one pipeline of plain
functions (:func:`_lower_joins`), each pass handing plain values to the next:

* :func:`_collect_joins` — the relations, the ON edges, and the tail above
  the joins;
* :func:`_join_order` — the probe base and the attach order of the rest;
* :func:`_push_down_predicates` — WHERE conjuncts to the one relation whose
  schema covers them;
* :func:`_place_residuals` — two-sided conjuncts to the earliest stage whose
  scope covers them;
* :func:`_restore_keys` — right-key restoration and the columns each stage
  carries on;
* :func:`_project_sides` — per-relation projection push-down;
* :func:`_assemble_dag` — the plan, its driver scope, and the report.

Both lowerings share the tail fold (:func:`_fold_tail`), the two-phase
aggregation with the driver scope (:func:`_driver_plan`), and the prune
ranges (:func:`_prune_ranges_of`).

Because one join takes the pipeline N joins take, it behaves as they do:
grouping by the build-side key answers (the key is restored from the equal
probe key); with unknown schemas every build key is restored, so a
row-collecting join also returns it; and a right relation with strictly
more files than the left becomes the probe base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import InvalidPlanError
from repro.plan.expressions import (
    Expression,
    col,
    extract_column_ranges,
    referenced_columns,
)
from repro.plan.logical import (
    AggregateNode,
    AggregateSpec,
    FilterNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    MapNode,
    OrderByNode,
    ProjectNode,
    ScanNode,
)
from repro.plan.physical import (
    DagJoinStage,
    DagPhysicalPlan,
    DriverPlan,
    JoinSidePlan,
    PhysicalPlan,
    PruneRange,
    WorkerPlan,
    register_udf,
)

#: One joined relation: its scan, the filters below its join, and its
#: explicit projection (``None``: none).
_Relation = Tuple[ScanNode, List[Expression], Optional[List[str]]]
#: One join stage: (relation index, scope-side key, relation-side key).
_Stage = Tuple[int, str, str]


@dataclass
class OptimizerReport:
    """Diagnostics describing what the optimizer did (used by tests/benchmarks)."""

    pushed_columns: List[str] = field(default_factory=list)
    read_all_columns: bool = False
    prune_ranges: List[PruneRange] = field(default_factory=list)
    partial_aggregates: List[str] = field(default_factory=list)
    has_udf: bool = False
    #: Join lowering diagnostics (empty/None for single-table plans).
    join_keys: Optional[Tuple[str, str]] = None
    left_pushed_predicates: int = 0
    right_pushed_predicates: int = 0
    residual_predicates: int = 0
    #: The chosen execution order (first scan path of each relation) and the
    #: number of join stages.
    join_order: List[str] = field(default_factory=list)
    dag_stages: int = 0

    @staticmethod
    def _relation_label(path: str) -> str:
        """Short relation name of one scan path: its parent directory
        (``s3://tpch/lineitem/part-00000.lpq`` -> ``lineitem``), falling
        back to the file name for flat layouts."""
        parts = [p for p in path.replace("s3://", "").split("/") if p]
        return parts[-2] if len(parts) >= 2 else (parts[-1] if parts else path)

    def describe(self) -> str:
        """One-paragraph summary of the optimizer's decisions."""
        lines = []
        if self.join_order:
            plural = "" if self.dag_stages == 1 else "s"
            lines.append(
                "join order: "
                + " -> ".join(self._relation_label(p) for p in self.join_order)
                + f" ({self.dag_stages} stage{plural})"
            )
        if self.read_all_columns:
            lines.append("columns: all (UDF or SELECT *)")
        elif self.pushed_columns:
            lines.append("columns: " + ", ".join(self.pushed_columns))
        if self.join_order:
            lines.append(
                f"pushed predicates: {self.left_pushed_predicates} probe-side, "
                f"{self.right_pushed_predicates} build-side, "
                f"{self.residual_predicates} residual"
            )
        if self.partial_aggregates:
            lines.append("partial aggregates: " + ", ".join(self.partial_aggregates))
        return "\n".join(lines) if lines else "(trivial plan)"


def _combine_predicates(predicates: List[Expression]) -> Optional[Expression]:
    """AND-combine a list of predicates (None for an empty list)."""
    if not predicates:
        return None
    combined = predicates[0]
    for predicate in predicates[1:]:
        combined = combined & predicate
    return combined


def _decompose_aggregates(
    aggregates: List[AggregateSpec],
) -> Tuple[List[AggregateSpec], List[AggregateSpec]]:
    """Split user aggregates into worker partials and driver finals.

    Returns ``(partials, finals)``.  Finals reference the partial aliases:
    ``avg`` is finalised as ``sum_alias / count_alias``; the other functions
    merge with themselves (sum of sums, min of mins, ...).  ``count`` merges
    as a sum of partial counts.
    """
    partials: List[AggregateSpec] = []
    finals: List[AggregateSpec] = []
    partial_aliases: Dict[str, str] = {}

    def add_partial(function: str, expression: Optional[Expression], alias: str) -> None:
        if alias not in partial_aliases:
            partials.append(AggregateSpec(function, expression, alias))
            partial_aliases[alias] = function

    for spec in aggregates:
        if spec.function == "avg":
            sum_alias = f"__{spec.alias}_sum"
            count_alias = f"__{spec.alias}_count"
            add_partial("sum", spec.expression, sum_alias)
            add_partial("count", spec.expression, count_alias)
            finals.append(AggregateSpec("avg", spec.expression, spec.alias))
        else:
            add_partial(spec.function, spec.expression, spec.alias)
            finals.append(spec)
    return partials, finals


def _flatten_conjuncts(predicate: Optional[Expression]) -> List[Expression]:
    """Flatten nested top-level AND nodes into a list of conjuncts."""
    from repro.plan.expressions import BooleanExpr

    conjuncts: List[Expression] = []

    def visit(node: Expression) -> None:
        if isinstance(node, BooleanExpr) and node.op == "and":
            for operand in node.operands:
                visit(operand)
        else:
            conjuncts.append(node)

    if predicate is not None:
        visit(predicate)
    return conjuncts


def _prune_ranges_of(predicate: Optional[Expression]) -> List[PruneRange]:
    """Min/max prune ranges implied by a predicate (sorted by column)."""
    ranges = extract_column_ranges(predicate)
    return [
        PruneRange(column=name, lower=lower, upper=upper)
        for name, (lower, upper) in sorted(ranges.items())
        if not (math.isinf(lower) and lower < 0 and math.isinf(upper) and upper > 0)
    ]


def _columns_of(expressions) -> set:
    """Every column the expressions reference."""
    return set().union(*(referenced_columns(expression) for expression in expressions))


# ---------------------------------------------------------------------------
# Shared by both lowerings: the tail and the driver scope
# ---------------------------------------------------------------------------


@dataclass
class _Tail:
    """The Filter / Aggregate / Project / OrderBy / Limit nodes above a
    plan's scan (or above its joins), folded in chain order."""

    predicates: List[Expression] = field(default_factory=list)
    #: The predicate UDF of a UDF filter (the last one folded).
    filter_udf: Optional[Callable] = None
    aggregate: Optional[AggregateNode] = None
    project: Optional[List[str]] = None
    order_by: List[str] = field(default_factory=list)
    descending: bool = False
    limit: Optional[int] = None
    #: A node other than a filter was folded (no join may follow it).
    closed: bool = False

    @property
    def keeps_every_column(self) -> bool:
        """A row-collecting query without a projection reads every column."""
        return self.aggregate is None and self.project is None

    def downstream_columns(self) -> set:
        """Columns the aggregation (keys and arguments) or projection reads,
        and the ordering keys of projected rows."""
        needed = set(self.project or ())
        if self.project is not None and self.aggregate is None:
            needed |= set(self.order_by)
        if self.aggregate is not None:
            needed |= set(self.aggregate.group_by)
            needed |= _columns_of(
                spec.expression for spec in self.aggregate.aggregates
                if spec.expression is not None
            )
        return needed


def _fold_tail(tail: _Tail, node: LogicalPlan) -> bool:
    """Fold one tail node into ``tail``; ``False`` for any other node."""
    if isinstance(node, FilterNode):
        if tail.aggregate is not None:
            raise InvalidPlanError("filters after aggregation are not supported")
        if node.predicate is None:
            tail.filter_udf = node.udf
        else:
            tail.predicates.append(node.predicate)
        return True
    if isinstance(node, AggregateNode):
        if tail.aggregate is not None:
            raise InvalidPlanError("only one aggregation per query is supported")
        tail.aggregate = node
    elif isinstance(node, ProjectNode):
        tail.project = list(node.columns)
    elif isinstance(node, OrderByNode):
        tail.order_by, tail.descending = list(node.keys), node.descending
    elif isinstance(node, LimitNode):
        tail.limit = node.count
    else:
        return False
    tail.closed = True
    return True


def _driver_plan(
    tail: _Tail, report: OptimizerReport
) -> Tuple[List[AggregateSpec], DriverPlan]:
    """Two-phase aggregation and the driver scope: the partials the workers
    compute, and the :class:`DriverPlan` that merges, orders and limits."""
    group_by: List[str] = []
    partials: List[AggregateSpec] = []
    finals: List[AggregateSpec] = []
    if tail.aggregate is not None:
        group_by = list(tail.aggregate.group_by)
        partials, finals = _decompose_aggregates(list(tail.aggregate.aggregates))
        report.partial_aggregates = [spec.alias for spec in partials]
    driver = DriverPlan(
        group_by=group_by,
        final_aggregates=finals,
        partial_aliases=[spec.alias for spec in partials],
        order_by=list(tail.order_by),
        descending=tail.descending,
        limit=tail.limit,
        collect_rows=tail.aggregate is None,
    )
    return partials, driver


# ---------------------------------------------------------------------------
# Plans without joins
# ---------------------------------------------------------------------------


def _lower_scan(chain: List[LogicalPlan]) -> Tuple[PhysicalPlan, OptimizerReport]:
    """Lower a join-free chain into the single-stage :class:`PhysicalPlan`."""
    report = OptimizerReport()
    if not chain or not isinstance(chain[0], ScanNode):
        raise InvalidPlanError("plan must start with a scan")
    tail = _Tail()
    map_outputs: List[Tuple[str, Expression]] = []
    map_udf: Optional[str] = None
    map_replace = True
    for node in chain[1:]:
        if isinstance(node, MapNode):
            if node.udf is not None:
                map_udf = register_udf(node.udf)
            map_outputs = list(node.outputs)
            map_replace = node.replace
        elif not _fold_tail(tail, node):
            raise InvalidPlanError(f"unsupported node {type(node).__name__}")
    predicate_udf = None if tail.filter_udf is None else register_udf(tail.filter_udf)
    report.has_udf = predicate_udf is not None or map_udf is not None

    # -- selection push-down ----------------------------------------------------
    predicate = _combine_predicates(tail.predicates)
    report.prune_ranges = _prune_ranges_of(predicate)

    # -- projection push-down ----------------------------------------------------
    needed = tail.downstream_columns() | _columns_of(expr for _, expr in map_outputs)
    needed -= {alias for alias, _ in map_outputs}
    columns: List[str] = []
    if report.has_udf or (not needed and tail.aggregate is None):
        # Opaque UDFs may touch any column; plans that just collect rows
        # also need every column.
        report.read_all_columns = True
    else:
        if not needed and predicate is not None:
            # An aggregate of no column (``count(*)``): no columns would mean
            # every column, so the scan names its predicate's.
            needed = referenced_columns(predicate)
        columns = report.pushed_columns = sorted(needed)

    partials, driver = _driver_plan(tail, report)
    worker = WorkerPlan(
        files=[],
        columns=columns,
        predicate=predicate,
        predicate_udf=predicate_udf,
        prune_ranges=report.prune_ranges,
        map_outputs=map_outputs,
        map_udf=map_udf,
        map_replace=map_replace,
        group_by=list(driver.group_by),
        aggregates=partials,
    )
    physical = PhysicalPlan(
        worker_template=worker, driver=driver, input_files=list(chain[0].paths)
    )
    return physical, report


# ---------------------------------------------------------------------------
# Plans with joins: one pass per function
# ---------------------------------------------------------------------------


def _join_side_inputs(side_chain: List[LogicalPlan], side_name: str) -> _Relation:
    """Scan node, filter predicates, and explicit projection of one join side."""
    if not side_chain or not isinstance(side_chain[0], ScanNode):
        raise InvalidPlanError(f"{side_name} side of the join must start with a scan")
    scan = side_chain[0]
    predicates: List[Expression] = []
    project: Optional[List[str]] = None
    for node in side_chain[1:]:
        if isinstance(node, FilterNode):
            if node.predicate is None:
                raise InvalidPlanError("UDF filters are not supported below a join")
            predicates.append(node.predicate)
        elif isinstance(node, ProjectNode):
            project = list(node.columns)
        else:
            raise InvalidPlanError(
                f"unsupported node {type(node).__name__} below a join"
            )
    return scan, predicates, project


def _collect_joins(
    chain: List[LogicalPlan], first: int
) -> Tuple[List[_Relation], List[Tuple[str, str, int]], _Tail]:
    """The relations, the ON edges ``(left key, right key, right relation)``
    and the tail of a left-deep chain whose first join sits at ``first``."""
    relations = [_join_side_inputs(chain[:first], "left")]
    edges: List[Tuple[str, str, int]] = []
    tail = _Tail()
    for node in chain[first:]:
        if isinstance(node, JoinNode):
            if tail.closed:
                raise InvalidPlanError(
                    "joins must precede aggregation/projection/ordering"
                )
            right_chain = node.right.chain()
            if any(isinstance(n, JoinNode) for n in right_chain):
                raise InvalidPlanError(
                    "right-nested join trees are not supported; "
                    "write joins left-deep (a JOIN b JOIN c ...)"
                )
            relations.append(
                _join_side_inputs(right_chain, f"join {len(edges)} right")
            )
            edges.append((node.left_key, node.right_key, len(relations) - 1))
        elif not _fold_tail(tail, node):
            raise InvalidPlanError(
                f"unsupported node {type(node).__name__} above a join"
            )
        elif tail.filter_udf is not None:
            raise InvalidPlanError("UDF filters are not supported above a join")
    return relations, edges, tail


def _key_owner(schemas: List[set], column: str, exclude: int) -> Optional[int]:
    """The first relation other than ``exclude`` whose schema has ``column``."""
    for index, schema in enumerate(schemas):
        if index != exclude and column in schema:
            return index
    return None


def _join_order(
    relations: List[_Relation], edges: List[Tuple[str, str, int]], schemas: List[set]
) -> Tuple[List[int], List[_Stage], List[Expression]]:
    """Join-order selection: ``(order, stages, cycle conjuncts)``.

    The relations and ON edges form a join graph; the relation with the most
    files becomes the probe base (scanned once, streamed through every
    stage) and the rest attach greedily, cheapest exchange first
    (:class:`~repro.exchange.cost_model.ExchangeCostModel`, ``1l-wc``), so
    small dimension tables join early.  An ON edge whose endpoints are
    already connected demotes to an equality residual.  Unknown schemas
    keep the syntactic left-deep order.
    """
    from repro.exchange.cost_model import ExchangeCostModel

    if not all(schemas):
        order = [0] + [right_rel for _, _, right_rel in edges]
        return order, [(rel, left, right) for left, right, rel in edges], []
    resolved: List[Tuple[int, str, int, str]] = []
    for left_key, right_key, right_rel in edges:
        owner = _key_owner(schemas, left_key, exclude=right_rel)
        if owner is None:
            raise InvalidPlanError(
                f"join key {left_key!r} is not a column of any other joined relation"
            )
        if right_key not in schemas[right_rel]:
            raise InvalidPlanError(
                f"join key {right_key!r} is not a column of its right relation"
            )
        resolved.append((owner, left_key, right_rel, right_key))
    model = ExchangeCostModel()

    def attach_cost(rel: int) -> float:
        workers = max(1, len(relations[rel][0].paths))
        return model.cost("1l-wc", workers)["total_cost"]

    order = [max(range(len(relations)), key=lambda i: (len(relations[i][0].paths), -i))]
    stages: List[_Stage] = []
    cycles: List[Expression] = []
    used = [False] * len(resolved)
    while len(order) < len(relations):
        candidates: Dict[int, List[Tuple[int, str, str]]] = {}
        for index, (li, lk, ri, rk) in enumerate(resolved):
            if used[index]:
                continue
            if li in order and ri not in order:
                candidates.setdefault(ri, []).append((index, lk, rk))
            elif ri in order and li not in order:
                candidates.setdefault(li, []).append((index, rk, lk))
        if not candidates:
            raise InvalidPlanError(
                "join graph is disconnected (cross joins are not supported)"
            )
        chosen = min(candidates, key=lambda rel: (attach_cost(rel), rel))
        entries = sorted(candidates[chosen])
        for index, _, _ in entries:
            used[index] = True
        _, scope_key, rel_key = entries[0]
        cycles.extend(col(scope) == col(rel) for _, scope, rel in entries[1:])
        order.append(chosen)
        stages.append((chosen, scope_key, rel_key))
    cycles.extend(
        col(lk) == col(rk)
        for (_, lk, _, rk), joined in zip(resolved, used) if not joined
    )
    return order, stages, cycles


def _push_down_predicates(
    relations: List[_Relation], schemas: List[set], predicates: List[Expression]
) -> Tuple[List[List[Expression]], List[Expression], List[int]]:
    """Per-relation selection push-down at every level: each conjunct of the
    predicates above the joins moves to the first relation whose schema
    covers its columns.  Returns each relation's predicates (its own filters
    first), the conjuncts no one relation covers, and where each pushed
    conjunct went."""
    per_relation = [list(below) for _, below, _ in relations]
    residual: List[Expression] = []
    pushed_to: List[int] = []
    for predicate in predicates:
        for conjunct in _flatten_conjuncts(predicate):
            refs = referenced_columns(conjunct)
            covering = [i for i, schema in enumerate(schemas) if schema and refs <= schema]
            if covering:
                per_relation[covering[0]].append(conjunct)
                pushed_to.append(covering[0])
            else:
                residual.append(conjunct)
    return per_relation, residual, pushed_to


def _place_residuals(
    residuals: List[Expression], schemas: List[set], order: List[int],
    stages: List[_Stage],
) -> List[List[Expression]]:
    """Each two-sided conjunct at the earliest stage whose cumulative scope
    covers its columns (the last stage when a schema is unknown)."""
    scopes: List[set] = []
    scope = set(schemas[order[0]])
    for rel, _, _ in stages:
        scope = scope | schemas[rel]
        scopes.append(scope)
    known = all(schemas)
    placed: List[List[Expression]] = [[] for _ in stages]
    for conjunct in residuals:
        refs = referenced_columns(conjunct)
        covering = [k for k, scope in enumerate(scopes) if known and refs <= scope]
        placed[covering[0] if covering else len(stages) - 1].append(conjunct)
    return placed


def _restore_keys(
    stages: List[_Stage], residuals: List[List[Expression]], schemas: List[set],
    order: List[int], final_needed: set, keep_every_column: bool,
) -> Tuple[List[bool], List[List[str]]]:
    """Right-key restoration and carried columns, per stage.

    The join kernel drops the build side's key column; a stage restores it
    from the equal probe key when a later probe key, residual, group-by or
    projection still references it (always, when a schema is unknown).  An
    intermediate stage only carries the columns some later stage, residual
    or the final aggregation still reads (``[]``: every column in scope).
    """
    known = all(schemas)
    # needed_after[k]: what stage k's residual and every later step read.
    needed_after: List[set] = [set() for _ in stages]
    needed = set(final_needed)
    for k in reversed(range(len(stages))):
        needed_after[k] = needed | _columns_of(residuals[k])
        needed = needed_after[k] | {stages[k][1]}
    restore = [not known or rel_key in needed_after[k]
               for k, (_, _, rel_key) in enumerate(stages)]
    carried: List[List[str]] = []
    available = set(schemas[order[0]])
    for k, (rel, _, rel_key) in enumerate(stages):
        available |= schemas[rel]
        if not restore[k]:
            available.discard(rel_key)
        if k == len(stages) - 1 or not known or keep_every_column:
            carried.append([])
        else:
            next_key = stages[k + 1][1]
            carried.append(sorted((available & needed_after[k + 1]) | {next_key}))
    return restore, carried


def _project_sides(
    relations: List[_Relation], predicates: List[List[Expression]],
    schemas: List[set], order: List[int], stages: List[_Stage],
    needed: set, keep_every_column: bool,
) -> Dict[int, JoinSidePlan]:
    """Per-relation projection push-down: each relation's scan fragment
    outputs its join keys and the columns it owns that a residual or the
    tail reads (every column when its schema is unknown or the query
    collects whole rows); the scan reads its predicate's columns itself."""
    keys: List[set] = [set() for _ in relations]
    keys[order[0]].add(stages[0][1])
    for rel, scope_key, rel_key in stages:
        keys[rel].add(rel_key)
        owner = _key_owner(schemas, scope_key, exclude=rel) if all(schemas) else None
        if owner is not None:
            keys[owner].add(scope_key)
    side_key = {order[0]: stages[0][1], **{rel: key for rel, _, key in stages}}
    sides: Dict[int, JoinSidePlan] = {}
    for rel in order:
        scan, _, project = relations[rel]
        predicate = _combine_predicates(predicates[rel])
        if project is not None:
            columns = sorted(set(project) | keys[rel])
        elif not schemas[rel] or keep_every_column:
            columns = []
        else:
            columns = sorted(keys[rel] | (needed & schemas[rel]))
        sides[rel] = JoinSidePlan(
            files=list(scan.paths),
            key=side_key[rel],
            columns=columns,
            predicate=predicate,
            prune_ranges=_prune_ranges_of(predicate),
            input_bytes=scan.size_bytes,
        )
    return sides


def _assemble_dag(
    relations: List[_Relation], order: List[int], stages: List[_Stage],
    sides: Dict[int, JoinSidePlan], residuals: List[List[Expression]],
    restore: List[bool], carried: List[List[str]], tail: _Tail,
    report: OptimizerReport,
) -> DagPhysicalPlan:
    """The DAG plan (base fragment, stages, driver scope) and the report's
    column, range and order diagnostics."""
    base = sides[order[0]]
    dag_stages = [
        DagJoinStage(
            left_key=scope_key,
            right=sides[rel],
            residual_predicate=_combine_predicates(residuals[k]),
            output_columns=carried[k],
            restore_right_key=restore[k],
        )
        for k, (rel, scope_key, _) in enumerate(stages)
    ]
    fragments = [base] + [stage.right for stage in dag_stages]
    report.pushed_columns = [c for fragment in fragments for c in fragment.columns]
    report.read_all_columns = any(not fragment.columns for fragment in fragments)
    report.prune_ranges = [p for fragment in fragments for p in fragment.prune_ranges]
    report.join_keys = (dag_stages[0].left_key, dag_stages[0].right.key)
    report.join_order = [relations[rel][0].paths[0] for rel in order]
    report.dag_stages = len(dag_stages)
    partials, driver = _driver_plan(tail, report)
    return DagPhysicalPlan(
        base=base,
        stages=dag_stages,
        driver=driver,
        project=tail.project,
        group_by=list(driver.group_by),
        aggregates=partials,
    )


def _lower_joins(
    chain: List[LogicalPlan], first: int
) -> Tuple[DagPhysicalPlan, OptimizerReport]:
    """Lower a left-deep tree of inner equi-joins into a DAG plan, one pass
    at a time (see the module docstring); ``first`` indexes the first join."""
    report = OptimizerReport()
    relations, edges, tail = _collect_joins(chain, first)
    schemas = [set(scan.schema_columns) for scan, _, _ in relations]
    order, stages, cycles = _join_order(relations, edges, schemas)

    predicates, two_sided, pushed_to = _push_down_predicates(
        relations, schemas, tail.predicates
    )
    report.left_pushed_predicates = pushed_to.count(order[0])
    report.right_pushed_predicates = len(pushed_to) - report.left_pushed_predicates
    report.residual_predicates = len(cycles) + len(two_sided)
    residuals = _place_residuals(cycles + two_sided, schemas, order, stages)

    final_needed = tail.downstream_columns()
    restore, carried = _restore_keys(
        stages, residuals, schemas, order, final_needed, tail.keeps_every_column
    )
    needed = final_needed | _columns_of(c for stage in residuals for c in stage)
    sides = _project_sides(
        relations, predicates, schemas, order, stages, needed, tail.keeps_every_column
    )
    plan = _assemble_dag(
        relations, order, stages, sides, residuals, restore, carried, tail, report
    )
    return plan, report


def optimize(
    plan: LogicalPlan,
) -> Tuple[Union[PhysicalPlan, DagPhysicalPlan], OptimizerReport]:
    """Lower a logical plan into a physical plan, applying all rewrites.

    A plan with one or more :class:`~repro.plan.logical.JoinNode` s lowers
    into a :class:`~repro.plan.physical.DagPhysicalPlan` with one stage per
    join (a scan wave, join waves, a driver merge); everything else lowers
    into the single-stage :class:`~repro.plan.physical.PhysicalPlan`.  Both
    implement the unified plan protocol (``engine`` / ``waves()`` /
    ``estimated_cost()`` / ``explain()``).
    """
    chain = plan.chain()
    joins = [index for index, node in enumerate(chain) if isinstance(node, JoinNode)]
    if joins:
        return _lower_joins(chain, joins[0])
    return _lower_scan(chain)
