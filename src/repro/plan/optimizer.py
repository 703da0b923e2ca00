"""Logical-to-physical optimizer.

Applies the rewrites described in the paper (§3.2) and lowers the logical plan
into a :class:`~repro.plan.physical.PhysicalPlan`:

1. **Selection push-down** — filter predicates move into the scan fragment;
   conjunctive single-column comparisons additionally yield
   :class:`~repro.plan.physical.PruneRange` entries for min/max row-group
   pruning.
2. **Projection push-down** — the scan only reads the base columns referenced
   anywhere downstream (predicates, maps, aggregates, group-by keys).  Plans
   that use opaque Python UDFs fall back to reading all columns.
3. **Two-phase aggregation** — every aggregate is decomposed into a partial
   aggregate computed by the workers and a final merge computed on the driver
   (``avg`` becomes a partial ``sum`` + ``count`` pair).
4. **Scope assignment** — scan/filter/map/partial-aggregate run in the
   serverless scope; final merge, ordering, and limits run in the driver
   scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

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
    JoinPhysicalPlan,
    JoinSidePlan,
    PhysicalPlan,
    PruneRange,
    WorkerPlan,
    register_udf,
)


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
    #: DAG lowering diagnostics (multi-join plans only): the chosen execution
    #: order (first scan path of each relation) and the number of join stages.
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
            lines.append(
                "join order: "
                + " -> ".join(self._relation_label(p) for p in self.join_order)
                + f" ({self.dag_stages} stages)"
            )
        elif self.join_keys is not None:
            lines.append(f"join on {self.join_keys[0]} = {self.join_keys[1]}")
        if self.read_all_columns:
            lines.append("columns: all (UDF or SELECT *)")
        elif self.pushed_columns:
            lines.append("columns: " + ", ".join(self.pushed_columns))
        if self.join_keys is not None or self.join_order:
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


def _join_side_inputs(
    side_chain: List[LogicalPlan], side_name: str
) -> Tuple[ScanNode, List[Expression], Optional[List[str]]]:
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


def _optimize_join(
    chain: List[LogicalPlan], join_index: int
) -> Tuple[JoinPhysicalPlan, OptimizerReport]:
    """Lower a two-table equi-join plan into a :class:`JoinPhysicalPlan`.

    Rewrites applied on top of the single-table ones:

    * **per-side selection push-down** — filters below the join stay on their
      side; conjuncts of filters *above* the join move to whichever side's
      schema (the :attr:`~repro.plan.logical.ScanNode.schema_columns` hint)
      covers all their columns, and only genuinely two-sided conjuncts remain
      as a residual predicate over the joined rows;
    * **per-side projection push-down** — each side's map wave only reads its
      join key, its predicate columns, and the downstream-referenced columns
      it owns;
    * **partial-aggregate placement above the join** — the join wave computes
      the decomposed partial aggregates right after probing, so only partials
      (not joined rows) travel to the driver.
    """
    report = OptimizerReport()
    join = chain[join_index]
    assert isinstance(join, JoinNode)
    left_chain = chain[:join_index]
    right_chain = join.right.chain()
    if any(isinstance(node, JoinNode) for node in right_chain):
        raise InvalidPlanError(
            "right-nested join trees are not supported; "
            "write joins left-deep (a JOIN b JOIN c ...)"
        )

    left_scan, left_predicates, left_project = _join_side_inputs(left_chain, "left")
    right_scan, right_predicates, right_project = _join_side_inputs(right_chain, "right")

    # -- nodes above the join ---------------------------------------------------
    predicates_above: List[Expression] = []
    aggregate: Optional[AggregateNode] = None
    project_above: Optional[List[str]] = None
    order_by: List[str] = []
    descending = False
    limit: Optional[int] = None
    for node in chain[join_index + 1:]:
        if isinstance(node, FilterNode):
            if aggregate is not None:
                raise InvalidPlanError("filters after aggregation are not supported")
            if node.predicate is None:
                raise InvalidPlanError("UDF filters are not supported above a join")
            predicates_above.append(node.predicate)
        elif isinstance(node, AggregateNode):
            if aggregate is not None:
                raise InvalidPlanError("only one aggregation per query is supported")
            aggregate = node
        elif isinstance(node, ProjectNode):
            project_above = list(node.columns)
        elif isinstance(node, OrderByNode):
            order_by = list(node.keys)
            descending = node.descending
        elif isinstance(node, LimitNode):
            limit = node.count
        else:
            raise InvalidPlanError(
                f"unsupported node {type(node).__name__} above a join"
            )

    # -- per-side selection push-down -------------------------------------------
    left_schema = set(left_scan.schema_columns)
    right_schema = set(right_scan.schema_columns)
    residual_conjuncts: List[Expression] = []
    for predicate in predicates_above:
        for conjunct in _flatten_conjuncts(predicate):
            refs = referenced_columns(conjunct)
            if left_schema and refs <= left_schema:
                left_predicates.append(conjunct)
                report.left_pushed_predicates += 1
            elif right_schema and refs <= right_schema:
                right_predicates.append(conjunct)
                report.right_pushed_predicates += 1
            else:
                residual_conjuncts.append(conjunct)
    residual = _combine_predicates(residual_conjuncts)
    report.residual_predicates = len(residual_conjuncts)

    left_predicate = _combine_predicates(left_predicates)
    right_predicate = _combine_predicates(right_predicates)

    # -- aggregation decomposition -----------------------------------------------
    group_by: List[str] = []
    partials: List[AggregateSpec] = []
    finals: List[AggregateSpec] = []
    if aggregate is not None:
        group_by = list(aggregate.group_by)
        if join.right_key in group_by:
            raise InvalidPlanError(
                f"group by the left key {join.left_key!r} instead of the right "
                f"key {join.right_key!r} (the join drops the right key column)"
            )
        partials, finals = _decompose_aggregates(list(aggregate.aggregates))
        report.partial_aggregates = [spec.alias for spec in partials]

    # -- per-side projection push-down --------------------------------------------
    needed: set = set()
    if residual is not None:
        needed |= referenced_columns(residual)
    if aggregate is not None:
        needed |= set(group_by)
        for spec in aggregate.aggregates:
            if spec.expression is not None:
                needed |= referenced_columns(spec.expression)
    if project_above is not None:
        needed |= set(project_above)

    def side_columns(
        schema: set, key: str, predicate: Optional[Expression],
        project: Optional[List[str]],
    ) -> List[str]:
        if project is not None:
            return sorted(set(project) | {key})
        if not schema or aggregate is None and project_above is None:
            # Unknown schema, or a row-collecting query: read every column.
            return []
        columns = {key} | (needed & schema)
        if predicate is not None:
            columns |= referenced_columns(predicate)
        return sorted(columns)

    left_columns = side_columns(left_schema, join.left_key, left_predicate, left_project)
    right_columns = side_columns(right_schema, join.right_key, right_predicate, right_project)
    report.pushed_columns = left_columns + right_columns
    report.read_all_columns = not left_columns or not right_columns

    left_ranges = _prune_ranges_of(left_predicate)
    right_ranges = _prune_ranges_of(right_predicate)
    report.prune_ranges = left_ranges + right_ranges
    report.join_keys = (join.left_key, join.right_key)

    driver = DriverPlan(
        group_by=group_by,
        final_aggregates=finals,
        partial_aliases=[spec.alias for spec in partials],
        order_by=order_by,
        descending=descending,
        limit=limit,
        collect_rows=aggregate is None,
    )
    physical = JoinPhysicalPlan(
        left=JoinSidePlan(
            files=list(left_scan.paths),
            key=join.left_key,
            columns=left_columns,
            predicate=left_predicate,
            prune_ranges=left_ranges,
            input_bytes=left_scan.size_bytes,
        ),
        right=JoinSidePlan(
            files=list(right_scan.paths),
            key=join.right_key,
            columns=right_columns,
            predicate=right_predicate,
            prune_ranges=right_ranges,
            input_bytes=right_scan.size_bytes,
        ),
        driver=driver,
        residual_predicate=residual,
        project=project_above,
        group_by=group_by,
        aggregates=partials,
    )
    return physical, report


def _optimize_dag(
    chain: List[LogicalPlan], join_indices: List[int]
) -> Tuple[DagPhysicalPlan, OptimizerReport]:
    """Lower a left-deep tree of 2+ inner equi-joins into a DAG plan.

    Generalises :func:`_optimize_join` to N relations:

    * **join-order selection** — the relations and ON conditions form a join
      graph; the relation with the most files becomes the probe base (it is
      scanned once and streamed through every stage), and the remaining
      relations attach greedily, cheapest exchange first
      (:class:`~repro.exchange.cost_model.ExchangeCostModel`, ``1l-wc``), so
      small dimension tables join early and shrink the intermediates;
    * **per-relation push-down at every level** — WHERE conjuncts move to the
      single relation whose schema covers them, wherever it sits in the DAG;
      two-sided conjuncts become stage residuals evaluated at the earliest
      stage whose cumulative scope covers their columns;
    * **Select/Project fusion** — each stage's residual filter and
      carried-column projection execute inside the producing join wave, and
      intermediate stages only re-emit the columns some later stage, residual,
      or the final aggregation still needs;
    * **right-key restoration** — the join kernel drops the build side's key
      column; stages whose dropped key is still referenced downstream (a
      later probe key, residual, or group-by) restore it from the equal probe
      key, so e.g. ``GROUP BY n_nationkey`` works even though NATION joins as
      a build side.

    Cyclic join conditions (an ON edge whose endpoints are already connected)
    demote to equality residuals.  Relations with unknown schemas fall back
    to the syntactic join order, read all columns, and restore every key.
    """
    from repro.exchange.cost_model import ExchangeCostModel

    report = OptimizerReport()
    first = join_indices[0]

    # -- collect relations, join edges, and the nodes above the joins -----------
    relations: List[Tuple[ScanNode, List[Expression], Optional[List[str]]]] = [
        _join_side_inputs(chain[:first], "left")
    ]
    edges: List[Tuple[str, str, int]] = []  # (left_key, right_key, right_rel)
    predicates_above: List[Expression] = []
    aggregate: Optional[AggregateNode] = None
    project_above: Optional[List[str]] = None
    order_by: List[str] = []
    descending = False
    limit: Optional[int] = None
    seen_tail = False
    for node in chain[first:]:
        if isinstance(node, JoinNode):
            if seen_tail:
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
        elif isinstance(node, FilterNode):
            if aggregate is not None:
                raise InvalidPlanError("filters after aggregation are not supported")
            if node.predicate is None:
                raise InvalidPlanError("UDF filters are not supported above a join")
            predicates_above.append(node.predicate)
        elif isinstance(node, AggregateNode):
            if aggregate is not None:
                raise InvalidPlanError("only one aggregation per query is supported")
            aggregate = node
            seen_tail = True
        elif isinstance(node, ProjectNode):
            project_above = list(node.columns)
            seen_tail = True
        elif isinstance(node, OrderByNode):
            order_by = list(node.keys)
            descending = node.descending
            seen_tail = True
        elif isinstance(node, LimitNode):
            limit = node.count
            seen_tail = True
        else:
            raise InvalidPlanError(
                f"unsupported node {type(node).__name__} above a join"
            )

    schemas = [set(scan.schema_columns) for scan, _, _ in relations]
    all_known = all(schemas)

    def key_owner(column: str, exclude: int) -> Optional[int]:
        for index, schema in enumerate(schemas):
            if index != exclude and column in schema:
                return index
        return None

    # -- join-order selection ----------------------------------------------------
    # stage_specs: (relation index, scope-side key, relation-side key)
    stage_specs: List[Tuple[int, str, str]] = []
    extra_conjuncts: List[Expression] = []
    if all_known:
        norm_edges: List[Tuple[int, str, int, str]] = []
        for left_key, right_key, right_rel in edges:
            owner = key_owner(left_key, exclude=right_rel)
            if owner is None:
                raise InvalidPlanError(
                    f"join key {left_key!r} is not a column of any other "
                    f"joined relation"
                )
            if right_key not in schemas[right_rel]:
                raise InvalidPlanError(
                    f"join key {right_key!r} is not a column of its right relation"
                )
            norm_edges.append((owner, left_key, right_rel, right_key))
        base = max(
            range(len(relations)),
            key=lambda i: (len(relations[i][0].paths), -i),
        )
        model = ExchangeCostModel()

        def attach_cost(rel: int) -> float:
            workers = max(1, len(relations[rel][0].paths))
            return model.cost("1l-wc", workers)["total_cost"]

        order = [base]
        used = [False] * len(norm_edges)
        while len(order) < len(relations):
            in_scope = set(order)
            candidates: Dict[int, List[Tuple[int, str, str]]] = {}
            for index, (li, lk, ri, rk) in enumerate(norm_edges):
                if used[index]:
                    continue
                if li in in_scope and ri not in in_scope:
                    candidates.setdefault(ri, []).append((index, lk, rk))
                elif ri in in_scope and li not in in_scope:
                    candidates.setdefault(li, []).append((index, rk, lk))
            if not candidates:
                raise InvalidPlanError(
                    "join graph is disconnected (cross joins are not supported)"
                )
            chosen = min(candidates, key=lambda rel: (attach_cost(rel), rel))
            entries = sorted(candidates[chosen])
            _, scope_key, rel_key = entries[0]
            used[entries[0][0]] = True
            for extra_index, extra_scope_key, extra_rel_key in entries[1:]:
                used[extra_index] = True
                extra_conjuncts.append(col(extra_scope_key) == col(extra_rel_key))
            order.append(chosen)
            stage_specs.append((chosen, scope_key, rel_key))
        for index, (_, lk, _, rk) in enumerate(norm_edges):
            if not used[index]:  # cycle edge: both ends joined through others
                extra_conjuncts.append(col(lk) == col(rk))
    else:
        # Unknown schemas: keep the syntactic left-deep order.
        order = [0] + [right_rel for _, _, right_rel in edges]
        stage_specs = [
            (right_rel, left_key, right_key)
            for left_key, right_key, right_rel in edges
        ]
    num_stages = len(stage_specs)

    # -- predicate push-down at every level --------------------------------------
    rel_predicates: List[List[Expression]] = [
        list(predicates) for _, predicates, _ in relations
    ]
    residual_pool: List[Expression] = list(extra_conjuncts)
    for predicate in predicates_above:
        for conjunct in _flatten_conjuncts(predicate):
            refs = referenced_columns(conjunct)
            target = None
            for index, schema in enumerate(schemas):
                if schema and refs <= schema:
                    target = index
                    break
            if target is not None:
                rel_predicates[target].append(conjunct)
                if target == order[0]:
                    report.left_pushed_predicates += 1
                else:
                    report.right_pushed_predicates += 1
            else:
                residual_pool.append(conjunct)
    report.residual_predicates = len(residual_pool)

    # -- aggregation decomposition ------------------------------------------------
    group_by: List[str] = []
    partials: List[AggregateSpec] = []
    finals: List[AggregateSpec] = []
    if aggregate is not None:
        group_by = list(aggregate.group_by)
        partials, finals = _decompose_aggregates(list(aggregate.aggregates))
        report.partial_aggregates = [spec.alias for spec in partials]

    final_needed: set = set(group_by)
    if aggregate is not None:
        for spec in aggregate.aggregates:
            if spec.expression is not None:
                final_needed |= referenced_columns(spec.expression)
    if project_above is not None:
        final_needed |= set(project_above)

    # -- residual placement: earliest stage whose scope covers the columns --------
    stage_residuals: List[List[Expression]] = [[] for _ in range(num_stages)]
    if all_known:
        cumulative: List[set] = []
        scope = set(schemas[order[0]])
        for rel, _, _ in stage_specs:
            scope = scope | schemas[rel]
            cumulative.append(set(scope))
        for conjunct in residual_pool:
            refs = referenced_columns(conjunct)
            placed = num_stages - 1
            for stage_index in range(num_stages):
                if refs <= cumulative[stage_index]:
                    placed = stage_index
                    break
            stage_residuals[placed].append(conjunct)
    else:
        stage_residuals[-1] = list(residual_pool)

    # -- downstream needs, right-key restoration, carried columns -----------------
    # needed_from[k]: columns some stage >= k still reads from its probe input.
    needed_from: List[set] = [set() for _ in range(num_stages + 1)]
    needed_from[num_stages] = set(final_needed)
    for stage_index in range(num_stages - 1, -1, -1):
        refs = set(needed_from[stage_index + 1])
        for conjunct in stage_residuals[stage_index]:
            refs |= referenced_columns(conjunct)
        refs.add(stage_specs[stage_index][1])
        needed_from[stage_index] = refs

    restore: List[bool] = []
    for stage_index, (_, _, rel_key) in enumerate(stage_specs):
        needed_after = set(needed_from[stage_index + 1])
        for conjunct in stage_residuals[stage_index]:
            needed_after |= referenced_columns(conjunct)
        restore.append(not all_known or rel_key in needed_after)

    output_columns: List[List[str]] = []
    available = set(schemas[order[0]])
    for stage_index, (rel, _, rel_key) in enumerate(stage_specs):
        available |= schemas[rel]
        if not restore[stage_index]:
            available.discard(rel_key)
        last = stage_index == num_stages - 1
        if last or not all_known or (aggregate is None and project_above is None):
            output_columns.append([])
        else:
            keep = available & needed_from[stage_index + 1]
            keep.add(stage_specs[stage_index + 1][1])
            output_columns.append(sorted(keep))

    # -- per-relation projection push-down -----------------------------------------
    needed_all = set(final_needed)
    for conjuncts in stage_residuals:
        for conjunct in conjuncts:
            needed_all |= referenced_columns(conjunct)

    rel_key_sets: List[set] = [set() for _ in relations]
    rel_key_sets[order[0]].add(stage_specs[0][1])
    for rel, scope_key, rel_key in stage_specs:
        rel_key_sets[rel].add(rel_key)
        if all_known:
            owner = key_owner(scope_key, exclude=rel)
            if owner is not None:
                rel_key_sets[owner].add(scope_key)

    def side_plan(rel: int) -> JoinSidePlan:
        scan, _, project = relations[rel]
        predicate = _combine_predicates(rel_predicates[rel])
        keys = rel_key_sets[rel]
        if project is not None:
            columns = sorted(set(project) | keys)
        elif not schemas[rel] or (aggregate is None and project_above is None):
            columns = []
        else:
            needed = keys | (needed_all & schemas[rel])
            if predicate is not None:
                needed |= referenced_columns(predicate)
            columns = sorted(needed)
        key = next(iter(keys)) if len(keys) == 1 else ""
        return JoinSidePlan(
            files=list(scan.paths),
            key=key,
            columns=columns,
            predicate=predicate,
            prune_ranges=_prune_ranges_of(predicate),
            input_bytes=scan.size_bytes,
        )

    sides = {rel: side_plan(rel) for rel in order}
    base_side = sides[order[0]]
    base_side.key = stage_specs[0][1]
    stages: List[DagJoinStage] = []
    for stage_index, (rel, scope_key, rel_key) in enumerate(stage_specs):
        side = sides[rel]
        side.key = rel_key
        stages.append(
            DagJoinStage(
                left_key=scope_key,
                right=side,
                residual_predicate=_combine_predicates(stage_residuals[stage_index]),
                output_columns=output_columns[stage_index],
                restore_right_key=restore[stage_index],
            )
        )

    all_columns = [list(base_side.columns)] + [list(s.right.columns) for s in stages]
    report.pushed_columns = [column for columns in all_columns for column in columns]
    report.read_all_columns = any(not columns for columns in all_columns)
    report.prune_ranges = list(base_side.prune_ranges) + [
        prune for stage in stages for prune in stage.right.prune_ranges
    ]
    report.join_keys = (stages[0].left_key, stages[0].right.key)
    report.join_order = [relations[rel][0].paths[0] for rel in order]
    report.dag_stages = num_stages

    driver = DriverPlan(
        group_by=group_by,
        final_aggregates=finals,
        partial_aliases=[spec.alias for spec in partials],
        order_by=order_by,
        descending=descending,
        limit=limit,
        collect_rows=aggregate is None,
    )
    physical = DagPhysicalPlan(
        base=base_side,
        stages=stages,
        driver=driver,
        project=project_above,
        group_by=group_by,
        aggregates=partials,
    )
    return physical, report


def optimize(
    plan: LogicalPlan,
    scan_connections: int = 4,
    scan_chunk_bytes: int = 16 * 1024 * 1024,
) -> Tuple[Union[PhysicalPlan, JoinPhysicalPlan, DagPhysicalPlan], OptimizerReport]:
    """Lower a logical plan into a physical plan, applying all rewrites.

    Plans with one :class:`~repro.plan.logical.JoinNode` lower into a
    :class:`~repro.plan.physical.JoinPhysicalPlan` (two map waves, a join
    wave, a driver merge); left-deep trees of two or more joins lower into a
    multi-wave :class:`~repro.plan.physical.DagPhysicalPlan`; everything else
    lowers into the single-stage :class:`~repro.plan.physical.PhysicalPlan`.
    All three implement the unified plan protocol (``engine`` / ``waves()`` /
    ``estimated_cost()`` / ``explain()``).
    """
    chain = plan.chain()
    join_indices = [
        index for index, node in enumerate(chain) if isinstance(node, JoinNode)
    ]
    if join_indices:
        if len(join_indices) > 1:
            return _optimize_dag(chain, join_indices)
        return _optimize_join(chain, join_indices[0])

    report = OptimizerReport()
    if not chain or not isinstance(chain[0], ScanNode):
        raise InvalidPlanError("plan must start with a scan")
    scan = chain[0]

    predicates: List[Expression] = []
    predicate_udf: Optional[str] = None
    project_columns: Optional[List[str]] = None
    map_outputs: List[Tuple[str, Expression]] = []
    map_udf: Optional[str] = None
    map_replace = True
    aggregate: Optional[AggregateNode] = None
    reduce_udf: Optional[str] = None
    order_by: List[str] = []
    descending = False
    limit: Optional[int] = None

    for node in chain[1:]:
        if isinstance(node, FilterNode):
            if aggregate is not None:
                raise InvalidPlanError("filters after aggregation are not supported")
            if node.predicate is not None:
                predicates.append(node.predicate)
            else:
                predicate_udf = register_udf(node.udf)
                report.has_udf = True
        elif isinstance(node, ProjectNode):
            project_columns = list(node.columns)
        elif isinstance(node, MapNode):
            if node.udf is not None:
                map_udf = register_udf(node.udf)
                report.has_udf = True
            map_outputs = list(node.outputs)
            map_replace = node.replace
        elif isinstance(node, AggregateNode):
            if aggregate is not None:
                raise InvalidPlanError("only one aggregation per query is supported")
            aggregate = node
        elif isinstance(node, OrderByNode):
            order_by = list(node.keys)
            descending = node.descending
        elif isinstance(node, LimitNode):
            limit = node.count
        elif isinstance(node, JoinNode):
            raise InvalidPlanError(
                "joins are executed through the exchange engine; "
                "use repro.engine.join or the dataflow join API"
            )
        else:
            raise InvalidPlanError(f"unsupported node {type(node).__name__}")

    # -- selection push-down ----------------------------------------------------
    predicate = _combine_predicates(predicates)
    ranges = extract_column_ranges(predicate)
    prune_ranges = [
        PruneRange(column=name, lower=lower, upper=upper)
        for name, (lower, upper) in sorted(ranges.items())
        if not (math.isinf(lower) and lower < 0 and math.isinf(upper) and upper > 0)
    ]
    report.prune_ranges = prune_ranges

    # -- projection push-down ----------------------------------------------------
    map_aliases = {alias for alias, _ in map_outputs}
    needed: set = set()
    if predicate is not None:
        needed |= referenced_columns(predicate)
    for _, expression in map_outputs:
        needed |= referenced_columns(expression)
    if aggregate is not None:
        needed |= set(aggregate.group_by)
        for spec in aggregate.aggregates:
            if spec.expression is not None:
                needed |= referenced_columns(spec.expression)
    if project_columns is not None:
        needed |= set(project_columns)
    needed -= map_aliases

    has_opaque_udf = predicate_udf is not None or map_udf is not None
    if has_opaque_udf or (not needed and aggregate is None):
        # Opaque UDFs may touch any column; plans that just collect rows
        # also need every column.
        columns: List[str] = []
        report.read_all_columns = True
    else:
        columns = sorted(needed)
        report.pushed_columns = columns

    # -- aggregation decomposition ------------------------------------------------
    group_by: List[str] = []
    partials: List[AggregateSpec] = []
    finals: List[AggregateSpec] = []
    if aggregate is not None:
        group_by = list(aggregate.group_by)
        partials, finals = _decompose_aggregates(list(aggregate.aggregates))
        report.partial_aggregates = [spec.alias for spec in partials]

    worker = WorkerPlan(
        files=[],
        columns=columns,
        predicate=predicate,
        predicate_udf=predicate_udf,
        prune_ranges=prune_ranges,
        map_outputs=map_outputs,
        map_udf=map_udf,
        map_replace=map_replace,
        group_by=group_by,
        aggregates=partials,
        reduce_udf=reduce_udf,
        scan_connections=scan_connections,
        scan_chunk_bytes=scan_chunk_bytes,
    )
    driver = DriverPlan(
        group_by=group_by,
        final_aggregates=finals,
        partial_aliases=[spec.alias for spec in partials],
        order_by=order_by,
        descending=descending,
        limit=limit,
        collect_rows=aggregate is None,
        reduce_udf=reduce_udf,
    )
    physical = PhysicalPlan(
        worker_template=worker,
        driver=driver,
        input_files=list(scan.paths),
    )
    return physical, report
