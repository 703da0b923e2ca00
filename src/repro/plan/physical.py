"""Physical plan: driver scope + serverless worker fragments.

The physical plan separates the query into the two scopes described in the
paper (§3.2): a **serverless scope** executed data-parallel by the workers and
a **driver scope** that merges the partial results locally.  The per-worker
fragment (:class:`WorkerPlan`) is fully serialisable so it can travel inside
an invocation payload, with the exception of Python UDFs, which are shipped by
reference through a registry (standing in for the paper's dependency layer,
which contains the compiled UDF code).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import InvalidPlanError
from repro.plan.expressions import (
    Expression,
    expression_from_dict,
    expression_to_dict,
)
from repro.plan.logical import AggregateSpec

# ---------------------------------------------------------------------------
# UDF registry ("dependency layer")
# ---------------------------------------------------------------------------

_UDF_REGISTRY: Dict[str, Callable] = {}

#: Well-known associative binary callables, pre-registered under stable
#: references.  A plan whose ``reduce_udf`` is one of these refs can be folded
#: with a vectorised ufunc reduction instead of a per-row Python fold; the
#: callables themselves stay resolvable for the driver-side partial merge.
BUILTIN_REDUCE_UDFS: Dict[str, Callable] = {
    "builtin-reduce:add": operator.add,
    "builtin-reduce:mul": operator.mul,
    "builtin-reduce:min": min,
    "builtin-reduce:max": max,
}


def builtin_reduce_ref(udf: Callable) -> Optional[str]:
    """The stable reference of a built-in reduce callable, or ``None``."""
    for ref, fn in BUILTIN_REDUCE_UDFS.items():
        if udf is fn:
            return ref
    return None


def register_udf(udf: Callable) -> str:
    """Register a Python callable and return its reference id.

    The registry plays the role of the Lambda *dependency layer*: code is
    deployed once at installation time and referenced by id at query time.
    Well-known associative callables (``operator.add``/``mul``, built-in
    ``min``/``max``) resolve to their stable built-in references, which the
    worker recognises and reduces with a ufunc.
    """
    builtin = builtin_reduce_ref(udf)
    if builtin is not None:
        return builtin
    ref = f"udf-{id(udf):x}-{len(_UDF_REGISTRY)}"
    _UDF_REGISTRY[ref] = udf
    return ref


def resolve_udf(ref: str) -> Callable:
    """Look up a callable registered with :func:`register_udf`."""
    if ref in BUILTIN_REDUCE_UDFS:
        return BUILTIN_REDUCE_UDFS[ref]
    if ref not in _UDF_REGISTRY:
        raise InvalidPlanError(f"unknown UDF reference {ref!r}")
    return _UDF_REGISTRY[ref]


def clear_udf_registry() -> None:
    """Remove all registered UDFs (used by tests)."""
    _UDF_REGISTRY.clear()


# ---------------------------------------------------------------------------
# Plan fragments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PruneRange:
    """An inclusive min/max constraint on one column, used for row-group pruning."""

    column: str
    lower: float
    upper: float

    def to_dict(self) -> Dict:
        """JSON-serialisable representation (infinities become None)."""
        return {
            "column": self.column,
            "lower": None if math.isinf(self.lower) and self.lower < 0 else self.lower,
            "upper": None if math.isinf(self.upper) and self.upper > 0 else self.upper,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PruneRange":
        """Inverse of :meth:`to_dict`."""
        lower = data["lower"]
        upper = data["upper"]
        return cls(
            column=data["column"],
            lower=-math.inf if lower is None else float(lower),
            upper=math.inf if upper is None else float(upper),
        )


@dataclass
class WorkerPlan:
    """Serialisable plan fragment executed by one serverless worker."""

    #: Object-store paths of the files this worker scans.
    files: List[str]
    #: Columns to read from the files (projection push-down result).
    columns: List[str]
    #: Residual filter predicate applied after the scan (may be None).
    predicate: Optional[Expression] = None
    #: Predicate UDF reference (mutually exclusive with ``predicate``).
    predicate_udf: Optional[str] = None
    #: Per-column ranges used to prune row groups via footer min/max statistics.
    prune_ranges: List[PruneRange] = field(default_factory=list)
    #: Computed columns applied after filtering: list of (alias, expression).
    map_outputs: List[Tuple[str, Expression]] = field(default_factory=list)
    #: Map UDF reference (applied to each record as a tuple).
    map_udf: Optional[str] = None
    #: Whether map outputs replace the input columns.
    map_replace: bool = True
    #: Group-by keys of the partial aggregation ([] for scalar aggregation).
    group_by: List[str] = field(default_factory=list)
    #: Partial aggregates to compute (already decomposed, e.g. avg -> sum+count).
    aggregates: List[AggregateSpec] = field(default_factory=list)
    #: Reference to a binary reduce UDF (the frontend ``reduce(fn)``); the
    #: worker folds its values with it and the driver folds the partials.
    reduce_udf: Optional[str] = None
    #: Scan configuration knobs.
    scan_connections: int = 4
    scan_chunk_bytes: int = 16 * 1024 * 1024
    #: Optional exchange specification (set for repartitioning queries).
    exchange: Optional[Dict] = None

    def to_dict(self) -> Dict:
        """Serialise to a JSON-compatible dict for the invocation payload."""
        return {
            "files": list(self.files),
            "columns": list(self.columns),
            "predicate": expression_to_dict(self.predicate),
            "predicate_udf": self.predicate_udf,
            "prune_ranges": [item.to_dict() for item in self.prune_ranges],
            "map_outputs": [
                {"alias": alias, "expression": expression_to_dict(expr)}
                for alias, expr in self.map_outputs
            ],
            "map_udf": self.map_udf,
            "map_replace": self.map_replace,
            "group_by": list(self.group_by),
            "aggregates": [spec.to_dict() for spec in self.aggregates],
            "reduce_udf": self.reduce_udf,
            "scan_connections": self.scan_connections,
            "scan_chunk_bytes": self.scan_chunk_bytes,
            "exchange": self.exchange,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "WorkerPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            files=list(data["files"]),
            columns=list(data["columns"]),
            predicate=expression_from_dict(data.get("predicate")),
            predicate_udf=data.get("predicate_udf"),
            prune_ranges=[PruneRange.from_dict(item) for item in data.get("prune_ranges", [])],
            map_outputs=[
                (item["alias"], expression_from_dict(item["expression"]))
                for item in data.get("map_outputs", [])
            ],
            map_udf=data.get("map_udf"),
            map_replace=data.get("map_replace", True),
            group_by=list(data.get("group_by", [])),
            aggregates=[AggregateSpec.from_dict(item) for item in data.get("aggregates", [])],
            reduce_udf=data.get("reduce_udf"),
            scan_connections=data.get("scan_connections", 4),
            scan_chunk_bytes=data.get("scan_chunk_bytes", 16 * 1024 * 1024),
            exchange=data.get("exchange"),
        )

    def with_files(self, files: Sequence[str]) -> "WorkerPlan":
        """Copy of this fragment assigned a different set of files."""
        clone = WorkerPlan.from_dict(self.to_dict())
        clone.files = list(files)
        return clone


@dataclass
class DriverPlan:
    """Driver-side final phase: merge partial aggregates, sort, limit."""

    group_by: List[str] = field(default_factory=list)
    #: The original (user-facing) aggregates, used to finalise avg etc.
    final_aggregates: List[AggregateSpec] = field(default_factory=list)
    #: The partial aggregate aliases produced by the workers, in order.
    partial_aliases: List[str] = field(default_factory=list)
    order_by: List[str] = field(default_factory=list)
    descending: bool = False
    limit: Optional[int] = None
    #: True when the query has no aggregation and the workers return raw rows.
    collect_rows: bool = False
    #: Reference to a binary reduce UDF used to fold the worker partials.
    reduce_udf: Optional[str] = None


@dataclass
class JoinSidePlan:
    """Serialisable scan fragment of one fleet of a shuffle DAG.

    Each side's map wave scans its files, applies the pushed-down predicate,
    projects the pushed-down columns, and repartitions the surviving rows by
    the hash of ``key`` through the write-combined exchange so matching keys
    meet on the same join worker.  A fragment that carries ``group_by``
    folds the map-side partial aggregation into the scan — the way a
    Select/Project folds into the step that produces its input — and ships
    one row per group, partitioned by *all* group keys, so every group meets
    on one worker of the consuming wave.
    """

    #: Object-store paths (or globs) of this side's files.
    files: List[str]
    #: Join key column of this side.
    key: str
    #: Columns to read (projection push-down result; [] reads all columns).
    columns: List[str] = field(default_factory=list)
    #: Pushed-down filter predicate of this side (may be None).
    predicate: Optional[Expression] = None
    #: Min/max prune ranges derived from this side's predicate.
    prune_ranges: List[PruneRange] = field(default_factory=list)
    #: Group keys of the partial aggregation folded into the scan ([] ships
    #: the filtered rows).
    group_by: List[str] = field(default_factory=list)
    #: Partial aggregates computed per group (avg already decomposed).
    aggregates: List[AggregateSpec] = field(default_factory=list)
    #: Stored bytes of this side's files, all columns (the catalog's size of
    #: the relation; 0 = unknown).  An estimate from above of what the side
    #: sends through the exchange: projection and predicate only shrink it.
    input_bytes: int = 0

    @property
    def partition_keys(self) -> List[str]:
        """Columns whose hash routes a row: every group key of an
        aggregating fragment, the join key otherwise."""
        return list(self.group_by) or [self.key]

    def to_dict(self) -> Dict:
        """Serialise to a JSON-compatible dict for the invocation payload."""
        return {
            "files": list(self.files),
            "key": self.key,
            "columns": list(self.columns),
            "predicate": expression_to_dict(self.predicate),
            "prune_ranges": [item.to_dict() for item in self.prune_ranges],
            "group_by": list(self.group_by),
            "aggregates": [spec.to_dict() for spec in self.aggregates],
            "input_bytes": self.input_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "JoinSidePlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            files=list(data["files"]),
            key=data["key"],
            columns=list(data.get("columns", [])),
            predicate=expression_from_dict(data.get("predicate")),
            prune_ranges=[PruneRange.from_dict(item) for item in data.get("prune_ranges", [])],
            group_by=list(data.get("group_by", [])),
            aggregates=[AggregateSpec.from_dict(item) for item in data.get("aggregates", [])],
            input_bytes=int(data.get("input_bytes", 0)),
        )


@dataclass
class DagJoinStage:
    """One join level of a :class:`DagPhysicalPlan`.

    Stage ``k`` joins the accumulated intermediate result (the *probe* side,
    keyed by ``left_key``, a column of the accumulated scope) against a
    freshly scanned base relation (the *build* side, ``right``);
    ``output_columns`` limits what is carried into the next stage, and the
    last stage feeds the partial aggregation / row collection described on
    the plan itself.  A stage is *logical*: whether its joined rows are
    repartitioned by the next stage's ``left_key`` through the exchange, or
    the next stage joins them in place against a broadcast build side, is
    decided at run time (see :class:`DagPhysicalPlan`).
    """

    #: Join key column on the accumulated (probe) side.
    left_key: str
    #: Scan fragment of the newly joined relation (build side).
    right: JoinSidePlan
    #: Conjuncts that first become evaluable at this stage (reference columns
    #: of more than one relation already in scope); applied to the joined rows.
    residual_predicate: Optional[Expression] = None
    #: Columns carried into the next stage ([] keeps every column in scope).
    output_columns: List[str] = field(default_factory=list)
    #: The join kernel drops the build side's key column (it equals the probe
    #: key on every joined row).  When a downstream stage, residual, group-by,
    #: or projection still references it, the join wave restores it by copying
    #: the probe key column under the build key's name.
    restore_right_key: bool = False
    #: Suffix applied to build-side columns whose names collide with the probe
    #: side (never applied to the keys).
    suffix: str = "_right"


@dataclass
class DagPhysicalPlan:
    """Physical plan of an N-way join executed as a DAG of shuffle waves.

    One map *wave* scans every base relation concurrently (one fleet per
    relation, each repartitioning by the key of the stage that consumes it),
    then the join waves.  The plan lists *logical* stages; the coordinator
    groups them into waves once the scan wave has announced every build
    side's size: a wave repartitions for its first stage — probing the
    previous wave's intermediate against that stage's build slices — and
    runs each following stage whose build side is small enough to broadcast
    in place, then re-emits by the next wave's probe key (or, after the last
    stage, aggregates).  At most one join wave per stage, at least one.
    Because every combined-object path is announced through the wave
    barrier, no wave issues a single discovery request.

    A plan with **no** stages is a repartitioned aggregation: the base
    fragment carries the map-side partial aggregation, and the one final
    wave joins nothing — it folds its hash partition of the partials with
    the plan's ``aggregates`` (the merge functions: sum of sums, min of
    mins).
    """

    engine = "shuffle-dag"

    #: Scan fragment of the first (probe-side) base relation.
    base: JoinSidePlan
    #: The join levels, in execution order ([] for a repartitioned
    #: aggregation, whose base fragment aggregates).
    stages: List[DagJoinStage]
    driver: DriverPlan
    #: Explicit projection above the final join (row-collecting queries only).
    project: Optional[List[str]] = None
    #: Group-by keys of the partial aggregation above the final join.
    group_by: List[str] = field(default_factory=list)
    #: Partial aggregates computed by the final join wave (avg decomposed).
    aggregates: List[AggregateSpec] = field(default_factory=list)

    def __post_init__(self):
        if not self.stages and not self.base.group_by:
            raise InvalidPlanError(
                "a DAG plan without join stages requires an aggregating base fragment"
            )

    def as_dag(self) -> "DagPhysicalPlan":
        return self

    def sides(self) -> List[Tuple[str, JoinSidePlan]]:
        """Every scan fleet as ``(exchange tag, fragment)``: the base
        (``"L"``), then each stage's build side (``"R"``, ``"R1"``, ...)."""
        sides = [("L", self.base)]
        sides.extend(
            ("R" if index == 0 else f"R{index}", stage.right)
            for index, stage in enumerate(self.stages)
        )
        return sides

    @property
    def estimated_exchange_bytes(self) -> int:
        """Bytes the scan wave sends through the exchange, estimated from
        above: the stored size of every side's files, projection and
        predicates ignored.  ``0`` when any side's size is unknown — a sum
        with a hole in it bounds nothing."""
        sizes = [side.input_bytes for _, side in self.sides()]
        return sum(sizes) if all(size > 0 for size in sizes) else 0

    def exchange_partitions(self, num_workers: Optional[int] = None) -> int:
        """Join workers per wave the coordinator starts for this plan, by its
        own rule (:func:`~repro.driver.shuffle.exchange_fan_out`) under the
        default bandwidth model and worker size; fleets are taken as one
        mapper per listed file (a glob counts as one)."""
        from repro.cloud.lambda_service import FunctionConfig
        from repro.cloud.network import BandwidthModel
        from repro.driver.shuffle import exchange_fan_out

        return exchange_fan_out(
            BandwidthModel(),
            FunctionConfig.memory_mib,
            self.estimated_exchange_bytes,
            [max(1, len(side.files)) for _, side in self.sides()],
            num_workers,
        )

    def waves(self) -> List[Dict]:
        """Wave descriptors, in dispatch order (the unified plan protocol).

        The first wave scans every base relation; each following descriptor
        is one logical join stage — the upper bound on join waves, since the
        coordinator fuses stages with broadcastable build sides into the
        wave before them at run time — or, for a plan without stages, the
        one wave that merges the repartitioned partial aggregates.  ``files``
        bounds each fleet's size (actual fleets shrink to the file count at
        execution time).
        """
        fleets = [
            {
                "role": "scan",
                "tag": tag,
                "key": side.key,
                "group_by": list(side.group_by),
                "files": len(side.files),
                "columns": list(side.columns),
                "predicate": side.predicate is not None,
            }
            for tag, side in self.sides()
        ]
        waves: List[Dict] = [{"kind": "map", "fleets": fleets}]
        if not self.stages:
            waves.append({"kind": "merge", "group_by": list(self.base.group_by)})
        last = len(self.stages) - 1
        for index, stage in enumerate(self.stages):
            waves.append(
                {
                    "kind": "join",
                    "stage": index,
                    "left_key": stage.left_key,
                    "right_key": stage.right.key,
                    "residual": stage.residual_predicate is not None,
                    "emit_key": (
                        self.stages[index + 1].left_key if index < last else None
                    ),
                    "output_columns": list(stage.output_columns),
                }
            )
        return waves

    def estimated_cost(self, num_workers: Optional[int] = None) -> float:
        """Modelled request dollars of the exchange waves (admission estimate).

        Priced at the fan-out the coordinator would choose
        (:meth:`exchange_partitions`); ``num_workers`` overrides it the way
        it overrides the coordinator's choice."""
        return _estimate_exchange_cost(
            self.waves(), num_workers, self.exchange_partitions(num_workers)
        )

    def explain(self) -> str:
        """Human-readable description of the DAG: one line per fleet/stage."""
        lines = [
            f"DagPhysicalPlan ({len(self.stages)} join stage(s), "
            "grouped into join waves at run time)"
        ]
        estimated = self.estimated_exchange_bytes
        lines.append(
            f"exchange: {self.exchange_partitions()} join worker(s) per wave, "
            + (
                f"priced from <= {estimated} bytes through the exchange"
                if estimated
                else "one per file of the largest fleet (relation sizes unknown)"
            )
        )
        for wave_index, wave in enumerate(self.waves()):
            if wave["kind"] == "map":
                lines.append(f"wave {wave_index}: map (scan + repartition)")
                for fleet in wave["fleets"]:
                    pred = " where ..." if fleet["predicate"] else ""
                    cols = (
                        f" cols={fleet['columns']}" if fleet["columns"] else " cols=*"
                    )
                    fold = "partial aggregate, " if fleet["group_by"] else ""
                    keys = ", ".join(fleet["group_by"] or [fleet["key"]])
                    lines.append(
                        f"  fleet {fleet['tag']}: {fleet['files']} file(s), "
                        f"{fold}partition by {keys}{cols}{pred}"
                    )
            elif wave["kind"] == "merge":
                lines.append(
                    f"wave {wave_index}: merge partials by {', '.join(wave['group_by'])}"
                )
            else:
                stage = self.stages[wave["stage"]]
                parts = [
                    f"join stage {wave['stage']} on "
                    f"{wave['left_key']} = {wave['right_key']}"
                ]
                if wave["residual"]:
                    parts.append("residual filter")
                if stage.restore_right_key:
                    parts.append(f"restore {stage.right.key}")
                if wave["emit_key"] is not None:
                    cols = stage.output_columns or ["*"]
                    parts.append(f"carry cols={cols} to key {wave['emit_key']}")
                lines.append("; ".join(parts))
        if self.aggregates or self.group_by:
            aggs = [f"{a.function}(...) as {a.alias}" for a in self.aggregates]
            lines.append(f"final: group_by={self.group_by} aggs={aggs}")
        elif self.project:
            lines.append(f"final: project {self.project}")
        else:
            lines.append("final: collect rows")
        if self.driver.order_by:
            lines.append(
                f"driver: order_by={self.driver.order_by} "
                f"desc={self.driver.descending} limit={self.driver.limit}"
            )
        return "\n".join(lines)


@dataclass
class JoinPhysicalPlan:
    """Physical plan of a repartitioned (shuffle) equi-join query.

    Three scopes: two map waves (one per side, described by the
    :class:`JoinSidePlan` fragments), a join wave that probes the
    repartitioned slices, applies the residual predicate, and computes the
    partial aggregates placed *above* the join, and the driver scope that
    merges the partials (``driver``).  Executed by lowering to a one-stage
    :class:`DagPhysicalPlan` (see :meth:`as_dag`).
    """

    engine = "shuffle-dag"

    left: JoinSidePlan
    right: JoinSidePlan
    driver: DriverPlan
    #: Predicate that could not be pushed to either side (references columns
    #: of both relations); evaluated on the joined rows.
    residual_predicate: Optional[Expression] = None
    #: Explicit projection above the join (row-collecting queries only): the
    #: final result keeps exactly these columns, in this order.
    project: Optional[List[str]] = None
    #: Group-by keys of the partial aggregation above the join.
    group_by: List[str] = field(default_factory=list)
    #: Partial aggregates computed by the join wave (avg already decomposed).
    aggregates: List[AggregateSpec] = field(default_factory=list)
    #: Suffix applied to right-side columns whose names collide with the left.
    suffix: str = "_right"

    def as_dag(self) -> DagPhysicalPlan:
        """Lower the binary join to an equivalent one-stage DAG plan."""
        return DagPhysicalPlan(
            base=self.left,
            stages=[
                DagJoinStage(
                    left_key=self.left.key,
                    right=self.right,
                    residual_predicate=self.residual_predicate,
                    suffix=self.suffix,
                )
            ],
            driver=self.driver,
            project=self.project,
            group_by=list(self.group_by),
            aggregates=list(self.aggregates),
        )

    def waves(self) -> List[Dict]:
        """Wave descriptors of the equivalent one-stage DAG."""
        return self.as_dag().waves()

    def estimated_cost(self, num_workers: Optional[int] = None) -> float:
        """Modelled request dollars of the exchange waves (admission estimate)."""
        return self.as_dag().estimated_cost(num_workers)

    def explain(self) -> str:
        """Human-readable description of the join plan."""
        return self.as_dag().explain()


def describe_executed_waves(wave_stages: Sequence[Sequence[int]]) -> str:
    """One line on how a run grouped a DAG's stages into join waves, e.g.
    ``executed: wave 1 = stages 0-4 (1-4 broadcast)``; the wave of a plan
    without stages reads ``wave 1 = merge partials``."""

    def span(stages: Sequence[int]) -> str:
        if len(stages) == 1:
            return str(stages[0])
        return f"{stages[0]}-{stages[-1]}"

    waves = []
    for index, stages in enumerate(wave_stages, start=1):
        if not stages:
            waves.append(f"wave {index} = merge partials")
            continue
        text = f"wave {index} = stage{'s' if len(stages) > 1 else ''} {span(stages)}"
        if len(stages) > 1:
            text += f" ({span(stages[1:])} broadcast)"
        waves.append(text)
    return "executed: " + ", ".join(waves)


def describe_exchange_fan_out(
    partitions: int, estimated_bytes: int, written_bytes: int
) -> str:
    """One line putting a run's exchange next to the planner's estimate, e.g.
    ``exchange: 1 join worker(s) per wave; 613903 bytes written (estimated <=
    4821333)``."""
    estimate = f"estimated <= {estimated_bytes}" if estimated_bytes else "not estimated"
    return (
        f"exchange: {partitions} join worker(s) per wave; "
        f"{written_bytes} bytes written ({estimate})"
    )


def _estimate_exchange_cost(
    waves: Sequence[Dict], num_workers: Optional[int], partitions: int
) -> float:
    """Sum the write-combined exchange cost model over a plan's waves (one
    exchange per scan fleet — one mapper per file, at most ``num_workers`` —
    and one of ``partitions`` workers per logical join stage: the upper
    bound, before fusion; a merge wave only reads what its fleet wrote)."""
    from repro.exchange.cost_model import ExchangeCostModel

    model = ExchangeCostModel()
    total = 0.0
    for wave in waves:
        if wave["kind"] == "map":
            for fleet in wave["fleets"]:
                files = fleet["files"] or 1
                workers = max(1, min(num_workers or files, files))
                total += model.cost("1l-wc", workers)["total_cost"]
        elif wave["kind"] == "join":
            total += model.cost("1l-wc", partitions)["total_cost"]
    return total


@dataclass
class PhysicalPlan:
    """Complete physical plan: one worker fragment template + the driver plan."""

    engine = "scan"

    worker_template: WorkerPlan
    driver: DriverPlan
    #: All input files of the query, before assignment to workers.
    input_files: List[str] = field(default_factory=list)

    def partition_files(self, num_workers: int) -> List[List[str]]:
        """Split the input files into ``num_workers`` balanced assignments.

        Files are dealt round-robin, matching the paper's one-or-more files
        per worker model (``F = files per worker``, ``W = 320 / F``).
        Workers that would receive no files are dropped.
        """
        if num_workers <= 0:
            raise InvalidPlanError("num_workers must be positive")
        assignments: List[List[str]] = [[] for _ in range(num_workers)]
        for index, path in enumerate(self.input_files):
            assignments[index % num_workers].append(path)
        return [files for files in assignments if files]

    def worker_plans(self, num_workers: int) -> List[WorkerPlan]:
        """Materialise per-worker fragments for ``num_workers`` workers."""
        return [
            self.worker_template.with_files(files)
            for files in self.partition_files(num_workers)
        ]

    def waves(self) -> List[Dict]:
        """Wave descriptors (the unified plan protocol): one scan wave."""
        template = self.worker_template
        return [
            {
                "kind": "scan",
                "fleets": [
                    {
                        "role": "scan",
                        "tag": "S",
                        "files": len(self.input_files),
                        "columns": list(template.columns),
                        "predicate": template.predicate is not None
                        or template.predicate_udf is not None,
                    }
                ],
            }
        ]

    def estimated_cost(self, num_workers: int = 8) -> float:
        """Modelled request dollars: one GET per file plus result messages.

        A scan-aggregate query never touches the exchange, so its request
        cost is dominated by the input GETs; this mirrors the admission
        controller's per-query dollar estimate.
        """
        from repro.cloud.pricing import DEFAULT_PRICES

        reads = max(1, len(self.input_files))
        return DEFAULT_PRICES.s3_get_cost(reads) + DEFAULT_PRICES.sqs_cost(reads)

    def explain(self) -> str:
        """Human-readable description of the scan-aggregate plan."""
        template = self.worker_template
        cols = list(template.columns) or ["*"]
        lines = [
            "PhysicalPlan (scan + partial aggregation)",
            f"wave 0: scan {len(self.input_files)} file(s), cols={cols}",
        ]
        if template.predicate is not None:
            lines.append(f"  filter: {template.predicate!r}")
        if template.predicate_udf is not None:
            lines.append(f"  filter: udf {template.predicate_udf}")
        if template.map_outputs:
            names = [alias for alias, _ in template.map_outputs]
            lines.append(f"  map: {names} (replace={template.map_replace})")
        if template.aggregates:
            aggs = [f"{a.function}(...) as {a.alias}" for a in template.aggregates]
            lines.append(f"  partial agg: group_by={template.group_by} aggs={aggs}")
        if self.driver.order_by:
            lines.append(
                f"driver: order_by={self.driver.order_by} "
                f"desc={self.driver.descending} limit={self.driver.limit}"
            )
        return "\n".join(lines)
