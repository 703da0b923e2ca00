"""Tests for physical plan fragments and their serialisation."""

import dataclasses
import math

import pytest

from repro.errors import InvalidPlanError
from repro.plan.expressions import col
from repro.plan.logical import AggregateSpec
from repro.plan.physical import (
    DagJoinStage,
    DagPhysicalPlan,
    DriverPlan,
    PruneRange,
    WorkerPlan,
    clear_udf_registry,
    register_udf,
    resolve_udf,
)


def _template() -> WorkerPlan:
    return WorkerPlan(
        files=[],
        columns=["a", "b"],
        predicate=col("a") > 1,
        prune_ranges=[PruneRange("a", 1, math.inf)],
        map_outputs=[("v", col("a") * col("b"))],
        group_by=["g"],
        aggregates=[AggregateSpec("sum", col("v"), "s")],
    )


def test_worker_plan_dict_roundtrip():
    plan = dataclasses.replace(
        _template(), files=["s3://b/1.lpq"], scan_connections=2, scan_chunk_bytes=1024
    )
    restored = WorkerPlan.from_dict(plan.to_dict())
    assert restored.files == plan.files
    assert (restored.scan_connections, restored.scan_chunk_bytes) == (2, 1024)
    assert (_template().scan_connections, _template().scan_chunk_bytes) == (4, 16 << 20)
    assert restored.columns == plan.columns
    assert restored.predicate.equals(plan.predicate)
    assert restored.prune_ranges[0].column == "a"
    assert restored.map_outputs[0][0] == "v"
    assert restored.group_by == ["g"]
    assert restored.aggregates[0].alias == "s"


def test_worker_plan_dict_is_json_compatible():
    import json

    payload = json.dumps(_template().to_dict())
    restored = WorkerPlan.from_dict(json.loads(payload))
    assert restored.columns == ["a", "b"]


def test_prune_range_infinity_roundtrip():
    prange = PruneRange("x", -math.inf, 5.0)
    restored = PruneRange.from_dict(prange.to_dict())
    assert restored.lower == -math.inf
    assert restored.upper == 5.0
    prange = PruneRange("x", 2.0, math.inf)
    restored = PruneRange.from_dict(prange.to_dict())
    assert restored.upper == math.inf


def test_with_files_copies_without_aliasing():
    template = _template()
    clone = template.with_files(["s3://b/1.lpq"])
    clone.columns.append("zzz")
    assert "zzz" not in template.columns
    assert clone.files == ["s3://b/1.lpq"]
    assert template.files == []


def test_partition_files_balanced():
    plan = _template().with_files([f"s3://b/{i}.lpq" for i in range(10)])
    assignments = plan.partition_files(4)
    assert sum(len(files) for files in assignments) == 10
    sizes = sorted(len(files) for files in assignments)
    assert sizes[-1] - sizes[0] <= 1


def test_partition_files_more_workers_than_files():
    plan = _template().with_files(["s3://b/0.lpq", "s3://b/1.lpq"])
    assignments = plan.partition_files(8)
    assert len(assignments) == 2  # empty workers are dropped


def test_partition_files_rejects_nonpositive():
    plan = _template().with_files(["s3://b/0"])
    with pytest.raises(InvalidPlanError):
        plan.partition_files(0)


def test_worker_plans_have_distinct_files():
    plan = _template().with_files([f"s3://b/{i}.lpq" for i in range(6)])
    worker_plans = plan.worker_plans(3)
    seen = [path for wp in worker_plans for path in wp.files]
    assert sorted(seen) == sorted(plan.files)
    # Dealt round-robin: worker w reads files w, w + 3, ...
    assert [wp.files for wp in worker_plans][0] == ["s3://b/0.lpq", "s3://b/3.lpq"]


def test_udf_registry_roundtrip():
    clear_udf_registry()
    fn = lambda x: x + 1  # noqa: E731
    ref = register_udf(fn)
    assert resolve_udf(ref) is fn


def test_udf_registry_unknown_reference():
    clear_udf_registry()
    with pytest.raises(InvalidPlanError):
        resolve_udf("udf-unknown")


def test_udf_references_are_unique():
    clear_udf_registry()
    first = register_udf(lambda x: x)
    second = register_udf(lambda x: x * 2)
    assert first != second


# ---------------------------------------------------------------------------
# Zero-stage DAG plans (repartitioned aggregation)
# ---------------------------------------------------------------------------


def _aggregating_side() -> WorkerPlan:
    return WorkerPlan(
        files=["s3://b/0.lpq", "s3://b/1.lpq", "s3://b/2.lpq"],
        key="g",
        columns=["g", "h", "v"],
        predicate=col("v") > 1,
        prune_ranges=[PruneRange("v", 1, math.inf)],
        group_by=["g", "h"],
        aggregates=[AggregateSpec("sum", col("v"), "s"), AggregateSpec("count", None, "n")],
    )


def _zero_stage_plan() -> DagPhysicalPlan:
    return DagPhysicalPlan(
        base=_aggregating_side(),
        stages=[],
        driver=DriverPlan(group_by=["g", "h"], order_by=["g"]),
        group_by=["g", "h"],
        aggregates=[AggregateSpec("sum", col("s"), "s"), AggregateSpec("sum", col("n"), "n")],
    )


def test_join_side_plan_roundtrips_its_partial_aggregate_fragment():
    side = _aggregating_side()
    restored = WorkerPlan.from_dict(side.to_dict())
    assert restored.files == side.files and restored.key == "g"
    assert restored.columns == side.columns
    assert restored.predicate.equals(side.predicate)
    assert restored.prune_ranges == side.prune_ranges
    assert restored.group_by == ["g", "h"]
    assert [spec.to_dict() for spec in restored.aggregates] == [
        spec.to_dict() for spec in side.aggregates
    ]
    # An aggregating fragment partitions by every group key, a plain one by
    # its join key; fragments serialised before the extension still load.
    assert restored.partition_keys == ["g", "h"]
    plain = WorkerPlan.from_dict({"files": ["s3://b/0.lpq"], "key": "k"})
    assert plain.group_by == [] and plain.aggregates == []
    assert plain.partition_keys == ["k"]
    # Likewise the side's stored size: absent in an old payload means unknown.
    assert (side.input_bytes, plain.input_bytes) == (0, 0)
    sized = dataclasses.replace(side, input_bytes=12345)
    assert WorkerPlan.from_dict(sized.to_dict()).input_bytes == 12345
    # A fragment without a join key feeds no exchange: nothing routes its rows.
    assert dataclasses.replace(side, key=None).partition_keys == []


def test_zero_stage_dag_describes_a_scan_wave_and_a_merge_wave():
    plan = _zero_stage_plan()
    assert plan.has_exchange
    waves = plan.waves()
    assert [wave["kind"] for wave in waves] == ["map", "merge"]
    (fleet,) = waves[0]["fleets"]
    assert (fleet["tag"], fleet["files"], fleet["group_by"]) == ("L", 3, ["g", "h"])
    assert waves[1]["group_by"] == ["g", "h"]
    explained = plan.explain()
    assert "0 join stage(s)" in explained
    assert "fleet L: 3 file(s), partial aggregate, partition by g, h" in explained
    assert "wave 1: merge partials by g, h" in explained
    assert "final: group_by=['g', 'h']" in explained
    assert "join stage 0" not in explained


def test_zero_stage_dag_costs_one_exchange():
    """The merge wave reads what the one fleet wrote: one exchange, where a
    join stage over the same fleet adds its build fleet and its own."""
    plan = _zero_stage_plan()
    cost = plan.estimated_cost(num_workers=8)
    assert cost > 0.0
    assert cost == plan.estimated_cost(num_workers=3)  # fleets shrink to their files
    joined = DagPhysicalPlan(
        base=plan.base,
        stages=[DagJoinStage(left_key="g", right=WorkerPlan(files=["s3://b/r.lpq"], key="k"))],
        driver=DriverPlan(),
    )
    assert joined.estimated_cost(num_workers=8) > cost


def test_dag_without_stages_requires_an_aggregating_base():
    with pytest.raises(InvalidPlanError):
        DagPhysicalPlan(
            base=WorkerPlan(files=["s3://b/0.lpq"], key="k"), stages=[], driver=DriverPlan()
        )
