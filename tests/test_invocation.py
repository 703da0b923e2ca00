"""Tests for the invocation strategies (flat, the paper's ⌈√P⌉ tree, and the
priced launch the driver uses; Figure 5)."""

import dataclasses
import math

import numpy as np
import pytest

from repro.config import (
    INVOCATION_LATENCY_SECONDS,
    INVOCATION_RATE_DRIVER,
    INVOCATION_RATE_INTRA_REGION,
    LAMBDA_COLD_START_SECONDS,
    LAMBDA_WARM_START_SECONDS,
)
from repro.driver.invocation import (
    FlatInvocationModel,
    InvocationModel,
    TreeInvocationModel,
    build_invocation_tree,
)

REGIONS = ("eu", "us", "sa", "ap")
SHAPES = (FlatInvocationModel, TreeInvocationModel, InvocationModel)


def test_flat_invocation_time_matches_rates():
    """§4.2: invoking 1000 workers from the driver alone takes 3.4-4.4 s
    (plus the cold-start delay of the functions themselves)."""
    for region in ("eu", "us", "sa", "ap"):
        model = FlatInvocationModel(region=region)
        initiation_seconds = 1000 / model.rate
        assert 3.3 <= initiation_seconds <= 4.6
        assert initiation_seconds <= model.time_to_start_all(1000) <= initiation_seconds + 1.5


def test_flat_invocation_scales_linearly():
    model = FlatInvocationModel()
    assert model.time_to_start_all(4096) > 3.0 * model.time_to_start_all(1024)


def test_tree_first_generation_is_sqrt():
    """The paper's fixed shape keeps ⌈√P⌉ parents; the priced shape starts a
    small fleet in one hop and a large one with ≈ 1.9 √P parents (the driver
    invokes 294/s, a worker 81/s, so parents are cheaper than children)."""
    assert TreeInvocationModel.first_generation_count(4096) == 64
    assert TreeInvocationModel.first_generation_count(1000) == 32
    assert TreeInvocationModel.first_generation_count(1) == 1

    priced = InvocationModel(region="eu")
    for workers in (1, 4, 19, 29):
        assert priced.first_generation_count(workers, cold=False) == workers
    for workers in (1, 29, 250):
        assert priced.first_generation_count(workers, cold=True) == workers
    # The crossover: the driver's 30th (251st) invocation would land after the
    # first worker could have started it, so that worker does.
    assert priced.first_generation_count(30, cold=False) == 29
    assert priced.first_generation_count(251, cold=True) == 250
    assert priced.first_generation_count(100, cold=False) == 21
    assert priced.first_generation_count(4096) == 121
    assert priced.first_generation_count(4096) == pytest.approx(
        math.sqrt(4096 * 294.0 / 81.0), rel=0.02
    )
    assert priced.time_to_start_all(4096) < 3.0


def test_tree_starts_4k_workers_in_about_3_seconds():
    """§4.2 / Figure 5: the last of 4096 workers is initiated after ~2.5 s and
    the whole fleet is running in well under 4 s (vs 13-18 s flat)."""
    tree = TreeInvocationModel(region="eu")
    timeline = tree.timeline(4096)
    assert timeline.all_started_at <= 3.5
    assert tree.time_to_start_all(4096) <= 4.5
    flat = FlatInvocationModel(region="eu").time_to_start_all(4096)
    assert flat > 13.0
    assert tree.time_to_start_all(4096) < flat / 3


def test_tree_faster_than_flat_for_large_fleets():
    """The tree wins for large fleets; for small fleets the extra level of
    invocation latency makes the flat strategy competitive."""
    tree = TreeInvocationModel()
    flat = FlatInvocationModel()
    for workers in (1024, 4096, 16384):
        assert tree.time_to_start_all(workers) < flat.time_to_start_all(workers)


def test_timeline_arrays_are_consistent():
    timeline = TreeInvocationModel().timeline(1000)
    first_gen = TreeInvocationModel.first_generation_count(1000)
    assert len(timeline.before_own_invocation) == first_gen
    assert len(timeline.own_invocation) == first_gen
    assert len(timeline.invoking_workers) == first_gen
    # The driver initiates invocations one after the other.
    assert np.all(np.diff(timeline.before_own_invocation) > 0)


def test_timeline_children_split_evenly():
    timeline = TreeInvocationModel().timeline(4096)
    invoking = timeline.invoking_workers
    assert invoking.max() - invoking.min() <= 1.0 / 81.0 + 1e-9  # at most one child difference


def test_worker_start_times_cover_all_workers():
    model = TreeInvocationModel()
    starts = model.worker_start_times(500)
    assert len(starts) == 500
    assert np.all(starts >= 0)
    assert starts.max() <= model.time_to_start_all(500) + 1e-9


def test_warm_starts_are_faster():
    model = TreeInvocationModel()
    assert model.time_to_start_all(1024, cold=False) < model.time_to_start_all(1024, cold=True)


def test_invalid_worker_counts_rejected():
    with pytest.raises(ValueError):
        FlatInvocationModel().time_to_start_all(0)
    with pytest.raises(ValueError):
        TreeInvocationModel.first_generation_count(0)
    with pytest.raises(ValueError):
        FlatInvocationModel(region="nowhere")
    with pytest.raises(ValueError):
        TreeInvocationModel(region="nowhere")


# -- functional tree builder ------------------------------------------------------------

def _delivered(tree):
    seen = [parent["worker_id"] for parent in tree]
    for parent in tree:
        seen.extend(child["worker_id"] for child in parent["children"])
    return seen


def test_build_tree_assigns_all_payloads_once():
    payloads = [{"worker_id": i} for i in range(10)]
    # Ten workers are below the crossover: ten roots, nobody has children.
    tree = build_invocation_tree(payloads)
    assert len(tree) == 10
    assert not any(parent["children"] for parent in tree)
    assert _delivered(tree) == list(range(10))
    # The same payloads in the paper's fixed shape.
    tree = build_invocation_tree(payloads, TreeInvocationModel().plan(10))
    assert len(tree) == 4  # ceil(sqrt(10))
    assert sorted(_delivered(tree)) == list(range(10))
    # A priced fleet above the crossover nests, in the order the plan charges:
    # child n of the fleet is dealt to parent n mod first_generation.
    payloads = [{"worker_id": i} for i in range(400)]
    plan = InvocationModel().plan(400)
    tree = build_invocation_tree(payloads, plan)
    assert len(tree) == plan.first_generation == 37
    assert sorted(_delivered(tree)) == list(range(400))
    assert [child["worker_id"] for child in tree[0]["children"]][:2] == [37, 74]
    with pytest.raises(ValueError):
        build_invocation_tree(payloads[:399], plan)


def test_build_tree_balanced_children():
    tree = build_invocation_tree([{"worker_id": i} for i in range(100)])
    child_counts = [len(parent["children"]) for parent in tree]
    assert max(child_counts) - min(child_counts) <= 1


def test_build_tree_single_worker():
    tree = build_invocation_tree([{"worker_id": 0}])
    assert len(tree) == 1
    assert tree[0]["children"] == []


def test_build_tree_empty():
    assert build_invocation_tree([]) == []


def test_build_tree_does_not_mutate_inputs():
    payloads = [{"worker_id": i} for i in range(5)]
    build_invocation_tree(payloads)
    assert all("children" not in payload for payload in payloads)


# -- one launch arithmetic ------------------------------------------------------------------

def _reference_start_times(num_workers, first_generation, region, cold):
    """Per-worker start times, one worker at a time (the loop the vectorised
    ``LaunchPlan.worker_start_times`` replaced)."""
    driver_rate = INVOCATION_RATE_DRIVER[region]
    worker_rate = INVOCATION_RATE_INTRA_REGION[region]
    latency = INVOCATION_LATENCY_SECONDS[region]
    startup = LAMBDA_COLD_START_SECONDS if cold else LAMBDA_WARM_START_SECONDS
    starts = [
        index / driver_rate + (latency + startup) for index in range(first_generation)
    ]
    invoked = [0] * first_generation
    for child in range(num_workers - first_generation):
        parent = child % first_generation
        invoked[parent] += 1
        starts.append(
            starts[parent] + invoked[parent] / worker_rate + latency + startup
        )
    return starts


@pytest.mark.parametrize("cold", [True, False])
@pytest.mark.parametrize("region", REGIONS)
def test_every_shape_goes_through_one_start_time_formula(region, cold):
    models = [shape(region=region) for shape in SHAPES]
    for workers in range(1, 301):
        last = []
        for model in models:
            starts = model.worker_start_times(workers, cold=cold)
            assert len(starts) == workers
            assert model.time_to_start_all(workers, cold=cold) == starts.max()
            reference = _reference_start_times(
                workers, model.first_generation_count(workers, cold), region, cold
            )
            assert starts.tolist() == reference
            last.append(starts.max())
        flat, tree, priced = last
        assert priced <= min(flat, tree)


@pytest.mark.parametrize("cold", [True, False])
@pytest.mark.parametrize("region", REGIONS)
def test_a_fleet_of_one_costs_one_hop(region, cold):
    hop = INVOCATION_LATENCY_SECONDS[region] + (
        LAMBDA_COLD_START_SECONDS if cold else LAMBDA_WARM_START_SECONDS
    )
    for shape in SHAPES:
        assert shape(region=region).time_to_start_all(1, cold=cold) == hop
    # Two workers in the ⌈√P⌉ shape are two roots: no second hop either.
    assert TreeInvocationModel(region=region).time_to_start_all(
        2, cold=cold
    ) == pytest.approx(1 / INVOCATION_RATE_DRIVER[region] + hop)


def test_flat_launch_ends_when_its_last_worker_starts():
    model = FlatInvocationModel()
    assert model.time_to_start_all(100) == pytest.approx(
        99 / model.rate + model.latency + LAMBDA_COLD_START_SECONDS
    )


def test_paper_tree_reproduces_figure5_to_the_last_digit():
    tree = TreeInvocationModel(region="eu")
    assert tree.time_to_start_all(4096, cold=True) == 2.664063492063492
    assert tree.time_to_start_all(4096, cold=False) == 1.164063492063492
    assert tree.time_to_start_all(1000, cold=True) == 2.147812547241119


def _brute_force(model, workers, cold):
    """First-generation count by trying every one through ``LaunchPlan``."""
    plan = model.plan(workers, cold)
    seconds = [
        dataclasses.replace(plan, first_generation=count).time_to_start_all
        for count in range(1, workers + 1)
    ]
    return plan, seconds


@pytest.mark.parametrize("cold", [True, False])
@pytest.mark.parametrize("region", REGIONS)
def test_priced_first_generation_is_the_brute_force_argmin(region, cold):
    model = InvocationModel(region=region)
    sizes = list(range(1, 129)) if region == "eu" else list(range(1, 129, 7))
    sizes += [251, 311, 500, 1000, 2048, 4096] if region == "eu" else [500, 4096]
    for workers in sizes:
        plan, seconds = _brute_force(model, workers, cold)
        best = min(seconds)
        assert plan.time_to_start_all == pytest.approx(best, abs=1e-12)
        # The smallest count wins a tie.
        assert plan.first_generation == 1 + next(
            index for index, value in enumerate(seconds)
            if value <= best + 1e-12
        )


@pytest.mark.parametrize("cold", [True, False])
def test_priced_shape_beats_its_neighbours_for_every_fleet_up_to_4096(cold):
    model = InvocationModel(region="eu")
    flat = FlatInvocationModel(region="eu")
    tree = TreeInvocationModel(region="eu")
    nested = []
    for workers in range(1, 4097):
        plan = model.plan(workers, cold)
        chosen = plan.time_to_start_all
        for count in {
            1, plan.first_generation - 1, plan.first_generation + 1,
            round(1.9 * math.sqrt(workers)),
        }:
            if 1 <= count <= workers:
                other = dataclasses.replace(plan, first_generation=count)
                assert chosen <= other.time_to_start_all + 1e-12
        assert chosen <= flat.time_to_start_all(workers, cold) + 1e-12
        assert chosen <= tree.time_to_start_all(workers, cold) + 1e-12
        nested.append(plan.first_generation < workers)
    # One crossover: flat below it, nested from there on.
    crossover = nested.index(True) + 1
    assert crossover == (251 if cold else 30)
    assert all(nested[crossover - 1:]) and not any(nested[: crossover - 1])
