"""A launch is priced once per fleet shape, and the memo changes no number.

``InvocationModel.plan`` keeps the last ``LAUNCH_PLANS_KEPT`` plans of a model
keyed by ``(workers, cold)``, and a ``LaunchPlan`` computes its start times
once and hands them out read-only.  Here every memoised answer is held to a
fresh, unmemoised computation of the same plan bit for bit — every fleet of
1…300 workers, cold and warm, every Table 1 region, all three shapes — and
the memo is checked to be read-only and bounded.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import INVOCATION_RATE_DRIVER
from repro.driver.invocation import (
    LAUNCH_PLANS_KEPT,
    FlatInvocationModel,
    InvocationModel,
    LaunchPlan,
    TreeInvocationModel,
)

REGIONS = sorted(INVOCATION_RATE_DRIVER)
SHAPES = (InvocationModel, FlatInvocationModel, TreeInvocationModel)


def _fresh(plan: LaunchPlan) -> LaunchPlan:
    """The same plan, built anew: nothing computed on it yet."""
    return dataclasses.replace(plan)


def _completions(plan: LaunchPlan) -> np.ndarray:
    """Completion times that make the drain of ``plan`` non-trivial."""
    return plan.worker_start_times() + 0.25 + (np.arange(plan.num_workers) % 7) * 0.01


@pytest.mark.parametrize("cold", [True, False])
@pytest.mark.parametrize("region", REGIONS)
@pytest.mark.parametrize("shape", SHAPES)
def test_a_memoised_launch_equals_a_fresh_computation(shape, region, cold):
    model = shape(region=region)
    for workers in range(1, 301):
        plan = model.plan(workers, cold=cold)
        assert model.plan(workers, cold=cold) is plan
        fresh = _fresh(plan)
        assert fresh == plan
        assert plan.first_generation == model.first_generation_count(workers, cold)
        assert plan.worker_start_times().tobytes() == fresh.worker_start_times().tobytes()
        assert plan.time_to_start_all == fresh.time_to_start_all
        assert plan.time_to_start_all == float(fresh.worker_start_times().max())
        assert model.time_to_start_all(workers, cold=cold) == fresh.time_to_start_all
        assert model.worker_start_times(workers, cold=cold).tobytes() == (
            fresh.worker_start_times().tobytes()
        )
        timeline, fresh_timeline = model.timeline(workers, cold=cold), fresh.timeline()
        for name in ("before_own_invocation", "own_invocation", "invoking_workers"):
            assert getattr(timeline, name).tobytes() == getattr(fresh_timeline, name).tobytes()
        completions = _completions(fresh)
        assert plan.collection(completions) == fresh.collection(completions)
        assert plan.collection(completions, pollers=1) == fresh.collection(completions, 1)


def test_start_times_are_read_only():
    plan = InvocationModel().plan(40, cold=False)
    starts = plan.worker_start_times()
    assert starts is plan.worker_start_times()
    with pytest.raises(ValueError):
        starts[0] = 0.0
    with pytest.raises(ValueError):
        starts += 1.0
    # What a caller derives from them is its own array.
    shifted = starts + 1.0
    shifted[0] = 0.0
    assert starts[0] != 0.0


def test_the_memo_is_bounded_and_per_model():
    model, other = InvocationModel(), InvocationModel()
    first = model.plan(1)
    for workers in range(1, 4 * LAUNCH_PLANS_KEPT):
        model.plan(workers, cold=workers % 2 == 0)
    assert model._plans.cache_info().currsize <= LAUNCH_PLANS_KEPT
    # A shape that fell out is priced again, to the same plan.
    assert model.plan(1) == first
    assert other._plans.cache_info().currsize == 0
    # A fixed shape keeps its own plans: one model's memo never answers for another.
    assert TreeInvocationModel().plan(10).first_generation == 4
    assert InvocationModel().plan(10).first_generation == 10


def test_an_invalid_fleet_is_never_memoised():
    model = FlatInvocationModel()
    for _ in range(2):
        with pytest.raises(ValueError):
            model.plan(0)
    assert model._plans.cache_info().currsize == 0
