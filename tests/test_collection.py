"""Result collection priced from Table 1: the long-poll drain of the result
queue (``CollectionPlan``), its bounds, its bookkeeping, a per-message
reference, how the number of pollers is priced, and the two paper-scale
readings the README quotes.

Two things that look like properties are *not* asserted, because the drain is
a scheduling problem with anomalies: more pollers can finish later (each
grabs a lone message the moment it shows and is then a round trip away when
the burst arrives), and delaying one completion can finish earlier.  The
priced count is therefore a plain argmin over every allowed count, and is
tested as one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import PaperScaleModel
from repro.config import DRIVER_INVOKER_THREADS, INVOCATION_LATENCY_SECONDS
from repro.driver.invocation import (
    SQS_RECEIVE_BATCH,
    CollectionPlan,
    InvocationModel,
    plan_collection,
)

REGIONS = sorted(INVOCATION_LATENCY_SECONDS)


@st.composite
def completion_vectors(draw):
    """Up to 400 completion times on a grid coarse enough that ties — and,
    with a zero step, the whole fleet finishing at once — are common."""
    step = draw(st.sampled_from([0.0, 0.0005, 0.004, 0.02, 0.3]))
    base = draw(st.floats(0.0, 3.0))
    ticks = draw(st.lists(st.integers(0, 60), min_size=1, max_size=400))
    return [base + tick * step for tick in ticks]


def reference_drain(completion, round_trip, pollers):
    """The drain written the slow way: one record per message, one scan of
    every message per receive.  Returns (finish, receives, claims a message)."""
    half = round_trip / 2
    messages = sorted(
        ({"visible": finished + half, "claims": 0} for finished in completion),
        key=lambda message: message["visible"],
    )
    at_queue = [half] * pollers  # when each poller's outstanding receive got there
    finish, receives = 0.0, 0
    while any(message["claims"] == 0 for message in messages):
        poller = at_queue.index(min(at_queue))
        first = min(m["visible"] for m in messages if m["claims"] == 0)
        served = max(at_queue[poller], first)
        carried = 0
        for message in messages:
            if message["claims"] == 0 and message["visible"] <= served and carried < 10:
                message["claims"] += 1
                carried += 1
        assert 1 <= carried <= 10
        receives += 1
        finish = served + half
        at_queue[poller] = served + round_trip
    return finish, receives, [message["claims"] for message in messages]


@settings(max_examples=200, deadline=None)
@given(
    completion=completion_vectors(),
    region=st.sampled_from(REGIONS),
    pollers=st.integers(1, DRIVER_INVOKER_THREADS),
)
def test_a_fixed_number_of_pollers_drains_within_its_bounds(completion, region, pollers):
    round_trip = INVOCATION_LATENCY_SECONDS[region]
    plan = plan_collection(completion, round_trip, pollers)
    count, last = len(completion), max(completion)
    assert plan.pollers == pollers and plan.last_completion == last

    # The last message is visible half a round trip after its worker finished
    # and in the driver's hands half a round trip after it was served; a
    # poller hands over at most ten messages per round trip.
    slack = 1e-9 * (last + round_trip)
    assert plan.finish >= last + round_trip - slack
    rounds = 1 + math.ceil(count / (SQS_RECEIVE_BATCH * pollers))
    assert plan.finish <= last + rounds * round_trip + slack
    assert plan.seconds == plan.finish - last

    # Every message is carried by exactly one receive of at most ten.
    assert sum(plan.batches) == count
    assert 1 <= min(plan.batches) and max(plan.batches) <= SQS_RECEIVE_BATCH
    assert plan.receives == len(plan.batches) >= math.ceil(count / SQS_RECEIVE_BATCH)

    finish, receives, claims = reference_drain(completion, round_trip, pollers)
    assert plan.finish == finish
    assert plan.receives == receives
    assert claims == [1] * count


@settings(max_examples=150, deadline=None)
@given(completion=completion_vectors(), region=st.sampled_from(REGIONS))
def test_the_priced_pollers_are_the_argmin_and_ties_go_to_fewer(completion, region):
    round_trip = INVOCATION_LATENCY_SECONDS[region]
    priced = plan_collection(completion, round_trip)
    most = min(DRIVER_INVOKER_THREADS, math.ceil(len(completion) / SQS_RECEIVE_BATCH))
    finishes = [
        plan_collection(completion, round_trip, pollers).finish
        for pollers in range(1, most + 1)
    ]
    assert priced.pollers == 1 + int(np.argmin(finishes))  # argmin: the first minimum
    assert priced.finish == min(finishes)
    assert priced == plan_collection(completion, round_trip, priced.pollers)
    assert priced.pollers <= DRIVER_INVOKER_THREADS
    if len(completion) <= SQS_RECEIVE_BATCH:
        assert priced.pollers == 1


def test_a_launch_plan_collects_with_its_regions_round_trip():
    for region in REGIONS:
        launch = InvocationModel(region).plan(12, cold=False)
        completion = launch.worker_start_times() + 0.5
        assert launch.collection(completion) == plan_collection(
            completion, INVOCATION_LATENCY_SECONDS[region]
        )
        assert launch.collection(completion, 3).pollers == 3


def test_a_lone_worker_costs_one_round_trip_and_one_receive():
    plan = plan_collection([1.25], 0.036)
    assert plan == CollectionPlan(
        pollers=1, batches=(1,), last_completion=1.25, finish=1.25 + 0.018 + 0.018
    )
    assert plan.seconds == pytest.approx(0.036)


def test_a_fleet_finishing_at_once_is_drained_in_full_batches():
    # One poller: four sequential receives.  Four pollers: all served the
    # moment the messages show, one round trip after the workers finished.
    one = plan_collection([2.0] * 40, 0.036, pollers=1)
    assert one.batches == (10, 10, 10, 10)
    assert one.seconds == pytest.approx(4 * 0.036)
    priced = plan_collection([2.0] * 40, 0.036)
    assert priced.pollers == 4 and priced.batches == (10, 10, 10, 10)
    assert priced.seconds == pytest.approx(0.036)


def test_bad_arguments_are_rejected():
    with pytest.raises(ValueError):
        plan_collection([], 0.036)
    with pytest.raises(ValueError):
        plan_collection([1.0], 0.036, pollers=0)


def test_paper_scale_one_poller_is_the_bottleneck_priced_pollers_are_not():
    """Q1 at SF 10k starts 3200 workers: a sequentially polling driver is
    still receiving 9.7 s after the last of them finished — about where the
    fitted 0.002 s/worker term it replaces put it — while eight concurrent
    long polls hand over the last result one round trip after it was sent."""
    round_trip = INVOCATION_LATENCY_SECONDS["eu"]
    model = PaperScaleModel(query="q1", scale_factor=10000)
    assert model.num_workers == 3200
    one = model.collection(pollers=1)
    assert one.finish == pytest.approx(14.2, abs=0.05)
    assert one.receives >= 320
    priced = model.collection()
    assert priced.pollers <= 8
    assert priced.seconds == pytest.approx(round_trip)
    assert priced.finish == pytest.approx(4.55, abs=0.01)
    assert model.latency_seconds() == priced.finish
    # One send per worker plus the receives that were served — not 2·workers.
    assert model.cost_dollars()["sqs_requests"] == model.prices.sqs_cost(
        3200 + priced.receives
    )
    assert priced.receives < 400

    # SF 1000: 320 workers, two pollers; one would add 24 ms.
    model = PaperScaleModel(query="q1", scale_factor=1000)
    assert model.collection().pollers == 2
    assert model.latency_seconds() == pytest.approx(4.05, abs=0.01)
    late = model.collection(pollers=1).finish - model.latency_seconds()
    assert late == pytest.approx(0.024, abs=0.001)
