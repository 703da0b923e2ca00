"""N-way DAG parity fuzz: five TPC-H join queries x modes x dataset seeds.

Every multi-wave DAG plan (Q5, Q7, Q9, Q10, Q18) must be bit-identical to a
single-pass NumPy reference over the raw generator tables, in every execution
mode (serial, threads, processes) and for more than one dataset seed — the
join order, wave partitioning, and partial-aggregate merge must not leak into
the result.  The measures are exact in float64 (see the fixed-point note in
:mod:`repro.workload.queries`), so "bit-identical" is a hard equality, not a
tolerance.

On top of the clean-run matrix, the DAG scheduler's fault story is pinned on
Q5 (the deepest plan, five stages):

* under :func:`~repro.cloud.faults.chaos_plan`, wave retries must converge to
  the fault-free result and leave zero orphaned exchange objects;
* a cancellation landing mid-DAG — after waves already wrote into the
  exchange — must garbage-collect every tag's objects and leave the next
  query over the same environment bit-identical to the baseline.
"""

from __future__ import annotations

import pytest

import repro
import repro.driver.shuffle as shuffle_module
from repro.cloud.environment import CloudEnvironment
from repro.cloud.faults import chaos_plan
from repro.driver.admission import CancellationToken
from repro.driver.driver import LambadaDriver
from repro.driver.resilience import ResiliencePolicy
from repro.driver.shuffle import _exchange_buckets
from repro.errors import QueryCancelledError
from repro.frontend.sql import parse_sql
from repro.workload.queries import (
    q5_sql,
    q7_sql,
    q9_sql,
    q10_sql,
    q18_sql,
    reference_q5,
    reference_q7,
    reference_q9,
    reference_q10,
    reference_q18,
    tpch_catalog,
)
from repro.workload.tpch import (
    CustomerGenerator,
    LineitemGenerator,
    NationGenerator,
    OrdersGenerator,
    PartGenerator,
    RegionGenerator,
    SupplierGenerator,
    generate_customer_dataset,
    generate_lineitem_dataset,
    generate_nation_dataset,
    generate_orders_dataset,
    generate_part_dataset,
    generate_region_dataset,
    generate_supplier_dataset,
)

from tests.conftest import leaked_segments
from tests.test_mode_parity import assert_bit_identical

SF = 0.002
DATA_SEEDS = (7, 11)
SQL = {"q5": q5_sql, "q7": q7_sql, "q9": q9_sql, "q10": q10_sql, "q18": q18_sql}
QUERIES = list(SQL)
MODES = ["serial", "threads", "processes"]

CHAOS_SEEDS = (11, 23)
CHAOS_RATE = 0.2
MAX_FAULTS = 2
CHAOS_POLICY = ResiliencePolicy(max_attempts=14)

NUM_BUCKETS = 10  # the join coordinator's default exchange width


def _exchange_object_count(env) -> int:
    """Objects across the join exchange's buckets (query-independent)."""
    total = 0
    for bucket in _exchange_buckets(NUM_BUCKETS):
        env.s3.ensure_bucket(bucket)
        total += len(env.s3.list_objects(bucket))
    return total


@pytest.fixture(scope="module", params=DATA_SEEDS, ids=lambda s: f"data{s}")
def stack(request):
    """One environment per dataset seed, with all seven TPC-H relations."""
    seed = request.param
    env = CloudEnvironment.create(region="eu")
    datasets = {
        "lineitem": generate_lineitem_dataset(
            env.s3, scale_factor=SF, num_files=4, seed=seed
        ),
        "orders": generate_orders_dataset(
            env.s3, scale_factor=SF, num_files=2, seed=seed
        ),
        "customer": generate_customer_dataset(env.s3, scale_factor=SF, seed=seed),
        "supplier": generate_supplier_dataset(env.s3, scale_factor=SF, seed=seed),
        "part": generate_part_dataset(env.s3, scale_factor=SF, seed=seed),
        "nation": generate_nation_dataset(env.s3, scale_factor=SF, seed=seed),
        "region": generate_region_dataset(env.s3, scale_factor=SF, seed=seed),
    }
    tables = {
        "lineitem": LineitemGenerator(SF, seed=seed).generate(),
        "orders": OrdersGenerator(SF, seed=seed).generate(),
        "customer": CustomerGenerator(SF, seed=seed).generate(),
        "supplier": SupplierGenerator(SF, seed=seed).generate(),
        "part": PartGenerator(SF, seed=seed).generate(),
        "nation": NationGenerator(SF, seed=seed).generate(),
        "region": RegionGenerator(SF, seed=seed).generate(),
    }
    return env, datasets, tables


@pytest.fixture(scope="module")
def plans(stack):
    _, d, _ = stack
    catalog = tpch_catalog(**{name: dataset.paths for name, dataset in d.items()})
    return {query: parse_sql(sql(), catalog) for query, sql in SQL.items()}


@pytest.fixture(scope="module")
def references(stack):
    _, _, t = stack
    return {
        "q5": reference_q5(t["lineitem"], t["orders"], t["customer"],
                           t["supplier"], t["nation"], t["region"]),
        "q7": reference_q7(t["lineitem"], t["orders"], t["customer"],
                           t["supplier"]),
        "q9": reference_q9(t["lineitem"], t["part"], t["supplier"],
                           t["orders"], t["nation"]),
        "q10": reference_q10(t["lineitem"], t["orders"], t["customer"],
                             t["nation"]),
        "q18": reference_q18(t["lineitem"], t["orders"], t["customer"]),
    }


@pytest.fixture(scope="module")
def drivers(stack):
    env = stack[0]
    serial = LambadaDriver(env, resilience_policy=CHAOS_POLICY)
    threads = LambadaDriver(
        env, execution_mode="threads", resilience_policy=CHAOS_POLICY
    )
    processes = LambadaDriver(
        env,
        execution_mode="processes",
        max_parallel_invocations=2,
        resilience_policy=CHAOS_POLICY,
    )
    yield {"serial": serial, "threads": threads, "processes": processes}
    processes.close()


# ---------------------------------------------------------------------------
# Clean-run parity matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("query", QUERIES)
def test_dag_parity(stack, plans, references, drivers, query, mode):
    env = stack[0]
    result = drivers[mode].execute(plans[query])

    label = f"{query}/{mode}"
    assert_bit_identical(references[query], result.table, label)

    stats = result.statistics
    assert stats.dag_stages >= 2, f"{label}: expected a multi-stage DAG"
    assert stats.resilience.clean, f"{label}: clean run reported faults"
    # The write-combined exchange discovers inputs through the result-queue
    # barrier; a DAG wave never issues a LIST or HEAD.
    exchange = stats.exchange
    assert exchange.list_requests + exchange.head_requests == 0, (
        f"{label}: {exchange.list_requests} LIST + "
        f"{exchange.head_requests} HEAD discovery requests"
    )
    # Every wave's consumed inputs were deleted by their announced paths.
    assert stats.gc_objects_deleted >= 1, f"{label}: nothing was gc'd"
    assert _exchange_object_count(env) == 0, f"{label}: orphaned exchange objects"
    assert leaked_segments() == []


# ---------------------------------------------------------------------------
# The same five queries through the public facade (Session.sql)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def facade(stack):
    env, datasets, _ = stack
    session = repro.connect(env)
    for dataset in datasets.values():
        session.register(dataset)
    return session


@pytest.mark.parametrize("query", QUERIES)
def test_dag_parity_via_session_sql(references, facade, query):
    result = facade.sql(SQL[query]())
    assert_bit_identical(references[query], result.table, f"{query}/session.sql")
    assert result.statistics.dag_stages >= 2
    assert "join order" in result.explain()


# ---------------------------------------------------------------------------
# Q5 under chaos: wave retries converge, no orphans
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def q5_baseline(plans, drivers):
    result = drivers["serial"].execute(plans["q5"])
    assert result.statistics.resilience.clean
    return result


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_q5_chaos_parity(stack, plans, drivers, q5_baseline, seed):
    env = stack[0]
    env.install_fault_plan(
        chaos_plan(seed=seed, rate=CHAOS_RATE, max_count=MAX_FAULTS)
    )
    try:
        result = drivers["serial"].execute(plans["q5"])
    finally:
        env.install_fault_plan(None)

    label = f"q5/chaos-seed{seed}"
    assert_bit_identical(q5_baseline.table, result.table, label)

    resilience = result.statistics.resilience
    assert resilience.faults_injected, f"{label}: no faults injected"
    assert sum(resilience.faults_injected.values()) <= 9 * MAX_FAULTS
    # Retried waves write under bumped attempt prefixes; the post-fault
    # sweep must still leave the shared exchange buckets empty.
    assert _exchange_object_count(env) == 0, f"{label}: orphaned exchange objects"
    assert leaked_segments() == []


# ---------------------------------------------------------------------------
# Q5 cancellation: mid-DAG unwind garbage-collects every tag
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stage", ["join map", "join"])
def test_q5_cancel_mid_dag_gcs_exchange_state(
    stack, plans, drivers, q5_baseline, monkeypatch, stage
):
    """Cancelled after a DAG wave ran — at ``join`` the fused join wave has
    already read the exchange and posted its results — every tag's objects
    are swept, and a rerun over the same environment is bit-identical to the
    baseline.  (Cancellation *between* join waves, with intermediates in the
    exchange, needs an unfused run: ``tests/test_join_wave_fusion.py``.)"""
    env = stack[0]
    before = _exchange_object_count(env)
    deleted = []
    original = shuffle_module._gc_cancelled_query

    def spy(*args, **kwargs):
        count = original(*args, **kwargs)
        deleted.append(count)
        return count

    monkeypatch.setattr(shuffle_module, "_gc_cancelled_query", spy)

    token = CancellationToken(cancel_at_stage=stage)
    with pytest.raises(QueryCancelledError) as excinfo:
        drivers["serial"].execute(plans["q5"], cancel=token)

    assert excinfo.value.stage == stage
    assert token.observed_stage == stage
    # The cancelled waves had already written exchange objects; GC had work.
    assert deleted and deleted[0] >= 1, f"{stage}: cancellation gc'd nothing"
    assert _exchange_object_count(env) == before
    assert env.sqs.approximate_message_count(drivers["serial"].result_queue) == 0
    assert leaked_segments() == []

    rerun = drivers["serial"].execute(plans["q5"])
    assert_bit_identical(q5_baseline.table, rerun.table, f"post-cancel rerun ({stage})")
