"""A ratchet on per-query fixed cost, independent of timing.

What a query costs the driver whatever its data — parsing, planning, pricing
the launch, dispatching, collecting and placing — is counted as the ``repro``
Python calls made on the driver's side, outside every metered function
invocation (``LambdaService._metered``: a worker's own work), under
``sys.setprofile``.  The count is deterministic, so a change that adds a step
to every query fails here before any timing shows it.  Counted for a warm Q6
(a scan) and a warm Q5 (a 5-stage join DAG) on the ``fixed_overhead`` data
at seed 7 (SF 0.002, four LINEITEM and two ORDERS files).  Run as a script
the counts were 965 and 1 987 before the launch was priced once per fleet
shape, the run placed once, the statement parsed in one pass and the result
messages built and read once, and are 664 and 1 431 since; under the tier-1
suite each reads 2 more, the two ``len(ledger)`` reads of the autouse
``invariants`` fixture's hooks.  A ceiling may only come down.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

import repro
from repro.workload import queries as q
from repro.workload import tpch

#: Ceiling of each query's driver-side ``repro`` calls, as counted under the
#: tier-1 fixtures.
CALL_CEILINGS = {"q6": 666, "q5": 1433}


def driver_calls(run) -> Counter:
    """``repro`` calls ``run()`` makes outside ``LambdaService._metered``, by
    ``(file, function)``."""
    marker = os.sep + "repro" + os.sep
    calls: Counter = Counter()
    metered = 0

    def profile(frame, event, arg):
        nonlocal metered
        code = frame.f_code
        if code.co_name == "_metered" and code.co_filename.endswith("lambda_service.py"):
            metered += {"call": 1, "return": -1}.get(event, 0)
        elif event == "call" and not metered and marker in code.co_filename:
            calls[code.co_filename.rpartition(marker)[2], code.co_name] += 1

    # Put back whatever hook was armed before, not None: switching it off
    # would blind an outer recorder for every later test.
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def fixed_overhead_session() -> repro.Session:
    """A session over the ``fixed_overhead`` workload's tables at seed 7."""
    env = repro.CloudEnvironment.create()
    session = repro.connect(env)
    files = {"lineitem": {"num_files": 4}, "orders": {"num_files": 2}}
    for relation in ("lineitem", "orders", "customer", "supplier", "nation", "region", "part"):
        write = getattr(tpch, f"generate_{relation}_dataset")
        session.register(write(env.s3, scale_factor=0.002, seed=7, **files.get(relation, {})))
    return session


@pytest.fixture(scope="module")
def session():
    session = fixed_overhead_session()
    yield session
    session.close()


@pytest.mark.parametrize("name", ["q6", "q5"])
def test_a_warm_query_stays_inside_its_driver_call_budget(session, name):
    text = getattr(q, f"{name}_sql")()
    session.sql(text)
    session.sql(text)  # warm: functions deployed, instances and caches warm
    calls = driver_calls(lambda: session.sql(text))
    assert sum(calls.values()) <= CALL_CEILINGS[name], calls.most_common(12)
