"""Cross-mode parity: serial, threads and processes return bit-identical
tables and the same summed scan counters, for scans at three widths and a
join at two.  The cells are the conformance matrix's (``tests/conformance.py``);
the fused scan→filter→agg kernel is also held to the classic
materialize-then-aggregate path, worker plan by worker plan."""

from __future__ import annotations

import pytest

from repro.engine.pipeline import execute_worker_plan_table
from repro.plan.optimizer import optimize
from tests.conformance import MODES, Cell, assert_bit_identical, check, stack


@pytest.mark.parametrize("num_workers", [1, 3, 8])
@pytest.mark.parametrize("query", ["q1", "q6"])
def test_scan_query_parity_across_modes(query, num_workers):
    for mode in MODES:
        check(Cell(query, mode=mode, width=num_workers))


@pytest.mark.parametrize("num_workers", [2, 4])
def test_q3_join_parity_across_modes(num_workers):
    for mode in MODES:
        check(Cell("q3", mode=mode, width=num_workers))


@pytest.mark.parametrize("num_workers", [1, 3])
@pytest.mark.parametrize("query", ["q1", "q6"])
def test_fused_kernel_matches_classic_per_worker(query, num_workers):
    """The fused single-pass kernel is bit-identical to scan+filter+aggregate."""
    shared = stack(7)
    physical, _ = optimize(shared.plan(query))
    for index, worker_plan in enumerate(physical.base.worker_plans(num_workers)):
        classic, classic_table = execute_worker_plan_table(worker_plan, shared.env.s3, fused=False)
        fused, fused_table = execute_worker_plan_table(worker_plan, shared.env.s3, fused=True)
        assert_bit_identical(classic_table, fused_table, f"worker{index}/w{num_workers}")
        for name in ("rows_scanned", "rows_after_filter"):
            assert fused.counters["scan", name] == classic.counters["scan", name]
