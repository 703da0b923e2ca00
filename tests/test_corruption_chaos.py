"""Seeded corruption chaos: Q1/Q6 (scans) and Q3/Q12/Q14 (joins over the
shuffle plane) in all three modes under
:func:`~repro.cloud.faults.corruption_chaos_plan` storms — served S3 bodies
with flipped bytes, truncated responses, stale previous versions, and SQS
payloads with rewritten characters.  The storm cells are the conformance
matrix's (``tests/conformance.py``): a corrupted byte is detected and
recovered from, never a different answer; recovery costs at most one re-read
or re-execution per injection; clean runs report clean integrity.  A pooled
scan consults no site this storm aims at, so its four cells are the matrix's
tripwire (``excluded``): they must inject nothing until ROADMAP item 16.

Then one corruption kind at a time, at one site, deterministically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exchange.codec import decode_partition, encode_partition
from tests.conformance import (
    CHAOS_SEEDS, MODES, Cell, assert_bit_identical, baseline, check, installed, one_rule,
    run, stack,
)
from tests.test_chaos_parity import group_sum

QUERIES = ["q1", "q6", "q3", "q12", "q14"]


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("query", QUERIES)
def test_corruption_parity(query, mode, seed):
    check(Cell(query, mode=mode, storm=f"corruption-{seed}"))


def test_corruption_schedule_is_deterministic():
    """Same seed, serial mode: two runs inject the identical schedule."""
    cell = Cell("q3", storm=f"corruption-{CHAOS_SEEDS[0]}")
    outcomes = [run(cell).statistics.resilience.faults_injected for _ in range(2)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]


def test_shuffle_slice_bitflip_is_cured_by_one_reread():
    """An in-flight bitflip on a combined-object slice GET is caught by the
    per-slice crc and cured by a single re-GET — no worker re-runs."""
    env = stack(7).env
    expected, _ = group_sum(env)
    # "sender-" appears only in combined shuffle object keys, so the flip
    # lands on a reducer's ranged slice read.
    rule = one_rule("s3", "bitflip", operation="get", match="sender-", max_count=1, seed=3)
    with installed(env, rule):
        result, statistics = group_sum(env)
    assert_bit_identical(expected, result, "slice-bitflip")
    assert statistics.resilience.faults_injected == {"s3.bitflip": 1}
    integrity = statistics.integrity
    assert integrity.re_reads == 1
    assert integrity.re_executions == 0
    assert sum(integrity.mismatches.values()) == 1
    assert all(site.startswith(("slice.", "codec.")) for site in integrity.mismatches)


def test_corrupt_result_message_is_dropped_and_reexecuted():
    """A corrupted SQS result payload never contributes rows: the driver
    drops it (parse failure or digest mismatch) and re-invokes the worker."""
    shared = stack(7)
    with installed(shared.env, one_rule("sqs", "corrupt_payload", max_count=1, seed=5)):
        result = shared.driver().execute(shared.plan("q6"))
    assert_bit_identical(baseline(Cell("q6")).table, result.table, "sqs-corrupt")
    assert result.statistics.resilience.faults_injected == {"sqs.corrupt_payload": 1}
    integrity = result.statistics.integrity
    assert integrity.re_executions >= 1
    assert any(site.startswith("sqs.") for site in integrity.mismatches)


def test_scan_truncation_fails_loudly_and_is_retried():
    """A truncated dataset GET surfaces as a worker error (never a short
    table); the driver retries the worker and the result is exact."""
    shared = stack(7)
    rule = one_rule("s3", "truncate", operation="get", match="part-0", max_count=1, seed=7)
    with installed(shared.env, rule):
        result = shared.driver().execute(shared.plan("q1"))
    assert_bit_identical(baseline(Cell("q1")).table, result.table, "scan-truncate")
    assert result.statistics.resilience.faults_injected == {"s3.truncate": 1}
    assert result.statistics.resilience.retries >= 1


def test_stale_body_serves_previous_version_and_is_detected():
    """stale_body replays the retained previous version of an overwritten
    key; a checksum-verified consumer sees the mismatch, a second GET is
    served fresh."""
    env = stack(7).env
    env.s3.ensure_bucket("stale-test")
    old = encode_partition({"k": np.arange(8, dtype=np.int64)})
    new = encode_partition({"k": np.arange(100, 108, dtype=np.int64)})
    # Previous versions are only retained while a fault plan is installed
    # (the lagging-replica model), so install before the overwrite.
    rule = one_rule("s3", "stale_body", operation="get", match="stale-test", max_count=1, seed=9)
    with installed(env, rule):
        env.s3.put_object("stale-test", "obj", old)
        env.s3.put_object("stale-test", "obj", new)
        served = env.s3.get_object("stale-test", "obj").data
        # The stale body is the *old* object — internally consistent, so the
        # frame checksum alone cannot flag it ...
        assert decode_partition(served)["k"].tolist() == list(range(8))
        # ... which is why shuffle keys are attempt-suffixed and never
        # overwritten: uniqueness, not just checksums, is the defence.
        fresh = env.s3.get_object("stale-test", "obj").data
    assert decode_partition(fresh)["k"].tolist() == list(range(100, 108))
    assert env.fault_plan is None
