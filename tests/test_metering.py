"""Tests for the usage metering ledger."""

import pytest

from repro.cloud.metering import MeteringLedger, UsageRecord
from repro.cloud.pricing import PriceList


def test_record_and_total():
    ledger = MeteringLedger()
    ledger.record("s3", "get_requests", 5)
    ledger.record("s3", "get_requests", 3)
    assert ledger.total("s3", "get_requests") == 8


def test_total_of_unknown_dimension_is_zero():
    assert MeteringLedger().total("s3", "get_requests") == 0.0


def test_negative_amount_rejected():
    with pytest.raises(ValueError):
        MeteringLedger().record("s3", "get_requests", -1)


def test_len_counts_records():
    ledger = MeteringLedger()
    ledger.record("s3", "get_requests", 1)
    ledger.record("sqs", "requests", 1)
    assert len(ledger) == 2


def test_cost_breakdown_prices_known_dimensions():
    ledger = MeteringLedger()
    ledger.record("s3", "get_requests", 1_000_000)
    ledger.record("s3", "put_requests", 1_000_000)
    breakdown = ledger.cost_breakdown()
    assert breakdown["s3.get_requests"] == pytest.approx(0.4)
    assert breakdown["s3.put_requests"] == pytest.approx(5.0)


def test_unknown_dimensions_have_zero_cost_but_appear():
    ledger = MeteringLedger()
    ledger.record("s3", "bytes_read", 12345)
    breakdown = ledger.cost_breakdown()
    assert breakdown["s3.bytes_read"] == 0.0


def test_total_cost_sums_breakdown():
    ledger = MeteringLedger()
    ledger.record("s3", "get_requests", 1_000_000)
    ledger.record("lambda", "gib_seconds", 1000)
    assert ledger.total_cost() == pytest.approx(sum(ledger.cost_breakdown().values()))


def test_lambda_gib_seconds_costed():
    ledger = MeteringLedger()
    ledger.record("lambda", "gib_seconds", 100.0)
    assert ledger.cost_breakdown()["lambda.gib_seconds"] == pytest.approx(
        100.0 * ledger.prices.lambda_gib_second
    )


def test_reset_clears_everything():
    ledger = MeteringLedger()
    ledger.record("s3", "get_requests", 10)
    ledger.reset()
    assert len(ledger) == 0
    assert ledger.total_cost() == 0.0


def test_custom_prices_flow_through():
    ledger = MeteringLedger(PriceList(s3_get_per_million=10.0))
    ledger.record("s3", "get_requests", 1_000_000)
    assert ledger.total_cost() == pytest.approx(10.0)


def test_records_iteration_preserves_order_and_fields():
    ledger = MeteringLedger()
    ledger.record("s3", "get_requests", 1, timestamp=1.5, tag="scan")
    record = next(iter(ledger.records()))
    assert isinstance(record, UsageRecord)
    assert record.service == "s3"
    assert record.timestamp == 1.5
    assert record.tag == "scan"
