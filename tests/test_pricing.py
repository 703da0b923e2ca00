"""Tests for the price tables (calibrated against the paper's quoted numbers)."""

import pytest

from repro.cloud.pricing import DEFAULT_PRICES, PriceList, WORKER_2GIB_PER_SECOND
from repro.config import GiB, TiB


def test_worker_2gib_price_matches_paper():
    # §4.4.4 quotes $3.3e-5 per second for a 2 GiB worker.
    assert WORKER_2GIB_PER_SECOND == pytest.approx(3.3e-5, rel=0.05)


def test_s3_request_prices_match_paper():
    # §4.4.1: 1M read and write requests cost $0.4 and $5 respectively.
    assert DEFAULT_PRICES.s3_get_cost(1_000_000) == pytest.approx(0.4)
    assert DEFAULT_PRICES.s3_put_cost(1_000_000) == pytest.approx(5.0)


def test_qaas_price_per_tib():
    # §5.4.1: both QaaS systems charge $5 per TiB scanned.
    assert DEFAULT_PRICES.qaas_scan_cost(TiB) == pytest.approx(5.0)


def test_lambda_duration_cost_scales_with_memory():
    small = DEFAULT_PRICES.lambda_duration_cost(1024, 10.0)
    large = DEFAULT_PRICES.lambda_duration_cost(2048, 10.0)
    assert large == pytest.approx(2 * small)


def test_lambda_duration_cost_scales_with_time():
    one = DEFAULT_PRICES.lambda_duration_cost(2048, 1.0)
    ten = DEFAULT_PRICES.lambda_duration_cost(2048, 10.0)
    assert ten == pytest.approx(10 * one)


def test_lambda_invocation_cost():
    assert DEFAULT_PRICES.lambda_invocation_cost(1_000_000) == pytest.approx(0.20)


def test_sqs_cost():
    assert DEFAULT_PRICES.sqs_cost(2_000_000) == pytest.approx(0.80)


def test_dynamodb_cost_reads_cheaper_than_writes():
    assert DEFAULT_PRICES.dynamodb_read_per_million < DEFAULT_PRICES.dynamodb_write_per_million


def test_vm_cost_scales_with_count_and_hours():
    one = DEFAULT_PRICES.vm_cost("c5n.xlarge", 1.0, 1)
    many = DEFAULT_PRICES.vm_cost("c5n.xlarge", 2.0, 3)
    assert many == pytest.approx(6 * one)


def test_vm_cost_unknown_type_raises():
    with pytest.raises(KeyError):
        DEFAULT_PRICES.vm_cost("m1.tiny", 1.0)


def test_custom_price_list_is_used():
    prices = PriceList(s3_get_per_million=1.0)
    assert prices.s3_get_cost(1_000_000) == pytest.approx(1.0)


def test_zero_usage_costs_nothing():
    assert DEFAULT_PRICES.s3_get_cost(0) == 0.0
    assert DEFAULT_PRICES.lambda_duration_cost(2048, 0.0) == 0.0
    assert DEFAULT_PRICES.qaas_scan_cost(0.0) == 0.0
