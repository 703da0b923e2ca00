"""Tests for the exchange cost models (Table 2 / Figure 9)."""


import pytest

from repro.exchange.cost_model import (
    EXCHANGE_VARIANTS,
    ExchangeCostModel,
    exchange_cost,
    request_counts,
    worker_cost_band,
)


def test_one_level_counts_are_quadratic():
    counts = request_counts("1l", 1000)
    assert counts["reads"] == pytest.approx(1000 ** 2)
    assert counts["writes"] == pytest.approx(1000 ** 2)
    assert counts["scans"] == 1


def test_one_level_write_combining_reduces_writes_to_p():
    counts = request_counts("1l-wc", 1000)
    assert counts["reads"] == pytest.approx(1000 ** 2)
    assert counts["writes"] == pytest.approx(1000)


def test_two_level_counts():
    counts = request_counts("2l", 1024)
    assert counts["reads"] == pytest.approx(2 * 1024 * 32)
    assert counts["writes"] == pytest.approx(2 * 1024 * 32)
    assert counts["scans"] == 2


def test_two_level_write_combining():
    counts = request_counts("2l-wc", 1024)
    assert counts["writes"] == pytest.approx(2 * 1024)
    assert counts["reads"] == pytest.approx(2 * 1024 * 32)


def test_three_level_counts():
    counts = request_counts("3l", 4096)
    assert counts["reads"] == pytest.approx(3 * 4096 * 16)
    assert counts["scans"] == 3


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        request_counts("4l", 100)
    with pytest.raises(ValueError):
        request_counts("1l", 0)


def test_request_counts_monotone_in_variant_level():
    """At large P, more levels always means fewer requests."""
    for P in (1024, 4096, 16384):
        one = request_counts("1l", P)["reads"]
        two = request_counts("2l", P)["reads"]
        three = request_counts("3l", P)["reads"]
        assert three < two < one


def test_figure9_ordering_matches_paper():
    """Figure 9: per-worker cost ordering 1l > 1l-wc > 2l > 2l-wc > 3l-wc at 4k workers."""
    costs = {variant: exchange_cost(variant, 4096)["cost_per_worker"] for variant in EXCHANGE_VARIANTS}
    assert costs["1l"] > costs["1l-wc"]
    assert costs["1l-wc"] > costs["2l"]
    assert costs["2l"] > costs["2l-wc"]
    assert costs["2l-wc"] > costs["3l-wc"]


def test_basic_exchange_cost_at_4k_workers_matches_paper():
    """§4.4.1: running BasicExchange with 4k workers costs about $100 in requests."""
    total = exchange_cost("1l", 4096)["total_cost"]
    assert 70 <= total <= 130


def test_one_level_cost_per_worker_grows_with_p():
    small = exchange_cost("1l", 64)["cost_per_worker"]
    large = exchange_cost("1l", 4096)["cost_per_worker"]
    assert large > 10 * small


def test_two_level_wc_below_worker_cost_band():
    """§4.4.4: 2l-wc brings request costs below worker costs in almost all configurations."""
    low, high = worker_cost_band("2l")
    for workers in (256, 1024, 4096):
        assert exchange_cost("2l-wc", workers)["cost_per_worker"] < high


def test_three_level_wc_negligible():
    low, high = worker_cost_band("3l")
    for workers in (64, 256, 1024, 4096, 16384):
        cost = exchange_cost("3l-wc", workers)["cost_per_worker"]
        # Always far below the upper edge of the worker-cost band, and close
        # to (or below) the lower edge even at the largest fleet sizes (the
        # per-worker LIST accounting adds a small constant term).
        assert cost < high / 10
        assert cost < 2 * low


def test_cost_model_wrapper_and_series():
    model = ExchangeCostModel()
    series = model.figure9_series((64, 256))
    assert set(series.keys()) == set(EXCHANGE_VARIANTS)
    assert set(series["1l"].keys()) == {64, 256}


def test_write_costs_dominated_by_reads_only_with_wc():
    plain = exchange_cost("2l", 1024)
    combined = exchange_cost("2l-wc", 1024)
    assert combined["write_cost"] < plain["write_cost"]
    assert combined["read_cost"] == pytest.approx(plain["read_cost"])
