"""Tests for the model-driven figure builders (shape checks against the paper)."""

import pytest

from repro.analysis import figures


def test_figure1a_faas_reaches_interactive_iaas_does_not():
    data = figures.figure1a_job_scoped()
    fastest_faas = min(point["seconds"] for point in data["faas"])
    fastest_iaas = min(point["seconds"] for point in data["iaas"])
    cheapest_faas = min(point["dollars"] for point in data["faas"])
    cheapest_iaas = min(point["dollars"] for point in data["iaas"])
    assert fastest_faas < 10
    assert fastest_iaas > 100
    assert cheapest_iaas < cheapest_faas


def test_figure1b_crossover_with_query_rate():
    data = figures.figure1b_always_on()
    faas = {p["queries_per_hour"]: p["dollars_per_hour"] for p in data["FaaS (S3)"]}
    dram = {p["queries_per_hour"]: p["dollars_per_hour"] for p in data["3 VMs (DRAM)"]}
    assert faas[1] < dram[1]
    assert faas[64] > dram[64]
    # Always-on cost is flat; usage-based cost grows linearly.
    assert dram[1] == dram[64]
    assert faas[64] == pytest.approx(64 * faas[1])
    assert data["QaaS (S3)"][0]["dollars_per_hour"] > faas[1]


def test_figure4_shape():
    rows = figures.figure4_compute_performance()
    by_memory = {row["memory_mib"]: row for row in rows}
    # Below 1792 MiB both thread counts are proportional to memory.
    assert by_memory[1024]["threads_1"] == pytest.approx(by_memory[1024]["threads_2"])
    assert by_memory[1024]["threads_1"] == pytest.approx(100 * 1024 / 1792, rel=1e-6)
    # At 1792 MiB the single-thread baseline is 100 %.
    assert by_memory[1792]["threads_1"] == pytest.approx(100.0)
    # Above, one thread stays at 100 % while two threads reach ~167 %.
    assert by_memory[3008]["threads_1"] == pytest.approx(100.0)
    assert by_memory[3008]["threads_2"] == pytest.approx(167.8, rel=0.01)


def test_table1_values_match_config():
    rows = figures.table1_invocation_characteristics()
    by_region = {row["region"]: row for row in rows}
    assert by_region["eu"]["single_invocation_ms"] == pytest.approx(36.0)
    assert by_region["ap"]["single_invocation_ms"] == pytest.approx(536.0)
    assert by_region["eu"]["concurrent_rate_per_s"] == pytest.approx(294.0)
    assert by_region["sa"]["intra_region_rate_per_s"] == pytest.approx(84.0)


def test_figure5_two_level_vs_flat():
    data = figures.figure5_invocation_timeline(4096)
    assert data["first_generation"] == 64
    assert data["all_started_seconds"] < 4.5
    assert data["flat_invocation_seconds"] > 13.0
    # Timeline arrays have one entry per first-generation worker.
    assert len(data["before_own_invocation"]) == 64
    assert max(data["before_own_invocation"]) < 1.0
    # The priced shape next to the published one: about twice the parents
    # (the driver invokes 3.6x faster than a worker), a little sooner.
    assert data["priced_first_generation"] == 121
    assert data["priced_all_started_seconds"] < data["all_started_seconds"]
    assert data["priced_all_started_seconds"] < 3.0
    # A fleet below the crossover: priced is the flat launch, the tree is slower.
    small = figures.figure5_invocation_timeline(16)
    assert small["priced_first_generation"] == 16
    assert small["priced_all_started_seconds"] == small["flat_invocation_seconds"]
    assert small["all_started_seconds"] > small["flat_invocation_seconds"]


def test_figure6_shape():
    data = figures.figure6_network_bandwidth()
    large = {row["memory_mib"]: row for row in data["large_files"]}
    small = {row["memory_mib"]: row for row in data["small_files"]}
    # Large files: ~90 MiB/s regardless of connection count for big workers.
    assert 60 <= large[3008]["connections_1_mib_per_s"] <= 95
    assert 60 <= large[3008]["connections_4_mib_per_s"] <= 95
    # Small files: large workers with 4 connections approach 300 MiB/s.
    assert small[3008]["connections_4_mib_per_s"] > 200
    assert small[3008]["connections_1_mib_per_s"] < 100
    # Small workers cannot burst as high.
    assert small[512]["connections_4_mib_per_s"] < small[3008]["connections_4_mib_per_s"]


def test_figure7_shape():
    rows = figures.figure7_chunk_size()
    by_chunk = {row["chunk_mib"]: row for row in rows}
    # A single connection needs 16 MiB chunks to get close to peak bandwidth.
    assert by_chunk[16.0]["connections_1_mb_per_s"] > 2.5 * by_chunk[0.5]["connections_1_mb_per_s"]
    # Four connections reach near-peak bandwidth already at 1 MiB chunks.
    assert by_chunk[1.0]["connections_4_mb_per_s"] > 0.8 * by_chunk[16.0]["connections_4_mb_per_s"]
    # Request cost is inversely proportional to the chunk size and dominates
    # the worker cost for small chunks.
    assert by_chunk[0.5]["request_cost_dollars"] == pytest.approx(
        32 * by_chunk[16.0]["request_cost_dollars"], rel=0.1
    )
    assert by_chunk[0.5]["request_to_worker_cost_ratio"] > 1.0
    assert by_chunk[16.0]["request_to_worker_cost_ratio"] < 0.3


def test_table2_rows_cover_all_variants():
    rows = figures.table2_exchange_models(1024)
    variants = {row["variant"] for row in rows}
    assert variants == {"1l", "1l-wc", "2l", "2l-wc", "3l", "3l-wc"}
    by_variant = {row["variant"]: row for row in rows}
    assert by_variant["1l"]["reads"] == pytest.approx(1024 ** 2)
    assert by_variant["2l"]["reads"] == pytest.approx(2 * 1024 * 32)
    assert by_variant["2l-wc"]["writes"] == pytest.approx(2 * 1024)


def test_figure9_ordering_and_band():
    data = figures.figure9_exchange_cost()
    series = data["series"]
    # At 4096 workers the baseline is far above the optimized variants.
    assert series["1l"][4096] > 100 * series["3l-wc"][4096]
    assert series["2l-wc"][4096] < data["worker_cost_band_high"]
    # Basic exchange cost per worker grows with P; 3-level stays nearly flat.
    assert series["1l"][16384] > series["1l"][64] * 50
    assert series["3l-wc"][16384] < series["3l-wc"][64] * 3


def test_table3_lambada_beats_baselines():
    rows = figures.table3_exchange_comparison()
    lambada = {row["workers"]: row["seconds"] for row in rows if row["system"].startswith("lambada")}
    pocket_s3 = next(r["seconds"] for r in rows if r["system"] == "pocket-s3-baseline")
    pocket_vms = {r["workers"]: r["seconds"] for r in rows if r["system"] == "pocket"}
    locus = min(r["seconds"] for r in rows if r["system"].startswith("locus"))
    # ~5x faster than the S3 baseline of Pocket on 250 workers (paper: 98 s vs 22 s).
    assert lambada[250] < pocket_s3 / 2.5
    # Faster than Pocket on VMs at every fleet size.
    for workers in (250, 500, 1000):
        assert lambada[workers] < pocket_vms[workers]
    # Faster than Locus' fastest configuration.
    assert lambada[250] < locus


def test_figure13_straggler_behaviour():
    data = figures.figure13_exchange_breakdown()
    one_tb = data["1TB"]
    three_tb = data["3TB"]
    # §5.5: 1 TB takes ~56 s end to end; 3 TB takes ~159 s.
    assert 35 <= one_tb["total_seconds"] <= 85
    assert 100 <= three_tb["total_seconds"] <= 260
    # The 1 TB run is close to its lower bound; the 3 TB run is dominated by waiting.
    assert one_tb["fastest_worker_seconds"] > 0.6 * one_tb["total_seconds"]
    assert three_tb["total_seconds"] > 1.8 * three_tb["lower_bound_seconds"]
    # Straggler tails: slowest write 4x the median at 3 TB, mild at 1 TB.
    write_1tb = one_tb["phases"]["Round 1 write"]
    write_3tb = three_tb["phases"]["Round 1 write"]
    assert write_1tb["slowest"] / write_1tb["median"] < 2.0
    assert write_3tb["slowest"] / write_3tb["median"] > 2.0
