"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def _run(*argv: str) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


def test_demo_query_default_q6():
    output = _run("demo-query", "--scale-factor", "0.0005", "--files", "4")
    assert "revenue" in output
    assert "workers:" in output
    assert "cost breakdown:" in output
    # The statistics block ends with the critical path of the modelled latency.
    last = output.splitlines()[-1]
    assert last.startswith("latency 0.") and " s = launch 0." in last
    assert " + last worker 0." in last
    assert last.endswith("(1 poller, 2 receives)")


def test_demo_query_custom_sql():
    output = _run(
        "demo-query",
        "--scale-factor", "0.0005",
        "--files", "2",
        "--sql", "SELECT count(*) AS n FROM lineitem",
    )
    assert " n" in output
    assert "result (1 rows)" in output


def test_demo_query_with_catalog_and_cold():
    output = _run(
        "demo-query",
        "--scale-factor", "0.0005",
        "--files", "4",
        "--use-catalog",
        "--cold",
    )
    assert "workers:" in output


def test_exchange_cost_lists_all_variants():
    output = _run("exchange-cost", "--workers", "256")
    for variant in ("1l", "1l-wc", "2l", "2l-wc", "3l", "3l-wc"):
        assert variant in output


def test_invocation_compares_flat_and_tree():
    output = _run("invocation", "--workers", "4096")
    lines = {line.split(":")[0].strip(): line for line in output.splitlines()[1:]}
    assert "first generation: 4096 workers" in lines["flat (driver only)"]
    assert "2.664 s" in lines["two-level tree (√P)"]
    assert "first generation: 64 workers" in lines["two-level tree (√P)"]
    assert "2.475 s" in lines["priced (driver's choice)"]
    assert "first generation: 121 workers" in lines["priced (driver's choice)"]
    # The same fleet, every worker running 2.5 s: a sequentially polling
    # driver is still receiving long after the last worker; priced pollers
    # hand over the last result one round trip after it was sent.
    assert "13.573 s after the last worker   pollers: 1 " in lines["collection, one poller"]
    assert " 0.036 s after the last worker" in lines["collection, priced"]
    # Below the crossover the priced launch is the flat one, and one poller
    # is the priced collection.
    output = _run("invocation", "--workers", "8")
    assert output.count("first generation: 8 workers") == 2
    assert output.count("0.048 s after the last worker   pollers: 1   receives: 2") == 2


def test_qaas_comparison_output():
    output = _run("qaas", "--query", "q1", "--scale-factor", "1000")
    assert "lambada (hot)" in output
    assert "athena" in output
    assert "bigquery (cold)" in output


def test_verify_dataset_clean():
    output = _run("verify-dataset", "--scale-factor", "0.0005", "--files", "3")
    assert output.count("  ok       ") == 3
    assert "verification clean: 3/3 files intact" in output


def test_verify_dataset_reports_footer_size_and_chunks_per_encoding():
    output = _run("verify-dataset", "--scale-factor", "0.004", "--files", "2")
    lines = [line for line in output.splitlines() if line.startswith("  ok       ")]
    assert len(lines) == 2
    for line in lines:
        fields = dict(item.split("=") for item in line.split() if "=" in item)
        chunks = {
            name: int(fields[name]) for name in ("PLAIN", "RLE", "DICTIONARY", "FOR", "DELTA")
        }
        # 15 LINEITEM columns per row group, every chunk in exactly one encoding.
        assert sum(chunks.values()) == 15 * int(fields["row_groups"])
        # Keys, dates, quantities and prices narrow; flags and discounts are
        # dictionaries; nothing of LINEITEM needs a raw 8-byte page.
        assert chunks["FOR"] + chunks["DELTA"] >= 6 * int(fields["row_groups"])
        assert chunks["DICTIONARY"] >= 6 * int(fields["row_groups"])
        assert chunks["PLAIN"] == 0
        # A binary footer: 52 bytes per chunk plus the schema.
        assert 0 < int(fields["footer"]) - 52 * sum(chunks.values()) < 300
        assert int(fields["footer"]) < int(fields["bytes"]) // 10


def test_verify_dataset_detects_flipped_bytes():
    out = io.StringIO()
    code = main(
        ["verify-dataset", "--scale-factor", "0.0005", "--files", "4",
         "--corrupt", "2", "--seed", "3"],
        out=out,
    )
    output = out.getvalue()
    assert code == 1
    assert output.count("  CORRUPT  ") == 2
    assert "layer=" in output
    assert "verification FAILED: 2/4 files intact" in output


def test_unknown_command_exits_with_error():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_missing_command_exits_with_error():
    with pytest.raises(SystemExit):
        main([])
