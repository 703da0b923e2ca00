"""Tier-1 guard for the committed benchmark baselines.

Runs ``scripts/check_bench_regression.py`` as a pytest so a stale, malformed,
or floor-violating committed trajectory (``BENCH_hot_paths.json`` or
``BENCH_tpch.json`` — the checker merges both, exactly as its CLI default
does) fails the ordinary test suite instead of only a manually-invoked CI
script.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_hot_paths.json"
TPCH_BASELINE_PATH = REPO_ROOT / "BENCH_tpch.json"
CHECKER_PATH = REPO_ROOT / "scripts" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_bench_regression", CHECKER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baseline():
    with BASELINE_PATH.open(encoding="utf-8") as handle:
        document = json.load(handle)
    with TPCH_BASELINE_PATH.open(encoding="utf-8") as handle:
        document["results"].update(json.load(handle)["results"])
    return document


def test_baseline_file_is_valid_trajectory(baseline):
    assert isinstance(baseline.get("results"), dict)
    assert baseline["results"], "committed baseline has no measurements"


def test_baseline_has_all_guarded_sections(checker, baseline):
    results = baseline["results"]
    for section, field in checker.ABSOLUTE_FLOORS:
        assert section in results, f"baseline is missing the {section!r} section"
        assert field in results[section], (
            f"baseline section {section!r} is missing the {field!r} field"
        )


def test_baseline_sections_record_their_scale(baseline):
    """Every floor-guarded section must say what it measured."""
    results = baseline["results"]
    for section in (
        "payload_roundtrip",
        "partition_scatter",
        "join_probe",
        "join_probe_fk",
        "shuffle_codec",
        "encoded_eval",
        "scan_filter",
    ):
        assert results[section]["num_rows"] >= 1_000_000
    assert results["exchange_route"]["num_targets"] >= 1_000_000


def test_baseline_payload_roundtrip_ships_one_typed_frame(baseline):
    """The shipped result message is a header plus base64 of one typed frame:
    at most two thirds of the seed's ``tolist`` JSON on the hot table (raw
    per-column base64 in JSON, the form before it, was 0.87 of it)."""
    payload = baseline["results"]["payload_roundtrip"]
    assert 3 * payload["binary_wire_bytes"] <= 2 * payload["legacy_wire_bytes"]


def test_baseline_scan_filter_matches_acceptance_shape(baseline):
    """The scan-filter section must record a Q6-style selective scan."""
    scan_filter = baseline["results"]["scan_filter"]
    assert 0.0 < scan_filter["selectivity"] <= 0.05
    assert scan_filter["row_groups_shortcircuited"] > 0
    assert scan_filter["late_get_requests"] < scan_filter["baseline_get_requests"]


def test_baseline_shuffle_requests_matches_acceptance_shape(baseline):
    """The shuffle-request section must record the O(P²)→O(P) collapse."""
    shuffle = baseline["results"]["shuffle_requests"]
    assert shuffle["num_rows"] >= 1_000_000
    assert shuffle["num_workers"] >= 32
    assert shuffle["legacy_put_requests"] == shuffle["num_workers"] ** 2
    assert shuffle["combined_put_requests"] == shuffle["num_workers"]
    assert (
        shuffle["combined_ranged_get_requests"]
        == shuffle["num_workers"] ** 2 - shuffle["empty_slices_elided"]
    )
    assert shuffle["bytes_touched"] >= shuffle["bytes_shipped"]


def test_baseline_passes_request_ceilings(checker, baseline):
    results = baseline["results"]
    for (section, field), ceiling in checker.ABSOLUTE_REQUEST_CEILINGS.items():
        assert results[section][field] <= ceiling


def test_checker_flags_request_ceiling_violation(checker, baseline, tmp_path):
    doctored = json.loads(json.dumps(baseline))
    # A silent fallback to the O(P²) path: one PUT per mapper×reducer pair.
    doctored["results"]["shuffle_requests"]["combined_put_requests"] = 1024
    doctored["results"]["shuffle_requests"]["put_collapse"] = 32.0
    fallback = tmp_path / "fallback.json"
    fallback.write_text(json.dumps(doctored), encoding="utf-8")
    assert checker.check(fallback, None, tolerance=0.6) != 0


def test_baseline_passes_ratio_ceilings(checker, baseline):
    results = baseline["results"]
    for (section, field), ceiling in checker.ABSOLUTE_RATIO_CEILINGS.items():
        assert results[section][field] <= ceiling


def test_checker_flags_ratio_ceiling_violation(checker, baseline, tmp_path):
    # Fault hooks taxing the fault-free path by 50% must fail the guard.
    doctored = json.loads(json.dumps(baseline))
    doctored["results"]["end_to_end_q1"]["faultfree_overhead_ratio"] = 1.5
    taxed = tmp_path / "taxed.json"
    taxed.write_text(json.dumps(doctored), encoding="utf-8")
    assert checker.check(taxed, None, tolerance=0.6) != 0


def test_checker_flags_serial_exchange_read_charging(checker, baseline, tmp_path):
    # One blocking round trip per slice (the pre-fetch-plan charging) puts the
    # slowest DAG worker at 0.316 s at the committed scale factor.
    assert baseline["results"]["dag_join"]["max_worker_seconds"] <= 0.25
    doctored = json.loads(json.dumps(baseline))
    doctored["results"]["dag_join"]["max_worker_seconds"] = 0.316
    serial = tmp_path / "serial.json"
    serial.write_text(json.dumps(doctored), encoding="utf-8")
    assert checker.check(serial, None, tolerance=0.6) != 0


@pytest.mark.parametrize(
    "field, regressed",
    [
        # Q5 back to one barriered wave per join stage.
        ("max_join_waves", 5),
        # Per-stage sweeps again: 40 LISTs per consumed tag across the five queries.
        ("gc_list_requests", 580),
    ],
)
def test_checker_flags_wave_per_join_and_sweep_by_list(
    checker, baseline, tmp_path, field, regressed
):
    dag_join = baseline["results"]["dag_join"]
    assert dag_join["max_join_waves"] == 1 and dag_join["gc_list_requests"] == 0
    assert dag_join["min_dag_stages"] >= 2  # the stages stay logical
    doctored = json.loads(json.dumps(baseline))
    doctored["results"]["dag_join"][field] = regressed
    path = tmp_path / "regressed.json"
    path.write_text(json.dumps(doctored), encoding="utf-8")
    assert checker.check(path, None, tolerance=0.6) != 0
    assert checker.check(path, None, tolerance=0.6, sections=["join_e2e"]) == 0


@pytest.mark.parametrize(
    "query, field, regressed",
    [
        # One join worker per LINEITEM file again: 3 more workers than Q5 needs ...
        ("q5", "workers", 16),
        # ... each reading its slice of every sender object: 4x the GETs.
        ("q5", "exchange_get_requests", 44),
        ("q12", "exchange_get_requests", 12),
    ],
)
def test_checker_flags_a_fan_out_counted_from_files(
    checker, baseline, tmp_path, query, field, regressed
):
    results = baseline["results"]
    assert len(checker.ABSOLUTE_FAN_OUT_CEILINGS) == 2 * 8  # the eight join queries
    for (section, name), ceiling in checker.ABSOLUTE_FAN_OUT_CEILINGS.items():
        assert results[section][name] <= ceiling
        # One join worker: everything else is a mapper, and wrote one object.
        assert results[section]["workers"] == results[section]["exchange_put_requests"] + 1
    doctored = json.loads(json.dumps(baseline))
    doctored["results"][query][field] = regressed
    path = tmp_path / "file_count.json"
    path.write_text(json.dumps(doctored), encoding="utf-8")
    assert checker.check(path, None, tolerance=0.6) != 0
    assert checker.check(path, None, tolerance=0.6, sections=["dag_join"]) == 0
    assert checker.check(path, None, tolerance=0.6, sections=["dag_join", query]) != 0


@pytest.mark.parametrize(
    "field, regressed",
    [
        # A general-purpose compressor (or per-slice Python) back on the path.
        ("typed_speedup", 1.1),
        # Every column silently shipped raw: 2.2x what zlib-1 shipped.
        ("tpch_bytes_ratio", 2.2),
    ],
)
def test_checker_flags_slow_or_raw_exchange_frames(
    checker, baseline, tmp_path, field, regressed
):
    codec = baseline["results"]["shuffle_codec"]
    assert codec["typed_speedup"] >= 3.0 and codec["tpch_bytes_ratio"] <= 1.0
    assert codec["tpch_typed_bytes"] <= codec["tpch_zlib_bytes"]
    doctored = json.loads(json.dumps(baseline))
    doctored["results"]["shuffle_codec"][field] = regressed
    path = tmp_path / "frames.json"
    path.write_text(json.dumps(doctored), encoding="utf-8")
    assert checker.check(path, None, tolerance=0.6) != 0
    assert checker.check(path, None, tolerance=0.6, sections=["join_e2e"]) == 0


def test_baseline_passes_absolute_floors(checker):
    assert (
        checker.check([BASELINE_PATH, TPCH_BASELINE_PATH], None, tolerance=0.6)
        == 0
    )


def test_checker_rejects_malformed_trajectory(checker, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not_results\": 1}", encoding="utf-8")
    with pytest.raises(SystemExit):
        checker.check(bad, None, tolerance=0.6)


def test_checker_flags_floor_violation(checker, baseline, tmp_path):
    doctored = json.loads(json.dumps(baseline))
    doctored["results"]["join_probe"]["speedup"] = 1.0
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(doctored), encoding="utf-8")
    assert checker.check(slow, None, tolerance=0.6) != 0


def test_checker_flags_relative_regression(checker, baseline, tmp_path):
    doctored = json.loads(json.dumps(baseline))
    # Above every absolute floor but far below the committed baseline.
    doctored["results"]["partition_scatter"]["speedup"] = 5.01
    current = tmp_path / "current.json"
    current.write_text(json.dumps(doctored), encoding="utf-8")
    assert checker.check(BASELINE_PATH, current, tolerance=0.9) != 0


def test_baseline_has_conditional_floor_inputs(checker, baseline):
    """Each conditional floor needs its gate field recorded in the baseline."""
    results = baseline["results"]
    for (section, field), spec in checker.CONDITIONAL_FLOORS.items():
        gate_field, _ = spec["requires"]
        assert section in results
        assert field in results[section]
        assert gate_field in results[section]


def _doctored(baseline, tmp_path, **end_to_end_fields):
    doctored = json.loads(json.dumps(baseline))
    doctored["results"]["end_to_end_q1"].update(end_to_end_fields)
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doctored), encoding="utf-8")
    return path


def test_conditional_floor_skipped_with_notice_on_small_host(
    checker, baseline, tmp_path, capsys
):
    # Hardware precondition unmet: not a pass, an explicit skip notice.
    path = _doctored(baseline, tmp_path, cpu_count=1, wall_speedup=0.5)
    assert checker.check(path, None, tolerance=0.6) == 0
    out = capsys.readouterr().out
    assert "skipped" in out
    assert "wall_speedup" in out


def test_conditional_floor_enforced_on_capable_host(checker, baseline, tmp_path):
    path = _doctored(baseline, tmp_path, cpu_count=8, wall_speedup=1.2)
    assert checker.check(path, None, tolerance=0.6) != 0


def test_conditional_floor_passes_on_capable_host(checker, baseline, tmp_path):
    path = _doctored(baseline, tmp_path, cpu_count=8, wall_speedup=2.4)
    assert checker.check(path, None, tolerance=0.6) == 0


def test_conditional_floor_requires_gate_field(checker, baseline, tmp_path):
    doctored = json.loads(json.dumps(baseline))
    doctored["results"]["end_to_end_q1"].pop("cpu_count", None)
    path = tmp_path / "no_gate.json"
    path.write_text(json.dumps(doctored), encoding="utf-8")
    assert checker.check(path, None, tolerance=0.6) != 0


def test_sections_flag_scopes_the_checks(checker, baseline, tmp_path):
    doctored = json.loads(json.dumps(baseline))
    doctored["results"]["join_probe"]["speedup"] = 1.0  # out-of-scope violation
    path = tmp_path / "scoped.json"
    path.write_text(json.dumps(doctored), encoding="utf-8")
    assert checker.check(path, None, tolerance=0.6, sections=["end_to_end_q1"]) == 0
    assert checker.check(path, None, tolerance=0.6, sections=["join_probe"]) != 0

def test_checker_holds_the_priced_launch_under_both_fixed_shapes(checker):
    """CI pipes ``repro invocation --workers N`` into the checker: what the
    CLI prints today passes below and above the crossover, and an output whose
    priced line is slower than either fixed shape — or missing — fails."""
    import io

    from repro.cli import main

    for workers in ("8", "4096"):
        out = io.StringIO()
        assert main(["invocation", "--workers", workers], out=out) == 0
        assert checker.check_invocation_output(out.getvalue()) == []
    text = out.getvalue()
    slower = text.replace("2.475 s", "2.700 s")
    assert slower != text
    failures = checker.check_invocation_output(slower)
    assert len(failures) == 1 and "two-level tree" in failures[0]
    assert len(checker.check_invocation_output(text.replace("2.475 s", "15.000 s"))) == 2
    no_priced = "\n".join(line for line in text.splitlines() if "priced" not in line)
    assert "priced" in checker.check_invocation_output(no_priced)[0]


def test_checker_rejects_a_flat_poll_round_on_top_of_the_fleet(checker, baseline, tmp_path, capsys):
    """Result collection overlaps the fleet: what the scan queries' modelled
    latency adds to their slowest worker is the launch plus at most two round
    trips.  Doctor the flat 0.3 s poll round back in and the guard fails."""
    assert checker.check([BASELINE_PATH, TPCH_BASELINE_PATH], None, 0.6, sections=["q1", "q6"]) == 0
    for query in checker.COLLECTION_CEILING_QUERIES:
        doctored = json.loads(json.dumps(baseline))
        section = doctored["results"][query]
        # launch + worker + 0.3 instead of launch + worker + collection
        section["modelled_latency_median_seconds"] = (
            (section["workers"] - 1) / 294.0 + 0.036 + 0.05
            + section["max_worker_seconds"] + 0.3
        )
        path = tmp_path / f"flat_poll_{query}.json"
        path.write_text(json.dumps(doctored), encoding="utf-8")
        capsys.readouterr()
        assert checker.check(path, None, tolerance=0.6, sections=[query]) != 0
        assert "flat result-poll round" in capsys.readouterr().err
    # The checker's launch constants are the configuration's.
    from repro import config

    assert checker.DRIVER_INVOCATIONS_PER_SECOND == config.INVOCATION_RATE_DRIVER["eu"]
    assert checker.ROUND_TRIP_SECONDS == config.INVOCATION_LATENCY_SECONDS["eu"]
    assert checker.WARM_START_SECONDS == config.LAMBDA_WARM_START_SECONDS


def test_checker_holds_the_priced_collection_under_one_poller(checker):
    """The same CI smoke: the priced number of pollers must add no more after
    the last worker than a sequentially polling driver does."""
    import io

    from repro.cli import main

    out = io.StringIO()
    assert main(["invocation", "--workers", "4096"], out=out) == 0
    text = out.getvalue()
    assert checker.check_invocation_output(text) == []
    priced = next(line for line in text.splitlines() if "collection, priced" in line)
    slower = text.replace(priced, priced.replace("0.036 s", "14.000 s"))
    assert slower != text
    failures = checker.check_invocation_output(slower)
    assert len(failures) == 1 and "priced collection" in failures[0]
    dropped = "\n".join(line for line in text.splitlines() if "collection" not in line)
    assert "no collection line" in checker.check_invocation_output(dropped)[0]
