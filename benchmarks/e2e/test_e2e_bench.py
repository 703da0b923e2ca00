"""Tier-1 guard of the end-to-end benchmark (tiny data, two sweeps per run).

Checks the benchmark's own contract — every metric declared in
``BENCHMARK.json`` is emitted, modelled metrics repeat exactly, spans nest and
add up, tracing leaves ``repro`` untouched — and imports every public name the
harness relies on, so a refactor that breaks the benchmark fails here rather
than at bench time.  No timing is asserted.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e import compare, run, spans  # noqa: E402
from benchmarks.e2e.calibrate import Calibration  # noqa: E402
from benchmarks.e2e.workloads import BY_NAME, WORKLOADS  # noqa: E402

SCALE = 0.1
SWEEPS = 2
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(name: str, trace: bool, seed: int = 7, **kwargs) -> dict:
    return run.run_workload(BY_NAME[name], seed, seconds=0.0, sweeps=SWEEPS, trace=trace,
                            scale=SCALE, setups=1, **kwargs)


@pytest.fixture(scope="module")
def end_to_end() -> dict:
    return {workload.name: _run(workload.name, trace=False) for workload in WORKLOADS}


@pytest.fixture(scope="module")
def per_layer() -> dict:
    return {workload.name: _run(workload.name, trace=True) for workload in WORKLOADS}


def test_benchmark_json_declares_what_the_harness_emits():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in DECLARED["workloads"]] == [w.name for w in WORKLOADS]
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in DECLARED["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


def test_every_declared_metric_is_emitted_for_every_workload(end_to_end, per_layer):
    for records, declared in ((end_to_end, run.END_TO_END), (per_layer, run.PER_LAYER)):
        for name, record in records.items():
            assert record["correct"] and record["failed"] == 0, (name, record["failed_queries"])
            assert record["attempted"] >= 1 and record["sweeps"] == SWEEPS
            assert list(record["metrics"]) == list(declared), name
            for metric, entry in record["metrics"].items():
                assert isinstance(entry["value"], (int, float)), (name, metric)
                assert entry["unit"] == declared[metric]
    for name, record in end_to_end.items():
        # End-to-end metrics are never zero: a zero cannot be bounded relatively.
        assert all(entry["value"] > 0 for entry in record["metrics"].values()), name


def test_modelled_metrics_repeat_exactly(end_to_end, per_layer):
    for name in ("scan_agg", "join_dag", "groupby_shuffle"):
        again = _run(name, trace=False)
        for metric in compare.EXACT:
            assert again["metrics"][metric] == end_to_end[name]["metrics"][metric], (name, metric)
        # The traced pass runs the same system: its counts are the untraced ones.
        layers = per_layer[name]["metrics"]
        assert (sum(layers[metric]["value"] for metric in run.REQUEST_METRICS)
                == end_to_end[name]["metrics"]["cloud_requests"]["value"]), name
    other_seed = _run("scan_agg", trace=False, seed=11)
    assert other_seed["correct"]


def test_workload_contrast(end_to_end, per_layer):
    scan = per_layer["scan_agg"]["metrics"]
    for metric in ("exchange.partition_self_s", "exchange.encode_self_s",
                   "exchange.decode_self_s", "exchange.bytes_written", "engine.join_self_s"):
        assert scan[metric]["value"] == 0, metric
    join = per_layer["join_dag"]["metrics"]
    assert join["exchange.encode_self_s"]["value"] > 0
    assert join["engine.join_self_s"]["value"] > 0
    assert join["plan.dag_stages"]["value"] > scan["plan.dag_stages"]["value"]
    assert per_layer["groupby_shuffle"]["metrics"]["driver.shuffle_execute_self_s"]["value"] > 0
    for name, record in per_layer.items():
        metrics = record["metrics"]
        assert metrics["exchange.discovery_requests"]["value"] == 0, name
        assert metrics["driver.retries"]["value"] == 0, name
        assert metrics["trace.missing_targets"]["value"] == 0, name
        assert 0.9 <= metrics["trace.coverage_ratio"]["value"] <= 1.0 + 1e-9, name


def test_spans_nest_and_self_times_add_up(tmp_path):
    path = tmp_path / "spans.json"
    _run("join_dag", trace=True, spans_path=str(path))
    recorded = json.loads(path.read_text(encoding="utf-8"))["spans"]
    assert recorded
    roots = {}
    for name, parent, sweep, start, end in recorded:
        assert end >= start
        if parent < 0:
            roots[sweep] = roots.get(sweep, 0.0) + (end - start)
            continue
        _, _, parent_sweep, parent_start, parent_end = recorded[parent]
        assert parent_sweep == sweep and parent_start <= start and end <= parent_end, name
    self_times = spans.self_times(recorded)
    assert set(self_times) == {spans.SETUP_SWEEP, *range(SWEEPS)}
    for sweep, total in roots.items():
        assert sum(self_times[sweep].values()) == pytest.approx(total, rel=0.01)


def _bindings() -> dict:
    snapshot = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for name, value in vars(module).items():
            snapshot[module_name, name] = id(value)
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attribute, raw in vars(value).items():
                    snapshot[module_name, name, attribute] = id(raw)
    return snapshot


def test_tracing_restores_every_binding():
    with spans.Tracing() as tracing:
        assert tracing.missing == []
        patched = _bindings()
    # Installed once more *after* every module is loaded, so both snapshots
    # cover the same modules.
    before = _bindings()
    assert before != patched
    _run("fixed_overhead", trace=True)
    assert _bindings() == before


def test_missing_trace_target_is_reported_not_raised(monkeypatch, capsys):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("engine.join", "repro.engine.join", "no_such_kernel"),
        ("engine.join", "repro.no_such_module", "f"),
    ))
    with spans.Tracing() as tracing:
        assert tracing.missing == ["repro.engine.join:no_such_kernel", "repro.no_such_module:f"]
    assert "no_such_kernel" in capsys.readouterr().err


def test_public_api_surface_the_harness_relies_on():
    import repro
    from repro.driver.shuffle import ShuffleAggregateCoordinator
    from repro.plan.logical import AggregateSpec
    from repro.workload import queries, tpch

    assert callable(repro.connect) and callable(repro.col)
    for attribute in ("register", "sql", "close", "env"):
        assert hasattr(repro.Session, attribute)
    for attribute in ("create", "total_cost"):
        assert hasattr(repro.CloudEnvironment, attribute)
    for field in ("table", "statistics"):
        assert field in repro.QueryResult.__dataclass_fields__
    for field in ("latency_seconds", "num_workers", "dag_stages", "invocation_seconds",
                  "max_worker_seconds", "rows_scanned", "row_groups_shortcircuited",
                  "join_probe_rows", "join_output_rows", "exchange", "resilience"):
        assert field in repro.QueryStatistics.__dataclass_fields__
    assert isinstance(repro.QueryStatistics.cost_total, property)
    assert callable(ShuffleAggregateCoordinator.execute) and callable(AggregateSpec)
    for query in ("q1", "q3", "q5", "q6", "q7", "q9", "q10", "q12", "q14", "q18"):
        assert callable(getattr(queries, f"{query}_sql"))
        assert callable(getattr(queries, f"reference_{query}"))
    for relation in ("lineitem", "orders", "customer", "supplier", "part", "nation", "region"):
        assert callable(getattr(tpch, f"generate_{relation}_dataset"))
        assert callable(getattr(tpch, f"{relation.capitalize()}Generator"))
    env = repro.CloudEnvironment.create()
    assert env.ledger.total("s3", "get_requests") == 0 and len(env.ledger) == 0
    assert env.s3.object_count() == 0


def test_calibration_kernel_is_self_contained():
    assert Calibration().run() > 0
    source = (ROOT / "benchmarks" / "e2e" / "calibrate.py").read_text(encoding="utf-8")
    assert "import repro" not in source and "from repro" not in source


def _record(workload, seed, **values):
    return {"workload": workload, "seed": seed, "trace": 0,
            "metrics": {name: {"value": value} for name, value in values.items()}}


def test_compare_labels():
    declared = [
        {"name": "sweep_cal_p50", "better": "lower", "bound": 0.08},
        {"name": "cloud_requests", "better": "lower", "bound": 0.01},
    ]

    def runs(base: float, step: float, requests: int) -> dict:
        return {"w": [_record("w", seed, sweep_cal_p50=base + step * seed, cloud_requests=requests)
                      for seed in range(4)]}

    def labels(a: dict, b: dict) -> list:
        return [row["label"] for row in compare.compare(a, b, declared)]

    steady, slower, noisy = runs(10.0, 0.01, 100), runs(12.0, 0.01, 100), runs(10.0, 3.0, 101)
    assert labels(steady, steady) == ["same", "same"]
    assert labels(steady, slower) == ["worse", "same"]
    assert labels(slower, steady) == ["better", "same"]
    # One request more is within the 1 % bound but still reported: exact metrics
    # are compared to the last bit.
    assert labels(steady, noisy) == ["unresolved", "worse"]
