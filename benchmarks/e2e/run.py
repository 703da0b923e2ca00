#!/usr/bin/env python3
"""End-to-end benchmark: five workloads, one closed-loop client, checked answers.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed 7] [--seconds 10]
                                  [--sweeps N] [--trace 0|1] [--output FILE]
                                  [--spans FILE]

One run of one workload sets the workload up from ``--seed`` (three times;
``setup_s`` is the median), then runs *sweeps* — one ordered pass over the
workload's queries — for ``--seconds`` (or exactly ``--sweeps``), checking
every answer against its NumPy reference outside the timed window.  Each
sweep is timed together with the calibration kernel run right before it
(:mod:`benchmarks.e2e.calibrate`); ``sweep_cal_*`` are quantiles of the
per-pair ratio.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separately traced pass (:mod:`benchmarks.e2e.spans`).
The last line of standard output is one JSON object per workload.

README.md in this directory defines every metric; ``BENCHMARK.json`` at the
repository root declares them with their regression bounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(ROOT), str(ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import numpy as np  # noqa: E402

from benchmarks.e2e import spans  # noqa: E402
from benchmarks.e2e.calibrate import Calibration  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    BY_NAME,
    WORKLOADS,
    Answer,
    Instance,
    QueryFailed,
    Workload,
    set_up,
)

#: How often a run sets its workload up; ``setup_s`` is the median.
SETUPS = 3
#: Tail quantile of the calibrated samples: with the ~40-70 sweeps a 10 s run
#: measures, p75 is the highest percentile with ten samples beyond it.
TAIL_PERCENTILE = 75
#: ``peak_rss_mib`` is read after this many timed sweeps (or the last one of a
#: shorter run), not at exit: ledger records and leaked exchange objects grow
#: with every sweep, and the number of sweeps a run fits in varies.
RSS_AFTER_SWEEPS = 20

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END: Dict[str, str] = {
    "sweep_cal_p50": "cal",
    "sweep_cal_p75": "cal",
    "modelled_latency_s": "model_s",
    "modelled_cost_usd": "usd",
    "cloud_requests": "count",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

#: Ledger dimensions snapshotted around a sweep -> per-layer metric.
LEDGER_DIMENSIONS: Dict[Tuple[str, str], str] = {
    ("lambda", "invocations"): "cloud.lambda_invocations",
    ("lambda", "gib_seconds"): "cloud.lambda_gib_s",
    ("s3", "get_requests"): "cloud.s3_get_requests",
    ("s3", "put_requests"): "cloud.s3_put_requests",
    ("s3", "list_requests"): "cloud.s3_list_requests",
    ("sqs", "requests"): "cloud.sqs_requests",
    ("s3", "bytes_read"): "cloud.s3_bytes_read",
    ("s3", "bytes_written"): "cloud.s3_bytes_written",
}
REQUEST_METRICS = (
    "cloud.lambda_invocations", "cloud.s3_get_requests", "cloud.s3_put_requests",
    "cloud.s3_list_requests", "cloud.sqs_requests",
)

#: Span names measured during set-up only, reported as inclusive seconds.
SETUP_SPANS = {"workload.generate": "workload.generate_s", "formats.write": "formats.write_s"}


def _per_layer_units() -> Dict[str, str]:
    units = {
        f"{name}_self_s": "s" for name in spans.SPAN_NAMES if name not in SETUP_SPANS
    }
    units.update({metric: "s" for metric in SETUP_SPANS.values()})
    units.update({
        "plan.dag_stages": "count",
        "plan.workers": "count",
        "driver.modelled_invocation_s": "model_s",
        "driver.modelled_max_worker_s": "model_s",
        "driver.retries": "count",
        "driver.cost_vs_ledger_ratio": "ratio",
        "cloud.lambda_invocations": "count",
        "cloud.lambda_gib_s": "GiB.s",
        "cloud.s3_get_requests": "count",
        "cloud.s3_put_requests": "count",
        "cloud.s3_list_requests": "count",
        "cloud.sqs_requests": "count",
        "cloud.s3_bytes_read": "bytes",
        "cloud.s3_bytes_written": "bytes",
        "cloud.ledger_records": "count",
        "formats.chunks_read": "count",
        "engine.rows_scanned": "count",
        "engine.row_groups_shortcircuited": "count",
        "engine.join_probe_rows": "count",
        "engine.join_output_rows": "count",
        "exchange.bytes_written": "bytes",
        "exchange.bytes_read": "bytes",
        "exchange.put_requests": "count",
        "exchange.get_requests": "count",
        "exchange.discovery_requests": "count",
        "exchange.objects_leaked": "count",
        "trace.coverage_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
        "trace.unattributed_self_s": "s",
        "trace.untraced_wall_s_p50": "s",
        "trace.calibration_unit_s": "s",
        "trace.missing_targets": "count",
    })
    return units


#: name -> unit of every per-layer metric (``--trace 1``).
PER_LAYER: Dict[str, str] = _per_layer_units()


# -- one sweep ----------------------------------------------------------------


def _snapshot(instance: Instance) -> Dict[str, float]:
    env = instance.env
    snapshot = {
        metric: env.ledger.total(service, dimension)
        for (service, dimension), metric in LEDGER_DIMENSIONS.items()
    }
    snapshot["cost"] = env.total_cost()
    snapshot["cloud.ledger_records"] = len(env.ledger)
    snapshot["exchange.objects_leaked"] = env.s3.object_count()
    return snapshot


def _counters(before: Dict[str, float], after: Dict[str, float],
              answers: List[Answer]) -> Dict[str, float]:
    """Modelled quantities and counts of one sweep, from public statistics
    and ledger deltas.  The system is deterministic, so these repeat exactly
    for a seed; they are always taken from the first timed sweep."""
    counters = {name: after[name] - before[name] for name in after}

    def total(*path: str) -> float:
        values = []
        for answer in answers:
            value = answer.statistics
            for attribute in path:
                value = getattr(value, attribute, 0)
            values.append(value)
        return sum(values)

    counters.update({
        "modelled_latency_s": total("latency_seconds") + total("modelled_latency_seconds"),
        "modelled_cost_usd": counters.pop("cost"),
        "cloud_requests": sum(counters[name] for name in REQUEST_METRICS),
        "plan.dag_stages": total("dag_stages"),
        "plan.workers": total("num_workers") + total("map_workers") + total("reduce_workers"),
        "driver.modelled_invocation_s": total("invocation_seconds"),
        "driver.modelled_max_worker_s": (
            total("max_worker_seconds") + total("modelled_map_seconds")
            + total("modelled_reduce_seconds")
        ),
        "driver.retries": total("resilience", "retries"),
        "engine.rows_scanned": total("rows_scanned"),
        "engine.row_groups_shortcircuited": total("row_groups_shortcircuited"),
        "engine.join_probe_rows": total("join_probe_rows"),
        "engine.join_output_rows": total("join_output_rows"),
        "exchange.bytes_written": total("exchange", "bytes_written"),
        "exchange.bytes_read": total("exchange", "bytes_read"),
        "exchange.put_requests": total("exchange", "put_requests"),
        "exchange.get_requests": total("exchange", "get_requests"),
        "exchange.discovery_requests": (
            total("exchange", "list_requests") + total("exchange", "head_requests")
        ),
    })
    # Dollars the statistics objects themselves report (ShuffleStatistics: none).
    counters["driver.cost_vs_ledger_ratio"] = total("cost_total") / counters["modelled_cost_usd"]
    return counters


class Measurement:
    """Timed sweeps of one set-up instance."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.calibrated: List[float] = []
        self.counters: Dict[str, float] = {}
        self.peak_rss_mib = 0.0
        self.attempted = 0
        self.failed: List[str] = []

    @property
    def sweeps(self) -> int:
        return len(self.walls)


def measure(instance: Instance, calibration: Calibration, seconds: float,
            sweeps: Optional[int], recorder: Optional[spans.Recorder] = None) -> Measurement:
    """Run calibration+sweep pairs for ``seconds`` (or exactly ``sweeps``).

    Only the sweep itself is inside the timed window; the collection, the
    ledger snapshots and the answer checks are outside it.
    """
    measurement = Measurement()
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        before = _snapshot(instance) if not measurement.counters else None
        unit = calibration.run()
        if recorder is not None:
            recorder.sweep = measurement.sweeps
        start = time.perf_counter()
        answers = instance.sweep()
        wall = time.perf_counter() - start
        if recorder is not None:
            recorder.sweep = None
        if before is not None:
            measurement.counters = _counters(before, _snapshot(instance), answers)
        measurement.walls.append(wall)
        measurement.calibrated.append(wall / unit)
        measurement.attempted += len(answers)
        measurement.failed.extend(instance.wrong(answers))
        done = (measurement.sweeps >= sweeps if sweeps is not None
                else time.perf_counter() >= deadline)
        if measurement.sweeps == RSS_AFTER_SWEEPS or (done and not measurement.peak_rss_mib):
            measurement.peak_rss_mib = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        if done:
            return measurement


# -- one run of one workload ----------------------------------------------------


def run_workload(workload: Workload, seed: int, seconds: float, sweeps: Optional[int],
                 trace: bool, scale: float = 1.0, setups: int = SETUPS,
                 spans_path: Optional[str] = None) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    calibration = Calibration()
    attempted, failed = 0, []
    setup_seconds: List[float] = []
    instance: Optional[Instance] = None
    try:
        for _ in range(1 if trace else setups):
            if instance is not None:
                instance.close()
                instance = None
            gc.collect()
            start = time.perf_counter()
            instance, wrong = set_up(workload, seed, scale)
            setup_seconds.append(time.perf_counter() - start)
            attempted += instance.queries_per_sweep
            failed.extend(wrong)
        degraded = instance.degraded
        plain = measure(instance, calibration, seconds / 2 if trace else seconds, sweeps)
    finally:
        if instance is not None:
            instance.close()
    attempted += plain.attempted
    failed.extend(plain.failed)

    if not trace:
        metrics = {
            "sweep_cal_p50": statistics.median(plain.calibrated),
            "sweep_cal_p75": float(np.percentile(plain.calibrated, TAIL_PERCENTILE)),
            "modelled_latency_s": plain.counters["modelled_latency_s"],
            "modelled_cost_usd": plain.counters["modelled_cost_usd"],
            "cloud_requests": plain.counters["cloud_requests"],
            "peak_rss_mib": plain.peak_rss_mib,
            "setup_s": statistics.median(setup_seconds),
        }
        units, sweeps_run = END_TO_END, plain.sweeps
    else:
        traced, recorded, missing, wrong = _traced_pass(
            workload, seed, seconds / 2, sweeps, scale, calibration
        )
        attempted += traced.attempted
        failed.extend(wrong + traced.failed)
        metrics = _per_layer_metrics(plain, traced, recorded, missing)
        units, sweeps_run = PER_LAYER, traced.sweeps
        if spans_path:
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump({"workload": workload.name, "seed": seed,
                           "columns": ["name", "parent", "sweep", "start", "end"],
                           "spans": recorded}, handle)
                handle.write("\n")

    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "sweeps": sweeps_run,
        "degraded": degraded,
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "failed_queries": sorted(set(failed)),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _traced_pass(workload: Workload, seed: int, seconds: float, sweeps: Optional[int],
                 scale: float, calibration: Calibration):
    """A second set-up and timed phase with the span wrappers installed."""
    with spans.Tracing() as tracing:
        recorder = tracing.recorder
        recorder.sweep = spans.SETUP_SWEEP
        instance, wrong = set_up(workload, seed, scale)
        recorder.sweep = None
        try:
            traced = measure(instance, calibration, seconds, sweeps, recorder)
        finally:
            instance.close()
    traced.attempted += instance.queries_per_sweep
    return traced, recorder.spans, tracing.missing, wrong


def _per_layer_metrics(plain: Measurement, traced: Measurement, recorded: List[list],
                       missing: List[str]) -> Dict[str, float]:
    self_times = spans.self_times(recorded)
    counts = spans.span_counts(recorded)
    sweep_ids = range(traced.sweeps)

    metrics: Dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        if name in SETUP_SPANS:
            metrics[SETUP_SPANS[name]] = sum(
                end - start for span, _, sweep, start, end in recorded
                if span == name and sweep == spans.SETUP_SWEEP
            )
        else:
            metrics[f"{name}_self_s"] = statistics.median(
                self_times[sweep].get(name, 0.0) for sweep in sweep_ids
            )
    attributed = [sum(self_times[sweep].values()) for sweep in sweep_ids]
    metrics["trace.coverage_ratio"] = statistics.median(
        total / wall for total, wall in zip(attributed, traced.walls)
    )
    metrics["trace.unattributed_self_s"] = statistics.median(
        wall - total for total, wall in zip(attributed, traced.walls)
    )
    # Calibrated on both sides, so host drift between the two passes cancels.
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced.calibrated) / statistics.median(plain.calibrated)
    )
    metrics["trace.untraced_wall_s_p50"] = statistics.median(plain.walls)
    metrics["trace.calibration_unit_s"] = statistics.median(
        wall / ratio for wall, ratio in zip(plain.walls, plain.calibrated)
    )
    metrics["trace.missing_targets"] = len(missing)
    metrics["formats.chunks_read"] = statistics.median(
        counts[sweep].get("formats.read_chunk", 0) for sweep in sweep_ids
    )
    for name in PER_LAYER:
        if name not in metrics:
            metrics[name] = traced.counters[name]
    return metrics


# -- command line -----------------------------------------------------------------


def _print_record(record: dict) -> None:
    note = f", degraded={record['degraded']}" if record["degraded"] else ""
    print(f"# {record['workload']}: seed {record['seed']}, {record['sweeps']} sweeps, "
          f"{record['attempted']} queries attempted, {record['failed']} failed{note}")
    for name, metric in record["metrics"].items():
        print(f"{name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def _stop_resource_tracker() -> None:
    """Stop and reap the stdlib's shared-memory tracker process.

    The process pool's shared-memory plane starts it; left alone it ends only
    once this process has exited, so it would outlive the benchmark by a
    moment.  The pool's children are joined before this runs.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), default=None,
                        help="run only this workload (default: all five)")
    parser.add_argument("--seed", type=int, default=7, help="seed of the generated data")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed phase of one workload")
    parser.add_argument("--sweeps", type=int, default=None,
                        help="run exactly this many timed sweeps instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics of a traced pass")
    parser.add_argument("--output", default=None,
                        help="append one JSON record per workload to this file")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1 and --workload: write the raw spans here")
    arguments = parser.parse_args(argv)
    if arguments.sweeps is not None and arguments.sweeps < 1:
        parser.error("--sweeps must be at least 1")
    if arguments.spans and not (arguments.trace and arguments.workload):
        parser.error("--spans needs --trace 1 and one --workload")

    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"error: repro was imported from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    selected = [BY_NAME[arguments.workload]] if arguments.workload else list(WORKLOADS)
    status = 0
    for workload in selected:
        try:
            record = run_workload(workload, arguments.seed, arguments.seconds, arguments.sweeps,
                                  bool(arguments.trace), spans_path=arguments.spans)
        except QueryFailed as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        finally:
            _stop_resource_tracker()
        _print_record(record)
        if arguments.output:
            with open(arguments.output, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
        if not record["correct"]:
            print(f"error: {workload.name}: wrong answers for "
                  f"{', '.join(record['failed_queries'])}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
