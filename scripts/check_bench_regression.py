#!/usr/bin/env python
"""Compare a fresh hot-path benchmark run against the committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_hot_paths.py   # writes BENCH_hot_paths.json
    PYTHONPATH=src python scripts/run_tpch_experiments.py # writes BENCH_tpch.json
    python scripts/check_bench_regression.py [--baseline BENCH_hot_paths.json] \
        [--baseline BENCH_tpch.json] [--current fresh.json] [--tolerance 0.6] \
        [--invocation-output invocation.txt]

``--baseline`` is repeatable; with none given, both committed trajectories
(``BENCH_hot_paths.json`` and ``BENCH_tpch.json``) are loaded and merged.

Eleven kinds of checks:

* **absolute floors** — the speedups the PR's acceptance criteria promise
  (partition scatter >= 5x, payload round-trip >= 3x) must hold in the
  *current* run;
* **hardware-conditional floors** — floors that only hold on suitable
  hardware (the process-pool wall speedup needs >= 4 cores); when the
  recorded hardware does not qualify they are skipped with a printed
  notice, never passed silently;
* **absolute request ceilings** — the write-combined shuffle plane must stay
  within its O(P) request budget at the benchmark's 32x32 shape (one object
  per mapper×receiver pair, 1024 PUTs, fails here);
* **absolute ratio ceilings** — overhead ratios that must stay near 1.0 in
  the *current* run: the resilience plane's fault hooks must cost the
  fault-free TPC-H Q1 path less than 2% of wall time, and the armed overload
  plane (admission, budgets, breakers, cancellation) less than 2% — and the
  typed exchange frames must ship no more bytes than zlib-1 did on a
  TPC-H-shaped table;
* **absolute modelled-seconds ceilings** — the slowest worker of any N-way
  join DAG query must stay under the duration only a pipelined exchange
  read reaches (a fall-back to one round trip per slice fails here);
* **absolute wave ceilings** — at the committed scale factor every build
  side of the five DAG queries is broadcastable, so each must run as one
  join wave (a regression to a wave per join fails here);
* **absolute fan-out ceilings** — at the committed scale factor every join
  query's relations are far below one join worker's break-even share, so
  each must start one join worker per wave and read each sender object once
  (a fall-back to one join worker per file of the largest relation fails
  here);
* **absolute scan fan-out ceilings** — every scan fleet of a join query may
  start at most ⌈stored bytes / break-even⌉ mappers, the break-even being
  what one mapper streams in the driver invocation interval it adds to the
  launch (a fleet counted from files again, or a caller that stopped passing
  sizes, fails here);
* **absolute collection ceiling** — the modelled latency of the scan queries
  (Q1, Q6) beyond their slowest worker must stay under the launch plus two
  round trips: result collection overlaps the fleet, and a flat poll round
  added after the last worker fails here;
* **relative regression** — each current speedup must stay within
  ``tolerance`` of the committed baseline (defaults to 60%, loose enough for
  machine-to-machine noise, tight enough to catch an accidental
  de-vectorisation);
* **launch shape** — with ``--invocation-output`` (repeatable), the text
  ``repro invocation --workers N`` printed: the shape the driver prices from
  Table 1 must start the fleet no later than the flat launch and no later
  than the paper's ⌈√P⌉ tree, and the priced number of result-queue pollers
  must add no more after the last worker than one poller does, at every
  fleet size given.

With no ``--current`` file, the baseline itself is checked against the
absolute floors — a cheap CI sanity check that the committed trajectory still
backs the claims in the README.

Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

#: Minimum speedups promised by the acceptance criteria, keyed by
#: ``(section, field)``: the data-plane floors from PR 1, the operator floors
#: from PR 2 (join probe, exchange routing, shuffle codec framing), the
#: scan-plane floors from PR 3 (late-materialization scan filter,
#: encoding-aware predicate evaluation), and the N-way join DAG floors.  The
#: shuffle and join exchange sections have no floor: they run the one
#: write-combined plane, and their request counts are held by
#: :data:`ABSOLUTE_REQUEST_CEILINGS`.
ABSOLUTE_FLOORS = {
    ("partition_scatter", "speedup"): 5.0,
    ("payload_roundtrip", "speedup"): 3.0,
    ("join_probe", "speedup"): 5.0,
    # PR 20: the foreign key -> primary key shape every production join has
    # (unique build keys spread over 12x their count) measured 50-54x through
    # the position table; the count table or sort + searchsorted reach ~9x.
    ("join_probe_fk", "speedup"): 25.0,
    ("exchange_route", "speedup"): 5.0,
    ("shuffle_codec", "speedup"): 1.2,
    ("shuffle_codec", "framing_speedup"): 5.0,
    # PR 15: a sender's set encode + every receiver's slice decode in typed
    # frames must stay >= 3x faster than zlib-1 over raw column buffers, the
    # wire format they replaced.
    ("shuffle_codec", "typed_speedup"): 3.0,
    ("scan_filter", "speedup"): 3.0,
    ("encoded_eval", "speedup"): 1.5,
    # PR 10: the five N-way join DAGs (Q5/Q7/Q9/Q10/Q18) in BENCH_tpch.json
    # must all be bit-identical to their NumPy references, and each must
    # have lowered to a genuine multi-stage DAG (>= 2 *logical* join stages,
    # however few waves they then run as).
    ("dag_join", "correct_fraction"): 1.0,
    ("dag_join", "min_dag_stages"): 2.0,
}

#: Floors that only hold on suitable hardware, keyed ``(section, field)``.
#: Each entry names a precondition field in the same section and its minimum
#: value; when the measurement's hardware does not meet it, the floor is
#: *skipped with a printed notice* — never silently passed — so a CI log
#: always shows whether the claim was actually checked.  The process-pool
#: wall speedup (PR 6) needs real cores: serial vs processes on a 1-core
#: host ties by construction.
CONDITIONAL_FLOORS = {
    ("end_to_end_q1", "wall_speedup"): {
        "floor": 2.0,
        "requires": ("cpu_count", 4),
    },
}

#: Maximum *absolute* request counts of the write-combined shuffle plane at
#: its 32x32-worker benchmark shape: one combined PUT per mapper.  A writer
#: that went back to one object per mapper×receiver pair (1024 PUTs) blows
#: straight through these, so it fails tier-1 rather than shipping unnoticed.
ABSOLUTE_REQUEST_CEILINGS = {
    ("shuffle_requests", "combined_put_requests"): 32,
    ("shuffle_requests", "combined_get_requests"): 32 * 32,
    ("shuffle_requests", "combined_list_requests"): 512,
    ("shuffle_requests", "combined_head_requests"): 0,
    # The join benchmark runs 16 mappers per side into 16 join workers: one
    # combined PUT per mapper on both sides, at most one ranged GET per
    # (mapper, reducer, side) slice, and — because the mappers announce their
    # offset directories through the driver's map barrier — zero LIST/HEAD
    # discovery requests.
    ("join_e2e", "combined_put_requests"): 2 * 16,
    ("join_e2e", "combined_get_requests"): 2 * 16 * 16,
    ("join_e2e", "combined_list_requests"): 0,
    ("join_e2e", "combined_head_requests"): 0,
    # PR 10: every wave of an N-way DAG learns its inputs from the combined
    # objects announced through the result-queue barrier — across all five
    # TPC-H DAG queries and all of their waves, zero LIST/HEAD discovery
    # requests.  A single regression to discovery-by-listing fails here.
    ("dag_join", "discovery_list_requests"): 0,
    ("dag_join", "discovery_head_requests"): 0,
    # PR 14: a fault-free query deletes its exchange objects by their
    # announced paths; the LIST sweep is for queries that saw a fault.  A
    # regression to sweep-by-LIST (40 LISTs per consumed tag) fails here.
    ("dag_join", "gc_list_requests"): 0,
}

#: Maximum overhead ratios, keyed ``(section, field)``.  The resilience
#: plane (PR 7) promises the fault-injection hooks are free when no plan
#: fires: serial TPC-H Q1 with a zero-rate FaultPlan installed must stay
#: within 2% of the plain fast path's wall time.  Checksums have no
#: ceiling: they are the format, so there is no unchecked query to compare
#: with.  The overload control plane promises that an armed QuerySession —
#: admission gate, tenant budgets, breaker board, retry budget, cancellation
#: token — costs serial TPC-H Q1 less than 2% over a bare execute.
ABSOLUTE_RATIO_CEILINGS = {
    ("end_to_end_q1", "faultfree_overhead_ratio"): 1.02,
    ("end_to_end_q1", "admission_overhead_ratio"): 1.02,
    # PR 15: on a TPC-H-shaped table (sorted key, 2-decimal price, discount,
    # date) the typed frames ship no more bytes than zlib-1 did — a silent
    # fall-back to raw columns (2.2x the bytes) fails here.
    ("shuffle_codec", "tpch_bytes_ratio"): 1.0,
}

#: Maximum modelled seconds, keyed ``(section, field)``.  The exchange
#: receiver issues its whole fetch plan as one pipelined transfer (PR 13): at
#: the committed scale factor the slowest worker of the five DAG queries takes
#: 0.17 s — still so now that it is a fused join worker reading its broadcast
#: build sides in the same batch (PR 14) — where charging one serial round
#: trip per slice gave 0.316 s.
ABSOLUTE_SECONDS_CEILINGS = {
    ("dag_join", "max_worker_seconds"): 0.25,
}

#: Maximum join waves of any one DAG query, keyed ``(section, field)``.  At
#: the committed scale factor every build side is far below the broadcast
#: break-even, so each DAG query runs one scan wave and ONE join wave (PR 14).
ABSOLUTE_WAVE_CEILINGS = {
    ("dag_join", "max_join_waves"): 1,
}

#: Maximum workers and exchange GETs of each join query in BENCH_tpch.json,
#: keyed ``(query, field)``.  Both fan-outs are priced from the catalog's
#: bytes: at the committed scale factor every relation is below one mapper's
#: break-even (:data:`SCAN_BREAK_EVEN_BYTES`), so each relation is scanned by
#: ONE mapper, and all seven together are a fraction of one join worker's
#: break-even share (PR 21), so every join query runs ONE join worker — its
#: relations + 1 workers — which reads each mapper's object once, whole or as
#: its one slice.  Counting join workers from files again (4 per wave here:
#: 3 more workers, 4x the GETs), or a caller that stopped telling the planner
#: the sizes, fails here.
ABSOLUTE_FAN_OUT_CEILINGS = {
    (query, field): ceiling
    for query, relations in {
        "q3": 2, "q5": 6, "q7": 4, "q9": 5, "q10": 4, "q12": 2, "q14": 2, "q18": 3,
    }.items()
    for field, ceiling in (("workers", relations + 1), ("exchange_get_requests", relations))
}

#: Join queries of BENCH_tpch.json whose scan fleets (``map_fleets``: files,
#: stored bytes and mappers per exchange tag) must each start at most
#: ⌈bytes / SCAN_BREAK_EVEN_BYTES⌉ mappers.  The break-even is what one
#: mapper streams in the driver invocation interval it adds to the launch
#: (``repro.driver.shuffle.scan_fan_out``): a 2 GiB worker's four-connection
#: link (90 MiB/s steady + 210 MiB/s of burst x 2048/3008 ≈ 233 MiB/s) over
#: Table 1's ``eu`` driver rate of 294 invocations a second.  Unknown bytes
#: (0) bound nothing and fail too.
SCAN_FAN_OUT_QUERIES = ("q3", "q5", "q7", "q9", "q10", "q12", "q14", "q18")
SCAN_BREAK_EVEN_BYTES = 830_938

#: Scan queries of BENCH_tpch.json whose modelled latency beyond their slowest
#: worker must stay under the launch plus two round trips of result
#: collection.  The result queue is long-polled while the fleet runs (PR 23),
#: so a fleet of up to ten workers is drained by at most two receives; a flat
#: poll round on top of the last worker (0.3 s until PR 23) cannot pass.  The
#: launch is the flat warm launch these fleets are priced: Table 1's ``eu``
#: driver rate and round trip, and the warm start-up, as in ``repro.config``.
COLLECTION_CEILING_QUERIES = ("q1", "q6")
DRIVER_INVOCATIONS_PER_SECOND = 294.0
ROUND_TRIP_SECONDS = 0.036
WARM_START_SECONDS = 0.05

#: Fields compared against the committed baseline for relative regressions.
RELATIVE_FIELDS = (
    "speedup",
    "framing_speedup",
    "typed_speedup",
)


#: One shape line of ``repro invocation``: label, seconds until the whole
#: fleet runs, first-generation workers.
INVOCATION_LINE = re.compile(
    r"^\s*(flat|two-level tree|priced)[^:]*:\s*([0-9.]+) s\s+"
    r"first generation:\s*(\d+) workers\s*$"
)


#: One collection line of ``repro invocation``: label, seconds the drain adds
#: after the last worker.
COLLECTION_LINE = re.compile(
    r"^\s*collection, (one poller|priced):\s*([0-9.]+) s after the last worker\b"
)


def check_invocation_output(text: str, source: str = "invocation") -> list[str]:
    """Failures of one ``repro invocation`` output: the priced launch <= flat
    and <= tree, the priced collection <= the one-poller collection."""
    seconds = {}
    collection = {}
    for line in text.splitlines():
        match = INVOCATION_LINE.match(line)
        if match:
            seconds[match.group(1)] = float(match.group(2))
        match = COLLECTION_LINE.match(line)
        if match:
            collection[match.group(1)] = float(match.group(2))
    missing = {"flat", "two-level tree", "priced"} - set(seconds)
    if missing:
        return [f"{source}: no line for the {', '.join(sorted(missing))} shape"]
    missing = {"one poller", "priced"} - set(collection)
    if missing:
        return [f"{source}: no collection line for {', '.join(sorted(missing))}"]
    failures = []
    if collection["priced"] > collection["one poller"]:
        failures.append(
            f"{source}: priced collection adds {collection['priced']:.3f} s, "
            f"more than one poller does ({collection['one poller']:.3f} s)"
        )
    else:
        print(
            f"ok: {source} priced collection {collection['priced']:.3f} s <= "
            f"one poller {collection['one poller']:.3f} s"
        )
    for shape in ("flat", "two-level tree"):
        if seconds["priced"] > seconds[shape]:
            failures.append(
                f"{source}: priced launch takes {seconds['priced']:.3f} s, "
                f"longer than the {shape} launch ({seconds[shape]:.3f} s)"
            )
        else:
            print(
                f"ok: {source} priced {seconds['priced']:.3f} s <= "
                f"{shape} {seconds[shape]:.3f} s"
            )
    return failures


def load_results(path: Path) -> dict:
    """Read the ``{"results": {...}}`` trajectory written by the benchmark."""
    try:
        with path.open(encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(
            f"{path}: no such file (run `PYTHONPATH=src python "
            f"benchmarks/bench_hot_paths.py` to produce one)"
        )
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}: not valid JSON ({exc})")
    results = document.get("results")
    if not isinstance(results, dict):
        raise SystemExit(f"{path}: not a benchmark trajectory (missing 'results')")
    return results


def check(
    baseline_paths: Path | list[Path],
    current_path: Path | None,
    tolerance: float,
    sections: list[str] | None = None,
) -> int:
    if isinstance(baseline_paths, (str, Path)):
        baseline_paths = [baseline_paths]
    baseline: dict = {}
    for path in baseline_paths:
        baseline.update(load_results(path))
    current = load_results(current_path) if current_path else baseline
    failures = []

    def in_scope(name: str) -> bool:
        return sections is None or name in sections

    for (name, field), floor in ABSOLUTE_FLOORS.items():
        if not in_scope(name):
            continue
        measurement = current.get(name)
        if measurement is None:
            failures.append(f"{name}: missing from current results")
            continue
        speedup = measurement.get(field, 0.0)
        if speedup < floor:
            failures.append(
                f"{name}: {field} {speedup:.2f}x below floor {floor:.1f}x"
            )
        else:
            print(f"ok: {name} {field} {speedup:.2f}x (floor {floor:.1f}x)")

    for (name, field), spec in CONDITIONAL_FLOORS.items():
        if not in_scope(name):
            continue
        measurement = current.get(name)
        if measurement is None:
            failures.append(f"{name}: missing from current results")
            continue
        gate_field, gate_minimum = spec["requires"]
        gate_value = measurement.get(gate_field)
        if gate_value is None:
            failures.append(
                f"{name}: missing the {gate_field!r} field needed to decide "
                f"whether the {field} floor applies"
            )
            continue
        if gate_value < gate_minimum:
            # Skip *with a notice* — a silent pass here would read as if the
            # speedup claim had been verified on this machine.
            print(
                f"skipped: {name} {field} floor {spec['floor']:.1f}x NOT "
                f"checked ({gate_field} = {gate_value} < required "
                f"{gate_minimum}; run on a bigger machine to verify)"
            )
            continue
        observed = measurement.get(field, 0.0)
        if observed < spec["floor"]:
            failures.append(
                f"{name}: {field} {observed:.2f}x below floor "
                f"{spec['floor']:.1f}x (with {gate_field} = {gate_value})"
            )
        else:
            print(
                f"ok: {name} {field} {observed:.2f}x (floor {spec['floor']:.1f}x, "
                f"{gate_field} = {gate_value})"
            )

    for (name, field), ceiling in ABSOLUTE_REQUEST_CEILINGS.items():
        if not in_scope(name):
            continue
        measurement = current.get(name)
        if measurement is None:
            failures.append(f"{name}: missing from current results")
            continue
        observed = measurement.get(field)
        if observed is None:
            failures.append(f"{name}: missing the {field!r} request counter")
        elif observed > ceiling:
            failures.append(
                f"{name}: {field} = {observed} requests exceeds the "
                f"ceiling of {ceiling} (more than one object per mapper?)"
            )
        else:
            print(f"ok: {name} {field} {observed} requests (ceiling {ceiling})")

    for ceilings, what, hint in (
        (
            ABSOLUTE_RATIO_CEILINGS,
            "ratio",
            "fault hooks taxing the fault-free path, or typed frames gone raw?",
        ),
        (
            ABSOLUTE_SECONDS_CEILINGS,
            "modelled duration",
            "exchange reads charged one round trip per slice again?",
        ),
        (
            ABSOLUTE_WAVE_CEILINGS,
            "wave count",
            "small build sides run a wave per join again?",
        ),
        (
            ABSOLUTE_FAN_OUT_CEILINGS,
            "count",
            "join workers counted from files again, not priced from bytes?",
        ),
    ):
        for (name, field), ceiling in ceilings.items():
            if not in_scope(name):
                continue
            measurement = current.get(name)
            if measurement is None:
                failures.append(f"{name}: missing from current results")
                continue
            observed = measurement.get(field)
            if observed is None:
                failures.append(f"{name}: missing the {field!r} {what}")
            elif observed > ceiling:
                failures.append(
                    f"{name}: {field} = {observed:.3f} exceeds the ceiling of "
                    f"{ceiling:.2f} ({hint})"
                )
            else:
                print(f"ok: {name} {field} {observed:.3f} (ceiling {ceiling:.2f})")

    for name in SCAN_FAN_OUT_QUERIES:
        if not in_scope(name):
            continue
        fleets = current.get(name, {}).get("map_fleets")
        if not fleets:
            failures.append(f"{name}: missing the 'map_fleets' field")
            continue
        for tag, fleet in sorted(fleets.items()):
            ceiling = -(-fleet["input_bytes"] // SCAN_BREAK_EVEN_BYTES)
            if fleet["mappers"] > ceiling:
                failures.append(
                    f"{name}: fleet {tag} started {fleet['mappers']} mappers for "
                    f"{fleet['input_bytes']} bytes, above ceil(bytes / break-even) = "
                    f"{ceiling} (mappers counted from files again, or sizes not passed?)"
                )
            else:
                print(
                    f"ok: {name} fleet {tag} {fleet['mappers']} mapper(s) for "
                    f"{fleet['input_bytes']} bytes (ceiling {ceiling})"
                )

    for name in COLLECTION_CEILING_QUERIES:
        if not in_scope(name):
            continue
        measurement = current.get(name)
        if measurement is None:
            failures.append(f"{name}: missing from current results")
            continue
        try:
            overhead = (
                measurement["modelled_latency_median_seconds"]
                - measurement["max_worker_seconds"]
            )
            launch = (
                (measurement["workers"] - 1) / DRIVER_INVOCATIONS_PER_SECOND
                + ROUND_TRIP_SECONDS
                + WARM_START_SECONDS
            )
        except KeyError as missing:
            failures.append(f"{name}: missing the {missing.args[0]!r} field")
            continue
        ceiling = launch + 2 * ROUND_TRIP_SECONDS
        if overhead > ceiling:
            failures.append(
                f"{name}: modelled latency is {overhead:.3f} s beyond the slowest "
                f"worker, above launch + two round trips = {ceiling:.3f} s "
                f"(a flat result-poll round on top of the fleet again?)"
            )
        else:
            print(
                f"ok: {name} modelled latency {overhead:.3f} s beyond the slowest "
                f"worker (ceiling {ceiling:.3f} s)"
            )

    if current_path is not None:
        for name, measurement in baseline.items():
            if not in_scope(name):
                continue
            for field in RELATIVE_FIELDS:
                reference = measurement.get(field)
                observed = current.get(name, {}).get(field)
                if reference is None or observed is None:
                    continue
                allowed = reference * tolerance
                if observed < allowed:
                    failures.append(
                        f"{name}: {field} regressed to {observed:.2f}x, "
                        f"below {allowed:.2f}x ({tolerance:.0%} of baseline "
                        f"{reference:.2f}x)"
                    )
                else:
                    print(
                        f"ok: {name} {field} {observed:.2f}x vs baseline "
                        f"{reference:.2f}x"
                    )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        action="append",
        default=None,
        help="committed trajectory to compare against (repeatable; defaults "
        "to BENCH_hot_paths.json + BENCH_tpch.json)",
    )
    parser.add_argument(
        "--current",
        type=Path,
        default=None,
        help="fresh benchmark output; omit to only check the baseline's floors",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.6,
        help="fraction of the baseline speedup the current run must retain",
    )
    parser.add_argument(
        "--sections",
        action="append",
        default=None,
        metavar="SECTION",
        help="check only this section (repeatable); defaults to all sections",
    )
    parser.add_argument(
        "--invocation-output",
        type=Path,
        action="append",
        default=None,
        metavar="PATH",
        help="text printed by `repro invocation --workers N` (repeatable); "
        "checks only the launch shapes, no trajectory",
    )
    arguments = parser.parse_args()
    if arguments.invocation_output:
        failures = [
            failure
            for path in arguments.invocation_output
            for failure in check_invocation_output(
                path.read_text(encoding="utf-8"), source=str(path)
            )
        ]
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    repo_root = Path(__file__).resolve().parent.parent
    baselines = arguments.baseline or [
        repo_root / "BENCH_hot_paths.json",
        repo_root / "BENCH_tpch.json",
    ]
    return check(
        baselines,
        arguments.current,
        arguments.tolerance,
        sections=arguments.sections,
    )


if __name__ == "__main__":
    raise SystemExit(main())
