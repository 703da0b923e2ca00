"""One conformance matrix: every query, in every execution mode, fleet width,
fault storm and front end, held to one comparison.

A *cell* (:class:`Cell`) is one query run on one axis value each:

* ``query`` — one of the ten named TPC-H queries (:data:`NAMED`) or a
  generated single-relation query (:class:`Generated`);
* ``data`` — the stack it runs on (:data:`LAYOUTS`: data seeds 7 and 11 at
  SF 0.002; two more stacks hold the scale factors older suites ran at);
* ``mode`` — ``serial`` / ``threads`` / ``processes`` (a pool of 2);
* ``width`` — forced ``num_workers`` (``None``: the planner's own fan-out);
* ``storm`` — none, or :func:`~repro.cloud.faults.chaos_plan` /
  :func:`~repro.cloud.faults.corruption_chaos_plan` at a chaos seed;
* ``front_end`` — the parsed plan (``parse_sql`` over the relations' paths,
  sizes unknown) or ``Session.sql`` (registered datasets, sizes known).

:func:`check` runs a cell and holds it to the one comparison: its table is
bit-identical to the clean serial run of the same (query, data, width, front
end), and that run equals stdlib ``sqlite3`` (``tests/oracle.py``) running the
query's own text — exactly, except :data:`FLOAT_SUMS` (sums of non-integer
measures, added in another order than SQLite's) at ``rtol=1e-9``.  On top of
that each cell asserts what its axes promise (a storm injected and recovered
within its caps, a DAG swept its exchange, a clean run reports clean).

``tests/test_conformance.py`` runs the cells older suites ran plus a greedy
all-pairs cover of the rest (:func:`pairwise`); ``tests/conformance_product.py``
runs the full product (CI's chaos job passes it by path).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import itertools
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro
from repro.cloud.environment import CloudEnvironment
from repro.cloud.faults import FaultPlan, FaultRule, chaos_plan, corruption_chaos_plan
from repro.driver.driver import LambadaDriver
from repro.driver.resilience import ResiliencePolicy
from repro.driver.shuffle import _exchange_buckets
from repro.frontend.sql import parse_sql
from repro.workload import queries as q
from repro.workload import tpch
from tests import oracle
from tests.conftest import leaked_segments

# -- the one comparison ------------------------------------------------------------------


def assert_bit_identical(expected, actual, label=""):
    """Same columns in the same order, same dtypes, same bytes."""
    assert list(actual) == list(expected), (
        f"{label}: columns differ: {list(expected)} vs {list(actual)}"
    )
    for name in expected:
        want, got = np.asarray(expected[name]), np.asarray(actual[name])
        assert got.dtype == want.dtype, f"{label}:{name}: dtype {want.dtype} vs {got.dtype}"
        if want.dtype.hasobject:
            assert got.tolist() == want.tolist(), f"{label}:{name}: values differ"
        else:
            assert got.tobytes() == want.tobytes(), f"{label}:{name}: values differ"


#: Columns of the named queries summed (or averaged) over non-integer
#: measures: the engine adds them in another order than SQLite does.
FLOAT_SUMS = {
    "q1": ("sum_base_price", "sum_disc_price", "sum_charge", "avg_price", "avg_disc"),
    "q3": ("revenue",),
    "q6": ("revenue",),
    "q14": ("revenue",),
}


def assert_matches(query, actual, expected, label="", inexact: Sequence[str] = ()):
    """``actual`` equals ``expected`` as float64: exactly, except the
    ``inexact`` columns (default: ``query``'s :data:`FLOAT_SUMS`) at
    ``rtol=1e-9``."""
    inexact = inexact or FLOAT_SUMS.get(query, ())
    assert sorted(actual) == sorted(expected), label
    for name, column in expected.items():
        got = np.asarray(actual[name], dtype=np.float64)
        want = np.asarray(column, dtype=np.float64)
        if name in inexact:
            np.testing.assert_allclose(got, want, rtol=1e-9, err_msg=f"{label}: {name}")
        else:
            np.testing.assert_array_equal(got, want, err_msg=f"{label}: {name}")


def table_digest(table) -> str:
    """sha256 prefix of a table's column names, dtypes and bytes."""
    digest = hashlib.sha256()
    for name in table:
        column = np.ascontiguousarray(table[name])
        digest.update(name.encode())
        digest.update(column.dtype.str.encode())
        digest.update(column.tobytes())
    return digest.hexdigest()[:16]


# -- axes ----------------------------------------------------------------------------------

NAMED = {
    "q1": q.q1_sql, "q3": q.q3_sql, "q5": q.q5_sql, "q6": q.q6_sql, "q7": q.q7_sql,
    "q9": q.q9_sql, "q10": q.q10_sql, "q12": q.q12_sql, "q14": q.q14_sql, "q18": q.q18_sql,
}
#: An aggregate without GROUP BY over no qualifying rows is one row (count
#: 0, the rest NULL): over files pruned whole, over rows a filter drops at
#: run time, and behind a join.
EMPTY_AGGREGATES = {
    "empty_pruned": "SELECT count(*) AS n FROM lineitem WHERE l_returnflag > 2",
    "empty_at_run_time": (
        "SELECT count(*) AS n FROM lineitem WHERE l_linestatus > 0 AND l_receiptdate = 9108"
    ),
    "empty_join": (
        "SELECT count(*) AS n, sum(l_quantity) AS s FROM lineitem JOIN orders "
        "ON l_orderkey = o_orderkey WHERE l_shipdate > 20000"
    ),
}
#: The multi-stage join DAGs (the other three joins are one stage).
DAG_QUERIES = ("q5", "q7", "q9", "q10", "q18")
#: The NumPy references whose dtypes a named query's result carries.
REFERENCES = {
    "q5": (q.reference_q5, ("lineitem", "orders", "customer", "supplier", "nation", "region")),
    "q7": (q.reference_q7, ("lineitem", "orders", "customer", "supplier")),
    "q9": (q.reference_q9, ("lineitem", "part", "supplier", "orders", "nation")),
    "q10": (q.reference_q10, ("lineitem", "orders", "customer", "nation")),
    "q18": (q.reference_q18, ("lineitem", "orders", "customer")),
}
MODES = ("serial", "threads", "processes")
WIDTHS = (None, 1, 3, 8)
DATA = (7, 11)
CHAOS_SEEDS = (11, 23)
STORMS = ("none",) + tuple(
    f"{kind}-{seed}" for kind in ("chaos", "corruption") for seed in CHAOS_SEEDS
)
FRONT_ENDS = ("plan", "sql")

#: data -> (scale factor, data seed).  The matrix crosses :data:`DATA`; the
#: other two stacks hold cells that older suites ran at those scales.
LAYOUTS = {7: (0.002, 7), 11: (0.002, 11), "sf0.01": (0.01, 7), "sf0.0005": (0.0005, 11)}
#: Files and row groups a relation is written with (the rest: the writers'
#: defaults): the layout the chaos suites' storm schedules were drawn on.
FILES = {
    "lineitem": {"num_files": 8, "row_group_rows": 1024},
    "orders": {"num_files": 3, "row_group_rows": 512},
    "part": {"num_files": 2, "row_group_rows": 512},
}

CHAOS_RATE = 0.2
# Every always-fatal kind of chaos_plan, and each of corruption_chaos_plan's
# four kinds, is capped at MAX_FAULTS injections; six fatal kinds x 2 = at
# most 12 fatal faults a run, and a detected corruption costs at most one
# re-read or one re-execution, so an attempt budget of 14 provably converges
# even if every fault lands on the same worker.
MAX_FAULTS = 2
CHAOS_POLICY = ResiliencePolicy(max_attempts=14)
STORM_PLANS = {"chaos": chaos_plan, "corruption": corruption_chaos_plan}
#: Rules of each storm plan: the injection cap is rules x MAX_FAULTS.
STORM_RULES = {"chaos": 9, "corruption": 4}
CORRUPTION_KINDS = {"s3.bitflip", "s3.truncate", "s3.stale_body", "sqs.corrupt_payload"}

#: Scan counters every worker reports, summed over the fleet: the same in
#: every mode (a pooled result's travel in the header on the child's pipe).
SUMMED_COUNTERS = (
    "rows_scanned", "bytes_read", "get_requests",
    "row_groups_shortcircuited", "rows_decode_saved", "column_chunks_skipped",
)

#: Digests (:func:`table_digest`) of the clean serial runs at the planner's
#: width of every named query on the two data seeds, recorded with the parent
#: commit's ``src/``: the answers are the parent's, bit for bit.  Q14's
#: revenue is the one sum whose order the front end moves (plan, SQL).
DIGESTS: Dict[int, Dict[str, object]] = {
    7: {
        "q1": "989e6332d29508a7", "q3": "d879a30235dd6d2c", "q5": "cbaf6140c70547d2",
        "q6": "1a8ce50b7853b21f", "q7": "4ceabc27e4d37542", "q9": "5cc3615cb60007b0",
        "q10": "61d0fcec6186cddf", "q12": "cd9669689f650af5", "q14": ("78b0da19c926f4a4", "dc0a42f0a2f36f56"),
        "q18": "c4c9baffcd8c9d4d",
    },
    11: {
        "q1": "a49d03b19e34bbcd", "q3": "c7e35b5615f00b87", "q5": "c53a4f6797226f7b",
        "q6": "baedcca0627bb915", "q7": "0f4c25078bb6bdae", "q9": "e83294f38c49794a",
        "q10": "9b36953c7217ccef", "q12": "8bb6087d49a8454a", "q14": ("791e736e890462e5", "976fd879533d86b7"),
        "q18": "24758d089b989754",
    },
}


@dataclasses.dataclass(frozen=True)
class Generated:
    """A generated single-relation query over LINEITEM: conjunctive
    ``filters`` (column, operator, literal), 0-2 group-by ``keys`` and
    ``aggregates`` (function, column; ``None`` for ``count(*)``)."""

    filters: Tuple[Tuple[str, str, float], ...]
    keys: Tuple[str, ...]
    aggregates: Tuple[Tuple[str, Optional[str]], ...]

    @property
    def sql(self) -> str:
        select = list(self.keys) + [
            f"{function}({column or '*'}) AS a{index}"
            for index, (function, column) in enumerate(self.aggregates)
        ]
        text = f"SELECT {', '.join(select)} FROM lineitem"
        if self.filters:
            text += " WHERE " + " AND ".join(
                f"{column} {op} {literal!r}" for column, op, literal in self.filters
            )
        if self.keys:
            keys = ", ".join(self.keys)
            text += f" GROUP BY {keys} ORDER BY {keys}"
        return text

    @property
    def inexact(self) -> Tuple[str, ...]:
        """Aliases of the sums and averages over non-integer columns."""
        integral = integral_columns()
        return tuple(
            f"a{index}" for index, (function, column) in enumerate(self.aggregates)
            if function in ("sum", "avg") and column not in integral
        )

    def __str__(self) -> str:
        return self.sql


Query = Union[str, Generated]


def text(query: Query) -> str:
    if isinstance(query, Generated):
        return query.sql
    return NAMED[query]() if query in NAMED else EMPTY_AGGREGATES[query]


def is_scan(query: Query) -> bool:
    """A single-relation query: its fleet is one scan wave."""
    return " JOIN " not in text(query) and query not in DAG_QUERIES + ("q3", "q12", "q14")


@dataclasses.dataclass(frozen=True)
class Cell:
    query: Query
    data: object = 7
    mode: str = "serial"
    width: Optional[int] = None
    storm: str = "none"
    front_end: str = "plan"

    @property
    def baseline(self) -> "Cell":
        """The clean serial run this cell must equal bit for bit."""
        return dataclasses.replace(self, mode="serial", storm="none")

    @property
    def id(self) -> str:
        width = "auto" if self.width is None else f"w{self.width}"
        return f"{self.query}-d{self.data}-{self.mode}-{width}-{self.storm}-{self.front_end}"


def excluded(cell: Cell) -> Optional[str]:
    """Why a combination of axis values has no cell, or ``None``.

    A pooled scan reads the shared-memory mirror and answers over a pipe: it
    consults only the ``lambda.run`` and ``pool.task`` sites (ROADMAP item
    16), so a storm has little to aim at there."""
    if cell.mode != "processes" or not is_scan(cell.query):
        return None
    if cell.storm.startswith("corruption"):
        return "a pooled scan consults no s3.body or sqs.deliver site"
    if cell.storm.startswith("chaos") and cell.width == 1:
        return "one pooled scan worker's lambda.run and pool.task draws never fire"
    return None


AXES = {
    "query": tuple(NAMED), "data": DATA, "mode": MODES,
    "width": WIDTHS, "storm": STORMS, "front_end": FRONT_ENDS,
}


def product(axes: Dict[str, Sequence] = AXES) -> List[Cell]:
    """Every cell of ``axes`` that :func:`excluded` lets through."""
    cells = (Cell(**dict(zip(axes, values))) for values in itertools.product(*axes.values()))
    return [cell for cell in cells if excluded(cell) is None]


def pairwise(axes: Dict[str, Sequence] = AXES) -> List[Cell]:
    """A deterministic greedy all-pairs cover of ``axes``: every pair of
    values of any two axes is in at least one cell, none excluded.  Each
    cell starts from the first uncovered pair and fills the other axes in
    order, each with the value that covers the most uncovered pairs (the
    first declared, on a tie)."""
    pairs = [
        frozenset({(a, x), (b, y)})
        for a, b in itertools.combinations(axes, 2) for x in axes[a] for y in axes[b]
    ]
    uncovered = set(pairs)
    cells = []
    for pair in pairs:
        if pair not in uncovered:
            continue
        row = dict(pair)
        for name, values in axes.items():
            if name in row:
                continue

            def gain(value):
                return sum(frozenset({(other, row[other]), (name, value)}) in uncovered
                           for other in row)

            row[name] = next(
                value for value in sorted(values, key=lambda value: -gain(value))
                if len(row) + 1 < len(axes) or excluded(Cell(**{**row, name: value})) is None
            )
        cells.append(Cell(**{name: row[name] for name in axes}))
        uncovered -= {frozenset(both) for both in itertools.combinations(row.items(), 2)}
    return cells


# -- stacks --------------------------------------------------------------------------------


class Stack:
    """One environment holding all seven relations at one (scale factor,
    seed), one driver and one ``Session`` per mode, and each cell's baseline
    once it ran."""

    def __init__(self, data):
        self.scale_factor, self.seed = LAYOUTS[data]
        self.env = CloudEnvironment.create(region="eu")
        self.datasets = {
            name: getattr(tpch, f"generate_{name}_dataset")(
                self.env.s3, scale_factor=self.scale_factor, seed=self.seed, **FILES.get(name, {})
            )
            for name in oracle.GENERATORS
        }
        self.catalog = q.tpch_catalog(
            **{name: dataset.paths for name, dataset in self.datasets.items()}
        )
        self._drivers: Dict[str, LambadaDriver] = {}
        self._sessions: Dict[str, repro.Session] = {}
        self._plans: Dict[str, object] = {}
        self.baselines: Dict[Cell, object] = {}

    @staticmethod
    def _driver_kwargs(mode: str) -> dict:
        kwargs = {"execution_mode": mode, "resilience_policy": CHAOS_POLICY}
        if mode == "processes":
            kwargs["max_parallel_invocations"] = 2
        return kwargs

    def driver(self, mode: str = "serial") -> LambadaDriver:
        if mode not in self._drivers:
            self._drivers[mode] = LambadaDriver(self.env, **self._driver_kwargs(mode))
        return self._drivers[mode]

    def session(self, mode: str = "serial") -> "repro.Session":
        if mode not in self._sessions:
            session = repro.connect(self.env, **self._driver_kwargs(mode))
            for dataset in self.datasets.values():
                session.register(dataset)
            self._sessions[mode] = session
        return self._sessions[mode]

    def plan(self, query: Query):
        """The parsed plan of ``query`` over the relations' paths."""
        sql = text(query)
        if sql not in self._plans:
            self._plans[sql] = parse_sql(sql, self.catalog)
        return self._plans[sql]

    def table(self, name: str) -> Dict[str, np.ndarray]:
        return oracle.tables(self.scale_factor, self.seed)[name]

    def close(self) -> None:
        for closeable in (*self._sessions.values(), *self._drivers.values()):
            closeable.close()
        self._sessions.clear()
        self._drivers.clear()


_STACKS: Dict[object, Stack] = {}


def stack(data=7) -> Stack:
    """The shared stack of ``data`` (built on first use, kept for the
    session; :func:`close_stacks` releases its pools)."""
    if data not in _STACKS:
        _STACKS[data] = Stack(data)
    return _STACKS[data]


def close_stacks() -> None:
    for shared in _STACKS.values():
        shared.close()


#: The join coordinator's default exchange width.
NUM_BUCKETS = 10


def exchange_object_count(env) -> int:
    """Objects across the join exchange's buckets (query-independent)."""
    total = 0
    for bucket in _exchange_buckets(NUM_BUCKETS):
        env.s3.ensure_bucket(bucket)
        total += len(env.s3.list_objects(bucket))
    return total


# -- running a cell ------------------------------------------------------------------------


def storm_plan(storm: str):
    kind, seed = storm.rsplit("-", 1)
    return STORM_PLANS[kind](seed=int(seed), rate=CHAOS_RATE, max_count=MAX_FAULTS)


def one_rule(*args, seed=1, **kwargs) -> FaultPlan:
    """A plan of one rule that fires whenever it applies."""
    return FaultPlan([FaultRule(*args, 1.0, **kwargs)], seed=seed)


@contextlib.contextmanager
def installed(env, plan):
    """``plan`` installed in ``env`` for the block only."""
    env.install_fault_plan(plan)
    try:
        yield plan
    finally:
        env.install_fault_plan(None)


def run(cell: Cell):
    """Run one cell and return its :class:`~repro.driver.driver.QueryResult`.

    A storm is installed for the run only; messages its delayed or duplicated
    deliveries left behind are dropped with it, so no later cell receives them."""
    shared = stack(cell.data)
    kwargs = {} if cell.width is None else {"num_workers": cell.width}
    if cell.storm == "none":
        return _execute(shared, cell, kwargs)
    try:
        with installed(shared.env, storm_plan(cell.storm)):
            return _execute(shared, cell, kwargs)
    finally:
        for queue in shared.env.sqs.list_queues():
            shared.env.sqs.purge_queue(queue)


def _execute(shared: Stack, cell: Cell, kwargs):
    if cell.front_end == "sql":
        return shared.session(cell.mode).sql(text(cell.query), **kwargs)
    return shared.driver(cell.mode).execute(shared.plan(cell.query), **kwargs)


def baseline(cell: Cell):
    """The clean serial run of ``cell``'s (query, data, width, front end),
    held to ``sqlite3`` (and to a pinned digest, where one is pinned) the
    first time it runs."""
    key = cell.baseline
    shared = stack(cell.data)
    if key not in shared.baselines:
        result = run(key)
        check_oracle(key, result)
        _check_clean(key, result)
        shared.baselines[key] = result
    return shared.baselines[key]


def check_oracle(cell: Cell, result) -> None:
    shared = stack(cell.data)
    expected = oracle.run(text(cell.query), shared.scale_factor, shared.seed)
    label = f"{cell.id} vs sqlite3"
    if isinstance(cell.query, Generated):
        assert_matches(None, result.table, expected, label, inexact=cell.query.inexact)
        return
    assert len(next(iter(expected.values()))) > 0, "the oracle returned no rows"
    assert_matches(cell.query, result.table, expected, label)
    if cell.query not in NAMED:
        return
    if cell.query in REFERENCES:
        reference, names = REFERENCES[cell.query]
        dtypes = reference(*(shared.table(name) for name in names))
        assert {name: np.asarray(c).dtype for name, c in dtypes.items()} == {
            name: np.asarray(c).dtype for name, c in result.table.items()
        }, label
    if cell.query == "q14":
        promo = q.q14_promo_revenue(result.table)
        assert 0.0 < promo < 100.0
        np.testing.assert_allclose(promo, q.q14_promo_revenue(expected), rtol=1e-9)
    pinned = DIGESTS.get(cell.data, {}).get(cell.query)
    if isinstance(pinned, tuple):
        pinned = pinned[FRONT_ENDS.index(cell.front_end)]
    if pinned is not None and cell.width is None:
        assert table_digest(result.table) == pinned, f"{cell.id}: not the parent's table"


def _check_clean(cell: Cell, result) -> None:
    stats = result.statistics
    assert stats.resilience.clean, f"{cell.id}: clean run reported faults"
    assert stats.integrity.clean, f"{cell.id}: clean run flagged corruption"
    if cell.query in NAMED:
        assert stats.rows_scanned > 0, cell.id
        if not is_scan(cell.query):
            # Join queries pull shuffle slices through the verifying read
            # path, and every wave's consumed inputs were deleted by their paths.
            assert stats.integrity.verified_bytes > 0, cell.id
            assert stats.gc_objects_deleted >= 1, f"{cell.id}: nothing was gc'd"


def _check_storm(cell: Cell, result) -> None:
    kind = cell.storm.rsplit("-", 1)[0]
    stats = result.statistics
    resilience = stats.resilience
    injected = sum(resilience.faults_injected.values())
    # The seeded plan must actually have exercised the machinery ...
    assert injected, f"{cell.id}: no faults injected"
    # ... within its caps, with a bounded recovery.
    assert injected <= STORM_RULES[kind] * MAX_FAULTS, f"{cell.id}: injection cap violated"
    if kind == "chaos":
        assert resilience.retries + resilience.wave_retries <= 9 * MAX_FAULTS + 6, cell.id
    else:
        assert set(resilience.faults_injected) <= CORRUPTION_KINDS, cell.id
        # Each detected corruption costs at most one re-read (a cured
        # in-flight read) or one re-execution (a re-run worker).
        integrity = stats.integrity
        assert integrity.re_reads + integrity.re_executions <= injected, cell.id
    if is_scan(cell.query) and cell.mode == "processes":
        # The pool's transport consults two sites, and the storm reached both.
        planes = {kind.split(".")[0] for kind in resilience.faults_injected}
        assert planes >= {"lambda", "pool"}, cell.id
    # Retried or hedged attempts waste money but never corrupt cost accounting.
    assert stats.cost_total > 0.0
    assert resilience.wasted_cost_dollars <= stats.cost_total


def check(cell: Cell):
    """Run ``cell`` and hold it to the matrix's comparison and to what its
    axes promise; returns its result.  An :func:`excluded` cell must still
    return its baseline's table, and must inject nothing."""
    expected = baseline(cell)
    result = expected if cell == cell.baseline else run(cell)
    assert_bit_identical(expected.table, result.table, cell.id)
    # Every partial travelled as the frame a worker ships, or not at all.
    assert all(
        worker.partial is None or isinstance(worker.partial, bytes)
        for worker in result.worker_results
    )
    stats = result.statistics
    if cell.storm == "none":
        _check_clean(cell, result)
        counted = {name: getattr(stats, name) for name in SUMMED_COUNTERS}
        assert counted == {name: getattr(expected.statistics, name) for name in SUMMED_COUNTERS}
    elif excluded(cell):
        # A tripwire: the day the storm reaches this cell, the exclusion goes.
        assert stats.resilience.faults_injected == {}, f"{cell.id}: {excluded(cell)}?"
    else:
        _check_storm(cell, result)
    if not is_scan(cell.query):
        # The write-combined exchange discovers inputs through the result
        # queue barrier (no LIST or HEAD), and retried waves' bumped attempt
        # prefixes are swept: no object outlives the query.
        if cell.storm == "none":
            assert stats.exchange.list_requests + stats.exchange.head_requests == 0, cell.id
        assert exchange_object_count(stack(cell.data).env) == 0, f"{cell.id}: orphans"
    if cell.query in DAG_QUERIES:
        assert stats.dag_stages >= 2, f"{cell.id}: expected a multi-stage DAG"
        if cell.front_end == "sql":
            assert "join order" in result.explain()
    # No segment but the live input mirrors' outlives execute().
    assert leaked_segments() == []
    return result


# -- generated queries ---------------------------------------------------------------------

GENERATED_OPERATORS = ("=", "<>", "<", "<=", ">", ">=")
GENERATED_FUNCTIONS = ("sum", "min", "max", "count", "avg")
#: The generated axis: serial against processes at three forced widths.
GENERATED_MODES = ("serial", "processes")
GENERATED_WIDTHS = (1, 2, 8)


@functools.lru_cache(maxsize=None)
def integral_columns() -> frozenset:
    """LINEITEM columns whose every value is an integer."""
    return frozenset(
        name for name, column in stack(7).table("lineitem").items()
        if np.array_equal(column, np.round(column))
    )


def generated_queries():
    """A hypothesis strategy of :class:`Generated` queries: literals drawn
    from the column's own values, so filters hit, miss, prune and empty."""
    from hypothesis import strategies as st

    table = stack(7).table("lineitem")
    columns = sorted(table)
    rows = len(table[columns[0]])
    ordered = {column: np.sort(values) for column, values in table.items()}

    def literal(column, rank):
        # By rank, so the column's minimum and maximum are the likeliest
        # draws: a filter past either end keeps no row at all.
        value = ordered[column][rank]
        return int(value) if column in integral_columns() else float(value)

    filters = st.lists(
        st.builds(
            lambda column, op, rank: (column, op, literal(column, rank)),
            st.sampled_from(columns), st.sampled_from(GENERATED_OPERATORS),
            st.integers(0, rows - 1),
        ),
        max_size=3,
    )
    aggregates = st.lists(
        st.sampled_from(GENERATED_FUNCTIONS).flatmap(
            lambda function: st.just((function, None)) if function == "count"
            else st.sampled_from(columns).map(lambda column: (function, column))
        ),
        min_size=1, max_size=3,
    )
    keys = st.lists(st.sampled_from(columns), max_size=2, unique=True)
    return st.builds(
        lambda f, k, a: Generated(tuple(f), tuple(k), tuple(a)), filters, keys, aggregates
    )


def check_generated(query: Generated) -> None:
    """One generated query on the generated axis: every mode and width
    bit-identical to its serial run, and that run equal to ``sqlite3``."""
    for width in GENERATED_WIDTHS:
        for mode in GENERATED_MODES:
            check(Cell(query, mode=mode, width=width))

