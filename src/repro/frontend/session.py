"""Stable public facade: ``repro.connect(env)`` -> :class:`Session`.

The facade is the one entry point applications are expected to build on:

>>> import repro
>>> session = repro.connect()                       # fresh simulated cloud
>>> session.register(dataset)                       # a generated DatasetInfo
>>> result = session.sql("SELECT count(*) AS n FROM lineitem")
>>> result.rows
[{'n': 6005}]
>>> print(result.explain())                         # join order + wave plan
>>> result.statistics.cost_total                    # modelled dollars

Everything else — the dataflow DSL, the driver, the optimizer — stays
importable, but only this module promises a stable surface: ``connect``,
``Session.register``/``register_table``, ``Session.sql`` returning a
:class:`~repro.driver.driver.QueryResult` with ``rows``, ``statistics`` and
``explain()``, and ``Session.dataflow`` for the Listing-1 interface.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.cloud.environment import CloudEnvironment
from repro.driver.driver import LambadaDriver, QueryResult
from repro.frontend.dataframe import DataFlow, from_files
from repro.frontend.sql import SqlCatalog, parse_sql

__all__ = ["Session", "connect"]


class Session:
    """A connection to a (simulated) serverless cloud: driver + table catalog.

    Queries are issued as SQL text against tables previously registered with
    :meth:`register` / :meth:`register_table`; N-way joins lower to the
    multi-wave shuffle-DAG schedule automatically.
    """

    def __init__(self, driver: LambadaDriver, catalog: Optional[SqlCatalog] = None):
        self.driver = driver
        self.catalog = catalog if catalog is not None else SqlCatalog()

    # -- catalog -----------------------------------------------------------------

    @property
    def env(self) -> CloudEnvironment:
        """The cloud environment this session runs against."""
        return self.driver.env

    def register(self, dataset) -> "Session":
        """Register a generated dataset (anything with name/paths/schema)."""
        self.catalog.register_dataset(dataset)
        return self

    def register_table(
        self,
        name: str,
        paths: Union[str, Sequence[str]],
        columns: Optional[Sequence[str]] = None,
    ) -> "Session":
        """Register a table by name and file paths (optionally with columns)."""
        self.catalog.register(name, paths, columns=columns)
        return self

    def tables(self) -> Sequence[str]:
        """Names of the registered tables."""
        return sorted(self.catalog.tables)

    # -- querying ----------------------------------------------------------------

    def sql(self, text: str, **execute_kwargs) -> QueryResult:
        """Parse, plan, and execute a SQL statement.

        The returned :class:`~repro.driver.driver.QueryResult` carries the
        result (``rows`` / ``table`` / ``column``), the modelled
        ``statistics``, and ``explain()`` — the optimizer's join order and
        the wave-by-wave physical schedule that actually ran.  Keyword
        arguments (``num_workers``, ``cold``, ``deadline_seconds``, ...)
        pass through to :meth:`LambadaDriver.execute`.
        """
        plan = parse_sql(text, self.catalog)
        return self.driver.execute(plan, **execute_kwargs)

    def explain(self, text: str) -> str:
        """Plan a SQL statement and describe its schedule without running it."""
        from repro.plan.optimizer import optimize

        physical, report = optimize(parse_sql(text, self.catalog))
        parts = [report.describe()] if report is not None else []
        parts.append(physical.explain())
        return "\n".join(parts)

    def dataflow(self, paths: Union[str, Sequence[str]]) -> DataFlow:
        """Start a Listing-1 dataflow over files, bound to this session's driver."""
        from repro.frontend.dataframe import LambadaSession

        return from_files(paths).bind(LambadaSession(self.driver))

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release driver resources (worker pools, queues)."""
        self.driver.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    env: Optional[CloudEnvironment] = None,
    *,
    region: str = "eu",
    **driver_kwargs,
) -> Session:
    """Open a :class:`Session` against a cloud environment.

    With no arguments a fresh simulated environment is created (``region``
    selects its pricing/latency profile).  Driver keyword arguments —
    ``memory_mib``, ``execution_mode``, ``resilience_policy``, ... — pass
    through to :class:`~repro.driver.driver.LambadaDriver`.
    """
    if env is None:
        env = CloudEnvironment.create(region=region)
    return Session(LambadaDriver(env, **driver_kwargs))
