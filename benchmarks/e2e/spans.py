"""Outside-in layer tracing: spans around the calls into each ``repro`` layer.

Nothing in ``src/`` knows about this module.  :class:`Tracing` wraps a
declared table of public callables (:data:`TARGETS`) from outside — module
functions are rebound in every loaded ``repro.*`` module whose global *is* the
original (they are imported by name), methods are rebound on their class —
records one span per call in memory, and restores every binding afterwards.

A span is ``[name, parent, sweep, start, end]``; the layer is the part of
``name`` before the first dot.  A layer's *self time* is its spans' duration
minus the part of it their child spans cover.  A target that no longer exists
is reported on stderr and counted in :attr:`Tracing.missing`; it records no
spans and never raises, so a later refactor cannot break the end-to-end
numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(span name, module, dotted attribute)``.  Several targets may share a
#: span name; the per-layer metric ``<span name>_self_s`` sums them.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workload.generate", "repro.workload.tpch", "LineitemGenerator.generate"),
    ("workload.generate", "repro.workload.tpch", "OrdersGenerator.generate"),
    ("workload.generate", "repro.workload.tpch", "CustomerGenerator.generate"),
    ("workload.generate", "repro.workload.tpch", "SupplierGenerator.generate"),
    ("workload.generate", "repro.workload.tpch", "PartGenerator.generate"),
    ("workload.generate", "repro.workload.tpch", "NationGenerator.generate"),
    ("workload.generate", "repro.workload.tpch", "RegionGenerator.generate"),
    ("frontend.parse", "repro.frontend.sql", "parse_sql"),
    ("plan.optimize", "repro.plan.optimizer", "optimize"),
    ("driver.execute", "repro.driver.driver", "LambadaDriver.execute"),
    ("driver.shuffle_execute", "repro.driver.shuffle", "ShuffleAggregateCoordinator.execute"),
    ("driver.pool_run_tasks", "repro.driver.procpool", "ProcessWorkerPool.run_tasks"),
    # Not a span itself: every handler passing through deploy() is wrapped.
    ("driver.handler", "repro.cloud.lambda_service", "LambdaService.deploy"),
    ("cloud.lambda_invoke", "repro.cloud.lambda_service", "LambdaService.invoke"),
    ("cloud.s3_get", "repro.cloud.s3", "ObjectStore.get_object"),
    ("cloud.s3_put", "repro.cloud.s3", "ObjectStore.put_object"),
    ("cloud.s3_list", "repro.cloud.s3", "ObjectStore.list_objects"),
    ("cloud.sqs", "repro.cloud.sqs", "QueueService.send_message"),
    ("cloud.sqs", "repro.cloud.sqs", "QueueService.receive_messages"),
    ("formats.write", "repro.formats.parquet", "write_table"),
    ("formats.open", "repro.formats.parquet", "ColumnarFile.from_bytes"),
    ("formats.open", "repro.formats.parquet", "ColumnarFile.__init__"),
    ("formats.read_chunk", "repro.formats.parquet", "ColumnarFile.read_encoded_chunk"),
    ("formats.read_chunk", "repro.formats.parquet", "ColumnarFile.read_column_chunk"),
    ("formats.encoding", "repro.formats.encoding", "parse_encoded_chunk"),
    ("formats.encoding", "repro.formats.encoding", "decode_column"),
    ("formats.encoding", "repro.formats.encoding", "encode_column"),
    ("formats.encoding", "repro.formats.encoding", "decode_gather"),
    ("formats.encoding", "repro.formats.encoding", "encoded_key_codes"),
    ("formats.encoding", "repro.formats.encoding", "evaluate_comparison"),
    ("formats.encoding", "repro.formats.encoding", "EncodedChunk.decode"),
    ("engine.pipeline", "repro.engine.pipeline", "execute_worker_plan_table"),
    ("engine.scan", "repro.engine.scan", "S3ScanOperator.scan"),
    ("engine.scan", "repro.engine.scan", "S3ScanOperator.scan_fused"),
    ("engine.aggregate", "repro.engine.aggregates", "partial_aggregate"),
    ("engine.aggregate", "repro.engine.aggregates", "partial_aggregate_fused"),
    ("engine.aggregate", "repro.engine.aggregates", "merge_partials"),
    ("engine.aggregate", "repro.engine.aggregates", "finalize_aggregates"),
    ("engine.payload", "repro.engine.payload", "encode_table"),
    ("engine.payload", "repro.engine.payload", "decode_table"),
    ("engine.join", "repro.engine.join", "hash_join"),
    ("exchange.partition", "repro.exchange.partition", "hash_partition"),
    ("exchange.partition", "repro.exchange.partition", "hash_partition_masked"),
    ("exchange.partition", "repro.exchange.partition", "partition_scatter"),
    ("exchange.partition", "repro.exchange.partition", "partition_assignments"),
    ("exchange.partition", "repro.exchange.partition", "scatter_by_assignment"),
    ("exchange.encode", "repro.exchange.codec", "encode_partition_set"),
    ("exchange.encode", "repro.exchange.codec", "encode_partition"),
    ("exchange.encode", "repro.exchange.basic", "serialize_partition"),
    ("exchange.decode", "repro.exchange.codec", "decode_partition_slice"),
    ("exchange.decode", "repro.exchange.codec", "decode_partition"),
    ("exchange.decode", "repro.exchange.basic", "deserialize_partition"),
)

#: Every span name the table can produce, in declaration order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

#: Sweep id of spans recorded while the workload is being set up.
SETUP_SWEEP = -1


class Recorder:
    """In-memory span log; inactive (wrappers pass through) until a sweep is set.

    Single-threaded by design: traced passes run the fleet serially, and in
    ``processes`` mode only the parent's side of the pool is recorded.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Sweep id stamped on new spans; ``None`` switches recording off.
        self.sweep: Optional[int] = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, parent, self.sweep, time.perf_counter(), 0.0])
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        self.spans[index][4] = now
        self._stack.pop()


def _wrap(recorder: Recorder, name: str, function: Callable) -> Callable:
    """Span wrapper for a plain or generator function."""
    if inspect.isgeneratorfunction(function):
        # Time spent inside each ``next``; the consumer's work between two
        # items belongs to the consumer's own span.
        @functools.wraps(function)
        def generator_wrapper(*args, **kwargs):
            iterator = function(*args, **kwargs)
            if recorder.sweep is None:
                yield from iterator
                return
            while True:
                index = recorder.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    recorder.end(index)
                yield item

        return generator_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if recorder.sweep is None:
            return function(*args, **kwargs)
        index = recorder.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.end(index)

    return wrapper


def _wrap_deploy(recorder: Recorder, name: str, deploy: Callable) -> Callable:
    """``LambdaService.deploy`` replacement that wraps the deployed handler."""

    @functools.wraps(deploy)
    def wrapper(self, config, handler, *args, **kwargs):
        return deploy(self, config, _wrap(recorder, name, handler), *args, **kwargs)

    return wrapper


class Tracing:
    """Context manager installing the span wrappers and removing them again."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        #: Targets that could not be resolved (``module:attribute``).
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracing":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def install(self) -> None:
        import repro

        # Load every submodule first, so a lazily imported module cannot bind
        # an original by name after the rebinding pass.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for name, module_name, attribute in TARGETS:
            try:
                self._install_one(name, module_name, attribute)
            except (ImportError, AttributeError, KeyError) as error:
                self.missing.append(f"{module_name}:{attribute}")
                print(
                    f"warning: trace target {module_name}:{attribute} not found "
                    f"({type(error).__name__}); its spans are missing",
                    file=sys.stderr,
                )

    def _install_one(self, name: str, module_name: str, attribute: str) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, method_name = attribute.rpartition(".")
        make = _wrap_deploy if name == "driver.handler" else _wrap
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[method_name]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make(self.recorder, name, raw.__func__))
            else:
                wrapped = make(self.recorder, name, raw)
            self._undo.append((owner, method_name, raw))
            setattr(owner, method_name, wrapped)
            return
        original = getattr(module, attribute)
        wrapped = make(self.recorder, name, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            for global_name, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, global_name, original))
                    setattr(loaded, global_name, wrapped)

    def uninstall(self) -> None:
        self.recorder.sweep = None
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def self_times(spans: List[list]) -> Dict[int, Dict[str, float]]:
    """``sweep -> span name -> self seconds`` (duration minus child durations)."""
    covered = [0.0] * len(spans)
    for name, parent, sweep, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    result: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, (name, parent, sweep, start, end) in enumerate(spans):
        result[sweep][name] += (end - start) - covered[index]
    return result


def span_counts(spans: List[list]) -> Dict[int, Dict[str, int]]:
    """``sweep -> span name -> number of spans``."""
    result: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for name, parent, sweep, start, end in spans:
        result[sweep][name] += 1
    return result
