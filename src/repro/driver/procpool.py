"""Persistent process pool executing worker-plan fragments over shared memory.

The ``processes`` execution mode gives the simulation *real* core-level
parallelism: the driver spawns a pool of OS worker processes once per query
driver (spawn context, so it behaves identically under any start method and
never forks locks), keeps them warm across waves and queries, and ships work
through shared memory instead of pickle:

* **Inputs** — the driver exports the query's input objects into one
  ``multiprocessing.shared_memory`` segment
  (:class:`~repro.cloud.s3.SharedObjectExport`); each child attaches once per
  query and mounts it as a read-only
  :class:`~repro.cloud.s3.SharedSegmentStore`.  Only the segment *name* and
  the ``{path: (offset, length)}`` directory cross the pipe.
* **Outputs** — each child writes its partial table as one typed frame
  (:func:`repro.engine.payload.encode_table`) into a fresh
  shared-memory segment and sends back the segment name; the driver copies
  the frame out — the same bytes a serial worker's result message carries —
  and unlinks the segment.  Column arrays never pass through pickle in
  either direction.

Segment lifecycle: the **driver** owns every segment: it unlinks a result
segment as soon as it has copied the frame out, and the input export when the
query finishes (success or failure).  Children merely attach.  With
the spawn start method all children share the parent's ``resource_tracker``,
which acts as a crash safety net — if the driver dies before unlinking, the
tracker removes the segments at exit.

A dead child (killed, crashed interpreter) surfaces as ``EOFError`` on its
pipe: its outstanding tasks come back as error results — flowing into the
driver's normal per-worker retry machinery — and the child is respawned
before the next dispatch.
"""

from __future__ import annotations

import multiprocessing as mp
import uuid
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Tuple

#: Name prefix of result segments created by pool children.
RESULT_SEGMENT_PREFIX = "lambada_r_"


def _child_main(conn) -> None:
    """Child process loop: execute plan fragments against shared segments.

    Message protocol (parent → child)::

        ("run", task_id, plan_dict, segment_name, directory, memory_mib, threads,
         result_name)
        ("forget", [segment_names...])     # drop cached attachments
        ("stop",)

    ``result_name`` is the shared-memory segment name the child must use for
    its result.  The *parent* assigns it (in :meth:`ProcessWorkerPool.
    run_tasks`) so that when a child dies mid-task the parent can unlink the
    segment the child may already have created — otherwise it would leak in
    ``/dev/shm`` until reboot.

    and child → parent::

        ("ok", task_id, counters_payload, result_segment_or_None, nbytes)
        ("err", task_id, "ExcType: message")

    Imports happen lazily inside the child so the parent's spawn cost stays
    low and the module can be imported without NumPy side effects.
    """
    from multiprocessing import shared_memory

    from repro.cloud.s3 import SharedSegmentStore
    from repro.engine.payload import encode_table
    from repro.engine.pipeline import execute_worker_plan_table
    from repro.plan.physical import WorkerPlan

    # Cache of attached input segments: name -> (SharedMemory, SharedSegmentStore)
    segments: Dict[str, Tuple[Any, Any]] = {}

    def release(name: str) -> None:
        entry = segments.pop(name, None)
        if entry is not None:
            try:
                entry[0].close()
            except BufferError:
                pass

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "forget":
            for name in message[1]:
                release(name)
            continue

        _, task_id, plan_dict, segment_name, directory, memory_mib, threads = message[:7]
        assigned_name = message[7] if len(message) > 7 else None
        try:
            if segment_name not in segments:
                shm = shared_memory.SharedMemory(name=segment_name)
                segments[segment_name] = (shm, SharedSegmentStore(shm.buf, directory))
            store = segments[segment_name][1]
            plan = WorkerPlan.from_dict(plan_dict)
            result, table = execute_worker_plan_table(
                plan, store, memory_mib=memory_mib, threads=threads
            )
            payload = result.to_payload()
            result_segment: Optional[str] = None
            nbytes = 0
            if table is not None:
                blob = encode_table(table)
                out = shared_memory.SharedMemory(
                    name=assigned_name
                    or f"{RESULT_SEGMENT_PREFIX}{uuid.uuid4().hex[:12]}",
                    create=True,
                    size=max(len(blob), 1),
                )
                out.buf[: len(blob)] = blob
                result_segment = out.name
                nbytes = len(blob)
                # The driver attaches, copies, and unlinks; this mapping is
                # no longer needed (the /dev/shm entry survives the close).
                out.close()
            conn.send(("ok", task_id, payload, result_segment, nbytes))
        except Exception as exc:  # noqa: BLE001 - report, never die silently
            try:
                conn.send(("err", task_id, f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break


class _Child:
    """Bookkeeping for one pool worker process."""

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: In-flight task ids mapped to their parent-assigned result-segment
        #: names (``None`` for tasks dispatched without one).
        self.pending: Dict[Any, Optional[str]] = {}

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ProcessWorkerPool:
    """Spawn-safe pool of persistent worker processes.

    Children stay warm across :meth:`run_tasks` calls (and therefore across
    queries and retry waves), mirroring warm Lambda instances.  Tasks go to
    whichever child has room (see :meth:`run_tasks`); results are collected
    as they complete via ``multiprocessing.connection.wait``.
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("pool size must be at least 1")
        self.size = size
        #: Children respawned after dying mid-query, since pool creation.
        self.respawns = 0
        self._ctx = mp.get_context("spawn")
        self._children: List[_Child] = []
        for _ in range(size):
            self._children.append(self._spawn())

    def _spawn(self) -> _Child:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_child_main, args=(child_conn,), daemon=True
        )
        process.start()
        child_conn.close()
        return _Child(process, parent_conn)

    def _ensure_children(self) -> List[_Child]:
        """Respawn any child that died since the last dispatch."""
        for index, child in enumerate(self._children):
            if not child.alive:
                try:
                    child.conn.close()
                except OSError:
                    pass
                self._release_orphans(child)
                self._children[index] = self._spawn()
                self.respawns += 1
        return self._children

    @staticmethod
    def _release_orphans(child: _Child) -> None:
        """Unlink result segments a dead child may have created but not reported.

        The parent assigned every in-flight task's result-segment name, so a
        child that died after creating its segment (but before sending the
        result) cannot leak the ``/dev/shm`` entry.
        """
        if not child.pending:
            return
        from multiprocessing import shared_memory

        for result_name in child.pending.values():
            if result_name is None:
                continue
            try:
                orphan = shared_memory.SharedMemory(name=result_name)
            except FileNotFoundError:
                continue
            orphan.close()
            try:
                orphan.unlink()
            except FileNotFoundError:
                pass

    def stats(self) -> Dict[str, int]:
        """Pool health counters (size, live children, respawns so far)."""
        return {
            "size": self.size,
            "alive": sum(1 for child in self._children if child.alive),
            "respawns": self.respawns,
        }

    def run_tasks(self, tasks: List[tuple]) -> Dict[Any, tuple]:
        """Dispatch ``("run", task_id, ...)`` tuples; collect all results.

        Each child holds one task at a time and gets its next one when its
        result comes back, so a child on a slow or shared core takes fewer
        tasks instead of setting the wave's wall time: an equal deal up front
        makes the wave as slow as its slowest core whenever anything else
        runs on the host.  Which child ran a task never shows in its result.

        Returns ``{task_id: child_message}`` where each message is either
        ``("ok", ...)`` or ``("err", task_id, reason)``.  Tasks stranded on a
        child that dies mid-flight are synthesised as errors, which the
        driver's retry loop then re-dispatches (onto a respawned child).
        """
        results: Dict[Any, tuple] = {}
        if not tasks:
            return results
        live = list(self._ensure_children())
        by_conn = {child.conn: child for child in live}
        queue = deque(tasks)

        def feed(child: _Child) -> None:
            task = queue.popleft()
            result_name: Optional[str] = None
            if task[0] == "run":
                if len(task) > 7:
                    result_name = task[7]
                else:
                    # Assign the result-segment name here so a child death
                    # mid-task cannot leak the segment it may have created.
                    result_name = f"{RESULT_SEGMENT_PREFIX}{uuid.uuid4().hex[:12]}"
                    task = task + (result_name,)
            child.pending[task[1]] = result_name
            try:
                child.conn.send(task)
            except OSError:
                pass  # the child is gone: its pipe reads EOF in the loop below

        for child in live[: len(queue)]:
            feed(child)

        while any(child.pending for child in live):
            ready = mp_connection.wait(
                [child.conn for child in live if child.pending]
            )
            for conn in ready:
                child = by_conn[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    for task_id in child.pending:
                        results[task_id] = (
                            "err", task_id, "worker process terminated unexpectedly",
                        )
                    self._release_orphans(child)
                    child.pending = {}
                    live.remove(child)
                    continue
                task_id = message[1]
                child.pending.pop(task_id, None)
                results[task_id] = message
                if queue:
                    feed(child)
        for task in queue:  # every child died with tasks still unsent
            results[task[1]] = (
                "err", task[1], "worker process terminated unexpectedly",
            )
        return results

    def forget_segments(self, names: List[str]) -> None:
        """Tell every live child to drop its cached input-segment mappings."""
        for child in self._children:
            if child.alive:
                try:
                    child.conn.send(("forget", list(names)))
                except (BrokenPipeError, OSError):
                    pass

    def close(self) -> None:
        """Stop and join all children; idempotent."""
        from repro.config import DEFAULT_RESILIENCE

        join_timeout = DEFAULT_RESILIENCE.pool_join_timeout_seconds
        for child in self._children:
            try:
                child.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for child in self._children:
            child.process.join(timeout=join_timeout)
            if child.process.is_alive():
                child.process.terminate()
                child.process.join(timeout=join_timeout)
            try:
                child.conn.close()
            except OSError:
                pass
        self._children = []

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass
