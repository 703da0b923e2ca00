"""Persistent process pool executing worker-plan fragments over shared memory.

The ``processes`` execution mode gives the simulation *real* core-level
parallelism: the driver spawns a pool of OS worker processes once per query
driver (spawn context, so it behaves identically under any start method and
never forks locks), keeps them warm across waves and queries, and ships work
without pickling column data:

* **Inputs** — the driver mirrors every input object into its own
  ``multiprocessing.shared_memory`` segment, once per object version
  (:class:`~repro.cloud.s3.SharedObjectMirror`).  A task carries its files'
  ``{path: (segment name, length)}`` directory entries; a child attaches to
  a segment the first time a task names it, keeps the attachment across
  queries, and mounts its task's files as a read-only
  :class:`~repro.cloud.s3.SharedSegmentStore`.
* **Outputs** — each child encodes its partial table as one typed frame
  (:func:`repro.engine.payload.encode_table`) and sends it over its own pipe
  as raw bytes (``Connection.send_bytes``) right after the result header —
  the same bytes a serial worker's result message carries.

Segment lifecycle: the **driver** owns every segment.  It retires a mirrored
object that was overwritten or deleted at its next sync, or that the query
does not read when the query's copies would not fit otherwise — children are
told to ``forget`` it, then it is unlinked — and unlinks the rest when it
closes.
Children merely attach, and a respawned child attaches again lazily.  With
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
from collections import deque
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Set, Tuple


def _child_main(conn) -> None:
    """Child process loop: execute plan fragments against mirrored objects.

    Message protocol (parent → child)::

        ("run", task_id, plan_dict, directory, memory_mib, threads)
        ("forget", [segment_names...])     # drop these attachments
        ("stop",)

    ``directory`` is ``{path: (segment_name, length)}`` for the task's files.

    and child → parent::

        ("ok", task_id, counters_payload, nbytes)   # then nbytes of frame
        ("err", task_id, "ExcType: message")

    An ``ok`` header with ``nbytes > 0`` is followed on the same pipe by the
    result frame as one ``send_bytes`` message.

    Imports happen lazily inside the child so the parent's spawn cost stays
    low and the module can be imported without NumPy side effects.
    """
    from multiprocessing import shared_memory

    from repro.cloud.s3 import SharedSegmentStore
    from repro.engine.payload import encode_table
    from repro.engine.pipeline import execute_worker_plan_table
    from repro.plan.physical import WorkerPlan

    # Attached input segments: name -> (SharedMemory, view of the object).
    attached: Dict[str, Tuple[Any, memoryview]] = {}

    def view(name: str, length: int) -> memoryview:
        if name not in attached:
            shm = shared_memory.SharedMemory(name=name)
            attached[name] = (shm, shm.buf[:length])
        return attached[name][1]

    def release(name: str) -> None:
        entry = attached.pop(name, None)
        if entry is not None:
            try:
                entry[1].release()
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

        _, task_id, plan_dict, directory, memory_mib, threads = message
        try:
            store = SharedSegmentStore(
                {path: view(*entry) for path, entry in directory.items()}
            )
            plan = WorkerPlan.from_dict(plan_dict)
            result, table = execute_worker_plan_table(
                plan, store, memory_mib=memory_mib, threads=threads
            )
            frame = encode_table(table) if table is not None else b""
            conn.send(("ok", task_id, result.to_payload(), len(frame)))
            if frame:
                conn.send_bytes(frame)
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
        #: In-flight task ids.
        self.pending: Set[Any] = set()

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
                self._children[index] = self._spawn()
                self.respawns += 1
        return self._children

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
        ``("ok", task_id, counters_payload, frame_or_None)`` or
        ``("err", task_id, reason)``.  Tasks stranded on a child that dies
        mid-flight are synthesised as errors, which the driver's retry loop
        then re-dispatches (onto a respawned child).
        """
        results: Dict[Any, tuple] = {}
        if not tasks:
            return results
        live = list(self._ensure_children())
        by_conn = {child.conn: child for child in live}
        queue = deque(tasks)

        def feed(child: _Child) -> None:
            task = queue.popleft()
            child.pending.add(task[1])
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
                    if message[0] == "ok":
                        frame = conn.recv_bytes() if message[3] else None
                        message = message[:3] + (frame,)
                except (EOFError, OSError):
                    for task_id in child.pending:
                        results[task_id] = (
                            "err", task_id, "worker process terminated unexpectedly",
                        )
                    child.pending = set()
                    live.remove(child)
                    continue
                task_id = message[1]
                child.pending.discard(task_id)
                results[task_id] = message
                if queue:
                    feed(child)
        for task in queue:  # every child died with tasks still unsent
            results[task[1]] = (
                "err", task[1], "worker process terminated unexpectedly",
            )
        return results

    def forget_segments(self, names: List[str]) -> None:
        """Tell every live child to drop its attachments to these segments."""
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
