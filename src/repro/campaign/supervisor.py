"""The pipe transport: chunks on supervised worker processes of this host.

``multiprocessing.Pool`` cannot survive a worker that dies mid-task: the
pool respawns the process but the task it was holding is silently lost and
``imap`` blocks forever.  :class:`ChunkSupervisor` runs chunks on an
explicitly supervised crew of worker processes instead, and moves them over
pipes under the shared :class:`~repro.campaign.scheduler.ChunkScheduler`
(pending queue, retry/bisect/quarantine, EWMA deadlines, first-write-wins
completion, graceful stop).  What is left here is process and pipe I/O:

* each worker owns one duplex pipe; the parent closes the child end after
  the fork, so a dead worker reads as EOF instead of a hang;
* a worker past its chunk deadline is *wedged*: it is killed and replaced,
  like a dead one, and its chunk goes back to the scheduler as a crash;
* a burst of crashes marks the round ``degraded``, and the engine finishes
  the remaining chunks in-process rather than dying.

Chaos knob (read in the *worker*, for tests and the CI resilience smoke):

``REPRO_CHAOS_KILL_NTH_CHUNK``
    Every worker SIGKILLs itself upon receiving its *n*-th chunk.  ``n=1``
    means no worker ever completes a chunk — the supervisor must degrade to
    serial execution and still finish the campaign.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.campaign.scheduler import (
    BACKOFF_BASE,
    ChunkScheduler,
    ChunkTask,
    SupervisedRun,
    run_chunk,
)

CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_NTH_CHUNK"


def _worker_main(conn, initializer, initargs) -> None:
    """Entry point of one supervised worker process.

    Initialises state once (compile + profile the workload), then serves
    ``(fn, chunk_id, payload)`` requests until EOF or a ``None`` sentinel.
    All chunk exceptions are caught and reported as ``error`` replies — only
    genuine process death (OOM, SIGKILL, interpreter abort) ever costs the
    parent a worker.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        kill_nth = int(os.environ.get(CHAOS_KILL_ENV, "0") or 0)
    except ValueError:
        kill_nth = 0
    try:
        state = initializer(*initargs)
    except BaseException:
        try:
            conn.send(("init-error", -1, traceback.format_exc(limit=16), None))
        except (BrokenPipeError, OSError):
            pass
        return
    handled = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        fn, chunk_id, payload = message
        handled += 1
        if kill_nth and handled == kill_nth:
            os.kill(os.getpid(), signal.SIGKILL)
        ok, body, delta = run_chunk(fn, state, payload)
        try:
            conn.send(("ok" if ok else "error", chunk_id, body, delta))
        except (BrokenPipeError, OSError):
            return


class _Worker:
    __slots__ = ("process", "conn", "task", "sent_at", "deadline")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[ChunkTask] = None
        self.sent_at = 0.0
        self.deadline = 0.0


class ChunkSupervisor:
    """Dispatches :class:`ChunkTask` batches to supervised worker processes.

    Parameters mirror the CLI knobs: ``max_retries`` attempts per chunk
    before bisection/quarantine, ``chunk_timeout`` pins every chunk deadline
    (default: deadlines derive from observed throughput), ``quarantine``
    turns repeated-crash experiments into reported quarantines instead of a
    raised :class:`~repro.errors.CampaignExecutionError`.
    """

    def __init__(
        self,
        *,
        jobs: int,
        context,
        initializer: Callable,
        initargs: Tuple = (),
        max_retries: int = 3,
        chunk_timeout: Optional[float] = None,
        quarantine: bool = True,
        backoff_base: float = BACKOFF_BASE,
    ) -> None:
        self.jobs = max(1, jobs)
        self.context = context
        self.initializer = initializer
        self.initargs = initargs
        self.max_retries = max(0, max_retries)
        self.chunk_timeout = chunk_timeout
        self.quarantine = quarantine
        self.backoff_base = backoff_base

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.context.Pipe(duplex=True)
        process = self.context.Process(
            target=_worker_main,
            args=(child_conn, self.initializer, self.initargs),
            daemon=True,
        )
        process.start()
        # Close our copy of the child end: once the worker dies, reads on
        # the parent end hit EOF instead of blocking forever.
        child_conn.close()
        return _Worker(process, parent_conn)

    @staticmethod
    def _dispose(worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():  # pragma: no cover - stubborn process
            worker.process.kill()
            worker.process.join(timeout=1.0)

    def run(
        self,
        tasks: Sequence[ChunkTask],
        *,
        split: Optional[Callable[[ChunkTask], List[ChunkTask]]] = None,
        on_chunk_done: Optional[Callable[[ChunkTask, Any], None]] = None,
        on_grant: Optional[Callable[[ChunkTask], None]] = None,
        on_event: Optional[Callable[..., None]] = None,
    ) -> SupervisedRun:
        scheduler = ChunkScheduler(
            tasks,
            jobs=self.jobs,
            max_retries=self.max_retries,
            chunk_timeout=self.chunk_timeout,
            quarantine=self.quarantine,
            split=split,
            on_chunk_done=on_chunk_done,
            on_grant=on_grant,
            on_event=on_event,
            backoff_base=self.backoff_base,
        )
        workers: List[_Worker] = []

        def crash(worker: _Worker, reason: str, now: float) -> None:
            scheduler.stats.worker_restarts += 1
            task, worker.task = worker.task, None
            workers.remove(worker)
            self._dispose(worker)
            scheduler.emit("worker_restart", reason=reason.strip()[-200:])
            if task is not None:
                scheduler.fail(task, reason, now, crashed=True)

        unfinished: List[ChunkTask] = []
        try:
            with scheduler:
                while not scheduler.finished(any(w.task is not None for w in workers)):
                    now = time.monotonic()
                    if not scheduler.stop_requested:
                        for task in scheduler.eligible(now):
                            worker = next((w for w in workers if w.task is None), None)
                            if worker is None:
                                if len(workers) >= self.jobs:
                                    break
                                worker = self._spawn()
                                workers.append(worker)
                            worker.task, worker.sent_at = task, now
                            worker.deadline = scheduler.grant(task, now)
                            try:
                                worker.conn.send((task.fn, task.chunk_id, task.payload))
                            except (BrokenPipeError, OSError):
                                crash(worker, "worker pipe closed on send", now)

                    # Wait for replies, deaths, deadlines or backoff expiry.
                    timeout = scheduler.next_wakeup(now, 0.5)
                    for worker in workers:
                        if worker.task is not None:
                            timeout = min(timeout, max(0.0, worker.deadline - now))
                    if workers:
                        ready = _connection_wait([w.conn for w in workers], timeout)
                    else:
                        time.sleep(min(max(0.0, timeout), 0.05))
                        ready = []

                    now = time.monotonic()
                    for conn in ready:
                        worker = next((w for w in workers if w.conn is conn), None)
                        if worker is None:
                            continue
                        try:
                            kind, chunk_id, body, worker_metrics = conn.recv()
                        except (EOFError, OSError):
                            crash(worker, "worker process died", now)
                            continue
                        if kind == "init-error":  # the worker never became usable
                            crash(worker, f"worker failed to initialise:\n{body}", now)
                            continue
                        task, worker.task = worker.task, None
                        if task is None or task.chunk_id != chunk_id:
                            continue  # stale reply from a superseded grant
                        if kind == "ok":
                            scheduler.complete(
                                task, body, elapsed=now - worker.sent_at, metrics=worker_metrics
                            )
                        else:  # the chunk raised; the worker survived
                            scheduler.fail(task, body, now)

                    # Deadline sweep: a worker past its chunk deadline is wedged.
                    now = time.monotonic()
                    for worker in list(workers):
                        if worker.task is not None and now > worker.deadline:
                            allowed = worker.deadline - worker.sent_at
                            scheduler.stats.timeouts += 1
                            scheduler.emit(
                                "chunk_timeout",
                                chunk=worker.task.chunk_id,
                                count=worker.task.size,
                                deadline_seconds=round(allowed, 3),
                            )
                            crash(
                                worker,
                                f"chunk {worker.task.chunk_id} exceeded its "
                                f"{allowed:.1f}s deadline",
                                now,
                            )
        finally:
            for worker in workers:
                if worker.task is not None:
                    unfinished.append(worker.task)
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                self._dispose(worker)
        return scheduler.result(unfinished)
