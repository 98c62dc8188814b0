"""The dispatch policy shared by every chunk transport.

A transport moves chunks to wherever they execute — worker processes over
pipes (:class:`~repro.campaign.supervisor.ChunkSupervisor`), worker hosts
over sockets (:class:`~repro.dist.coordinator.CoordinatorTransport`) or the
calling process itself (:class:`~repro.campaign.engine.InProcessTransport`).
*What* to send, *when*, and what to do when it fails is decided once, here,
by :class:`ChunkScheduler`:

* the pending queue, ordered by chunk id, with a ``not_before`` backoff per
  task;
* the failure escalation: retry with capped exponential backoff, then bisect
  down to the offending unit, then quarantine it (or raise
  :class:`~repro.errors.CampaignExecutionError` under no-quarantine); a burst
  of consecutive worker crashes marks the round ``degraded``;
* per-chunk deadlines from an EWMA of observed per-unit seconds;
* first-write-wins completion: a chunk completed twice (re-issued work
  finishing late) is recorded once;
* graceful stop on SIGINT/SIGTERM (a second signal aborts) and its
  deterministic stand-in for tests, ``REPRO_CHAOS_ABORT_AFTER_CHUNKS``:
  behave as if SIGINT arrived after *n* chunks completed.

Determinism does not depend on any of this: chunks are location-independent
and results are keyed by chunk start offset, so retries, bisection and
out-of-order completion cannot change the assembled bytes.
"""

from __future__ import annotations

import os
import signal
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import CampaignExecutionError
from repro.telemetry import metrics as telemetry_metrics

CHAOS_ABORT_ENV = "REPRO_CHAOS_ABORT_AFTER_CHUNKS"

#: Retry backoff: ``BACKOFF_BASE * 2**(attempt - 1)`` seconds, capped.
BACKOFF_BASE = 0.1
BACKOFF_CAP = 5.0
#: Chunk deadlines: ``INITIAL_DEADLINE`` until a chunk has been timed, then
#: ``max(DEADLINE_FLOOR, DEADLINE_FACTOR * expected seconds)``.
INITIAL_DEADLINE = 120.0
DEADLINE_FACTOR = 8.0
DEADLINE_FLOOR = 5.0
#: Weight of the newest sample in the per-unit seconds EWMA.
EWMA_WEIGHT = 0.3


@dataclass
class ChunkTask:
    """One retryable unit of campaign work.

    ``chunk_id`` is the chunk's start offset in the campaign's index space —
    it doubles as the merge key, so bisected children (which inherit their
    own start offsets) slot into the same ordering as original grants.
    ``fn`` must be a module-level callable ``fn(state, payload)`` (it crosses
    process and host boundaries by pickle); ``state`` is whatever the worker
    initializer returned.
    """

    chunk_id: int
    fn: Callable[[Any, Any], Any]
    payload: Any
    size: int
    attempts: int = 0
    not_before: float = 0.0


@dataclass
class QuarantinedChunk:
    """A chunk (bisected to minimal size) that exhausted its retries."""

    task: ChunkTask
    error: str


@dataclass
class SupervisorStats:
    """Counters surfaced in campaign summaries (``phase_seconds`` style)."""

    retries: int = 0
    worker_restarts: int = 0
    timeouts: int = 0
    bisections: int = 0
    quarantined_units: int = 0
    chunks_completed: int = 0
    degraded: bool = False
    interrupted: bool = False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "retries": self.retries,
            "worker_restarts": self.worker_restarts,
            "timeouts": self.timeouts,
            "bisections": self.bisections,
            "quarantined_units": self.quarantined_units,
            "chunks_completed": self.chunks_completed,
            "degraded": self.degraded,
            "interrupted": self.interrupted,
        }

    def merge(self, other: "SupervisorStats") -> None:
        self.retries += other.retries
        self.worker_restarts += other.worker_restarts
        self.timeouts += other.timeouts
        self.bisections += other.bisections
        self.quarantined_units += other.quarantined_units
        self.chunks_completed += other.chunks_completed
        self.degraded = self.degraded or other.degraded
        self.interrupted = self.interrupted or other.interrupted


@dataclass
class SupervisedRun:
    """Everything one dispatch round produced."""

    results: Dict[int, Any] = field(default_factory=dict)
    quarantined: List[QuarantinedChunk] = field(default_factory=list)
    unfinished: List[ChunkTask] = field(default_factory=list)
    stats: SupervisorStats = field(default_factory=SupervisorStats)

    @property
    def interrupted(self) -> bool:
        return self.stats.interrupted

    @property
    def degraded(self) -> bool:
        return self.stats.degraded


class _SignalGuard:
    """Graceful-stop flag driven by SIGINT/SIGTERM (main thread only)."""

    def __init__(self) -> None:
        self.stop_requested = False
        self._previous: List[Tuple[int, Any]] = []

    def install(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous.append((signum, signal.signal(signum, self._handle)))
            except (ValueError, OSError):  # pragma: no cover
                pass

    def _handle(self, signum, frame) -> None:
        if self.stop_requested:
            # Second signal: the user really means it.
            raise KeyboardInterrupt
        self.stop_requested = True

    def restore(self) -> None:
        for signum, handler in self._previous:
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
        self._previous = []


def run_chunk(fn: Callable, state: Any, payload: Any) -> Tuple[bool, Any, Optional[dict]]:
    """Worker side: run ``fn(state, payload)`` and capture its metric delta.

    Returns ``(True, body, delta)`` or ``(False, traceback, None)``.  The
    delta travels with the body, so the dispatching process aggregates
    cluster-wide counters without an extra round trip; disabled telemetry
    ships ``None`` (no snapshot cost).
    """
    registry = telemetry_metrics.registry()
    before = registry.snapshot() if telemetry_metrics.enabled() else None
    try:
        body = fn(state, payload)
    except Exception:
        return False, traceback.format_exc(limit=16), None
    return True, body, registry.snapshot_delta(before) if before is not None else None


def _chaos_abort_after() -> int:
    try:
        return int(os.environ.get(CHAOS_ABORT_ENV, "0") or 0)
    except ValueError:
        return 0


class ChunkScheduler:
    """Dispatch state and policy for one round of chunk tasks.

    A transport asks :meth:`eligible` for work, :meth:`grant`\\ s it (which
    returns the chunk's deadline), and reports back through :meth:`complete`
    or :meth:`fail`; it keeps going until :meth:`finished` says the round is
    over, then returns :meth:`result`.  Use as a context manager: entering
    installs the SIGINT/SIGTERM guard, leaving restores the previous
    handlers.  Time enters only as arguments — the transport's ``now``
    (``time.monotonic`` readings) and measured ``elapsed`` seconds — so the
    policy is testable with a fake clock.
    """

    def __init__(
        self,
        tasks: Sequence[ChunkTask],
        *,
        jobs: int = 1,
        max_retries: int = 3,
        chunk_timeout: Optional[float] = None,
        quarantine: bool = True,
        split: Optional[Callable[[ChunkTask], List[ChunkTask]]] = None,
        on_chunk_done: Optional[Callable[[ChunkTask, Any], None]] = None,
        on_grant: Optional[Callable[[ChunkTask], None]] = None,
        on_event: Optional[Callable[..., None]] = None,
        backoff_base: float = BACKOFF_BASE,
    ) -> None:
        self.pending: List[ChunkTask] = sorted(tasks, key=lambda t: t.chunk_id)
        self.max_retries = max(0, max_retries)
        self.chunk_timeout = chunk_timeout
        self.quarantine = quarantine
        self.split = split
        self.on_chunk_done = on_chunk_done
        self.on_grant = on_grant
        self.on_event = on_event
        self.backoff_base = backoff_base
        self.max_consecutive_crashes = max(6, 2 * max(1, jobs))
        self.run = SupervisedRun()
        self.stats = self.run.stats
        self._completed: set = set()
        self._unit_seconds: Optional[float] = None
        self._consecutive_crashes = 0
        self._abort_after = _chaos_abort_after()
        self._guard = _SignalGuard()

    @classmethod
    def for_request(cls, request) -> "ChunkScheduler":
        """A scheduler over a :class:`~repro.campaign.engine.DispatchRequest`."""
        return cls(
            request.tasks,
            jobs=request.jobs,
            max_retries=request.max_retries,
            chunk_timeout=request.chunk_timeout,
            quarantine=request.quarantine,
            split=request.split,
            on_chunk_done=request.on_chunk_done,
            on_grant=request.on_grant,
            on_event=request.on_event,
        )

    def __enter__(self) -> "ChunkScheduler":
        self._guard.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._guard.restore()
        return False

    # -- round state ----------------------------------------------------------------

    @property
    def stop_requested(self) -> bool:
        return self._guard.stop_requested

    def finished(self, in_flight: bool) -> bool:
        """Whether the round is over, given whether work is still in flight.

        A requested stop marks the round ``interrupted`` and ends it once the
        in-flight work has drained; a degraded round ends at once.
        """
        if self.stats.degraded:
            return True
        if not self.pending and not in_flight:
            return True
        if self.stop_requested:
            self.stats.interrupted = True
            return not in_flight
        return False

    def result(self, unfinished: Sequence[ChunkTask] = ()) -> SupervisedRun:
        """Close the round: queued and still-held tasks become ``unfinished``."""
        self.run.unfinished.extend(unfinished)
        self.run.unfinished.extend(self.pending)
        self.pending = []
        self.run.unfinished.sort(key=lambda t: t.chunk_id)
        return self.run

    def absorb(self, other: SupervisedRun) -> None:
        """Fold in a round another transport ran on this round's behalf."""
        self.run.results.update(other.results)
        self._completed.update(other.results)
        self.run.quarantined.extend(other.quarantined)
        self.run.unfinished.extend(other.unfinished)
        self.stats.merge(other.stats)

    def emit(self, event_type: str, **fields) -> None:
        # Observability must never take the dispatch loop down with it.
        if self.on_event is None:
            return
        try:
            self.on_event(event_type, **fields)
        except Exception:
            pass

    # -- granting -------------------------------------------------------------------

    def eligible(self, now: float) -> List[ChunkTask]:
        """Queued tasks whose backoff has expired, lowest chunk id first."""
        return [task for task in self.pending if task.not_before <= now]

    def next_wakeup(self, now: float, cap: float) -> float:
        """Seconds until the earliest backed-off task becomes eligible (≤ ``cap``)."""
        waits = [task.not_before - now for task in self.pending if task.not_before > now]
        return min([cap] + waits)

    def grant(self, task: ChunkTask, now: float, batch: int = 1) -> float:
        """Hand ``task`` out; returns its deadline.

        ``batch`` is how many chunks the receiver got in the same grant: a
        host may run its whole batch sequentially before this one, so the
        allowance scales with it.
        """
        self.pending.remove(task)
        if self.on_grant is not None and task.attempts == 0:
            self.on_grant(task)
        return now + self.deadline_seconds(task, batch)

    def deadline_seconds(self, task: ChunkTask, batch: int = 1) -> float:
        if self.chunk_timeout is not None:
            return self.chunk_timeout
        if self._unit_seconds is None:
            return INITIAL_DEADLINE
        expected = self._unit_seconds * max(1, task.size) * max(1, batch)
        return max(DEADLINE_FLOOR, DEADLINE_FACTOR * expected)

    def withdraw(self, chunk_id: int, size: int) -> Optional[ChunkTask]:
        """Take a queued task back (its earlier grant completed after all)."""
        for task in self.pending:
            if task.chunk_id == chunk_id and task.size == size:
                self.pending.remove(task)
                return task
        return None

    # -- outcomes -------------------------------------------------------------------

    def is_complete(self, chunk_id: int) -> bool:
        return chunk_id in self._completed

    def complete(
        self,
        task: ChunkTask,
        body: Any,
        *,
        elapsed: Optional[float] = None,
        metrics: Optional[dict] = None,
    ) -> bool:
        """Record a finished chunk; ``False`` if it was already recorded.

        First write wins: the ``on_chunk_done`` callback (where the engine
        fsyncs its ledger) runs once per chunk id.  ``elapsed`` feeds the
        deadline EWMA; ``metrics`` is the worker's telemetry delta.
        """
        if task.chunk_id in self._completed:
            return False
        self._completed.add(task.chunk_id)
        self._consecutive_crashes = 0
        if elapsed is not None:
            sample = max(1e-6, elapsed / max(1, task.size))
            if self._unit_seconds is None:
                self._unit_seconds = sample
            else:
                self._unit_seconds += EWMA_WEIGHT * (sample - self._unit_seconds)
        if metrics:
            telemetry_metrics.registry().merge(metrics)
        self.run.results[task.chunk_id] = body
        self.stats.chunks_completed += 1
        if self.on_chunk_done is not None:
            self.on_chunk_done(task, body)
        if self._abort_after and self.stats.chunks_completed >= self._abort_after:
            self._guard.stop_requested = True
        return True

    def fail(self, task: ChunkTask, error: str, now: float, *, crashed: bool = False) -> None:
        """Escalate a failed chunk: retry, then bisect, then quarantine.

        ``crashed`` marks failures that cost a worker; a run of
        ``max(6, 2 * jobs)`` of those in a row degrades the round.
        """
        if crashed:
            self._consecutive_crashes += 1
            if self._consecutive_crashes >= self.max_consecutive_crashes:
                self.stats.degraded = True
        else:
            self._consecutive_crashes = 0
        task.attempts += 1
        if task.attempts <= self.max_retries:
            self.stats.retries += 1
            task.not_before = now + min(
                BACKOFF_CAP, self.backoff_base * (2 ** (task.attempts - 1))
            )
            self._enqueue(task)
            self.emit(
                "chunk_retried", chunk=task.chunk_id, count=task.size, attempts=task.attempts
            )
        elif task.size > 1 and self.split is not None:
            self.stats.bisections += 1
            self.emit("chunk_bisected", chunk=task.chunk_id, count=task.size)
            for child in self.split(task):
                child.attempts = 0
                child.not_before = now
                self._enqueue(child)
        elif self.quarantine:
            self.stats.quarantined_units += task.size
            self.run.quarantined.append(QuarantinedChunk(task, error))
            self.emit(
                "quarantine", chunk=task.chunk_id, units=task.size, reason=error.strip()[-200:]
            )
        else:
            raise CampaignExecutionError(
                f"chunk {task.chunk_id} (+{task.size}) failed {task.attempts} "
                f"times and quarantine is disabled:\n{error}"
            )

    def _enqueue(self, task: ChunkTask) -> None:
        # Re-issued work goes back out ahead of untouched higher offsets.
        self.pending.append(task)
        self.pending.sort(key=lambda t: t.chunk_id)
