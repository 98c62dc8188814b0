"""Fault-tolerant lease coordinator: the multi-host dispatch transport.

:class:`CoordinatorTransport` implements the engine's
:class:`~repro.campaign.engine.DispatchTransport` seam over a TCP listener.
Worker-host agents (:mod:`repro.dist.worker`) connect, announce their
capacity, and *pull* work: the coordinator grants deterministic, tick-sorted
chunk ranges under expiring leases and records completions through the
engine's callbacks — which fsync the same write-ahead chunk ledger the local
path uses, so coordinator crash recovery is plain ``--resume``.

Robustness model (mirrors the single-host supervisor, host-granular):

* a **lease** is one chunk granted to one host; it expires when the host
  stops heartbeating (soft TTL) or blows its execution deadline (hard
  deadline, EWMA-derived like the supervisor's), and the chunk is re-issued
  — preferring a different host;
* a host that disconnects, dies or partitions has all its leases re-issued
  with the supervisor's retry/bisect/quarantine escalation;
* duplicate completions (a re-issued chunk finishing twice) resolve
  first-recorded-wins: the ledger fsync inside ``on_chunk_done`` is the
  authority, later arrivals are dropped as ``duplicate_completion`` events;
* hosts may join or rejoin mid-run and are granted work immediately;
* if no host is serving and nothing is in flight for
  ``local_fallback_after`` seconds, the remaining chunks run on an
  in-process :class:`~repro.campaign.engine.SupervisedPoolTransport` —
  a coordinator with no cluster degrades to the ordinary local engine;
* SIGINT/SIGTERM stop granting, drain in-flight leases, tell connected
  hosts to stand down, and return with ``interrupted`` set so the engine
  raises :class:`~repro.errors.CampaignInterrupted` (the CLI then prints
  the exact ``--resume`` command and exits 130).

Determinism: chunks are location-independent (derived seeds, tick-sorted
payloads) and merge by start offset, so *which* host ran a chunk — or how
many times it was re-issued — cannot change the assembled bytes.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.campaign.engine import (
    DispatchRequest,
    DispatchTransport,
    SupervisedPoolTransport,
)
from repro.campaign.supervisor import (
    CHAOS_ABORT_ENV,
    ChunkTask,
    QuarantinedChunk,
    SupervisedRun,
    _SignalGuard,
)
from repro.dist.protocol import (
    MSG_DONE,
    MSG_FAIL,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_METRICS,
    MSG_NEXT,
    MSG_STAND_DOWN,
    MSG_WAIT,
    MSG_WELCOME,
    MSG_WORK,
    PROTOCOL_VERSION,
    ProtocolError,
    disable_nagle,
    recv_frame,
    send_frame,
)
from repro.errors import CampaignExecutionError
from repro.telemetry import metrics as telemetry_metrics


class _Host:
    """One connected worker-host agent."""

    __slots__ = (
        "host_id",
        "conn",
        "name",
        "capacity",
        "last_seen",
        "leases",
        "severed",
        "send_lock",
    )

    def __init__(self, host_id: int, conn: socket.socket, hello: dict) -> None:
        self.host_id = host_id
        self.conn = conn
        self.name = str(hello.get("name") or f"host-{host_id}")
        self.capacity = max(1, int(hello.get("jobs", 1) or 1))
        self.last_seen = time.monotonic()
        #: lease_id -> _Lease, owned by the execute() thread.
        self.leases: Dict[int, "_Lease"] = {}
        self.severed = False
        self.send_lock = threading.Lock()

    def send(self, message: dict) -> bool:
        try:
            with self.send_lock:
                send_frame(self.conn, message)
            return True
        except (OSError, ProtocolError):
            return False


@dataclass
class _Lease:
    """One chunk granted to one host, with its expiry bookkeeping."""

    lease_id: int
    task: ChunkTask
    host: _Host
    granted_at: float
    deadline: float


@dataclass
class CoordinatorStats:
    """Distributed-layer tallies, surfaced next to supervision counters."""

    hosts_joined: int = 0
    hosts_left: int = 0
    leases_granted: int = 0
    leases_expired: int = 0
    duplicate_completions: int = 0
    local_fallback_units: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class CoordinatorTransport(DispatchTransport):
    """Socket-based lease dispatch across worker hosts.

    The listener opens in the constructor (``port=0`` picks an ephemeral
    port; read :attr:`address`) and persists across ``execute`` rounds, so
    one coordinator session serves all three dispatch paths — inference,
    error space, experiments — to the same connected hosts.
    """

    name = "distributed"

    def __init__(
        self,
        bind: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_ttl: float = 15.0,
        heartbeat_interval: Optional[float] = None,
        local_fallback_after: float = 30.0,
        backoff_base: float = 0.1,
        backoff_cap: float = 5.0,
        deadline_factor: float = 8.0,
        deadline_floor: float = 5.0,
        initial_deadline: float = 120.0,
    ) -> None:
        self._listener = socket.create_server((bind, port))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self.lease_ttl = max(0.2, lease_ttl)
        self.heartbeat_interval = heartbeat_interval or max(
            0.1, self.lease_ttl / 3.0
        )
        self.local_fallback_after = local_fallback_after
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._deadline_factor = deadline_factor
        self._deadline_floor = deadline_floor
        self._initial_deadline = initial_deadline
        self._unit_seconds: Optional[float] = None
        self._events: "queue.Queue" = queue.Queue()
        self._hosts: Dict[int, _Host] = {}
        self._hosts_lock = threading.Lock()
        self._host_ids = itertools.count(1)
        self._lease_ids = itertools.count(1)
        self._round = 0
        self._active = False
        self._closed = False
        self.stats = CoordinatorStats()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept", daemon=True
        )
        self._accept_thread.start()

    # -- connection plumbing (reader threads) -------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            disable_nagle(conn)
            threading.Thread(
                target=self._reader_loop, args=(conn,), daemon=True
            ).start()

    def _reader_loop(self, conn: socket.socket) -> None:
        try:
            hello = recv_frame(conn)
        except (ProtocolError, OSError):
            hello = None
        if not hello or hello.get("type") != MSG_HELLO:
            try:
                conn.close()
            except OSError:
                pass
            return
        host = _Host(next(self._host_ids), conn, hello)
        if not host.send(
            {
                "type": MSG_WELCOME,
                "version": PROTOCOL_VERSION,
                "heartbeat_interval": self.heartbeat_interval,
                "lease_ttl": self.lease_ttl,
            }
        ):
            return
        with self._hosts_lock:
            self._hosts[host.host_id] = host
        self._events.put(("join", host, None))
        reason = "connection closed"
        while True:
            try:
                message = recv_frame(conn)
            except ProtocolError as exc:
                reason = str(exc)
                break
            except OSError as exc:
                reason = f"socket error: {exc!r}"
                break
            if message is None:
                break
            host.last_seen = time.monotonic()
            mtype = message.get("type")
            if mtype == MSG_HEARTBEAT:
                continue
            if mtype == MSG_NEXT and not self._active:
                # Between dispatch rounds there is nothing to grant; answer
                # directly so idle agents never time out waiting.
                host.send({"type": MSG_WAIT})
                continue
            self._events.put(("msg", host, message))
        with self._hosts_lock:
            self._hosts.pop(host.host_id, None)
        try:
            conn.close()
        except OSError:
            pass
        self._events.put(("gone", host, reason))

    def _sever(self, host: _Host, reason: str) -> None:
        """Force-disconnect a host; its reader thread reports ``gone``."""
        if host.severed:
            return
        host.severed = True
        try:
            host.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            host.conn.close()
        except OSError:
            pass

    # -- deadline model (same EWMA discipline as the supervisor) -------------------

    def _deadline(self, request: DispatchRequest, task: ChunkTask, now: float, batch: int) -> float:
        if request.chunk_timeout is not None:
            return now + request.chunk_timeout
        if self._unit_seconds is None:
            return now + self._initial_deadline
        # Worst case the host runs its whole grant batch sequentially before
        # this lease; scale the allowance so parallel agents are never
        # punished for honest queueing.
        expected = self._unit_seconds * max(1, task.size) * max(1, batch)
        return now + max(self._deadline_floor, self._deadline_factor * expected)

    def _observe(self, lease: _Lease, now: float) -> None:
        sample = max(1e-6, (now - lease.granted_at) / max(1, lease.task.size))
        if self._unit_seconds is None:
            self._unit_seconds = sample
        else:
            self._unit_seconds += 0.3 * (sample - self._unit_seconds)

    # -- the dispatch round --------------------------------------------------------

    def execute(self, request: DispatchRequest) -> SupervisedRun:
        self._round += 1
        run = SupervisedRun()
        stats = run.stats
        pending: List[ChunkTask] = sorted(request.tasks, key=lambda t: t.chunk_id)
        leases: Dict[int, _Lease] = {}
        completed: set = set()
        #: chunk_id -> host_id of the last host that failed it (for re-issue
        #: placement: prefer a different host when one exists).
        last_failed: Dict[int, int] = {}
        started = time.monotonic()
        last_activity = started
        try:
            abort_after = int(os.environ.get(CHAOS_ABORT_ENV, "0") or 0)
        except ValueError:
            abort_after = 0
        guard = _SignalGuard()
        guard.install()

        def emit(event_type: str, **fields) -> None:
            if request.on_event is None:
                return
            try:
                request.on_event(event_type, **fields)
            except Exception:
                pass

        def requeue(task: ChunkTask) -> None:
            # Keep pending sorted by chunk offset so re-issued work goes back
            # out ahead of untouched higher offsets rather than at the tail.
            pending.append(task)
            pending.sort(key=lambda t: t.chunk_id)

        def fail(task: ChunkTask, error: str, now: float) -> None:
            task.attempts += 1
            if task.attempts <= request.max_retries:
                stats.retries += 1
                delay = min(
                    self._backoff_cap,
                    self._backoff_base * (2 ** (task.attempts - 1)),
                )
                task.not_before = now + delay
                requeue(task)
                emit(
                    "chunk_retried",
                    chunk=task.chunk_id,
                    count=task.size,
                    attempts=task.attempts,
                )
            elif task.size > 1 and request.split is not None:
                stats.bisections += 1
                emit("chunk_bisected", chunk=task.chunk_id, count=task.size)
                for child in request.split(task):
                    child.attempts = 0
                    child.not_before = now
                    requeue(child)
            elif request.quarantine:
                stats.quarantined_units += task.size
                run.quarantined.append(QuarantinedChunk(task, error))
                emit(
                    "quarantine",
                    chunk=task.chunk_id,
                    units=task.size,
                    reason=error.strip()[-200:],
                )
            else:
                raise CampaignExecutionError(
                    f"chunk {task.chunk_id} (+{task.size}) failed "
                    f"{task.attempts} times across hosts and quarantine is "
                    f"disabled:\n{error}"
                )

        def revoke_host_leases(host: _Host, reason: str, now: float) -> None:
            for lease in list(host.leases.values()):
                host.leases.pop(lease.lease_id, None)
                leases.pop(lease.lease_id, None)
                last_failed[lease.task.chunk_id] = host.host_id
                fail(lease.task, reason, now)

        def accept_done(host: _Host, message: dict, now: float) -> None:
            nonlocal last_activity
            chunk_id = message.get("chunk")
            lease = leases.pop(message.get("lease"), None)
            if lease is not None:
                lease.host.leases.pop(lease.lease_id, None)
            if chunk_id in completed:
                # The chunk was re-issued and another execution already
                # fsync'd its ledger record: first wins, this one is noise.
                self.stats.duplicate_completions += 1
                emit("duplicate_completion", chunk=chunk_id, host=host.name)
                return
            task: Optional[ChunkTask] = None
            if lease is not None:
                task = lease.task
                self._observe(lease, now)
            else:
                # The lease expired (or its host was severed) but the work
                # itself survived and arrived first: still first-wins.  The
                # chunk may be queued again or leased to another host —
                # withdraw it from wherever it lives.
                task = next(
                    (t for t in pending if t.chunk_id == chunk_id), None
                )
                if task is not None:
                    pending.remove(task)
                else:
                    other = next(
                        (
                            l
                            for l in leases.values()
                            if l.task.chunk_id == chunk_id
                        ),
                        None,
                    )
                    if other is not None:
                        leases.pop(other.lease_id, None)
                        other.host.leases.pop(other.lease_id, None)
                        task = other.task
            if task is None:
                self.stats.duplicate_completions += 1
                emit("duplicate_completion", chunk=chunk_id, host=host.name)
                return
            metrics_delta = message.get("metrics")
            if metrics_delta:
                telemetry_metrics.registry().merge(metrics_delta)
            completed.add(chunk_id)
            run.results[chunk_id] = message.get("body")
            stats.chunks_completed += 1
            last_activity = now
            if request.on_chunk_done is not None:
                request.on_chunk_done(task, message.get("body"))
            if (
                abort_after
                and stats.chunks_completed >= abort_after
                and not guard.stop_requested
            ):
                guard.stop_requested = True

        def grant(host: _Host, now: float) -> None:
            nonlocal last_activity
            if guard.stop_requested:
                host.send(
                    {
                        "type": MSG_STAND_DOWN,
                        "final": False,
                        "reason": "interrupted",
                    }
                )
                return
            free = host.capacity - len(host.leases)
            if free <= 0 or not pending:
                host.send({"type": MSG_WAIT})
                return
            eligible = [t for t in pending if t.not_before <= now]
            if len(self._snapshot_hosts()) > 1:
                preferred = [
                    t
                    for t in eligible
                    if last_failed.get(t.chunk_id) != host.host_id
                ]
                if preferred:
                    eligible = preferred
            if not eligible:
                host.send({"type": MSG_WAIT})
                return
            batch = eligible[:free]
            entries = []
            for task in batch:
                pending.remove(task)
                lease = _Lease(
                    lease_id=next(self._lease_ids),
                    task=task,
                    host=host,
                    granted_at=now,
                    deadline=self._deadline(request, task, now, len(batch)),
                )
                leases[lease.lease_id] = lease
                host.leases[lease.lease_id] = lease
                self.stats.leases_granted += 1
                entries.append(
                    {
                        "lease": lease.lease_id,
                        "fn": task.fn,
                        "chunk": task.chunk_id,
                        "count": task.size,
                        "payload": task.payload,
                    }
                )
                emit(
                    "lease_granted",
                    chunk=task.chunk_id,
                    count=task.size,
                    host=host.name,
                )
                if request.on_grant is not None and task.attempts == 0:
                    request.on_grant(task)
            last_activity = now
            sent = host.send(
                {
                    "type": MSG_WORK,
                    "round": self._round,
                    "kind": request.kind,
                    "program": request.program,
                    "provider": request.provider,
                    "initializer": request.initializer,
                    "leases": entries,
                }
            )
            if not sent:
                self._sever(host, "send failed")

        def handle_event(event, now: float) -> None:
            nonlocal last_activity
            name, host, detail = event
            if name == "join":
                self.stats.hosts_joined += 1
                last_activity = now
                emit(
                    "worker_joined",
                    host=host.name,
                    capacity=host.capacity,
                )
                return
            if name == "gone":
                self.stats.hosts_left += 1
                if host.leases:
                    stats.worker_restarts += 1
                emit("worker_left", host=host.name, reason=str(detail)[-200:])
                revoke_host_leases(host, f"host left: {detail}", now)
                return
            # name == "msg"
            mtype = detail.get("type")
            if mtype == MSG_NEXT:
                grant(host, now)
            elif mtype == MSG_DONE:
                accept_done(host, detail, now)
            elif mtype == MSG_FAIL:
                lease = leases.pop(detail.get("lease"), None)
                if lease is not None:
                    lease.host.leases.pop(lease.lease_id, None)
                    last_failed[lease.task.chunk_id] = host.host_id
                    fail(
                        lease.task,
                        str(detail.get("error", "worker reported failure")),
                        now,
                    )
            elif mtype == MSG_METRICS:
                delta = detail.get("delta")
                if delta:
                    telemetry_metrics.registry().merge(delta)

        self._active = True
        try:
            while True:
                if not pending and not leases:
                    break
                if guard.stop_requested:
                    stats.interrupted = True
                    if not leases:
                        break
                try:
                    event = self._events.get(timeout=0.1)
                except queue.Empty:
                    event = None
                now = time.monotonic()
                if event is not None:
                    handle_event(event, now)
                    while True:
                        try:
                            event = self._events.get_nowait()
                        except queue.Empty:
                            break
                        handle_event(event, time.monotonic())
                now = time.monotonic()

                # Soft expiry: a host that stopped heartbeating loses all its
                # leases (sever → its reader reports gone → chunks re-issue).
                for host in self._snapshot_hosts():
                    if host.leases and now - host.last_seen > self.lease_ttl:
                        stats.timeouts += 1
                        self.stats.leases_expired += len(host.leases)
                        emit(
                            "lease_expired",
                            host=host.name,
                            chunks=sorted(
                                l.task.chunk_id for l in host.leases.values()
                            ),
                            reason="heartbeat lost",
                        )
                        self._sever(host, "lease TTL exceeded")

                # Hard deadline: a heartbeating host whose chunk is wedged.
                for lease in list(leases.values()):
                    if now > lease.deadline:
                        stats.timeouts += 1
                        self.stats.leases_expired += 1
                        leases.pop(lease.lease_id, None)
                        lease.host.leases.pop(lease.lease_id, None)
                        last_failed[lease.task.chunk_id] = lease.host.host_id
                        emit(
                            "lease_expired",
                            host=lease.host.name,
                            chunks=[lease.task.chunk_id],
                            reason="deadline exceeded",
                        )
                        fail(
                            lease.task,
                            f"lease deadline exceeded on {lease.host.name}",
                            now,
                        )

                # Graceful degradation: nobody is serving and nothing moved
                # for local_fallback_after seconds — run the rest here.
                if (
                    pending
                    and not leases
                    and not guard.stop_requested
                    and not self._snapshot_hosts()
                    and now - last_activity >= self.local_fallback_after
                ):
                    remaining = sorted(pending, key=lambda t: t.chunk_id)
                    pending.clear()
                    units = sum(t.size for t in remaining)
                    self.stats.local_fallback_units += units
                    emit("dist_local_fallback", chunks=len(remaining), units=units)
                    local = SupervisedPoolTransport().execute(
                        dataclasses.replace(request, tasks=remaining)
                    )
                    run.results.update(local.results)
                    run.quarantined.extend(local.quarantined)
                    run.unfinished.extend(local.unfinished)
                    completed.update(local.results)
                    stats.merge(local.stats)
                    break
        finally:
            self._active = False
            guard.restore()
            if guard.stop_requested:
                for host in self._snapshot_hosts():
                    host.send(
                        {
                            "type": MSG_STAND_DOWN,
                            "final": False,
                            "reason": "interrupted",
                        }
                    )
        run.unfinished.extend(pending)
        run.unfinished.sort(key=lambda t: t.chunk_id)
        return run

    def _snapshot_hosts(self) -> List[_Host]:
        with self._hosts_lock:
            return list(self._hosts.values())

    @property
    def connected_hosts(self) -> List[str]:
        return [host.name for host in self._snapshot_hosts()]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for host in self._snapshot_hosts():
            host.send({"type": MSG_STAND_DOWN, "final": True, "reason": "finished"})
            self._sever(host, "coordinator closing")
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=2.0)
