"""Fault-tolerant lease coordinator: the socket transport for worker hosts.

:class:`CoordinatorTransport` implements the engine's
:class:`~repro.campaign.engine.DispatchTransport` seam over a TCP listener.
Worker-host agents (:mod:`repro.dist.worker`) connect, announce their
capacity, and *pull* work.  Like the pipe transport
(:class:`~repro.campaign.supervisor.ChunkSupervisor`), it moves chunks under
the shared :class:`~repro.campaign.scheduler.ChunkScheduler`, which owns the
pending queue, the retry/bisect/quarantine escalation, EWMA deadlines,
first-write-wins completion and graceful stop; completions reach the
engine's callbacks, which fsync the same write-ahead chunk ledger the local
path uses, so coordinator crash recovery is plain ``--resume``.  What is
left here is hosts and leases:

* a **lease** is one chunk granted to one host; it expires when the host
  stops heartbeating (soft TTL, ``lease_ttl``; hosts heartbeat every third
  of it) or blows its execution deadline (the scheduler's, scaled by the
  host's grant batch), and the chunk goes back to the scheduler as a
  failure — re-issued preferring a different host;
* a host that disconnects, dies or partitions has all its leases revoked
  the same way;
* a completion arriving for an expired lease still counts when it is the
  first for its chunk (the chunk is withdrawn from the queue or from the
  host it was re-issued to); later arrivals are dropped as
  ``duplicate_completion`` events;
* hosts may join or rejoin mid-run and are granted work immediately;
* if no host is serving and nothing is in flight for
  ``local_fallback_after`` seconds, the remaining chunks run on an
  in-process :class:`~repro.campaign.engine.SupervisedPoolTransport` —
  a coordinator with no cluster degrades to the ordinary local engine;
* on SIGINT/SIGTERM connected hosts are told to stand down once in-flight
  leases drain, and the engine raises
  :class:`~repro.errors.CampaignInterrupted` (the CLI then prints the exact
  ``--resume`` command and exits 130).

Determinism: chunks are location-independent (derived seeds, tick-sorted
payloads) and merge by start offset, so *which* host ran a chunk — or how
many times it was re-issued — cannot change the assembled bytes.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.campaign.engine import (
    DispatchRequest,
    DispatchTransport,
    SupervisedPoolTransport,
)
from repro.campaign.scheduler import ChunkScheduler, ChunkTask, SupervisedRun
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
from repro.telemetry import metrics as telemetry_metrics


#: Tells a host the round was interrupted (it re-dials, in case of ``--resume``).
_STAND_DOWN_INTERRUPTED = {"type": MSG_STAND_DOWN, "final": False, "reason": "interrupted"}


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
        local_fallback_after: float = 30.0,
    ) -> None:
        self._listener = socket.create_server((bind, port))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self.lease_ttl = max(0.2, lease_ttl)
        self.heartbeat_interval = max(0.1, self.lease_ttl / 3.0)
        self.local_fallback_after = local_fallback_after
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

    # -- the dispatch round --------------------------------------------------------

    def execute(self, request: DispatchRequest) -> SupervisedRun:
        self._round += 1
        scheduler = ChunkScheduler.for_request(request)
        leases: Dict[int, _Lease] = {}
        #: chunk_id -> host_id of the last host that failed it (for re-issue
        #: placement: prefer a different host when one exists).
        last_failed: Dict[int, int] = {}
        last_activity = time.monotonic()

        def release(lease: _Lease) -> None:
            leases.pop(lease.lease_id, None)
            lease.host.leases.pop(lease.lease_id, None)

        def revoke(lease: _Lease, reason: str, now: float) -> None:
            release(lease)
            last_failed[lease.task.chunk_id] = lease.host.host_id
            scheduler.fail(lease.task, reason, now)

        def duplicate(host: _Host, chunk_id) -> None:
            self.stats.duplicate_completions += 1
            scheduler.emit("duplicate_completion", chunk=chunk_id, host=host.name)

        def accept_done(host: _Host, message: dict, now: float) -> None:
            nonlocal last_activity
            chunk_id, size = message.get("chunk"), message.get("count")
            lease = leases.get(message.get("lease"))
            if lease is not None:
                release(lease)
            if scheduler.is_complete(chunk_id):
                # The chunk was re-issued and another execution already
                # fsync'd its ledger record: first wins, this one is noise.
                return duplicate(host, chunk_id)
            if lease is not None:
                task = lease.task
            else:
                # The lease expired (or its host was severed) but the work
                # itself survived and arrived first: still first-wins.  The
                # chunk may be queued again or leased to another host —
                # withdraw it from wherever it lives.
                task = scheduler.withdraw(chunk_id, size)
                key = (chunk_id, size)
                held = [l for l in leases.values() if (l.task.chunk_id, l.task.size) == key]
                if task is None and held:
                    release(held[0])
                    task = held[0].task
            if task is None:
                return duplicate(host, chunk_id)
            elapsed = now - lease.granted_at if lease is not None else None
            body, metrics = message.get("body"), message.get("metrics")
            scheduler.complete(task, body, elapsed=elapsed, metrics=metrics)
            last_activity = now

        def grant(host: _Host, now: float) -> None:
            nonlocal last_activity
            if scheduler.stop_requested:
                host.send(_STAND_DOWN_INTERRUPTED)
                return
            free = host.capacity - len(host.leases)
            eligible = scheduler.eligible(now) if free > 0 else []
            if len(self._snapshot_hosts()) > 1:
                preferred = [
                    t for t in eligible if last_failed.get(t.chunk_id) != host.host_id
                ]
                eligible = preferred or eligible
            if not eligible:
                host.send({"type": MSG_WAIT})
                return
            batch = eligible[:free]
            entries = []
            for task in batch:
                scheduler.emit(
                    "lease_granted", chunk=task.chunk_id, count=task.size, host=host.name
                )
                deadline = scheduler.grant(task, now, batch=len(batch))
                lease = _Lease(next(self._lease_ids), task, host, now, deadline)
                leases[lease.lease_id] = host.leases[lease.lease_id] = lease
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
                scheduler.emit("worker_joined", host=host.name, capacity=host.capacity)
            elif name == "gone":
                self.stats.hosts_left += 1
                if host.leases:
                    scheduler.stats.worker_restarts += 1
                scheduler.emit("worker_left", host=host.name, reason=str(detail)[-200:])
                for lease in list(host.leases.values()):
                    revoke(lease, f"host left: {detail}", now)
            elif detail.get("type") == MSG_NEXT:
                grant(host, now)
            elif detail.get("type") == MSG_DONE:
                accept_done(host, detail, now)
            elif detail.get("type") == MSG_FAIL:
                lease = leases.get(detail.get("lease"))
                if lease is not None:
                    revoke(lease, str(detail.get("error", "worker reported failure")), now)
            elif detail.get("type") == MSG_METRICS and detail.get("delta"):
                telemetry_metrics.registry().merge(detail["delta"])

        self._active = True
        try:
            with scheduler:
                while not scheduler.finished(in_flight=bool(leases)):
                    try:
                        event = self._events.get(timeout=0.1)
                    except queue.Empty:
                        event = None
                    while event is not None:
                        handle_event(event, time.monotonic())
                        try:
                            event = self._events.get_nowait()
                        except queue.Empty:
                            event = None
                    now = time.monotonic()

                    # Soft expiry: a host that stopped heartbeating loses all
                    # its leases (sever → its reader reports gone → re-issue).
                    for host in self._snapshot_hosts():
                        if host.leases and now - host.last_seen > self.lease_ttl:
                            scheduler.stats.timeouts += 1
                            self.stats.leases_expired += len(host.leases)
                            scheduler.emit(
                                "lease_expired",
                                host=host.name,
                                chunks=sorted(l.task.chunk_id for l in host.leases.values()),
                                reason="heartbeat lost",
                            )
                            self._sever(host, "lease TTL exceeded")

                    # Hard deadline: a heartbeating host whose chunk is wedged.
                    for lease in list(leases.values()):
                        if now > lease.deadline:
                            scheduler.stats.timeouts += 1
                            self.stats.leases_expired += 1
                            scheduler.emit(
                                "lease_expired",
                                host=lease.host.name,
                                chunks=[lease.task.chunk_id],
                                reason="deadline exceeded",
                            )
                            reason = f"lease deadline exceeded on {lease.host.name}"
                            revoke(lease, reason, now)

                    # Graceful degradation: nobody is serving and nothing moved
                    # for local_fallback_after seconds — run the rest here.
                    if (
                        scheduler.pending
                        and not leases
                        and not scheduler.stop_requested
                        and not self._snapshot_hosts()
                        and now - last_activity >= self.local_fallback_after
                    ):
                        remaining, scheduler.pending = scheduler.pending, []
                        units = sum(t.size for t in remaining)
                        self.stats.local_fallback_units += units
                        scheduler.emit(
                            "dist_local_fallback", chunks=len(remaining), units=units
                        )
                        scheduler.absorb(
                            SupervisedPoolTransport().execute(
                                dataclasses.replace(request, tasks=remaining)
                            )
                        )
                        break
        finally:
            self._active = False
            if scheduler.stop_requested:
                for host in self._snapshot_hosts():
                    host.send(_STAND_DOWN_INTERRUPTED)
        return scheduler.result()

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
