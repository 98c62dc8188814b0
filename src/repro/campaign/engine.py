"""Campaign execution engines: one chunked-run driver, two executors.

A campaign is an embarrassingly parallel bag of experiments: every experiment
is fully determined by ``CampaignConfig.experiment_seed(index)``, so the only
shared state a worker needs is the compiled workload and its golden trace.

Every run — a sampled campaign (:meth:`ExecutionEngine.run`), an exhaustive
error space (:meth:`ExecutionEngine.run_errors`), the planner's inference
pass (:meth:`MultiprocessEngine.plan_infer_map`) — goes through one driver,
``ExecutionEngine._execute``, parameterised by a row of the work-kind table
(:data:`CAMPAIGN`, :data:`ERRORS`, :data:`INFER`: chunk function, worker
initializer, chunk sizing, ledger identity, merge, crashed-chunk fill).  The
driver owns the chunk ledger, the run-event stream, progress, interrupts,
the degraded-pool fallback and the quarantine fill.  Chunks run on one of
two executors:

* :class:`InProcessTransport` — in the calling process, for
  :class:`SerialEngine` and for a pooled run whose workers keep dying; a
  chunk that raises is bisected down to the offending unit, which is
  quarantined with the ``crashed`` outcome;
* a pooled :class:`DispatchTransport`, for :class:`MultiprocessEngine` —
  supervised worker processes on this host (:class:`SupervisedPoolTransport`)
  or worker hosts behind the socket coordinator of :mod:`repro.dist`.  Both
  move chunks under the shared :class:`~repro.campaign.scheduler.ChunkScheduler`
  (retries, bisection, quarantine, deadlines).

Because seeds are derived per experiment index rather than drawn from one
sequential stream, and chunks merge by start offset, every engine and
transport produces bit-identical results for the same configuration, and any
experiment can be replayed in isolation by index.

Fault tolerance, the same on every path:

* with a ledger directory configured, every completed chunk's mergeable
  partial is appended to a durable write-ahead ledger
  (:mod:`repro.campaign.ledger`), so a killed run restarted with
  ``resume=True`` executes only the missing chunks and assembles a result
  byte-identical to an uninterrupted run;
* SIGINT/SIGTERM drain in-flight chunks, flush the ledger and raise
  :class:`~repro.errors.CampaignInterrupted`; repeated worker crashes
  degrade a pooled run to in-process execution with a warning instead of
  dying.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.config import CampaignConfig
from repro.campaign.ledger import ChunkLedger
from repro.campaign.results import CampaignResult
from repro.campaign.scheduler import ChunkScheduler, ChunkTask, SupervisorStats
from repro.campaign.supervisor import ChunkSupervisor
from repro.errors import (
    CampaignExecutionError,
    CampaignInterrupted,
    ConfigurationError,
    ReproError,
)
from repro.injection.experiment import ExperimentResult, ExperimentRunner
from repro.injection.faultmodel import FaultSpec
from repro.injection.outcome import Outcome
from repro.injection.techniques import technique_by_name
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry.events import RunLog

#: A provider maps a program name to a ready-to-use ExperimentRunner.
RunnerProvider = Callable[[str], ExperimentRunner]


def registry_provider(program_name: str) -> ExperimentRunner:
    """Resolve programs through the benchmark registry (imported lazily)."""
    from repro.programs.registry import get_experiment_runner

    return get_experiment_runner(program_name)


@dataclass(frozen=True)
class RegistryProvider:
    """A registry provider with execution knobs, picklable for worker pools.

    ``cache_dir`` points workers at the persistent artifact cache
    (:mod:`repro.artifacts`), so spawned processes warm up from disk instead
    of re-deriving golden traces, checkpoints, def-use indices and generated
    backend source.  ``backend`` selects the production path (``compiled``)
    or the ``reference`` oracle for each worker's runner.
    """

    cache_dir: Optional[str] = None
    backend: str = "compiled"

    def prepare(self) -> None:
        """Activate this provider's artifact cache in the current process.

        Also sweeps stale temporary files left behind by cache writers that
        were SIGKILLed mid-store — restarted (``--resume``) runs reclaim the
        space and never mistake a torn ``.tmp`` for a real artifact.
        """
        if self.cache_dir is not None:
            from repro import artifacts

            artifacts.configure(self.cache_dir)
            cache = artifacts.active_cache()
            if cache is not None:
                cache.sweep_stale_tmp()

    def __call__(self, program_name: str) -> ExperimentRunner:
        from repro.programs.registry import get_experiment_runner

        self.prepare()
        return get_experiment_runner(program_name, backend=self.backend)


class CachingProvider:
    """Caches one ExperimentRunner per workload around any provider.

    A cached runner bundles everything a worker needs per workload: the
    compiled module, its decoded executable form
    (:attr:`~repro.injection.experiment.ExperimentRunner.decoded`) and the
    golden trace — so compile, decode and profile all happen once per
    process, and every experiment only pays for execution.

    Picklable as long as the wrapped provider is: the cache is dropped when
    the wrapper crosses a process boundary (compiled workloads are heavy and
    each worker profiles its own), so the default registry provider survives
    even ``spawn``-based pools.  Under ``fork``, workers inherit a warmed
    cache — decoded program and golden trace included — and skip all three
    steps entirely.
    """

    def __init__(self, provider: Optional[RunnerProvider] = None) -> None:
        self._provider = provider or registry_provider
        self._cache: dict = {}

    def __call__(self, program_name: str) -> ExperimentRunner:
        if program_name not in self._cache:
            self._cache[program_name] = self._provider(program_name)
        return self._cache[program_name]

    def __getstate__(self):
        return {"_provider": self._provider, "_cache": {}}


@dataclass(frozen=True)
class EngineProgress:
    """A progress snapshot emitted while a campaign executes."""

    campaign_id: str
    done: int
    total: int
    elapsed_seconds: float

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0

    @property
    def experiments_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.done / self.elapsed_seconds

    @property
    def eta_seconds(self) -> Optional[float]:
        rate = self.experiments_per_second
        if rate <= 0.0:
            return None
        return (self.total - self.done) / rate


ProgressCallback = Callable[[EngineProgress], None]


def _phase_snapshot(runner: ExperimentRunner) -> dict:
    """Copy a runner's cumulative per-phase timers (missing on stubs: {})."""
    return dict(getattr(runner, "phase_seconds", None) or {})


def _phase_delta(runner: ExperimentRunner, before: dict) -> dict:
    """Per-phase seconds spent on ``runner`` since ``before`` was snapshot."""
    return {
        phase: total - before.get(phase, 0.0)
        for phase, total in _phase_snapshot(runner).items()
    }


def _sum_phases(tables: Iterable[dict]) -> dict:
    """Summed per-phase seconds across per-chunk phase tables (any order)."""
    totals: dict = {}
    for table in tables:
        for phase, seconds in table.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return totals


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware, e.g. inside containers)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def run_experiment_batch(
    runner: ExperimentRunner,
    config: CampaignConfig,
    resolved_win_size: int,
    start: int,
    count: int,
    *,
    keep_records: bool = True,
) -> CampaignResult:
    """Run experiments ``start .. start+count`` and return a partial result.

    Each experiment draws its own RNG from the campaign's derived seed for
    that index, so batches may execute in any order, on any process, and
    still reproduce exactly the same faults.

    Execution order within the batch is an implementation detail the results
    cannot observe: specs are sampled up front and *executed* sorted by first
    injection tick — consecutive experiments then restore from the same
    fast-forward checkpoint — while aggregation happens in submission order
    (a stable sort merged back), so the partial result is byte-identical to
    naive index-order execution.
    """
    technique = technique_by_name(config.technique)
    partial = CampaignResult(config=config, resolved_win_size=resolved_win_size)
    specs = [
        runner.seeded_spec(
            technique,
            max_mbf=config.max_mbf,
            win_size=resolved_win_size,
            seed=config.experiment_seed(index),
        )
        for index in range(start, start + count)
    ]
    order = sorted(range(len(specs)), key=lambda j: specs[j].first_dynamic_index)
    results: List[Optional[ExperimentResult]] = [None] * len(specs)
    phase_before = _phase_snapshot(runner)
    for j in order:
        results[j] = runner.run_spec(specs[j])
    partial.phase_seconds = _phase_delta(runner, phase_before)
    for experiment in results:
        partial.add_experiment(
            outcome=experiment.outcome,
            activated_errors=experiment.activated_errors,
            first_dynamic_index=experiment.spec.first_dynamic_index,
            first_slot=experiment.spec.first_slot,
            keep_record=keep_records,
        )
    return partial


def run_error_batch(
    runner: ExperimentRunner,
    technique_name: str,
    errors: Sequence[Tuple[int, Optional[int], int]],
) -> List[Outcome]:
    """Execute one batch of exhaustive single-bit errors; outcomes in order.

    Each error is a fully deterministic ``(dynamic_index, slot, bit)``
    triple (no RNG is consumed: the bit is pinned).  Like sampled batches,
    execution happens sorted by injection tick so consecutive experiments
    restore from the same fast-forward checkpoint, and results are merged
    back to submission order.
    """
    order = sorted(range(len(errors)), key=lambda j: errors[j][0])
    outcomes: List[Optional[Outcome]] = [None] * len(errors)
    for j in order:
        dynamic_index, slot, bit = errors[j]
        spec = FaultSpec(
            technique=technique_name,
            first_dynamic_index=dynamic_index,
            first_slot=slot,
            max_mbf=1,
            win_size=0,
            seed=0,
            first_bit=bit,
        )
        outcomes[j] = runner.run_spec(spec).outcome
    return outcomes


def persist_runner_artifacts(runner: ExperimentRunner) -> None:
    """Push a warm production runner's derived artifacts into the artifact cache.

    Generated backend source plus golden trace and checkpoints; the
    reference oracle derives nothing worth caching.  No-op when no cache is
    active.  Called by pooled engines before dispatch, so derivation happens
    once per host and spawned workers (which share only the disk) warm up
    from the cache.
    """
    if getattr(runner, "backend", None) != "compiled":
        return
    from repro.vm.codegen import persist_compiled_source
    from repro.vm.snapshot import persist_cached_golden

    persist_compiled_source(runner.program.module)
    persist_cached_golden(
        runner.program.module,
        entry=runner.program.entry,
        args=tuple(runner.args),
        checkpoint_interval=runner.checkpoint_interval,
        max_checkpoints=runner.max_checkpoints,
    )


# -- the work-kind table ------------------------------------------------------------
#
# Every chunk payload is ``(context, items)``: ``context`` is shared by the
# whole run, ``items`` is the chunk's slice of the run's units (a range of
# experiment indices, or tick-sorted error triples).  Workers build their
# state once with the kind's initializer and call the kind's chunk function
# per chunk; both are module-level, so they cross process and host
# boundaries by reference.


def _run_key(kind: str, fingerprint: str, identity: dict) -> str:
    """Content-addressed ledger key: workload identity + run identity."""
    blob = json.dumps(
        {"kind": kind, "fingerprint": fingerprint, **identity}, sort_keys=True
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _errors_digest(errors: Sequence[Tuple[int, Optional[int], int]]) -> str:
    digest = hashlib.sha256()
    for dynamic_index, slot, bit in errors:
        digest.update(
            f"{dynamic_index}:{'' if slot is None else slot}:{bit};".encode("ascii")
        )
    return digest.hexdigest()


def _module_fingerprint(runner: ExperimentRunner) -> str:
    from repro import artifacts

    return artifacts.module_fingerprint(runner.program.module)


def _initialise_runner(
    provider: Optional[RunnerProvider], program_name: str
) -> ExperimentRunner:
    return (provider or registry_provider)(program_name)


def _initialise_inference(provider, program_name: str):
    """Build (or cache-load) the def-use index + inference engine once."""
    if provider is not None and hasattr(provider, "prepare"):
        provider.prepare()
    from repro.errorspace.inference import OutcomeInference
    from repro.programs.registry import get_defuse_index

    return OutcomeInference(get_defuse_index(program_name))


def _experiment_chunk(runner: ExperimentRunner, payload) -> CampaignResult:
    (config, resolved_win_size, keep_records), indices = payload
    return run_experiment_batch(
        runner,
        config,
        resolved_win_size,
        indices.start,
        len(indices),
        keep_records=keep_records,
    )


def _error_chunk(runner: ExperimentRunner, payload) -> Tuple[List[str], dict]:
    technique, errors = payload
    phase_before = _phase_snapshot(runner)
    values = [outcome.value for outcome in run_error_batch(runner, technique, errors)]
    return values, _phase_delta(runner, phase_before)


def _infer_chunk(engine, payload) -> List[Optional[Outcome]]:
    from repro.errorspace.enumerate import SingleBitError

    _, triples = payload
    return [
        engine.infer(
            SingleBitError(
                ordinal=0,
                dynamic_index=dynamic_index,
                slot=slot,
                bit=bit,
                register_bits=0,
                opcode="",
            )
        )
        for dynamic_index, slot, bit in triples
    ]


def _campaign_identity(job: "WorkJob") -> dict:
    config, resolved_win_size, keep_records = job.context
    return {
        "campaign_id": config.campaign_id,
        "master_seed": config.master_seed,
        "experiments": config.experiments,
        "resolved_win_size": resolved_win_size,
        "keep_records": keep_records,
    }


def _errors_identity(job: "WorkJob") -> dict:
    return {
        "program": job.program,
        "technique": job.context,
        "errors": _errors_digest(job.items),
        "total": len(job.items),
    }


def _join_partials(job: "WorkJob", partials: Iterable[CampaignResult]) -> CampaignResult:
    config, resolved_win_size, _ = job.context
    result = CampaignResult(config=config, resolved_win_size=resolved_win_size)
    for partial in partials:
        result.merge(partial)
    return result


def _crashed_partial(job: "WorkJob", task: ChunkTask) -> CampaignResult:
    """Partial result recording quarantined experiments as ``crashed``.

    The fault location is recoverable without executing anything: sampling a
    spec only consumes the derived seed, so quarantined records still carry
    the (first_dynamic_index, first_slot) the experiment would have injected
    at, and location-sensitive analyses stay meaningful.
    """
    (config, resolved_win_size, keep_records), indices = task.payload
    runner = job.provider(job.program)
    technique = technique_by_name(config.technique)
    partial = CampaignResult(config=config, resolved_win_size=resolved_win_size)
    for index in indices:
        first_dynamic_index, first_slot = 0, None
        try:
            spec = runner.seeded_spec(
                technique,
                max_mbf=config.max_mbf,
                win_size=resolved_win_size,
                seed=config.experiment_seed(index),
            )
            first_dynamic_index = spec.first_dynamic_index
            first_slot = spec.first_slot
        except Exception:  # sampling itself is poisoned: record location-less
            pass
        partial.add_experiment(
            outcome=Outcome.CRASHED,
            activated_errors=0,
            first_dynamic_index=first_dynamic_index,
            first_slot=first_slot,
            keep_record=keep_records,
        )
    return partial


def _warm_defuse_index(program: str) -> None:
    """Let inference workers load the def-use index from the artifact cache
    instead of replaying the golden trace once per process."""
    from repro import artifacts

    if artifacts.active_cache() is not None:
        from repro.programs.registry import get_defuse_index

        get_defuse_index(program)


@dataclass(frozen=True)
class WorkKind:
    """One row of the work-kind table: how the driver runs a kind of work."""

    name: str
    #: ``fn(state, (context, items)) -> body`` executes one chunk.
    fn: Callable
    #: ``initializer(provider, program) -> state``, once per worker.
    initializer: Callable
    #: Bounds of the chunk size, which otherwise aims at ~4 chunks per worker.
    chunk_bounds: Tuple[int, int]
    #: ``join(job, bodies) -> body`` merges chunk bodies given in chunk order.
    join: Callable
    #: ``crashed(job, task) -> body`` stands in for quarantined units.
    crashed: Callable
    #: ``phases(body) -> {phase: seconds}`` of the experiments a body ran.
    phases: Callable
    #: ``identity(job) -> dict`` keys the chunk ledger; None: never ledgered.
    identity: Optional[Callable] = None
    #: A body as a JSON-safe ledger payload, and back (``(job, payload)``).
    to_record: Optional[Callable] = None
    from_record: Optional[Callable] = None
    #: ``warm(program)`` prepares the dispatching process for pooled workers.
    warm: Optional[Callable] = None


CAMPAIGN = WorkKind(
    name="campaign",
    fn=_experiment_chunk,
    initializer=_initialise_runner,
    chunk_bounds=(1, 64),
    join=_join_partials,
    crashed=_crashed_partial,
    phases=lambda partial: partial.phase_seconds,
    identity=_campaign_identity,
    to_record=lambda partial: partial.to_partial_payload(),
    from_record=lambda job, payload: CampaignResult.from_partial_payload(
        job.context[0], job.context[1], payload
    ),
)

ERRORS = WorkKind(
    name="errors",
    fn=_error_chunk,
    initializer=_initialise_runner,
    chunk_bounds=(32, 512),
    join=lambda job, bodies: (
        [value for values, _ in bodies for value in values],
        _sum_phases(phases for _, phases in bodies),
    ),
    crashed=lambda job, task: ([Outcome.CRASHED.value] * task.size, {}),
    phases=lambda body: body[1],
    identity=_errors_identity,
    to_record=lambda body: {"outcomes": body[0]},
    from_record=lambda job, payload: (payload["outcomes"], {}),
)

INFER = WorkKind(
    name="infer",
    fn=_infer_chunk,
    initializer=_initialise_inference,
    chunk_bounds=(1024, 16384),
    join=lambda job, bodies: [outcome for body in bodies for outcome in body],
    # Unprovable by a crashing worker: the planner executes those errors.
    crashed=lambda job, task: [None] * task.size,
    phases=lambda body: {},
    warm=_warm_defuse_index,
)


@dataclass
class WorkJob:
    """One run of one work kind: its units, their shared context, its label."""

    work: WorkKind
    program: str
    provider: RunnerProvider
    #: Names the run in progress, ledger metadata and interrupt messages.
    label: str
    items: Sequence
    context: Any = None
    #: Header fields of the run's event log.
    meta: Optional[dict] = None

    def task(self, start: int, count: int) -> ChunkTask:
        payload = (self.context, self.items[start : start + count])
        return ChunkTask(start, self.work.fn, payload, count)


def split_task(task: ChunkTask) -> List[ChunkTask]:
    """Bisect a chunk into two halves (every kind's payload is ``(context, items)``)."""
    context, items = task.payload
    half = task.size // 2
    return [
        ChunkTask(task.chunk_id, task.fn, (context, items[:half]), half),
        ChunkTask(task.chunk_id + half, task.fn, (context, items[half:]), task.size - half),
    ]


# -- transport-agnostic dispatch seam -----------------------------------------------
#
# The driver describes one dispatch round as a DispatchRequest and hands it
# to a DispatchTransport.  Because chunks are deterministic and merge by
# offset, *where* a transport runs them cannot change the assembled bytes.


@dataclass
class DispatchRequest:
    """Everything a transport needs to execute one chunked dispatch round.

    The callbacks run in the dispatching process: ``on_chunk_done`` is the
    durability point (the engine fsyncs the ledger there), ``on_grant`` and
    ``on_event`` feed telemetry.
    """

    job: WorkJob
    tasks: List[ChunkTask]
    jobs: int
    start_method: Optional[str] = None
    max_retries: int = 3
    chunk_timeout: Optional[float] = None
    quarantine: bool = True
    on_chunk_done: Optional[Callable[[ChunkTask, object], None]] = None
    on_grant: Optional[Callable[[ChunkTask], None]] = None
    on_event: Optional[Callable[..., None]] = None

    split = staticmethod(split_task)

    @property
    def kind(self) -> str:
        return self.job.work.name

    @property
    def program(self) -> str:
        return self.job.program

    @property
    def provider(self) -> RunnerProvider:
        return self.job.provider

    @property
    def initializer(self) -> Callable:
        return self.job.work.initializer

    @property
    def initargs(self) -> Tuple:
        """Arguments for ``initializer`` — what workers need to warm up."""
        return (self.job.provider, self.job.program)


class DispatchTransport:
    """Interface between the engine driver and whatever executes its chunks."""

    #: Short name surfaced as the engine name in telemetry and summaries.
    name: str = "?"

    def execute(self, request: DispatchRequest):
        """Run every task of ``request``; return a ``SupervisedRun``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release transport resources (sockets, worker pools)."""

    def __enter__(self) -> "DispatchTransport":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class SupervisedPoolTransport(DispatchTransport):
    """The local dispatch path: a supervised process pool on this host."""

    name = "multiprocess"

    def execute(self, request: DispatchRequest):
        context = multiprocessing.get_context(request.start_method)
        supervisor = ChunkSupervisor(
            jobs=min(request.jobs, max(1, len(request.tasks))),
            context=context,
            initializer=request.initializer,
            initargs=request.initargs,
            max_retries=request.max_retries,
            chunk_timeout=request.chunk_timeout,
            quarantine=request.quarantine,
        )
        return supervisor.run(
            request.tasks,
            split=request.split,
            on_chunk_done=request.on_chunk_done,
            on_grant=request.on_grant,
            on_event=request.on_event,
        )


class InProcessTransport(DispatchTransport):
    """Runs chunks one after another in the calling process.

    The executor of :class:`SerialEngine`, and of a pooled run whose workers
    keep dying.  No process can be lost here, so a chunk that raises is not
    retried: it is bisected in place down to the offending unit, which is
    quarantined with the kind's crashed fill (or raised under
    no-quarantine).  Library errors (:class:`ReproError`) propagate — they
    mean the run itself is misconfigured.
    """

    name = "serial"

    def execute(self, request: DispatchRequest):
        job = request.job
        state = job.work.initializer(job.provider, job.program)
        scheduler = ChunkScheduler.for_request(request)
        with scheduler:
            while not scheduler.finished(in_flight=False):
                for task in list(scheduler.pending):
                    scheduler.grant(task, time.monotonic())
                    body = self._guarded(request, state, task, scheduler.stats)
                    scheduler.complete(task, body)
                    if scheduler.stop_requested:
                        break
        return scheduler.result()

    def _guarded(self, request: DispatchRequest, state, task: ChunkTask, stats):
        job = request.job
        try:
            return task.fn(state, task.payload)
        except (KeyboardInterrupt, SystemExit, ReproError):
            raise
        except Exception as exc:
            if task.size == 1:
                if not request.quarantine:
                    raise CampaignExecutionError(
                        f"{job.label}: unit {task.chunk_id} failed and quarantine "
                        f"is disabled: {exc!r}"
                    ) from exc
                stats.quarantined_units += 1
                return job.work.crashed(job, task)
            stats.bisections += 1
            halves = [self._guarded(request, state, half, stats) for half in split_task(task)]
            return job.work.join(job, halves)


class _RunTelemetry:
    """Structured run-event stream for one engine dispatch.

    Wraps an optional :class:`~repro.telemetry.events.RunLog` keyed by the
    run's chunk-ledger key, so the event log lands next to the ledger and a
    resumed run appends to the stream of the run it continues.  Without a
    run-log directory (or without a ledger to take the key from) every
    method is a no-op, so engine code calls unconditionally.

    Construct at the very top of a run — cache-stats and metrics baselines
    are captured there, *before* the runner is built, so the run's own
    warm-up traffic (golden derivation, codegen, cache loads) is part of its
    ``run_finished`` delta while earlier runs in the same process are not.
    :meth:`attach` binds the event log once the ledger (whose
    content-addressed key names the log file) exists.
    """

    def __init__(self) -> None:
        self.log: Optional[RunLog] = None
        self._metrics_before = telemetry_metrics.registry().snapshot()
        self._cache_before = self._cache_totals()

    def attach(
        self,
        runlog_dir: Optional[str],
        ledger: Optional[ChunkLedger],
        *,
        resume: bool,
        meta: Optional[dict] = None,
    ) -> None:
        if runlog_dir is None or ledger is None:
            return
        try:
            self.log = RunLog.open(
                Path(runlog_dir), ledger.key, meta=meta, resume=resume
            )
        except OSError:
            self.log = None

    # -- event emission -----------------------------------------------------------

    def started(self, *, kind: str, total: int, engine: str, jobs: int) -> None:
        if self.log is not None:
            self.log.emit(
                "run_started", kind=kind, total=total, engine=engine, jobs=jobs
            )

    def resume_replay(self, ledger: Optional[ChunkLedger]) -> None:
        """Record chunks adopted from the ledger instead of executed."""
        if self.log is not None and ledger is not None and ledger.completed:
            self.log.emit(
                "resume_replay",
                chunks=len(ledger.completed),
                units=ledger.loaded_units,
            )

    def chunk_dispatched(self, chunk: int, count: int) -> None:
        if self.log is not None:
            self.log.emit("chunk_dispatched", chunk=chunk, count=count)

    def chunk_completed(self, chunk: int, count: int, done: int) -> None:
        if self.log is not None:
            self.log.emit("chunk_completed", chunk=chunk, count=count, done=done)

    def supervisor_event(self, event_type: str, **fields) -> None:
        """Passthrough target for :meth:`ChunkSupervisor.run`'s ``on_event``."""
        if self.log is not None:
            self.log.emit(event_type, **fields)

    def finished(
        self,
        *,
        status: str,
        done: int,
        total: int,
        seconds: float,
        phase_seconds: dict,
        supervision: dict,
    ) -> None:
        """Emit the authoritative ``run_finished`` event and close the log.

        Carries everything a report needs without re-running: phase wall and
        CPU seconds (the latter lifted from the merged metrics delta, so
        worker CPU shipped over the supervisor pipe is included), the run's
        cache traffic and derivation counts, supervision tallies, and the
        full metrics snapshot delta for ``--metrics-out``.
        """
        if self.log is None:
            return
        metrics_delta = telemetry_metrics.registry().snapshot_delta(
            self._metrics_before
        )
        self.log.emit(
            "run_finished",
            sync=True,
            status=status,
            done=done,
            total=total,
            seconds=round(seconds, 6),
            phase_seconds=phase_seconds,
            phase_cpu_seconds=telemetry_metrics.labeled_totals(
                metrics_delta, "repro_phase_cpu_seconds_total", "phase"
            ),
            supervision=supervision,
            cache=self._cache_report(metrics_delta),
            metrics=metrics_delta,
        )
        self.close()

    def close(self) -> None:
        if self.log is not None:
            self.log.close()

    # -- payload assembly ---------------------------------------------------------

    @staticmethod
    def _cache_totals() -> dict:
        from repro import artifacts

        cache = artifacts.active_cache()
        return cache.stats.as_dict() if cache is not None else {}

    def _cache_report(self, metrics_delta: dict) -> dict:
        now = self._cache_totals()
        report: dict = {}
        for event in ("hits", "misses", "stores"):
            prior = self._cache_before.get(event, {})
            table = {
                kind: value - prior.get(kind, 0)
                for kind, value in now.get(event, {}).items()
                if value - prior.get(kind, 0)
            }
            if table:
                report[event] = table
        derivations = {
            kind: int(value)
            for kind, value in telemetry_metrics.labeled_totals(
                metrics_delta, "repro_derivations_total", "kind"
            ).items()
            if value
        }
        if derivations:
            report["derivations"] = derivations
        return report



class ExecutionEngine:
    """The chunked-run driver every campaign execution engine shares.

    Subclasses pick the executor (``_transport``) and the chunk sizing;
    everything else about a run happens once, in :meth:`_execute`.
    """

    #: Short name used in progress messages and benchmark labels.
    name: str = "?"

    #: Worker processes chunks are sized for.
    jobs: int = 1

    #: Per-phase wall-clock seconds of the most recent run (restore /
    #: pre_window / window / tail), for the CLI summary.
    phase_seconds: dict = {}

    #: Fault-tolerance accounting of the most recent run (retries, worker
    #: restarts, timeouts, bisections, quarantined experiments, ledger
    #: usage), ``phase_seconds``-style: observability only, never serialized.
    supervision: dict = {}

    _transport: DispatchTransport = InProcessTransport()
    _start_method: Optional[str] = None
    _max_retries: int = 3
    _chunk_timeout: Optional[float] = None
    _quarantine: bool = True
    _ledger_dir: Optional[str] = None
    _resume: bool = False
    #: Directory for structured run-event logs (requires a ledger for keys).
    _runlog_dir: Optional[str] = None

    def run(
        self,
        config: CampaignConfig,
        *,
        provider: RunnerProvider,
        keep_records: bool = True,
        on_progress: Optional[ProgressCallback] = None,
    ) -> CampaignResult:
        """Execute every experiment of one campaign and aggregate the outcome."""
        job = WorkJob(
            CAMPAIGN,
            config.program,
            provider,
            config.campaign_id,
            items=range(config.experiments),
            context=(config, config.resolve_win_size(), bool(keep_records)),
            meta={"campaign": config.campaign_id, "program": config.program},
        )
        return self._execute(job, on_progress)

    def run_errors(
        self,
        program: str,
        technique: str,
        errors: Sequence[Tuple[int, Optional[int], int]],
        *,
        provider: RunnerProvider,
        on_progress: Optional[ProgressCallback] = None,
    ) -> List[Outcome]:
        """Execute deterministic single-bit errors; outcomes in input order.

        This is the execution path of exhaustive and pruned error-space
        campaigns (:mod:`repro.errorspace`).  Errors are sorted by injection
        tick first and then cut into contiguous chunks, so consecutive
        experiments share fast-forward checkpoints across chunk borders.
        """
        order = sorted(range(len(errors)), key=lambda j: errors[j][0])
        job = WorkJob(
            ERRORS,
            program,
            provider,
            f"{program}/{technique}/error-space",
            items=[errors[j] for j in order],
            context=technique,
            meta={"program": program, "technique": technique},
        )
        values, _ = self._execute(job, on_progress)
        outcomes: List[Optional[Outcome]] = [None] * len(errors)
        for position, value in zip(order, values):
            outcomes[position] = Outcome(value)
        return outcomes

    def plan_infer_map(self, program: str, *, provider: RunnerProvider):
        """An outcome-inference map for pruned-plan construction, or None.

        None means "infer in-process" (the serial default).  Pooled engines
        return a callable that chunk-dispatches the inference pass to their
        workers, so planning scales with ``--jobs`` exactly like execution.
        """
        return None

    def _chunk_for(self, work: WorkKind, total: int) -> int:
        low, high = work.chunk_bounds
        return max(low, min(high, -(-total // (4 * self.jobs))))

    def _warm(self, job: WorkJob) -> None:
        """Prepare the dispatching process before chunks go out."""

    def _execute(self, job: WorkJob, on_progress: Optional[ProgressCallback] = None):
        """Run every unit of ``job`` and return the kind's joined body.

        Opens the ledger (replaying what a resumed run already completed),
        cuts the missing units into chunks, dispatches them through the
        engine's transport while recording grants and completions, finishes
        a degraded pool's leftovers in-process, fills quarantined chunks,
        and publishes ``phase_seconds`` / ``supervision``.
        """
        telemetry = _RunTelemetry()
        work, total = job.work, len(job.items)
        chunk = self._chunk_for(work, total)
        bodies: Dict[int, Any] = {}
        ledger: Optional[ChunkLedger] = None
        if self._ledger_dir is not None and work.identity is not None and total:
            key = _run_key(
                work.name,
                _module_fingerprint(job.provider(job.program)),
                work.identity(job),
            )
            ledger = ChunkLedger.open(
                Path(self._ledger_dir),
                key,
                total=total,
                meta={"kind": work.name, "campaign_id": job.label, "chunk": chunk},
                resume=self._resume,
            )
            for start, payload in ledger.completed.items():
                bodies[start] = work.from_record(job, payload)
            spans = ledger.missing(chunk)
        else:
            spans = [(start, min(chunk, total - start)) for start in range(0, total, chunk)]
        started = time.monotonic()
        done = ledger.loaded_units if ledger is not None else 0
        telemetry.attach(self._runlog_dir, ledger, resume=self._resume, meta=job.meta)
        telemetry.started(kind=work.name, total=total, engine=self.name, jobs=self.jobs)
        telemetry.resume_replay(ledger)

        def on_grant(task: ChunkTask) -> None:
            if ledger is not None:
                ledger.record_grant(task.chunk_id, task.size)
            telemetry.chunk_dispatched(task.chunk_id, task.size)

        def on_done(task: ChunkTask, body) -> None:
            nonlocal done
            bodies[task.chunk_id] = body
            done += task.size
            if ledger is not None:
                ledger.record_done(task.chunk_id, task.size, work.to_record(body))
            telemetry.chunk_completed(task.chunk_id, task.size, done)
            if on_progress is not None:
                elapsed = time.monotonic() - started
                on_progress(EngineProgress(job.label, done, total, elapsed))

        stats = SupervisorStats()
        fallback_units = 0
        try:
            if spans:
                self._warm(job)
                request = DispatchRequest(
                    job,
                    [job.task(start, count) for start, count in spans],
                    jobs=self.jobs,
                    start_method=self._start_method,
                    max_retries=self._max_retries,
                    chunk_timeout=self._chunk_timeout,
                    quarantine=self._quarantine,
                    on_chunk_done=on_done,
                    on_grant=on_grant,
                    on_event=telemetry.supervisor_event,
                )
                outcome = self._transport.execute(request)
                stats.merge(outcome.stats)
                if outcome.degraded and outcome.unfinished and not stats.interrupted:
                    units = sum(task.size for task in outcome.unfinished)
                    warnings.warn(
                        f"supervised worker pool for {job.label} degraded after "
                        f"repeated worker crashes; finishing the remaining {units} "
                        f"units serially in-process",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    local = InProcessTransport().execute(
                        replace(request, tasks=outcome.unfinished)
                    )
                    stats.merge(local.stats)
                    fallback_units = units - sum(task.size for task in local.unfinished)
                if not stats.interrupted:
                    for quarantined in outcome.quarantined:
                        on_done(quarantined.task, work.crashed(job, quarantined.task))
        finally:
            if ledger is not None:
                ledger.close()
        stats.interrupted = stats.interrupted and done < total
        self.phase_seconds = _sum_phases(work.phases(body) for body in bodies.values())
        self.supervision = self._supervision_summary(stats, ledger, fallback_units)
        telemetry.finished(
            status="interrupted" if stats.interrupted else "finished",
            done=done,
            total=total,
            seconds=time.monotonic() - started,
            phase_seconds=self.phase_seconds,
            supervision=self.supervision,
        )
        if stats.interrupted:
            raise CampaignInterrupted(
                self._interrupt_message(job.label, done, total, ledger),
                done=done,
                total=total,
                resumable=ledger is not None,
            )
        merged = work.join(job, [bodies[start] for start in sorted(bodies)])
        if ledger is not None and done >= total:
            ledger.compact([(0, total, work.to_record(merged))])
        return merged

    def _supervision_summary(
        self,
        stats: SupervisorStats,
        ledger: Optional[ChunkLedger],
        serial_fallback_units: int,
    ) -> dict:
        summary = stats.as_dict()
        summary["serial_fallback_units"] = serial_fallback_units
        summary["ledger_loaded_chunks"] = (
            len(ledger.completed) if ledger is not None else 0
        )
        summary["ledger_loaded_units"] = ledger.loaded_units if ledger is not None else 0
        summary["ledger_path"] = str(ledger.path) if ledger is not None else None
        dist = getattr(self._transport, "stats", None)
        if dist is not None:
            summary["distributed"] = dist.as_dict()
        return summary

    @staticmethod
    def _interrupt_message(
        label: str, done: int, total: int, ledger: Optional[ChunkLedger]
    ) -> str:
        message = f"{label}: interrupted after {done}/{total} experiments"
        if ledger is not None:
            message += (
                f"; completed chunks are ledgered at {ledger.path} — "
                "re-run with --resume to execute only the missing chunks"
            )
        else:
            message += " (no ledger configured: a re-run starts from scratch)"
        return message

    def close(self) -> None:
        """Release any resources held by the engine (pools, workers)."""

    def __enter__(self) -> "ExecutionEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class SerialEngine(ExecutionEngine):
    """Runs every chunk in the calling process.

    Shares the pooled engine's fault-tolerance surface where it makes sense
    without workers: poisoned experiments are bisected and quarantined as
    ``crashed`` (``quarantine=False`` raises instead), completed chunks are
    ledgered when ``ledger_dir`` is set, and SIGINT/SIGTERM finish the
    current chunk, flush the ledger and raise
    :class:`~repro.errors.CampaignInterrupted`.
    """

    name = "serial"

    def __init__(
        self,
        *,
        progress_interval: int = 25,
        quarantine: bool = True,
        ledger_dir: Optional[str] = None,
        resume: bool = False,
        runlog_dir: Optional[str] = None,
    ) -> None:
        if progress_interval < 1:
            raise ConfigurationError("progress_interval must be positive")
        if resume and ledger_dir is None:
            raise ConfigurationError("resume requires a ledger directory")
        self._interval = progress_interval
        self._quarantine = quarantine
        self._ledger_dir = ledger_dir
        self._resume = resume
        self._runlog_dir = runlog_dir

    def _chunk_for(self, work: WorkKind, total: int) -> int:
        # ``progress_interval`` sizes sampled-campaign chunks, hence progress ticks.
        return self._interval if work is CAMPAIGN else super()._chunk_for(work, total)


class MultiprocessEngine(ExecutionEngine):
    """Fans chunks out to supervised worker processes (or worker hosts).

    Each worker process holds exactly one compiled workload + golden trace;
    experiments are dispatched as contiguous index chunks and the partial
    results are merged in index order, so the assembled campaign result is
    bit-identical to a :class:`SerialEngine` run of the same config — chunk
    retries, worker restarts, bisection and resume cannot change the bytes.

    The default start method is ``fork`` where available (Linux), which lets
    workers inherit already-compiled workloads and makes arbitrary provider
    callables (closures included) usable.  Under ``spawn`` the provider must
    be picklable; the default registry provider is.
    """

    name = "multiprocess"

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        chunk_size: Optional[int] = None,
        start_method: Optional[str] = None,
        max_retries: int = 3,
        chunk_timeout: Optional[float] = None,
        quarantine: bool = True,
        ledger_dir: Optional[str] = None,
        resume: bool = False,
        runlog_dir: Optional[str] = None,
        transport: Optional[DispatchTransport] = None,
    ) -> None:
        resolved_jobs = jobs if jobs is not None else available_cpus()
        if resolved_jobs < 1:
            raise ConfigurationError("a worker pool needs at least one job")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be positive")
        if max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ConfigurationError("chunk_timeout must be positive")
        if resume and ledger_dir is None:
            raise ConfigurationError("resume requires a ledger directory")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.jobs = resolved_jobs
        self._chunk_size = chunk_size
        self._start_method = start_method
        self._max_retries = max_retries
        self._chunk_timeout = chunk_timeout
        self._quarantine = quarantine
        self._ledger_dir = ledger_dir
        self._resume = resume
        self._runlog_dir = runlog_dir
        self._transport = transport or SupervisedPoolTransport()
        # Surface the transport in progress/benchmark labels ("multiprocess"
        # for the local pool, "distributed" for the socket coordinator).
        self.name = self._transport.name

    def _warm(self, job: WorkJob) -> None:
        """Warm the parent once before dispatch.

        Under ``fork`` this lets workers inherit the compiled workload,
        decoded program and golden trace.  Whenever the artifact cache is
        active — any start method — the warm runner's artifacts are also
        persisted to disk, so derivation happens once per host and spawned
        workers load instead of re-deriving.
        """
        from repro import artifacts

        provider = job.provider
        if hasattr(provider, "prepare"):
            provider.prepare()
        cache_active = artifacts.active_cache() is not None
        if self._start_method == "fork" or cache_active:
            runner = provider(job.program)
            if cache_active:
                persist_runner_artifacts(runner)
        if job.work.warm is not None:
            job.work.warm(job.program)

    def _chunk_for(self, work: WorkKind, total: int) -> int:
        # ``chunk_size`` pins experiment chunks; inference units are orders
        # of magnitude cheaper and keep the table's sizing.
        if self._chunk_size is not None and work is not INFER:
            return self._chunk_size
        return super()._chunk_for(work, total)

    def close(self) -> None:
        self._transport.close()

    # The entry points are spelled out in this class body, delegating to the
    # shared driver, so instrumentation that wraps MultiprocessEngine's own
    # methods (the end-to-end benchmark's tracer) sees every pooled run.

    def run(
        self,
        config: CampaignConfig,
        *,
        provider: RunnerProvider,
        keep_records: bool = True,
        on_progress: Optional[ProgressCallback] = None,
    ) -> CampaignResult:
        return super().run(
            config, provider=provider, keep_records=keep_records, on_progress=on_progress
        )

    def run_errors(
        self,
        program: str,
        technique: str,
        errors: Sequence[Tuple[int, Optional[int], int]],
        *,
        provider: RunnerProvider,
        on_progress: Optional[ProgressCallback] = None,
    ) -> List[Outcome]:
        return super().run_errors(
            program, technique, errors, provider=provider, on_progress=on_progress
        )

    def plan_infer_map(self, program: str, *, provider: RunnerProvider):
        """Chunk-dispatch the planner's inference pass to the workers.

        Each worker builds (or cache-loads) the workload's def-use index and
        inference engine once, then maps deterministic ``(tick, slot, bit)``
        chunks to outcomes.  Results are keyed by chunk offset and assembled
        in order, so the plan is bit-identical to a serial build regardless
        of retries or worker restarts.  Quarantined chunks infer as ``None``
        (the planner then schedules those errors for execution).  Only
        registry programs are dispatchable (workers resolve the index by
        name).
        """
        from repro import artifacts

        if self._start_method != "fork" and artifacts.active_cache() is None:
            # Spawned workers share neither memory nor a disk cache: each
            # would re-derive the golden trace and def-use index from
            # scratch, which costs more than it saves.  Plan serially.
            return None

        def infer_map(errors) -> List[Optional[Outcome]]:
            triples = [(error.dynamic_index, error.slot, error.bit) for error in errors]
            job = WorkJob(INFER, program, provider, f"{program} inference pass", triples)
            return self._execute(job)

        return infer_map
