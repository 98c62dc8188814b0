"""Pluggable campaign execution engines.

A campaign is an embarrassingly parallel bag of experiments: every experiment
is fully determined by ``CampaignConfig.experiment_seed(index)``, so the only
shared state a worker needs is the compiled workload and its golden trace.
This module exploits that with two interchangeable backends:

* :class:`SerialEngine` — runs every experiment in-process, in index order;
* :class:`MultiprocessEngine` — fans chunked experiment batches out to
  supervised worker processes (:mod:`repro.campaign.supervisor`); each worker
  builds the compiled workload + golden trace once (LLFI's
  profile-once/inject-many split, batch-dispatched) and returns picklable
  partial :class:`~repro.campaign.results.CampaignResult` objects that the
  parent merges in index order.

Because seeds are derived per experiment index rather than drawn from one
sequential stream, both engines produce bit-identical results for the same
configuration, and any experiment can be replayed in isolation by index.

Fault tolerance (both engines, all three dispatch paths — experiments,
exhaustive errors, planner inference):

* dead or wedged workers are detected, killed and replaced; their chunks are
  retried with capped exponential backoff, bisected down to the offending
  experiment when they keep failing, and quarantined with the ``crashed``
  outcome (or raised, under ``--no-quarantine``);
* with a ledger directory configured, every completed chunk's mergeable
  partial is appended to a durable write-ahead ledger
  (:mod:`repro.campaign.ledger`), so a killed run restarted with
  ``resume=True`` executes only the missing chunks and assembles a result
  byte-identical to an uninterrupted run;
* SIGINT/SIGTERM drain in-flight chunks, flush the ledger and raise
  :class:`~repro.errors.CampaignInterrupted`; repeated worker crashes
  degrade the pooled engine to in-process serial execution with a warning
  instead of dying.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.config import CampaignConfig
from repro.campaign.ledger import ChunkLedger
from repro.campaign.results import CampaignResult
from repro.campaign.supervisor import (
    ChunkSupervisor,
    ChunkTask,
    SupervisorStats,
    _SignalGuard,
)
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


def _merged_phase_seconds(partials: Iterable["CampaignResult"]) -> dict:
    """Summed per-phase seconds across partial results (any order)."""
    totals: dict = {}
    for partial in partials:
        for phase, seconds in partial.phase_seconds.items():
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


# -- fault-tolerance plumbing shared by both engines --------------------------------


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


def _open_campaign_ledger(
    ledger_dir: str,
    *,
    resume: bool,
    runner: ExperimentRunner,
    config: CampaignConfig,
    resolved_win_size: int,
    keep_records: bool,
    chunk: int,
) -> ChunkLedger:
    key = _run_key(
        "campaign",
        _module_fingerprint(runner),
        {
            "campaign_id": config.campaign_id,
            "master_seed": config.master_seed,
            "experiments": config.experiments,
            "resolved_win_size": resolved_win_size,
            "keep_records": bool(keep_records),
        },
    )
    return ChunkLedger.open(
        Path(ledger_dir),
        key,
        total=config.experiments,
        meta={"kind": "campaign", "campaign_id": config.campaign_id, "chunk": chunk},
        resume=resume,
    )


def _open_errors_ledger(
    ledger_dir: str,
    *,
    resume: bool,
    runner: ExperimentRunner,
    program: str,
    technique: str,
    errors: Sequence[Tuple[int, Optional[int], int]],
    chunk: int,
) -> ChunkLedger:
    key = _run_key(
        "errors",
        _module_fingerprint(runner),
        {
            "program": program,
            "technique": technique,
            "errors": _errors_digest(errors),
            "total": len(errors),
        },
    )
    return ChunkLedger.open(
        Path(ledger_dir),
        key,
        total=len(errors),
        meta={
            "kind": "errors",
            "campaign_id": f"{program}/{technique}/error-space",
            "chunk": chunk,
        },
        resume=resume,
    )


def _crashed_partial(
    runner: ExperimentRunner,
    config: CampaignConfig,
    resolved_win_size: int,
    start: int,
    count: int,
    *,
    keep_records: bool,
) -> CampaignResult:
    """Partial result recording quarantined experiments as ``crashed``.

    The fault location is recoverable without executing anything: sampling a
    spec only consumes the derived seed, so quarantined records still carry
    the (first_dynamic_index, first_slot) the experiment would have injected
    at, and location-sensitive analyses stay meaningful.
    """
    technique = technique_by_name(config.technique)
    partial = CampaignResult(config=config, resolved_win_size=resolved_win_size)
    for index in range(start, start + count):
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


def _guarded_experiment_batch(
    runner: ExperimentRunner,
    config: CampaignConfig,
    resolved_win_size: int,
    start: int,
    count: int,
    *,
    keep_records: bool,
    quarantine: bool,
    stats: SupervisorStats,
) -> CampaignResult:
    """In-process batch execution that survives poisoned experiments.

    Library-level errors (:class:`ReproError`) propagate — they mean the
    campaign itself is misconfigured.  Anything else is treated like a
    worker crash: the batch is bisected down to the offending experiment,
    which is quarantined as ``crashed`` (or raised under no-quarantine).
    """
    try:
        return run_experiment_batch(
            runner, config, resolved_win_size, start, count, keep_records=keep_records
        )
    except (KeyboardInterrupt, SystemExit, ReproError):
        raise
    except Exception as exc:
        if count == 1:
            if not quarantine:
                raise CampaignExecutionError(
                    f"experiment {start} of {config.campaign_id} failed and "
                    f"quarantine is disabled: {exc!r}"
                ) from exc
            stats.quarantined_units += 1
            return _crashed_partial(
                runner, config, resolved_win_size, start, 1, keep_records=keep_records
            )
        stats.bisections += 1
        half = count // 2
        left = _guarded_experiment_batch(
            runner,
            config,
            resolved_win_size,
            start,
            half,
            keep_records=keep_records,
            quarantine=quarantine,
            stats=stats,
        )
        right = _guarded_experiment_batch(
            runner,
            config,
            resolved_win_size,
            start + half,
            count - half,
            keep_records=keep_records,
            quarantine=quarantine,
            stats=stats,
        )
        return left.merge(right)


def _guarded_error_values(
    runner: ExperimentRunner,
    technique_name: str,
    errors: Sequence[Tuple[int, Optional[int], int]],
    *,
    quarantine: bool,
    stats: SupervisorStats,
) -> List[str]:
    """Crash-guarded :func:`run_error_batch` returning outcome values."""
    try:
        return [outcome.value for outcome in run_error_batch(runner, technique_name, errors)]
    except (KeyboardInterrupt, SystemExit, ReproError):
        raise
    except Exception as exc:
        if len(errors) == 1:
            if not quarantine:
                raise CampaignExecutionError(
                    f"error {errors[0]!r} failed and quarantine is disabled: {exc!r}"
                ) from exc
            stats.quarantined_units += 1
            return [Outcome.CRASHED.value]
        stats.bisections += 1
        half = len(errors) // 2
        return _guarded_error_values(
            runner, technique_name, errors[:half], quarantine=quarantine, stats=stats
        ) + _guarded_error_values(
            runner, technique_name, errors[half:], quarantine=quarantine, stats=stats
        )


# -- supervised worker entry points -------------------------------------------------
#
# Supervised workers receive ``(fn, chunk_id, payload)`` messages; ``fn`` is
# one of the module-level chunk functions below and ``state`` is whatever the
# initializer returned (an ExperimentRunner or an OutcomeInference engine).


def _initialise_supervised_runner(
    provider: Optional[RunnerProvider], program_name: str
) -> ExperimentRunner:
    return (provider or registry_provider)(program_name)


def _experiment_chunk(runner: ExperimentRunner, payload) -> CampaignResult:
    config, resolved_win_size, start, count, keep_records = payload
    return run_experiment_batch(
        runner, config, resolved_win_size, start, count, keep_records=keep_records
    )


def _error_chunk(runner: ExperimentRunner, payload) -> Tuple[List[str], dict]:
    technique, errors = payload
    phase_before = _phase_snapshot(runner)
    values = [outcome.value for outcome in run_error_batch(runner, technique, errors)]
    return values, _phase_delta(runner, phase_before)


def _initialise_supervised_inference(provider, program_name: str):
    """Build (or cache-load) the def-use index + inference engine once."""
    if provider is not None and hasattr(provider, "prepare"):
        provider.prepare()
    from repro.errorspace.inference import OutcomeInference
    from repro.programs.registry import get_defuse_index

    return OutcomeInference(get_defuse_index(program_name))


def _infer_chunk(engine, triples) -> List[Optional[Outcome]]:
    from repro.errorspace.enumerate import SingleBitError

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


def _split_experiment_task(task: ChunkTask) -> List[ChunkTask]:
    config, resolved, start, count, keep_records = task.payload
    half = count // 2
    return [
        ChunkTask(start, task.fn, (config, resolved, start, half, keep_records), half),
        ChunkTask(
            start + half,
            task.fn,
            (config, resolved, start + half, count - half, keep_records),
            count - half,
        ),
    ]


def _split_error_task(task: ChunkTask) -> List[ChunkTask]:
    technique, errors = task.payload
    half = len(errors) // 2
    return [
        ChunkTask(task.chunk_id, task.fn, (technique, errors[:half]), half),
        ChunkTask(
            task.chunk_id + half,
            task.fn,
            (technique, errors[half:]),
            len(errors) - half,
        ),
    ]


def _split_infer_task(task: ChunkTask) -> List[ChunkTask]:
    triples = task.payload
    half = len(triples) // 2
    return [
        ChunkTask(task.chunk_id, task.fn, triples[:half], half),
        ChunkTask(task.chunk_id + half, task.fn, triples[half:], len(triples) - half),
    ]


# -- transport-agnostic dispatch seam -----------------------------------------------
#
# A pooled engine describes one dispatch round as a DispatchRequest — chunk
# tasks, the worker initializer that builds per-process state, the split
# function used for bisection, fault-tolerance knobs and the engine's
# ledger/telemetry callbacks — and hands it to a DispatchTransport.  The
# in-process supervised pool is one implementation; the socket coordinator in
# :mod:`repro.dist` is another.  Because chunks are deterministic and merge by
# offset, *where* a transport runs them cannot change the assembled bytes.


@dataclass
class DispatchRequest:
    """Everything a transport needs to execute one chunked dispatch round.

    ``initializer(provider, program)`` builds the per-worker state that the
    chunk functions (``task.fn``) consume; both the initializer and the chunk
    functions are module-level (picklable by reference), so a request can
    cross process and host boundaries.  The callbacks run in the dispatching
    process: ``on_chunk_done`` is the durability point (the engine fsyncs the
    ledger there), ``on_grant`` and ``on_event`` feed telemetry.
    """

    kind: str
    program: str
    provider: RunnerProvider
    initializer: Callable
    tasks: List[ChunkTask]
    split: Optional[Callable[[ChunkTask], List[ChunkTask]]]
    jobs: int
    start_method: str
    max_retries: int = 3
    chunk_timeout: Optional[float] = None
    quarantine: bool = True
    on_chunk_done: Optional[Callable[[ChunkTask, object], None]] = None
    on_grant: Optional[Callable[[ChunkTask], None]] = None
    on_event: Optional[Callable[..., None]] = None

    @property
    def initargs(self) -> Tuple:
        """Arguments for ``initializer`` — what workers need to warm up."""
        return (self.provider, self.program)


class DispatchTransport:
    """Interface between pooled engines and whatever executes their chunks."""

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


class _RunTelemetry:
    """Structured run-event stream for one engine dispatch.

    Wraps an optional :class:`~repro.telemetry.events.RunLog` keyed by the
    run's chunk-ledger key, so the event log lands next to the ledger and a
    resumed run appends to the stream of the run it continues.  Without a
    run-log directory (or without a ledger to take the key from) every
    method is a no-op, so engine code calls unconditionally.

    Construct at the very top of a run method — cache-stats and metrics
    baselines are captured there, *before* the runner is built, so the
    run's own warm-up traffic (golden derivation, codegen, cache loads) is
    part of its ``run_finished`` delta while earlier runs in the same
    process are not.  :meth:`attach` binds the event log once the ledger
    (whose content-addressed key names the log file) exists.
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
    """Interface every campaign execution backend implements."""

    #: Short name used in progress messages and benchmark labels.
    name: str = "?"

    #: Per-phase wall-clock seconds of the most recent :meth:`run_errors`
    #: call (restore / pre_window / window / tail), for the CLI summary.
    phase_seconds: dict = {}

    #: Fault-tolerance accounting of the most recent run (retries, worker
    #: restarts, timeouts, bisections, quarantined experiments, ledger
    #: usage), ``phase_seconds``-style: observability only, never serialized.
    supervision: dict = {}

    # Fault-tolerance knobs shared by the engine implementations.
    _ledger_dir: Optional[str] = None
    _resume: bool = False
    _quarantine: bool = True
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
        raise NotImplementedError

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
        campaigns (:mod:`repro.errorspace`).  The base implementation runs
        in-process — crash-guarded and, with a ledger directory configured,
        resumable — while pooled engines override it with supervised chunked
        dispatch.
        """
        telemetry = _RunTelemetry()
        runner = provider(program)
        total = len(errors)
        stats = SupervisorStats()
        # Global tick sort first, then contiguous chunks: consecutive
        # experiments share fast-forward checkpoints across chunk borders.
        order = sorted(range(total), key=lambda j: errors[j][0])
        outcomes: List[Optional[Outcome]] = [None] * total
        chunk = 256
        ledger: Optional[ChunkLedger] = None
        if self._ledger_dir is not None and total:
            ledger = _open_errors_ledger(
                self._ledger_dir,
                resume=self._resume,
                runner=runner,
                program=program,
                technique=technique,
                errors=errors,
                chunk=chunk,
            )
            for start, entry in sorted(ledger.completed.items()):
                values = entry["outcomes"]
                for position, value in zip(order[start : start + len(values)], values):
                    outcomes[position] = Outcome(value)
            work = ledger.missing(chunk)
        else:
            work = [
                (start, min(chunk, total - start)) for start in range(0, total, chunk)
            ]
        started = time.monotonic()
        done = ledger.loaded_units if ledger is not None else 0
        label = f"{program}/{technique}/error-space"
        telemetry.attach(
            self._runlog_dir,
            ledger,
            resume=self._resume,
            meta={"program": program, "technique": technique},
        )
        telemetry.started(kind="errors", total=total, engine=self.name, jobs=1)
        telemetry.resume_replay(ledger)
        phase_before = _phase_snapshot(runner)
        guard = _SignalGuard()
        guard.install()
        interrupted = False
        try:
            abort_after = int(os.environ.get("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "0") or 0)
        except ValueError:
            abort_after = 0
        completed_chunks = 0
        try:
            for start, count in work:
                positions = order[start : start + count]
                batch = [errors[j] for j in positions]
                if ledger is not None:
                    ledger.record_grant(start, count)
                telemetry.chunk_dispatched(start, count)
                values = _guarded_error_values(
                    runner, technique, batch, quarantine=self._quarantine, stats=stats
                )
                for position, value in zip(positions, values):
                    outcomes[position] = Outcome(value)
                if ledger is not None:
                    ledger.record_done(start, count, {"outcomes": values})
                done += count
                telemetry.chunk_completed(start, count, done)
                completed_chunks += 1
                stats.chunks_completed += 1
                if on_progress is not None:
                    on_progress(
                        EngineProgress(
                            campaign_id=label,
                            done=done,
                            total=total,
                            elapsed_seconds=time.monotonic() - started,
                        )
                    )
                if guard.stop_requested or (
                    abort_after and completed_chunks >= abort_after
                ):
                    interrupted = done < total
                    break
        finally:
            guard.restore()
            if ledger is not None:
                ledger.close()
        self.phase_seconds = _phase_delta(runner, phase_before)
        stats.interrupted = interrupted
        self.supervision = self._supervision_summary(stats, ledger, 0)
        telemetry.finished(
            status="interrupted" if interrupted else "finished",
            done=done,
            total=total,
            seconds=time.monotonic() - started,
            phase_seconds=self.phase_seconds,
            supervision=self.supervision,
        )
        if interrupted:
            raise CampaignInterrupted(
                self._interrupt_message(label, done, total, ledger),
                done=done,
                total=total,
                resumable=ledger is not None,
            )
        if ledger is not None and total and done >= total:
            ledger.compact(
                [(0, total, {"outcomes": [outcomes[j].value for j in order]})]
            )
        return outcomes

    def plan_infer_map(self, program: str, *, provider: RunnerProvider):
        """An outcome-inference map for pruned-plan construction, or None.

        None means "infer in-process" (the serial default).  Pooled engines
        return a callable that chunk-dispatches the inference pass to their
        workers, so planning scales with ``--jobs`` exactly like execution.
        """
        return None

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
    """Runs experiments one after another in the calling process.

    Shares the pooled engines' fault-tolerance surface where it makes sense
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

    def run(
        self,
        config: CampaignConfig,
        *,
        provider: RunnerProvider,
        keep_records: bool = True,
        on_progress: Optional[ProgressCallback] = None,
    ) -> CampaignResult:
        telemetry = _RunTelemetry()
        runner = provider(config.program)
        resolved = config.resolve_win_size()
        total = config.experiments
        stats = SupervisorStats()
        chunk = self._interval
        partials: Dict[int, CampaignResult] = {}
        ledger: Optional[ChunkLedger] = None
        if self._ledger_dir is not None:
            ledger = _open_campaign_ledger(
                self._ledger_dir,
                resume=self._resume,
                runner=runner,
                config=config,
                resolved_win_size=resolved,
                keep_records=keep_records,
                chunk=chunk,
            )
            for start, payload in ledger.completed.items():
                partials[start] = CampaignResult.from_partial_payload(
                    config, resolved, payload
                )
            work = ledger.missing(chunk)
        else:
            work = [
                (start, min(chunk, total - start)) for start in range(0, total, chunk)
            ]
        started = time.monotonic()
        done = sum(partial.experiments for partial in partials.values())
        telemetry.attach(
            self._runlog_dir,
            ledger,
            resume=self._resume,
            meta={"campaign": config.campaign_id, "program": config.program},
        )
        telemetry.started(
            kind="campaign", total=total, engine=self.name, jobs=1
        )
        telemetry.resume_replay(ledger)
        guard = _SignalGuard()
        guard.install()
        interrupted = False
        try:
            abort_after = int(os.environ.get("REPRO_CHAOS_ABORT_AFTER_CHUNKS", "0") or 0)
        except ValueError:
            abort_after = 0
        completed_chunks = 0
        try:
            for start, count in work:
                if ledger is not None:
                    ledger.record_grant(start, count)
                telemetry.chunk_dispatched(start, count)
                partial = _guarded_experiment_batch(
                    runner,
                    config,
                    resolved,
                    start,
                    count,
                    keep_records=keep_records,
                    quarantine=self._quarantine,
                    stats=stats,
                )
                partials[start] = partial
                if ledger is not None:
                    ledger.record_done(start, count, partial.to_partial_payload())
                done += count
                telemetry.chunk_completed(start, count, done)
                completed_chunks += 1
                stats.chunks_completed += 1
                if on_progress is not None:
                    on_progress(
                        EngineProgress(
                            campaign_id=config.campaign_id,
                            done=done,
                            total=total,
                            elapsed_seconds=time.monotonic() - started,
                        )
                    )
                if guard.stop_requested or (
                    abort_after and completed_chunks >= abort_after
                ):
                    interrupted = done < total
                    break
        finally:
            guard.restore()
            if ledger is not None:
                ledger.close()
        stats.interrupted = interrupted
        self.supervision = self._supervision_summary(stats, ledger, 0)
        telemetry.finished(
            status="interrupted" if interrupted else "finished",
            done=done,
            total=total,
            seconds=time.monotonic() - started,
            phase_seconds=_merged_phase_seconds(partials.values()),
            supervision=self.supervision,
        )
        if interrupted:
            raise CampaignInterrupted(
                self._interrupt_message(config.campaign_id, done, total, ledger),
                done=done,
                total=total,
                resumable=ledger is not None,
            )
        result = CampaignResult(config=config, resolved_win_size=resolved)
        for start in sorted(partials):
            result.merge(partials[start])
        if ledger is not None and total and done >= total:
            ledger.compact([(0, total, result.to_partial_payload())])
        return result


class MultiprocessEngine(ExecutionEngine):
    """Fans experiment batches out to supervised worker processes.

    Each worker process holds exactly one compiled workload + golden trace;
    experiments are dispatched as contiguous index chunks and the partial
    results are merged in index order, so the assembled campaign result is
    bit-identical to a :class:`SerialEngine` run of the same config — chunk
    retries, worker restarts, bisection and resume cannot change the bytes.

    ``supervised=False`` falls back to the original blind ``Pool.imap``
    dispatch (no crash recovery, no ledger) — kept as the baseline the
    supervised path's overhead is benchmarked against, and as an escape
    hatch.

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
        supervised: bool = True,
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
        self._supervised = supervised
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

    def _warm_provider(self, provider: RunnerProvider, program: str) -> None:
        """Warm the parent once before dispatch.

        Under ``fork`` this lets workers inherit the compiled workload,
        decoded program and golden trace.  Whenever the artifact cache is
        active — any start method — the warm runner's artifacts are also
        persisted to disk, so derivation happens once per host and spawned
        workers load instead of re-deriving.
        """
        from repro import artifacts

        if hasattr(provider, "prepare"):
            provider.prepare()
        cache_active = artifacts.active_cache() is not None
        if self._start_method == "fork" or cache_active:
            runner = provider(program)
            if cache_active:
                persist_runner_artifacts(runner)

    def _experiment_chunk_size(self, total: int) -> int:
        chunk = self._chunk_size
        if chunk is None:
            # Aim for ~4 batches per worker so stragglers rebalance, capped to
            # keep per-batch IPC payloads small.
            chunk = max(1, min(64, -(-total // (self.jobs * 4))))
        return chunk

    def _batches(self, total: int) -> List[Tuple[int, int]]:
        chunk = self._experiment_chunk_size(total)
        return [(start, min(chunk, total - start)) for start in range(0, total, chunk)]

    def _dispatch(
        self,
        *,
        kind: str,
        program: str,
        provider: RunnerProvider,
        initializer: Callable,
        tasks: List[ChunkTask],
        split: Optional[Callable[[ChunkTask], List[ChunkTask]]],
        on_chunk_done=None,
        on_grant=None,
        on_event=None,
    ):
        """Execute one chunked round through the configured transport."""
        request = DispatchRequest(
            kind=kind,
            program=program,
            provider=provider,
            initializer=initializer,
            tasks=tasks,
            split=split,
            jobs=self.jobs,
            start_method=self._start_method,
            max_retries=self._max_retries,
            chunk_timeout=self._chunk_timeout,
            quarantine=self._quarantine,
            on_chunk_done=on_chunk_done,
            on_grant=on_grant,
            on_event=on_event,
        )
        return self._transport.execute(request)

    def close(self) -> None:
        self._transport.close()

    def _supervision_summary(
        self,
        stats: SupervisorStats,
        ledger: Optional[ChunkLedger],
        serial_fallback_units: int,
    ) -> dict:
        summary = super()._supervision_summary(stats, ledger, serial_fallback_units)
        dist = getattr(self._transport, "stats", None)
        if dist is not None:
            summary["distributed"] = dist.as_dict()
        return summary

    # -- sampled campaigns --------------------------------------------------------

    def run(
        self,
        config: CampaignConfig,
        *,
        provider: RunnerProvider,
        keep_records: bool = True,
        on_progress: Optional[ProgressCallback] = None,
    ) -> CampaignResult:
        if not self._supervised:
            return self._run_pool(
                config,
                provider=provider,
                keep_records=keep_records,
                on_progress=on_progress,
            )
        telemetry = _RunTelemetry()
        resolved = config.resolve_win_size()
        total = config.experiments
        chunk = self._experiment_chunk_size(total)
        self._warm_provider(provider, config.program)
        partials: Dict[int, CampaignResult] = {}
        ledger: Optional[ChunkLedger] = None
        if self._ledger_dir is not None:
            ledger = _open_campaign_ledger(
                self._ledger_dir,
                resume=self._resume,
                runner=provider(config.program),
                config=config,
                resolved_win_size=resolved,
                keep_records=keep_records,
                chunk=chunk,
            )
            for start, payload in ledger.completed.items():
                partials[start] = CampaignResult.from_partial_payload(
                    config, resolved, payload
                )
            work = ledger.missing(chunk)
        else:
            work = [
                (start, min(chunk, total - start)) for start in range(0, total, chunk)
            ]
        started = time.monotonic()
        done = sum(partial.experiments for partial in partials.values())
        telemetry.attach(
            self._runlog_dir,
            ledger,
            resume=self._resume,
            meta={"campaign": config.campaign_id, "program": config.program},
        )
        telemetry.started(
            kind="campaign", total=total, engine=self.name, jobs=self.jobs
        )
        telemetry.resume_replay(ledger)

        def emit_progress() -> None:
            if on_progress is not None:
                on_progress(
                    EngineProgress(
                        campaign_id=config.campaign_id,
                        done=done,
                        total=total,
                        elapsed_seconds=time.monotonic() - started,
                    )
                )

        tasks = [
            ChunkTask(
                start,
                _experiment_chunk,
                (config, resolved, start, count, keep_records),
                count,
            )
            for start, count in work
        ]

        def on_done(task: ChunkTask, partial: CampaignResult) -> None:
            nonlocal done
            partials[task.chunk_id] = partial
            done += task.size
            if ledger is not None:
                ledger.record_done(task.chunk_id, task.size, partial.to_partial_payload())
            telemetry.chunk_completed(task.chunk_id, task.size, done)
            emit_progress()

        def on_grant(task: ChunkTask) -> None:
            if ledger is not None:
                ledger.record_grant(task.chunk_id, task.size)
            telemetry.chunk_dispatched(task.chunk_id, task.size)

        stats = SupervisorStats()
        serial_fallback_units = 0
        try:
            if tasks:
                outcome = self._dispatch(
                    kind="campaign",
                    program=config.program,
                    provider=provider,
                    initializer=_initialise_supervised_runner,
                    tasks=tasks,
                    split=_split_experiment_task,
                    on_chunk_done=on_done,
                    on_grant=on_grant,
                    on_event=telemetry.supervisor_event,
                )
                stats.merge(outcome.stats)
                if outcome.interrupted and done < total:
                    self.supervision = self._supervision_summary(
                        stats, ledger, serial_fallback_units
                    )
                    telemetry.finished(
                        status="interrupted",
                        done=done,
                        total=total,
                        seconds=time.monotonic() - started,
                        phase_seconds=_merged_phase_seconds(partials.values()),
                        supervision=self.supervision,
                    )
                    raise CampaignInterrupted(
                        self._interrupt_message(config.campaign_id, done, total, ledger),
                        done=done,
                        total=total,
                        resumable=ledger is not None,
                    )
                if outcome.degraded and outcome.unfinished:
                    serial_units = sum(task.size for task in outcome.unfinished)
                    warnings.warn(
                        f"supervised worker pool for {config.campaign_id} degraded "
                        f"after repeated worker crashes; finishing the remaining "
                        f"{serial_units} experiments serially in-process",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    runner = provider(config.program)
                    for task in outcome.unfinished:
                        _, _, start, count, _ = task.payload
                        partial = _guarded_experiment_batch(
                            runner,
                            config,
                            resolved,
                            start,
                            count,
                            keep_records=keep_records,
                            quarantine=self._quarantine,
                            stats=stats,
                        )
                        on_done(task, partial)
                        serial_fallback_units += task.size
                if outcome.quarantined:
                    runner = provider(config.program)
                    for quarantined in outcome.quarantined:
                        _, _, start, count, _ = quarantined.task.payload
                        partial = _crashed_partial(
                            runner,
                            config,
                            resolved,
                            start,
                            count,
                            keep_records=keep_records,
                        )
                        on_done(quarantined.task, partial)
        finally:
            if ledger is not None:
                ledger.close()
        self.supervision = self._supervision_summary(stats, ledger, serial_fallback_units)
        telemetry.finished(
            status="finished",
            done=done,
            total=total,
            seconds=time.monotonic() - started,
            phase_seconds=_merged_phase_seconds(partials.values()),
            supervision=self.supervision,
        )
        result = CampaignResult(config=config, resolved_win_size=resolved)
        for start in sorted(partials):
            result.merge(partials[start])
        if ledger is not None and total and done >= total:
            ledger.compact([(0, total, result.to_partial_payload())])
        return result

    def _run_pool(
        self,
        config: CampaignConfig,
        *,
        provider: RunnerProvider,
        keep_records: bool = True,
        on_progress: Optional[ProgressCallback] = None,
    ) -> CampaignResult:
        """Legacy blind ``Pool.imap`` dispatch (``supervised=False``)."""
        resolved = config.resolve_win_size()
        result = CampaignResult(config=config, resolved_win_size=resolved)
        batches = self._batches(config.experiments)
        tasks = [
            (config, resolved, start, count, keep_records) for start, count in batches
        ]
        context = multiprocessing.get_context(self._start_method)
        self._warm_provider(provider, config.program)
        started = time.monotonic()
        done = 0
        with context.Pool(
            processes=min(self.jobs, len(batches)),
            initializer=_initialise_worker,
            initargs=(provider, config.program),
        ) as pool:
            # imap yields partials in submission order, which keeps the merged
            # record stream identical to a serial run.
            for partial in pool.imap(_run_worker_batch, tasks):
                result.merge(partial)
                done += partial.experiments
                if on_progress is not None:
                    on_progress(
                        EngineProgress(
                            campaign_id=config.campaign_id,
                            done=done,
                            total=config.experiments,
                            elapsed_seconds=time.monotonic() - started,
                        )
                    )
        return result

    # -- exhaustive error spaces --------------------------------------------------

    def _error_chunk_size(self, total: int) -> int:
        chunk = self._chunk_size
        if chunk is None:
            chunk = max(32, min(512, -(-total // (self.jobs * 4))))
        return chunk

    def run_errors(
        self,
        program: str,
        technique: str,
        errors: Sequence[Tuple[int, Optional[int], int]],
        *,
        provider: RunnerProvider,
        on_progress: Optional[ProgressCallback] = None,
    ) -> List[Outcome]:
        if not self._supervised:
            return self._run_errors_pool(
                program, technique, errors, provider=provider, on_progress=on_progress
            )
        total = len(errors)
        if total == 0:
            return []
        telemetry = _RunTelemetry()
        # Tick-sorted contiguous chunks: every worker's batch is a dense
        # slice of injection times, maximising checkpoint reuse per process.
        order = sorted(range(total), key=lambda j: errors[j][0])
        chunk = self._error_chunk_size(total)
        self._warm_provider(provider, program)
        outcomes: List[Optional[Outcome]] = [None] * total
        label = f"{program}/{technique}/error-space"
        ledger: Optional[ChunkLedger] = None
        loaded_units = 0
        if self._ledger_dir is not None:
            ledger = _open_errors_ledger(
                self._ledger_dir,
                resume=self._resume,
                runner=provider(program),
                program=program,
                technique=technique,
                errors=errors,
                chunk=chunk,
            )
            for start, entry in sorted(ledger.completed.items()):
                values = entry["outcomes"]
                for position, value in zip(order[start : start + len(values)], values):
                    outcomes[position] = Outcome(value)
            loaded_units = ledger.loaded_units
            work = ledger.missing(chunk)
        else:
            work = [
                (start, min(chunk, total - start)) for start in range(0, total, chunk)
            ]
        started = time.monotonic()
        done = loaded_units
        phase_totals: dict = {}
        telemetry.attach(
            self._runlog_dir,
            ledger,
            resume=self._resume,
            meta={"program": program, "technique": technique},
        )
        telemetry.started(kind="errors", total=total, engine=self.name, jobs=self.jobs)
        telemetry.resume_replay(ledger)

        def emit_progress() -> None:
            if on_progress is not None:
                on_progress(
                    EngineProgress(
                        campaign_id=label,
                        done=done,
                        total=total,
                        elapsed_seconds=time.monotonic() - started,
                    )
                )

        tasks = [
            ChunkTask(
                start,
                _error_chunk,
                (technique, [errors[j] for j in order[start : start + count]]),
                count,
            )
            for start, count in work
        ]

        def apply_values(start: int, values: List[str]) -> None:
            for position, value in zip(order[start : start + len(values)], values):
                outcomes[position] = Outcome(value)

        def on_done(task: ChunkTask, body) -> None:
            nonlocal done
            values, phases = body
            apply_values(task.chunk_id, values)
            for phase, seconds in phases.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
            if ledger is not None:
                ledger.record_done(task.chunk_id, task.size, {"outcomes": values})
            done += task.size
            telemetry.chunk_completed(task.chunk_id, task.size, done)
            emit_progress()

        def on_grant(task: ChunkTask) -> None:
            if ledger is not None:
                ledger.record_grant(task.chunk_id, task.size)
            telemetry.chunk_dispatched(task.chunk_id, task.size)

        stats = SupervisorStats()
        serial_fallback_units = 0
        try:
            if tasks:
                outcome = self._dispatch(
                    kind="errors",
                    program=program,
                    provider=provider,
                    initializer=_initialise_supervised_runner,
                    tasks=tasks,
                    split=_split_error_task,
                    on_chunk_done=on_done,
                    on_grant=on_grant,
                    on_event=telemetry.supervisor_event,
                )
                stats.merge(outcome.stats)
                if outcome.interrupted and done < total:
                    self.phase_seconds = phase_totals
                    self.supervision = self._supervision_summary(
                        stats, ledger, serial_fallback_units
                    )
                    telemetry.finished(
                        status="interrupted",
                        done=done,
                        total=total,
                        seconds=time.monotonic() - started,
                        phase_seconds=phase_totals,
                        supervision=self.supervision,
                    )
                    raise CampaignInterrupted(
                        self._interrupt_message(label, done, total, ledger),
                        done=done,
                        total=total,
                        resumable=ledger is not None,
                    )
                if outcome.degraded and outcome.unfinished:
                    serial_units = sum(task.size for task in outcome.unfinished)
                    warnings.warn(
                        f"supervised worker pool for {label} degraded after "
                        f"repeated worker crashes; finishing the remaining "
                        f"{serial_units} errors serially in-process",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    runner = provider(program)
                    for task in outcome.unfinished:
                        technique_name, batch = task.payload
                        values = _guarded_error_values(
                            runner,
                            technique_name,
                            batch,
                            quarantine=self._quarantine,
                            stats=stats,
                        )
                        on_done(task, (values, {}))
                        serial_fallback_units += task.size
                if outcome.quarantined:
                    for quarantined in outcome.quarantined:
                        values = [Outcome.CRASHED.value] * quarantined.task.size
                        on_done(quarantined.task, (values, {}))
        finally:
            if ledger is not None:
                ledger.close()
        self.phase_seconds = phase_totals
        self.supervision = self._supervision_summary(stats, ledger, serial_fallback_units)
        telemetry.finished(
            status="finished",
            done=done,
            total=total,
            seconds=time.monotonic() - started,
            phase_seconds=phase_totals,
            supervision=self.supervision,
        )
        if ledger is not None and total and done >= total:
            ledger.compact(
                [(0, total, {"outcomes": [outcomes[j].value for j in order]})]
            )
        return outcomes

    def _run_errors_pool(
        self,
        program: str,
        technique: str,
        errors: Sequence[Tuple[int, Optional[int], int]],
        *,
        provider: RunnerProvider,
        on_progress: Optional[ProgressCallback] = None,
    ) -> List[Outcome]:
        """Legacy blind ``Pool.imap`` dispatch (``supervised=False``)."""
        total = len(errors)
        if total == 0:
            return []
        order = sorted(range(total), key=lambda j: errors[j][0])
        chunk = self._error_chunk_size(total)
        tasks = [
            (technique, [errors[j] for j in order[start : start + chunk]])
            for start in range(0, total, chunk)
        ]
        context = multiprocessing.get_context(self._start_method)
        self._warm_provider(provider, program)
        outcomes: List[Optional[Outcome]] = [None] * total
        started = time.monotonic()
        done = 0
        label = f"{program}/{technique}/error-space"
        phase_totals: dict = {}
        with context.Pool(
            processes=min(self.jobs, len(tasks)),
            initializer=_initialise_worker,
            initargs=(provider, program),
        ) as pool:
            for task_index, (batch_outcomes, batch_phases) in enumerate(
                pool.imap(_run_worker_error_batch, tasks)
            ):
                positions = order[task_index * chunk : task_index * chunk + len(batch_outcomes)]
                for position, outcome in zip(positions, batch_outcomes):
                    outcomes[position] = outcome
                for phase, seconds in batch_phases.items():
                    phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
                done += len(batch_outcomes)
                if on_progress is not None:
                    on_progress(
                        EngineProgress(
                            campaign_id=label,
                            done=done,
                            total=total,
                            elapsed_seconds=time.monotonic() - started,
                        )
                    )
        self.phase_seconds = phase_totals
        return outcomes

    # -- planner inference --------------------------------------------------------

    def plan_infer_map(self, program: str, *, provider: RunnerProvider):
        """Chunk-dispatch the planner's inference pass to supervised workers.

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

        def infer_map(errors):
            total = len(errors)
            if total == 0:
                return []
            triples = [
                (error.dynamic_index, error.slot, error.bit) for error in errors
            ]
            chunk = max(1024, min(16384, -(-total // (self.jobs * 4))))
            self._warm_provider(provider, program)
            # Make sure workers can load the def-use index from the cache
            # instead of replaying the golden trace per process.
            if artifacts.active_cache() is not None:
                from repro.programs.registry import get_defuse_index

                get_defuse_index(program)
            context = multiprocessing.get_context(self._start_method)
            if not self._supervised:
                outcomes: List[Optional[Outcome]] = []
                with context.Pool(
                    processes=min(self.jobs, -(-total // chunk)),
                    initializer=_initialise_infer_worker,
                    initargs=(provider, program),
                ) as pool:
                    for batch in pool.imap(
                        _run_worker_infer_batch,
                        [triples[start : start + chunk] for start in range(0, total, chunk)],
                    ):
                        outcomes.extend(batch)
                return outcomes
            tasks = [
                ChunkTask(
                    start,
                    _infer_chunk,
                    triples[start : start + chunk],
                    min(chunk, total - start),
                )
                for start in range(0, total, chunk)
            ]
            chunks: Dict[int, List[Optional[Outcome]]] = {}
            outcome = self._dispatch(
                kind="infer",
                program=program,
                provider=provider,
                initializer=_initialise_supervised_inference,
                tasks=tasks,
                split=_split_infer_task,
                on_chunk_done=lambda task, body: chunks.__setitem__(task.chunk_id, body),
            )
            if outcome.interrupted and (outcome.unfinished or outcome.quarantined):
                raise CampaignInterrupted(
                    f"{program} inference pass interrupted "
                    f"({len(chunks)}/{len(tasks)} chunks done); planning has no "
                    f"ledger — re-run to restart the pass",
                    done=sum(len(body) for body in chunks.values()),
                    total=total,
                    resumable=False,
                )
            for quarantined in outcome.quarantined:
                # Unprovable by crashing worker: let the planner execute them.
                chunks[quarantined.task.chunk_id] = [None] * quarantined.task.size
            if outcome.degraded and outcome.unfinished:
                warnings.warn(
                    f"supervised inference pool for {program} degraded after "
                    f"repeated worker crashes; finishing inference in-process",
                    RuntimeWarning,
                    stacklevel=2,
                )
                engine = _initialise_supervised_inference(provider, program)
                for task in outcome.unfinished:
                    chunks[task.chunk_id] = _infer_chunk(engine, task.payload)
            assembled: List[Optional[Outcome]] = []
            for start in sorted(chunks):
                assembled.extend(chunks[start])
            return assembled

        return infer_map


# -- legacy pool worker plumbing ----------------------------------------------------
#
# Used by the ``supervised=False`` escape hatch (and the overhead benchmark).
# Workers are initialised once per process: the provider compiles the
# workload, decodes it into executable form and profiles the golden trace,
# then every batch reuses all three.  Module-level state is required because
# multiprocessing initialisers cannot return values.

_WORKER_RUNNER: Optional[ExperimentRunner] = None


def _initialise_worker(provider: Optional[RunnerProvider], program_name: str) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = (provider or registry_provider)(program_name)


def _run_worker_batch(
    task: Tuple[CampaignConfig, int, int, int, bool]
) -> CampaignResult:
    config, resolved_win_size, start, count, keep_records = task
    assert _WORKER_RUNNER is not None, "worker pool was not initialised"
    return run_experiment_batch(
        _WORKER_RUNNER, config, resolved_win_size, start, count, keep_records=keep_records
    )


def _run_worker_error_batch(
    task: Tuple[str, List[Tuple[int, Optional[int], int]]]
) -> Tuple[List[Outcome], dict]:
    technique, errors = task
    assert _WORKER_RUNNER is not None, "worker pool was not initialised"
    phase_before = _phase_snapshot(_WORKER_RUNNER)
    outcomes = run_error_batch(_WORKER_RUNNER, technique, errors)
    return outcomes, _phase_delta(_WORKER_RUNNER, phase_before)


_WORKER_INFERENCE = None


def _initialise_infer_worker(provider, program_name: str) -> None:
    """Build (or cache-load) the def-use index + inference engine once."""
    global _WORKER_INFERENCE
    _WORKER_INFERENCE = _initialise_supervised_inference(provider, program_name)


def _run_worker_infer_batch(
    errors: List[Tuple[int, Optional[int], int]]
) -> List[Optional[Outcome]]:
    engine = _WORKER_INFERENCE
    assert engine is not None, "inference worker pool was not initialised"
    return _infer_chunk(engine, errors)
