"""Outside-in tracing: spans around calls into each layer's public functions.

Nothing inside ``src/`` changes.  :func:`install` replaces public entry
points with wrappers that record a span (name, start, end, parent) per call,
wherever a ``repro`` module holds a reference to them.  Workers forked by the
campaign engine inherit the wrappers; a span recorded in another process
than the tracer's own is appended to a per-process JSONL file, since worker
memory does not come back.  Spans stay in memory otherwise and are written
out once, by :meth:`Tracer.dump`, with their self time.

:func:`layer_metrics` folds the spans and the counters the wrappers read
from the program's own result fields (``CampaignResult.phase_seconds``,
``engine.phase_seconds``, ``engine.supervision``, ``ArtifactCache.stats``)
into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

PHASES = ("restore", "pre_window", "window", "tail")


class Tracer:
    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = Path(worker_dir)
        #: The process that owns the tracer, and the one recording right now.
        self.owner = self.pid = os.getpid()
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._worker_file = None
        #: Counters read from result fields by the wrappers.
        self.counts: Dict[str, float] = {}
        self.caches: list = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- spans -----------------------------------------------------------------
    def _enter(self, name: str) -> dict:
        if os.getpid() != self.pid:
            # First span in a forked worker: start a fresh, worker-local tree.
            self.pid = os.getpid()
            self.spans = []
            self._stack = []
            self._worker_file = None
        span = {
            "id": len(self.spans),
            "name": name,
            "pid": self.pid,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        if self.pid != self.owner:
            if self._worker_file is None:
                self.worker_dir.mkdir(parents=True, exist_ok=True)
                self._worker_file = open(
                    self.worker_dir / f"worker-{self.pid}.jsonl", "a", encoding="utf-8"
                )
            self._worker_file.write(json.dumps(span) + "\n")
            self._worker_file.flush()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call; ``after(args, kwargs, result)`` reads counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- output ----------------------------------------------------------------
    def worker_spans(self) -> List[dict]:
        spans = []
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    spans.append(json.loads(line))
        return spans

    def dump(self, path: Path) -> None:
        """Write every span, parent and worker, with its self time."""
        spans = with_self_time(self.spans) + with_self_time(self.worker_spans())
        Path(path).write_text(json.dumps({"spans": spans}, indent=1), encoding="utf-8")


def with_self_time(spans: List[dict]) -> List[dict]:
    """Spans of one or more processes with ``dur`` and ``self`` added.

    Self time is a span's duration minus the part its direct children cover;
    within one process children nest inside their parent and do not overlap.
    """
    out = []
    child_time: Dict[tuple, float] = {}
    for span in spans:
        if span["end"] is None:
            continue
        dur = span["end"] - span["start"]
        if span["parent"] is not None:
            key = (span["pid"], span["parent"])
            child_time[key] = child_time.get(key, 0.0) + dur
    for span in spans:
        if span["end"] is None:
            continue
        dur = span["end"] - span["start"]
        item = dict(span, dur=dur)
        item["self"] = dur - child_time.get((span["pid"], span["id"]), 0.0)
        out.append(item)
    return out


# -- installing the wrappers ----------------------------------------------------------


def _replace_everywhere(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``.

    Covers ``from module import name`` bindings, which patching the defining
    module alone would miss.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(tracer: Tracer, module, attr: str, name: str, after=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(name, original, after))


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, after=None) -> None:
    setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], after))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer (imports them first)."""
    import repro.artifacts as artifacts
    import repro.campaign.engine as engine
    import repro.errorspace as errorspace
    import repro.programs.registry as registry
    import repro.vm.codegen as codegen
    import repro.vm.program as program
    import repro.vm.snapshot as snapshot
    from repro.campaign.ledger import ChunkLedger
    from repro.campaign.results import ResultStore
    from repro.experiments.session import ExperimentSession
    from repro.telemetry.events import RunLog

    # Frontend and VM set-up.
    _wrap_function(tracer, registry, "build_program", "frontend.build_program")
    _wrap_function(tracer, program, "decode_module", "vm.decode_module")
    _wrap_function(tracer, codegen, "compile_program", "vm.compile_program")
    _wrap_function(tracer, snapshot, "golden_with_checkpoints", "vm.golden_with_checkpoints")

    # The engine.
    def after_run(args, kwargs, result):
        tracer.add("injection.experiments", result.experiments)
        for phase, seconds in result.phase_seconds.items():
            tracer.add(f"injection.{phase}_s", seconds)
        _supervision(tracer, args[0].supervision)

    def after_run_errors(args, kwargs, result):
        tracer.add("injection.experiments", len(result))
        for phase, seconds in args[0].phase_seconds.items():
            tracer.add(f"injection.{phase}_s", seconds)
        _supervision(tracer, args[0].supervision)

    def wrap_infer_map(cls):
        original = cls.__dict__["plan_infer_map"]

        @functools.wraps(original)
        def plan_infer_map(self, *args, **kwargs):
            with tracer.span("campaign.plan_infer_map"):
                infer_map = original(self, *args, **kwargs)
            if infer_map is None:
                return None
            return tracer.wrap("errorspace.infer", infer_map)

        cls.plan_infer_map = plan_infer_map

    # Every workload runs on the pooled engine (jobs=2).
    _wrap_method(tracer, engine.MultiprocessEngine, "run", "campaign.engine", after_run)
    _wrap_method(
        tracer, engine.MultiprocessEngine, "run_errors", "campaign.engine", after_run_errors
    )
    wrap_infer_map(engine.MultiprocessEngine)

    execute = engine.SupervisedPoolTransport.__dict__["execute"]

    @functools.wraps(execute)
    def traced_execute(self, request):
        with tracer.span(f"campaign.dispatch.{request.kind}"):
            return execute(self, request)

    engine.SupervisedPoolTransport.execute = traced_execute
    _wrap_function(tracer, engine, "run_experiment_batch", "worker.batch")
    _wrap_function(tracer, engine, "run_error_batch", "worker.batch")

    # Artifacts and storage.
    _wrap_function(tracer, engine, "persist_runner_artifacts", "artifacts.persist")

    def after_load(args, kwargs, result):
        cache = args[0]
        if not any(cache is seen for seen in tracer.caches):
            tracer.caches.append(cache)

    def after_store(args, kwargs, result):
        after_load(args, kwargs, result)
        if result:
            cache, kind, key = args[0], args[1], args[2]
            tracer.add("artifacts.bytes_written", cache.path_for(kind, key).stat().st_size)

    _wrap_method(tracer, artifacts.ArtifactCache, "load", "artifacts.load", after_load)
    _wrap_method(tracer, artifacts.ArtifactCache, "store", "artifacts.store", after_store)
    for method in ("record_grant", "record_done", "compact"):
        _wrap_method(tracer, ChunkLedger, method, "campaign.ledger")

    def after_save(args, kwargs, result):
        tracer.add("campaign.store_saves", 1)
        tracer.add("campaign.store_bytes", Path(args[1]).stat().st_size)

    _wrap_method(tracer, ResultStore, "save", "campaign.store_save", after_save)

    # Telemetry and planning.
    _wrap_method(tracer, RunLog, "emit", "telemetry.emit")
    _wrap_function(tracer, registry, "get_defuse_index", "errorspace.defuse")
    _wrap_function(tracer, errorspace, "build_pruned_plan", "errorspace.plan")

    # The top level (figure1 is wrapped at its call site by the workload).
    _wrap_method(tracer, ExperimentSession, "ensure", "session.ensure")


def _supervision(tracer: Tracer, supervision: dict) -> None:
    tracer.add("campaign.retries", supervision.get("retries", 0))
    tracer.add("campaign.quarantined", supervision.get("quarantined_units", 0))


# -- folding spans into per-layer metrics ----------------------------------------------


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, *, jobs: int) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (set-up spans included)."""
    parent = with_self_time(tracer.spans)
    workers = with_self_time(tracer.worker_spans())

    def total(name: str, field: str = "self") -> float:
        return sum(s[field] for s in parent if s["name"] == name)

    def count(name: str) -> int:
        return sum(1 for s in parent if s["name"] == name)

    by_id = {s["id"]: s for s in parent}

    def outermost(name: str) -> float:
        """Inclusive time of ``name`` spans not nested in another ``name`` span."""
        seconds = 0.0
        for s in parent:
            if s["name"] != name:
                continue
            up = s["parent"]
            while up is not None and by_id[up]["name"] != name:
                up = by_id[up]["parent"]
            if up is None:
                seconds += s["dur"]
        return seconds

    batches = [s["dur"] for s in workers if s["name"] == "worker.batch"]
    busy = sum(batches)
    dispatch = sum(
        s["dur"] for s in parent if s["name"].startswith("campaign.dispatch.")
    )
    batch_dispatch = sum(
        s["dur"]
        for s in parent
        if s["name"] in ("campaign.dispatch.campaign", "campaign.dispatch.errors")
    )
    phases = sum(tracer.counts.get(f"injection.{p}_s", 0.0) for p in PHASES)
    metrics = {
        "frontend.compile_s": total("frontend.build_program"),
        "vm.decode_s": total("vm.decode_module"),
        "vm.codegen_s": total("vm.compile_program"),
        "vm.golden_s": total("vm.golden_with_checkpoints"),
        "injection.experiments": tracer.counts.get("injection.experiments", 0),
        "injection.unphased_s": max(0.0, busy - phases),
        "campaign.engine_s": outermost("campaign.engine"),
        "campaign.dispatch_s": dispatch,
        "campaign.worker_busy_s": busy,
        "campaign.parallel_efficiency": busy / (jobs * batch_dispatch) if batch_dispatch else 0.0,
        "campaign.pool_starts": sum(
            1 for s in parent if s["name"].startswith("campaign.dispatch.")
        ),
        "campaign.chunks": len(batches),
        "campaign.chunk_s.p50": _percentile(batches, 50),
        "campaign.chunk_s.p99": _percentile(batches, 99),
        "campaign.ledger_s": total("campaign.ledger"),
        "campaign.store_save_s": total("campaign.store_save"),
        "campaign.store_saves": tracer.counts.get("campaign.store_saves", 0),
        "campaign.store_bytes": tracer.counts.get("campaign.store_bytes", 0),
        "campaign.retries": tracer.counts.get("campaign.retries", 0),
        "campaign.quarantined": tracer.counts.get("campaign.quarantined", 0),
        "artifacts.persist_s": outermost("artifacts.persist"),
        "errorspace.defuse_s": total("errorspace.defuse"),
        "errorspace.infer_s": total("errorspace.infer", "dur"),
        "errorspace.plan_s": total("errorspace.plan"),
        "telemetry.emit_s": total("telemetry.emit"),
        "telemetry.events": count("telemetry.emit"),
        "experiments.render_s": total("experiments.figure1") + total("experiments.render"),
    }
    for phase in PHASES:
        metrics[f"injection.{phase}_s"] = tracer.counts.get(f"injection.{phase}_s", 0.0)
    metrics.update(artifact_metrics(tracer))
    return metrics


def artifact_metrics(tracer: Tracer) -> Dict[str, float]:
    """Artifact-cache traffic of one traced process, from spans and cache stats."""
    parent = with_self_time(tracer.spans)
    return {
        "artifacts.load_s": sum(s["self"] for s in parent if s["name"] == "artifacts.load"),
        "artifacts.store_s": sum(s["self"] for s in parent if s["name"] == "artifacts.store"),
        "artifacts.bytes_written": tracer.counts.get("artifacts.bytes_written", 0),
        "artifacts.hits": sum(cache.stats.hit_count for cache in tracer.caches),
        "artifacts.misses": sum(cache.stats.miss_count for cache in tracer.caches),
    }
