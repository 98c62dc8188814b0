"""One fresh benchmark process: a set-up sample or a full repetition.

``run.py`` starts this file with one JSON argument and reads one JSON line
back from its standard output.  Roles:

``setup``
    Import the package and build every workload program's runner through
    the session's provider (frontend, decode, codegen, golden run plus
    checkpoints) on the artifact cache in ``dir`` — cold when the directory
    is empty, warm when an earlier process filled it.
``rep``
    A ``setup`` on an empty cache, then the timed workload, then (outside the
    timed region, when ``check`` is set) the output checks.  With ``trace``
    set the layer entry points are wrapped and the per-layer metrics are
    returned as well.

Times are ``time.monotonic()`` readings, which are system-wide on Linux, so
the parent subtracts the moment it started this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, next to this file)


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own, children


def main(spec: dict) -> dict:
    size = workloads.WORKLOADS[spec["workload"]].size(spec["tiny"])
    work = Path(spec["dir"])
    tracer = None
    if spec.get("trace"):
        import layers

        tracer = layers.Tracer(work / "worker-spans")
    import repro.experiments.session  # noqa: F401  (the import cost is part of set-up)

    imported = time.monotonic()
    if tracer is not None:
        layers.install(tracer)
    session = workloads.open_session(size, work / "results.json", work / "artifacts")
    runners = [session.experiment_runner(program) for program in size.programs]
    ready = time.monotonic()
    out = {"imported": imported, "ready": ready}
    if spec["role"] == "setup":
        session.close()
        if tracer is not None:
            out["layer"] = layers.artifact_metrics(tracer)
        return out

    seed = spec["seed"]
    own0, children0 = _rusage()
    started = time.perf_counter()
    experiments, result = workloads.run(spec["workload"], size, seed, session, tracer)
    wall = time.perf_counter() - started
    own1, children1 = _rusage()
    session.close()
    cpu = (
        own1.ru_utime + own1.ru_stime - own0.ru_utime - own0.ru_stime
        + children1.ru_utime + children1.ru_stime - children0.ru_utime - children0.ru_stime
    )
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # reaped descendant, i.e. the biggest worker.
    peak_rss_mb = max(own1.ru_maxrss, children1.ru_maxrss) / 1024.0
    out.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_rss_mb, experiments=experiments)

    if spec["workload"] == "exhaustive-cold":
        # One engine call: its supervision tally covers every experiment.
        crashed = int(session.engine.supervision.get("quarantined_units", 0))
    else:
        from repro.injection.outcome import Outcome

        crashed = sum(
            campaign.outcome_counts.counts.get(Outcome.CRASHED, 0) for campaign in session.store
        )
    if tracer is not None:
        layer = layers.layer_metrics(tracer, jobs=workloads.JOBS)
        layer["vm.golden_instructions"] = sum(r.golden.dynamic_instruction_count for r in runners)
        layer["vm.checkpoints"] = sum(len(r.golden.checkpoint_ticks) for r in runners)
        layer.update(_errorspace_counts(spec["workload"], size, session, result))
        out["layer"] = layer
        tracer.dump(work / "spans.json")

    import check

    if not spec["check"]:
        # Another repetition of this run is checked; byte-identical stores
        # (compared by the parent) carry its verdict over to this one.
        verdict = check.CheckResult()
    elif spec["workload"] == "exhaustive-cold":
        verdict = check.check_exhaustive(
            session, result, size.programs[0], size.budget, size.checks, seed
        )
    else:
        verdict = check.check_sampled(
            workloads.make_configs(spec["workload"], size, seed),
            work / "results.json",
            size.checks,
            seed,
        )
    out.update(
        crashed=crashed,
        checked=verdict.attempted,
        members=verdict.members,
        mispredicted=verdict.mispredicted,
        mismatches=verdict.mismatches,
        digest=check.store_digest(work / "results.json"),
    )
    return out


def _errorspace_counts(workload, size, session, result) -> dict:
    names = ("space_errors", "classes", "inferred_fraction", "reduction_factor", "executed")
    if workload != "exhaustive-cold":
        return {f"errorspace.{name}": 0 for name in names}
    plan = session.pruned_plan(size.programs[0], result.technique)
    return {
        "errorspace.space_errors": plan.total_errors,
        "errorspace.classes": len(plan.classes),
        "errorspace.inferred_fraction": plan.inferred_errors / plan.total_errors,
        "errorspace.reduction_factor": plan.reduction_factor,
        "errorspace.executed": result.executed_experiments,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
