"""End-to-end reproduction benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fig1-single-bit --seed 2017 --seconds 26 --trace 0

runs repetitions of the workload, each in a fresh process (set-up on an empty
artifact cache, the timed workload, then the output checks), plus set-up-only
processes on the filled cache, until the measured set-ups and timed regions
add up to ``--seconds``.  A human-readable table goes to standard error; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics.  The exit code is non-zero when an output
check fails.

Other modes: ``--workload all`` runs every workload; ``--steady N`` repeats a
run N times and prints median, quartiles and spread per metric;
``--self-check`` runs every workload at a tiny size, traced and untraced, and
validates the emitted names and units against ``BENCHMARK.json``.  See
README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"
#: Store digests of every workload at the default seed and full size.
DIGESTS = HERE / "digests.json"
#: Fewest untraced repetitions of an end-to-end run, so medians select.
MIN_REPS = 3
#: After each repetition, warm set-up processes run until that repetition's
#: warm samples add up to this many seconds: a cheap set-up (one program) is
#: sampled more often than an expensive one (four programs).
WARM_SETUP_S = 3.5
#: Per-process limit, and the point after which no new repetition starts.
PROCESS_TIMEOUT = 150.0
RUN_CAP = 110.0
#: Per-layer metrics that must repeat exactly between runs at one seed.
EXACT = {
    "vm.golden_instructions",
    "vm.checkpoints",
    "injection.experiments",
    "errorspace.space_errors",
    "errorspace.classes",
    "errorspace.inferred_fraction",
    "errorspace.reduction_factor",
    "errorspace.executed",
}


class BenchError(RuntimeError):
    """A benchmark process failed; the run cannot produce a result."""


def spawn(spec: dict) -> dict:
    """Run one ``child.py`` process and return its JSON plus its start time."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=PROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{spec['role']} process timed out after {PROCESS_TIMEOUT:.0f}s")
    finally:
        # The workers of a finished process are gone; a killed one may leave some.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    if proc.returncode != 0 or not stdout.strip():
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise BenchError(f"{spec['role']} process exited {proc.returncode}:\n{tail}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["started"] = started
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """One benchmark run: returns the result JSON (metrics per ``trace``)."""
    size = workloads.WORKLOADS[workload].size(tiny)
    run_dir = OUT / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    base = {"workload": workload, "seed": seed, "tiny": tiny}
    reps, traced, cold, warm = [], [], [], []
    warm_layer = None
    began = time.monotonic()
    min_reps = 1 if (tiny or trace) else MIN_REPS

    def setup_sample(directory) -> float:
        setup = spawn(dict(base, role="setup", dir=str(directory)))
        return setup["ready"] - setup["started"]

    try:
        while True:
            # The box's speed drifts from second to second; medians over many
            # samples spread across the run are what keeps a run steady.
            i = len(reps)
            rep_dir = str(run_dir / f"rep{i}")
            rep = spawn(dict(base, role="rep", trace=False, check=i == 0, dir=rep_dir))
            reps.append(rep)
            cold.append(rep["ready"] - rep["started"])
            if trace:
                traced_dir = str(run_dir / f"traced{i}")
                traced.append(spawn(dict(base, role="rep", trace=True, check=False, dir=traced_dir)))
                cold.append(traced[-1]["ready"] - traced[-1]["started"])
                if warm_layer is None:
                    warm_layer = spawn(dict(base, role="setup", trace=True, dir=traced_dir))["layer"]
            else:
                slot = [setup_sample(rep_dir)]
                while sum(slot) < WARM_SETUP_S:
                    slot.append(setup_sample(rep_dir))
                warm.extend(slot)
            measured = sum(cold) + sum(warm) + sum(r["wall_s"] for r in reps + traced)
            if len(reps) >= min_reps and measured >= seconds:
                break
            if time.monotonic() - began > RUN_CAP:
                break
        if trace:
            OUT.mkdir(exist_ok=True)
            shutil.copy(run_dir / "traced0" / "spans.json", OUT / f"spans-{workload}-{seed}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    everything = reps + traced
    mismatches = [m for r in everything for m in r["mismatches"]]
    digests = {r["digest"] for r in everything}
    if len(digests) != 1:
        mismatches.append(f"result stores differ between repetitions: {sorted(digests)}")
    expected = _committed_digest(workload, seed, tiny)
    if expected is not None and digests != {expected}:
        mismatches.append(f"store digest {sorted(digests)} != committed {expected}")
    attempted = sum(r["experiments"] + r["checked"] for r in everything)
    failed = sum(r["crashed"] for r in everything) + len(mismatches)
    result = {
        "correct": not mismatches and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
        "seed": seed,
        "repetitions": len(reps),
        "mismatches": mismatches[:20],
        "digest": sorted(digests)[0],
    }
    if trace:
        result["metrics"] = _layer_result(reps, traced, warm_layer)
    else:
        result["metrics"] = _end_to_end_result(reps, cold, warm, attempted, failed)
    return result


def _committed_digest(workload: str, seed: int, tiny: bool):
    if tiny or seed != workloads.DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[section]}


def _end_to_end_result(reps, cold, warm, attempted, failed) -> dict:
    values = {
        "setup_s": statistics.median(cold),
        "setup_warm_s": statistics.median(warm),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "experiments_per_s": statistics.median(r["experiments"] / r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "success_fraction": (attempted - failed) / attempted if attempted else 0.0,
    }
    units = _units("end_to_end")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _layer_result(reps, traced, warm_layer) -> dict:
    values = {}
    for name in traced[0]["layer"]:
        values[name] = statistics.median(t["layer"][name] for t in traced)
    for name, value in warm_layer.items():
        values[name] += value
    members = sum(r["members"] for r in reps + traced)
    mispredicted = sum(r["mispredicted"] for r in reps + traced)
    values["errorspace.misprediction_rate"] = mispredicted / members if members else 0.0
    values["startup.import_s"] = statistics.median(t["imported"] - t["started"] for t in traced)
    values["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] for t in traced
    ) / statistics.median(r["wall_s"] for r in reps)
    units = _units("per_layer")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def print_table(workload: str, result: dict) -> None:
    rows = [f"[{workload}] seed={result['seed']} repetitions={result['repetitions']}"]
    for name, metric in result["metrics"].items():
        rows.append(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    failed_fraction = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    rows.append(
        f"  {'failed_fraction':32s} {failed_fraction:>14.6g} "
        f"({result['failed']} of {result['attempted']})"
    )
    rows.append(f"  store digest {result['digest']}")
    for mismatch in result["mismatches"]:
        rows.append(f"  MISMATCH {mismatch}")
    print("\n".join(rows), file=sys.stderr)


# -- steadiness and self-check modes ----------------------------------------------------


def steady(args) -> int:
    """Repeat a run; print median, quartiles and spread per metric."""
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for k in range(args.steady):
        # End-to-end runs vary the seed; traced runs keep it, so counts must repeat.
        seed = args.seed + (0 if args.trace else k)
        result = measure(args.workload, seed, args.seconds, bool(args.trace), tiny=False)
        print(f"run {k + 1}/{args.steady} seed={seed} correct={result['correct']}", file=sys.stderr)
        runs.append(result)
    ok = all(r["correct"] for r in runs)
    print(f"[{args.workload}] {len(runs)} runs, trace={args.trace}")
    print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  SPREAD >= bound/3"
        if args.trace and name in EXACT and len(set(values)) != 1:
            flag = "  COUNT DOES NOT REPEAT"
            ok = False
        print(
            f"  {name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
            f"{'' if bound is None else bound:>6}{flag}"
        )
    return 0 if ok else 1


def self_check() -> int:
    """Every workload, tiny, untraced and traced: names and units as declared."""
    spec = json.loads(SPEC.read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(workload, workloads.DEFAULT_SEED, 0.0, trace, tiny=True)
            declared = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            if emitted != declared:
                problems.append(f"{label}: emitted {sorted(emitted.items())} != declared")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)) or not math.isfinite(metric["value"]):
                    problems.append(f"{label}: {name} = {metric['value']!r}")
            if not result["correct"]:
                problems.append(f"{label}: output check failed: {result['mismatches']}")
            print(f"{label}: {len(emitted)} metrics, correct={result['correct']}", file=sys.stderr)
    for problem in problems:
        print(f"SELF-CHECK FAILED {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N", help="repeat N runs")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    try:
        if args.self_check:
            return self_check()
        if args.steady:
            if args.workload == "all":
                parser.error("--steady needs one --workload")
            return steady(args)
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), tiny=False)
            print_table(name, results[name])
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}:{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
