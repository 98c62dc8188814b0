"""The benchmark's workloads: what each one runs, at which size, from which seed.

A workload turns a seed into campaign configurations (or an exhaustive
request), runs them through the public session path and renders the result.
The program under test only ever sees the generated configurations.

Every workload pins ``backend="compiled"`` and ``jobs=2``: the compiled
backend is the production path, and pinning it keeps a later change of the
session default from looking like a speed-up.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

DEFAULT_SEED = 2017
JOBS = 2
BACKEND = "compiled"

#: Programs of the sampled workloads: two integer MiBench programs, a
#: floating-point one and a Parboil graph kernel.  Each fresh process pays
#: codegen per program (~0.35 s); all fifteen would leave room for one
#: repetition per run instead of three or four.
SAMPLED_PROGRAMS = ("crc32", "qsort", "basicmath", "bfs")


@dataclass(frozen=True)
class Size:
    """How much work one repetition of a workload does."""

    programs: Tuple[str, ...]
    #: Experiments per sampled campaign.
    experiments: int = 0
    #: Representatives drawn by the budgeted exhaustive campaign.
    budget: int = 0
    #: Stored experiments (or exhaustive errors) re-run on the reference
    #: backend per repetition, outside the timed region.
    checks: int = 0


@dataclass(frozen=True)
class Workload:
    """A workload's sizes; why each one exists is recorded in BENCHMARK.json."""

    name: str
    full: Size
    tiny: Size

    def size(self, tiny: bool) -> Size:
        return self.tiny if tiny else self.full


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig1-single-bit",
            full=Size(SAMPLED_PROGRAMS, experiments=120, checks=24),
            tiny=Size(("crc32", "bfs"), experiments=6, checks=4),
        ),
        Workload(
            "grid-multi-bit",
            full=Size(SAMPLED_PROGRAMS, experiments=8, checks=24),
            tiny=Size(("crc32",), experiments=3, checks=4),
        ),
        Workload(
            "exhaustive-cold",
            full=Size(("bfs",), budget=60, checks=16),
            tiny=Size(("bfs",), budget=8, checks=4),
        ),
    )
}


def make_configs(workload: str, size: Size, seed: int) -> List:
    """The campaign configurations a sampled workload runs at ``seed``."""
    from repro.campaign.config import ExperimentScale
    from repro.campaign.plan import multi_register_campaigns, single_bit_campaigns
    from repro.injection.faultmodel import win_size_by_index

    scale = ExperimentScale("perfbench", experiments_per_campaign=size.experiments)
    if workload == "fig1-single-bit":
        return single_bit_campaigns(size.programs, scale, master_seed=seed)
    if workload == "grid-multi-bit":
        return multi_register_campaigns(
            size.programs,
            scale,
            max_mbf_values=(10, 30),
            win_size_specs=[win_size_by_index("w8"), win_size_by_index("w9")],
            master_seed=seed,
        )
    raise ValueError(f"{workload} is not a sampled workload")


def open_session(size: Size, store_path, cache_dir):
    """A session on the result store ``store_path`` and artifact cache ``cache_dir``."""
    from repro.campaign.config import ExperimentScale
    from repro.experiments.session import ExperimentSession

    scale = ExperimentScale(
        "perfbench", experiments_per_campaign=max(1, size.experiments)
    )
    return ExperimentSession(
        scale=scale,
        cache_path=store_path,
        cache_dir=cache_dir,
        jobs=JOBS,
        backend=BACKEND,
    )


def run(workload: str, size: Size, seed: int, session, tracer=None):
    """The timed part: dispatch every campaign, render, save the store.

    Returns what the correctness check and the metrics need: the executed
    experiment count and the workload's result object (a rendered figure text
    for sampled workloads, the exhaustive campaign result otherwise).
    """
    from repro.analysis.reporting import format_sdc_series, format_table

    if workload == "exhaustive-cold":
        (program,) = size.programs
        result = session.run_exhaustive(
            program, "inject-on-read", mode="budgeted", budget=size.budget, seed=seed
        )
        with _span(tracer, "experiments.render"):
            format_table(
                ["program", "errors", "executed", "inferred", "SDC%"],
                [[program, result.total_errors, result.executed_experiments,
                  result.inferred_errors, result.sdc_percentage]],
            )
        return result.executed_experiments, result
    configs = make_configs(workload, size, seed)
    store = session.ensure(configs)
    experiments = sum(store.get(config).experiments for config in configs)
    if workload == "fig1-single-bit":
        from repro.experiments.figures import figure1

        with _span(tracer, "experiments.figure1"):
            text = figure1(session, size.programs).text
        return experiments, text
    with _span(tracer, "experiments.render"):
        text = "\n\n".join(
            format_sdc_series(store, technique, same_register=False, programs=size.programs)
            for technique in ("inject-on-read", "inject-on-write")
        )
    return experiments, text


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()
