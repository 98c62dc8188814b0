"""Output checks, run after the timed region of one repetition per run.

Sampled workloads: a seeded sample of stored experiments is rebuilt from
``CampaignConfig.experiment_seed`` and ``seeded_spec`` and re-run on the
``reference`` backend (the tree-walking oracle, which shares no execution
code with the compiled backend); fault location, outcome and activated-error
count must match the stored ``ExperimentRecord``.

The exhaustive workload: every drawn representative is re-run on the
reference backend and the weighted outcome counts are recomputed from those
outcomes, and a seeded sample of statically inferred errors must execute to
their inferred outcome (inferred outcomes are proofs).  A seeded sample of
non-representative class members is executed as well and compared with its
representative; class inheritance is an approximation the program itself
validates as a rate (``run_exhaustive(validate=...)``), so disagreements are
counted as mispredictions and reported, not treated as wrong output.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Dict, List, Tuple


class CheckResult:
    def __init__(self) -> None:
        self.attempted = 0
        self.mismatches: List[str] = []
        #: Inherited class members executed, and those whose outcome differs
        #: from their representative's.
        self.members = 0
        self.mispredicted = 0

    def expect(self, label: str, expected, actual) -> None:
        self.attempted += 1
        if expected != actual:
            self.mismatches.append(f"{label}: expected {expected!r}, got {actual!r}")


def store_digest(path: Path) -> str:
    """SHA-256 of the saved result store (its bytes are canonical)."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _reference_runners():
    from repro.injection.experiment import ExperimentRunner
    from repro.programs.registry import build_program

    runners: Dict[str, object] = {}

    def runner(program: str):
        if program not in runners:
            runners[program] = ExperimentRunner(build_program(program), backend="reference")
        return runners[program]

    return runner


def check_sampled(configs, store_path: Path, samples: int, seed: int) -> CheckResult:
    """Re-run a seeded sample of the stored experiments on the reference backend."""
    from repro.campaign.results import ResultStore
    from repro.injection.techniques import technique_by_name

    check = CheckResult()
    store = ResultStore.load(store_path)
    check.expect("stored campaigns", sorted(c.campaign_id for c in configs), sorted(store.campaign_ids()))
    for config in configs:
        result = store.get(config)
        check.expect(f"{config.campaign_id} experiments", config.experiments, result.experiments)
        check.expect(
            f"{config.campaign_id} win-size", config.resolve_win_size(), result.resolved_win_size
        )
    population = [(config, index) for config in configs for index in range(config.experiments)]
    reference = _reference_runners()
    rng = random.Random(f"perfbench/{seed}")
    for config, index in rng.sample(population, min(samples, len(population))):
        record = store.get(config).records[index]
        runner = reference(config.program)
        spec = runner.seeded_spec(
            technique_by_name(config.technique),
            max_mbf=config.max_mbf,
            win_size=config.resolve_win_size(),
            seed=config.experiment_seed(index),
        )
        executed = runner.run_spec(spec)
        check.expect(
            f"{config.campaign_id}#{index}",
            (record.first_dynamic_index, record.first_slot, record.outcome, record.activated_errors),
            (spec.first_dynamic_index, spec.first_slot, executed.outcome, executed.activated_errors),
        )
    return check


def check_exhaustive(session, result, program: str, budget: int, samples: int, seed: int) -> CheckResult:
    """Recompute the budgeted counts and validate the pruning on the reference backend."""
    from repro.campaign.engine import run_error_batch

    check = CheckResult()
    technique = result.technique
    plan = session.pruned_plan(program, technique)
    reference = _reference_runners()(program)

    def outcomes(errors: List[Tuple]) -> list:
        return run_error_batch(reference, technique, errors)

    planned = plan.experiments("budgeted", budget=budget, seed=seed)
    representatives = {p.class_id: (p.error.dynamic_index, p.error.slot, p.error.bit) for p in planned}
    class_ids = sorted(representatives)
    by_class = dict(zip(class_ids, outcomes([representatives[c] for c in class_ids])))
    check.attempted += len(class_ids)
    check.expect("total errors", plan.total_errors, result.total_errors)
    check.expect("executed", len(class_ids), result.executed_experiments)
    check.expect(
        "weighted outcome counts",
        plan.expand_counts(by_class, planned).as_dict(),
        result.outcome_counts.as_dict(),
    )

    rng = random.Random(f"perfbench/{seed}")
    members = plan.non_representative_members()
    sample = rng.sample(members, min(samples, len(members)))
    classes = {cls.class_id: cls for cls in plan.classes}
    heads = [classes[class_id].representative for _member, class_id in sample]
    head_outcomes = outcomes([(e.dynamic_index, e.slot, e.bit) for e in heads])
    member_outcomes = outcomes([member for member, _class_id in sample])
    check.members = len(sample)
    check.mispredicted = sum(head != got for head, got in zip(head_outcomes, member_outcomes))

    inferred = sorted(plan.inferred_outcomes.items(), key=lambda item: (item[0][0], item[0][1] or -1, item[0][2]))
    sample = rng.sample(inferred, min(samples, len(inferred)))
    executed = outcomes([error for error, _outcome in sample])
    for (error, expected), got in zip(sample, executed):
        check.expect(f"inferred {error}", expected, got)
    return check
