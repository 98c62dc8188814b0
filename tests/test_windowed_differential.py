"""Differential suite: injection-windowed production runs match the oracle.

Production runs execute bare outside the fault window (bare sprint to the
first flip, hooked only while the injector can still flip, bare tail after
the last flip).  That is a pure performance claim.  Every observable of an
experiment — outcome, activated-error count, the individual
:class:`InjectionRecord`\\ s, the dynamic instruction count, the
hardware-fault category — must match the reference oracle, which keeps its
hooks armed for the whole run.  These tests enforce the claim per
experiment, at the campaign :class:`ResultStore` byte level, and on the
edge cases where the window machinery earns its keep: injection at the
very first and very last golden tick, win-size > 1 sprints between flips,
hangs that strike after the final flip, windows straddling a VM checkpoint,
and the from-scratch start taken when no checkpoint precedes the first flip
or the runner's decode went stale.

The ``backend`` parameter names the production backend under test.  Set
``REPRO_DIFF_FULL=1`` for the exhaustive sweep (every program, a denser
spec grid); the default run keeps a representative subset so tier-1 stays
fast.
"""

import os
import random

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignRunner,
    RegistryProvider,
    ResultStore,
)
from repro.injection import ExperimentRunner, TECHNIQUES
from repro.injection.faultmodel import FaultSpec, win_size_by_index
from repro.injection.outcome import Outcome
from repro.programs import registry

FULL_SWEEP = os.environ.get("REPRO_DIFF_FULL", "") not in ("", "0")
ALL_PROGRAMS = registry.all_program_names()
#: The quick subset covers both suites, a hang-prone workload and the
#: benchmark the throughput gate measures (crc32).
QUICK_PROGRAMS = ["crc32", "qsort", "dijkstra", "sha", "bfs"]
SWEEP_PROGRAMS = ALL_PROGRAMS if FULL_SWEEP else QUICK_PROGRAMS
PRODUCTION = ("compiled",)


def _result_tuple(result):
    return (
        result.spec,
        result.outcome,
        result.activated_errors,
        tuple(result.injections),
        result.dynamic_instructions,
        result.fault_category,
    )


def _window_specs(runner: ExperimentRunner):
    """Specs that exercise every windowed-execution regime.

    Sampled specs spread first-injection times across the run for both
    techniques; the pinned specs target tick 0, the final tick, a window
    straddling a VM checkpoint, and a follow-up schedule reaching past the
    end of the program (the injector never exhausts, so the tail segment
    never detaches early).
    """
    golden = runner.golden
    total = golden.dynamic_instruction_count
    per_technique = 6 if FULL_SWEEP else 3
    specs = []
    for technique in TECHNIQUES:
        rng = random.Random(f"windowed/{runner.program.module.name}/{technique.name}")
        for position in range(per_technique):
            specs.append(
                runner.seeded_spec(
                    technique,
                    max_mbf=(1, 4, 8)[position % 3],
                    win_size=(0, 3, 100)[position % 3],
                    seed=rng.getrandbits(48),
                )
            )
    first_tick = golden.records_with_destination()[0].dynamic_index
    last_tick = golden.records_with_destination()[-1].dynamic_index
    # Injection at the first eligible tick: the bare pre-window sprint is
    # empty (or near-empty) and the hooked window opens immediately.
    specs.append(
        FaultSpec(
            technique="inject-on-write",
            first_dynamic_index=first_tick,
            first_slot=None,
            max_mbf=2,
            win_size=1,
            seed=11,
        )
    )
    # Injection at the final eligible tick: the deepest bare sprint, no tail.
    specs.append(
        FaultSpec(
            technique="inject-on-write",
            first_dynamic_index=last_tick,
            first_slot=None,
            max_mbf=2,
            win_size=1,
            seed=13,
        )
    )
    # Follow-ups scheduled past the end of the run: the injector is never
    # exhausted, so windowed execution keeps sprinting between scheduled
    # times until the program simply completes.
    specs.append(
        FaultSpec(
            technique="inject-on-write",
            first_dynamic_index=max(0, total - 10),
            first_slot=None,
            max_mbf=30,
            win_size=total,
            seed=17,
        )
    )
    # A window straddling a VM checkpoint: the hooked segment runs across
    # the tick a checkpoint restore would target.
    for tick in golden.checkpoint_ticks[:1]:
        specs.append(
            FaultSpec(
                technique="inject-on-write",
                first_dynamic_index=max(0, tick - 3),
                first_slot=None,
                max_mbf=4,
                win_size=2,
                seed=19,
            )
        )
    return specs


def _oracle(runner: ExperimentRunner) -> ExperimentRunner:
    return ExperimentRunner(runner.program, backend="reference")


def _assert_matches_oracle(runner: ExperimentRunner, specs) -> None:
    oracle = _oracle(runner)
    production = [_result_tuple(runner.run_spec(s)) for s in specs]
    reference = [_result_tuple(oracle.run_spec(s)) for s in specs]
    assert production == reference


@pytest.mark.parametrize("backend", PRODUCTION)
@pytest.mark.parametrize("name", SWEEP_PROGRAMS)
def test_windowed_bit_identical(name, backend):
    runner = registry.get_experiment_runner(name, backend=backend)
    _assert_matches_oracle(runner, _window_specs(runner))


@pytest.mark.parametrize("backend", PRODUCTION)
@pytest.mark.parametrize("name", SWEEP_PROGRAMS)
def test_windowed_bit_identical_without_fast_forward(name, backend):
    """With no checkpoint to restore, runs start from scratch (reset + sprint)."""
    shared = registry.get_experiment_runner(name, backend=backend)
    total = shared.golden.dynamic_instruction_count
    runner = ExperimentRunner(
        shared.program, backend=backend, checkpoint_interval=total + 1
    )
    assert len(runner._checkpoint_store()) == 0
    _assert_matches_oracle(runner, _window_specs(runner)[:4])


def test_stale_decode_starts_from_scratch():
    """A runner whose decode went stale never restores foreign checkpoints."""
    program = registry.get_program("crc32").build()
    runner = ExperimentRunner(
        program, golden=registry.get_experiment_runner("crc32").golden
    )
    # A no-op operand rewrite drops the module's decode cache: the next
    # checkpoint capture re-decodes, so its snapshots use another numbering.
    instruction = next(
        inst
        for function in program.module.functions.values()
        for block in function.blocks
        for inst in block.instructions
        if inst.operands
    )
    instruction.replace_operand(0, instruction.operands[0])
    program.module.finalize()
    assert runner._checkpoint_store() is None
    _assert_matches_oracle(runner, _window_specs(runner)[:4])


#: Found by sweep: faults that leave the program looping forever, with the
#: flips landing *before* the hang — the bare tail segment must still hit
#: the watchdog at the exact same tick an always-hooked run does.
_HANG_SPECS = {
    "crc32": FaultSpec(
        technique="inject-on-write",
        first_dynamic_index=3071,
        first_slot=None,
        max_mbf=2,
        win_size=4,
        seed=83,
    ),
    "dijkstra": FaultSpec(
        technique="inject-on-write",
        first_dynamic_index=2146,
        first_slot=None,
        max_mbf=2,
        win_size=4,
        seed=58,
    ),
    "bfs": FaultSpec(
        technique="inject-on-write",
        first_dynamic_index=703,
        first_slot=None,
        max_mbf=2,
        win_size=4,
        seed=19,
    ),
}


@pytest.mark.parametrize("backend", PRODUCTION)
@pytest.mark.parametrize("name", sorted(_HANG_SPECS))
def test_windowed_hang_after_injection(name, backend):
    """A hang in the bare tail classifies identically to an always-hooked run."""
    runner = registry.get_experiment_runner(name, backend=backend)
    spec = _HANG_SPECS[name]
    hooked = _oracle(runner).run_spec(spec)
    assert hooked.outcome is Outcome.HANG, "sweep-selected spec must still hang"
    assert hooked.activated_errors == spec.max_mbf, "flips land before the hang"
    assert _result_tuple(runner.run_spec(spec)) == _result_tuple(hooked)


def test_windowed_exhausted_signal_detaches():
    """The injector reports exhaustion exactly when the last flip lands, and
    the bare tail that follows matches the always-hooked oracle."""
    runner = registry.get_experiment_runner("crc32")
    spec = runner.seeded_spec(TECHNIQUES[0], max_mbf=3, win_size=2, seed=5)
    result = runner.run_spec(spec)
    assert result.activated_errors <= spec.max_mbf
    if result.activated_errors == spec.max_mbf:
        assert result.injections[-1].dynamic_index < result.dynamic_instructions
    assert _result_tuple(result) == _result_tuple(_oracle(runner).run_spec(spec))


# --------------------------------------------------------------------- store bytes
def _store_bytes(tmp_path, filename, provider):
    configs = [
        CampaignConfig(
            program="crc32",
            technique="inject-on-read",
            max_mbf=3,
            win_size=win_size_by_index("w4"),
            experiments=16,
        ),
        CampaignConfig(
            program="dijkstra",
            technique="inject-on-write",
            max_mbf=5,
            win_size=win_size_by_index("w2"),
            experiments=16,
        ),
    ]
    store = CampaignRunner(provider).run_campaigns(configs, ResultStore())
    path = tmp_path / filename
    store.save(path)
    return path.read_bytes()


@pytest.mark.parametrize("backend", PRODUCTION)
def test_store_bytes_identical_windowed_vs_hooked(tmp_path, backend):
    windowed = _store_bytes(
        tmp_path, f"windowed-{backend}.json", RegistryProvider(backend=backend)
    )
    hooked = _store_bytes(
        tmp_path, "hooked-reference.json", RegistryProvider(backend="reference")
    )
    assert windowed == hooked
