"""Tests for the persistent artifact cache (:mod:`repro.artifacts`).

The load-bearing guarantees:

* golden traces + checkpoint stores, def-use indices and pruned plans
  round-trip through the cache bit-identically (the loaded artifacts are
  re-bound to the current module and drive identical campaigns);
* the cache key is *content*-addressed: mutating the module (appending an
  instruction, rewriting an operand) or bumping the pipeline code version
  misses instead of returning stale artifacts;
* a corrupted or truncated artifact file is a miss, never a crash — the
  pipeline recomputes and overwrites it;
* a warm cache means zero golden-trace re-derivations, in-process and in
  spawned workers (asserted in ``tests/test_engine.py``).
"""

import pickle

import pytest

from repro import artifacts
from repro.artifacts import (
    ArtifactCache,
    deserialize_golden,
    golden_key,
    load_plan,
    module_fingerprint,
    plan_key,
    serialize_golden,
    store_plan,
)
from repro.errorspace import build_defuse_index, build_pruned_plan, enumerate_error_space
from repro.errorspace.defuse import DefUseIndex
from repro.frontend import compile_program
from repro.injection import ExperimentRunner
from repro.ir.values import Constant
from repro.vm.interpreter import ExecutionLimits
from repro.vm.program import decode_module
from repro.vm.snapshot import golden_with_checkpoints

WORKLOAD = '''
def main() -> "i64":
    total = 0
    for i in range(6):
        buffer[i % 3] = total % 89
        total += buffer[i % 3] * 5 + i
    output(total)
    return total
'''


def build_workload(name="artifact_workload"):
    return compile_program(name, [WORKLOAD], {"buffer": ("i64", [0, 0, 0])})


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "artifacts")


@pytest.fixture(autouse=True)
def reset_active_cache():
    """Keep the process-wide cache configuration from leaking across tests."""
    yield
    artifacts.configure(None)


# ------------------------------------------------------------------ fingerprint
def test_fingerprint_changes_on_structural_mutation():
    program = build_workload()
    baseline = module_fingerprint(program.module)
    assert baseline == module_fingerprint(program.module)  # deterministic

    other = build_workload()
    assert module_fingerprint(other.module) == baseline  # content, not identity

    # replace_operand: rewrite a constant somewhere in the module
    mutated = build_workload()
    for instruction in mutated.module.all_instructions():
        for position, operand in enumerate(instruction.operands):
            if isinstance(operand, Constant) and operand.value == 5:
                instruction.replace_operand(position, Constant(operand.type, 7))
                break
        else:
            continue
        break
    assert module_fingerprint(mutated.module) != baseline

    # BasicBlock.append: structurally grow a function
    from repro.ir.instructions import Branch

    extended = build_workload()
    function = next(iter(extended.module.functions.values()))
    target = function.blocks[0]
    function.add_block("dangling").append(Branch(target))
    assert module_fingerprint(extended.module) != baseline


# ----------------------------------------------------------------- golden trace
def test_golden_roundtrip_is_bit_identical(cache):
    program = build_workload()
    golden, store = golden_with_checkpoints(program.module, entry=program.entry)
    payload = pickle.loads(
        pickle.dumps(serialize_golden(golden, store), protocol=pickle.HIGHEST_PROTOCOL)
    )
    decoded = decode_module(program.module)
    loaded_golden, loaded_store = deserialize_golden(payload, decoded)
    assert loaded_golden.records == golden.records
    assert loaded_golden.output == golden.output
    assert loaded_golden.return_value == golden.return_value
    assert loaded_golden.checkpoint_ticks == golden.checkpoint_ticks
    assert loaded_golden.iter_register_accesses() == golden.iter_register_accesses()
    assert loaded_store.interval == store.interval
    assert [s.tick for s in loaded_store.snapshots] == [s.tick for s in store.snapshots]
    # restored snapshots drive a resumable interpreter to the identical result
    from repro.vm.interpreter import Interpreter

    driver = Interpreter(decoded, entry=program.entry)
    resumed = driver.resume_segment(loaded_store.snapshots[-1], None)
    assert resumed.completed
    assert resumed.output == golden.output
    assert resumed.return_value == golden.return_value


def test_cold_then_warm_cache_skips_derivation(tmp_path, monkeypatch):
    import repro.vm.snapshot as snapshot_module

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "artifacts"))
    artifacts.configure(None)  # fall back to the env var

    program = build_workload("artifact_cold_warm")
    before = snapshot_module.GOLDEN_DERIVATIONS
    golden_with_checkpoints(program.module, entry=program.entry)
    assert snapshot_module.GOLDEN_DERIVATIONS == before + 1

    # A content-identical module in a "fresh process" (new module object, so
    # the in-memory cache is cold) hits the disk artifact instead.
    clone = build_workload("artifact_cold_warm")
    golden, store = golden_with_checkpoints(clone.module, entry=clone.entry)
    assert snapshot_module.GOLDEN_DERIVATIONS == before + 1  # no new derivation
    assert len(store.snapshots) > 0
    runner = ExperimentRunner(clone)  # warm-up also resolves from the cache
    assert runner.golden.output == golden.output
    assert snapshot_module.GOLDEN_DERIVATIONS == before + 1


# ------------------------------------------------------------ cache invalidation
def test_module_mutation_misses_the_cache(tmp_path):
    cache = ArtifactCache(tmp_path / "artifacts")
    program = build_workload("artifact_invalidation")
    golden, store = golden_with_checkpoints(program.module, entry=program.entry)
    limits = ExecutionLimits()
    key = golden_key(cache, program.module, program.entry, (), None, 32, limits)
    assert cache.store("golden", key, serialize_golden(golden, store))
    assert cache.load("golden", key) is not None

    # replace_operand → different fingerprint → different key → miss
    for instruction in program.module.all_instructions():
        for position, operand in enumerate(instruction.operands):
            if isinstance(operand, Constant) and operand.value == 89:
                instruction.replace_operand(position, Constant(operand.type, 97))
                mutated_key = golden_key(
                    cache, program.module, program.entry, (), None, 32, limits
                )
                assert mutated_key != key
                assert cache.load("golden", mutated_key) is None
                return
    raise AssertionError("workload constant not found")


def test_code_version_bump_misses_the_cache(tmp_path):
    program = build_workload("artifact_codever")
    current = ArtifactCache(tmp_path / "artifacts")
    bumped = ArtifactCache(tmp_path / "artifacts", code_version="next-version")
    fingerprint = module_fingerprint(program.module)
    key = current.key_for("golden", fingerprint)
    assert current.store("golden", key, {"sentinel": 1})
    assert current.load("golden", key) == {"sentinel": 1}
    assert bumped.key_for("golden", fingerprint) != key
    assert bumped.load("golden", bumped.key_for("golden", fingerprint)) is None


def test_corrupted_and_truncated_artifacts_fall_back(tmp_path):
    cache = ArtifactCache(tmp_path / "artifacts")
    key = cache.key_for("plan", "whatever")
    assert cache.store("plan", key, {"payload": list(range(1000))})
    path = cache.path_for("plan", key)

    # truncated pickle: load must report a miss, not raise
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    assert cache.load("plan", key) is None
    # arbitrary garbage
    path.write_bytes(b"not a pickle at all")
    assert cache.load("plan", key) is None
    # the miss is recoverable: storing again round-trips
    assert cache.store("plan", key, {"ok": True})
    assert cache.load("plan", key) == {"ok": True}


def test_corrupted_plan_artifact_recomputes_in_session(tmp_path):
    from repro.experiments import ExperimentSession

    session = ExperimentSession(cache_dir=tmp_path / "artifacts")
    plan = session.pruned_plan("bfs")
    cache = session.artifact_cache
    runner = session.experiment_runner("bfs")
    key = plan_key(
        cache, runner.program.module, runner.program.entry, runner.args,
        "inject-on-read", True,
    )
    path = cache.path_for("plan", key)
    assert path.exists()
    path.write_bytes(b"\x80corrupted")

    fresh = ExperimentSession(cache_dir=tmp_path / "artifacts")
    rebuilt = fresh.pruned_plan("bfs")
    assert rebuilt.matches(plan)


# ------------------------------------------------------------------- def-use
def test_defuse_payload_roundtrip_preserves_queries():
    program = build_workload("artifact_defuse")
    runner = ExperimentRunner(program)
    index = build_defuse_index(
        runner.program, runner.golden, args=runner.args, decoded=runner.decoded
    )
    payload = pickle.loads(pickle.dumps(index.to_payload()))
    loaded = DefUseIndex.from_payload(
        runner.program, runner.golden, runner.decoded, payload
    )
    assert list(loaded.def_tick) == list(index.def_tick)
    assert loaded.def_site == index.def_site
    assert loaded.def_value == index.def_value
    assert [r.name for r in loaded.def_register] == [r.name for r in index.def_register]
    assert [r.type for r in loaded.def_register] == [r.type for r in index.def_register]
    assert loaded.read_def == index.read_def
    assert loaded.deferred_reads == index.deferred_reads
    assert loaded.operand_defs == index.operand_defs
    assert loaded.dead_stores == index.dead_stores
    assert loaded.instructions == index.instructions  # re-bound, same objects
    space = enumerate_error_space(runner.golden, "inject-on-read")
    for error in space.iter_candidate_errors():
        assert loaded.class_key(error.dynamic_index, error.slot) == index.class_key(
            error.dynamic_index, error.slot
        )
    # plans built from the loaded index are bit-identical
    original = build_pruned_plan(space, index)
    reloaded = build_pruned_plan(space, loaded)
    assert [(c.key, c.bit, c.representative, c.members) for c in original.classes] == [
        (c.key, c.bit, c.representative, c.members) for c in reloaded.classes
    ]
    assert original.inferred_outcomes == reloaded.inferred_outcomes


# ---------------------------------------------------------------------- plans
def test_plan_roundtrip_through_cache(cache):
    program = build_workload("artifact_plan")
    runner = ExperimentRunner(program)
    index = build_defuse_index(
        runner.program, runner.golden, args=runner.args, decoded=runner.decoded
    )
    space = enumerate_error_space(runner.golden, "inject-on-read")
    plan = build_pruned_plan(space, index)
    key = plan_key(cache, program.module, program.entry, (), "inject-on-read", True)
    assert store_plan(cache, key, plan)
    loaded = load_plan(cache, key)
    assert loaded is not None
    assert loaded.matches(plan)
    assert loaded.covered_errors == plan.covered_errors
    # deterministic budgeted draws agree between the two plan objects
    assert [
        (p.class_id, p.weight) for p in loaded.budgeted_experiments(9, seed=3)
    ] == [(p.class_id, p.weight) for p in plan.budgeted_experiments(9, seed=3)]


# ------------------------------------------------------------ crash durability
def test_store_survives_simulated_crash_before_rename(tmp_path, monkeypatch):
    """A writer killed between tempfile write and rename leaves a stranded
    ``.tmp-*`` file but never a half-written artifact under the real name."""
    import os

    cache = ArtifactCache(tmp_path / "artifacts")
    key = cache.key_for("golden", "workload")

    original_replace = os.replace

    def crash_instead_of_rename(src, dst):
        raise KeyboardInterrupt("simulated SIGKILL mid-store")

    monkeypatch.setattr(os, "replace", crash_instead_of_rename)
    with pytest.raises(BaseException):
        try:
            cache.store("golden", key, {"payload": 1})
        finally:
            monkeypatch.setattr(os, "replace", original_replace)
    # No artifact under the real name, possibly a stranded temp file.
    assert cache.load("golden", key) is None
    # The next writer succeeds and the artifact round-trips.
    assert cache.store("golden", key, {"payload": 2})
    assert cache.load("golden", key) == {"payload": 2}


def test_sweep_stale_tmp_reclaims_only_old_orphans(tmp_path):
    import os
    import time as time_module

    cache = ArtifactCache(tmp_path / "artifacts")
    kind_dir = tmp_path / "artifacts" / "golden"
    kind_dir.mkdir(parents=True)
    stale = kind_dir / ".tmp-stale"
    stale.write_bytes(b"orphaned by a killed writer")
    old = time_module.time() - 7200
    os.utime(stale, (old, old))
    fresh = kind_dir / ".tmp-fresh"
    fresh.write_bytes(b"a live writer may still own this")
    real = kind_dir / "artifact.pkl"
    real.write_bytes(b"never touched")

    assert cache.sweep_stale_tmp() == 1
    assert not stale.exists()
    assert fresh.exists()
    assert real.exists()


def test_cache_activation_sweeps_stale_tmp(tmp_path):
    import os
    import time as time_module

    kind_dir = tmp_path / "artifacts" / "plan"
    kind_dir.mkdir(parents=True)
    stale = kind_dir / ".tmp-dead"
    stale.write_bytes(b"x")
    old = time_module.time() - 7200
    os.utime(stale, (old, old))

    # configure() sweeps when it creates the cache instance...
    artifacts.configure(tmp_path / "artifacts")
    assert not stale.exists()

    # ...and RegistryProvider.prepare() sweeps on worker warm-up.
    stale.write_bytes(b"x")
    os.utime(stale, (old, old))
    from repro.campaign.engine import RegistryProvider

    artifacts.configure(None)
    RegistryProvider(cache_dir=str(tmp_path / "artifacts")).prepare()
    assert not stale.exists()
