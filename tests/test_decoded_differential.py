"""Differential suite: decoded execution is bit-identical to the IR walker.

The decode-once representation (:mod:`repro.vm.program`) claims bit-identical
behaviour to the reference tree-walking interpreter.  The decoded
:class:`Interpreter` is no experiment backend of its own, but it captures
the golden checkpoints and runs the compiled backend's interpretive cold
path, so these tests drive it directly and enforce the claim at every level
the campaign stack depends on:

* golden traces (records, output, return value) across **every** registry
  program;
* hook call sequences (dynamic index, slot, register, value) on both hooks;
* per-experiment injection results (outcomes, the individual
  :class:`~repro.injection.faultmodel.InjectionRecord` flips, instruction
  counts, fault categories) for fixed seeds, with a fault injector wired
  straight into the decoded driver;
* campaign :class:`~repro.campaign.results.ResultStore` files, byte for byte
  (production path vs. the reference oracle).

It also pins the decode-cache contract: one decode per unchanged module,
invalidation on structural mutation.
"""

import random

import pytest

from repro.campaign import CampaignConfig, CampaignRunner, ResultStore
from repro.frontend import compile_program
from repro.injection import ExperimentRunner, TECHNIQUES, profile_program
from repro.injection.injector import FaultInjector
from repro.injection.faultmodel import win_size_by_index
from repro.programs import registry
from repro.vm import (
    Interpreter,
    ReferenceInterpreter,
    TraceCollector,
    decode_module,
)

ALL_PROGRAMS = registry.all_program_names()

#: Subset used for the (more expensive) injection/campaign differentials:
#: both suites, integer- and float-heavy, data- and address-dominated.
INJECTION_PROGRAMS = ["crc32", "fft", "dijkstra", "qsort"]


# --------------------------------------------------------------------- golden traces
@pytest.mark.parametrize("name", ALL_PROGRAMS)
def test_golden_trace_bit_identical(name):
    program = registry.build_program(name)
    collector = TraceCollector()
    result = Interpreter(
        decode_module(program.module), entry=program.entry, trace_collector=collector
    ).run()
    decoded = collector.build(result.output, result.return_value)
    reference = profile_program(program, backend="reference")
    assert decoded.output == reference.output
    assert decoded.return_value == reference.return_value
    assert len(decoded) == len(reference)
    assert decoded.records == reference.records


# --------------------------------------------------------------------- hook sequences
def test_hook_sequences_bit_identical():
    """Both backends fire both hooks at the same times with the same data."""
    program = registry.build_program("fft")
    decoded = decode_module(program.module)

    def run(make_interpreter):
        reads, writes = [], []

        def read_hook(dynamic_index, instruction, slot, register, value):
            reads.append((dynamic_index, instruction.opcode, slot, register.name, value))
            return value

        def write_hook(dynamic_index, instruction, register, value):
            writes.append((dynamic_index, instruction.opcode, register.name, value))
            return value

        result = make_interpreter(read_hook, write_hook).run()
        assert result.completed
        return reads, writes

    decoded_reads, decoded_writes = run(
        lambda rh, wh: Interpreter(decoded, entry=program.entry, read_hook=rh, write_hook=wh)
    )
    reference_reads, reference_writes = run(
        lambda rh, wh: ReferenceInterpreter(
            program.module, entry=program.entry, read_hook=rh, write_hook=wh
        )
    )
    assert decoded_reads == reference_reads
    assert decoded_writes == reference_writes


def test_trace_collection_through_decoded_fast_path():
    """The collector's meta fast path and legacy record() agree."""
    program = registry.build_program("bfs")
    decoded = decode_module(program.module)
    fast, legacy = TraceCollector(), TraceCollector()
    Interpreter(decoded, entry=program.entry, trace_collector=fast).run()
    ReferenceInterpreter(program.module, entry=program.entry, trace_collector=legacy).run()
    assert len(fast) == len(legacy)
    assert fast.records == legacy.records


# --------------------------------------------------------------------- injections
def _specs(runner: ExperimentRunner, seeds):
    return [
        runner.seeded_spec(technique, max_mbf=max_mbf, win_size=win_size, seed=seed)
        for technique in TECHNIQUES
        for max_mbf, win_size in ((1, 0), (4, 0), (5, 3))
        for seed in seeds
    ]


def _decoded_result(runner: ExperimentRunner, spec):
    """Run ``spec`` from scratch on the decoded driver, hooks armed throughout."""
    injector = FaultInjector(spec)
    if spec.technique == "inject-on-read":
        hooks = {"read_hook": injector.read_hook}
    else:
        hooks = {"write_hook": injector.write_hook}
    program = runner.program
    execution = Interpreter(
        decode_module(program.module), entry=program.entry, limits=runner.limits, **hooks
    ).run(runner.args)
    return (
        runner.classify(execution),
        tuple(injector.injections),
        execution.dynamic_instructions,
        execution.fault.category if execution.fault else None,
    )


@pytest.mark.parametrize("name", INJECTION_PROGRAMS)
def test_injection_results_bit_identical(name):
    program = registry.build_program(name)
    reference_runner = ExperimentRunner(program, backend="reference")
    seeds = [random.Random(name).getrandbits(48) for _ in range(3)]
    for spec in _specs(reference_runner, seeds):
        reference = reference_runner.run_spec(spec)
        assert _decoded_result(reference_runner, spec) == (
            reference.outcome,
            tuple(reference.injections),
            reference.dynamic_instructions,
            reference.fault_category,
        )


# --------------------------------------------------------------------- campaign stores
def test_campaign_result_store_bytes_identical(tmp_path):
    config = CampaignConfig(
        program="crc32",
        technique="inject-on-read",
        max_mbf=3,
        win_size=win_size_by_index("w4"),
        experiments=12,
    )

    def store_bytes(provider, filename):
        store = CampaignRunner(provider).run_campaigns([config], ResultStore())
        path = tmp_path / filename
        store.save(path)
        return path.read_bytes()

    def reference_provider(name):
        return ExperimentRunner(registry.build_program(name), backend="reference")

    production_bytes = store_bytes(None, "production.json")  # default registry provider
    reference_bytes = store_bytes(reference_provider, "reference.json")
    assert production_bytes == reference_bytes


# --------------------------------------------------------------------- decode cache
def test_decode_module_caches_per_module():
    program = compile_program(
        "cached",
        [
            '''
def main() -> "i64":
    total = 0
    for i in range(4):
        total += i
    return total
'''
        ],
    )
    first = decode_module(program.module)
    second = decode_module(program.module)
    assert first is second
    # Two interpreters share one decoded artifact.
    assert Interpreter(program.module).run().return_value == 6
    assert decode_module(program.module) is first


def test_decode_cache_invalidated_by_mutation():
    from repro.ir import Constant, Function, I64, IRBuilder, Module

    module = Module("mutable")
    function = Function("main", I64)
    module.add_function(function)
    builder = IRBuilder(function, function.add_block("entry"))
    builder.ret(Constant(I64, 1))
    module.finalize()

    first = decode_module(module)
    assert Interpreter(module).run().return_value == 1

    # Structurally extend the module: a fresh function makes it non-finalized
    # and must force a re-decode.
    extra = Function("helper", I64)
    module.add_function(extra)
    extra_builder = IRBuilder(extra, extra.add_block("entry"))
    extra_builder.ret(Constant(I64, 2))
    assert not module.is_finalized
    second = decode_module(module)
    assert second is not first
    assert Interpreter(module).run().return_value == 1


def test_decode_cache_invalidated_by_operand_rewrite():
    """Count-preserving mutations must also force a re-decode.

    replace_operand changes no instruction/block/global counts, and an
    interleaved finalize() (any reference-interpreter construction does one)
    restores is_finalized — the decode cache must still be dropped.
    """
    from repro.ir import Constant, Function, I64, IRBuilder, Module

    module = Module("rewrite")
    function = Function("main", I64)
    module.add_function(function)
    builder = IRBuilder(function, function.add_block("entry"))
    value = builder.add(Constant(I64, 1), Constant(I64, 1))
    builder.ret(value)
    module.finalize()

    assert Interpreter(module).run().return_value == 2
    value.definer.replace_operand(1, Constant(I64, 41))
    # A reference interpreter construction re-finalizes the module in between.
    assert ReferenceInterpreter(module).run().return_value == 42
    assert Interpreter(module).run().return_value == 42


def test_experiment_runner_rejects_unknown_backend():
    from repro.errors import ConfigurationError

    program = registry.build_program("crc32")
    for backend in ("jit", "decoded"):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(program, backend=backend)
        with pytest.raises(ConfigurationError):
            profile_program(program, backend=backend)
