"""The reference tree-walking MiniIR interpreter.

This is the original, direct-over-the-IR execution engine: per-step
``isinstance`` dispatch, ``id(register)`` keyed frames, phi scans on block
entry.  The production hot path is the transpiled code of
:mod:`repro.vm.codegen` over the decode-once form of
:mod:`repro.vm.interpreter`; this class is retained as the **semantic
oracle** (``backend="reference"``) — the differential test suite executes
every registry program both ways and asserts bit-identical golden traces,
injection records and campaign results.

Semantics follow the "hardware-like" conventions the paper relies on:
integer arithmetic wraps at the register width, shifts mask their shift
amount, integer division by zero (and ``INT_MIN / -1``) raises a simulated
arithmetic fault, memory accesses are bounds- and alignment-checked, and a
dynamic-instruction watchdog detects hangs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExecutionSetupError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    Compare,
    CondBranch,
    GetElementPtr,
    Instruction,
    Load,
    Phi,
    Return,
    Select,
    Store,
    Unreachable,
)
from repro.ir.module import Module
from repro.ir.types import (
    ArrayType,
    FloatType,
    IntType,
    IRType,
    PointerType,
    I64,
)
from repro.ir.values import Constant, GlobalVariable, Value, VirtualRegister
from repro.vm import bitops
from repro.vm.faults import (
    AbortFault,
    ArithmeticFault,
    HangDetected,
    HardwareFault,
    InvalidJumpFault,
    SegmentationFault,
)
from repro.vm.memory import Memory
from repro.vm.runtime import (
    ExecutionLimits,
    ExecutionResult,
    MATH_INTRINSICS,
    ProgramExit,
    RuntimeScalar,
    guard_float,
)
from repro.vm.trace import TraceCollector


@dataclass
class _Frame:
    """One call frame: register file plus control-flow position."""

    function: Function
    registers: Dict[int, RuntimeScalar] = field(default_factory=dict)
    stack_mark: int = 0

    def set(self, register: VirtualRegister, value: RuntimeScalar) -> None:
        self.registers[id(register)] = value

    def get(self, register: VirtualRegister) -> RuntimeScalar:
        try:
            return self.registers[id(register)]
        except KeyError:
            raise ExecutionSetupError(
                f"register {register.short_name()} used before definition in "
                f"@{self.function.name}"
            ) from None


class ReferenceInterpreter:
    """Executes a MiniIR module by walking the IR tree (the semantic oracle)."""

    def __init__(
        self,
        module: Module,
        *,
        entry: str = "main",
        limits: Optional[ExecutionLimits] = None,
        read_hook=None,
        write_hook=None,
        trace_collector: Optional[TraceCollector] = None,
    ) -> None:
        if not module.has_function(entry):
            raise ExecutionSetupError(f"module {module.name} has no entry function @{entry}")
        if not module.is_finalized:
            module.finalize()
        self.module = module
        self.entry = entry
        self.limits = limits or ExecutionLimits()
        self.read_hook = read_hook
        self.write_hook = write_hook
        self.trace_collector = trace_collector

        self.memory = Memory()
        self.output: List[Tuple[str, int]] = []
        self.dynamic_index = 0
        self._call_depth = 0
        self._global_addresses: Dict[str, int] = {}
        self._materialise_globals()

        self._dispatch = {
            BinaryOp: self._exec_binop,
            Compare: self._exec_compare,
            Cast: self._exec_cast,
            Alloca: self._exec_alloca,
            Load: self._exec_load,
            Store: self._exec_store,
            GetElementPtr: self._exec_gep,
            Select: self._exec_select,
            Call: self._exec_call,
        }

    # ------------------------------------------------------------------ setup
    def _materialise_globals(self) -> None:
        for name, variable in self.module.globals.items():
            value_type = variable.value_type
            size = value_type.size_bytes()
            align = value_type.alignment()
            address = self.memory.allocate("globals", max(size, 1), max(align, 1))
            self._global_addresses[name] = address
            if variable.initializer:
                if isinstance(value_type, ArrayType):
                    self.memory.write_array(address, variable.initializer, value_type.element)
                else:
                    self.memory.write_scalar(address, variable.initializer[0], value_type)

    def global_address(self, name: str) -> int:
        """Address of a module global (useful in tests and program setup)."""
        return self._global_addresses[name]

    # ------------------------------------------------------------------ running
    def run(self, args: Sequence[RuntimeScalar] = ()) -> ExecutionResult:
        """Execute the entry function and classify how the run ended."""
        entry_function = self.module.get_function(self.entry)
        if len(args) != len(entry_function.arguments):
            raise ExecutionSetupError(
                f"entry @{self.entry} takes {len(entry_function.arguments)} arguments, "
                f"got {len(args)}"
            )
        try:
            return_value = self._run_function(entry_function, list(args))
            return ExecutionResult(
                completed=True,
                output=tuple(self.output),
                return_value=return_value,
                dynamic_instructions=self.dynamic_index,
            )
        except ProgramExit as exit_request:
            return ExecutionResult(
                completed=True,
                output=tuple(self.output),
                return_value=exit_request.code,
                dynamic_instructions=self.dynamic_index,
            )
        except HardwareFault as fault:
            if fault.dynamic_index is None:
                fault.dynamic_index = self.dynamic_index
            return ExecutionResult(
                completed=False,
                output=tuple(self.output),
                return_value=None,
                dynamic_instructions=self.dynamic_index,
                fault=fault,
            )
        except HangDetected:
            return ExecutionResult(
                completed=False,
                output=tuple(self.output),
                return_value=None,
                dynamic_instructions=self.dynamic_index,
                hang=True,
            )

    # ------------------------------------------------------------------ frames
    def _run_function(
        self, function: Function, args: List[RuntimeScalar]
    ) -> Optional[RuntimeScalar]:
        if self._call_depth >= self.limits.max_call_depth:
            raise SegmentationFault(
                f"call depth exceeded {self.limits.max_call_depth} (stack overflow)",
                dynamic_index=self.dynamic_index,
            )
        self._call_depth += 1
        frame = _Frame(function=function, stack_mark=self.memory.stack_mark())
        try:
            for formal, actual in zip(function.arguments, args):
                frame.set(formal, bitops.canonicalize(actual, formal.type))
            return self._run_blocks(frame)
        finally:
            self.memory.stack_release(frame.stack_mark)
            self._call_depth -= 1

    def _run_blocks(self, frame: _Frame) -> Optional[RuntimeScalar]:
        block = frame.function.entry_block
        previous_block: Optional[BasicBlock] = None
        limit = self.limits.max_dynamic_instructions

        while True:
            # Phi nodes are evaluated together on block entry, reading the
            # values that were live at the end of the predecessor block.
            phi_updates: List[Tuple[Phi, RuntimeScalar]] = []
            position = 0
            instructions = block.instructions
            while position < len(instructions) and isinstance(instructions[position], Phi):
                phi = instructions[position]
                if previous_block is None or previous_block.name not in phi.incoming:
                    raise InvalidJumpFault(
                        f"phi {phi.describe()!r} has no incoming value for the "
                        f"executed predecessor",
                        dynamic_index=self.dynamic_index,
                    )
                incoming = phi.incoming[previous_block.name]
                value = self._value_of(frame, incoming)
                phi_updates.append((phi, bitops.canonicalize(value, phi.type)))
                self._tick(phi)
                position += 1
            for phi, value in phi_updates:
                value = self._apply_write_hook(phi, phi.result, value)
                frame.set(phi.result, value)

            while position < len(instructions):
                instruction = instructions[position]
                if self.dynamic_index >= limit:
                    raise HangDetected(self.dynamic_index, limit)
                self._tick(instruction)

                if isinstance(instruction, Branch):
                    previous_block, block = block, instruction.target
                    break
                if isinstance(instruction, CondBranch):
                    condition = self._read_operand(frame, instruction, 0)
                    target = instruction.if_true if condition else instruction.if_false
                    previous_block, block = block, target
                    break
                if isinstance(instruction, Return):
                    if instruction.value is None:
                        return None
                    value = self._read_operand(frame, instruction, 0)
                    return bitops.canonicalize(value, frame.function.return_type)
                if isinstance(instruction, Unreachable):
                    raise AbortFault(
                        "executed an unreachable instruction",
                        dynamic_index=self.dynamic_index,
                    )

                handler = self._dispatch.get(type(instruction))
                if handler is None:
                    raise ExecutionSetupError(
                        f"no interpreter handler for {type(instruction).__name__}"
                    )
                handler(frame, instruction)
                position += 1
            else:
                # Fell off the end of a block without a terminator: treat as a
                # wild jump (cannot happen for verified IR, can happen if a
                # fault corrupts control state).
                raise InvalidJumpFault(
                    f"control fell off the end of block %{block.name}",
                    dynamic_index=self.dynamic_index,
                )

    # ------------------------------------------------------------------ helpers
    def _tick(self, instruction: Instruction) -> None:
        if self.trace_collector is not None:
            self.trace_collector.record(self.dynamic_index, instruction)
        self.dynamic_index += 1

    def _value_of(self, frame: _Frame, operand: Value) -> RuntimeScalar:
        if isinstance(operand, Constant):
            return operand.value
        if isinstance(operand, GlobalVariable):
            return self._global_addresses[operand.name]
        if isinstance(operand, VirtualRegister):
            return frame.get(operand)
        raise ExecutionSetupError(f"cannot evaluate operand {operand!r}")

    def _read_operand(self, frame: _Frame, instruction: Instruction, index: int) -> RuntimeScalar:
        """Fetch operand ``index``, applying the inject-on-read hook."""
        operand = instruction.operands[index]
        value = self._value_of(frame, operand)
        if (
            self.read_hook is not None
            and isinstance(operand, VirtualRegister)
            and not isinstance(operand, GlobalVariable)
        ):
            slot = 0
            for previous in instruction.operands[:index]:
                if isinstance(previous, VirtualRegister) and not isinstance(
                    previous, GlobalVariable
                ):
                    slot += 1
            value = self.read_hook(self.dynamic_index - 1, instruction, slot, operand, value)
            value = bitops.canonicalize(value, operand.type)
        return value

    def _apply_write_hook(
        self, instruction: Instruction, register: VirtualRegister, value: RuntimeScalar
    ) -> RuntimeScalar:
        if self.write_hook is not None:
            value = self.write_hook(self.dynamic_index - 1, instruction, register, value)
            value = bitops.canonicalize(value, register.type)
        return value

    def _write_result(
        self, frame: _Frame, instruction: Instruction, value: RuntimeScalar
    ) -> None:
        register = instruction.result
        if register is None:
            return
        value = bitops.canonicalize(value, register.type)
        value = self._apply_write_hook(instruction, register, value)
        frame.set(register, value)

    def _emit_output(self, value: RuntimeScalar, ir_type: IRType) -> None:
        self.output.append((str(ir_type), bitops.value_to_bits(value, ir_type)))

    # ------------------------------------------------------------------ instruction handlers
    def _exec_binop(self, frame: _Frame, instruction: BinaryOp) -> None:
        lhs = self._read_operand(frame, instruction, 0)
        rhs = self._read_operand(frame, instruction, 1)
        opcode = instruction.opcode
        result_type = instruction.result.type

        if isinstance(result_type, FloatType):
            value = self._float_binop(opcode, float(lhs), float(rhs))
        else:
            value = self._int_binop(opcode, int(lhs), int(rhs), result_type)
        self._write_result(frame, instruction, value)

    def _int_binop(self, opcode: str, lhs: int, rhs: int, type_: IRType) -> int:
        if isinstance(type_, PointerType):
            width = 64
            wrap = lambda v: v & ((1 << 64) - 1)  # noqa: E731 - tiny local helper
            to_unsigned = wrap
        else:
            assert isinstance(type_, IntType)
            width = type_.width
            wrap = type_.wrap
            to_unsigned = type_.to_unsigned

        if opcode == "add":
            return wrap(lhs + rhs)
        if opcode == "sub":
            return wrap(lhs - rhs)
        if opcode == "mul":
            return wrap(lhs * rhs)
        if opcode in ("sdiv", "srem", "udiv", "urem"):
            if rhs == 0:
                raise ArithmeticFault(
                    f"integer {opcode} by zero", dynamic_index=self.dynamic_index
                )
            if opcode == "sdiv":
                if width > 1 and lhs == -(1 << (width - 1)) and rhs == -1:
                    raise ArithmeticFault(
                        "signed division overflow", dynamic_index=self.dynamic_index
                    )
                return wrap(int(lhs / rhs))  # C-style truncation toward zero
            if opcode == "srem":
                if width > 1 and lhs == -(1 << (width - 1)) and rhs == -1:
                    raise ArithmeticFault(
                        "signed remainder overflow", dynamic_index=self.dynamic_index
                    )
                return wrap(lhs - int(lhs / rhs) * rhs)
            ulhs, urhs = to_unsigned(lhs), to_unsigned(rhs)
            if opcode == "udiv":
                return wrap(ulhs // urhs)
            return wrap(ulhs % urhs)
        if opcode == "and":
            return wrap(lhs & rhs)
        if opcode == "or":
            return wrap(lhs | rhs)
        if opcode == "xor":
            return wrap(lhs ^ rhs)
        if opcode in ("shl", "lshr", "ashr"):
            shift = to_unsigned(rhs) % max(width, 1)
            if opcode == "shl":
                return wrap(to_unsigned(lhs) << shift)
            if opcode == "lshr":
                return wrap(to_unsigned(lhs) >> shift)
            return wrap(lhs >> shift)
        raise ExecutionSetupError(f"unhandled integer opcode {opcode}")

    def _float_binop(self, opcode: str, lhs: float, rhs: float) -> float:
        if opcode == "fadd":
            return guard_float(lhs + rhs)
        if opcode == "fsub":
            return guard_float(lhs - rhs)
        if opcode == "fmul":
            try:
                return guard_float(lhs * rhs)
            except OverflowError:
                return math.inf if (lhs > 0) == (rhs > 0) else -math.inf
        if opcode == "fdiv":
            if rhs == 0.0:
                if lhs == 0.0 or math.isnan(lhs):
                    return math.nan
                return math.inf if lhs > 0 else -math.inf
            try:
                return guard_float(lhs / rhs)
            except OverflowError:
                return math.inf if (lhs > 0) == (rhs > 0) else -math.inf
        if opcode == "frem":
            if rhs == 0.0:
                return math.nan
            return math.fmod(lhs, rhs)
        raise ExecutionSetupError(f"unhandled float opcode {opcode}")

    def _exec_compare(self, frame: _Frame, instruction: Compare) -> None:
        lhs = self._read_operand(frame, instruction, 0)
        rhs = self._read_operand(frame, instruction, 1)
        predicate = instruction.predicate

        if predicate in ("ult", "ule", "ugt", "uge") and not instruction.is_float:
            operand_type = instruction.lhs.type
            if isinstance(operand_type, IntType):
                lhs = operand_type.to_unsigned(int(lhs))
                rhs = operand_type.to_unsigned(int(rhs))

        if math.isnan(lhs) if isinstance(lhs, float) else False:
            result = predicate == "ne"
        elif math.isnan(rhs) if isinstance(rhs, float) else False:
            result = predicate == "ne"
        elif predicate == "eq":
            result = lhs == rhs
        elif predicate == "ne":
            result = lhs != rhs
        elif predicate in ("slt", "ult"):
            result = lhs < rhs
        elif predicate in ("sle", "ule"):
            result = lhs <= rhs
        elif predicate in ("sgt", "ugt"):
            result = lhs > rhs
        elif predicate in ("sge", "uge"):
            result = lhs >= rhs
        else:  # pragma: no cover - guarded by Compare constructor
            raise ExecutionSetupError(f"unhandled predicate {predicate}")
        self._write_result(frame, instruction, 1 if result else 0)

    def _exec_cast(self, frame: _Frame, instruction: Cast) -> None:
        value = self._read_operand(frame, instruction, 0)
        source_type = instruction.value.type
        target = instruction.to_type
        opcode = instruction.opcode

        if opcode in ("trunc", "zext", "sext"):
            assert isinstance(target, IntType)
            if opcode == "zext" and isinstance(source_type, IntType):
                result: RuntimeScalar = source_type.to_unsigned(int(value))
            else:
                result = int(value)
            result = target.wrap(int(result))
        elif opcode == "sitofp":
            result = float(int(value))
        elif opcode == "fptosi":
            assert isinstance(target, IntType)
            fvalue = float(value)
            if math.isnan(fvalue):
                result = 0
            elif math.isinf(fvalue):
                result = target.max_value() if fvalue > 0 else target.min_value()
            else:
                result = target.wrap(int(fvalue))
        elif opcode in ("fpext", "fptrunc"):
            result = float(value)
        elif opcode == "ptrtoint":
            assert isinstance(target, IntType)
            result = target.wrap(int(value))
        elif opcode == "inttoptr":
            result = int(value) & ((1 << 64) - 1)
        elif opcode == "bitcast":
            result = bitops.bits_to_value(
                bitops.value_to_bits(value, source_type), target
            )
        else:  # pragma: no cover - guarded by Cast constructor
            raise ExecutionSetupError(f"unhandled cast opcode {opcode}")
        self._write_result(frame, instruction, result)

    def _exec_alloca(self, frame: _Frame, instruction: Alloca) -> None:
        count = int(self._read_operand(frame, instruction, 0))
        element = instruction.allocated_type
        if count < 0 or count > (1 << 24):
            raise SegmentationFault(
                f"alloca of {count} elements exceeds the stack segment",
                dynamic_index=self.dynamic_index,
            )
        size = element.size_bytes() * count
        try:
            address = self.memory.allocate("stack", size, max(element.alignment(), 1))
        except MemoryError as exhausted:
            raise SegmentationFault(
                f"stack exhausted: {exhausted}", dynamic_index=self.dynamic_index
            ) from None
        self._write_result(frame, instruction, address)

    def _exec_load(self, frame: _Frame, instruction: Load) -> None:
        address = int(self._read_operand(frame, instruction, 0))
        value_type = instruction.result.type
        try:
            value = self.memory.read_scalar(address, value_type)
        except HardwareFault as fault:
            fault.dynamic_index = self.dynamic_index
            raise
        self._write_result(frame, instruction, value)

    def _exec_store(self, frame: _Frame, instruction: Store) -> None:
        value = self._read_operand(frame, instruction, 0)
        address = int(self._read_operand(frame, instruction, 1))
        value_type = instruction.value.type
        try:
            self.memory.write_scalar(address, value, value_type)
        except HardwareFault as fault:
            fault.dynamic_index = self.dynamic_index
            raise

    def _exec_gep(self, frame: _Frame, instruction: GetElementPtr) -> None:
        base = int(self._read_operand(frame, instruction, 0))
        index = int(self._read_operand(frame, instruction, 1))
        stride = instruction.element_type.size_bytes()
        address = (base + index * stride) & ((1 << 64) - 1)
        self._write_result(frame, instruction, address)

    def _exec_select(self, frame: _Frame, instruction: Select) -> None:
        condition = self._read_operand(frame, instruction, 0)
        if condition:
            value = self._read_operand(frame, instruction, 1)
        else:
            value = self._read_operand(frame, instruction, 2)
        self._write_result(frame, instruction, value)

    # ------------------------------------------------------------------ calls & intrinsics
    def _exec_call(self, frame: _Frame, instruction: Call) -> None:
        args = [
            self._read_operand(frame, instruction, index)
            for index in range(len(instruction.operands))
        ]
        if instruction.is_intrinsic:
            value = self._call_intrinsic(instruction.callee_name, args, instruction)
        else:
            name = instruction.callee_name
            if not self.module.has_function(name):
                raise ExecutionSetupError(f"call to unknown function @{name}")
            value = self._run_function(self.module.get_function(name), args)
        if instruction.result is not None:
            if value is None:
                value = 0
            self._write_result(frame, instruction, value)

    def _call_intrinsic(
        self, name: str, args: List[RuntimeScalar], instruction: Call
    ) -> Optional[RuntimeScalar]:
        if name == "__output":
            operand_type = instruction.operands[0].type if instruction.operands else I64
            self._emit_output(args[0], operand_type)
            return None
        if name == "__abort":
            raise AbortFault("program called abort()", dynamic_index=self.dynamic_index)
        if name == "__assert":
            if not args[0]:
                raise AbortFault("assertion failed", dynamic_index=self.dynamic_index)
            return None
        if name == "__exit":
            raise ProgramExit(int(args[0]) if args else 0)
        if name == "__malloc":
            size = int(args[0])
            if size < 0 or size > (1 << 26):
                raise SegmentationFault(
                    f"malloc of {size} bytes rejected", dynamic_index=self.dynamic_index
                )
            try:
                return self.memory.allocate("heap", size, 8)
            except MemoryError as exhausted:
                raise SegmentationFault(
                    f"heap exhausted: {exhausted}", dynamic_index=self.dynamic_index
                ) from None
        if name in MATH_INTRINSICS:
            return MATH_INTRINSICS[name](*[float(a) for a in args])
        raise ExecutionSetupError(f"unknown intrinsic {name}")
