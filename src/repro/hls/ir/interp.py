"""Reference interpreter for the HLS IR.

Executes a function with bit-accurate C semantics.  It is the golden model
against which the scheduled FSMD simulation (and ultimately the generated
RTL) is checked, mirroring the role of C/RTL co-simulation in the Bambu
flow described in the paper.

Two forms of execution share one set of semantics
(``eval_binop``/``eval_unop``, ``_coerce_scalar``, ``_cast`` and the
bounds-checked :class:`Memory`):

* :meth:`Interpreter.run` decodes each function it reaches once per run:
  every ``Var``/``Temp`` becomes a slot of a list register file, every op
  a closure with its slots, constants and types bound (comparisons and
  the wrapping integer ops bind their Python operator), every terminator
  a reference to its target blocks.  Then it executes that form.  This
  is the golden model of every co-simulation, and design-space
  exploration runs one per design point.  The FSMD DBT
  (``repro.hls.backend.dbt``) runs the same decoded form, from a
  ``_Decoder`` subclass that decodes only sub-calls differently, under
  its own cycle-accounting walk: one decoder, two walks over what it
  produces.
* ``_exec_function`` steps through ``_exec_op``/``_value`` op by op,
  with a ``Value``-keyed environment.  ``FsmdSimulator`` drives
  ``_exec_op`` the same way; it is the oracle for both decoded engines.
  A subclass that hooks ``_exec_op`` to observe every op also gets this
  walk.

The interpreter's two forms keep the same contract: identical results
and ``op_count``/``mem_reads``/``mem_writes`` (also after an error), unset
variables reading as ``0``/``0.0``, a per-invocation step limit that
counts ops but not terminators, and malformed code (an unsupported op,
a block without terminator, an unknown branch target) raising only when
execution reaches it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .cfg import Function, Module
from .operations import (
    Assign,
    BinOp,
    Branch,
    Call,
    Cast,
    Jump,
    Load,
    Return,
    Select,
    Store,
    UnOp,
    eval_binop,
    eval_unop,
)
from .types import FloatType, IntType
from .values import Const, MemObject, Temp, Value, Var


class InterpError(Exception):
    pass


class Memory:
    """Backing store for one memory object during interpretation."""

    def __init__(self, mem: MemObject, data: Optional[Sequence] = None,
                 size: Optional[int] = None) -> None:
        self.mem = mem
        length = size if size is not None else mem.size
        if data is not None:
            self.data = list(data)
            if length and len(self.data) < length:
                self.data.extend([0] * (length - len(self.data)))
        else:
            self.data = [0] * length
            for index, value in enumerate(mem.initializer):
                self.data[index] = self._wrap(value)

    def _wrap(self, value):
        if isinstance(self.mem.element, IntType):
            return self.mem.element.wrap(int(value))
        if isinstance(self.mem.element, FloatType):
            return self.mem.element.round(float(value))
        return value

    def load(self, index: int):
        if not 0 <= index < len(self.data):
            raise InterpError(
                f"out-of-bounds read {self.mem.name}[{index}] "
                f"(size {len(self.data)})")
        return self.data[index]

    def store(self, index: int, value) -> None:
        if not 0 <= index < len(self.data):
            raise InterpError(
                f"out-of-bounds write {self.mem.name}[{index}] "
                f"(size {len(self.data)})")
        self.data[index] = self._wrap(value)


class Interpreter:
    """Executes IR functions; collects dynamic statistics."""

    def __init__(self, module: Module, max_steps: int = 10_000_000) -> None:
        self.module = module
        self.max_steps = max_steps
        self.op_count = 0
        self.mem_reads = 0
        self.mem_writes = 0
        # Global arrays are shared across all functions of the module.
        self._globals: Dict[str, Memory] = {}

    def _memory_for(self, mem: MemObject) -> Memory:
        if mem.is_global:
            if mem.name not in self._globals:
                self._globals[mem.name] = Memory(mem)
            return self._globals[mem.name]
        return Memory(mem)

    def run(self, func_name: str, args: Sequence = (),
            mem_args: Optional[Dict[str, Union[Memory, Sequence]]] = None):
        """Execute ``func_name``.

        ``args`` supplies the scalar parameters in order; ``mem_args`` maps
        memory-parameter names to :class:`Memory` objects or plain
        sequences (converted in place, mutations visible to the caller via
        the returned ``Memory``).  Returns ``(return_value, memories)``.
        """
        func = self.module[func_name]
        values, memories = self._bind(func, args, mem_args)
        if type(self)._exec_op is Interpreter._exec_op:
            code = _decode(self, func, {})
            result = self._execute(code, code.frame(values), memories)
        else:
            # A subclass observes every op: step through its hook.
            env: Dict[Value, object] = {
                Var(param.name, param.type): value
                for param, value in zip(func.scalar_params(), values)}
            result = self._exec_function(func, env, memories)
        return result, memories

    def _bind(self, func: Function, args: Sequence,
              mem_args: Optional[Dict[str, Union[Memory, Sequence]]]
              ) -> Tuple[list, Dict[str, Memory]]:
        """The coerced scalar ``args`` and the memories of one run of
        ``func`` (see :meth:`run`)."""
        scalar_params = func.scalar_params()
        if len(args) != len(scalar_params):
            raise InterpError(
                f"{func.name} expects {len(scalar_params)} scalar args, "
                f"got {len(args)}")
        values = [self._coerce_scalar(value, param.type)
                  for param, value in zip(scalar_params, args)]
        memories: Dict[str, Memory] = {}
        mem_args = dict(mem_args or {})
        for name, mem in func.mems.items():
            if mem.is_param:
                if name not in mem_args:
                    raise InterpError(f"missing memory argument {name!r}")
                supplied = mem_args[name]
                if isinstance(supplied, Memory):
                    memories[name] = supplied
                else:
                    memories[name] = Memory(mem, data=list(supplied),
                                            size=len(supplied))
            else:
                memories[name] = self._memory_for(mem)
        return values, memories

    # -- decoded execution ----------------------------------------------

    def _execute(self, code: _Code, regs: list,
                 memories: Dict[str, Memory]):
        """Run one invocation of decoded ``code`` on register file ``regs``.

        Counters are kept in locals and added to the interpreter's when
        the invocation ends, normally or not.  If op ``k`` of a block
        raises, the ops before it and the op itself count (as in
        ``_exec_op``), and the memory traffic of the ops before it.
        """
        limit = self.max_steps
        steps = count = reads = writes = 0
        block = code.entry
        fn = None
        try:
            while True:
                ops = block.ops
                steps += len(ops)
                if steps > limit and ops:
                    ops = ops[:max(0, limit - steps + len(ops))]
                    for fn in ops:
                        fn(regs, memories)
                    fn = None
                    count += len(ops)
                    reads += sum(block.loads[:len(ops)])
                    writes += sum(block.stores[:len(ops)])
                    raise InterpError(f"{code.name}: step limit exceeded")
                for fn in ops:
                    fn(regs, memories)
                fn = None
                count += block.weight
                reads += block.reads
                writes += block.writes
                kind = block.kind
                if kind == _BRANCH:
                    block = block.target if regs[block.slot] else block.orelse
                elif kind == _JUMP:
                    block = block.target
                elif kind == _RETURN:
                    return None if block.slot is None else regs[block.slot]
                else:
                    raise block.error()
        except BaseException:
            if fn is not None:
                k = ops.index(fn)
                count += k + 1
                reads += sum(block.loads[:k])
                writes += sum(block.stores[:k])
            raise
        finally:
            self.op_count += count
            self.mem_reads += reads
            self.mem_writes += writes

    # -- op-by-op execution ---------------------------------------------

    def _exec_function(self, func: Function, env: Dict[Value, object],
                       memories: Dict[str, Memory]):
        block = func.blocks[func.entry]
        steps = 0
        while True:
            for op in block.ops:
                steps += 1
                if steps > self.max_steps:
                    raise InterpError(f"{func.name}: step limit exceeded")
                self._exec_op(func, op, env, memories)
            term = block.terminator
            self.op_count += 1
            if isinstance(term, Return):
                if term.value is None:
                    return None
                return self._value(term.value, env)
            if isinstance(term, Jump):
                block = func.blocks[term.target]
            elif isinstance(term, Branch):
                cond = self._value(term.cond, env)
                block = func.blocks[term.if_true if cond else term.if_false]
            else:
                raise InterpError(f"{func.name}: fell off block {block.name}")

    def _exec_op(self, func: Function, op, env: Dict[Value, object],
                 memories: Dict[str, Memory]) -> None:
        self.op_count += 1
        if isinstance(op, BinOp):
            lhs = self._value(op.lhs, env)
            rhs = self._value(op.rhs, env)
            # Comparisons take their semantics from the operand type
            # (signedness); other ops from the destination type.
            result_ty = op.lhs.ty if op.is_comparison else op.dst.ty
            env[op.dst] = eval_binop(op.op, lhs, rhs, result_ty)
        elif isinstance(op, UnOp):
            env[op.dst] = eval_unop(op.op, self._value(op.src, env), op.dst.ty)
        elif isinstance(op, Assign):
            env[op.dst] = self._coerce_scalar(self._value(op.src, env),
                                              op.dst.ty)
        elif isinstance(op, Cast):
            env[op.dst] = self._cast(self._value(op.src, env), op.src.ty,
                                     op.dst.ty)
        elif isinstance(op, Load):
            index = self._value(op.index, env)
            memory = memories[op.mem.name]
            env[op.dst] = memory.load(int(index))
            self.mem_reads += 1
        elif isinstance(op, Store):
            index = self._value(op.index, env)
            memory = memories[op.mem.name]
            memory.store(int(index), self._value(op.src, env))
            self.mem_writes += 1
        elif isinstance(op, Select):
            cond = self._value(op.cond, env)
            chosen = op.if_true if cond else op.if_false
            env[op.dst] = self._coerce_scalar(self._value(chosen, env),
                                              op.dst.ty)
        elif isinstance(op, Call):
            env_result = self._exec_call(op, env, memories)
            if op.dst is not None:
                env[op.dst] = env_result
        else:
            raise InterpError(f"cannot interpret {op}")

    def _exec_call(self, op: Call, env: Dict[Value, object],
                   memories: Dict[str, Memory]):
        if op.callee == "sqrtf":
            return self._sqrtf(self._value(op.args[0], env))
        callee = self.module[op.callee]
        sub_env: Dict[Value, object] = {}
        for param, arg in zip(callee.scalar_params(), op.args):
            sub_env[Var(param.name, param.type)] = self._coerce_scalar(
                self._value(arg, env), param.type)
        sub_mems = self._callee_memories(
            callee, [mem.name for mem in op.mem_args], memories)
        return self._exec_function(callee, sub_env, sub_mems)

    def _callee_memories(self, callee: Function, mem_args: Sequence[str],
                         memories: Dict[str, Memory]) -> Dict[str, Memory]:
        """The memories a call to ``callee`` runs on: its memory
        parameters bound to the caller's ``mem_args``, then its own
        arrays.  Every engine's sub-call goes through here."""
        mem_params = callee.memory_params()
        if len(mem_params) != len(mem_args):
            raise InterpError(f"call {callee.name}: memory arity mismatch")
        sub_mems = {param.name: memories[mem]
                    for param, mem in zip(mem_params, mem_args)}
        for name, mem in callee.mems.items():
            if not mem.is_param and name not in sub_mems:
                sub_mems[name] = self._memory_for(mem)
        return sub_mems

    # -- value helpers ---------------------------------------------------

    @staticmethod
    def _value(value: Value, env: Dict[Value, object]):
        if isinstance(value, Const):
            return value.value
        if value in env:
            return env[value]
        if isinstance(value, (Var, Temp)):
            # Uninitialized variable: C gives indeterminate; we give 0 so
            # hardware and reference agree deterministically.
            if isinstance(value.ty, FloatType):
                return 0.0
            return 0
        raise InterpError(f"unbound value {value}")

    @staticmethod
    def _sqrtf(value):
        return FloatType(32).round(math.sqrt(max(0.0, value)))

    @staticmethod
    def _coerce_scalar(value, ty):
        if isinstance(ty, IntType):
            return ty.wrap(int(value))
        if isinstance(ty, FloatType):
            return ty.round(float(value))
        return value

    @staticmethod
    def _cast(value, src_ty, dst_ty):
        if isinstance(dst_ty, FloatType):
            return dst_ty.round(float(value))
        if isinstance(src_ty, FloatType) and isinstance(dst_ty, IntType):
            return dst_ty.wrap(int(value))  # trunc toward zero
        if isinstance(dst_ty, IntType):
            return dst_ty.wrap(int(value))
        return value


# -- decoding -------------------------------------------------------------

#: Terminator kinds of a decoded block.
_JUMP, _BRANCH, _RETURN, _FAIL = range(4)

#: A decoded op: ``fn(regs, memories)``.
_Op = Callable[[list, Dict[str, Memory]], None]

#: Binary ops a decoded op runs as one operator instead of through
#: ``eval_binop``, with its semantics: comparisons give 1/0 whatever the
#: type, the integer ops wrap ``op(int(a), int(b))`` to the result type.
_COMPARE = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
            "le": operator.le, "gt": operator.gt, "ge": operator.ge}
_WRAPPING = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
             "and": operator.and_, "or": operator.or_, "xor": operator.xor}


class _Block:
    """One basic block, decoded.

    ``name`` is the IR block's; ``weight`` is what the block adds to
    ``op_count`` (its ops and its terminator); ``loads``/``stores`` flag
    each op's memory traffic and ``reads``/``writes`` are their sums.
    The terminator is a ``kind`` with ``target``/``orelse`` blocks, the
    ``slot`` of a branch condition or return value, or an ``error``
    factory.
    """

    __slots__ = ("name", "ops", "weight", "loads", "stores", "reads",
                 "writes", "kind", "target", "orelse", "slot", "error")

    def __init__(self, name: str, ops: Tuple[_Op, ...] = (),
                 loads: Tuple[int, ...] = (),
                 stores: Tuple[int, ...] = ()) -> None:
        self.name = name
        self.ops = ops
        self.loads = loads
        self.stores = stores
        self.reads = sum(loads)
        self.writes = sum(stores)
        self.weight = len(ops) + 1
        self.kind = _FAIL
        self.target = self.orelse = self.slot = None
        self.error: Optional[Callable[[], Exception]] = None


def _missing_block(name: str) -> _Block:
    """Stands for an unknown block name: entering it raises ``KeyError``
    (what ``func.blocks[name]`` raises), and it counts nothing."""
    block = _Block(name)
    block.weight = 0
    block.error = partial(KeyError, name)
    return block


@dataclass
class _Code:
    """One function, decoded: blocks plus the register file layout."""

    name: str
    entry: _Block
    init: list
    params: List[int]
    param_types: list

    def frame(self, values: Sequence) -> list:
        """A fresh register file with the scalar parameters bound."""
        regs = list(self.init)
        for slot, value in zip(self.params, values):
            regs[slot] = value
        return regs


class _Unbound(Exception):
    """An operand that is no ``Const``, ``Var`` or ``Temp``."""


def _decode(interp: Interpreter, func: Function,
            codes: Dict[str, _Code]) -> _Code:
    """``func`` decoded, once per entry of ``codes`` (one per run)."""
    code = codes.get(func.name)
    if code is None:
        code = codes[func.name] = _Decoder(interp, func, codes).code()
    return code


class _Decoder:
    """Interns values to register slots and turns ops into closures.

    Decoding never raises for malformed code: an op it cannot decode
    becomes a closure that raises when executed, like ``_exec_op``.
    """

    def __init__(self, interp: Interpreter, func: Function,
                 codes: Dict[str, _Code]) -> None:
        self.interp = interp
        self.func = func
        self.codes = codes
        self.slots: Dict[Value, int] = {}
        self.init: list = []

    def code(self) -> _Code:
        func = self.func
        params = func.scalar_params()
        param_slots = [self.slot(Var(param.name, param.type))
                       for param in params]
        blocks = {name: self.block(block)
                  for name, block in func.blocks.items()}
        missing: Dict[str, _Block] = {}

        def resolve(name: str) -> _Block:
            if name in blocks:
                return blocks[name]
            if name not in missing:
                missing[name] = _missing_block(name)
            return missing[name]

        for name, block in func.blocks.items():
            decoded = blocks[name]
            term = block.terminator
            if isinstance(term, Return):
                decoded.kind = _RETURN
                if term.value is not None:
                    self.terminator_operand(decoded, term.value)
            elif isinstance(term, Jump):
                decoded.kind = _JUMP
                decoded.target = resolve(term.target)
            elif isinstance(term, Branch):
                decoded.kind = _BRANCH
                decoded.target = resolve(term.if_true)
                decoded.orelse = resolve(term.if_false)
                self.terminator_operand(decoded, term.cond)
            else:
                decoded.error = self.fell_off(name)
        return _Code(func.name, resolve(func.entry), self.init,
                     param_slots, [param.type for param in params])

    def fell_off(self, name: str) -> Callable[[], Exception]:
        """What leaving block ``name``, which has no terminator, raises."""
        return partial(InterpError,
                       f"{self.func.name}: fell off block {name}")

    def terminator_operand(self, block: _Block, value: Value) -> None:
        try:
            block.slot = self.read(value)
        except _Unbound as exc:
            block.kind = _FAIL
            block.error = partial(InterpError, str(exc))

    def block(self, block) -> _Block:
        ops = tuple(self.op(op) for op in block.ops)
        return _Block(block.name, ops,
                      tuple(int(isinstance(op, Load)) for op in block.ops),
                      tuple(int(isinstance(op, Store)) for op in block.ops))

    # -- values -----------------------------------------------------------

    def slot(self, value: Value) -> int:
        """The register of a ``Var``/``Temp`` (or any destination)."""
        slot = self.slots.get(value)
        if slot is None:
            slot = self.slots[value] = len(self.init)
            # An unset variable reads as zero of its type.
            self.init.append(0.0 if isinstance(value.ty, FloatType) else 0)
        return slot

    def read(self, value: Value) -> int:
        """The register an operand is read from; a ``Const`` gets its
        own, preset to its value."""
        if isinstance(value, Const):
            self.init.append(value.value)
            return len(self.init) - 1
        if isinstance(value, (Var, Temp)):
            return self.slot(value)
        raise _Unbound(f"unbound value {value}")

    # -- ops --------------------------------------------------------------

    def op(self, op) -> _Op:
        try:
            return self.decode_op(op)
        except _Unbound as exc:
            message = str(exc)

            def unbound(regs, memories):
                raise InterpError(message)
            return unbound

    def decode_op(self, op) -> _Op:
        coerce = self.interp._coerce_scalar
        if isinstance(op, BinOp):
            name, a, b = op.op, self.read(op.lhs), self.read(op.rhs)
            # Comparisons take their semantics from the operand type
            # (signedness); other ops from the destination type.
            ty = op.lhs.ty if op.is_comparison else op.dst.ty
            d = self.slot(op.dst)
            if name in _COMPARE:
                compare = _COMPARE[name]

                def comparison(regs, memories):
                    regs[d] = 1 if compare(regs[a], regs[b]) else 0
                return comparison
            if name in _WRAPPING and isinstance(ty, IntType):
                fn, wrap = _WRAPPING[name], ty.wrap

                def arith(regs, memories):
                    regs[d] = wrap(fn(int(regs[a]), int(regs[b])))
                return arith

            def binop(regs, memories):
                regs[d] = eval_binop(name, regs[a], regs[b], ty)
            return binop
        if isinstance(op, UnOp):
            name, a, ty, d = op.op, self.read(op.src), op.dst.ty, \
                self.slot(op.dst)

            def unop(regs, memories):
                regs[d] = eval_unop(name, regs[a], ty)
            return unop
        if isinstance(op, Assign):
            a, ty, d = self.read(op.src), op.dst.ty, self.slot(op.dst)

            def assign(regs, memories):
                regs[d] = coerce(regs[a], ty)
            return assign
        if isinstance(op, Cast):
            cast = self.interp._cast
            a, src_ty, ty, d = self.read(op.src), op.src.ty, op.dst.ty, \
                self.slot(op.dst)

            def convert(regs, memories):
                regs[d] = cast(regs[a], src_ty, ty)
            return convert
        if isinstance(op, Load):
            i, mem, d = self.read(op.index), op.mem.name, self.slot(op.dst)

            def load(regs, memories):
                regs[d] = memories[mem].load(int(regs[i]))
            return load
        if isinstance(op, Store):
            i, mem, a = self.read(op.index), op.mem.name, self.read(op.src)

            def store(regs, memories):
                memories[mem].store(int(regs[i]), regs[a])
            return store
        if isinstance(op, Select):
            c, t, f = (self.read(op.cond), self.read(op.if_true),
                       self.read(op.if_false))
            ty, d = op.dst.ty, self.slot(op.dst)

            def select(regs, memories):
                regs[d] = coerce(regs[t] if regs[c] else regs[f], ty)
            return select
        if isinstance(op, Call):
            return self.call(op)

        def unsupported(regs, memories):
            raise InterpError(f"cannot interpret {op}")
        return unsupported

    def call(self, op: Call) -> _Op:
        interp, codes = self.interp, self.codes
        coerce = interp._coerce_scalar
        name = op.callee
        args = [self.read(arg) for arg in op.args]
        d = None if op.dst is None else self.slot(op.dst)
        if name == "sqrtf":
            sqrtf = interp._sqrtf

            def intrinsic(regs, memories):
                value = sqrtf(regs[args[0]])
                if d is not None:
                    regs[d] = value
            return intrinsic
        mem_args = [mem.name for mem in op.mem_args]

        def invoke(regs, memories):
            callee = interp.module[name]
            code = _decode(interp, callee, codes)
            sub = code.frame([coerce(regs[arg], ty)
                              for arg, ty in zip(args, code.param_types)])
            sub_mems = interp._callee_memories(callee, mem_args, memories)
            value = interp._execute(code, sub, sub_mems)
            if d is not None:
                regs[d] = value
        return invoke


def run_function(module: Module, name: str, args: Sequence = (),
                 mem_args: Optional[Dict[str, Sequence]] = None):
    """One-shot convenience wrapper around :class:`Interpreter`."""
    interp = Interpreter(module)
    return interp.run(name, args, mem_args)
