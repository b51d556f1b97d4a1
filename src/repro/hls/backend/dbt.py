"""Block-decoded FSMD simulation (DBT-lite for the HLS backend).

The reference :class:`~repro.hls.backend.simulate.FsmdSimulator` walks
the schedule one operation at a time, re-discovering each op's kind with
an ``isinstance`` chain and re-resolving each operand through
``Interpreter._value`` (a dataclass-keyed dict probe, which re-hashes
the value object) on every visit.  For loop-heavy kernels the same few
blocks are decoded thousands of times.

:class:`DbtFsmdSimulator` runs each function in the form the IR
interpreter's decoder (``repro.hls.ir.interp._Decoder``) produces, once
per simulator: every ``Var``/``Temp`` a slot of a list register file,
every op a closure over the interpreter's own semantics, every
terminator its target blocks.  It adds only what an FSMD adds:

* per-block schedule cycles and visits, and the list of blocks walked;
* memory counters, from each decoded block's ``reads``/``writes`` sums
  (exact, since a failed run's trace is discarded);
* sub-calls, the one op it decodes differently: the callee runs on its
  own decoded form, and its measured cycles plus the handshake replace
  the latency the caller's schedule estimated;
* the cycle-limit rules: the global budget plus the visit counter that
  catches zero-length self-loops.

Results and traces are identical to the reference's, which stays the
oracle for both decoded engines (this one and the IR interpreter).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Tuple

from ..ir import Call, Function, Module
from ..ir.interp import _BRANCH, _JUMP, _RETURN, _Code, _Decoder, _Op
from .allocation import Allocation
from .scheduling import FunctionSchedule
from .simulate import (
    CALL_HANDSHAKE_CYCLES,
    FsmdSimulator,
    SimulationError,
    SimulationTrace,
)

#: Block name -> (``(function, block)`` profile key, schedule length).
_Lengths = Dict[str, Tuple[tuple, int]]


class _FsmdDecoder(_Decoder):
    """The interpreter's decoder, with cycle-accounted sub-calls and the
    reference's error for a block without terminator."""

    def __init__(self, sim: DbtFsmdSimulator, func: Function) -> None:
        super().__init__(sim._interp, func, {})
        self.sim = sim

    def fell_off(self, name: str):
        return partial(SimulationError, f"bad terminator in {name}")

    def call(self, op: Call) -> _Op:
        """:meth:`FsmdSimulator._run_call`, decoded."""
        if op.callee == "sqrtf":
            return super().call(op)
        sim, caller, name = self.sim, self.func.name, op.callee
        coerce = self.interp._coerce_scalar
        memory_for = self.interp._memory_for
        args = [self.read(arg) for arg in op.args]
        mem_args = [mem.name for mem in op.mem_args]
        d = None if op.dst is None else self.slot(op.dst)

        def invoke(regs, memories):
            trace, base = sim._frame
            callee = sim.module[name]
            values = [coerce(regs[arg], param.type)
                      for arg, param in zip(args, callee.scalar_params())]
            sub_mems = {param.name: memories[mem]
                        for param, mem in zip(callee.memory_params(),
                                              mem_args)}
            for mem_name, mem in callee.mems.items():
                if not mem.is_param and mem_name not in sub_mems:
                    sub_mems[mem_name] = memory_for(mem)
            # The callee's calls and profile go straight into the
            # caller's maps, in the order the reference merges them.
            trace.calls[name] = trace.calls.get(name, 0) + 1
            sub = SimulationTrace(calls=trace.calls,
                                  block_cycles=trace.block_cycles,
                                  block_visits=trace.block_visits)
            value = sim._invoke(callee, values, sub_mems, sub,
                                base + trace.cycles)
            sim._frame = trace, base
            # The caller's schedule already budgeted the estimated
            # latency; replace it with the measured callee cycles plus
            # the handshake.
            estimated = max(1, sim.allocations[caller].call_latency.get(
                name, 1))
            trace.cycles += max(0, sub.cycles + CALL_HANDSHAKE_CYCLES
                                - estimated)
            trace.mem_reads += sub.mem_reads
            trace.mem_writes += sub.mem_writes
            if d is not None:
                regs[d] = value
        return invoke


class DbtFsmdSimulator(FsmdSimulator):
    """FSMD simulator executing decoded blocks.

    Produces the same ``(result, trace, memories)`` as
    :class:`FsmdSimulator` for every input — same block visit order,
    cycle totals, profiling maps, memory counters, call accounting and
    errors — while skipping the per-op ``isinstance`` dispatch and
    operand re-resolution.
    """

    def __init__(self, module: Module,
                 schedules: Dict[str, FunctionSchedule],
                 allocations: Dict[str, Allocation],
                 max_cycles: int = 50_000_000) -> None:
        super().__init__(module, schedules, allocations, max_cycles)
        self._decoded: Dict[str, Tuple[_Code, _Lengths]] = {}
        # (trace, base cycles) of the invocation running; read by the
        # decoded sub-calls.
        self._frame: Tuple[SimulationTrace, int] = (SimulationTrace(), 0)

    def _decode(self, func: Function) -> Tuple[_Code, _Lengths]:
        decoded = self._decoded.get(func.name)
        if decoded is None:
            lengths = {name: ((func.name, name), block.length)
                       for name, block
                       in self.schedules[func.name].blocks.items()}
            decoded = self._decoded[func.name] = \
                (_FsmdDecoder(self, func).code(), lengths)
        return decoded

    def _invoke(self, func: Function, values, memories, trace,
                base_cycles: int = 0):
        code, lengths = self._decode(func)
        regs = code.frame(values)
        self._frame = trace, base_cycles
        max_cycles = self.max_cycles
        blocks = trace.blocks
        block_cycles = trace.block_cycles
        block_visits = trace.block_visits
        block = code.entry
        visits = 0
        while True:
            # A block without a schedule (or an unknown target) raises
            # ``KeyError`` here, as in the reference.
            key, length = lengths[block.name]
            blocks.append(block.name)
            trace.cycles += length
            block_cycles[key] = block_cycles.get(key, 0) + length
            block_visits[key] = block_visits.get(key, 0) + 1
            # Same guard as the reference: global cycle budget (callers'
            # cycles included via ``base_cycles``) plus the visit counter
            # that catches zero-length self-loops.
            visits += 1
            if (base_cycles + trace.cycles > max_cycles
                    or visits > max_cycles):
                raise SimulationError(f"{func.name}: cycle limit exceeded")
            for fn in block.ops:
                fn(regs, memories)
            trace.mem_reads += block.reads
            trace.mem_writes += block.writes
            kind = block.kind
            if kind == _BRANCH:
                block = block.target if regs[block.slot] else block.orelse
            elif kind == _JUMP:
                block = block.target
            elif kind == _RETURN:
                return None if block.slot is None else regs[block.slot]
            else:
                raise block.error()
