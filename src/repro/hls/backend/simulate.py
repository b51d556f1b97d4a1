"""Cycle-accurate execution of scheduled designs (FSMD simulation).

This plays the role RTL simulation plays in the Bambu flow: the generated
design is executed state by state, producing both the functional results
(checked against the IR interpreter by the testbench) and the dynamic
cycle count used in the performance reports.

:class:`FsmdSimulator` is the reference: it steps through the IR
interpreter's ``_exec_op`` one op at a time and is the oracle for the
decoded engines.  The flow runs ``DbtFsmdSimulator``
(``repro.hls.backend.dbt``), which produces the same results and traces
from the interpreter's decoded form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..ir import Call, Function, Module
from ..ir.interp import Interpreter
from ..ir.operations import Branch, Jump, Load, Return, Store
from ..ir.values import Var
from .allocation import Allocation
from .scheduling import FunctionSchedule

# Cycles consumed by the start/done handshake of a sub-module call.
CALL_HANDSHAKE_CYCLES = 2


class SimulationError(Exception):
    pass


@dataclass
class SimulationTrace:
    """Execution trace of one FSMD run."""

    blocks: List[str] = field(default_factory=list)
    cycles: int = 0
    calls: Dict[str, int] = field(default_factory=dict)
    mem_reads: int = 0
    mem_writes: int = 0
    # (function, block) -> cumulative cycles spent there (profiling).
    block_cycles: Dict[tuple, int] = field(default_factory=dict)
    block_visits: Dict[tuple, int] = field(default_factory=dict)

    def hot_blocks(self, top: int = 5) -> List[tuple]:
        """The costliest (function, block, cycles, visits) entries."""
        ranked = sorted(self.block_cycles.items(), key=lambda kv: -kv[1])
        return [(func, block, cycles,
                 self.block_visits.get((func, block), 0))
                for (func, block), cycles in ranked[:top]]


class FsmdSimulator:
    """Executes scheduled functions with dynamic cycle accounting.

    Functional semantics are delegated to the same evaluation rules as the
    IR interpreter (they are identical by construction once the schedule
    is verified legal); what this adds is the FSM walk: per-block state
    counts, variable-latency call stalls and the final cycle total.
    """

    def __init__(self, module: Module,
                 schedules: Dict[str, FunctionSchedule],
                 allocations: Dict[str, Allocation],
                 max_cycles: int = 50_000_000) -> None:
        self.module = module
        self.schedules = schedules
        self.allocations = allocations
        self.max_cycles = max_cycles
        self._interp = Interpreter(module)

    def run(self, func_name: str, args: Sequence = (),
            mem_args: Optional[Dict[str, object]] = None):
        """Run ``func_name``; returns ``(result, trace, memories)``.

        Arguments bind as in :meth:`Interpreter.run`, which also raises
        the errors for a wrong argument count or a missing memory.
        """
        func = self.module[func_name]
        values, memories = self._interp._bind(func, args, mem_args)
        trace = SimulationTrace()
        result = self._invoke(func, values, memories, trace)
        return result, trace, memories

    def _invoke(self, func: Function, values: Sequence, memories, trace,
                base_cycles: int = 0):
        """Run one invocation of ``func`` on coerced scalar ``values``."""
        env = {Var(param.name, param.type): value
               for param, value in zip(func.scalar_params(), values)}
        return self._run_function(func, env, memories, trace, base_cycles)

    # -- internals -------------------------------------------------------

    def _run_function(self, func: Function, env, memories, trace,
                     base_cycles: int = 0):
        schedule = self.schedules[func.name]
        block = func.blocks[func.entry]
        visits = 0
        while True:
            block_sched = schedule.blocks[block.name]
            trace.blocks.append(block.name)
            trace.cycles += block_sched.length
            key = (func.name, block.name)
            trace.block_cycles[key] = trace.block_cycles.get(key, 0) \
                + block_sched.length
            trace.block_visits[key] = trace.block_visits.get(key, 0) + 1
            # ``base_cycles`` charges this walk against the *global*
            # budget (cycles already consumed by callers and earlier
            # calls), not a fresh per-call allowance; the visit counter
            # catches zero-length self-loops that never advance cycles.
            visits += 1
            if (base_cycles + trace.cycles > self.max_cycles
                    or visits > self.max_cycles):
                raise SimulationError(f"{func.name}: cycle limit exceeded")
            for op in block.ops:
                if isinstance(op, Call) and op.callee != "sqrtf":
                    self._run_call(func, op, env, memories, trace,
                                   base_cycles)
                else:
                    if isinstance(op, Load):
                        trace.mem_reads += 1
                    elif isinstance(op, Store):
                        trace.mem_writes += 1
                    self._interp._exec_op(func, op, env, memories)
            term = block.terminator
            if isinstance(term, Return):
                if term.value is None:
                    return None
                return self._interp._value(term.value, env)
            if isinstance(term, Jump):
                block = func.blocks[term.target]
            elif isinstance(term, Branch):
                cond = self._interp._value(term.cond, env)
                block = func.blocks[term.if_true if cond
                                    else term.if_false]
            else:  # pragma: no cover - verified IR always terminates
                raise SimulationError(f"bad terminator in {block.name}")

    def _run_call(self, caller: Function, op: Call, env, memories, trace,
                  base_cycles: int = 0):
        callee = self.module[op.callee]
        sub_env: Dict[object, object] = {}
        for param, arg in zip(callee.scalar_params(), op.args):
            sub_env[Var(param.name, param.type)] = \
                self._interp._coerce_scalar(self._interp._value(arg, env),
                                            param.type)
        sub_mems = self._interp._callee_memories(
            callee, [mem.name for mem in op.mem_args], memories)
        sub_trace = SimulationTrace()
        value = self._run_function(callee, sub_env, sub_mems, sub_trace,
                                   base_cycles + trace.cycles)
        # The caller's schedule already budgeted the estimated latency;
        # replace it with the measured callee cycles plus the handshake.
        allocation = self.allocations[caller.name]
        estimated = max(1, allocation.call_latency.get(op.callee, 1))
        actual = sub_trace.cycles + CALL_HANDSHAKE_CYCLES
        trace.cycles += max(0, actual - estimated)
        trace.calls[op.callee] = trace.calls.get(op.callee, 0) + 1
        trace.mem_reads += sub_trace.mem_reads
        trace.mem_writes += sub_trace.mem_writes
        for name, count in sub_trace.calls.items():
            trace.calls[name] = trace.calls.get(name, 0) + count
        for key, cycles in sub_trace.block_cycles.items():
            trace.block_cycles[key] = trace.block_cycles.get(key, 0) + cycles
        for key, visits in sub_trace.block_visits.items():
            trace.block_visits[key] = trace.block_visits.get(key, 0) + visits
        if op.dst is not None:
            env[op.dst] = value
