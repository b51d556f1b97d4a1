"""Loop-invariant code motion (LICM).

Pure operations whose inputs do not change across a loop's iterations are
hoisted into the block that enters the loop, so the datapath computes
them once instead of every iteration — a direct cycle win for the loop
kernels HLS cares about.

Scope and safety:

* natural loops found via dominator analysis (back edge ``latch → header``
  where the header dominates the latch);
* only pure, ``Temp``-defining operations are hoisted (no side effects,
  single assignment, and our arithmetic is total — division by zero is
  defined — so speculative execution when the loop runs zero times is
  semantically invisible);
* an input is invariant when it is a constant, a value defined outside
  the loop, or the result of an already-hoisted operation; ``Var`` inputs
  additionally require that no operation inside the loop writes them;
* the hoist target is the unique loop predecessor outside the loop (the
  pattern the front end emits for ``for``/``while``); loops with multiple
  entries are left untouched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir import Assign, BasicBlock, BinOp, Cast, Function, Module, Select, UnOp
from ..ir.values import Const, Temp, Value, Var

_PURE_OPS = (BinOp, UnOp, Cast, Select, Assign)


def _dominators(func: Function) -> Dict[str, Set[str]]:
    """Classic iterative dominator sets over reachable blocks."""
    blocks = func.reachable_blocks()
    preds = func.predecessors()
    all_blocks = set(blocks)
    dom: Dict[str, Set[str]] = {name: set(all_blocks) for name in blocks}
    dom[func.entry] = {func.entry}
    changed = True
    while changed:
        changed = False
        for name in blocks:
            if name == func.entry:
                continue
            incoming = [dom[p] for p in preds.get(name, [])
                        if p in dom]
            new_set = set.intersection(*incoming) | {name} if incoming \
                else {name}
            if new_set != dom[name]:
                dom[name] = new_set
                changed = True
    return dom


def _natural_loop(func: Function, header: str, latch: str) -> Set[str]:
    """Blocks of the natural loop for back edge latch→header."""
    loop = {header, latch}
    preds = func.predecessors()
    stack = [latch]
    while stack:
        name = stack.pop()
        if name == header:
            continue
        for pred in preds.get(name, []):
            if pred not in loop:
                loop.add(pred)
                stack.append(pred)
    return loop


def find_loops(func: Function) -> List[Tuple[str, Set[str]]]:
    """All (header, blocks) natural loops, innermost-ish first."""
    dom = _dominators(func)
    loops: Dict[str, Set[str]] = {}
    for block in func.ordered_blocks():
        if block.name not in dom:
            continue
        for succ in block.successors():
            if succ in dom.get(block.name, set()):
                # back edge block -> succ (succ dominates block)
                body = _natural_loop(func, succ, block.name)
                loops.setdefault(succ, set()).update(body)
    return sorted(loops.items(), key=lambda kv: len(kv[1]))


def _written_vars(func: Function, loop: Set[str]) -> Set[Value]:
    written: Set[Value] = set()
    for name in loop:
        for op in func.blocks[name].all_ops():
            out = op.output()
            if isinstance(out, Var):
                written.add(out)
    return written


def _defined_temps(func: Function, loop: Set[str]) -> Set[Value]:
    defined: Set[Value] = set()
    for name in loop:
        for op in func.blocks[name].all_ops():
            out = op.output()
            if isinstance(out, Temp):
                defined.add(out)
    return defined


# Assumed iteration weight for the hoist cost model: hoisting pays off
# when (preheader growth) < weight * (body shrinkage).  In spatial HLS a
# chained op is free inside the body, so hoisting is *not* always a win —
# the decision is made on actual schedule lengths.
_TRIP_WEIGHT = 8
_COST_CLOCK_NS = 10.0


def loop_invariant_code_motion(func: Function,
                               module: Optional[Module] = None) -> int:
    """Hoist invariant pure ops out of every eligible loop.

    Each loop's hoist is accepted only when the scheduled cost
    (preheader length + weight * body length) improves; otherwise the
    hoist is reverted — in hardware, ops chained for free inside the
    body must not be serialized into the loop entry.

    The cost uses the real list scheduler at a nominal clock, so the
    decision sees chaining and resource serialization exactly as the
    back end will.  A block's schedule depends only on its ops, its
    terminator and the allocation, and the allocation only on the
    function's memories and pragmas, which no hoist changes.  So one
    allocation serves the whole pass, and a loop is priced only when
    something was hoisted, on the blocks the hoist changed: a block it
    left alone adds the same length to the cost before and after.
    """
    from ..backend.allocation import allocate
    from ..backend.scheduling import schedule_block

    allocation = None

    def length(name: str, ops: List) -> int:
        view = BasicBlock(name)
        view.ops, view.terminator = ops, func.blocks[name].terminator
        return schedule_block(view, allocation, _COST_CLOCK_NS).length

    hoisted_total = 0
    preds = func.predecessors()
    for header, loop in find_loops(func):
        outside_preds = [p for p in preds.get(header, [])
                         if p not in loop]
        if len(outside_preds) != 1:
            continue  # multi-entry or unreachable preheader pattern
        preheader = func.blocks[outside_preds[0]]
        saved_ops = {name: list(func.blocks[name].ops) for name in loop}
        saved_ops[preheader.name] = list(preheader.ops)
        written_vars = _written_vars(func, loop)
        loop_temps = _defined_temps(func, loop)
        invariant: Set[Value] = set()

        def is_invariant_input(value: Value) -> bool:
            if isinstance(value, Const):
                return True
            if isinstance(value, Var):
                return value not in written_vars
            if isinstance(value, Temp):
                return value not in loop_temps or value in invariant
            return False

        hoisted_here = 0
        changed = True
        while changed:
            changed = False
            for name in sorted(loop):
                block = func.blocks[name]
                keep = []
                for op in block.ops:
                    out = op.output()
                    if (isinstance(op, _PURE_OPS)
                            and isinstance(out, Temp)
                            and out not in invariant
                            and all(is_invariant_input(v)
                                    for v in op.inputs())):
                        preheader.ops.append(op)
                        invariant.add(out)
                        loop_temps.discard(out)
                        hoisted_here += 1
                        changed = True
                    else:
                        keep.append(op)
                block.ops = keep
        if hoisted_here == 0:
            continue
        if allocation is None:
            allocation = allocate(func, clock_ns=_COST_CLOCK_NS)
        # Hoisting only moves ops out of the loop into the preheader, so
        # a block whose op count is unchanged is unchanged.
        touched = [name for name, ops in saved_ops.items()
                   if len(func.blocks[name].ops) != len(ops)]
        weight = {name: _TRIP_WEIGHT for name in loop}
        weight[preheader.name] = 1
        before = sum(weight[name] * length(name, saved_ops[name])
                     for name in touched)
        after = sum(weight[name] * length(name, func.blocks[name].ops)
                    for name in touched)
        if after < before:
            hoisted_total += hoisted_here
        else:
            # The hoist serialized chained work: revert this loop.
            for name, ops in saved_ops.items():
                func.blocks[name].ops = ops
    return hoisted_total
