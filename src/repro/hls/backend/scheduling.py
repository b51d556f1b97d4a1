"""Operation scheduling under clock, dependence and resource constraints.

Implements the scheduling step of the Bambu backend (paper Fig. 2):

* **list scheduling** (default) — resource-constrained, with operator
  chaining: combinational operations share a cycle while the accumulated
  path delay fits the clock period;
* **ASAP / ALAP** — unconstrained schedules used for comparison and as
  priority functions (ALAP slack drives the list-scheduler priority).

Timing conventions:

* a combinational op scheduled at cycle ``s`` produces its value inside
  cycle ``s`` (consumers may chain in the same cycle, or read the
  registered copy from ``s+1`` onwards);
* a sequential op (latency ``L``) samples registered inputs at the start
  of ``s`` and its registered result is usable from cycle ``s+L``;
* the block executes states ``0 .. length-1``; the branch decision is
  taken in the last state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir import Function
from ..ir.operations import Load, Store
from .allocation import Allocation, OpTiming
from .dfg import RAW, WAR, BlockDFG, build_dfg


class SchedulingError(Exception):
    pass


@dataclass
class ScheduledOp:
    op: object
    start: int                # first cycle of execution
    cycles: int               # latency (result usable at start+cycles)
    ready_delay: float        # intra-cycle delay at which the result is ready
    chained: bool             # True when it consumed a same-cycle input

    @property
    def completion(self) -> int:
        return self.start + max(1, self.cycles)


@dataclass
class BlockSchedule:
    name: str
    ops: List[ScheduledOp] = field(default_factory=list)
    length: int = 1
    terminator_state: int = 0

    def ops_starting_at(self, cycle: int) -> List[ScheduledOp]:
        return [s for s in self.ops if s.start == cycle]


@dataclass
class FunctionSchedule:
    function: Function
    clock_ns: float
    algorithm: str
    blocks: Dict[str, BlockSchedule] = field(default_factory=dict)

    @property
    def total_states(self) -> int:
        return sum(b.length for b in self.blocks.values())

    def static_latency(self) -> Optional[int]:
        """Worst-case cycle count when the CFG is loop-free (else ``None``)."""
        func = self.function
        color: Dict[str, int] = {}

        def acyclic(name: str) -> bool:
            color[name] = 1
            for succ in func.blocks[name].successors():
                state = color.get(succ, 0)
                if state == 1:
                    return False
                if state == 0 and not acyclic(succ):
                    return False
            color[name] = 2
            return True

        if not acyclic(func.entry):
            return None
        memo: Dict[str, int] = {}

        def longest(name: str) -> int:
            if name in memo:
                return memo[name]
            succs = func.blocks[name].successors()
            tail = max((longest(s) for s in succs), default=0)
            memo[name] = self.blocks[name].length + tail
            return memo[name]

        return longest(func.entry)


class _ResourceTracker:
    """Tracks functional-unit and memory-port occupancy per cycle."""

    def __init__(self, allocation: Allocation) -> None:
        self.allocation = allocation
        self._fu: Dict[Tuple[str, int], int] = {}
        self._ports: Dict[Tuple[str, int], int] = {}

    def fits(self, op, cycle: int, timing: OpTiming) -> bool:
        cls = op.resource_class
        if cls in ("none", "wire"):
            fu_ok = True
        else:
            limit = self.allocation.units_for(cls)
            span = range(cycle, cycle + max(1, timing.interval))
            fu_ok = all(self._fu.get((cls, c), 0) < limit for c in span)
        if not fu_ok:
            return False
        if isinstance(op, (Load, Store)):
            ports = self.allocation.ports_for(op.mem.name)
            span = range(cycle, cycle + max(1, timing.interval))
            return all(self._ports.get((op.mem.name, c), 0) < ports
                       for c in span)
        return True

    def commit(self, op, cycle: int, timing: OpTiming) -> None:
        cls = op.resource_class
        if cls not in ("none", "wire"):
            for c in range(cycle, cycle + max(1, timing.interval)):
                self._fu[(cls, c)] = self._fu.get((cls, c), 0) + 1
        if isinstance(op, (Load, Store)):
            for c in range(cycle, cycle + max(1, timing.interval)):
                key = (op.mem.name, c)
                self._ports[key] = self._ports.get(key, 0) + 1


def _earliest_start(node: int, op, timing: OpTiming, dfg: BlockDFG,
                    scheduled: Dict[int, ScheduledOp],
                    clock_ns: float) -> Tuple[int, float, bool]:
    """Earliest start cycle honouring dependence edges and chaining.

    Returns ``(start, input_ready_delay, chained)`` where
    ``input_ready_delay`` is the worst intra-cycle arrival time among
    inputs produced in the start cycle (0 when all inputs are registered).
    """
    start = 0
    for edge in dfg.preds(node):
        producer = scheduled.get(edge.src)
        if producer is None:
            continue
        if edge.kind == RAW:
            if producer.cycles <= 1 and producer.ready_delay > 0:
                # Combinational producer: either chain in the same cycle
                # or read the registered value one cycle later.
                if timing.chainable:
                    start = max(start, producer.start)
                else:
                    start = max(start, producer.start + 1)
            else:
                start = max(start, producer.start + producer.cycles)
        elif edge.kind == WAR:
            start = max(start, producer.start)
        else:  # ORDER
            start = max(start, producer.start + max(1, producer.cycles))
    # Chaining legality: compute the arrival time of same-cycle inputs.
    while True:
        arrival = 0.0
        for edge in dfg.preds(node):
            producer = scheduled.get(edge.src)
            if producer is None or edge.kind != RAW:
                continue
            if producer.cycles <= 1 and producer.ready_delay > 0 \
                    and producer.start == start:
                arrival = max(arrival, producer.ready_delay)
        if not timing.chainable and arrival > 0:
            start += 1
            continue
        if timing.chainable and arrival + timing.delay_ns > clock_ns \
                and arrival > 0:
            # The chain would violate the clock: take the registered input.
            start += 1
            continue
        return start, arrival, arrival > 0


def schedule_block(block, allocation: Allocation, clock_ns: float,
                   resource_constrained: bool = True,
                   tracker: Optional[_ResourceTracker] = None
                   ) -> BlockSchedule:
    """List-schedule one block (block order is a valid topological order)."""
    dfg = build_dfg(block)
    tracker = tracker or _ResourceTracker(allocation)
    scheduled: Dict[int, ScheduledOp] = {}
    result = BlockSchedule(block.name)
    for node, op in enumerate(block.ops):
        timing = allocation.op_timing(op)
        start, arrival, chained = _earliest_start(
            node, op, timing, dfg, scheduled, clock_ns)
        if resource_constrained:
            guard = 0
            while not tracker.fits(op, start, timing):
                start += 1
                # Once a new cycle begins no inputs chain any more.
                arrival, chained = 0.0, False
                guard += 1
                if guard > 100_000:  # pragma: no cover - defensive
                    raise SchedulingError(
                        f"cannot place {op} in block {block.name}")
            tracker.commit(op, start, timing)
        ready_delay = 0.0
        if timing.cycles <= 1 and timing.chainable:
            ready_delay = (arrival if chained else 0.0) + timing.delay_ns
            if ready_delay > clock_ns:
                ready_delay = clock_ns  # clipped; Fmax limited by this op
        entry = ScheduledOp(op=op, start=start, cycles=timing.cycles,
                            ready_delay=ready_delay, chained=chained)
        scheduled[node] = entry
        result.ops.append(entry)
    # Terminator: the branch decision happens in the last state.
    term_state = 0
    if block.terminator is not None:
        node = len(block.ops)
        for edge in dfg.preds(node):
            producer = scheduled.get(edge.src)
            if producer is None:
                continue
            if edge.kind == RAW:
                if producer.cycles <= 1 and producer.ready_delay > 0:
                    term_state = max(term_state, producer.start)
                else:
                    term_state = max(term_state,
                                     producer.start + producer.cycles)
            else:
                term_state = max(term_state,
                                 producer.start + max(1, producer.cycles) - 1)
    length = term_state + 1
    for entry in result.ops:
        length = max(length, entry.completion)
    result.length = max(1, length)
    result.terminator_state = result.length - 1
    return result


def schedule_function(func: Function, allocation: Allocation,
                      algorithm: str = "list") -> FunctionSchedule:
    """Schedule every block of ``func``.

    Algorithms: ``list`` (resource constrained, default), ``asap``
    (dependence-only) — ALAP is available per block via
    :func:`alap_schedule` for slack analysis.
    """
    if algorithm not in ("list", "asap"):
        raise SchedulingError(f"unknown scheduling algorithm {algorithm!r}")
    clock = allocation.clock_ns
    schedule = FunctionSchedule(function=func, clock_ns=clock,
                                algorithm=algorithm)
    for block in func.ordered_blocks():
        schedule.blocks[block.name] = schedule_block(
            block, allocation, clock,
            resource_constrained=(algorithm == "list"))
    return schedule


def asap_schedule(block, allocation: Allocation) -> BlockSchedule:
    """Dependence-only schedule (infinite resources)."""
    return schedule_block(block, allocation, allocation.clock_ns,
                          resource_constrained=False)


def alap_schedule(block, allocation: Allocation) -> Dict[int, int]:
    """ALAP start cycles given the ASAP length (for slack/priority)."""
    asap = asap_schedule(block, allocation)
    length = asap.length
    dfg = build_dfg(block)
    latest: Dict[int, int] = {}
    for node in reversed(range(len(block.ops))):
        timing = allocation.op_timing(block.ops[node])
        bound = length - max(1, timing.cycles)
        for edge in dfg.succs(node):
            if edge.dst >= len(block.ops):
                continue
            succ_start = latest.get(edge.dst, bound)
            if edge.kind == RAW:
                bound = min(bound, succ_start - max(1, timing.cycles))
            elif edge.kind == WAR:
                bound = min(bound, succ_start)
            else:
                bound = min(bound, succ_start - max(1, timing.cycles))
        latest[node] = max(0, bound)
    return latest
