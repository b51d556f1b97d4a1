"""Per-block data-dependence graphs for scheduling."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..ir import BasicBlock, Call
from ..ir.operations import Load, Store
from ..ir.values import Temp, Value, Var

# Edge kinds.  RAW edges carry the produced value (for chaining decisions);
# ORDER edges only constrain sequence (memory and side-effect ordering) and
# WAR edges allow sharing a cycle (the old value is read before the
# register updates at the clock edge).
RAW = "raw"
WAR = "war"
ORDER = "order"


@dataclass
class DepEdge:
    src: int
    dst: int
    kind: str
    value: Value = None


@dataclass
class BlockDFG:
    """Dependence graph over the ops of one basic block.

    Node ``len(ops)`` represents the terminator (when present) so that the
    branch condition and side-effect ordering constraints reach it.
    """

    block: BasicBlock
    edges: List[DepEdge] = field(default_factory=list)

    def preds(self, node: int) -> List[DepEdge]:
        return [e for e in self.edges if e.dst == node]

    def succs(self, node: int) -> List[DepEdge]:
        return [e for e in self.edges if e.src == node]


def build_dfg(block: BasicBlock) -> BlockDFG:
    """Build RAW/WAR/ORDER edges for one block.

    Within-block rules:

    * value RAW: use of a value defined earlier in the block;
    * value WAR/WAW on ``Var`` storage (registers);
    * memory RAW/WAR/WAW per memory object (loads commute, stores do not);
    * calls are ordered with all memory operations and other calls.
    """
    dfg = BlockDFG(block)
    last_def: Dict[Value, int] = {}
    readers: Dict[Value, List[int]] = {}
    last_store: Dict[str, int] = {}
    loads_since_store: Dict[str, List[int]] = {}
    last_call = -1
    mem_nodes: List[int] = []

    ops = list(block.ops)
    terminator_node = len(ops) if block.terminator else None
    all_nodes = ops + ([block.terminator] if block.terminator else [])

    seen_edges: Set[Tuple[int, int, str]] = set()

    def add_edge(src: int, dst: int, kind: str, value: Value = None) -> None:
        if src == dst or src < 0:
            return
        key = (src, dst, kind)
        if key in seen_edges:
            return
        seen_edges.add(key)
        dfg.edges.append(DepEdge(src, dst, kind, value))

    for index, op in enumerate(all_nodes):
        # Value dependencies.
        for value in op.inputs():
            if isinstance(value, (Var, Temp)):
                if value in last_def:
                    add_edge(last_def[value], index, RAW, value)
                readers.setdefault(value, []).append(index)
        out = op.output()
        if out is not None:
            # WAR: every earlier reader of the old value must not start
            # after this write completes its cycle (sharing is allowed).
            for reader in readers.get(out, []):
                add_edge(reader, index, WAR, out)
            # WAW: a previous definition must come first.
            if out in last_def:
                add_edge(last_def[out], index, ORDER, out)
            last_def[out] = index
            readers[out] = []
        # Memory dependencies.
        if isinstance(op, Load):
            name = op.mem.name
            if name in last_store:
                add_edge(last_store[name], index, ORDER)
            loads_since_store.setdefault(name, []).append(index)
            if last_call >= 0:
                add_edge(last_call, index, ORDER)
            mem_nodes.append(index)
        elif isinstance(op, Store):
            name = op.mem.name
            if name in last_store:
                add_edge(last_store[name], index, ORDER)
            for load in loads_since_store.get(name, []):
                add_edge(load, index, WAR)
            loads_since_store[name] = []
            last_store[name] = index
            if last_call >= 0:
                add_edge(last_call, index, ORDER)
            mem_nodes.append(index)
        elif isinstance(op, Call):
            for node in mem_nodes:
                add_edge(node, index, ORDER)
            if last_call >= 0:
                add_edge(last_call, index, ORDER)
            last_call = index
            mem_nodes.append(index)
    # The terminator must come after all side effects complete.
    if terminator_node is not None:
        for index, op in enumerate(ops):
            if op.has_side_effects:
                add_edge(index, terminator_node, ORDER)
    return dfg
