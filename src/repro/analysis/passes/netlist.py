"""Netlist pass pack: structural lint of technology netlists.

Migrates (and extends) the checks that used to live in
``Netlist.validate``.  The combinational-loop rule is the headline fix:
the old recursive DFS bailed after the first loop and grew the
interpreter recursion limit; the rule below finds *every* loop — one
diagnostic per strongly connected component, with a full cycle path —
using an iterative Tarjan SCC computation that never recurses.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...fabric.netlist import LUT4, Netlist
from ..diagnostics import Severity
from ..registry import rule

# Above this fanout a net should be buffered/replicated by the tools.
FANOUT_BUDGET = 64

# Replica-name convention for netlist-level TMR domains: cells named
# ``<base>_tmr<N>`` are the N-th replica of domain ``base``.
_TMR_MARKER = "_tmr"


def _comb_graph(netlist: Netlist) -> Dict[str, List[str]]:
    """Adjacency over combinational cells (driver -> sinking comb cell)."""
    graph: Dict[str, List[str]] = {}
    for cell in netlist.combinational_cells():
        successors: List[str] = []
        if cell.output is not None:
            for sink_name in netlist.nets[cell.output].sinks:
                if not netlist.cells[sink_name].is_sequential:
                    successors.append(sink_name)
        graph[cell.name] = sorted(successors)
    return graph


def _tarjan_sccs(graph: Dict[str, List[str]]) -> List[List[str]]:
    """Iterative Tarjan: strongly connected components, deterministic."""
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index_of:
            continue
        # Each frame: (node, iterator position into successors).
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, pos = work[-1]
            if pos == 0:
                index_of[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            successors = graph[node]
            while pos < len(successors):
                succ = successors[pos]
                pos += 1
                if succ not in index_of:
                    work[-1] = (node, pos)
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack.get(succ):
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


def _cycle_path(graph: Dict[str, List[str]], component: List[str]
                ) -> List[str]:
    """One concrete cycle through an SCC, as a closed node path."""
    members = set(component)
    start = min(component)
    # Iterative DFS restricted to the SCC until we come back to start.
    path = [start]
    visited = {start}
    iterators = [[s for s in graph[start] if s in members]]
    while iterators:
        frontier = iterators[-1]
        if not frontier:
            iterators.pop()
            visited.discard(path.pop())
            continue
        succ = frontier.pop(0)
        if succ == start:
            return path + [start]
        if succ in visited:
            continue
        path.append(succ)
        visited.add(succ)
        iterators.append([s for s in graph[succ] if s in members])
    return [start, start]  # self-loop fallback


@rule("netlist.undriven-net", layer="netlist", severity=Severity.ERROR,
      fix_hint="drive the net or declare it a primary input")
def check_undriven_nets(netlist: Netlist, emit) -> None:
    """Nets with sinks but no driving cell and no primary-input role."""
    primary = set(netlist.inputs)
    for net in netlist.nets.values():
        if net.driver is None and net.name not in primary and net.sinks:
            emit(f"net:{net.name}",
                 f"net {net.name!r} has sinks but no driver")


@rule("netlist.dangling-output", layer="netlist", severity=Severity.ERROR,
      fix_hint="drive the output net or drop it from the port list")
def check_dangling_outputs(netlist: Netlist, emit) -> None:
    """Primary outputs whose net is never driven."""
    primary_in = set(netlist.inputs)
    for name in netlist.outputs:
        net = netlist.nets.get(name)
        if net is None or (net.driver is None and name not in primary_in):
            emit(f"net:{name}",
                 f"primary output {name!r} is not driven by any cell")


@rule("netlist.floating-net", layer="netlist", severity=Severity.INFO,
      fix_hint="remove the unused net")
def check_floating_nets(netlist: Netlist, emit) -> None:
    """Nets with neither driver nor sinks (dead wiring)."""
    io_nets = set(netlist.inputs) | set(netlist.outputs)
    for net in netlist.nets.values():
        if net.driver is None and not net.sinks and net.name not in io_nets:
            emit(f"net:{net.name}",
                 f"net {net.name!r} floats (no driver, no sinks)")


@rule("netlist.duplicate-lut-input", layer="netlist",
      severity=Severity.WARNING,
      fix_hint="fold the duplicate into the LUT truth table")
def check_duplicate_lut_inputs(netlist: Netlist, emit) -> None:
    """LUT cells listing the same input net more than once."""
    for cell in netlist.cells.values():
        if cell.kind != LUT4:
            continue
        seen = set()
        for net_name in cell.inputs:
            if net_name in seen:
                emit(f"cell:{cell.name}",
                     f"LUT {cell.name!r} lists input net {net_name!r} "
                     f"twice — wasted LUT input")
            seen.add(net_name)


@rule("netlist.fanout-budget", layer="netlist", severity=Severity.WARNING,
      fix_hint="replicate the driver or insert a buffer tree")
def check_fanout_budget(netlist: Netlist, emit) -> None:
    """Nets whose fanout exceeds the routing budget."""
    for net in netlist.nets.values():
        if net.fanout > FANOUT_BUDGET:
            emit(f"net:{net.name}",
                 f"net {net.name!r} fans out to {net.fanout} sinks "
                 f"(budget {FANOUT_BUDGET})")


@rule("netlist.comb-loop", layer="netlist", severity=Severity.ERROR,
      fix_hint="break the cycle with a register (DFF)")
def check_comb_loops(netlist: Netlist, emit) -> None:
    """All combinational loops, each with a concrete cycle path."""
    graph = _comb_graph(netlist)
    for component in _tarjan_sccs(graph):
        is_loop = len(component) > 1 or (
            component[0] in graph[component[0]])
        if not is_loop:
            continue
        path = _cycle_path(graph, sorted(component))
        emit(f"cell:{path[0]}",
             f"combinational loop through {path[0]!r}: "
             + " -> ".join(path))


@rule("netlist.stale-placement", layer="netlist",
      severity=Severity.WARNING,
      fix_hint="keep placement in PlacementResult.locations and pass it "
               "to downstream stages explicitly")
def check_stale_placement(netlist: Netlist, emit) -> None:
    """Cells carrying location annotations (stage-purity violation).

    Flow stages must treat the input netlist as immutable: a placer
    that writes tiles back onto cells creates a side channel later
    stages silently depend on, which both breaks stage re-ordering and
    poisons content-addressed stage reuse (a warm run restoring a
    cached ``PlacementResult`` would never re-create the annotations,
    so STA would see a different netlist than the cold run did).
    """
    annotated = [cell.name for cell in netlist.cells.values()
                 if cell.location is not None]
    if annotated:
        sample = ", ".join(sorted(annotated)[:4])
        emit(f"cell:{sorted(annotated)[0]}",
             f"{len(annotated)} cell(s) carry placement annotations "
             f"({sample}...) — placement state must flow through "
             f"PlacementResult.locations, not the netlist")


@rule("netlist.tmr-unvoted", layer="netlist", severity=Severity.WARNING,
      fix_hint="add a voter cell reading all three replica outputs")
def check_tmr_voters(netlist: Netlist, emit) -> None:
    """Triplicated domains (``<base>_tmr<N>`` cells) without a voter.

    A domain is voted when some cell outside the replicas sinks the
    outputs of at least three of them (the majority voter of the
    radiation-hardening flow).
    """
    domains: Dict[str, List[str]] = {}
    for cell_name in netlist.cells:
        marker = cell_name.rfind(_TMR_MARKER)
        if marker <= 0:
            continue
        suffix = cell_name[marker + len(_TMR_MARKER):]
        if suffix.isdigit():
            domains.setdefault(cell_name[:marker], []).append(cell_name)
    for base in sorted(domains):
        replicas = domains[base]
        if len(replicas) < 3:
            continue
        replica_nets = {netlist.cells[r].output for r in replicas
                        if netlist.cells[r].output is not None}
        voted = False
        for cell in netlist.cells.values():
            if cell.name in replicas:
                continue
            if len(replica_nets & set(cell.inputs)) >= 3:
                voted = True
                break
        if not voted:
            emit(f"domain:{base}",
                 f"TMR domain {base!r} has {len(replicas)} replicas but "
                 f"no voter consuming their outputs")


def edit_error_messages(netlist: Netlist, counter=None) -> List[str]:
    """:func:`error_messages` of an edited copy (``Netlist.copy``) whose
    parent has none, found from the edit alone.

    A finding the full check would make on a net or cell the copy did
    not write was already a finding on the parent, so only the written
    nets are checked for a missing driver and undriven outputs.  An
    acyclic parent means every combinational loop uses a new edge, an
    edge through a written net that the parent did not have; each loop
    lies inside the forward combinational cone of such an edge's sink,
    so Tarjan's SCCs are run over that cone only, with the full check's
    graph there.  The messages, cycle paths included, and their order
    are the full check's.  ``counter`` (optional, a tracer counter) is
    given the number of nets and cells checked.
    """
    parent = netlist.parent
    if parent is None:
        raise ValueError(f"{netlist.name} is not an edited copy")
    cells, nets = netlist.cells, netlist.nets
    findings: List[Tuple[str, str, str]] = []
    heads: List[str] = []
    for name in sorted(netlist.edited_nets):
        net = nets[name]
        if net.driver is None:
            if name in netlist.inputs:
                continue
            if net.sinks:
                findings.append(("netlist.undriven-net", f"net:{name}",
                                 f"net {name!r} has sinks but no driver"))
            findings.extend(
                [("netlist.dangling-output", f"net:{name}",
                  f"primary output {name!r} is not driven by any cell")]
                * netlist.outputs.count(name))
            continue
        driver = cells[net.driver]
        if driver.is_sequential:
            continue
        old = parent.nets.get(name)
        was = parent.cells.get(driver.name)
        if old is None or old.driver != driver.name or was is None \
                or was.kind != driver.kind:
            old_sinks = set()
        else:
            old_sinks = set(old.sinks)
        for sink in net.sinks:
            if cells[sink].is_sequential:
                continue
            before = parent.cells.get(sink)
            if sink not in old_sinks or before is None \
                    or before.is_sequential:
                heads.append(sink)
    # The full check's graph over the forward cone of the new edges.
    graph: Dict[str, List[str]] = {}
    stack = heads
    while stack:
        name = stack.pop()
        if name in graph:
            continue
        successors: List[str] = []
        output = cells[name].output
        if output is not None:
            successors = sorted(sink for sink in nets[output].sinks
                                if not cells[sink].is_sequential)
        graph[name] = successors
        stack.extend(successors)
    if counter is not None:
        counter.add(len(netlist.edited_nets) + len(graph))
    for component in _tarjan_sccs(graph):
        if len(component) > 1 or component[0] in graph[component[0]]:
            path = _cycle_path(graph, sorted(component))
            findings.append(("netlist.comb-loop", f"cell:{path[0]}",
                             f"combinational loop through {path[0]!r}: "
                             + " -> ".join(path)))
    return [message for _rule, _location, message in sorted(findings)]


def error_messages(netlist: Netlist) -> List[str]:
    """ERROR-level findings as plain strings (``Netlist.validate``)."""
    from ..analyzer import AnalysisTarget, Analyzer
    report = Analyzer(rules=["netlist.*"]).run(
        [AnalysisTarget("netlist", netlist.name, netlist)])
    return report.messages(Severity.ERROR)
