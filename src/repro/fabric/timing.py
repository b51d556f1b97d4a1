"""Static timing analysis over the placed (and optionally routed) netlist.

Levelized arrival-time propagation from timing start points (primary
inputs and flip-flop outputs) to end points (flip-flop inputs and primary
outputs).  Cell delays come from the device model; interconnect delay is
the Manhattan distance between placed cells (or the actual routed path
length when routing results are supplied) times the per-tile wire delay.
This is the STA step NXmap runs after place and route (paper Fig. 3).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .device import Device
from .netlist import BRAM, CARRY, DFF, DSP, IOB, LUT4, Cell, Netlist
from .routing import RoutingResult

#: Bumped whenever the STA algorithm changes in a way that can alter
#: reports for identical inputs; salts the flow-cache stage key so stale
#: artifacts from older kernels are never served.
STA_KERNEL_VERSION = 2


class TimingError(Exception):
    pass


@dataclass
class TimingPathSegment:
    cell: str
    kind: str
    arrival_ns: float


@dataclass
class TimingReport:
    critical_path_ns: float
    fmax_mhz: float
    target_clock_ns: Optional[float]
    slack_ns: Optional[float]
    critical_path: List[TimingPathSegment] = field(default_factory=list)
    endpoint: Optional[str] = None

    @property
    def timing_met(self) -> bool:
        return self.slack_ns is None or self.slack_ns >= 0

    def render(self) -> str:
        """STA report text (the ``staReport`` artifact of the NXmap flow)."""
        lines = [f"Static timing report",
                 f"  critical path : {self.critical_path_ns:.3f} ns",
                 f"  Fmax          : {self.fmax_mhz:.1f} MHz"]
        if self.target_clock_ns is not None:
            status = "MET" if self.timing_met else "VIOLATED"
            lines.append(f"  target        : {self.target_clock_ns:.3f} ns "
                         f"(slack {self.slack_ns:+.3f} ns, {status})")
        if self.endpoint:
            lines.append(f"  endpoint      : {self.endpoint}")
        if self.critical_path:
            lines.append("  path:")
            for segment in self.critical_path[-12:]:
                lines.append(f"    {segment.arrival_ns:8.3f} ns  "
                             f"{segment.kind:<6} {segment.cell}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "critical_path_ns": self.critical_path_ns,
            "fmax_mhz": self.fmax_mhz,
            "target_clock_ns": self.target_clock_ns,
            "slack_ns": self.slack_ns,
            "critical_path": [
                {"cell": s.cell, "kind": s.kind, "arrival_ns": s.arrival_ns}
                for s in self.critical_path],
            "endpoint": self.endpoint,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TimingReport":
        return cls(
            critical_path_ns=payload["critical_path_ns"],
            fmax_mhz=payload["fmax_mhz"],
            target_clock_ns=payload["target_clock_ns"],
            slack_ns=payload["slack_ns"],
            critical_path=[
                TimingPathSegment(cell=s["cell"], kind=s["kind"],
                                  arrival_ns=s["arrival_ns"])
                for s in payload["critical_path"]],
            endpoint=payload["endpoint"],
        )


def _cell_delay(cell: Cell, device: Device) -> float:
    if cell.kind in (LUT4, CARRY, IOB):
        return device.lut_delay_ns
    if cell.kind == DSP:
        return device.dsp_delay_ns
    if cell.kind == BRAM:
        return device.bram_delay_ns
    if cell.kind == DFF:
        return 0.2  # clock-to-out
    raise TimingError(f"no delay model for {cell.kind}")


def _cell_tile(cell: Cell,
               locations: Optional[Dict[str, Tuple[int, int]]]
               ) -> Optional[Tuple[int, int]]:
    """A cell's placed tile from the explicit map; ``None`` (unplaced)
    without a map or when the map does not cover the cell.

    Placement never writes ``cell.location`` (mutating the input netlist
    poisons content-addressed stage reuse), so the annotation is never a
    source of tiles.  When a map is given but does not cover the cell, a
    stale annotation is an error: it means the netlist was placed by
    some *other* flow, and wire delays mixing the two placements belong
    to no placement at all.
    """
    if locations is None:
        return None
    tile = locations.get(cell.name)
    if tile is None and cell.location is not None:
        raise TimingError(
            f"cell {cell.name!r} is missing from the placement map "
            f"but carries a stale location annotation "
            f"{cell.location!r}; refusing to mix it with the map "
            f"(see the netlist.stale-placement lint rule)")
    return tile


def _net_route_lengths(routing: RoutingResult) -> Dict[str, int]:
    """Routed length of every net, computed once per analysis.

    ``RoutingResult.route_length`` walks the net's path list on every
    call; the old STA invoked it per *edge*, so a fanout-N net was
    rescanned N times.  One pass over ``routes`` here makes the per-edge
    lookup O(1).
    """
    return {net_name: sum(max(0, len(path) - 1) for path in paths)
            for net_name, paths in routing.routes.items()}


def _wire_delay(netlist: Netlist, driver: Cell, sink: Cell, device: Device,
                net_lengths: Optional[Dict[str, int]],
                locations: Optional[Dict[str, Tuple[int, int]]] = None
                ) -> float:
    driver_tile = _cell_tile(driver, locations)
    sink_tile = _cell_tile(sink, locations)
    if driver_tile is None or sink_tile is None:
        return device.wire_delay_per_tile_ns  # unplaced: nominal hop
    if net_lengths is not None and driver.output in net_lengths:
        length = net_lengths[driver.output]
        fanout = max(1, netlist.nets[driver.output].fanout)
        return device.wire_delay_per_tile_ns * max(1, length / fanout)
    dx = abs(driver_tile[0] - sink_tile[0])
    dy = abs(driver_tile[1] - sink_tile[1])
    return device.wire_delay_per_tile_ns * max(1, dx + dy)


@dataclass
class StaState:
    """The reusable intermediate state of one full timing analysis.

    ``arrivals``/``parents`` cover every combinational cell;
    ``endpoint_delays``/``endpoint_sources`` cover every timing end
    point, keyed ``cell:<name>`` (a sequential cell's data input) or
    ``out:<net>`` (a primary output).  The ECO flow caches this state so
    a later edit re-propagates only the fan-out cone of the changed
    cells and *merges* the recomputed slacks into it
    (:func:`analyze_timing_cone`).
    """

    arrivals: Dict[str, float] = field(default_factory=dict)
    parents: Dict[str, Optional[str]] = field(default_factory=dict)
    endpoint_delays: Dict[str, float] = field(default_factory=dict)
    endpoint_sources: Dict[str, Optional[str]] = \
        field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "arrivals": dict(sorted(self.arrivals.items())),
            "parents": dict(sorted(self.parents.items())),
            "endpoint_delays": dict(sorted(self.endpoint_delays.items())),
            "endpoint_sources": dict(
                sorted(self.endpoint_sources.items())),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "StaState":
        return cls(
            arrivals=dict(payload["arrivals"]),
            parents=dict(payload["parents"]),
            endpoint_delays=dict(payload["endpoint_delays"]),
            endpoint_sources=dict(payload["endpoint_sources"]),
        )


def _endpoint_keys(netlist: Netlist) -> List[str]:
    """Every endpoint key in the canonical scan order.

    The order (sequential cells in netlist order, then primary outputs)
    is the tie-breaking order of the critical-path selection, so full
    and cone-merged analyses pick identical endpoints on equal delays.
    """
    keys = [f"cell:{cell.name}" for cell in netlist.cells.values()
            if cell.is_sequential]
    keys.extend(f"out:{net_name}" for net_name in netlist.outputs)
    return keys


def _combinational_indegree(netlist: Netlist) -> Dict[str, int]:
    """Count of combinational drivers feeding each combinational cell
    (the Kahn pass's starting in-degrees)."""
    indegree: Dict[str, int] = {}
    for cell in netlist.cells.values():
        if cell.is_sequential:
            continue
        count = 0
        for net_name in cell.inputs:
            net = netlist.nets.get(net_name)
            if net and net.driver \
                    and not netlist.cells[net.driver].is_sequential:
                count += 1
        indegree[cell.name] = count
    return indegree


def _input_arrival(netlist: Netlist, device: Device,
                   net_lengths: Optional[Dict[str, int]],
                   locations: Optional[Dict[str, Tuple[int, int]]],
                   arrival: Dict[str, float], cell: Cell
                   ) -> Tuple[float, Optional[str]]:
    """(worst input arrival, its driver) of one combinational cell."""
    worst = 0.0
    source: Optional[str] = None
    for net_name in cell.inputs:
        net = netlist.nets.get(net_name)
        if not net or not net.driver:
            continue
        driver = netlist.cells[net.driver]
        wire = _wire_delay(netlist, driver, cell, device, net_lengths,
                           locations)
        if driver.is_sequential:
            candidate = _cell_delay(driver, device) + wire
        else:
            candidate = arrival.get(driver.name, 0.0) + wire
        if candidate > worst:
            worst = candidate
            source = driver.name
    return worst, source


def _propagate(netlist: Netlist, device: Device,
               net_lengths: Optional[Dict[str, int]],
               locations: Optional[Dict[str, Tuple[int, int]]]
               ) -> Tuple[Dict[str, float], Dict[str, Optional[str]]]:
    """Levelized arrival propagation over combinational cells."""
    indegree = _combinational_indegree(netlist)
    arrival: Dict[str, float] = {}
    parent: Dict[str, Optional[str]] = {}
    queue = deque(name for name, deg in indegree.items() if deg == 0)
    processed = 0
    while queue:
        name = queue.popleft()
        processed += 1
        cell = netlist.cells[name]
        base, source = _input_arrival(netlist, device, net_lengths,
                                      locations, arrival, cell)
        arrival[name] = base + _cell_delay(cell, device)
        parent[name] = source
        if cell.output:
            for sink_name in netlist.nets[cell.output].sinks:
                sink = netlist.cells[sink_name]
                if sink.is_sequential:
                    continue
                indegree[sink_name] -= 1
                if indegree[sink_name] == 0:
                    queue.append(sink_name)
    if processed < len(indegree):
        raise TimingError("combinational loop detected during STA")
    return arrival, parent


def _endpoint_delay(netlist: Netlist, device: Device,
                    net_lengths: Optional[Dict[str, int]],
                    locations: Optional[Dict[str, Tuple[int, int]]],
                    arrival: Dict[str, float], key: str
                    ) -> Optional[Tuple[float, str]]:
    """(delay, source cell) of one endpoint, or None if undriven."""
    kind, _, name = key.partition(":")
    if kind == "cell":
        cell = netlist.cells[name]
        worst: Optional[float] = None
        source: Optional[str] = None
        for net_name in cell.inputs:
            net = netlist.nets.get(net_name)
            if not net or not net.driver:
                continue
            driver = netlist.cells[net.driver]
            wire = _wire_delay(netlist, driver, cell, device, net_lengths,
                               locations)
            if driver.is_sequential:
                path = _cell_delay(driver, device) + wire
            else:
                path = arrival.get(driver.name, 0.0) + wire
            path += device.ff_setup_ns
            if worst is None or path > worst:
                worst = path
                source = net.driver
        if worst is None or source is None:
            return None
        return worst, source
    net = netlist.nets.get(name)
    if not net or not net.driver:
        return None
    driver = netlist.cells[net.driver]
    return arrival.get(driver.name, _cell_delay(driver, device)), net.driver


def _report_from_state(netlist: Netlist, device: Device,
                       target_clock_ns: Optional[float],
                       state: StaState) -> TimingReport:
    """Critical-path selection + report rendering from analysis state."""
    critical = 0.0
    endpoint = None
    end_source = None
    for key in _endpoint_keys(netlist):
        value = state.endpoint_delays.get(key)
        if value is None:
            continue
        if value > critical:
            critical = value
            endpoint = key.partition(":")[2]
            end_source = state.endpoint_sources.get(key)

    critical = max(critical, device.lut_delay_ns + device.ff_setup_ns)
    segments: List[TimingPathSegment] = []
    cursor = end_source
    while cursor is not None and cursor in netlist.cells \
            and len(segments) < 256:
        cell = netlist.cells[cursor]
        segments.append(TimingPathSegment(
            cell=cursor, kind=cell.kind,
            arrival_ns=state.arrivals.get(cursor, 0.0)))
        cursor = state.parents.get(cursor)
    segments.reverse()

    slack = None
    if target_clock_ns is not None:
        slack = target_clock_ns - critical
    return TimingReport(
        critical_path_ns=critical,
        fmax_mhz=1000.0 / critical,
        target_clock_ns=target_clock_ns,
        slack_ns=slack,
        critical_path=segments,
        endpoint=endpoint)


def analyze_timing_state(netlist: Netlist, device: Device,
                         target_clock_ns: Optional[float] = None,
                         routing: Optional[RoutingResult] = None,
                         locations: Optional[Dict[str, Tuple[int, int]]]
                         = None) -> Tuple[TimingReport, StaState]:
    """Full analysis returning the report *and* the reusable state."""
    net_lengths = (_net_route_lengths(routing)
                   if routing is not None else None)
    arrival, parent = _propagate(netlist, device, net_lengths, locations)
    delays: Dict[str, float] = {}
    sources: Dict[str, Optional[str]] = {}
    for key in _endpoint_keys(netlist):
        found = _endpoint_delay(netlist, device, net_lengths, locations,
                                arrival, key)
        if found is not None:
            delays[key] = found[0]
            sources[key] = found[1]
    state = StaState(arrivals=arrival, parents=parent,
                     endpoint_delays=delays, endpoint_sources=sources)
    return _report_from_state(netlist, device, target_clock_ns,
                              state), state


def analyze_timing(netlist: Netlist, device: Device,
                   target_clock_ns: Optional[float] = None,
                   routing: Optional[RoutingResult] = None,
                   locations: Optional[Dict[str, Tuple[int, int]]] = None
                   ) -> TimingReport:
    """Compute the critical register-to-register (or I/O) path.

    ``locations`` is the placement map (``PlacementResult.locations``);
    without it the analysis assumes nominal one-tile hops, matching the
    pre-placement estimate.  The netlist itself is treated as immutable.
    """
    report, _state = analyze_timing_state(
        netlist, device, target_clock_ns=target_clock_ns,
        routing=routing, locations=locations)
    return report


def analyze_timing_cone(netlist: Netlist, device: Device, base: StaState,
                        changed_cells: Iterable[str],
                        changed_nets: Iterable[str],
                        target_clock_ns: Optional[float] = None,
                        routing: Optional[RoutingResult] = None,
                        locations: Optional[Dict[str, Tuple[int, int]]]
                        = None) -> Tuple[TimingReport, StaState, int]:
    """Cone-limited re-analysis after an incremental edit.

    Worklist-driven: seeds with the changed cells and the sinks of the
    changed nets, recomputes each reached cell's arrival against the
    merged state, and follows fan-out only where the value *actually
    changed* — the cone is the damped ripple of the edit, not the full
    static forward closure (which on deep combinational designs is most
    of the netlist even for a one-cell edit).  Results merge into
    ``base`` — the cached state of the full analysis of the *pre-edit*
    design.  ``changed_nets`` must name every net whose routed length
    or fanout differs from the base analysis (the ECO flow passes its
    rip-up set); under that contract the merged report equals a full
    re-analysis of the edited design exactly.

    Returns ``(report, merged state, cone size)`` — cone size counts
    the cells whose arrival was recomputed.
    """
    net_lengths = (_net_route_lengths(routing)
                   if routing is not None else None)
    changed_cell_set = {name for name in changed_cells
                        if name in netlist.cells}
    changed_net_set = {name for name in changed_nets
                       if name in netlist.nets}

    # Start from the base state pruned to surviving cells.
    merged_arrivals: Dict[str, float] = {}
    merged_parents: Dict[str, Optional[str]] = {}
    for name, value in base.arrivals.items():
        if name in netlist.cells:
            merged_arrivals[name] = value
            merged_parents[name] = base.parents.get(name)

    # Topological levels of the combinational cells (one cheap Kahn
    # pass — no delay arithmetic).  Processing the worklist in level
    # order guarantees every predecessor's final value lands before a
    # cell is recomputed, so each reached cell is visited exactly once;
    # a plain FIFO fixpoint would revisit deep cells once per upstream
    # change.  The pass also detects combinational loops.
    level: Dict[str, int] = {}
    indegree = _combinational_indegree(netlist)
    kahn = deque(name for name, deg in indegree.items() if deg == 0)
    processed = 0
    while kahn:
        name = kahn.popleft()
        processed += 1
        output = netlist.cells[name].output
        if not output:
            continue
        depth = level.get(name, 0) + 1
        for sink in netlist.nets[output].sinks:
            sink_cell = netlist.cells.get(sink)
            if sink_cell is None or sink_cell.is_sequential:
                continue
            if depth > level.get(sink, 0):
                level[sink] = depth
            indegree[sink] -= 1
            if indegree[sink] == 0:
                kahn.append(sink)
    if processed < len(indegree):
        raise TimingError(
            "combinational loop detected during incremental STA")

    heap: List[Tuple[int, str]] = []
    queued: Set[str] = set()

    def enqueue(name: str) -> None:
        if name not in queued:
            queued.add(name)
            heapq.heappush(heap, (level.get(name, 0), name))

    for name in sorted(changed_cell_set):
        if not netlist.cells[name].is_sequential:
            enqueue(name)
    for net_name in sorted(changed_net_set):
        for sink in netlist.nets[net_name].sinks:
            sink_cell = netlist.cells.get(sink)
            if sink_cell is not None and not sink_cell.is_sequential:
                enqueue(sink)

    # Damped ripple: fan-out is followed only where the recomputed
    # value actually differs from the stored one, so the cone stops
    # where the edit's effect dies out.  Untouched cells keep base
    # values that are still correct (their inputs' values and net
    # lengths are unchanged under the changed-nets contract).
    cone: Set[str] = set()
    value_changed: Set[str] = set()
    while heap:
        _depth, name = heapq.heappop(heap)
        queued.discard(name)
        cell = netlist.cells[name]
        cone.add(name)
        arrival_in, source = _input_arrival(
            netlist, device, net_lengths, locations, merged_arrivals, cell)
        value = arrival_in + _cell_delay(cell, device)
        known = name in merged_arrivals
        old = merged_arrivals.get(name)
        merged_arrivals[name] = value
        merged_parents[name] = source
        if known and old == value:
            continue
        value_changed.add(name)
        if cell.output:
            for sink in netlist.nets[cell.output].sinks:
                sink_cell = netlist.cells.get(sink)
                if sink_cell is not None \
                        and not sink_cell.is_sequential:
                    enqueue(sink)

    # Endpoints to recompute: those fed by a changed net or by a cell
    # whose arrival changed (plus the changed cells themselves).
    affected_nets = set(changed_net_set)
    for name in value_changed:
        output = netlist.cells[name].output
        if output:
            affected_nets.add(output)
    valid_keys = _endpoint_keys(netlist)
    recompute: List[str] = []
    for key in valid_keys:
        kind, _, name = key.partition(":")
        if kind == "cell":
            cell = netlist.cells[name]
            if name in changed_cell_set or \
                    any(net in affected_nets for net in cell.inputs):
                recompute.append(key)
        elif name in affected_nets:
            recompute.append(key)

    recompute_set = set(recompute)
    valid_set = set(valid_keys)
    merged_delays: Dict[str, float] = {}
    merged_sources: Dict[str, Optional[str]] = {}
    for key, value in base.endpoint_delays.items():
        if key in valid_set and key not in recompute_set:
            merged_delays[key] = value
            merged_sources[key] = base.endpoint_sources.get(key)
    for key in recompute:
        found = _endpoint_delay(netlist, device, net_lengths, locations,
                                merged_arrivals, key)
        if found is not None:
            merged_delays[key] = found[0]
            merged_sources[key] = found[1]

    state = StaState(arrivals=merged_arrivals, parents=merged_parents,
                     endpoint_delays=merged_delays,
                     endpoint_sources=merged_sources)
    return _report_from_state(netlist, device, target_clock_ns,
                              state), state, len(cone)
