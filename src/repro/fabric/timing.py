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
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, \
    Optional, Set, Tuple

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


class _RouteLengths(dict):
    """Each net's ``RoutingResult.route_length`` (None for a net the
    routing has no paths for), computed on its first lookup: an analysis
    measures only the nets it reads."""

    __slots__ = ("routing",)

    def __init__(self, routing: RoutingResult) -> None:
        super().__init__()
        self.routing = routing

    def __missing__(self, net_name: str) -> Optional[int]:
        length = self[net_name] = (
            self.routing.route_length(net_name)
            if net_name in self.routing.routes else None)
        return length


def _wire_delay(netlist: Netlist, driver: Cell, sink: Cell, device: Device,
                net_lengths: Optional[_RouteLengths],
                locations: Optional[Dict[str, Tuple[int, int]]] = None
                ) -> float:
    driver_tile = _cell_tile(driver, locations)
    sink_tile = _cell_tile(sink, locations)
    if driver_tile is None or sink_tile is None:
        return device.wire_delay_per_tile_ns  # unplaced: nominal hop
    length = (net_lengths[driver.output]
              if net_lengths is not None else None)
    if length is not None:
        fanout = max(1, netlist.nets[driver.output].fanout)
        return device.wire_delay_per_tile_ns * max(1, length / fanout)
    dx = abs(driver_tile[0] - sink_tile[0])
    dy = abs(driver_tile[1] - sink_tile[1])
    return device.wire_delay_per_tile_ns * max(1, dx + dy)


@dataclass
class StaState:
    """The reusable intermediate state of one full timing analysis.

    ``arrivals``/``parents``/``levels`` cover every combinational cell;
    ``endpoint_delays``/``endpoint_sources`` cover every timing end
    point, keyed ``cell:<name>`` (a sequential cell's data input) or
    ``out:<net>`` (a primary output).  ``levels`` orders the
    combinational cells topologically: each cell's level is above its
    combinational drivers' (the full analysis stores the Kahn depth).
    The ECO flow caches this state so a later edit re-propagates only
    the fan-out cone of the changed cells, in level order, and *merges*
    the recomputed slacks into it (:func:`analyze_timing_cone`).
    """

    arrivals: Dict[str, float] = field(default_factory=dict)
    parents: Dict[str, Optional[str]] = field(default_factory=dict)
    endpoint_delays: Dict[str, float] = field(default_factory=dict)
    endpoint_sources: Dict[str, Optional[str]] = \
        field(default_factory=dict)
    levels: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "arrivals": dict(sorted(self.arrivals.items())),
            "parents": dict(sorted(self.parents.items())),
            "endpoint_delays": dict(sorted(self.endpoint_delays.items())),
            "endpoint_sources": dict(
                sorted(self.endpoint_sources.items())),
            "levels": dict(sorted(self.levels.items())),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "StaState":
        # A payload without levels (an older cache entry) raises
        # KeyError, which the flow cache reads as a miss.
        return cls(
            arrivals=dict(payload["arrivals"]),
            parents=dict(payload["parents"]),
            endpoint_delays=dict(payload["endpoint_delays"]),
            endpoint_sources=dict(payload["endpoint_sources"]),
            levels=dict(payload["levels"]),
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


def _input_arrivals(netlist: Netlist, device: Device,
                    net_lengths: Optional[_RouteLengths],
                    locations: Optional[Dict[str, Tuple[int, int]]],
                    arrival: Mapping[str, float], cell: Cell
                    ) -> Iterator[Tuple[float, str]]:
    """(arrival at ``cell``, driver) through each of its driven inputs,
    in input order: a sequential driver launches at its clock-to-out, a
    combinational one at its ``arrival``."""
    for net_name in cell.inputs:
        net = netlist.nets.get(net_name)
        if not net or not net.driver:
            continue
        driver = netlist.cells[net.driver]
        wire = _wire_delay(netlist, driver, cell, device, net_lengths,
                           locations)
        if driver.is_sequential:
            yield _cell_delay(driver, device) + wire, driver.name
        else:
            yield arrival.get(driver.name, 0.0) + wire, driver.name


def _input_arrival(netlist: Netlist, device: Device,
                   net_lengths: Optional[_RouteLengths],
                   locations: Optional[Dict[str, Tuple[int, int]]],
                   arrival: Mapping[str, float], cell: Cell
                   ) -> Tuple[float, Optional[str]]:
    """(worst input arrival, its driver) of one combinational cell:
    (0.0, None) unless an input arrives later, ties to the first."""
    worst = 0.0
    source: Optional[str] = None
    for candidate, driver in _input_arrivals(
            netlist, device, net_lengths, locations, arrival, cell):
        if candidate > worst:
            worst, source = candidate, driver
    return worst, source


def _propagate(netlist: Netlist, device: Device,
               net_lengths: Optional[_RouteLengths],
               locations: Optional[Dict[str, Tuple[int, int]]]
               ) -> Tuple[Dict[str, float], Dict[str, Optional[str]],
                          Dict[str, int]]:
    """Levelized arrival propagation over combinational cells (Kahn's
    algorithm); returns the arrivals, parents and Kahn depths."""
    indegree = _combinational_indegree(netlist)
    arrival: Dict[str, float] = {}
    parent: Dict[str, Optional[str]] = {}
    level = dict.fromkeys(indegree, 0)
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
            depth = level[name] + 1
            for sink_name in netlist.nets[cell.output].sinks:
                sink = netlist.cells[sink_name]
                if sink.is_sequential:
                    continue
                if depth > level[sink_name]:
                    level[sink_name] = depth
                indegree[sink_name] -= 1
                if indegree[sink_name] == 0:
                    queue.append(sink_name)
    if processed < len(indegree):
        raise TimingError("combinational loop detected during STA")
    return arrival, parent, level


def _endpoint_delay(netlist: Netlist, device: Device,
                    net_lengths: Optional[_RouteLengths],
                    locations: Optional[Dict[str, Tuple[int, int]]],
                    arrival: Dict[str, float], key: str
                    ) -> Optional[Tuple[float, str]]:
    """(delay, source cell) of one endpoint, or None if undriven."""
    kind, _, name = key.partition(":")
    if kind == "cell":
        # Setup is added to each input's arrival before the comparison;
        # ties go to the first input.
        setup = device.ff_setup_ns
        return max(((candidate + setup, driver)
                    for candidate, driver in _input_arrivals(
                        netlist, device, net_lengths, locations, arrival,
                        netlist.cells[name])),
                   key=itemgetter(0), default=None)
    net = netlist.nets.get(name)
    if not net or not net.driver:
        return None
    driver = netlist.cells[net.driver]
    return arrival.get(driver.name, _cell_delay(driver, device)), net.driver


def _path_report(netlist: Netlist, device: Device,
                 target_clock_ns: Optional[float], critical: float,
                 endpoint: Optional[str],
                 sources: Mapping[str, Optional[str]],
                 arrivals: Mapping[str, float],
                 parents: Mapping[str, Optional[str]]) -> TimingReport:
    """The report of a selected critical ``endpoint`` key (or None):
    its path traced back through ``parents``."""
    critical = max(critical, device.lut_delay_ns + device.ff_setup_ns)
    segments: List[TimingPathSegment] = []
    cursor = sources.get(endpoint) if endpoint is not None else None
    while cursor is not None and cursor in netlist.cells \
            and len(segments) < 256:
        cell = netlist.cells[cursor]
        segments.append(TimingPathSegment(
            cell=cursor, kind=cell.kind,
            arrival_ns=arrivals.get(cursor, 0.0)))
        cursor = parents.get(cursor)
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
        endpoint=(endpoint.partition(":")[2]
                  if endpoint is not None else None))


def analyze_timing_state(netlist: Netlist, device: Device,
                         target_clock_ns: Optional[float] = None,
                         routing: Optional[RoutingResult] = None,
                         locations: Optional[Dict[str, Tuple[int, int]]]
                         = None) -> Tuple[TimingReport, StaState]:
    """Full analysis returning the report *and* the reusable state.

    Each routed net's length is measured once, on the propagation's
    first read of it."""
    net_lengths = (_RouteLengths(routing)
                   if routing is not None else None)
    arrival, parent, levels = _propagate(netlist, device, net_lengths,
                                         locations)
    delays: Dict[str, float] = {}
    sources: Dict[str, Optional[str]] = {}
    for key in _endpoint_keys(netlist):
        found = _endpoint_delay(netlist, device, net_lengths, locations,
                                arrival, key)
        if found is not None:
            delays[key] = found[0]
            sources[key] = found[1]
    state = StaState(arrivals=arrival, parents=parent,
                     endpoint_delays=delays, endpoint_sources=sources,
                     levels=levels)
    # The critical endpoint: the largest delay, ties to the first in
    # the canonical order (``delays`` was filled in that order).
    critical = 0.0
    endpoint = None
    for key, value in delays.items():
        if value > critical:
            critical = value
            endpoint = key
    return _path_report(netlist, device, target_clock_ns, critical,
                        endpoint, sources, arrival, parent), state


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


class _Merged(dict):
    """The cone's own entries over a base map: a key the cone did not
    write reads through to ``base``.  The cone never reads a removed
    cell's entry, so the base need not be pruned."""

    __slots__ = ("base",)

    def __init__(self, base: Mapping) -> None:
        super().__init__()
        self.base = base

    def get(self, key, default=None):
        if dict.__contains__(self, key):
            return dict.__getitem__(self, key)
        return self.base.get(key, default)

    def __contains__(self, key: object) -> bool:
        return dict.__contains__(self, key) or key in self.base


class ConeBase:
    """What a cone-limited analysis needs of a whole base design,
    derived once per base (``EcoBase.of``) and only read by the edits:
    the canonical positions of the base cells (``order``, the map the
    warm start reads too) and outputs (the critical-path tie-break
    order) and the base endpoints ranked by delay, so an edit finds its
    critical endpoint by skipping the few ranked endpoints it recomputed
    or removed."""

    def __init__(self, netlist: Netlist, state: StaState,
                 order: Mapping[str, int]) -> None:
        self.order = order
        self.outputs: Dict[str, int] = {}
        for index, name in enumerate(netlist.outputs):
            self.outputs.setdefault(name, index)
        self.ranking = sorted(
            (-delay, self._rank(key), key)
            for key, delay in state.endpoint_delays.items() if delay > 0)

    def _rank(self, key: str) -> tuple:
        kind, _, name = key.partition(":")
        if kind == "cell":
            return (0, (0, self.order[name]))
        return (1, self.outputs[name])


def _edit_levels(netlist: Netlist, levels: Mapping[str, int]
                 ) -> Tuple[_Merged, int]:
    """Topological levels of an edited copy's combinational cells, and
    how many cells were looked at: the base ``levels``, raised where an
    edge through an edited net (every new edge is one) needs it, and
    then along the raised cells' fan-out.  A combinational loop raises
    levels without end; past the cell count it is reported."""
    cells, nets = netlist.cells, netlist.nets
    merged = _Merged(levels)
    work = [net.driver
            for net in map(nets.__getitem__, sorted(netlist.edited_nets))
            if net.driver is not None
            and not cells[net.driver].is_sequential]
    # An added cell the edit never raises sits at level 0.
    for name in netlist.added_cells:
        if name not in levels and not cells[name].is_sequential:
            merged[name] = 0
    limit = len(cells)
    visited = 0
    while work:
        name = work.pop()
        visited += 1
        output = cells[name].output
        if output is None:
            continue
        depth = merged.get(name, 0) + 1
        if depth > limit:
            raise TimingError(
                "combinational loop detected during incremental STA")
        for sink in nets[output].sinks:
            if not cells[sink].is_sequential \
                    and merged.get(sink, 0) < depth:
                merged[sink] = depth
                work.append(sink)
    return merged, visited


def analyze_timing_cone(netlist: Netlist, device: Device, base: StaState,
                        changed_cells: Iterable[str],
                        changed_nets: Iterable[str],
                        target_clock_ns: Optional[float] = None,
                        routing: Optional[RoutingResult] = None,
                        locations: Optional[Dict[str, Tuple[int, int]]]
                        = None, *, prepared: ConeBase,
                        tracer=None) -> Tuple[TimingReport, StaState, int]:
    """Cone-limited re-analysis of ``netlist``, an edited copy
    (``Netlist.copy``) of the design ``base`` describes.

    Worklist-driven: seeds with the changed cells and the sinks of the
    changed nets, recomputes each reached cell's arrival against the
    merged state, and follows fan-out only where the value *actually
    changed* — the cone is the damped ripple of the edit, not the full
    static forward closure (which on deep combinational designs is most
    of the netlist even for a one-cell edit).  Results merge into
    ``base`` — the cached state of the full analysis of the *pre-edit*
    design.  ``changed_nets`` must name every net whose routed length
    or fanout differs from the base analysis (the ECO flow passes its
    touched nets and its re-routed nets of another routed length); under
    that contract the merged report equals a full re-analysis.

    The analysis pays for the edit only: the levels are the base's,
    repaired over the edited nets' fan-out, the merged maps are
    read-through overlays on the base state, and the critical endpoint
    comes from ``prepared`` and the recomputed endpoints.  ``prepared``
    is taken as given: the :class:`ConeBase` of the copy's ``parent``
    and ``base``.  A netlist that is not a copy is a
    :class:`TimingError`.  ``tracer`` (optional) receives
    ``eco.sta.cells_visited``: the cells levelized and the ranked base
    endpoints read, the work outside the cone itself.

    Returns ``(report, merged state, cone size)`` — cone size counts
    the cells whose arrival was recomputed.  The merged state's maps
    are read-only views over ``base`` and the cone's entries, read
    lazily; its levels are topological, not necessarily the Kahn
    depths a full analysis stores.
    """
    parent = netlist.parent
    if parent is None:
        raise TimingError(f"cone STA: {netlist.name} is not an edited "
                          f"copy of the base design")
    cells, nets = netlist.cells, netlist.nets
    net_lengths = (_RouteLengths(routing)
                   if routing is not None else None)
    changed_cell_set = {name for name in changed_cells if name in cells}
    changed_net_set = {name for name in changed_nets if name in nets}
    level, visited = _edit_levels(netlist, base.levels)

    # Processing the worklist in level order guarantees every
    # predecessor's final value lands before a cell is recomputed, so
    # each reached cell is visited exactly once; a plain FIFO fixpoint
    # would revisit deep cells once per upstream change.
    arrivals = _Merged(base.arrivals)
    parents = _Merged(base.parents)
    heap: List[Tuple[int, str]] = []
    queued: Set[str] = set()

    def enqueue(name: str) -> None:
        if name not in queued:
            queued.add(name)
            heapq.heappush(heap, (level.get(name, 0), name))

    for name in sorted(changed_cell_set):
        if not cells[name].is_sequential:
            enqueue(name)
    for net_name in sorted(changed_net_set):
        for sink in nets[net_name].sinks:
            sink_cell = cells.get(sink)
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
        cell = cells[name]
        cone.add(name)
        arrival_in, source = _input_arrival(
            netlist, device, net_lengths, locations, arrivals, cell)
        value = arrival_in + _cell_delay(cell, device)
        known = name in arrivals
        old = arrivals.get(name)
        arrivals[name] = value
        parents[name] = source
        if known and old == value:
            continue
        value_changed.add(name)
        if cell.output:
            for sink in nets[cell.output].sinks:
                sink_cell = cells.get(sink)
                if sink_cell is not None \
                        and not sink_cell.is_sequential:
                    enqueue(sink)

    # Endpoints to recompute: those fed by a changed net or by a cell
    # whose arrival changed (plus the changed cells themselves).  A
    # copy only appends outputs, after its parent's.
    appended = netlist.outputs[len(parent.outputs):]
    outputs = prepared.outputs

    def output_index(name: str) -> Optional[int]:
        if name in outputs:
            return outputs[name]
        if name in appended:
            return len(parent.outputs) + appended.index(name)
        return None
    affected_nets = set(changed_net_set)
    for name in value_changed:
        output = cells[name].output
        if output:
            affected_nets.add(output)
    recompute = {f"cell:{name}" for name in changed_cell_set
                 if cells[name].is_sequential}
    for net_name in affected_nets:
        recompute.update(f"cell:{sink}" for sink in nets[net_name].sinks
                         if cells[sink].is_sequential)
        if output_index(net_name) is not None:
            recompute.add(f"out:{net_name}")
    delays: Dict[str, float] = {}
    sources: Dict[str, Optional[str]] = {}
    for key in sorted(recompute):
        found = _endpoint_delay(netlist, device, net_lengths, locations,
                                arrivals, key)
        if found is not None:
            delays[key], sources[key] = found
    # Base endpoints that no longer exist: only the copy's edited cells
    # can have lost theirs.
    dropped = recompute | {f"cell:{name}" for name in netlist.edited_cells
                           if name not in cells
                           or not cells[name].is_sequential}

    live = cells.__contains__

    def valid(key: str) -> bool:
        return key not in dropped

    state = StaState(
        arrivals=_View(arrivals, base.arrivals, live),
        parents=_View(parents, base.parents, live),
        endpoint_delays=_View(delays, base.endpoint_delays, valid),
        endpoint_sources=_View(sources, base.endpoint_sources, valid),
        levels=_View(level, base.levels, live))
    # The critical endpoint: the best recomputed one, or the first
    # still-valid base endpoint in delay order ranked ahead of it (ties
    # to the canonical order).  The canonical order puts sequential cells
    # in netlist order (the copy's added cells after), then outputs.
    position = netlist.position(prepared.order)

    def rank(key: str) -> tuple:
        kind, _, name = key.partition(":")
        if kind == "cell":
            return (0, position(name))
        return (1, output_index(name))

    best = None
    for key, delay in delays.items():
        if delay > 0:
            entry = (-delay, rank(key), key)
            if best is None or entry < best:
                best = entry
    for entry in prepared.ranking:
        if best is not None and entry > best:
            break
        visited += 1
        if entry[2] not in dropped:
            best = entry
            break
    critical, endpoint = (-best[0], best[2]) if best else (0.0, None)
    report = _path_report(
        netlist, device, target_clock_ns, critical, endpoint,
        sources if endpoint in sources else base.endpoint_sources,
        arrivals, parents)
    if tracer is not None:
        tracer.counter("eco.sta.cells_visited", "fabric").add(visited)
    return report, state, len(cone)


class _View(Mapping):
    """A read-only map of ``own``'s entries (a :class:`_Merged`) over the
    entries of ``base`` that ``keep`` accepts; made in O(1)."""

    def __init__(self, own: dict, base: Mapping,
                 keep: Callable[[str], bool]) -> None:
        self.own, self.base, self.keep = own, base, keep

    def __getitem__(self, key: str):
        if dict.__contains__(self.own, key):
            return dict.__getitem__(self.own, key)
        if key in self.base and self.keep(key):
            return self.base[key]
        raise KeyError(key)

    def __iter__(self):
        yield from dict.__iter__(self.own)
        for key in self.base:
            if not dict.__contains__(self.own, key) and self.keep(key):
                yield key

    def __len__(self) -> int:
        return sum(1 for _key in self)
