"""Interactive ECO flow: incremental edit-to-bitstream.

HERMES's qualification loop is iterate-heavy: designers make small
netlist or constraint edits and re-run the whole NXmap-style flow, and
on real rad-hard designs those place-and-route iterations dominate the
turnaround.  This module makes the edit a first-class object and the
re-implementation incremental:

* :class:`NetlistDelta` — a typed edit script (add/remove/resize cell,
  reconnect an input pin, retarget an output, constraint change) with a
  canonical JSON form and a content fingerprint.
  :meth:`NetlistDelta.apply` applies it to a copy-on-write *copy*
  (``Netlist.copy``), so the base netlist's content fingerprint stays
  stable, equal (base, delta) pairs yield structurally identical edited
  netlists, and the copy records the cells and nets it wrote.
* :class:`EcoFlow` — re-implements only what the edit touched.  Each
  stage has one path: it takes the edited copy and the state derived
  from its base, and refuses a netlist that is not a copy:

  - **warm-start placement** (:func:`eco_place`): the annealer starts
    from the cached base placement; only the changed cells and their
    net neighborhood are movable, annealed at low temperature inside a
    VPR-style range limit — every other cell is frozen bit-identical.
  - **delta routing** (``route(warm=...)``): only the route trees the
    edit made stale, plus whatever the overflow cascade rips, are torn
    up, on the base's persisted ``edge_usage`` congestion state.  Each
    stage names what it changed (``PlacementResult.moved``,
    ``RoutingResult.rerouted``) for the stages after it.
  - **cone-limited STA** (:func:`~repro.fabric.timing.analyze_timing_cone`):
    arrivals are re-propagated only over the fan-out cone of the moved
    and changed cells, the touched nets and the re-routed nets of
    another length, merged into the cached state: it equals a full STA.

An edit pays for the edit, not the design.  Once per base,
:meth:`EcoFlow.prepare_base` derives an :class:`EcoBase` (the base's
full STA state, cell order, site map, warm routes and endpoint ranking)
that edits only read.  Per edit, the flow touches the changed cells,
their nets and the overflowed edges: validation checks the written nets
and the forward cone of new combinational edges, the warm start indexes
the movable cells' nets, the route checks the nets the edit could have
made stale, the cone STA repairs the stored levels over the edited nets,
and the bitstream rebuilds the touched tiles.  What remains design-sized
are C-level copies of maps and, in the route, one C-level difference of
the two location maps and sums over the channel usage list.  The
from-scratch oracles (``total_hpwl``, ``analyze_timing_state`` and the
cold ``route``) check these results in the tests.

Every ECO stage result is content-addressed under a *delta-chained*
key: ``content_key(base stage key, canonical delta, options)``, made by
the same :meth:`NXmapProject.stage_key` as the cold stage keys.  The
same edit submitted twice — from the CLI, the API (job kind ``eco``) or
the PR-9 service — is therefore a warm cache hit with a byte-identical
report.

Telemetry counters: ``eco.cells.moved``, ``eco.nets.ripped``,
``eco.sta.cone_size``, and the work each stage does outside its kernel:
``eco.validate.visited``, ``eco.place.sites_scanned``,
``eco.route.nets_visited``, ``eco.sta.cells_visited`` and
``eco.bitstream.tiles`` (``tests/fabric/test_eco_work.py`` pins them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Mapping, NamedTuple, \
    Optional, Sequence, Set, Tuple, Union

from ..cache import content_key
from ..telemetry import Tracer
from .bitstream import Bitstream, update_bitstream
from .device import Device
from .netlist import CELL_KINDS, LUT4, Cell, Netlist, NetlistError
from .nxmap import FlowError, FlowReport, NXmapProject
from .placement import PlacementResult, Tile, _Grid, _SiteManager, \
    _anneal, _bbox, _connectivity, _net_span
from .routing import DEFAULT_CHANNEL_WIDTH, RoutingResult, WarmRoutes, \
    route
from .timing import ConeBase, StaState, TimingReport, \
    analyze_timing_cone, analyze_timing_state

#: Constraint names a delta may change.
_CONSTRAINT_NAMES = ("target_clock_ns",)

#: Warm-start neighborhood expansion stops at nets above this fanout:
#: unfreezing a high-fanout net's whole sink cloud would cascade into
#: the re-routed nets and the STA cone (see :func:`eco_place`).
_NEIGHBOR_FANOUT_CAP = 4

#: HPWL a move of a pre-existing cell must win before it is considered.
#: Every moved cell's nets are re-routed and their cones re-timed, so
#: churn moves (tiny HPWL wins) cost far more downstream than they
#: save; cells the delta *added* carry no penalty.
_DISTURB_PENALTY = 8.0


class DeltaError(NetlistError):
    """A malformed or inapplicable ECO delta."""


# -- the edit taxonomy ------------------------------------------------------


@dataclass(frozen=True)
class AddCell:
    """Add a new cell (its nets are created on demand).

    With ``primary_output`` the cell's output net is also registered as
    a primary output — the safe way to attach observation logic without
    creating combinational cycles.
    """

    name: str
    kind: str
    inputs: Tuple[str, ...] = ()
    output: Optional[str] = None
    init: int = 0
    primary_output: bool = False
    op = "add_cell"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "name": self.name, "kind": self.kind,
                "inputs": list(self.inputs), "output": self.output,
                "init": self.init, "primary_output": self.primary_output}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        if self.name in netlist.cells:
            raise DeltaError(f"add_cell: cell {self.name!r} exists")
        if self.kind not in CELL_KINDS:
            raise DeltaError(f"add_cell: unknown kind {self.kind!r}")
        netlist.add_cell(Cell(name=self.name, kind=self.kind,
                              inputs=list(self.inputs),
                              output=self.output, init=int(self.init)))
        if self.primary_output and self.output is not None \
                and self.output not in netlist.outputs:
            netlist.add_output(self.output)
        nets = set(self.inputs)
        if self.output is not None:
            nets.add(self.output)
        return {self.name}, nets


@dataclass(frozen=True)
class RemoveCell:
    """Remove a cell; its output net loses its driver.

    The caller is responsible for leaving the netlist legal (reconnect
    or remove the former sinks first) — ``EcoFlow`` re-validates the
    edited netlist before implementing it.
    """

    name: str
    op = "remove_cell"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "name": self.name}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        if self.name not in netlist.cells:
            raise DeltaError(f"remove_cell: unknown cell {self.name!r}")
        cell = netlist.remove_cell(self.name)
        nets = set(cell.inputs)
        if cell.output is not None:
            nets.add(cell.output)
        return {self.name}, nets


@dataclass(frozen=True)
class ResizeCell:
    """Change a cell's configuration word (LUT truth table, DSP mode).

    Config-only: connectivity and placement are untouched, so the ECO
    flow re-generates the bitstream but neither re-places nor re-routes.
    """

    name: str
    init: int
    op = "resize_cell"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "name": self.name, "init": self.init}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        if self.name not in netlist.cells:
            raise DeltaError(f"resize_cell: unknown cell {self.name!r}")
        netlist.writable_cell(self.name).init = int(self.init)
        return set(), set()


@dataclass(frozen=True)
class ReconnectInput:
    """Rewire one input pin of a cell onto a different net."""

    cell: str
    index: int
    net: str
    op = "reconnect_input"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "cell": self.cell, "index": self.index,
                "net": self.net}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        cell = netlist.cells.get(self.cell)
        if cell is None:
            raise DeltaError(
                f"reconnect_input: unknown cell {self.cell!r}")
        if not 0 <= self.index < len(cell.inputs):
            raise DeltaError(
                f"reconnect_input: {self.cell} has no input pin "
                f"{self.index}")
        old = cell.inputs[self.index]
        netlist.ensure_net(old).sinks.remove(self.cell)
        netlist.writable_cell(self.cell).inputs[self.index] = self.net
        netlist.ensure_net(self.net).sinks.append(self.cell)
        return {self.cell}, {old, self.net}


@dataclass(frozen=True)
class RetargetOutput:
    """Move a cell's output onto a different (undriven) net."""

    cell: str
    net: str
    op = "retarget_output"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "cell": self.cell, "net": self.net}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        cell = netlist.cells.get(self.cell)
        if cell is None:
            raise DeltaError(
                f"retarget_output: unknown cell {self.cell!r}")
        target = netlist.ensure_net(self.net)
        if target.driver is not None and target.driver != self.cell:
            raise DeltaError(
                f"retarget_output: net {self.net!r} already driven by "
                f"{target.driver}")
        nets = {self.net}
        if cell.output is not None:
            netlist.ensure_net(cell.output).driver = None
            nets.add(cell.output)
        netlist.writable_cell(self.cell).output = self.net
        target.driver = self.cell
        return {self.cell}, nets


@dataclass(frozen=True)
class SetConstraint:
    """Change a flow constraint (currently: ``target_clock_ns``)."""

    name: str
    value: float
    op = "set_constraint"

    def canonical(self) -> Dict[str, Any]:
        return {"op": self.op, "name": self.name, "value": self.value}

    def apply_to(self, netlist: Netlist) -> Tuple[Set[str], Set[str]]:
        if self.name not in _CONSTRAINT_NAMES:
            raise DeltaError(
                f"set_constraint: unknown constraint {self.name!r} "
                f"(known: {', '.join(_CONSTRAINT_NAMES)})")
        return set(), set()


DeltaOp = Union[AddCell, RemoveCell, ResizeCell, ReconnectInput,
                RetargetOutput, SetConstraint]

_OP_TYPES: Dict[str, type] = {
    cls.op: cls for cls in (AddCell, RemoveCell, ResizeCell,
                            ReconnectInput, RetargetOutput, SetConstraint)}


@dataclass(frozen=True)
class DeltaImpact:
    """What a delta touched, computed while applying it."""

    added: FrozenSet[str] = frozenset()
    removed: FrozenSet[str] = frozenset()
    reconnected: FrozenSet[str] = frozenset()
    resized: FrozenSet[str] = frozenset()
    touched_nets: FrozenSet[str] = frozenset()
    constraints: Mapping[str, float] = field(default_factory=dict)

    @property
    def changed_cells(self) -> FrozenSet[str]:
        """Cells whose connectivity or existence changed (placement-
        relevant — resizes are config-only)."""
        return self.added | self.removed | self.reconnected


@dataclass(frozen=True)
class NetlistDelta:
    """An ordered edit script over a technology netlist.

    Order is semantic (a reconnect may target a net an earlier op
    created), so the canonical form — and therefore the fingerprint and
    every delta-chained cache key — preserves it: reordered op lists
    are *different* deltas even when they commute.
    """

    ops: Tuple[DeltaOp, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))

    def canonical(self) -> List[Dict[str, Any]]:
        return [op.canonical() for op in self.ops]

    def fingerprint(self) -> str:
        return content_key("delta", {"ops": self.canonical()})

    def to_json(self) -> List[Dict[str, Any]]:
        return self.canonical()

    @classmethod
    def from_json(cls, payload: Sequence[Mapping[str, Any]]
                  ) -> "NetlistDelta":
        if isinstance(payload, Mapping):
            payload = payload.get("ops", [])
        ops: List[DeltaOp] = []
        for record in payload:
            record = dict(record)
            op_name = record.pop("op", None)
            op_type = _OP_TYPES.get(op_name)
            if op_type is None:
                raise DeltaError(f"unknown delta op {op_name!r}")
            if op_name == "add_cell":
                record["inputs"] = tuple(record.get("inputs", ()))
            try:
                ops.append(op_type(**record))
            except TypeError as error:
                raise DeltaError(f"malformed {op_name} op: {error}")
        return cls(ops=tuple(ops))

    def constraints(self) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for op in self.ops:
            if isinstance(op, SetConstraint):
                values[op.name] = float(op.value)
        return values

    def apply(self, netlist: Netlist) -> Tuple[Netlist, DeltaImpact]:
        """The edited netlist (a copy) plus the computed impact."""
        edited = netlist.copy(
            name=f"{netlist.name}+eco{self.fingerprint()[:8]}")
        added: Set[str] = set()
        removed: Set[str] = set()
        reconnected: Set[str] = set()
        resized: Set[str] = set()
        nets: Set[str] = set()
        for op in self.ops:
            cells, op_nets = op.apply_to(edited)
            nets.update(op_nets)
            if isinstance(op, AddCell):
                added.update(cells)
                removed.discard(op.name)
            elif isinstance(op, RemoveCell):
                removed.update(cells)
                added.discard(op.name)
                reconnected.discard(op.name)
            elif isinstance(op, ResizeCell):
                resized.add(op.name)
            else:
                reconnected.update(cells)
        impact = DeltaImpact(
            added=frozenset(added), removed=frozenset(removed),
            reconnected=frozenset(reconnected - added),
            resized=frozenset(resized - removed),
            touched_nets=frozenset(nets),
            constraints=self.constraints())
        return edited, impact


def random_delta(netlist: Netlist, fraction: float,
                 seed: int = 3) -> NetlistDelta:
    """A deterministic, loop-safe random edit of ``fraction`` of the
    cells — the scripted-edit generator the CLI, CI smoke job and the
    benchmark share.

    Loop safety by construction: reconnects only target nets driven by
    sequential cells or primary inputs (no combinational edge is ever
    added into existing logic), and added LUTs feed a fresh primary
    output (no outgoing combinational edges).
    """
    rng = random.Random(seed)
    cells = sorted(netlist.cells)
    if not cells:
        raise DeltaError("cannot edit an empty netlist")
    count = max(1, int(len(cells) * fraction))
    safe_nets = sorted(
        name for name, net in netlist.nets.items()
        if (net.driver is None and name in netlist.inputs)
        or (net.driver is not None
            and netlist.cells[net.driver].is_sequential))
    if not safe_nets:
        safe_nets = sorted(netlist.inputs)
    if not safe_nets:
        raise DeltaError("no loop-safe source nets to reconnect to")
    any_nets = sorted(name for name, net in netlist.nets.items()
                      if net.driver is not None
                      or name in netlist.inputs)
    ops: List[DeltaOp] = []
    for index in range(count):
        cell = netlist.cells[cells[rng.randrange(len(cells))]]
        roll = rng.random()
        if roll < 0.3 and cell.kind == LUT4:
            ops.append(ResizeCell(name=cell.name,
                                  init=rng.randrange(1 << 16)))
        elif roll < 0.8 and cell.inputs:
            pin = rng.randrange(len(cell.inputs))
            target = safe_nets[rng.randrange(len(safe_nets))]
            ops.append(ReconnectInput(cell=cell.name, index=pin,
                                      net=target))
        else:
            sources = tuple(any_nets[rng.randrange(len(any_nets))]
                            for _ in range(2))
            ops.append(AddCell(
                name=f"eco_s{seed}_c{index}", kind=LUT4,
                inputs=sources, output=f"eco_s{seed}_n{index}",
                init=rng.randrange(1 << 16), primary_output=True))
    return NetlistDelta(ops=tuple(ops))


# -- warm-start placement ---------------------------------------------------


#: Why a warm start refuses its base placement.
_INCOMPATIBLE = "eco warm start: {} (incompatible base placement)"


def _occupied_sites(netlist: Netlist, device: Device,
                    base: PlacementResult) -> _SiteManager:
    """The site manager on ``base``'s grid with every cell of ``netlist``
    that has a base tile placed there, in netlist order (the order fixes
    the free-lists' order).  A cell whose base tile has no room left for
    it is a :class:`FlowError`: only a base that does not fit its design
    can meet one."""
    sites = _SiteManager(_Grid(device, netlist, dims=base.grid))
    for name, cell in netlist.cells.items():
        tile = base.locations.get(name)
        if tile is None:
            continue
        cls = _SiteManager.site_class(cell.kind)
        if not sites.has_room(cls, tile):
            raise FlowError(_INCOMPATIBLE.format(
                f"base tile {tile} of {name!r} is over capacity"))
        sites.occupy(cls, tile)
    return sites


class WarmPlacement:
    """What a warm start needs of a whole base placement: derived once
    per base (:meth:`EcoBase.of`) and only read by the edits.

    It holds the base cell ``order`` (each base cell's index in the
    netlist, the map the cone STA ranks by too), the cells on each tile,
    the sites they occupy (free-list order included), the base HPWL, and
    how many nets cover fewer than two pins (``total_hpwl`` is a float
    when any does).  ``misfit`` (None when ``base`` fits) is why every
    warm start from ``base`` is refused: a base cell without a base
    tile, a placed cell the netlist lacks or an over-full tile."""

    def __init__(self, netlist: Netlist, device: Device,
                 base: PlacementResult, order: Mapping[str, int]) -> None:
        self.order = order
        # Base cells by tile, in netlist order.
        self.tiles: Dict[Tile, List[str]] = {}
        unplaced: List[str] = []
        for name in netlist.cells:
            tile = base.locations.get(name)
            if tile is None:
                unplaced.append(name)
            else:
                self.tiles.setdefault(tile, []).append(name)
        self.misfit: Optional[str] = None
        self.sites: Optional[_SiteManager] = None
        if unplaced:
            self.misfit = _INCOMPATIBLE.format(
                f"base cell {unplaced[0]!r} has no base tile")
        elif len(base.locations) != len(netlist.cells):
            self.misfit = _INCOMPATIBLE.format(
                "it places cells the base netlist lacks")
        else:
            try:
                self.sites = _occupied_sites(netlist, device, base)
            except FlowError as error:
                self.misfit = str(error)
        spans = [_net_span(netlist, base.locations.get, name)
                 for name in netlist.nets]
        self.degenerate = spans.count(None)
        self.hpwl = sum(span for span in spans if span is not None)


def _movable_cells(netlist: Netlist, base: PlacementResult,
                   changed_cells: Set[str]) -> Set[str]:
    """The cells a warm start may move: the changed cells, plus the
    low-fanout one-net neighborhood of the ones without a base tile.

    A fresh cell needs its neighbors to shuffle locally so it can
    legalize near them.  Neighbors of merely-reconnected cells stay
    frozen (fixed pins of the cost function): every moved cell's nets
    are re-routed and re-timed, so unfreezing a reconnect source's sink
    cloud would defeat incrementality."""
    cells = netlist.cells
    movable = {name for name in changed_cells if name in cells}
    hot_nets: Set[str] = set()
    for name in movable:
        if base.locations.get(name) is not None:
            continue                      # pre-existing cell: no spread
        cell = cells[name]
        hot_nets.update(cell.inputs)
        if cell.output is not None:
            hot_nets.add(cell.output)
    for net_name in hot_nets:
        net = netlist.nets.get(net_name)
        if net is None or net.fanout > _NEIGHBOR_FANOUT_CAP:
            continue
        if net.driver is not None and net.driver in cells:
            movable.add(net.driver)
        movable.update(sink for sink in net.sinks if sink in cells)
    return movable


def _nearest_free(sites: _SiteManager, cls: str,
                  point: Tuple[int, int]) -> Tuple[Tile, int]:
    """The free site of ``cls`` nearest ``point`` (Manhattan, ties to
    the smaller tile), found ring by ring outward, and the number of
    sites looked at."""
    free = sites.free[cls].pos
    if not free:
        raise FlowError("eco warm start: no free site for added cell")
    cols, rows = sites.grid.cols, sites.grid.rows
    cx, cy = point
    scanned = 0
    for distance in range(cols + rows):
        # Column by column, low row first: tile order within a ring.
        for x in range(max(0, cx - distance),
                       min(cols - 1, cx + distance) + 1):
            rest = distance - abs(x - cx)
            for y in ((cy - rest, cy + rest) if rest else (cy,)):
                if 0 <= y < rows:
                    scanned += 1
                    if (x, y) in free:
                        return (x, y), scanned
    raise FlowError("eco warm start: no free site for added cell")


def eco_place(netlist: Netlist, device: Device, base: PlacementResult,
              changed_cells: Set[str], seed: int = 1,
              effort: float = 1.0,
              tracer: Optional[Tracer] = None, *,
              warm: WarmPlacement) -> PlacementResult:
    """Warm-start annealing of ``netlist``, an edited copy
    (``Netlist.copy``) of the design ``base`` places.

    The movable set is the changed cells plus the low-fanout neighbors
    of the added ones (:func:`_movable_cells`; a cell re-added as
    another site class is placed as an added cell); everything else
    keeps its base tile *bit-identically*, and the result's ``moved``
    names the cells whose tile changed.  The anneal runs at a fraction
    of the cold starting temperature inside a reduced range limit, on
    the base placement's grid (so frozen tiles stay legal), with the
    cold placer's move loop (``placement._anneal``) and a disturbance
    penalty on the first move of a pre-existing cell.

    The warm start pays for the edit only: the sites, the cell order and
    the HPWL come from ``warm``, the :class:`WarmPlacement` of the
    copy's ``parent`` and ``base``, taken as given.  Only the movable
    cells, their nets and pins are indexed for the anneal.  An edit that
    removes a cell re-occupies the sites cell by cell (the free-lists'
    order, which the anneal samples, depends on it).  A netlist that is
    not a copy, or a ``base`` that does not fit the parent
    (``warm.misfit``), is a :class:`FlowError`.  The tracer counter
    ``eco.place.sites_scanned`` counts the sites looked at, for added
    cells and by such a re-occupation.
    """
    parent = netlist.parent
    if parent is None:
        raise FlowError(f"eco warm start: {netlist.name} is not an "
                        f"edited copy of the base design")
    if warm.misfit is not None:
        raise FlowError(warm.misfit)
    rng = random.Random(seed)
    cells, nets = netlist.cells, netlist.nets
    position = netlist.position(warm.order)
    parent_tile, kind = base.locations.get, _SiteManager.site_class
    reclassed = {name for name in parent.cells.keys() & netlist.added_cells
                 if kind(parent.cells[name].kind) != kind(cells[name].kind)}
    if reclassed:
        base = replace(base, locations={
            name: tile for name, tile in base.locations.items()
            if name not in reclassed})
    added = [name for name in netlist.added_cells
             if base.locations.get(name) is None]
    scanned = 0
    if any(position(name)[0] == 1 or name not in cells
           for name in netlist.edited_cells if name in warm.order):
        # A base cell was removed (or re-added): the free-lists' order
        # follows the edited cell order, so the sites are re-occupied.
        sites = _occupied_sites(netlist, device, base)
        scanned += len(cells)
    else:
        sites = warm.sites.copy()
    cols, rows = sites.grid.cols, sites.grid.rows
    if not cells:
        return PlacementResult({}, 0.0, 0.0, 0, (cols, rows), {}, frozenset())

    movable = _movable_cells(netlist, base, changed_cells)

    # Warm start: every surviving cell keeps its base tile; cells the
    # delta added go to the nearest free site of their class, seeded at
    # the centroid of their already-placed neighbors.
    tiles: Dict[str, Tile] = {}

    def tile_of(name: str) -> Optional[Tile]:
        tile = tiles.get(name)
        return tile if tile is not None else base.locations.get(name)

    for name in added:
        cell = cells[name]
        points: List[Tile] = []
        for net_name in cell.inputs + ([cell.output] if cell.output
                                       is not None else []):
            net = nets.get(net_name)
            if net is None:
                continue
            for pin in ([net.driver] if net.driver else []) + net.sinks:
                tile = tile_of(pin) if pin in cells else None
                if tile is not None:
                    points.append(tile)
        centroid = ((round(sum(p[0] for p in points) / len(points)),
                     round(sum(p[1] for p in points) / len(points)))
                    if points else (cols // 2, rows // 2))
        cls = _SiteManager.site_class(cell.kind)
        tile, looked = _nearest_free(sites, cls, centroid)
        scanned += looked
        sites.occupy(cls, tile)
        tiles[name] = tile

    total, degenerate = warm.hpwl, warm.degenerate
    for net_name in netlist.edited_nets:
        if net_name in parent.nets:
            span = _net_span(parent, parent_tile, net_name)
            if span is None:
                degenerate -= 1
            else:
                total -= span
        span = _net_span(netlist, tile_of, net_name)
        if span is None:
            degenerate += 1
        else:
            total += span
    # ``total_hpwl`` sums a float 0.0 for each such net.
    initial = float(total) if degenerate else total

    # Index only the movable cells, their nets and those nets' pins, in
    # netlist order for the movable ones (the anneal draws from that
    # list); nets without a movable pin cannot change span.
    members = sorted(movable, key=position)
    names = list(members)
    member_nets: Dict[str, None] = {}
    for name in members:
        cell = cells[name]
        member_nets.update(dict.fromkeys(cell.inputs))
        if cell.output is not None:
            member_nets[cell.output] = None
    net_pins, nets_of_cell = _connectivity(
        map(nets.__getitem__, member_nets), cells,
        {name: index for index, name in enumerate(members)}, names)
    xs = [tile_of(name)[0] for name in names]
    ys = [tile_of(name)[1] for name in names]
    classes = [_SiteManager.site_class(cells[name].kind) for name in names]
    movable_indices = list(range(len(members)))

    stats = {"moves": 0, "accepted": 0, "rescans": 0,
             "window_fallbacks": 0}
    final_hpwl = initial
    # A movable cell on any net anneals, even when each of its nets has
    # no other placed cell (such moves change no span).
    if any(cells[name].inputs or cells[name].output is not None
           for name in members):
        boxes = [_bbox(pins, xs, ys) for pins in net_pins]
        local_cost = sum(box[1] - box[0] + box[3] - box[2]
                         for box in boxes)
        moves = max(100, int(100 * effort * len(members)))
        span = max(cols, rows)
        # Low-temperature restart: a quarter of the local cost per
        # movable cell — enough hill-climbing to legalize the edit's
        # neighborhood, cold enough not to disturb converged structure.
        # A first move of a pre-existing cell rips its nets and
        # re-opens their STA cones downstream; charge for that.
        gain, stats = _anneal(
            rng, sites, xs, ys, classes, movable_indices, net_pins,
            nets_of_cell, boxes, moves=moves,
            temperature=max(0.5, local_cost / max(1, len(members))
                            * 0.25),
            radius=float(max(3, span // 4)), block=max(25, moves // 100),
            floor_span=span * 0.25,
            home={index: base.locations.get(names[index])
                  for index in movable_indices},
            penalty=_DISTURB_PENALTY)
        # Frozen nets cannot change, so the final HPWL is the warm-start
        # total shifted by the accepted local delta — exactly equal to a
        # full rescan (integer spans), without the O(nets) pass.
        final_hpwl = initial + gain

    locations = dict(base.locations)
    for name in netlist.edited_cells:
        if name not in cells:
            locations.pop(name, None)
    locations.update(tiles)
    for index, name in enumerate(members):
        locations[name] = (xs[index], ys[index])
    moved = frozenset(name for name in movable.union(added)
                      if base.locations.get(name) != locations[name])
    stats.update(annealed=len(members), frozen=len(cells) - len(members),
                 moved=len(moved), added=len(added))
    if tracer is not None:
        tracer.counter("place.moves.total", "fabric").add(stats["moves"])
        tracer.counter("place.moves.accepted", "fabric").add(
            stats["accepted"])
        tracer.counter("eco.place.sites_scanned", "fabric").add(scanned)
    return PlacementResult(locations=locations,
                           hpwl=final_hpwl,
                           initial_hpwl=initial,
                           iterations=stats["moves"],
                           grid=(cols, rows), stats=stats, moved=moved)


# -- the ECO report ---------------------------------------------------------


@dataclass
class EcoReport:
    """Result of one incremental edit-to-bitstream run.

    ``flow`` is a full :class:`~repro.fabric.nxmap.FlowReport` of the
    *edited* design; ``eco`` carries the incremental evidence (movable
    set size, ripped nets, STA cone size).  ``to_json`` is fully
    deterministic — no wall times — so identical edits produce
    byte-identical wire reports (the service warm-hit contract).
    """

    device: str
    base_netlist: str
    delta: List[Dict[str, Any]]
    delta_fingerprint: str
    base_hpwl: float
    flow: FlowReport
    eco: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "device": self.device,
            "base_netlist": self.base_netlist,
            "delta": self.delta,
            "delta_fingerprint": self.delta_fingerprint,
            "base_hpwl": self.base_hpwl,
            "flow": self.flow.to_json(),
            "eco": dict(sorted(self.eco.items())),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "EcoReport":
        return cls(
            device=payload["device"],
            base_netlist=payload["base_netlist"],
            delta=[dict(op) for op in payload["delta"]],
            delta_fingerprint=payload["delta_fingerprint"],
            base_hpwl=payload["base_hpwl"],
            flow=FlowReport.from_json(payload["flow"]),
            eco=dict(payload["eco"]),
        )

    def summary(self) -> str:
        eco = self.eco
        return (f"eco {self.delta_fingerprint[:8]}: "
                f"{len(self.delta)} op(s), "
                f"{eco.get('cells_moved', 0)} cell(s) moved, "
                f"{eco.get('nets_ripped', 0)} net(s) ripped, "
                f"STA cone {eco.get('sta_cone_size', 0)} — "
                f"{self.flow.summary()}")


# -- the flow ---------------------------------------------------------------


class _ConeTiming(NamedTuple):
    """The cached ``eco-sta`` value: the merged report plus the cone
    size, which rides along so a warm hit reports the same number the
    cold run measured (the byte-identical warm-report contract covers
    ``eco`` stats)."""

    report: TimingReport
    cone: int

    def to_json(self) -> Dict[str, Any]:
        return {"report": self.report.to_json(), "cone": self.cone}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "_ConeTiming":
        return cls(TimingReport.from_json(payload["report"]),
                   int(payload["cone"]))


class _Reported(NamedTuple):
    """The codec of a cached ``eco-place`` or ``eco-route`` value: the
    result's payload plus the names the stage reports changing, which
    that payload leaves out (``moved`` cells, ``rerouted`` nets), so a
    hit still feeds the stages downstream."""

    result: Any
    names: str

    def to_json(self, value: Any) -> Dict[str, Any]:
        return {"result": value.to_json(),
                self.names: sorted(getattr(value, self.names))}

    def from_json(self, payload: Mapping[str, Any]) -> Any:
        return replace(self.result.from_json(payload["result"]),
                       **{self.names: frozenset(payload[self.names])})


class EcoBase(NamedTuple):
    """What every edit of one base implementation needs of the whole
    design: derived once per base by :meth:`of`, carried on the base
    project next to its cached results, and only read by the edits.
    ``netlist`` and ``placed`` (with ``routing.result``) are the base it
    was derived from and ``state`` is that base's full STA state; the
    ECO stages take the derived ``placement``, ``routing`` and
    ``timing`` as given."""

    netlist: Netlist
    placed: PlacementResult
    state: StaState
    placement: WarmPlacement
    routing: WarmRoutes
    timing: ConeBase

    @classmethod
    def of(cls, project: NXmapProject) -> "EcoBase":
        """The derived state of ``project``'s placed and routed base: the
        one kept as ``project.eco_base`` while the project's netlist,
        placement and routing are the ones it was derived from (the one
        staleness rule), else derived anew and kept.  Deriving runs the
        full STA state through the stage cache (stage ``sta-state``,
        keyed under the base route key)."""
        kept = project.eco_base
        if kept is not None and kept.netlist is project.netlist \
                and kept.placed is project.placement \
                and kept.routing.result is project.routing:
            return kept
        netlist, placement = project.netlist, project.placement
        state = project.run_stage(
            "sta-state", project.stage_keys.get("route"), StaState,
            lambda: analyze_timing_state(
                netlist, project.device, routing=project.routing,
                locations=placement.locations)[1],
            span="eco.sta.base")
        # The one base cell order: the warm start, the bitstream's cell
        # sort and the cone's endpoint rank all read it.
        order = {name: index for index, name in enumerate(netlist.cells)}
        project.eco_base = cls(
            netlist, placement, state,
            WarmPlacement(netlist, project.device, placement, order),
            WarmRoutes(project.routing, placement.grid, netlist,
                       placement.locations),
            ConeBase(netlist, state, order))
        return project.eco_base


class EcoFlow:
    """Incremental re-implementation of one edit on a base project.

    The base :class:`NXmapProject` supplies the cached placement,
    routing and timing state (computed cold if its cache has been
    evicted — the delta-chained keys then rebuild below the new base
    keys, so the fallback is transparent).  ``run()`` builds a project
    for the edited design and runs the warm-start stages on it through
    :meth:`NXmapProject.run_stage`, so they are keyed, cached and traced
    as the cold stages are; it returns an :class:`EcoReport`.
    """

    def __init__(self, project: NXmapProject, delta: NetlistDelta) -> None:
        self.project = project
        self.delta = delta
        self.netlist: Optional[Netlist] = None
        self.impact: Optional[DeltaImpact] = None
        self.placement: Optional[PlacementResult] = None
        self.routing: Optional[RoutingResult] = None
        self.timing: Optional[TimingReport] = None
        self.bitstream: Optional[Bitstream] = None

    def prepare_base(self, effort: float = 1.0,
                     channel_width: int = DEFAULT_CHANNEL_WIDTH
                     ) -> EcoBase:
        """Ensure the base implementation this flow increments from and
        return its :class:`EcoBase` (:meth:`EcoBase.of`: derived once
        per base, however many flows edit it).

        Base placement, routing and bitstream warm from the cache when
        present and are recomputed cold when evicted; either way the
        stage keys are rebuilt, so the delta chain stays consistent (the
        edit's bitstream is rebuilt from the base one).  In the
        interactive scenario all of it is part of the implemented design,
        so callers may run this outside the timed edit loop.
        """
        project = self.project
        if project.placement is None:
            project.run_place(effort=effort)
        if project.routing is None:
            project.run_route(channel_width=channel_width)
        if project.bitstream is None:
            project.run_bitstream()
        return EcoBase.of(project)

    def run(self, target_clock_ns: float = 10.0, effort: float = 1.0,
            channel_width: int = DEFAULT_CHANNEL_WIDTH) -> EcoReport:
        base = self.project
        tracer = base.tracer

        with base.span("eco", ops=len(self.delta.ops)):
            prepared = self.prepare_base(effort=effort,
                                         channel_width=channel_width)
            base_place, base_bitstream = base.placement, base.bitstream

            # Apply the edit; the edited design's project re-validates it
            # and checks device capacity, then runs the ECO stages.
            edited, impact = self.delta.apply(base.netlist)
            self.netlist, self.impact = edited, impact
            try:
                project = NXmapProject.for_edit(base, edited)
            except FlowError as error:
                raise FlowError(f"edited netlist rejected: {error}")
            target = impact.constraints.get("target_clock_ns",
                                            target_clock_ns)
            changed = set(impact.changed_cells)
            delta = self.delta.canonical()

            # (a) Warm-start placement, chained off the base placement.
            placement = project.placement = project.run_stage(
                "place", base.stage_keys.get("place"),
                _Reported(PlacementResult, "moved"),
                lambda: eco_place(edited, base.device, base_place,
                                  changed, seed=base.seed,
                                  effort=effort, tracer=tracer,
                                  warm=prepared.placement),
                options={"effort": effort}, delta=delta, span="eco.place",
                attributes={"changed": len(changed)},
                describe=lambda result: {
                    "moved": result.stats.get("moved", 0),
                    "frozen": result.stats.get("frozen", 0)})
            self.placement, moved_cells = placement, placement.moved

            # (b) Delta routing: the route alone decides, and names,
            # the nets the edit changed.
            routing = project.routing = project.run_stage(
                "route", project.stage_keys.get("place"),
                _Reported(RoutingResult, "rerouted"),
                lambda: route(edited, placement.locations, placement.grid,
                              channel_width=channel_width, tracer=tracer,
                              warm=prepared.routing),
                options={"channel_width": channel_width}, delta=delta,
                span="eco.route", describe=lambda result: {
                    "wirelength": result.wirelength,
                    "failed": result.failed_connections,
                    "rerouted": len(result.rerouted)})
            self.routing = routing
            ripped_existing = sum(1 for name in routing.rerouted
                                  if name in base.routing.routes)

            # (c) Cone STA over the touched nets (fanouts) and the nets
            # re-routed to another wire delay, merged into the base state.
            def compute_sta() -> _ConeTiming:
                old = base.routing
                retimed = {name for name in routing.rerouted
                           if (name in routing.routes,
                               routing.route_length(name))
                           != (name in old.routes, old.route_length(name))}
                report, _state, size = analyze_timing_cone(
                    edited, base.device, prepared.state,
                    changed_cells=changed | moved_cells,
                    changed_nets=retimed | impact.touched_nets,
                    target_clock_ns=target,
                    routing=routing, locations=placement.locations,
                    prepared=prepared.timing, tracer=tracer)
                return _ConeTiming(report, size)

            timing, cone_size = project.run_stage(
                "sta", project.stage_keys.get("route"), _ConeTiming,
                compute_sta, options={"target_clock_ns": target},
                delta=delta, span="eco.sta",
                describe=lambda result: {
                    "cone": result.cone,
                    "critical_path_ns":
                        round(result.report.critical_path_ns, 6)})
            self.timing = project.timing = timing

            # Bitstream: only the tiles a cell left, entered or was
            # resized on are rebuilt from the base bitstream, keyed off
            # the edited project's (delta-chained) place key.
            dirty = changed | moved_cells | impact.resized
            tiles = {tile for name in dirty
                     for tile in (base_place.locations.get(name),
                                  placement.locations.get(name))
                     if tile is not None}
            def rebuild() -> Bitstream:
                # The cells now on those tiles: base cells that stayed,
                # and the changed or moved ones that arrived.
                final = placement.locations
                on_tiles = {name for tile in tiles
                            for name in prepared.placement.tiles.get(tile, ())
                            if final.get(name) == tile}
                on_tiles.update(name for name in dirty
                                if final.get(name) in tiles)
                order = prepared.placement.order
                cells = sorted(on_tiles, key=edited.position(order))
                if tracer is not None:
                    tracer.counter("eco.bitstream.tiles", "fabric").add(
                        len(tiles))
                return update_bitstream(base_bitstream, edited, final,
                                        tiles, cells)

            with project.span("eco.bitstream"):
                project.bitstream = project.run_stage(
                    "bitstream", project.stage_keys.get("place"),
                    Bitstream, rebuild,
                    describe=lambda bitstream: {
                        "total_bits": bitstream.total_bits,
                        "essential_bits": bitstream.essential_bits})
            self.bitstream = project.bitstream

            eco_stats = {
                "cells_added": len(impact.added),
                "cells_removed": len(impact.removed),
                "cells_reconnected": len(impact.reconnected),
                "cells_resized": len(impact.resized),
                "cells_changed": len(changed),
                "cells_annealed": placement.stats.get("annealed", 0),
                "cells_frozen": placement.stats.get("frozen", 0),
                "cells_moved": len(moved_cells),
                "nets_ripped": ripped_existing,
                "sta_cone_size": cone_size,
            }
            if tracer is not None:
                for name, value in (("cells.moved", len(moved_cells)),
                                    ("nets.ripped", ripped_existing),
                                    ("sta.cone_size", cone_size)):
                    tracer.counter(f"eco.{name}", "fabric").add(value)

            return EcoReport(
                device=base.device.name,
                base_netlist=base.fingerprint()["netlist"],
                delta=delta,
                delta_fingerprint=self.delta.fingerprint(),
                base_hpwl=base_place.hpwl,
                flow=project.report(target),
                eco=eco_stats)
