"""Interactive ECO flow: incremental edit-to-bitstream.

HERMES's qualification loop is iterate-heavy: designers make small
netlist or constraint edits and re-run the whole NXmap-style flow, and
on real rad-hard designs those place-and-route iterations dominate the
turnaround.  This module makes the edit a first-class object and the
re-implementation incremental:

* :class:`NetlistDelta` — a typed edit script (add/remove/resize cell,
  reconnect an input pin, retarget an output, constraint change) with a
  canonical JSON form and a content fingerprint.
  ``Netlist.apply_delta`` applies it to a *copy*, so the base netlist's
  content fingerprint stays stable and equal (base, delta) pairs yield
  structurally identical edited netlists.
* :class:`EcoFlow` — re-implements only what the edit touched:

  - **warm-start placement** (:func:`eco_place`): the annealer starts
    from the cached base placement; only the changed cells and their
    net neighborhood are movable, annealed at low temperature inside a
    VPR-style range limit — every other cell is frozen bit-identical.
  - **delta routing**: only route trees whose nets touch changed cells
    (plus whatever the overflow cascade rips) are torn up; the router
    seeds its negotiation from the base result's persisted
    ``edge_usage`` congestion state (``route(warm=..., reroute_nets=...)``).
  - **cone-limited STA** (:func:`~repro.fabric.timing.analyze_timing_cone`):
    arrivals are re-propagated only over the fan-out cone of the
    changed cells and the re-routed nets, then merged into the cached
    full-timing state.

Every ECO stage result is content-addressed under a *delta-chained*
key: ``content_key(base stage key, canonical delta, options)``, made by
the same :meth:`NXmapProject.stage_key` as the cold stage keys.  The
same edit submitted twice — from the CLI, the API (job kind ``eco``) or
the PR-9 service — is therefore a warm cache hit with a byte-identical
report.

Telemetry counters: ``eco.cells.moved``, ``eco.nets.ripped``,
``eco.sta.cone_size``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Mapping, NamedTuple, \
    Optional, Sequence, Set, Tuple, Union

from ..cache import content_key
from ..telemetry import Tracer
from .bitstream import Bitstream, update_bitstream
from .device import Device
from .netlist import CELL_KINDS, LUT4, Cell, Netlist, NetlistError
from .nxmap import FlowError, FlowReport, NXmapProject
from .placement import PlacementResult, _Grid, _SiteManager, _anneal, \
    _bbox, _connectivity, total_hpwl
from .routing import DEFAULT_CHANNEL_WIDTH, RoutingResult, route
from .timing import StaState, TimingReport, analyze_timing_cone, \
    analyze_timing_state

#: Constraint names a delta may change.
_CONSTRAINT_NAMES = ("target_clock_ns",)

#: Warm-start neighborhood expansion stops at nets above this fanout:
#: unfreezing a high-fanout net's whole sink cloud would cascade into
#: the rip-up set and the STA cone (see :func:`eco_place`).
_NEIGHBOR_FANOUT_CAP = 4

#: HPWL a move of a pre-existing cell must win before it is considered.
#: Every moved cell forces its nets into the rip-up set and their cones
#: into the STA re-run, so churn moves (tiny HPWL wins) cost far more
#: downstream than they save; cells the delta *added* carry no penalty.
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
        cell = netlist.cells.pop(self.name, None)
        if cell is None:
            raise DeltaError(f"remove_cell: unknown cell {self.name!r}")
        nets: Set[str] = set()
        for net_name in cell.inputs:
            netlist.nets[net_name].sinks.remove(self.name)
            nets.add(net_name)
        if cell.output is not None:
            netlist.nets[cell.output].driver = None
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
        cell = netlist.cells.get(self.name)
        if cell is None:
            raise DeltaError(f"resize_cell: unknown cell {self.name!r}")
        cell.init = int(self.init)
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
        netlist.nets[old].sinks.remove(self.cell)
        cell.inputs[self.index] = self.net
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
            netlist.nets[cell.output].driver = None
            nets.add(cell.output)
        cell.output = self.net
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


def eco_place(netlist: Netlist, device: Device, base: PlacementResult,
              changed_cells: Set[str], seed: int = 1,
              effort: float = 1.0,
              tracer: Optional[Tracer] = None) -> PlacementResult:
    """Warm-start annealing from a cached base placement.

    The movable set is the changed cells plus every cell sharing a net
    with them (the range-limit neighborhood); everything else keeps its
    base tile *bit-identically*.  The anneal runs at a fraction of the
    cold starting temperature inside a reduced range limit, on the base
    placement's grid (so frozen tiles stay legal).  The move loop is
    the cold placer's (``placement._anneal``), with a disturbance
    penalty on the first move of a pre-existing cell.
    """
    rng = random.Random(seed)
    grid = _Grid(device, netlist, dims=base.grid)
    sites = _SiteManager(grid)
    cols, rows = grid.cols, grid.rows

    cell_names: List[str] = list(netlist.cells)
    cell_index = {name: index for index, name in enumerate(cell_names)}
    classes: List[str] = [_SiteManager.site_class(cell.kind)
                          for cell in netlist.cells.values()]
    ncells = len(cell_names)
    if ncells == 0:
        return PlacementResult({}, 0.0, 0.0, 0, (cols, rows))

    # The movable set: the changed cells, plus the low-fanout one-net
    # neighborhood of the *added* ones (a fresh cell needs its
    # neighbors to shuffle locally so it can legalize near them).
    # Neighbors of merely-reconnected cells stay frozen — they still
    # participate in the cost function as fixed pins.  Every cell the
    # anneal moves cascades into the rip-up set and the STA cone, so
    # unfreezing a reconnect source's whole sink cloud (often a
    # register feeding dozens of sinks) would defeat incrementality.
    movable: Set[str] = {name for name in changed_cells
                         if name in netlist.cells}
    hot_nets: Set[str] = set()
    for name in sorted(movable):
        cell = netlist.cells[name]
        if base.locations.get(name) is not None:
            continue                      # pre-existing cell: no spread
        hot_nets.update(cell.inputs)
        if cell.output is not None:
            hot_nets.add(cell.output)
    for net_name in sorted(hot_nets):
        net = netlist.nets.get(net_name)
        if net is None or net.fanout > _NEIGHBOR_FANOUT_CAP:
            continue
        if net.driver is not None and net.driver in netlist.cells:
            movable.add(net.driver)
        movable.update(sink for sink in net.sinks
                       if sink in netlist.cells)

    # Warm start: every surviving cell keeps its base tile; cells the
    # delta added go to the nearest free site of their class, seeded at
    # the centroid of their already-placed neighbors.
    xs: List[int] = [0] * ncells
    ys: List[int] = [0] * ncells
    placed: Set[int] = set()
    added: List[int] = []
    for index, name in enumerate(cell_names):
        tile = base.locations.get(name)
        if tile is None:
            added.append(index)
            continue
        cls = classes[index]
        if not sites.has_room(cls, tile):
            raise FlowError(
                f"eco warm start: base tile {tile} of {name!r} is over "
                f"capacity (incompatible base placement)")
        sites.occupy(cls, tile)
        xs[index], ys[index] = tile
        placed.add(index)

    def neighbor_centroid(index: int) -> Tuple[int, int]:
        cell = netlist.cells[cell_names[index]]
        points: List[Tuple[int, int]] = []
        net_names = list(cell.inputs)
        if cell.output is not None:
            net_names.append(cell.output)
        for net_name in net_names:
            net = netlist.nets.get(net_name)
            if net is None:
                continue
            for pin in ([net.driver] if net.driver else []) + net.sinks:
                other = cell_index.get(pin)
                if other is not None and other in placed:
                    points.append((xs[other], ys[other]))
        if not points:
            return cols // 2, rows // 2
        return (round(sum(p[0] for p in points) / len(points)),
                round(sum(p[1] for p in points) / len(points)))

    for index in added:
        cls = classes[index]
        cx, cy = neighbor_centroid(index)
        candidates = sites.free[cls].items
        if not candidates:
            raise FlowError("eco warm start: no free site for added cell")
        tile = min(candidates,
                   key=lambda t: (abs(t[0] - cx) + abs(t[1] - cy), t))
        sites.occupy(cls, tile)
        xs[index], ys[index] = tile
        placed.add(index)

    warm_locations = {cell_names[i]: (xs[i], ys[i])
                      for i in range(ncells)}
    initial = total_hpwl(netlist, warm_locations)

    movable_indices = [cell_index[name] for name in cell_names
                       if name in movable]
    frozen = ncells - len(movable_indices)

    # Anneal only the nets with at least one movable pin.
    net_pins, nets_of_cell = _connectivity(netlist, cell_index,
                                           set(movable_indices))
    stats = {"moves": 0, "accepted": 0, "rescans": 0,
             "window_fallbacks": 0}
    final_hpwl = initial
    # A movable cell on any net anneals, even when each of its nets has
    # no other placed cell (such moves change no span).
    if any(netlist.cells[cell_names[index]].inputs
           or netlist.cells[cell_names[index]].output is not None
           for index in movable_indices):
        boxes = [_bbox(pins, xs, ys) for pins in net_pins]
        local_cost = sum(box[1] - box[0] + box[3] - box[2]
                         for box in boxes)
        moves = max(100, int(100 * effort * len(movable_indices)))
        span = max(cols, rows)
        # Low-temperature restart: a quarter of the local cost per
        # movable cell — enough hill-climbing to legalize the edit's
        # neighborhood, cold enough not to disturb converged structure.
        # A first move of a pre-existing cell rips its nets and
        # re-opens their STA cones downstream; charge for that.
        gain, stats = _anneal(
            rng, sites, xs, ys, classes, movable_indices, net_pins,
            nets_of_cell, boxes, moves=moves,
            temperature=max(0.5, local_cost / max(1, len(movable_indices))
                            * 0.25),
            radius=float(max(3, span // 4)), block=max(25, moves // 100),
            floor_span=span * 0.25,
            home={index: base.locations.get(cell_names[index])
                  for index in movable_indices},
            penalty=_DISTURB_PENALTY)
        # Frozen nets cannot change, so the final HPWL is the warm-start
        # total shifted by the accepted local delta — exactly equal to a
        # full rescan (integer spans), without the O(nets) pass.
        final_hpwl = initial + gain

    locations = {cell_names[i]: (xs[i], ys[i]) for i in range(ncells)}
    moved = sum(1 for name, tile in locations.items()
                if base.locations.get(name) != tile)
    stats.update(annealed=len(movable_indices), frozen=frozen, moved=moved,
                 added=len(added))
    if tracer is not None:
        tracer.counter("place.moves.total", "fabric").add(stats["moves"])
        tracer.counter("place.moves.accepted", "fabric").add(
            stats["accepted"])
    return PlacementResult(locations=locations,
                           hpwl=final_hpwl,
                           initial_hpwl=initial,
                           iterations=stats["moves"],
                           grid=(cols, rows), stats=stats)


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
        self._base_state: Optional[StaState] = None

    def prepare_base(self, effort: float = 1.0,
                     channel_width: int = DEFAULT_CHANNEL_WIDTH
                     ) -> StaState:
        """Ensure the base implementation this flow increments from.

        Base placement, routing and bitstream warm from the cache when
        present and are recomputed cold when evicted — either way the
        stage keys are rebuilt, so the delta chain stays consistent.
        The edit's bitstream is rebuilt from the base one.  The full-STA
        propagation state is cached under the base route key (stage
        ``sta-state``): in the interactive scenario it is part of the
        implemented design, so callers may run this outside the timed
        edit loop.
        """
        project = self.project
        if project.placement is None:
            project.run_place(effort=effort)
        if project.routing is None:
            project.run_route(channel_width=channel_width)
        if project.bitstream is None:
            project.run_bitstream()
        if self._base_state is None:
            self._base_state = project.run_stage(
                "sta-state", project.stage_keys.get("route"), StaState,
                lambda: analyze_timing_state(
                    project.netlist, project.device,
                    routing=project.routing,
                    locations=project.placement.locations)[1],
                span="eco.sta.base")
        return self._base_state

    def run(self, target_clock_ns: float = 10.0, effort: float = 1.0,
            channel_width: int = DEFAULT_CHANNEL_WIDTH) -> EcoReport:
        base = self.project
        tracer = base.tracer

        with base.span("eco", ops=len(self.delta.ops)):
            base_state = self.prepare_base(effort=effort,
                                           channel_width=channel_width)
            base_place = base.placement
            base_route = base.routing
            base_bitstream = base.bitstream

            # Apply the edit; the edited design's project re-validates it
            # and checks device capacity, then runs the ECO stages.
            edited, impact = self.delta.apply(base.netlist)
            self.netlist, self.impact = edited, impact
            try:
                project = NXmapProject(edited, base.device, seed=base.seed,
                                       tracer=tracer, cache=base.cache)
            except FlowError as error:
                raise FlowError(f"edited netlist rejected: {error}")
            target = impact.constraints.get("target_clock_ns",
                                            target_clock_ns)
            changed = set(impact.changed_cells)
            delta = self.delta.canonical()

            # (a) Warm-start placement, chained off the base placement.
            placement = project.placement = project.run_stage(
                "place", base.stage_keys.get("place"), PlacementResult,
                lambda: eco_place(edited, base.device, base_place,
                                  changed, seed=base.seed,
                                  effort=effort, tracer=tracer),
                options={"effort": effort}, delta=delta, span="eco.place",
                attributes={"changed": len(changed)},
                describe=lambda result: {
                    "moved": result.stats.get("moved", 0),
                    "frozen": result.stats.get("frozen", 0)})
            self.placement = placement
            moved_cells = {name for name, tile
                           in placement.locations.items()
                           if base_place.locations.get(name) != tile}

            # (b) Delta routing.  A base route tree stays valid exactly
            # when its net's connectivity and its pins' tiles are both
            # unchanged, so rip the delta's touched nets (connectivity)
            # plus every net of a moved cell (pin positions).  Changed-
            # but-unmoved cells add nothing: their connectivity edits
            # are already the touched nets.
            rip: Set[str] = {name for name in impact.touched_nets
                             if name in edited.nets}
            for name in sorted(moved_cells):
                cell = edited.cells.get(name)
                if cell is None:
                    continue
                rip.update(net for net in cell.inputs
                           if net in edited.nets)
                if cell.output is not None and cell.output in edited.nets:
                    rip.add(cell.output)
            ripped_existing = sum(1 for name in rip
                                  if name in base_route.routes)
            routing = project.routing = project.run_stage(
                "route", project.stage_keys.get("place"), RoutingResult,
                lambda: route(edited, placement.locations, placement.grid,
                              channel_width=channel_width, tracer=tracer,
                              warm=base_route, reroute_nets=rip),
                options={"channel_width": channel_width}, delta=delta,
                span="eco.route", attributes={"ripped": ripped_existing},
                describe=lambda result: {
                    "wirelength": result.wirelength,
                    "failed": result.failed_connections})
            self.routing = routing

            # (c) Cone-limited STA, merged into the cached base state.
            def compute_sta() -> _ConeTiming:
                report, _state, size = analyze_timing_cone(
                    edited, base.device, base_state,
                    changed_cells=changed | moved_cells,
                    changed_nets=rip, target_clock_ns=target,
                    routing=routing, locations=placement.locations)
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
            # resized on are rebuilt from the base bitstream.  It keys
            # as the cold bitstream stage does, off the edited project's
            # (delta-chained) place key, so it is cached per (base,
            # delta).
            tiles = {tile for name in changed | moved_cells | impact.resized
                     for tile in (base_place.locations.get(name),
                                  placement.locations.get(name))
                     if tile is not None}
            with project.span("eco.bitstream"):
                project.bitstream = project.run_stage(
                    "bitstream", project.stage_keys.get("place"),
                    Bitstream,
                    lambda: update_bitstream(base_bitstream, edited,
                                             placement.locations, tiles),
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
                tracer.counter("eco.cells.moved", "fabric").add(
                    len(moved_cells))
                tracer.counter("eco.nets.ripped", "fabric").add(
                    ripped_existing)
                tracer.counter("eco.sta.cone_size", "fabric").add(
                    cone_size)

            return EcoReport(
                device=base.device.name,
                base_netlist=base.fingerprint()["netlist"],
                delta=delta,
                delta_fingerprint=self.delta.fingerprint(),
                base_hpwl=base_place.hpwl,
                flow=project.report(target),
                eco=eco_stats)
