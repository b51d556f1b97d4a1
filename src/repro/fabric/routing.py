"""Capacity-aware maze routing over the tile grid.

The routing fabric is modelled as a grid graph: each tile connects to its
four neighbours through channels of ``channel_width`` tracks.  Multi-sink
nets are routed as a *shared route tree* (PR 5): each sink runs a
multi-source A* that targets the nearest node of the net's existing tree
rather than re-routing from the driver, so fanout edges are paid for
once.  Every search is bounded to the connection bounding box plus a
congestion-adaptive margin (widened on each negotiation pass, with an
unbounded retry as the safety net).  Between negotiation passes the
rip-up is *targeted*: only connections whose paths cross overflowed
edges (plus tree segments stranded by such a rip) are torn up and
re-routed under a higher congestion penalty — everything else keeps its
usage intact.  Reports wirelength, congestion and overflow — the numbers
the NXmap flow report exposes after routing.  The whole kernel is
deterministic (no RNG); ``ROUTE_KERNEL_VERSION`` salts the flow-cache
stage key so artifacts of older kernels are never served.
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, count
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, \
    Set, Tuple

from ..telemetry import Tracer
from .netlist import Netlist

Tile = Tuple[int, int]
Edge = Tuple[Tile, Tile]

#: Bumped whenever the routing algorithm changes its results; part of
#: the flow-cache stage key (see ``NXmapProject.stage_key``), so stale
#: cached routes from an older kernel can never be returned.
ROUTE_KERNEL_VERSION = 3

#: Base bbox margin (tiles) around a connection; widened every
#: negotiation pass so congested connections can detour further out.
_BASE_MARGIN = 3
_MARGIN_PER_PASS = 4

#: Negotiation passes a route runs at most.
_MAX_PASSES = 3

#: Tracks per channel between neighbouring tiles when a caller names no
#: channel width: the one default every flow entry point (``route``,
#: ``NXmapProject``, ``EcoFlow``, the job API and the CLI) reads.
DEFAULT_CHANNEL_WIDTH = 16


class RoutingError(Exception):
    """A delta route asked to start from routes of another design."""


@dataclass
class RoutingResult:
    wirelength: int
    max_congestion: int
    overflow_edges: int
    routed_connections: int
    failed_connections: int
    iterations: int
    channel_width: int
    # net name -> list of per-connection paths (each a list of tiles).
    # Each path starts on the driver tile or on another path of the net,
    # so their union per net is a driver-rooted Steiner tree.
    routes: Dict[str, List[List[Tile]]] = field(default_factory=dict)
    # Kernel instrumentation (serialized so cache hits report the same
    # evidence): total A* node expansions and targeted rip-up count.
    expanded_nodes: int = 0
    ripped_connections: int = 0
    # Final per-edge occupancy (congestion state).  Persisted so a later
    # pass — ECO delta routing in particular — can seed its negotiation
    # from the exact channel usage this result left behind instead of
    # recomputing it from the path lists.
    edge_usage: Dict[Edge, int] = field(default_factory=dict)
    # The nets a delta route re-routed: the trees it built and the warm
    # nets it stripped (None on a cold route).  Not in the payload: the
    # ECO route stage caches it beside it.
    rerouted: Optional[FrozenSet[str]] = field(default=None, compare=False)

    @property
    def success(self) -> bool:
        return self.failed_connections == 0 and self.overflow_edges == 0

    def route_length(self, net_name: str) -> int:
        """The routed length of a net, in tile hops over its paths (0
        when it has none): the one definition the STA reads."""
        paths = self.routes.get(net_name, [])
        return sum(max(0, len(p) - 1) for p in paths)

    def to_json(self) -> dict:
        return {
            "wirelength": self.wirelength,
            "max_congestion": self.max_congestion,
            "overflow_edges": self.overflow_edges,
            "routed_connections": self.routed_connections,
            "failed_connections": self.failed_connections,
            "iterations": self.iterations,
            "channel_width": self.channel_width,
            "routes": {net: [[list(tile) for tile in path]
                             for path in paths]
                       for net, paths in sorted(self.routes.items())},
            "expanded_nodes": self.expanded_nodes,
            "ripped_connections": self.ripped_connections,
            "edge_usage": [[list(edge[0]), list(edge[1]), used]
                           for edge, used
                           in sorted(self.edge_usage.items())],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RoutingResult":
        routes = {net: [[(int(t[0]), int(t[1])) for t in path]
                        for path in paths]
                  for net, paths in payload["routes"].items()}
        if "edge_usage" in payload:
            edge_usage = {((int(a[0]), int(a[1])), (int(b[0]), int(b[1]))):
                          int(used)
                          for a, b, used in payload["edge_usage"]}
        else:
            # Pre-v3 artifact: rebuild the occupancy map from the paths.
            edge_usage = _usage_of_paths(
                path for paths in routes.values() for path in paths)
        return cls(
            wirelength=payload["wirelength"],
            max_congestion=payload["max_congestion"],
            overflow_edges=payload["overflow_edges"],
            routed_connections=payload["routed_connections"],
            failed_connections=payload["failed_connections"],
            iterations=payload["iterations"],
            channel_width=payload["channel_width"],
            routes=routes,
            expanded_nodes=payload.get("expanded_nodes", 0),
            ripped_connections=payload.get("ripped_connections", 0),
            edge_usage=edge_usage,
        )


def _edge(a: Tile, b: Tile) -> Edge:
    return (a, b) if a <= b else (b, a)


def _usage_of_paths(paths: Iterable[List[Tile]]) -> Dict[Edge, int]:
    """Edge-occupancy map of a collection of path segments."""
    usage: Dict[Edge, int] = {}
    for path in paths:
        for a, b in zip(path, path[1:]):
            edge = _edge(a, b)
            usage[edge] = usage.get(edge, 0) + 1
    return usage


class _Grid(NamedTuple):
    """Lookup tables of one grid's integer tile and edge ids.

    A tile's id is ``col * rows + row``, which orders tiles exactly as
    their ``(col, row)`` tuples.  An edge's id is ``2 * lo`` for the
    horizontal edge from tile ``lo`` to its +col neighbour and
    ``2 * lo + 1`` for the vertical edge to its +row neighbour.
    """

    #: id -> (col, row), and back.
    tiles: List[Tile]
    ids: Dict[Tile, int]
    #: id -> in-grid neighbours as ``(neighbour id, edge id, neighbour
    #: col, neighbour row)``, in the order +col, -col, +row, -row.
    neighbours: List[Tuple[Tuple[int, int, int, int], ...]]


@lru_cache(maxsize=8)
def _grid(cols: int, rows: int) -> _Grid:
    tiles = [(col, row) for col in range(cols) for row in range(rows)]
    neighbours = []
    for tile, (col, row) in enumerate(tiles):
        steps = []
        if col + 1 < cols:
            steps.append((tile + rows, 2 * tile, col + 1, row))
        if col > 0:
            steps.append((tile - rows, 2 * (tile - rows), col - 1, row))
        if row + 1 < rows:
            steps.append((tile + 1, 2 * tile + 1, col, row + 1))
        if row > 0:
            steps.append((tile - 1, 2 * tile - 1, col, row - 1))
        neighbours.append(tuple(steps))
    return _Grid(tiles, {tile: index for index, tile in enumerate(tiles)},
                 neighbours)


def _path_edges(path: List[int], rows: int) -> List[int]:
    """Edge ids along a path of tile ids."""
    return [2 * a if b - a == rows else
            2 * b if a - b == rows else
            2 * min(a, b) + 1
            for a, b in zip(path, path[1:])]


def _astar_tree(nodes: Set[int], seeds: List[Tuple[int, int, int]],
                goal: int, bounds: Tuple[int, int, int, int],
                tables: _Grid, usage: List[int], channel_width: int,
                congestion_penalty: float
                ) -> Tuple[Optional[List[int]], int]:
    """Multi-source A* from a net's route tree to one sink.

    Every tree node (``nodes``; ``seeds`` lists each as ``(tile, col,
    row)``) starts at cost zero, so the search naturally grows the path
    from the *nearest* point of the existing tree.  Expansion is
    restricted to ``bounds`` (cmin, cmax, rmin, rmax inclusive), which
    must contain every node.  Returns the path (tile ids) and the
    number of heap pops.

    Heap entries are ``(f = g + heuristic, g, tiebreak, tile)``.  A
    source's tiebreak is its tile id and a pushed entry's is a push
    counter.  Sources (g = 0) never tie with pushed entries (g >= 1) on
    ``(f, g)``, so the pop order is exactly that of pushing the sources
    one by one in sorted ``(col, row)`` order under one counter.
    """
    gcol, grow = tables.tiles[goal]
    cmin, cmax, rmin, rmax = bounds
    neighbours = tables.neighbours
    frontier = [(float(abs(col - gcol) + abs(row - grow)), 0.0, tile, tile)
                for tile, col, row in seeds]
    heapq.heapify(frontier)
    best: Dict[int, float] = dict.fromkeys(nodes, 0.0)
    came: Dict[int, int] = {}
    pop, push, best_of = heapq.heappop, heapq.heappush, best.get
    inf = float("inf")
    counter = 0
    expanded = 0
    while frontier:
        _f, g, _, tile = pop(frontier)
        expanded += 1
        if tile == goal:
            path = [tile]
            while tile in came:
                tile = came[tile]
                path.append(tile)
            path.reverse()
            return path, expanded
        if g > best[tile]:
            continue  # stale entry
        for neighbour, edge, ncol, nrow in neighbours[tile]:
            if ncol < cmin or ncol > cmax or nrow < rmin or nrow > rmax:
                continue
            used = usage[edge]
            if used >= channel_width:
                new_cost = g + (1.0 + congestion_penalty
                                * (used - channel_width + 1))
            else:
                new_cost = g + 1.0
            if new_cost < best_of(neighbour, inf):
                best[neighbour] = new_cost
                came[neighbour] = tile
                counter += 1
                push(frontier,
                     (new_cost + (abs(ncol - gcol) + abs(nrow - grow)),
                      new_cost, counter, neighbour))
    return None, expanded


class _NetTree:
    """One net's growing route tree: per-sink path segments (tile ids),
    plus the node set, its ``(tile, col, row)`` seed list and its bbox,
    kept up to date as segments grow.  The node set is materialized on
    first use, so a tree rebuilt from warm paths only to be scanned for
    rip-up pays for none of it.
    """

    __slots__ = ("source", "tables", "paths", "_nodes", "seeds", "bbox")

    def __init__(self, source: int, tables: _Grid) -> None:
        self.source = source
        self.tables = tables
        # (sink ordinal, path segment) — segment edges are disjoint
        # between segments; their union is the net's route tree.
        self.paths: List[Tuple[int, List[int]]] = []
        self._nodes: Optional[Set[int]] = None
        # Once the node set is materialized: every node with its
        # coordinates, and [cmin, cmax, rmin, rmax] over them.
        self.seeds: List[Tuple[int, int, int]] = []
        self.bbox: List[int] = []

    def tile_paths(self) -> List[List[Tile]]:
        """The segments as ``(col, row)`` lists, in ordinal order."""
        to_tile = self.tables.tiles.__getitem__
        return [list(map(to_tile, path))
                for _ordinal, path in sorted(self.paths)]

    @property
    def nodes(self) -> Set[int]:
        if self._nodes is None:
            col, row = self.tables.tiles[self.source]
            self._nodes = {self.source}
            self.seeds = [(self.source, col, row)]
            self.bbox = [col, col, row, row]
            for _ordinal, path in self.paths:
                self._grow(path)
        return self._nodes

    def reset(self, paths: List[Tuple[int, List[int]]]) -> None:
        """Keep only ``paths`` (segments that still hang together from
        the source); the node set and bbox follow on next use."""
        self.paths = paths
        self._nodes = None

    def add(self, ordinal: int, path: List[int]) -> None:
        self.paths.append((ordinal, path))
        if self._nodes is not None:
            self._grow(path)

    def _grow(self, path: List[int]) -> None:
        nodes, seeds, bbox, tiles = \
            self._nodes, self.seeds, self.bbox, self.tables.tiles
        for tile in path:
            if tile in nodes:
                continue
            nodes.add(tile)
            col, row = tiles[tile]
            seeds.append((tile, col, row))
            if col < bbox[0]:
                bbox[0] = col
            elif col > bbox[1]:
                bbox[1] = col
            if row < bbox[2]:
                bbox[2] = row
            elif row > bbox[3]:
                bbox[3] = row


def _connections(netlist: Netlist, locations: Dict[str, Tile],
                 ids: Dict[Tile, int], net_name: str
                 ) -> Tuple[Optional[int], List[int]]:
    """A net's driver tile id (None when it has no placed driver) and
    the tile id of each connection, sinks in sorted order (a sink on
    the driver's tile needs none)."""
    net = netlist.nets.get(net_name)
    if net is None or net.driver is None or net.driver not in locations:
        return None, []
    source = ids[locations[net.driver]]
    targets = []
    for sink in sorted(net.sinks):
        if sink in locations:
            target = ids[locations[sink]]
            if target != source:
                targets.append(target)
    return source, targets


class WarmRoutes:
    """What delta routing needs of a whole base routing: derived once
    per base (``EcoBase.of``) and only read by the routes that
    start from it.

    It holds the channel usage by edge id, each routed net's paths as
    tile ids with their edge ids, the nets that use each edge, and each
    net's connections on the ``netlist`` and ``locations`` the base was
    routed on, so a route of an edited copy of that netlist
    (``Netlist.copy``) sets up only the nets the edit could have changed.
    """

    def __init__(self, result: RoutingResult, grid: Tuple[int, int],
                 netlist: Netlist, locations: Dict[str, Tile]) -> None:
        cols, rows = grid
        tables = _grid(cols, rows)
        ids = tables.ids
        self.result, self.grid = result, grid
        self.netlist, self.locations = netlist, locations
        self.usage = [0] * (2 * cols * rows)
        for (a, b), used in result.edge_usage.items():
            lo = ids[a]
            self.usage[2 * lo if b[0] != a[0] else 2 * lo + 1] = used
        self.paths: Dict[str, List[List[int]]] = {}
        self.edges: Dict[str, List[List[int]]] = {}
        self.users: Dict[int, List[str]] = {}
        for net_name, paths in result.routes.items():
            id_paths = self.paths[net_name] = [
                [ids[tile] for tile in path] for path in paths]
            edge_lists = self.edges[net_name] = [
                _path_edges(path, rows) for path in id_paths]
            for edges in edge_lists:
                for edge in edges:
                    self.users.setdefault(edge, []).append(net_name)
        self.counts: Dict[str, int] = {}
        # Nets whose warm paths do not fit even the design they were
        # routed on (a failed connection leaves a net short of paths, or
        # without any): every route from this base re-routes them.
        self.stale: Set[str] = set()
        for net_name in netlist.nets:
            source, sinks = _connections(netlist, locations, ids, net_name)
            if sinks:
                self.counts[net_name] = len(sinks)
            paths = self.paths.get(net_name)
            if (sinks or paths is not None) and not (
                    paths is not None and _fits(paths, source, sinks)):
                self.stale.add(net_name)
        self.stale.update(net_name for net_name in self.paths
                          if net_name not in netlist.nets)
        self.connections = sum(self.counts.values())


def _grown(paths: List[List[int]], source: Optional[int]
           ) -> Optional[List[Tuple[int, List[int]]]]:
    """A net's (ordinal, path) pairs in an order the paths grow in from
    the driver tile ``source``, each starting on it or on a path before
    it; None when there is none.  A path re-routed after a rip-up starts
    on the nearest tree node, maybe on a later sink's path."""
    grown, reached, pending = [], {source}, list(enumerate(paths))
    while pending:
        entry = next((entry for entry in pending
                      if entry[1][0] in reached), None)
        if entry is None:
            return None
        pending.remove(entry)
        grown.append(entry)
        reached.update(entry[1])
    return grown


def _fits(paths: List[List[int]], source: Optional[int],
          sinks: List[int]) -> bool:
    """Whether a net's warm paths (tile ids) still describe its
    connections: one path per sink ending on it, all in one tree rooted
    at the driver tile.  Each path being a chain of neighbouring tiles
    is an invariant of the stored artifact."""
    return len(paths) == len(sinks) > 0 and all(
        path and path[-1] == target for path, target in zip(paths, sinks)
    ) and _grown(paths, source) is not None


def route(netlist: Netlist, locations: Dict[str, Tile],
          grid: Tuple[int, int], channel_width: int = DEFAULT_CHANNEL_WIDTH,
          tracer: Optional[Tracer] = None,
          warm: Optional[WarmRoutes] = None) -> RoutingResult:
    """Route all nets; negotiation loop raises congestion cost each pass.

    ``tracer`` (optional) receives per-pass ``route.pass`` spans, the
    ``route.astar.expanded`` and ``route.ripup.connections`` counters
    and, on a delta route, ``eco.route.nets_visited`` (nets checked and
    scanned).

    ``warm`` enables *delta routing* (the ECO flow): the
    :class:`WarmRoutes` of a base routing on this ``grid``, whose route
    trees are kept (paths and channel usage) for every net whose warm
    paths still fit its connections (:func:`_fits`).  ``netlist`` must
    then be an edited copy (``Netlist.copy``) of the netlist ``warm`` was
    routed on, else :class:`RoutingError`.  The stale nets, and whatever
    the overflow cascade rips, are re-routed; the result's ``rerouted``
    names them, and every other net keeps its warm paths.

    Only the nets the copy edited, the nets whose warm paths did not fit
    the base and the nets of every cell whose tile differs from the base
    (one C-level difference of the two location maps) can be stale, so
    only those are checked.  The rip-up between passes reads only the
    nets on an overflowed edge, and the result is the warm one with the
    changed nets and edges replaced.

    Internally tiles are integer ids and channel usage is a flat list
    indexed by edge id (see ``_Grid``); ``(col, row)`` tuples appear
    only in the warm input and the returned result.
    """
    cols, rows = grid
    tables = _grid(cols, rows)
    tiles, ids = tables.tiles, tables.ids
    # Deterministic connection order: nets sorted by name, then sinks in
    # sorted order — independent of netlist dict insertion order.
    Conn = Tuple[str, int, int]  # (net name, sink ordinal, sink tile id)
    # The nets routed (or ripped) here; a preserved warm net gets a tree
    # only when a rip-up reads it.
    trees: Dict[str, _NetTree] = {}
    targets: Dict[str, List[int]] = {}
    pending: List[Conn] = []
    # Warm nets whose paths were dropped here, and edges whose usage
    # may differ from the warm result's (None on a cold route).
    stripped: Set[str] = set()
    touched: Optional[Set[int]] = None
    # On a warm route: the nets each edge may carry a path of here.
    live_users: Dict[int, Set[str]] = {}
    visited = 0
    if warm is None:
        usage = [0] * (2 * cols * rows)
        candidates = sorted(netlist.nets)
        connections = 0
    else:
        if netlist.parent is not warm.netlist:
            raise RoutingError(f"delta route: {netlist.name} is not an "
                               f"edited copy of the warm routes' netlist")
        usage = list(warm.usage)
        touched = set()
        moved = {name for name, _tile
                 in locations.items() - warm.locations.items()}
        moved.update(warm.locations.keys() - locations.keys())
        names = netlist.edited_nets | warm.stale
        for cell_name in moved:
            cell = netlist.cells.get(cell_name)
            if cell is not None:
                names.update(cell.inputs)
                if cell.output is not None:
                    names.add(cell.output)
        candidates = sorted(name for name in names
                            if name in netlist.nets or name in warm.paths)
        connections = warm.connections - sum(
            warm.counts.get(name, 0) for name in candidates)
        visited = len(candidates)
    for net_name in candidates:
        source, sinks = _connections(netlist, locations, ids, net_name)
        connections += len(sinks)
        if warm is not None:
            paths = warm.paths.get(net_name)
            if paths is not None and _fits(paths, source, sinks):
                continue
            if paths is not None:
                # Subtract the dropped warm paths so usage stays exactly
                # the sum of the live trees.
                stripped.add(net_name)
                for edges in warm.edges[net_name]:
                    touched.update(edges)
                    for edge in edges:
                        if usage[edge] > 0:
                            usage[edge] -= 1
        if sinks:
            trees[net_name] = _NetTree(source, tables)
            targets[net_name] = sinks
            pending.extend((net_name, ordinal, target)
                           for ordinal, target in enumerate(sinks))

    def sink_tile(net_name: str, ordinal: int) -> int:
        sinks = targets.get(net_name)
        if sinks is not None:
            return sinks[ordinal]
        return warm.paths[net_name][ordinal][-1]

    failed: Set[Tuple[str, int]] = set()
    iterations = 0
    expanded_total = 0
    ripped_total = 0
    penalty = 0.5
    overflow = 0
    full_bounds = (0, cols - 1, 0, rows - 1)

    def span(name: str, **attributes):
        if tracer is None:
            return nullcontext(None)
        return tracer.span(name, "fabric", **attributes)

    def route_connection(conn: Conn, margin: int) -> bool:
        nonlocal expanded_total
        net_name, ordinal, target = conn
        tree = trees[net_name]
        nodes = tree.nodes
        if target in nodes:
            tree.add(ordinal, [target])  # zero-length tap on the tree
            return True
        tcol, trow = tiles[target]
        bxmin, bxmax, bymin, bymax = tree.bbox
        bounds = (max(0, min(bxmin, tcol) - margin),
                  min(cols - 1, max(bxmax, tcol) + margin),
                  max(0, min(bymin, trow) - margin),
                  min(rows - 1, max(bymax, trow) + margin))
        path, expanded = _astar_tree(nodes, tree.seeds, target, bounds,
                                     tables, usage, channel_width, penalty)
        expanded_total += expanded
        if path is None and bounds != full_bounds:
            # Safety net: the bounded window can starve a legal detour.
            path, expanded = _astar_tree(nodes, tree.seeds, target,
                                         full_bounds, tables, usage,
                                         channel_width, penalty)
            expanded_total += expanded
        if path is None:
            return False
        edges = _path_edges(path, rows)
        for edge in edges:
            usage[edge] += 1
        if touched is not None:
            touched.update(edges)
            for edge in edges:
                live_users.setdefault(edge, set()).add(net_name)
        tree.add(ordinal, path)
        return True

    def tree_of(net_name: str) -> _NetTree:
        """The net's tree, made from its (fitting) warm paths on first
        use."""
        tree = trees.get(net_name)
        if tree is None:
            source = ids[locations[netlist.nets[net_name].driver]]
            tree = trees[net_name] = _NetTree(source, tables)
            tree.reset(_grown(warm.paths[net_name], source))
        return tree

    def rip_targeted(over_edges: Set[int]) -> List[Conn]:
        """Tear up only the path segments crossing overflowed edges (and
        segments stranded by such a rip); keep all other usage.  On a
        warm route only the nets on an overflowed edge (found through
        the warm and the live users of the edge) can lose a segment, so
        only those are read."""
        nonlocal visited
        if warm is None:
            scan = set(trees)
        else:
            scan = set()
            for edge in over_edges:
                scan.update(warm.users.get(edge, ()))
                scan.update(live_users.get(edge, ()))
            scan -= stripped - trees.keys()
        visited += len(scan)
        ripped: List[Conn] = []
        for net_name in sorted(scan):
            tree = tree_of(net_name)
            if not tree.paths:
                continue
            kept: List[Tuple[int, List[int]]] = []
            reached: Set[int] = {tree.source}
            for ordinal, path in tree.paths:
                edges = _path_edges(path, rows)
                if path[0] not in reached \
                        or not over_edges.isdisjoint(edges):
                    for edge in edges:
                        usage[edge] -= 1
                    if touched is not None:
                        touched.update(edges)
                    ripped.append((net_name, ordinal,
                                   sink_tile(net_name, ordinal)))
                else:
                    kept.append((ordinal, path))
                    reached.update(path)
            tree.reset(kept)
        return sorted(ripped)

    threshold = channel_width.__lt__
    for iteration in range(_MAX_PASSES):
        if iteration > 0:
            penalty *= 4  # negotiate harder next pass
            over_edges = (set(compress(count(), map(threshold, usage)))
                          if overflow else set())
            ripped = rip_targeted(over_edges)
            ripped_total += len(ripped)
            ripped_keys = {(name, ordinal)
                           for name, ordinal, _tile in ripped}
            pending = ripped + [(name, ordinal, sink_tile(name, ordinal))
                                for name, ordinal in sorted(failed)
                                if (name, ordinal) not in ripped_keys]
        iterations += 1
        margin = _BASE_MARGIN + _MARGIN_PER_PASS * iteration
        with span("route.pass", iteration=iteration,
                  connections=len(pending)) as pass_span:
            routed_now = 0
            for conn in pending:
                failed.discard((conn[0], conn[1]))
                if route_connection(conn, margin):
                    routed_now += 1
                else:
                    failed.add((conn[0], conn[1]))
            # Single overflow computation per pass, reused by the exit
            # check and (on the final pass) the report.
            overflow = sum(map(threshold, usage))
            if pass_span is not None:
                pass_span.attributes["routed"] = routed_now
                pass_span.attributes["failed"] = len(failed)
                pass_span.attributes["overflow_edges"] = overflow
        if overflow == 0 and not failed:
            break

    def edge_key(edge: int) -> Edge:
        lo = edge >> 1
        return tiles[lo], tiles[lo + (1 if edge & 1 else rows)]

    if warm is None:
        routes: Dict[str, List[List[Tile]]] = {}
        edge_usage: Dict[Edge, int] = {
            edge_key(edge): used for edge, used in enumerate(usage) if used}
    else:
        routes = dict(warm.result.routes)
        edge_usage = dict(warm.result.edge_usage)
        for edge in touched:
            if usage[edge]:
                edge_usage[edge_key(edge)] = usage[edge]
            else:
                edge_usage.pop(edge_key(edge), None)
        for net_name in stripped - trees.keys():
            del routes[net_name]
    for net_name in sorted(trees):
        paths = trees[net_name].tile_paths()
        if paths:
            routes[net_name] = paths
        else:
            routes.pop(net_name, None)
    if tracer is not None:
        tracer.counter("route.astar.expanded", "fabric").add(expanded_total)
        tracer.counter("route.ripup.connections", "fabric").add(ripped_total)
        if warm is not None:
            tracer.counter("eco.route.nets_visited", "fabric").add(visited)
    return RoutingResult(
        wirelength=sum(usage), max_congestion=max(usage, default=0),
        overflow_edges=overflow,
        routed_connections=connections - len(failed),
        failed_connections=len(failed), iterations=iterations,
        channel_width=channel_width, routes=routes,
        expanded_nodes=expanded_total, ripped_connections=ripped_total,
        edge_usage=edge_usage,
        rerouted=None if warm is None else frozenset(stripped.union(trees)))
