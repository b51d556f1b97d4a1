"""Analytic placement refined by simulated annealing on the device grid.

Sites: every grid tile accepts up to ``LUTS_PER_TILE`` LUT-class cells and
the same number of flip-flops; DSP and BRAM macros live in dedicated
columns (every 8th / 12th column), mirroring a column-based FPGA
floorplan.  The cost function is the half-perimeter wirelength (HPWL)
summed over nets, the classic VPR-style objective.

A cold placement starts from an analytic global placement
(:func:`_global_placement`): a quadratic net model solved by conjugate
gradients, spread and re-solved against anchors for a few passes in the
SimPL style (Kim, Lee & Markov, 2010), then legalized onto the sites.
``PlacementResult.initial_hpwl`` is the HPWL of that legalized start, so
``improvement`` measures what the anneal after it bought, not the gain
over a random draw.  The anneal runs a fixed share of the move budget
(``100 * effort`` moves a cell) from a low temperature in a narrow
window, as the ECO warm start does.

The annealer is *incremental*: every tracked net keeps one bbox record
(the four extremes plus the number of pins at each), and a move updates
the records of the moved cell's nets from the old and new tile alone.
When the last pin at an extreme leaves it, the net is rescanned from its
pins, O(pins); ``place.bbox.rescans`` counts those fallbacks.  They are
not rare: a two-pin net loses an extreme whenever a pin moves towards
the other, so on the HLS kernels a fifth to two fifths of the moves
rescan a net.  Nets covering fewer than two cells always span 0 and are
not tracked at all, by the annealer or by the net model.  Free sites
come from per-site-class free-lists (no rejection sampling), and moves
are VPR-style range-limited, with a window that shrinks as the
temperature drops.  The move loop (:func:`_anneal`) is shared with the
ECO warm start.  Results are deterministic per seed for a given numpy
build; ``PLACE_KERNEL_VERSION`` salts the flow-cache stage key so artifacts of
older kernels are never served.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..telemetry import Tracer
from .device import Device, LUTS_PER_TILE
from .netlist import BRAM, CARRY, DFF, DSP, IOB, LUT4, Netlist

_LUT_CLASS = {LUT4, CARRY, IOB}
_DSP_COLUMN_STRIDE = 8
_BRAM_COLUMN_STRIDE = 12

#: Bumped whenever the placement algorithm changes its results (including
#: the serialized ``stats``: version 3 counts ``rescans`` over tracked
#: nets only; version 4 anneals from the analytic start); part of the
#: flow-cache stage key (see ``NXmapProject.stage_key``), so stale cached
#: placements from an older kernel can never be returned.
PLACE_KERNEL_VERSION = 4

#: Window samples attempted before falling back to the global free-list.
_WINDOW_TRIES = 8

#: Sites per tile of each site class.
_CAPACITY = {"lut": LUTS_PER_TILE, "ff": LUTS_PER_TILE, "dsp": 2, "bram": 2}

#: The analytic start (:func:`_global_placement`): quadratic solves of
#: ``_CG_ITERATIONS`` conjugate-gradient steps each, the first anchored to
#: random points at ``_FIRST_ANCHOR``, then one per anchor pass at
#: ``_ANCHOR_WEIGHT`` growing by ``_ANCHOR_GROWTH``.
_GLOBAL_PASSES = 7
_FIRST_ANCHOR = 0.01
_ANCHOR_WEIGHT = 0.05
_ANCHOR_GROWTH = 2.5
_CG_ITERATIONS = 12
#: Nets spanning more cells than this are modelled as a star on their
#: first pin, not a clique; the star's springs share ``_STAR_WEIGHT``.
_CLIQUE_CELLS = 16
_STAR_WEIGHT = 2.0
#: Decimal places solved coordinates keep before they are sorted.
_DECIMALS = 6

#: The anneal that refines the analytic start: its share of the move
#: budget (``100 * effort`` moves a cell), its start temperature per unit
#: of start HPWL a cell, and its window as a share of the grid span.
_REFINE_MOVES = 0.3
_REFINE_TEMPERATURE = 0.2
_REFINE_WINDOW = 0.3


class PlacementError(Exception):
    pass


@dataclass
class PlacementResult:
    locations: Dict[str, Tuple[int, int]]
    hpwl: float
    initial_hpwl: float
    iterations: int
    grid: Tuple[int, int]
    # Annealer instrumentation: moves accepted, bbox rescan fallbacks,
    # window-sample fallbacks (see the telemetry counters of the same
    # names).  Serialized so warm cache hits report identical evidence.
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def improvement(self) -> float:
        if self.initial_hpwl == 0:
            return 0.0
        return 1.0 - self.hpwl / self.initial_hpwl

    def to_json(self) -> dict:
        return {
            "locations": {name: list(tile)
                          for name, tile in sorted(self.locations.items())},
            "hpwl": self.hpwl,
            "initial_hpwl": self.initial_hpwl,
            "iterations": self.iterations,
            "grid": list(self.grid),
            "stats": dict(sorted(self.stats.items())),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PlacementResult":
        return cls(
            locations={name: (int(tile[0]), int(tile[1]))
                       for name, tile in payload["locations"].items()},
            hpwl=payload["hpwl"],
            initial_hpwl=payload["initial_hpwl"],
            iterations=payload["iterations"],
            grid=(int(payload["grid"][0]), int(payload["grid"][1])),
            stats=dict(payload.get("stats", {})),
        )


class _Grid:
    """The annealing grid: its size and the macro-column rule."""

    def __init__(self, device: Device, netlist: Netlist,
                 min_cols: int = 4,
                 dims: Optional[Tuple[int, int]] = None) -> None:
        # Shrink the grid to the design (plus slack) so annealing moves
        # stay local; capacity checks still respect the device limits.
        stats = netlist.stats()
        if not device.fits(stats["luts"], stats["ffs"], stats["dsps"],
                           stats["brams"]):
            raise PlacementError(
                f"design does not fit {device.name}: {stats}")
        if dims is not None:
            # Pin the grid to an existing placement's dimensions (the
            # ECO warm start): frozen tiles must stay legal, so the
            # edited design anneals on the base design's grid.
            self.cols, self.rows = dims
            return
        cells_needed = max(stats["luts"], stats["ffs"]) / LUTS_PER_TILE
        tiles_needed = max(4, int(cells_needed * 1.6) + 2)
        dev_cols, dev_rows = device.grid_size
        cols = min(dev_cols, max(min_cols, math.ceil(math.sqrt(tiles_needed))))
        rows = min(dev_rows, max(min_cols,
                                 math.ceil(tiles_needed / max(1, cols))))
        # Guarantee DSP/BRAM columns exist inside the reduced grid.
        if stats["dsps"]:
            cols = max(cols, _DSP_COLUMN_STRIDE // 2 + 1)
        if stats["brams"]:
            cols = max(cols, _BRAM_COLUMN_STRIDE // 2 + 1)
        self.cols, self.rows = cols, rows

    def is_macro_column(self, kind: str, col: int) -> bool:
        if kind == DSP:
            return col % _DSP_COLUMN_STRIDE == _DSP_COLUMN_STRIDE // 2
        if kind == BRAM:
            return col % _BRAM_COLUMN_STRIDE == _BRAM_COLUMN_STRIDE // 2
        return True


class _FreeList:
    """O(1) uniform sampling over the tiles with free capacity.

    Replaces the old 200-try rejection sampler: a tile leaves the list
    when it fills up (swap-pop) and returns when a site frees, so a draw
    is always a single ``randrange``.
    """

    __slots__ = ("items", "pos")

    def __init__(self, tiles: List[Tuple[int, int]]) -> None:
        self.items: List[Tuple[int, int]] = list(tiles)
        self.pos: Dict[Tuple[int, int], int] = {
            tile: index for index, tile in enumerate(self.items)}

    def sample(self, rng: random.Random) -> Optional[Tuple[int, int]]:
        if not self.items:
            return None
        return self.items[rng.randrange(len(self.items))]

    def remove(self, tile: Tuple[int, int]) -> None:
        index = self.pos.pop(tile)
        last = self.items.pop()
        if last != tile:
            self.items[index] = last
            self.pos[last] = index

    def add(self, tile: Tuple[int, int]) -> None:
        if tile not in self.pos:
            self.pos[tile] = len(self.items)
            self.items.append(tile)


class _SiteManager:
    """Occupancy counters plus per-site-class free-lists over the grid."""

    def __init__(self, grid: _Grid) -> None:
        self.grid = grid
        tiles = [(col, row) for col in range(grid.cols)
                 for row in range(grid.rows)]
        self.capacity = dict(_CAPACITY)
        self.used: Dict[str, Dict[Tuple[int, int], int]] = {
            "lut": {}, "ff": {}, "dsp": {}, "bram": {}}
        self.free = {
            "lut": _FreeList(tiles),
            "ff": _FreeList(tiles),
            "dsp": _FreeList([t for t in tiles
                              if grid.is_macro_column(DSP, t[0])]),
            "bram": _FreeList([t for t in tiles
                               if grid.is_macro_column(BRAM, t[0])]),
        }

    @staticmethod
    def site_class(kind: str) -> str:
        if kind in _LUT_CLASS:
            return "lut"
        if kind == DFF:
            return "ff"
        return "dsp" if kind == DSP else "bram"

    def has_room(self, cls: str, tile: Tuple[int, int]) -> bool:
        return self.used[cls].get(tile, 0) < self.capacity[cls]

    def occupy(self, cls: str, tile: Tuple[int, int]) -> None:
        table = self.used[cls]
        count = table.get(tile, 0) + 1
        table[tile] = count
        if count >= self.capacity[cls]:
            self.free[cls].remove(tile)

    def release(self, cls: str, tile: Tuple[int, int]) -> None:
        table = self.used[cls]
        count = table[tile] - 1
        table[tile] = count
        if count == self.capacity[cls] - 1:
            self.free[cls].add(tile)


def _net_hpwl(netlist: Netlist, locations: Dict[str, Tuple[int, int]],
              net_name: str) -> float:
    net = netlist.nets[net_name]
    points = []
    if net.driver and net.driver in locations:
        points.append(locations[net.driver])
    for sink in net.sinks:
        if sink in locations:
            points.append(locations[sink])
    if len(points) < 2:
        return 0.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def total_hpwl(netlist: Netlist,
               locations: Dict[str, Tuple[int, int]]) -> float:
    return sum(_net_hpwl(netlist, locations, name)
               for name in netlist.nets)


def _connectivity(netlist: Netlist, cell_index: Dict[str, int],
                  movable: Optional[Set[int]] = None
                  ) -> Tuple[List[List[int]], List[List[Tuple[int, int]]]]:
    """The nets the annealer tracks, as pin lists (cell indices, with
    multiplicity), and the reverse map cell → [(net, pin count)].

    A net whose pins cover fewer than two distinct cells always spans 0,
    so it is left out: its delta, and so every accept decision, is 0
    whatever moves.  With ``movable`` given, nets without a movable pin
    are left out too (their span cannot change).
    """
    net_pins: List[List[int]] = []
    nets_of_cell: List[List[Tuple[int, int]]] = [[] for _ in cell_index]
    for net in netlist.nets.values():
        pins: List[int] = []
        if net.driver is not None and net.driver in cell_index:
            pins.append(cell_index[net.driver])
        for sink in net.sinks:
            index = cell_index.get(sink)
            if index is not None:
                pins.append(index)
        if movable is not None and movable.isdisjoint(pins):
            continue
        counts: Dict[int, int] = {}
        for pin in pins:
            counts[pin] = counts.get(pin, 0) + 1
        if len(counts) < 2:
            continue
        net_id = len(net_pins)
        net_pins.append(pins)
        for pin, count in counts.items():
            nets_of_cell[pin].append((net_id, count))
    return net_pins, nets_of_cell


def _bbox(pins: List[int], xs: List[int], ys: List[int]) -> List[int]:
    """A net's bbox record from scratch: ``[xmin, xmax, ymin, ymax]``
    then the number of pins at each of those extremes."""
    pin_xs = list(map(xs.__getitem__, pins))
    pin_ys = list(map(ys.__getitem__, pins))
    xmin, xmax = min(pin_xs), max(pin_xs)
    ymin, ymax = min(pin_ys), max(pin_ys)
    return [xmin, xmax, ymin, ymax, pin_xs.count(xmin), pin_xs.count(xmax),
            pin_ys.count(ymin), pin_ys.count(ymax)]


def _anneal(rng: random.Random, sites: _SiteManager, xs: List[int],
            ys: List[int], classes: List[str], movable: List[int],
            net_pins: List[List[int]],
            nets_of_cell: List[List[Tuple[int, int]]],
            boxes: List[List[int]], *, moves: int, temperature: float,
            radius: float, block: int, floor_span: float,
            home: Optional[Dict[int, Optional[Tuple[int, int]]]] = None,
            penalty: float = 0.0) -> Tuple[int, Dict[str, int]]:
    """The annealing move loop shared by cold and ECO placement.

    Moves a random ``movable`` cell per step; ``xs``/``ys``, ``sites``
    and the bbox records in ``boxes`` are updated in place.  A move
    inserts the cell's pins at the new tile and removes them from the
    old one, keeping each bbox extreme's pin count; when the last pin at
    an extreme leaves, the net is rescanned from its pins (counted in
    ``rescans``).  A move writes fresh records; a rejected move puts the
    old ones back.  With ``home`` (movable cell → home tile, or
    ``None``) given, moving a cell off its home tile costs ``penalty``
    on top of the HPWL delta.

    The range limit adapts every ``block`` moves towards the classic
    0.44 accept rate, floored at ``floor_span`` scaled by the square
    root of the relative temperature.  Returns the accepted HPWL change
    and the move statistics.
    """
    cols, rows = sites.grid.cols, sites.grid.rows
    span = float(max(cols, rows))
    initial_temperature = temperature
    cooling = 0.95 ** (1.0 / max(1, moves // 100))
    randrange, uniform, exp = rng.randrange, rng.random, math.exp
    used, capacity, free = sites.used, sites.capacity, sites.free
    occupy, release = sites.occupy, sites.release
    count = len(movable)
    gain = accepted = rescans = window_fallbacks = 0
    block_moves = block_accepted = 0
    for _ in range(moves):
        index = movable[randrange(count)]
        cls = classes[index]
        ox, oy = xs[index], ys[index]
        if cls == "lut" or cls == "ff":
            # The window [cmin, cmin + width) x [rmin, rmin + height):
            # ``randint(lo, hi)`` draws exactly ``lo + randrange(hi -
            # lo + 1)``, the cheaper one-argument form.
            r = int(radius)
            cmin = ox - r if ox > r else 0
            rmin = oy - r if oy > r else 0
            width = (ox + r if ox + r < cols else cols - 1) - cmin + 1
            height = (oy + r if oy + r < rows else rows - 1) - rmin + 1
            table, room = used[cls], capacity[cls]
            for _try in range(_WINDOW_TRIES):
                candidate = (cmin + randrange(width),
                             rmin + randrange(height))
                if table.get(candidate, 0) < room:
                    new_tile = candidate
                    break
            else:
                window_fallbacks += 1
                new_tile = free[cls].sample(rng)
        else:
            new_tile = free[cls].sample(rng)
        if new_tile is None:
            continue
        nx, ny = new_tile
        xs[index], ys[index] = nx, ny
        affected = nets_of_cell[index]
        old_boxes = []
        delta = 0
        for net_id, pins in affected:
            box = boxes[net_id]
            old_boxes.append(box)
            xmin, xmax, ymin, ymax, cxmin, cxmax, cymin, cymax = box
            delta -= xmax - xmin + ymax - ymin
            # Insert the pins at the new tile, then remove them from the
            # old one; losing the last pin at an extreme forces a rescan.
            if nx < xmin:
                xmin, cxmin = nx, pins
            elif nx == xmin:
                cxmin += pins
            if nx > xmax:
                xmax, cxmax = nx, pins
            elif nx == xmax:
                cxmax += pins
            if ny < ymin:
                ymin, cymin = ny, pins
            elif ny == ymin:
                cymin += pins
            if ny > ymax:
                ymax, cymax = ny, pins
            elif ny == ymax:
                cymax += pins
            rescan = False
            if ox == xmin:
                cxmin -= pins
                rescan = cxmin <= 0
            if ox == xmax:
                cxmax -= pins
                rescan = rescan or cxmax <= 0
            if oy == ymin:
                cymin -= pins
                rescan = rescan or cymin <= 0
            if oy == ymax:
                cymax -= pins
                rescan = rescan or cymax <= 0
            if rescan:
                rescans += 1
                fresh = _bbox(net_pins[net_id], xs, ys)
                boxes[net_id] = fresh
                delta += fresh[1] - fresh[0] + fresh[3] - fresh[2]
            else:
                boxes[net_id] = [xmin, xmax, ymin, ymax,
                                 cxmin, cxmax, cymin, cymax]
                delta += xmax - xmin + ymax - ymin
        block_moves += 1
        cost = delta
        if home is not None and home[index] == (ox, oy):
            cost = delta + penalty
        if cost <= 0 or uniform() < exp(-cost / temperature):
            accepted += 1
            block_accepted += 1
            release(cls, (ox, oy))
            occupy(cls, new_tile)
            gain += delta
        else:
            xs[index], ys[index] = ox, oy
            for (net_id, _pins), box in zip(affected, old_boxes):
                boxes[net_id] = box
        if block_moves >= block:
            rate = block_accepted / block_moves
            # Accept-rate adaptation (target 0.44) with a temperature-
            # tied floor: the window may not collapse faster than the
            # anneal itself cools, or structured netlists lose the
            # coarse shuffling phase and freeze into local minima.
            floor = max(2.0, floor_span
                        * (temperature / initial_temperature) ** 0.5)
            radius = min(span, max(floor, radius * (0.56 + rate)))
            block_moves = 0
            block_accepted = 0
        temperature = max(0.01, temperature * cooling)
    return gain, {"moves": moves, "accepted": accepted, "rescans": rescans,
                  "window_fallbacks": window_fallbacks}


def _global_placement(rng: random.Random, grid: _Grid, classes: List[str],
                      net_pins: List[List[int]]
                      ) -> Tuple[List[int], List[int]]:
    """The analytic start: a legal tile per cell, from quadratic solves.

    Each tracked net becomes springs between its cells: a clique of
    weight ``2 / k`` on a ``k``-cell net, or for nets above
    ``_CLIQUE_CELLS`` cells a star on the first pin (the driver, when
    a cell drives it) whose springs share ``_STAR_WEIGHT``.  Minimising the spring energy is one
    sparse linear system per axis, solved by Jacobi-preconditioned
    conjugate gradients in numpy (x and y at once).  Unanchored, every
    cell would collapse to one point, so each cell also has a spring to
    an anchor (SimPL, Kim, Lee & Markov, 2010): on the first pass a
    seeded random point, on every later pass the cell's spread tile from
    the pass before, at a weight that grows by ``_ANCHOR_GROWTH`` a
    pass.  The last solve's spread is the result.

    Solved coordinates are rounded to ``_DECIMALS`` places before they
    are sorted, and ties break on the cell index, so the result never
    hinges on the last bit of a floating-point reduction.
    """
    import numpy as np

    ncells = len(classes)
    ends: List[int] = []
    weights: List[float] = []
    for pins in net_pins:
        cells = list(dict.fromkeys(pins))
        if len(cells) > _CLIQUE_CELLS:
            for cell in cells[1:]:
                ends += (cells[0], cell)
            weights += [_STAR_WEIGHT / (len(cells) - 1)] * (len(cells) - 1)
            continue
        for position, cell in enumerate(cells):
            for other in cells[position + 1:]:
                ends += (cell, other)
        weights += [2.0 / len(cells)] * (len(cells) * (len(cells) - 1) // 2)
    # Springs between the same two cells merge into one.
    pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
    pairs.sort(axis=1)
    merged, inverse = np.unique(pairs[:, 0] * ncells + pairs[:, 1],
                                return_inverse=True)
    spring = np.bincount(inverse.reshape(-1), weights=weights)
    lo, hi = np.divmod(merged, ncells)
    # The off-diagonal of the Laplacian of the stacked [x..., y...]
    # vector, and its diagonal (each cell's total spring weight).
    rows = np.concatenate([lo, hi, lo + ncells, hi + ncells])
    cols = np.concatenate([hi, lo, hi + ncells, lo + ncells])
    springs = np.tile(spring, 4)
    degree = np.bincount(lo, spring, ncells) + np.bincount(hi, spring, ncells)

    def laplacian(vector):
        off = np.bincount(rows, springs * vector.reshape(-1)[cols],
                          2 * ncells)
        return degree * vector - off.reshape(2, ncells)

    def solve(position, anchor, weight):
        # (L + weight I) p = weight * anchor, warm-started at position.
        diagonal = degree + weight
        residual = weight * (anchor - position) - laplacian(position)
        z = residual / diagonal
        direction = z
        rz = (residual * z).sum(axis=1, keepdims=True)
        for _ in range(_CG_ITERATIONS):
            product = laplacian(direction) + weight * direction
            step = rz / np.maximum(
                (direction * product).sum(axis=1, keepdims=True), 1e-300)
            position = position + step * direction
            residual = residual - step * product
            z = residual / diagonal
            rz_next = (residual * z).sum(axis=1, keepdims=True)
            direction = z + rz_next / np.maximum(rz, 1e-300) * direction
            rz = rz_next
        return position

    groups: Dict[str, List[int]] = {}
    for index, cls in enumerate(classes):
        groups.setdefault(cls, []).append(index)
    members = {cls: np.array(cells, dtype=np.int64)
               for cls, cells in groups.items()}

    def spread(position):
        solved = np.round(position, _DECIMALS)
        tiles = np.zeros((2, ncells), dtype=np.int64)
        for cls, cells in members.items():
            _spread_class(grid, cls, cells, solved, tiles)
        return tiles

    anchor = np.array([[rng.random() * (grid.cols - 1)
                        for _ in range(ncells)],
                       [rng.random() * (grid.rows - 1)
                        for _ in range(ncells)]])
    position = anchor
    weight = _FIRST_ANCHOR
    for number in range(_GLOBAL_PASSES):
        position = solve(position, anchor, weight)
        tiles = spread(position)
        anchor = tiles.astype(np.float64)
        weight = _ANCHOR_WEIGHT * _ANCHOR_GROWTH ** number
    xs, ys = tiles.tolist()
    return xs, ys


def _spread_class(grid: _Grid, cls: str, cells, solved, tiles) -> None:
    """Give one site class's ``cells`` legal tiles near their ``solved``
    points, written into ``tiles`` (numpy arrays, rows x and y).

    LUT and flip-flop cells are packed by rank into the fewest tiles
    that hold them, a block of the grid's aspect centred on the cells'
    median point: the cells sorted by x fill its columns in equal
    shares, and each column's cells sorted by y fill its rows the same
    way, so no tile gets more than ``ceil(cells / tiles)``.  The few
    macro cells each take the nearest macro-column tile with room, in
    cell order.
    """
    import numpy as np

    capacity = _CAPACITY[cls]
    count = len(cells)
    if cls not in ("lut", "ff"):
        kind = DSP if cls == "dsp" else BRAM
        room = {(col, row): capacity for col in range(grid.cols)
                if grid.is_macro_column(kind, col)
                for row in range(grid.rows)}
        if count > capacity * len(room):
            raise PlacementError("no free site found (grid saturated)")
        for index, x, y in zip(cells.tolist(), *solved[:, cells].tolist()):
            tile = min((tile for tile, left in room.items() if left),
                       key=lambda t: (abs(t[0] - x) + abs(t[1] - y), t))
            room[tile] -= 1
            tiles[:, index] = tile
        return
    if count > capacity * grid.cols * grid.rows:
        raise PlacementError("no free site found (grid saturated)")
    needed = -(-count // capacity)
    width = min(grid.cols, math.ceil(math.sqrt(needed * grid.cols
                                                / grid.rows)))
    height = min(grid.rows, -(-needed // width))
    width = max(width, -(-needed // height))
    x, y = solved[:, cells]
    by_x = np.lexsort((cells, x))
    middle_x = x[by_x[count // 2]]
    middle_y = y[np.lexsort((cells, y))[count // 2]]
    left = min(max(0, math.floor(middle_x - (width - 1) / 2 + 0.5)),
               grid.cols - width)
    bottom = min(max(0, math.floor(middle_y - (height - 1) / 2 + 0.5)),
                 grid.rows - height)
    # Rank r of n goes to share floor((2r + 1) * k / 2n) of k: at most
    # ceil(n / k) ranks share one.
    ranks = np.arange(count)
    col = np.empty(count, dtype=np.int64)
    col[by_x] = (2 * ranks + 1) * width // (2 * count)
    order = np.lexsort((cells, y, col))
    by_col = col[order]
    size = np.bincount(by_col, minlength=width)[by_col]
    rank = ranks - np.searchsorted(by_col, by_col)
    tiles[0, cells[order]] = left + by_col
    tiles[1, cells[order]] = bottom + (2 * rank + 1) * height // (2 * size)


def place(netlist: Netlist, device: Device, seed: int = 1,
          effort: float = 1.0, tracer: Optional[Tracer] = None
          ) -> PlacementResult:
    """Analytic global placement, legalized, then a short anneal.

    ``effort`` scales the number of annealing moves (1.0 ≈ 30 moves per
    cell); the run is deterministic for a given seed.

    The input netlist is never mutated: all placement state lives in the
    returned :class:`PlacementResult` (downstream stages take the
    ``locations`` map explicitly).  Writing tiles back onto cells would
    poison content-addressed stage reuse — the ``netlist.stale-placement``
    lint rule audits for netlists carrying such annotations.

    ``tracer`` (optional) receives the annealer counters:
    ``place.moves.accepted``, ``place.moves.total``,
    ``place.bbox.rescans`` and ``place.window.fallbacks``.
    """
    rng = random.Random(seed)
    grid = _Grid(device, netlist)
    sites = _SiteManager(grid)
    cols, rows = grid.cols, grid.rows

    # Per-cell arrays, precomputed outside the move loop.
    cell_names: List[str] = list(netlist.cells)
    cell_index = {name: index for index, name in enumerate(cell_names)}
    classes: List[str] = [_SiteManager.site_class(cell.kind)
                          for cell in netlist.cells.values()]
    ncells = len(cell_names)

    if ncells == 0:
        return PlacementResult({}, 0.0, 0.0, 0, (cols, rows))

    net_pins, nets_of_cell = _connectivity(netlist, cell_index)
    xs, ys = _global_placement(rng, grid, classes, net_pins)
    for index in range(ncells):
        sites.occupy(classes[index], (xs[index], ys[index]))
    boxes = [_bbox(pins, xs, ys) for pins in net_pins]
    initial = sum(box[1] - box[0] + box[3] - box[2] for box in boxes)
    moves = int(_REFINE_MOVES * max(200, 100 * effort * ncells))
    window = max(2.0, _REFINE_WINDOW * max(cols, rows))
    # A low-temperature anneal in a narrow window, as the ECO warm start
    # runs: the analytic start is already globally sound, so the moves
    # buy local fixes, not the coarse shuffle a random start needs.
    gain, stats = _anneal(
        rng, sites, xs, ys, classes, list(range(ncells)), net_pins,
        nets_of_cell, boxes, moves=moves,
        temperature=max(0.05, _REFINE_TEMPERATURE * initial / ncells),
        radius=window, block=max(50, moves // 100), floor_span=window)
    if tracer is not None:
        tracer.counter("place.moves.total", "fabric").add(stats["moves"])
        tracer.counter("place.moves.accepted", "fabric").add(
            stats["accepted"])
        tracer.counter("place.bbox.rescans", "fabric").add(stats["rescans"])
        tracer.counter("place.window.fallbacks", "fabric").add(
            stats["window_fallbacks"])
    locations = {cell_names[i]: (xs[i], ys[i]) for i in range(ncells)}
    return PlacementResult(locations=locations, hpwl=initial + gain,
                           initial_hpwl=initial, iterations=stats["moves"],
                           grid=(cols, rows), stats=stats)
