"""Technology netlist: the cell-level representation consumed by the
NXmap-equivalent backend (synthesis output, place/route/STA input)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

# Cell kinds of the modelled NG fabric.
LUT4 = "LUT4"
DFF = "DFF"
DSP = "DSP"
BRAM = "BRAM"
IOB = "IOB"
CARRY = "CARRY"

CELL_KINDS = {LUT4, DFF, DSP, BRAM, IOB, CARRY}

# Cell kinds that register their output (timing start and end points).
_SEQUENTIAL = {DFF, DSP, BRAM}

#: The resource count (``Netlist.stats`` key) each cell kind adds to;
#: an IOB adds to none.
STAT_OF_KIND = {LUT4: "luts", CARRY: "luts", DFF: "ffs", DSP: "dsps",
                BRAM: "brams"}


class NetlistError(Exception):
    pass


@dataclass
class Cell:
    name: str
    kind: str
    inputs: List[str] = field(default_factory=list)    # net names
    output: Optional[str] = None                       # net name
    init: int = 0            # LUT truth table / config word
    location: Optional[tuple] = None                   # set by placement

    @property
    def is_sequential(self) -> bool:
        return self.kind in _SEQUENTIAL

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise NetlistError(f"unknown cell kind {self.kind!r}")
        if self.kind == LUT4 and len(self.inputs) > 4:
            raise NetlistError(
                f"{self.name}: LUT4 has {len(self.inputs)} inputs")


@dataclass
class Net:
    name: str
    driver: Optional[str] = None          # cell name
    sinks: List[str] = field(default_factory=list)

    @property
    def fanout(self) -> int:
        return len(self.sinks)


class Netlist:
    """A flat technology netlist."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.cells: Dict[str, Cell] = {}
        self.nets: Dict[str, Net] = {}
        self.inputs: List[str] = []       # primary input net names
        self.outputs: List[str] = []      # primary output net names
        self._counter = itertools.count()
        # Set on a copy (see :meth:`copy`): the original it shares
        # unedited cells and nets with, and what this copy wrote.
        self.parent: Optional["Netlist"] = None
        self.edited_cells: Set[str] = set()
        self.edited_nets: Set[str] = set()
        self._added: Dict[str, None] = {}

    # -- construction ------------------------------------------------------

    def new_net(self, hint: str = "n") -> str:
        name = f"{hint}{next(self._counter)}"
        self.nets[name] = Net(name)
        return name

    def ensure_net(self, name: str) -> Net:
        """The net ``name``, created if missing, ready to be written."""
        net = self.nets.get(name)
        if net is None:
            net = self.nets[name] = Net(name)
        elif self.parent is not None and name not in self.edited_nets:
            net = self.nets[name] = Net(name, net.driver, list(net.sinks))
        if self.parent is not None:
            self.edited_nets.add(name)
        return net

    def writable_cell(self, name: str) -> Cell:
        """The cell ``name`` (``KeyError`` if missing), ready to be
        written: a copy no longer shares it with its original."""
        cell = self.cells[name]
        if self.parent is not None and name not in self.edited_cells:
            # Field by field, skipping the constructor's checks.
            shared, cell = cell, object.__new__(Cell)
            cell.__dict__.update(shared.__dict__)
            cell.inputs = list(shared.inputs)
            self.cells[name] = cell
            self.edited_cells.add(name)
        return cell

    def add_cell(self, cell: Cell) -> Cell:
        if cell.name in self.cells:
            raise NetlistError(f"duplicate cell {cell.name!r}")
        # Check before writing: a rejected cell leaves no trace.
        driven = (self.nets.get(cell.output)
                  if cell.output is not None else None)
        if driven is not None and driven.driver is not None:
            raise NetlistError(
                f"net {driven.name!r} driven twice "
                f"({driven.driver} and {cell.name})")
        self.cells[cell.name] = cell
        if self.parent is not None:
            self.edited_cells.add(cell.name)
            self._added[cell.name] = None
        for net_name in cell.inputs:
            self.ensure_net(net_name).sinks.append(cell.name)
        if cell.output is not None:
            self.ensure_net(cell.output).driver = cell.name
        return cell

    def remove_cell(self, name: str) -> Cell:
        """Remove a cell (``KeyError`` if missing); its input nets lose
        it as a sink and its output net loses its driver."""
        cell = self.cells.pop(name)
        if self.parent is not None:
            self.edited_cells.add(name)
            self._added.pop(name, None)
        for net_name in cell.inputs:
            self.ensure_net(net_name).sinks.remove(name)
        if cell.output is not None:
            self.ensure_net(cell.output).driver = None
        return cell

    def add_input(self, net_name: str) -> str:
        self.ensure_net(net_name)
        self.inputs.append(net_name)
        return net_name

    def add_output(self, net_name: str) -> str:
        self.ensure_net(net_name)
        self.outputs.append(net_name)
        return net_name

    # -- editing -----------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """A copy-on-write copy (cells, nets, ports).

        The copy shares every cell and net with ``self`` (its
        ``parent``) until it writes one through :meth:`ensure_net`,
        :meth:`writable_cell`, :meth:`add_cell` or :meth:`remove_cell`,
        which give it a private copy first; ``edited_cells`` and
        ``edited_nets`` name what it wrote, so a consumer can find the
        edit without comparing the two netlists.  Making the copy is a
        C-level copy of the two maps, not a walk over the design.  Read
        ``cells``/``nets`` freely, but write a copy only through those
        methods, and do not edit the original while a copy lives.

        The fresh net-name counter restarts at zero; callers that keep
        generating nets on the copy should use explicit names (as the
        ECO delta ops do) to avoid colliding with inherited ones.
        """
        duplicate = Netlist(name or self.name)
        duplicate.cells = dict(self.cells)
        duplicate.nets = dict(self.nets)
        duplicate.inputs = list(self.inputs)
        duplicate.outputs = list(self.outputs)
        duplicate.parent = self
        return duplicate

    @property
    def added_cells(self) -> List[str]:
        """Cells a copy added (and kept), in the order they were added:
        they follow every cell of its parent in ``cells``."""
        return list(self._added)

    def position(self, order: Mapping[str, int]
                 ) -> Callable[[str], Tuple[int, int]]:
        """A sort key giving a copy's cells in its ``cells`` order, from
        ``order``, each parent cell's index in the parent's ``cells``:
        the parent's cells in their order, then the cells the copy
        added."""
        tail = {name: index for index, name in enumerate(self._added)}

        def position(name: str) -> Tuple[int, int]:
            return (1, tail[name]) if name in tail else (0, order[name])
        return position

    # -- queries -----------------------------------------------------------

    @property
    def lut_count(self) -> int:
        return self.stats()["luts"]

    @property
    def ff_count(self) -> int:
        return self.stats()["ffs"]

    @property
    def dsp_count(self) -> int:
        return self.stats()["dsps"]

    def stats(self) -> Dict[str, int]:
        """Resource counts by :data:`STAT_OF_KIND`, plus the net and
        cell counts."""
        stats = dict.fromkeys(STAT_OF_KIND.values(), 0)
        for cell in self.cells.values():
            key = STAT_OF_KIND.get(cell.kind)
            if key is not None:
                stats[key] += 1
        stats.update(nets=len(self.nets), cells=len(self.cells))
        return stats

    def combinational_cells(self) -> List[Cell]:
        return [c for c in self.cells.values() if not c.is_sequential]

    def validate(self) -> List[str]:
        """Structural checks: drivers present, no combinational loops.

        Delegates to the ``repro.analysis`` netlist pass pack (iterative
        SCC loop detection — every loop is reported with its cycle path,
        with no recursion-limit games) and returns the ERROR-level
        findings as plain messages, the historical contract of this
        method.  Run ``repro lint`` for the full diagnostic set.
        """
        from ..analysis.passes.netlist import error_messages
        return error_messages(self)
