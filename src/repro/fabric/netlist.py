"""Technology netlist: the cell-level representation consumed by the
NXmap-equivalent backend (synthesis output, place/route/STA input)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

# Cell kinds of the modelled NG fabric.
LUT4 = "LUT4"
DFF = "DFF"
DSP = "DSP"
BRAM = "BRAM"
IOB = "IOB"
CARRY = "CARRY"

CELL_KINDS = {LUT4, DFF, DSP, BRAM, IOB, CARRY}

# How many fabric placement sites each cell kind consumes.
_SEQUENTIAL = {DFF, DSP, BRAM}


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

    # -- construction ------------------------------------------------------

    def new_net(self, hint: str = "n") -> str:
        name = f"{hint}{next(self._counter)}"
        self.nets[name] = Net(name)
        return name

    def ensure_net(self, name: str) -> Net:
        if name not in self.nets:
            self.nets[name] = Net(name)
        return self.nets[name]

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
        for net_name in cell.inputs:
            self.ensure_net(net_name).sinks.append(cell.name)
        if cell.output is not None:
            self.ensure_net(cell.output).driver = cell.name
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
        """A structural deep copy (cells, nets, ports).

        The fresh net-name counter restarts at zero; callers that keep
        generating nets on the copy should use explicit names (as the
        ECO delta ops do) to avoid colliding with inherited ones.
        """
        duplicate = Netlist(name or self.name)
        # Field-by-field copies that skip the constructors: every cell
        # was checked when it was built.
        for cell in self.cells.values():
            copied = object.__new__(Cell)
            copied.__dict__.update(cell.__dict__)
            copied.inputs = list(cell.inputs)
            duplicate.cells[cell.name] = copied
        for net in self.nets.values():
            copied_net = object.__new__(Net)
            copied_net.__dict__.update(net.__dict__)
            copied_net.sinks = list(net.sinks)
            duplicate.nets[net.name] = copied_net
        duplicate.inputs = list(self.inputs)
        duplicate.outputs = list(self.outputs)
        return duplicate

    def apply_delta(self, delta) -> "Netlist":
        """The netlist with an ECO :class:`~repro.fabric.eco.NetlistDelta`
        applied; ``self`` is never mutated, so its content fingerprint
        stays stable.  Equal (netlist, delta) pairs produce structurally
        identical results — the property the delta-chained cache keys
        rely on.  See :mod:`repro.fabric.eco` for the edit taxonomy."""
        edited, _impact = delta.apply(self)
        return edited

    # -- queries -----------------------------------------------------------

    def count(self, kind: str) -> int:
        return sum(1 for c in self.cells.values() if c.kind == kind)

    @property
    def lut_count(self) -> int:
        return self.count(LUT4) + self.count(CARRY)

    @property
    def ff_count(self) -> int:
        return self.count(DFF)

    @property
    def dsp_count(self) -> int:
        return self.count(DSP)

    @property
    def bram_count(self) -> int:
        return self.count(BRAM)

    def stats(self) -> Dict[str, int]:
        return {
            "luts": self.lut_count,
            "ffs": self.ff_count,
            "dsps": self.dsp_count,
            "brams": self.bram_count,
            "nets": len(self.nets),
            "cells": len(self.cells),
        }

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
