"""Technology library of RTL components used by the HLS backend.

Bambu annotates every library component (adders, multipliers, memories,
floating-point cores, ...) with latency and resource occupation under
different clock-period constraints; the paper describes how the Eucalyptus
tool produces those annotations for the NG-ULTRA fabric (§II).

This module provides:

* :class:`ComponentRecord` — one characterization point
  (resource class × bit width × pipeline stages);
* :class:`ComponentLibrary` — the lookup structure used by allocation and
  scheduling, including clock-aware latency queries;
* :func:`default_library` — an analytic pre-characterization of the
  NG-ULTRA fabric (LUT4 + DSP + TDPRAM based delay/area formulas).  The
  Eucalyptus tool (``eucalyptus.py``) can re-characterize the library by
  synthesizing each component through the NXmap-equivalent flow, replacing
  these analytic values with measured ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple
from xml.etree import ElementTree


@dataclass(frozen=True)
class ComponentRecord:
    """One characterized configuration of a library component."""

    resource_class: str
    width: int
    stages: int          # pipeline stages (0 = purely combinational)
    delay_ns: float      # combinational delay, or per-stage delay if staged
    luts: int
    ffs: int
    dsps: int = 0
    brams: int = 0

    @property
    def is_sequential(self) -> bool:
        return self.stages > 0


class CharacterizationError(Exception):
    pass


#: Class -> width -> variants sorted by stages, widths in increasing order.
_Index = Dict[str, Dict[int, List[ComponentRecord]]]


class ComponentLibrary:
    """Characterized component store with clock-aware selection.

    Queries read an index of the variants by (class, width), sorted by
    stages, and ``select`` memoizes its answer per (class, width,
    clock).  ``add`` drops both, so a query never sees a stale library.
    """

    def __init__(self, name: str = "ng-ultra-analytic") -> None:
        self.name = name
        self._records: Dict[Tuple[str, int, int], ComponentRecord] = {}
        self._index: Optional[_Index] = None
        self._selected: Dict[Tuple[str, int, float], ComponentRecord] = {}

    # -- population ------------------------------------------------------

    def add(self, record: ComponentRecord) -> None:
        key = (record.resource_class, record.width, record.stages)
        self._records[key] = record
        self._index = None
        self._selected.clear()

    def records(self) -> List[ComponentRecord]:
        return sorted(self._records.values(),
                      key=lambda r: (r.resource_class, r.width, r.stages))

    # -- queries -----------------------------------------------------------

    def _by_class(self) -> _Index:
        if self._index is None:
            index: _Index = {}
            for record in self.records():
                index.setdefault(record.resource_class, {}).setdefault(
                    record.width, []).append(record)
            self._index = index
        return self._index

    def _variants(self, resource_class: str,
                  width: int) -> List[ComponentRecord]:
        """The variants of the smallest characterized width >= width
        (the widest if there is none), sorted by stages."""
        widths = self._by_class().get(resource_class)
        if not widths:
            raise CharacterizationError(
                f"no characterization for {resource_class!r}")
        chosen = next((w for w in widths if w >= width), max(widths))
        return widths[chosen]

    def lookup(self, resource_class: str, width: int,
               stages: Optional[int] = None) -> ComponentRecord:
        """Find the record for the smallest characterized width >= width."""
        variants = self._variants(resource_class, width)
        if stages is None:
            return variants[0]
        record = next((r for r in variants if r.stages == stages), None)
        if record is None:
            raise CharacterizationError(
                f"{resource_class} width {variants[0].width} has no "
                f"{stages}-stage variant")
        return record

    def select(self, resource_class: str, width: int,
               clock_ns: float) -> ComponentRecord:
        """Pick the cheapest variant whose stage delay fits the clock.

        Prefers combinational variants (stage 0); falls back to the most
        shallowly pipelined variant that meets timing; if nothing meets
        timing the deepest variant is returned (the design will then limit
        Fmax, exactly as a real flow reports a timing violation).
        """
        key = (resource_class, width, clock_ns)
        record = self._selected.get(key)
        if record is None:
            variants = self._variants(resource_class, width)
            record = next((r for r in variants if r.delay_ns <= clock_ns),
                          variants[-1])
            self._selected[key] = record
        return record

    def delay(self, resource_class: str, width: int, clock_ns: float) -> float:
        """Combinational delay contribution for chaining decisions."""
        record = self.select(resource_class, width, clock_ns)
        if record.stages == 0:
            return record.delay_ns
        return record.delay_ns  # per-stage delay of the selected variant

    # -- XML persistence (the Eucalyptus exchange format, paper §II) ------

    def to_xml(self) -> str:
        root = ElementTree.Element("component_library", name=self.name)
        for record in self.records():
            ElementTree.SubElement(
                root, "component",
                resource_class=record.resource_class,
                width=str(record.width),
                stages=str(record.stages),
                delay_ns=f"{record.delay_ns:.4f}",
                luts=str(record.luts),
                ffs=str(record.ffs),
                dsps=str(record.dsps),
                brams=str(record.brams),
            )
        ElementTree.indent(root)
        return ElementTree.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, text: str) -> "ComponentLibrary":
        root = ElementTree.fromstring(text)
        if root.tag != "component_library":
            raise CharacterizationError(f"unexpected root tag {root.tag!r}")
        library = cls(name=root.get("name", "imported"))
        for element in root.findall("component"):
            library.add(ComponentRecord(
                resource_class=element.get("resource_class"),
                width=int(element.get("width")),
                stages=int(element.get("stages")),
                delay_ns=float(element.get("delay_ns")),
                luts=int(element.get("luts")),
                ffs=int(element.get("ffs")),
                dsps=int(element.get("dsps", "0")),
                brams=int(element.get("brams", "0")),
            ))
        return library


# ---------------------------------------------------------------------------
# Analytic NG-ULTRA pre-characterization
# ---------------------------------------------------------------------------

# Base timing parameters for the modelled 28nm FD-SOI fabric.  A LUT4 level
# costs ~0.35 ns including local routing; carry chains amortize ripple
# logic; DSP blocks run a 32x32 multiply in ~2.4 ns.
_LUT_LEVEL_NS = 0.35
_CARRY_NS_PER_BIT = 0.035
_DSP_MUL_NS = 2.4
_WIDTHS = (1, 8, 16, 24, 32, 64)


def _addsub(width: int) -> Iterable[ComponentRecord]:
    delay = _LUT_LEVEL_NS + _CARRY_NS_PER_BIT * width
    yield ComponentRecord("addsub", width, 0, delay, luts=width, ffs=0)
    yield ComponentRecord("addsub", width, 2, delay / 2 + 0.15,
                          luts=width + 4, ffs=width * 2)


def _mult(width: int) -> Iterable[ComponentRecord]:
    if width <= 18:
        # Fits a single DSP slice.
        yield ComponentRecord("mult", width, 0, _DSP_MUL_NS * 0.7,
                              luts=0, ffs=0, dsps=1)
        yield ComponentRecord("mult", width, 2, _DSP_MUL_NS * 0.4,
                              luts=0, ffs=width * 2, dsps=1)
    else:
        dsps = max(1, math.ceil(width / 18) ** 2 // 2)
        yield ComponentRecord("mult", width, 0, _DSP_MUL_NS,
                              luts=width // 2, ffs=0, dsps=dsps)
        yield ComponentRecord("mult", width, 2, _DSP_MUL_NS * 0.55,
                              luts=width // 2, ffs=width * 2, dsps=dsps)
        yield ComponentRecord("mult", width, 4, _DSP_MUL_NS * 0.35,
                              luts=width // 2, ffs=width * 4, dsps=dsps)


def _divider(width: int) -> Iterable[ComponentRecord]:
    # Radix-2 restoring divider: one bit per stage, `width` cycles.
    yield ComponentRecord("divider", width, max(1, width),
                          _LUT_LEVEL_NS + _CARRY_NS_PER_BIT * width,
                          luts=width * 3, ffs=width * 3)


def _logic(width: int) -> Iterable[ComponentRecord]:
    yield ComponentRecord("logic", width, 0, _LUT_LEVEL_NS,
                          luts=max(1, width // 2), ffs=0)


def _shifter(width: int) -> Iterable[ComponentRecord]:
    levels = max(1, math.ceil(math.log2(max(2, width))))
    yield ComponentRecord("shifter", width, 0, _LUT_LEVEL_NS * levels,
                          luts=width * levels // 2, ffs=0)


def _comparator(width: int) -> Iterable[ComponentRecord]:
    delay = _LUT_LEVEL_NS + _CARRY_NS_PER_BIT * width * 0.6
    yield ComponentRecord("comparator", width, 0, delay,
                          luts=max(1, width // 2), ffs=0)


def _mux(width: int) -> Iterable[ComponentRecord]:
    yield ComponentRecord("mux", width, 0, _LUT_LEVEL_NS,
                          luts=max(1, width // 2), ffs=0)


def _wire(width: int) -> Iterable[ComponentRecord]:
    yield ComponentRecord("wire", width, 0, 0.05, luts=0, ffs=0)


def _memories(width: int) -> Iterable[ComponentRecord]:
    # NG-ULTRA true-dual-port RAM: registered output, 1-cycle read.
    yield ComponentRecord("mem_bram", width, 1, 1.1, luts=0, ffs=0, brams=1)
    # External memory over AXI: characterized at the nominal 8-cycle round
    # trip; the interface model adds the configured extra latency.
    yield ComponentRecord("mem_axi", width, 8, 1.2, luts=60, ffs=90)


def _float_units() -> Iterable[ComponentRecord]:
    yield ComponentRecord("faddsub", 32, 3, 2.6, luts=380, ffs=250)
    yield ComponentRecord("fmult", 32, 2, 2.8, luts=120, ffs=140, dsps=2)
    yield ComponentRecord("fdivider", 32, 12, 2.9, luts=700, ffs=520)
    yield ComponentRecord("fsqrt", 32, 16, 2.9, luts=460, ffs=380)
    yield ComponentRecord("fcomparator", 32, 0, 1.4, luts=70, ffs=0)
    yield ComponentRecord("fconvert", 32, 2, 2.1, luts=180, ffs=90)
    yield ComponentRecord("flogic", 32, 0, _LUT_LEVEL_NS, luts=16, ffs=0)


def default_library() -> ComponentLibrary:
    """Analytic NG-ULTRA component library (pre-Eucalyptus)."""
    library = ComponentLibrary()
    generators = (_addsub, _mult, _divider, _logic, _shifter, _comparator,
                  _mux, _wire, _memories)
    for width in _WIDTHS:
        for generator in generators:
            for record in generator(width):
                library.add(record)
    for record in _float_units():
        library.add(record)
    return library
