"""NXmap-equivalent design flow facade (paper Fig. 3).

``NXmapProject`` drives the backend steps the paper shows for the NXmap
suite — logic synthesis (macro elaboration), placement, routing, static
timing analysis and bitstream generation — over one of the NanoXplore
device models.  ``generate_backend_script`` reproduces the Bambu↔NXmap
integration artifact: the automatically generated backend synthesis
script (paper §II, "seamless integration between Bambu and NXmap through
the automatic generation of backend synthesis scripts").
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..cache import FlowCache, content_key, device_fingerprint, \
    netlist_fingerprint
from ..exec.cancel import check_cancelled
from ..telemetry import Tracer
from .bitstream import Bitstream, generate_bitstream
from .device import Device, get_device
from .netlist import BRAM, CARRY, DFF, DSP, LUT4, Netlist
from .placement import PLACE_KERNEL_VERSION, PlacementResult, place
from .routing import DEFAULT_CHANNEL_WIDTH, ROUTE_KERNEL_VERSION, \
    RoutingResult, route
from .timing import STA_KERNEL_VERSION, TimingReport, analyze_timing

#: Bumped whenever the ECO kernels (warm-start placement, delta routing
#: orchestration, cone merge) change their results; folded into every
#: delta-chained stage key so stale ECO artifacts are never served.
#: Version 2: the warm start reports its final HPWL (version 1 reported
#: the warm-start HPWL) and counts ``rescans`` over tracked nets only.
#: Version 3: the delta route keeps every warm tree that fits and names
#: what it re-routed; a cell re-added as another site class is placed anew.
ECO_KERNEL_VERSION = 3

#: Per-stage kernel versions folded into the stage cache keys.  When a
#: kernel's algorithm changes (and so its results for identical inputs),
#: bumping its version constant retires every cached artifact produced by
#: the older kernel — downstream stages chain off the parent key, so a
#: place-kernel bump also invalidates cached routes/STA/bitstreams.  The
#: ``flow``/``eco``/``characterize`` job keys and the Eucalyptus
#: configuration keys fold in the whole table.
_KERNEL_VERSIONS: Dict[str, int] = {
    "place": PLACE_KERNEL_VERSION,
    "route": ROUTE_KERNEL_VERSION,
    "sta": STA_KERNEL_VERSION,
    # Cached full-STA propagation state (arrival times, endpoint
    # delays) reused by the ECO cone-limited STA; versioned with the
    # STA kernel because it is that kernel's intermediate product.
    "sta-state": STA_KERNEL_VERSION,
    "eco-place": ECO_KERNEL_VERSION,
    "eco-route": ECO_KERNEL_VERSION,
    "eco-sta": ECO_KERNEL_VERSION,
}


#: The resource count (``Netlist.stats`` key) each cell kind adds to.
_STAT_OF_KIND = {LUT4: "luts", CARRY: "luts", DFF: "ffs", DSP: "dsps",
                 BRAM: "brams"}

#: Share of cells that toggle per clock in the power estimate.
_TOGGLE_RATE = 0.125


class FlowError(Exception):
    pass


@dataclass
class PowerReport:
    """Activity-based power estimate."""

    dynamic_mw: float
    static_mw: float

    @property
    def total_mw(self) -> float:
        return self.dynamic_mw + self.static_mw

    def to_json(self) -> Dict[str, Any]:
        return {"dynamic_mw": self.dynamic_mw, "static_mw": self.static_mw}

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "PowerReport":
        return cls(dynamic_mw=payload["dynamic_mw"],
                   static_mw=payload["static_mw"])


@dataclass
class FlowReport:
    device: str
    stats: Dict[str, int]
    utilization: Dict[str, float]
    placement: Optional[PlacementResult] = None
    routing: Optional[RoutingResult] = None
    timing: Optional[TimingReport] = None
    power: Optional[PowerReport] = None
    bitstream_bits: int = 0
    essential_bits: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "device": self.device,
            "stats": dict(sorted(self.stats.items())),
            "utilization": dict(sorted(self.utilization.items())),
            "placement": (self.placement.to_json()
                          if self.placement else None),
            "routing": self.routing.to_json() if self.routing else None,
            "timing": self.timing.to_json() if self.timing else None,
            "power": self.power.to_json() if self.power else None,
            "bitstream_bits": self.bitstream_bits,
            "essential_bits": self.essential_bits,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "FlowReport":
        return cls(
            device=payload["device"],
            stats=dict(payload["stats"]),
            utilization=dict(payload["utilization"]),
            placement=(PlacementResult.from_json(payload["placement"])
                       if payload.get("placement") else None),
            routing=(RoutingResult.from_json(payload["routing"])
                     if payload.get("routing") else None),
            timing=(TimingReport.from_json(payload["timing"])
                    if payload.get("timing") else None),
            power=(PowerReport.from_json(payload["power"])
                   if payload.get("power") else None),
            bitstream_bits=payload.get("bitstream_bits", 0),
            essential_bits=payload.get("essential_bits", 0),
        )

    def summary(self) -> str:
        parts = [f"{self.device}: {self.stats.get('luts', 0)} LUTs, "
                 f"{self.stats.get('ffs', 0)} FFs"]
        if self.timing is not None:
            parts.append(f"fmax {self.timing.fmax_mhz:.1f} MHz")
        if self.power is not None:
            parts.append(f"{self.power.total_mw:.1f} mW")
        if self.bitstream_bits:
            parts.append(f"{self.bitstream_bits} cfg bits "
                         f"({self.essential_bits} essential)")
        return ", ".join(parts)


def _placement_attributes(placement: PlacementResult) -> Dict[str, Any]:
    attributes = {"hpwl": round(placement.hpwl, 3),
                  "iterations": placement.iterations}
    moves = placement.stats.get("moves", 0)
    if moves:
        attributes["accept_rate"] = round(
            placement.stats.get("accepted", 0) / moves, 4)
        attributes["bbox_rescans"] = placement.stats.get("rescans", 0)
    return attributes


def _timing_attributes(timing: TimingReport) -> Dict[str, Any]:
    attributes = {"critical_path_ns": round(timing.critical_path_ns, 6),
                  "fmax_mhz": round(timing.fmax_mhz, 3)}
    if timing.slack_ns is not None:
        attributes["slack_ns"] = round(timing.slack_ns, 6)
    return attributes


class NXmapProject:
    """One backend compilation: netlist → placed/routed/timed bitstream.

    With a :class:`~repro.cache.FlowCache` attached, every stage result is
    content-addressed under a *stage-granular* key: place hashes the
    netlist/device/seed plus its own options, and each later stage chains
    off its parent stage's key plus its own options only.  Changing a
    routing option therefore reuses the cached placement; changing the
    STA clock reuses both placement and routing.

    Every stage, cold or delta-chained (the ECO flow's warm-start
    stages), runs through :meth:`run_stage`, which keys, caches and
    traces it; ``stage_keys`` holds the key of each stage's current
    result, so later stages chain off it.
    """

    def __init__(self, netlist: Netlist, device: Device | str,
                 seed: int = 1, tracer: Optional[Tracer] = None,
                 cache: Optional[FlowCache] = None) -> None:
        self._attach(netlist,
                     get_device(device) if isinstance(device, str)
                     else device, seed, tracer, cache)
        self._stats = netlist.stats()
        self._check(netlist.validate())

    def _attach(self, netlist: Netlist, device: Device, seed: int,
                tracer: Optional[Tracer], cache: Optional[FlowCache]
                ) -> None:
        self.netlist = netlist
        self.device = device
        self.seed = seed
        self.tracer = tracer
        self.cache = cache
        self.placement: Optional[PlacementResult] = None
        self.routing: Optional[RoutingResult] = None
        self.timing: Optional[TimingReport] = None
        self.bitstream: Optional[Bitstream] = None
        self.stage_keys: Dict[str, Optional[str]] = {}
        self._base_material: Optional[Dict[str, Any]] = None
        #: What the ECO flow derived once from this implementation for
        #: its edits (``EcoBase.of``); edits only read it.
        self.eco_base: Optional[Any] = None

    @classmethod
    def for_edit(cls, base: "NXmapProject",
                 netlist: Netlist) -> "NXmapProject":
        """A project for ``netlist``, an edited copy of ``base.netlist``
        (``Netlist.copy``), on the base's device, seed, tracer and cache.

        The base netlist passed the full check when ``base`` was built,
        so only the edit is checked (``edit_error_messages``: the same
        findings, found from the written nets and cells), and the
        resource counts are the base's, adjusted for the edited cells.
        The validation counts what it visited as ``eco.validate.visited``.
        """
        if netlist.parent is not base.netlist:
            raise FlowError(f"{netlist.name} is not an edit of "
                            f"{base.netlist.name}")
        from ..analysis.passes.netlist import edit_error_messages
        project = cls.__new__(cls)
        project._attach(netlist, base.device, base.seed, base.tracer,
                        base.cache)
        stats = dict(base._stats)
        for name in netlist.edited_cells:
            for cell, step in ((base.netlist.cells.get(name), -1),
                               (netlist.cells.get(name), 1)):
                key = cell and _STAT_OF_KIND.get(cell.kind)
                if key:
                    stats[key] += step
        stats.update(nets=len(netlist.nets), cells=len(netlist.cells))
        project._stats = stats
        counter = (base.tracer.counter("eco.validate.visited", "fabric")
                   if base.tracer is not None else None)
        project._check(edit_error_messages(netlist, counter))
        return project

    # -- content addressing ------------------------------------------------

    def fingerprint(self) -> Dict[str, Any]:
        """Fingerprint of the flow inputs shared by every stage."""
        if self._base_material is None:
            self._base_material = {
                "netlist": netlist_fingerprint(self.netlist),
                "device": device_fingerprint(self.device),
                "seed": self.seed,
            }
        return self._base_material

    def stage_key(self, stage: str, parent: Optional[str],
                  delta: Optional[List[Dict[str, Any]]] = None,
                  **options: Any) -> str:
        """Key for one stage: parent stage's key + this stage's options.

        With ``delta`` (a canonical edit script) the stage is the ECO
        re-run of ``stage`` from a base result: it is keyed
        ``eco-<stage>`` and folds in the edit, so the chain hangs off the
        base key plus the delta.
        """
        if delta is not None:
            stage = f"eco-{stage}"
        material: Dict[str, Any] = {"stage": stage, "parent": parent,
                                    "options": options}
        version = _KERNEL_VERSIONS.get(stage)
        if version is not None:
            material["kernel"] = version
        if delta is not None:
            material["delta"] = delta
        if parent is None:
            material["base"] = self.fingerprint()
        return content_key("fabric", material)

    def span(self, name: str, **attributes):
        """A fabric span on the project's tracer (a null context without
        one)."""
        if self.tracer is None:
            return nullcontext(None)
        return self.tracer.span(name, "fabric", design=self.netlist.name,
                                **attributes)

    def run_stage(self, stage: str, parent: Optional[str], codec,
                  compute: Callable[[], Any],
                  options: Optional[Dict[str, Any]] = None,
                  delta: Optional[List[Dict[str, Any]]] = None,
                  span: Optional[str] = None,
                  attributes: Optional[Dict[str, Any]] = None,
                  describe: Optional[Callable[[Any], Dict[str, Any]]]
                  = None, root: bool = False) -> Any:
        """Run one stage: ``compute()`` through the cache when one is
        attached, under the stage key of (``stage``, ``parent``,
        ``delta``, ``options``), inside span ``span`` (default: the
        stage name) opened with ``attributes``.  ``codec`` revives and
        persists the value (``from_json``/``to_json``); ``describe``
        maps it to the span's result attributes.

        Only a ``root`` stage, which runs on the flow inputs alone, is
        keyed without a ``parent``.  Any other stage without a parent key
        (its upstream result was computed before a cache was attached) is
        not keyed: the key would hold the design but not the placement or
        base result the stage ran on.
        """
        options = options or {}
        key = (self.stage_key(stage, parent, delta, **options)
               if self.cache is not None
               and (parent is not None or root) else None)
        with self.span(span or stage, **(attributes or {})) as live:
            hit, value = (self.cache.get("fabric", key, codec.from_json)
                          if key is not None else (False, None))
            if not hit:
                value = compute()
                if key is not None:
                    self.cache.put("fabric", key, value, codec.to_json)
            if live is not None and describe is not None:
                live.attributes.update(describe(value))
        self.stage_keys[stage] = key
        return value

    def _check(self, problems: List[str]) -> None:
        if problems:
            raise FlowError(f"netlist check failed: {problems[0]}")
        stats = self._stats
        if not self.device.fits(stats["luts"], stats["ffs"], stats["dsps"],
                                stats["brams"]):
            raise FlowError(
                f"{self.netlist.name} does not fit {self.device.name}: "
                f"{stats}")

    # -- flow steps (paper Fig. 3) ----------------------------------------

    def run_place(self, effort: float = 1.0) -> PlacementResult:
        stats = self._stats
        self.placement = self.run_stage(
            "place", None, PlacementResult,
            lambda: place(self.netlist, self.device, seed=self.seed,
                          effort=effort, tracer=self.tracer),
            options={"effort": effort},
            attributes={"effort": effort,
                        "cells": stats["luts"] + stats["ffs"]},
            describe=_placement_attributes, root=True)
        return self.placement

    def run_route(self, channel_width: int = DEFAULT_CHANNEL_WIDTH
                  ) -> RoutingResult:
        if self.placement is None:
            self.run_place()
        self.routing = self.run_stage(
            "route", self.stage_keys.get("place"), RoutingResult,
            lambda: route(self.netlist, self.placement.locations,
                          self.placement.grid, channel_width=channel_width,
                          tracer=self.tracer),
            options={"channel_width": channel_width},
            attributes={"channel_width": channel_width},
            describe=lambda routing: {
                "wirelength": routing.wirelength,
                "overflow_edges": routing.overflow_edges,
                "expanded_nodes": routing.expanded_nodes,
                "ripped_connections": routing.ripped_connections})
        return self.routing

    def run_sta(self, target_clock_ns: Optional[float] = None
                ) -> TimingReport:
        locations = (self.placement.locations
                     if self.placement is not None else None)
        self.timing = self.run_stage(
            "sta",
            self.stage_keys.get("route") or self.stage_keys.get("place"),
            TimingReport,
            lambda: analyze_timing(self.netlist, self.device,
                                   target_clock_ns=target_clock_ns,
                                   routing=self.routing,
                                   locations=locations),
            options={"target_clock_ns": target_clock_ns,
                     "routed": self.routing is not None,
                     "placed": self.placement is not None},
            describe=_timing_attributes, root=locations is None)
        return self.timing

    def run_bitstream(self) -> Bitstream:
        if self.placement is None:
            self.run_place()
        self.bitstream = self.run_stage(
            "bitstream", self.stage_keys.get("place"), Bitstream,
            lambda: generate_bitstream(
                self.netlist, self.placement.locations,
                self.placement.grid, self.device.name, seed=self.seed),
            describe=lambda bitstream: {
                "total_bits": bitstream.total_bits,
                "essential_bits": bitstream.essential_bits})
        return self.bitstream

    def estimate_power(self, clock_mhz: float) -> PowerReport:
        """Activity-based dynamic power plus device static power.

        dynamic = cells × ``_TOGGLE_RATE`` × energy-per-toggle × f.
        BRAM/DSP cells weigh ~20× a LUT toggle (wide datapaths behind one
        cell object).
        """
        stats = self._stats
        weighted = (stats["luts"] + stats["ffs"] * 0.6
                    + stats["dsps"] * 20 + stats["brams"] * 20)
        dynamic_mw = (weighted * _TOGGLE_RATE * self.device.lut_energy_pj
                      * clock_mhz * 1e-6)
        # Static power scales with the occupied fraction of the die.
        occupancy = max(stats["luts"] / self.device.luts, 0.01)
        static_mw = self.device.static_mw * (0.25 + 0.75 * occupancy)
        return PowerReport(dynamic_mw=dynamic_mw, static_mw=static_mw)

    def run_all(self, target_clock_ns: float = 10.0,
                effort: float = 1.0,
                channel_width: int = DEFAULT_CHANNEL_WIDTH) -> FlowReport:
        """Complete flow: place → route → STA → bitstream → report.

        Each stage keeps its own cache lookups; a cancelled job
        stops between stages.
        """
        self.run_place(effort=effort)
        check_cancelled()
        self.run_route(channel_width=channel_width)
        check_cancelled()
        self.run_sta(target_clock_ns=target_clock_ns)
        check_cancelled()
        self.run_bitstream()
        return self.report(target_clock_ns)

    def report(self, target_clock_ns: Optional[float] = None) -> FlowReport:
        stats = dict(self._stats)
        clock_mhz = (self.timing.fmax_mhz if self.timing
                     else 1000.0 / (target_clock_ns or 10.0))
        return FlowReport(
            device=self.device.name,
            stats=stats,
            utilization=self.device.utilization(
                stats["luts"], stats["ffs"], stats["dsps"], stats["brams"]),
            placement=self.placement,
            routing=self.routing,
            timing=self.timing,
            power=self.estimate_power(min(clock_mhz, 1000.0)),
            bitstream_bits=self.bitstream.total_bits if self.bitstream else 0,
            essential_bits=(self.bitstream.essential_bits
                            if self.bitstream else 0),
        )


def generate_backend_script(design_name: str, device: Device | str,
                            target_clock_ns: float,
                            verilog_files: Optional[list] = None) -> str:
    """The NXmap backend script Bambu emits for its NXmap integration.

    Mirrors the NXmap python API surface: createProject, setVariantName,
    addFiles, setOption, synthesize/place/route, STA and bitstream
    generation.
    """
    device = get_device(device) if isinstance(device, str) else device
    files = verilog_files or [f"{design_name}.v"]
    lines = [
        "# Backend synthesis script automatically generated by the",
        "# HERMES HLS flow (Bambu -> NXmap integration, paper Fig. 3)",
        "from nxmap import createProject",
        "",
        f"project = createProject('{design_name}')",
        f"project.setVariantName('{device.name}')",
    ]
    for file_name in files:
        lines.append(f"project.addFiles('rtl', ['{file_name}'])")
    lines += [
        f"project.setTopCellName('{design_name}')",
        f"project.createClock('clk', period_ns={target_clock_ns})",
        "project.setOption('MappingEffort', 'High')",
        "project.setOption('RoutingEffort', 'High')",
        "project.synthesize()",
        "project.place()",
        "project.route()",
        "project.reportInstances()",
        "project.staReport('sta.rpt')",
        f"project.generateBitstream('{design_name}.nxb')",
        "project.save()",
    ]
    return "\n".join(lines) + "\n"
