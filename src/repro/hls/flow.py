"""The HERMES HLS flow facade (the "Bambu" of the reproduction).

``synthesize()`` runs the complete front-end → middle-end → back-end
pipeline of paper Fig. 2 over a HermesC source and returns an
:class:`HlsProject` exposing, per function:

* the optimized IR and its schedule/binding/FSM,
* resource and timing reports (the §V evaluation metrics),
* generated Verilog (and VHDL via ``vhdl.py``),
* cycle-accurate simulation and C-vs-RTL co-simulation.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cache import FlowCache, content_key, library_fingerprint
from ..telemetry import Tracer
from .characterization.library import ComponentLibrary, default_library
from .frontend import compile_to_ir
from .backend.allocation import Allocation, allocate
from .backend.binding import Binding, bind
from .backend.datapath import DatapathReport, build_datapath_report
from .backend.dbt import DbtFsmdSimulator
from .backend.fsm import FSM, build_fsm
from .backend.scheduling import FunctionSchedule, schedule_function
from .backend.simulate import CALL_HANDSHAKE_CYCLES
from .backend.verify import verify_schedule
from .backend.verilog import generate_fp_support_library, generate_verilog
from .ir import Call, Module
from .ir.interp import Interpreter
from .middleend import optimize


class HlsFlowError(Exception):
    pass


@dataclass
class HlsDesign:
    """Synthesis artifacts for one function."""

    name: str
    schedule: FunctionSchedule
    allocation: Allocation
    binding: Binding
    fsm: FSM
    report: DatapathReport
    verilog: str

    @property
    def state_count(self) -> int:
        return self.fsm.state_count

    def static_latency(self) -> Optional[int]:
        return self.schedule.static_latency()


@dataclass
class CosimResult:
    """Outcome of a C-vs-FSMD co-simulation run."""

    match: bool
    expected: object
    actual: object
    cycles: int
    mem_mismatches: List[str] = field(default_factory=list)


class HlsProject:
    """A synthesized module: all designs plus simulation entry points."""

    def __init__(self, module: Module, designs: Dict[str, HlsDesign],
                 top: str, library: ComponentLibrary,
                 clock_ns: float, opt_report) -> None:
        self.module = module
        self.designs = designs
        self.top = top
        self.library = library
        self.clock_ns = clock_ns
        self.opt_report = opt_report

    def __getitem__(self, name: str) -> HlsDesign:
        return self.designs[name]

    @property
    def top_design(self) -> HlsDesign:
        return self.designs[self.top]

    def simulate(self, args: Sequence = (), mems: Optional[Dict] = None,
                 func: Optional[str] = None):
        """Cycle-accurate FSMD simulation; returns (result, trace, mems)."""
        simulator = DbtFsmdSimulator(
            self.module,
            {k: d.schedule for k, d in self.designs.items()},
            {k: d.allocation for k, d in self.designs.items()})
        return simulator.run(func or self.top, args, mems)

    def cosimulate(self, args: Sequence = (), mems: Optional[Dict] = None,
                   func: Optional[str] = None) -> CosimResult:
        """Run the IR interpreter (C semantics) against the FSMD design.

        This is the testbench flow of paper §II: the generated design is
        exercised with the same stimuli as the C model and every output
        (return value and output memories) is compared.
        """
        name = func or self.top
        mems = mems or {}
        golden_mems = {k: list(v) for k, v in mems.items()}
        rtl_mems = {k: list(v) for k, v in mems.items()}
        interp = Interpreter(self.module)
        expected, expected_mem = interp.run(name, args, golden_mems)
        actual, trace, actual_mem = self.simulate(args, rtl_mems, func=name)
        mismatches = []
        for mem_name, golden in expected_mem.items():
            rtl = actual_mem.get(mem_name)
            if rtl is None or rtl.data != golden.data:
                mismatches.append(mem_name)
        match = (expected == actual or _float_close(expected, actual)) \
            and not mismatches
        return CosimResult(match=match, expected=expected, actual=actual,
                           cycles=trace.cycles, mem_mismatches=mismatches)

    def profile(self, args: Sequence = (), mems: Optional[Dict] = None,
                func: Optional[str] = None, top_blocks: int = 8) -> str:
        """Run and report where the cycles go (hot-block profile).

        The HLS analogue of a profiler: identifies the loop bodies that
        dominate latency so the user knows where to apply unrolling,
        allocation or dataflow pragmas (the tool-usability metric of the
        paper's §V evaluation).
        """
        _result, trace, _m = self.simulate(args, mems, func=func)
        lines = [f"profile — {func or self.top}: {trace.cycles} cycles, "
                 f"{trace.mem_reads} reads, {trace.mem_writes} writes"]
        for fn, block, cycles, visits in trace.hot_blocks(top_blocks):
            share = cycles / max(1, trace.cycles)
            lines.append(f"  {share:6.1%}  {fn}/{block:<16} "
                         f"{cycles:>8} cycles in {visits} visits")
        return "\n".join(lines)

    def verilog_files(self) -> Dict[str, str]:
        """All generated RTL, keyed by file name."""
        files = {f"{name}.v": design.verilog
                 for name, design in self.designs.items()}
        files["hermes_fp_lib.vh"] = generate_fp_support_library()
        return files

    def resource_summary(self) -> Dict[str, Dict[str, int]]:
        summary = {}
        for name, design in self.designs.items():
            area = design.report.area
            summary[name] = {"luts": area.luts, "ffs": area.ffs,
                             "dsps": area.dsps, "brams": area.brams,
                             "states": design.state_count}
        return summary


def _float_close(a, b) -> bool:
    try:
        return abs(float(a) - float(b)) <= 1e-5 * max(1.0, abs(float(a)))
    except (TypeError, ValueError):
        return False


def _call_order(module: Module, top: str) -> List[str]:
    """Callees before callers (reverse topological over the call graph)."""
    order: List[str] = []
    visiting: Dict[str, int] = {}

    def visit(name: str) -> None:
        state = visiting.get(name, 0)
        if state == 2:
            return
        if state == 1:
            raise HlsFlowError(f"recursive call cycle through {name!r}")
        visiting[name] = 1
        for op in module[name].all_ops():
            if isinstance(op, Call) and op.callee in module.functions:
                visit(op.callee)
        visiting[name] = 2
        order.append(name)

    visit(top)
    # Any functions not reachable from top still get synthesized last.
    for name in module.functions:
        if visiting.get(name, 0) != 2:
            visit(name)
    return order


def synthesize(source: str, top: str, clock_ns: float = 10.0,
               opt_level: int = 2,
               library: Optional[ComponentLibrary] = None,
               scheduling: str = "list",
               axi_read_latency: Optional[int] = None,
               tracer: Optional[Tracer] = None,
               cache: Optional[FlowCache] = None) -> HlsProject:
    """Run the full HLS flow on HermesC source text (frontend →
    middle-end → per-function backend).

    ``axi_read_latency`` overrides the characterized AXI round-trip cycles
    (paper §II: "memory delay estimates can also be configured to assess
    the performance of the application").  ``tracer`` records one span per
    pipeline stage (frontend, middle-end, per-function backend steps).
    ``cache`` short-circuits the whole pipeline when the same source has
    already been synthesized with the same options: the key covers the
    source text, top name, clock, optimization level, scheduler, AXI
    latency override and the component library's content.  HLS projects
    carry live IR objects with no JSON codec, so this layer only uses the
    in-memory tier — a warm process skips re-synthesis, a fresh process
    re-runs the (deterministic) flow.
    """
    key = None
    if cache is not None:
        key = content_key("hls", {
            "source": source, "top": top, "clock_ns": clock_ns,
            "opt_level": opt_level, "scheduling": scheduling,
            "axi_read_latency": axi_read_latency,
            "library": (library_fingerprint(library)
                        if library is not None else None)})
        hit, project = cache.get("hls", key)
        if hit:
            return project

    def stage(name: str, **attributes):
        if tracer is None:
            return nullcontext(None)
        return tracer.span(name, "hls", **attributes)

    with stage("frontend") as span:
        module = compile_to_ir(source)
        if span is not None:
            span.attributes["functions"] = len(module.functions)
    if top not in module.functions:
        raise HlsFlowError(f"top function {top!r} not found")
    with stage("optimize", level=opt_level):
        opt_report = optimize(module, level=opt_level)
    library = library or default_library()
    if axi_read_latency is not None:
        library = _with_axi_latency(library, axi_read_latency)

    designs: Dict[str, HlsDesign] = {}
    call_latency: Dict[str, int] = {}
    for name in _call_order(module, top):
        func = module[name]
        with stage(f"backend:{name}") as backend_span:
            with stage("allocate"):
                allocation = allocate(func, library=library,
                                      clock_ns=clock_ns,
                                      call_latency=call_latency)
            with stage("schedule", algorithm=scheduling):
                schedule = schedule_function(func, allocation,
                                             algorithm=scheduling)
            problems = verify_schedule(schedule, allocation)
            if problems:
                raise HlsFlowError(
                    f"illegal schedule for {name}: "
                    f"{'; '.join(problems[:5])}")
            with stage("bind"):
                binding = bind(schedule, allocation)
            with stage("fsm"):
                fsm = build_fsm(schedule)
            report = build_datapath_report(func, schedule, binding,
                                           allocation, fsm, library)
            with stage("verilog"):
                verilog = generate_verilog(func, schedule, binding, fsm,
                                           module)
            if backend_span is not None:
                backend_span.attributes.update(
                    states=fsm.state_count, luts=report.area.luts,
                    ffs=report.area.ffs, dsps=report.area.dsps,
                    latency=schedule.static_latency())
        designs[name] = HlsDesign(name=name, schedule=schedule,
                                  allocation=allocation, binding=binding,
                                  fsm=fsm, report=report, verilog=verilog)
        static = schedule.static_latency()
        estimate = static if static is not None else schedule.total_states
        call_latency[name] = max(1, estimate + CALL_HANDSHAKE_CYCLES)
    project = HlsProject(module=module, designs=designs, top=top,
                         library=library, clock_ns=clock_ns,
                         opt_report=opt_report)
    if cache is not None and key is not None:
        cache.put("hls", key, project)
    return project


def _with_axi_latency(library: ComponentLibrary,
                      cycles: int) -> ComponentLibrary:
    """Clone a library, overriding the mem_axi round-trip latency."""
    from .characterization.library import ComponentRecord
    clone = ComponentLibrary(name=f"{library.name}-axi{cycles}")
    for record in library.records():
        if record.resource_class == "mem_axi":
            clone.add(ComponentRecord(
                resource_class="mem_axi", width=record.width,
                stages=max(1, cycles), delay_ns=record.delay_ns,
                luts=record.luts, ffs=record.ffs, dsps=record.dsps,
                brams=record.brams))
        else:
            clone.add(record)
    return clone
