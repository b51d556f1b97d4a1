"""Fig. 3 — the NXmap design flow (synthesis → place → route → bitstream).

Runs HLS-generated designs through every backend step and reports the
per-step metrics a flow report exposes; asserts internal consistency
(resources conserved, routing complete, timing positive, bitstream
sealed).  The overflow column shows how many channel edges the router
left over capacity; no gate checks it yet.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import save_table

from repro.apps import image, sdr
from repro.core import HermesProject, Table

DESIGNS = {
    "sobel": (image.SOBEL_C, "sobel"),
    "fir8": (sdr.FIR_C, "fir8"),
    "median3": (image.MEDIAN3_C, "median3"),
}


def run_flow():
    table = Table(
        "Fig. 3 — NXmap flow metrics per design",
        ["design", "LUTs", "FFs", "DSPs", "BRAMs", "HPWL", "wirelen",
         "congestion", "overflow", "Fmax_MHz", "bitstream_kb",
         "essential_frac"])
    reports = {}
    project = HermesProject(clock_ns=8.0)
    for name, (source, top) in DESIGNS.items():
        accelerator = project.build_accelerator(source, top, effort=0.2)
        flow = accelerator.flow
        table.add_row(
            name, flow.stats["luts"], flow.stats["ffs"],
            flow.stats["dsps"], flow.stats["brams"],
            round(flow.placement.hpwl, 0), flow.routing.wirelength,
            flow.routing.max_congestion, flow.routing.overflow_edges,
            round(flow.timing.fmax_mhz, 1),
            round(flow.bitstream_bits / 8192, 1),
            round(flow.essential_bits / max(1, flow.bitstream_bits), 3))
        reports[name] = flow
    table.add_note("flow steps of paper Fig. 3: synthesize, place, route, "
                   "STA, bitstream generation")
    return table, reports


def test_fig3_nxmap_flow(benchmark):
    table, reports = benchmark.pedantic(run_flow, rounds=1, iterations=1)
    save_table(table, "fig3_nxmap_flow")
    for name, flow in reports.items():
        # Synthesis produced logic; placement improved the netlist.
        assert flow.stats["luts"] > 0
        assert flow.placement.improvement >= 0
        # Routing completed without failures.
        assert flow.routing.failed_connections == 0
        # STA is meaningful and the bitstream is sealed and non-trivial.
        assert flow.timing.fmax_mhz > 10
        assert flow.bitstream_bits > 1000
        assert 0 < flow.essential_bits < flow.bitstream_bits
    # A bigger design costs more configuration bits. Sobel is the largest.
    assert reports["sobel"].stats["luts"] > reports["median3"].stats["luts"]
