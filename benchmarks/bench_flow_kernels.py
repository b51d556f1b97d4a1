"""Incremental physical-implementation kernels: QoR gates.

Places and routes a synthetic ~10k-cell design and the three Fig. 3 HLS
designs with the incremental kernels, and bounds their quality against
the full-recompute kernels they replaced.  Those old kernels are gone;
their results at the same settings (seed 1) are pinned in
``OLD_KERNELS``.  Gates:

* HPWL and routed wirelength within 5% of the old kernels on the large
  design (the tree-shared router is typically *shorter* — fanout edges
  are paid for once), no more overflowing edges than they had;
* zero failed connections, and routing success preserved, on every
  design.

The ``w_min`` column is each placement's minimum routable channel width,
found by VPR's binary search over the width (Betz & Rose, 1997): the
QoR number a placement change must not make worse.

The old ≥3x wall-clock race needed the old code to run; its last table
is frozen in EXPERIMENTS.md.  The kernels' performance net is now the
repository benchmark's ``compile_cold`` and ``eco_edits`` workloads
(``python3 perfbench/run_bench.py --compare``).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import save_table

from repro.apps import image, sdr
from repro.core import Table
from repro.fabric import NG_ULTRA, place, route, scaled_device, \
    synthesize_design, synthesize_random
from repro.hls import synthesize

DESIGNS = {
    "sobel": (image.SOBEL_C, "sobel"),
    "fir8": (sdr.FIR_C, "fir8"),
    "median3": (image.MEDIAN3_C, "median3"),
}

#: Large-design configuration, the settings the old kernels were pinned
#: at: low effort kept the old annealer's wall time sane; the channel
#: width is sized so the tree-shared router fits comfortably while the
#: old per-sink duplicate driver paths still overflowed.
LARGE_CELLS = 10_000
LARGE_EFFORT = 0.1
LARGE_CHANNEL_WIDTH = 256

#: The replaced kernels (full-recompute annealer, full-reroute
#: negotiation, per-sink driver paths) at these settings, seed 1:
#: design -> (hpwl, routed wirelength, overflow_edges,
#: failed_connections, routing success).
OLD_KERNELS = {
    "synth10k": (230943.0, 449306, 698, 0, False),
    "sobel": (4487.0, 28519, 418, 0, False),
    "fir8": (945.0, 6848, 124, 0, False),
    "median3": (544.0, 5210, 112, 0, False),
}


def synth_large(n_cells=LARGE_CELLS, seed=7):
    """A ~10k-cell LUT/FF design with window-local random connectivity,
    the scale of the DSP workloads Leon et al. map onto NG-ULTRA."""
    return synthesize_random(n_cells, seed=seed)


def fig3_netlists():
    for name, (source, top) in DESIGNS.items():
        project = synthesize(source, top, clock_ns=8.0)
        yield name, synthesize_design(project[top], project.module[top])


def min_channel_width(netlist, placement, start):
    """The least channel width at which ``route()`` ends legal (no
    overflowed edge, no failed connection): double ``start`` until a
    width routes, then bisect the bracket."""
    def routable(width):
        return route(netlist, placement.locations, placement.grid,
                     channel_width=width).success

    low, high = 0, start
    while not routable(high):
        low, high = high, high * 2
    while high - low > 1:
        middle = (low + high) // 2
        if routable(middle):
            high = middle
        else:
            low = middle
    return high


def implement(name, netlist, device, effort, channel_width):
    """Place and route one design; return its metrics vs the old kernels."""
    start = time.perf_counter()
    placement = place(netlist, device, seed=1, effort=effort)
    routing = route(netlist, placement.locations, placement.grid,
                    channel_width=channel_width)
    old_hpwl, old_wl, old_overflow, old_failed, old_success = \
        OLD_KERNELS[name]
    return {
        "place": placement, "route": routing,
        "seconds": time.perf_counter() - start,
        "old_overflow": old_overflow, "old_failed": old_failed,
        "old_success": old_success,
        "hpwl_ratio": placement.hpwl / max(1.0, old_hpwl),
        "wl_ratio": routing.wirelength / max(1, old_wl),
        "w_min": min_channel_width(netlist, placement, channel_width),
    }


def run_kernel_gates():
    device = scaled_device(NG_ULTRA, "BENCH", luts=64_000)
    table = Table(
        "Incremental place/route kernels vs the pinned pre-change QoR",
        ["design", "cells", "seconds", "hpwl_ratio", "wl_ratio",
         "overflow", "old_overflow", "failed", "w_min"])
    designs = [("synth10k", synth_large(), LARGE_EFFORT,
                LARGE_CHANNEL_WIDTH)]
    designs += [(name, netlist, 0.2, 16)
                for name, netlist in fig3_netlists()]
    results = {}
    for name, netlist, effort, channel_width in designs:
        stats = netlist.stats()
        metrics = implement(name, netlist, device, effort, channel_width)
        results[name] = metrics
        table.add_row(name, stats["luts"] + stats["ffs"],
                      round(metrics["seconds"], 2),
                      round(metrics["hpwl_ratio"], 4),
                      round(metrics["wl_ratio"], 4),
                      metrics["route"].overflow_edges,
                      metrics["old_overflow"],
                      metrics["route"].failed_connections,
                      metrics["w_min"])
    table.add_note("ratios are against the replaced kernels' results, "
                   "pinned in OLD_KERNELS (seed 1)")
    table.add_note(f"large design: effort={LARGE_EFFORT}, "
                   f"channel_width={LARGE_CHANNEL_WIDTH}; Fig. 3 designs: "
                   "effort=0.2, channel_width=16")
    return table, results


def test_flow_kernels(benchmark):
    table, results = benchmark.pedantic(run_kernel_gates, rounds=1,
                                        iterations=1)
    save_table(table, "flow_kernels")

    large = results["synth10k"]
    # QoR parity: within 5% of the old kernels on both objectives.
    assert large["hpwl_ratio"] <= 1.05
    assert large["wl_ratio"] <= 1.05
    assert large["route"].failed_connections == 0
    # The shared-tree router must not make congestion worse.
    assert large["route"].overflow_edges <= large["old_overflow"]

    for name in DESIGNS:
        metrics = results[name]
        # Routing success preserved on every Fig. 3 design.
        assert metrics["route"].failed_connections == 0, name
        assert metrics["old_failed"] == 0, name
        if metrics["old_success"]:
            assert metrics["route"].success, name
        # The 5% parity gate applies to the large design; tiny grids
        # (8x8-15x15) carry a few percent of annealing seed noise, so
        # only guard against genuine regressions here.
        assert metrics["hpwl_ratio"] <= 1.15, name
        assert metrics["wl_ratio"] <= 1.05, name
