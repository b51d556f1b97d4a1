"""ECO work counts: the deterministic twin of the 1% speed gate.

``benchmarks/bench_flow_eco.py`` gates the ECO flow on wall-clock
speedup over a cold re-run at a 1% edit of a 10k-cell design.  This
test states what that gate stands for as exact work counts: at a 1%
``random_delta`` of a ~2k-cell ``synthesize_random`` design, every walk
an edit makes outside its kernels (the A* search, the anneal, the STA
cone) stays below a tenth of the design, and the counts are pinned per
seed.  The counters (see ``EcoFlow``):

* ``eco.validate.visited`` — nets and cells the edit's validation read;
* ``eco.place.sites_scanned`` — sites the warm start looked at;
* ``eco.route.nets_visited`` — nets the delta route's set-up checked and
  its rip-up scans read;
* ``eco.sta.cells_visited`` — cells levelized and ranked endpoints read
  by the cone STA;
* ``eco.bitstream.tiles`` — tiles rebuilt by ``update_bitstream``.

Making any of these walks cover the whole design again (rebuilding the
site map cell by cell, checking every warm net, scanning every tree for
rip-up, levelizing every cell, linting the whole comb graph) breaks the
bound.  A pin mismatch means the edit's work changed: re-pin with a
reason.
"""

import pytest

from repro.fabric import (
    NG_ULTRA,
    EcoFlow,
    NetlistDelta,
    NXmapProject,
    random_delta,
    scaled_device,
    synthesize_random,
)
from repro.telemetry import Tracer

CELLS = 2000
FRACTION = 0.01
EFFORT = 0.2
#: The base routes legally at this width and the edits stay near it:
#: seed 2's edit overflows channels, so its route rips up (and the rip-up
#: scan is counted), seeds 1 and 3 route in one pass.  At narrower widths
#: an edit's overflow cascade itself rips more nets than the bound.
CHANNEL_WIDTH = 44

WALKS = ("eco.validate.visited", "eco.place.sites_scanned",
         "eco.route.nets_visited", "eco.sta.cells_visited",
         "eco.bitstream.tiles")
#: The kernel's own rip-up count, pinned alongside the walks.
RIPPED = "route.ripup.connections"

#: Seed 1's counts are unchanged since they were first pinned.  Seed 2's
#: base has four nets whose warm trees are rooted off their first path:
#: they fit, so the route neither re-routes them on every edit nor scans
#: them on every rip-up pass; it checks and scans 127 nets, not 138, and
#: its cascade, which starts from other channel usage, rips 186
#: connections, not 190.  The cone STA reads
#: the ranked base endpoints only while one could still beat the best
#: recomputed endpoint: seed 2's cone (now every net the route re-routed)
#: recomputes most top-ranked endpoints, and the read stops after 2 of
#: them, not 125 (34 cells visited, not 157); seed 3 reads 0, not 2 (30,
#: not 32).
PINNED = {
    1: {"eco.validate.visited": 36, "eco.place.sites_scanned": 24,
        "eco.route.nets_visited": 34, "eco.sta.cells_visited": 24,
        "eco.bitstream.tiles": 21, RIPPED: 0},
    2: {"eco.validate.visited": 43, "eco.place.sites_scanned": 61,
        "eco.route.nets_visited": 127, "eco.sta.cells_visited": 34,
        "eco.bitstream.tiles": 20, RIPPED: 186},
    3: {"eco.validate.visited": 41, "eco.place.sites_scanned": 34,
        "eco.route.nets_visited": 36, "eco.sta.cells_visited": 30,
        "eco.bitstream.tiles": 21, RIPPED: 0},
}


def edit_counts(seed):
    netlist = synthesize_random(CELLS, seed=seed)
    project = NXmapProject(netlist, scaled_device(NG_ULTRA, "NG-ULTRA-T",
                                                  luts=16_000), seed=1)
    project.run_place(effort=EFFORT)
    project.run_route(channel_width=CHANNEL_WIDTH)
    EcoFlow(project, NetlistDelta()).prepare_base(
        effort=EFFORT, channel_width=CHANNEL_WIDTH)
    project.tracer = Tracer()
    EcoFlow(project, random_delta(netlist, FRACTION, seed=seed)).run(
        target_clock_ns=200.0, effort=EFFORT, channel_width=CHANNEL_WIDTH)
    counters = project.tracer.counters
    return netlist, {name: counters[name].value for name in WALKS + (RIPPED,)}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_one_percent_edit_walks_a_tenth_of_the_design(seed):
    netlist, counts = edit_counts(seed)
    bound = min(len(netlist.cells), len(netlist.nets)) // 10
    assert all(counts[name] <= bound for name in WALKS), (bound, counts)
    assert counts == PINNED[seed]
