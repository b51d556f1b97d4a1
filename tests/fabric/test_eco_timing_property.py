"""Property test: an ECO edit's results equal the from-scratch oracles.

Over generated designs (``synthesize_random``), channel widths that
include congested ones, and sequences of generated edits
(``random_delta``), each run by ``EcoFlow`` on the implemented design the
edit before it left:

* the ECO ``TimingReport`` JSON equals a full ``analyze_timing`` of the
  edited design on the ECO placement and routing, byte for byte: the
  cone STA is seeded with the nets the edit touched and those the delta
  route re-routed (the overflow cascade's included) to another length;
* every ECO route tree connects its driver to each of its sinks, unless
  a connection failed;
* the tracked HPWL equals ``total_hpwl``.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_route_delta_property import misfits

from repro.fabric import (
    NG_ULTRA,
    EcoFlow,
    NXmapProject,
    analyze_timing,
    random_delta,
    scaled_device,
    synthesize_random,
)
from repro.fabric.placement import total_hpwl

TARGET_CLOCK_NS = 20.0


def canonical(report):
    return json.dumps(report.to_json(), sort_keys=True)


def implemented(flow, device):
    """The edited design of ``flow`` as the base of the next edit."""
    project = NXmapProject(flow.netlist, device, seed=1)
    project.placement, project.routing, project.bitstream = \
        flow.placement, flow.routing, flow.bitstream
    return project


@settings(max_examples=30, deadline=None)
@given(n_cells=st.integers(min_value=40, max_value=300),
       design_seed=st.integers(min_value=0, max_value=1 << 16),
       effort=st.sampled_from([0.05, 0.3]),
       channel_width=st.integers(min_value=2, max_value=16),
       edits=st.lists(st.tuples(st.sampled_from([0.002, 0.01, 0.05]),
                                st.integers(min_value=0, max_value=1 << 16)),
                      min_size=1, max_size=3,
                      unique_by=lambda edit: edit[1]))
# The 0.28 ns class of error: the overflow cascade re-routed nets the
# cone STA was not told about (12.2712 ns against the full 12.2657 ns).
@example(n_cells=300, design_seed=5, effort=0.3, channel_width=6,
         edits=[(0.05, 2)])
def test_eco_results_equal_the_oracles(n_cells, design_seed, effort,
                                       channel_width, edits):
    device = scaled_device(NG_ULTRA, "NG-ULTRA-T", luts=4096)
    project = NXmapProject(synthesize_random(n_cells, seed=design_seed),
                           device, seed=1)
    project.run_place(effort=effort)
    project.run_route(channel_width=channel_width)
    for fraction, seed in edits:
        flow = EcoFlow(project, random_delta(project.netlist, fraction,
                                             seed=seed))
        flow.run(target_clock_ns=TARGET_CLOCK_NS, effort=effort,
                 channel_width=channel_width)
        edited, placement, routing = flow.netlist, flow.placement, \
            flow.routing
        full = analyze_timing(edited, device,
                              target_clock_ns=TARGET_CLOCK_NS,
                              routing=routing,
                              locations=placement.locations)
        assert canonical(flow.timing) == canonical(full)
        unfit, _connections = misfits(routing, edited, placement)
        assert len(unfit) <= routing.failed_connections, unfit[:5]
        assert placement.hpwl == total_hpwl(edited, placement.locations)
        project = implemented(flow, device)
