"""Edit-sequence independence: edits share one base and leave it intact.

``eco_edits`` and the job service run many edits on one implemented
base, and every edit reads the state ``EcoFlow.prepare_base`` derived
from it once (``NXmapProject.eco_base``: the site map, the warm route
index, the cone-STA ranking).  Run in sequence on one base, each edit
must report byte for byte what it reports on a freshly prepared base,
and after the sequence the base project's netlist, placement, routing
and STA state must be what they were before it.  The cone STA's merged
state, a view over the shared base state, must read as a full analysis
of the edited design.
"""

import json

import pytest

from repro.cache import FlowCache, netlist_fingerprint
from repro.fabric import (
    NG_ULTRA,
    EcoFlow,
    NetlistDelta,
    NXmapProject,
    ReconnectInput,
    RemoveCell,
    analyze_timing_cone,
    analyze_timing_state,
    eco_place,
    random_delta,
    route,
    scaled_device,
    synthesize_random,
)
from repro.fabric.eco import EcoBase

CELLS = 300
EFFORT = 0.3
CHANNEL_WIDTH = 6


def canonical(value):
    return json.dumps(value.to_json(), sort_keys=True)


def base_project(cache=None):
    project = NXmapProject(synthesize_random(CELLS, seed=5),
                           scaled_device(NG_ULTRA, "NG-ULTRA-T", luts=4096),
                           seed=1, cache=cache)
    project.run_place(effort=EFFORT)
    project.run_route(channel_width=CHANNEL_WIDTH)
    return project


def removal(netlist):
    """Remove a combinational cell after moving its sinks' pins onto a
    register output: a legal edit that frees a site."""
    source = next(name for name, net in sorted(netlist.nets.items())
                  if net.driver is not None
                  and netlist.cells[net.driver].is_sequential)
    victim = next(cell for name, cell in sorted(netlist.cells.items())
                  if not cell.is_sequential and cell.output is not None
                  and cell.output not in netlist.outputs
                  and netlist.nets[cell.output].sinks)
    ops = []
    for sink in sorted(set(netlist.nets[victim.output].sinks)):
        for index, net_name in enumerate(netlist.cells[sink].inputs):
            if net_name == victim.output:
                ops.append(ReconnectInput(cell=sink, index=index,
                                          net=source))
    return NetlistDelta(ops=tuple(ops) + (RemoveCell(name=victim.name),))


def deltas(netlist):
    edits = [random_delta(netlist, fraction, seed=seed)
             for fraction, seed in ((0.01, 1), (0.05, 2), (0.01, 3),
                                    (0.1, 4))]
    edits.insert(2, removal(netlist))
    return edits


def run(project, delta):
    flow = EcoFlow(project, delta)
    report = flow.run(target_clock_ns=20.0, effort=EFFORT,
                      channel_width=CHANNEL_WIDTH)
    return canonical(report), canonical(flow.routing)


@pytest.mark.parametrize("cache", [False, True])
def test_edits_in_sequence_match_fresh_bases(cache):
    project = base_project(FlowCache() if cache else None)
    EcoFlow(project, NetlistDelta()).prepare_base(
        effort=EFFORT, channel_width=CHANNEL_WIDTH)
    state = project.eco_base.state
    before = (netlist_fingerprint(project.netlist),
              canonical(project.placement), canonical(project.routing),
              canonical(state))

    edits = deltas(project.netlist)
    in_sequence = [run(project, delta) for delta in edits]
    fresh = [run(base_project(), delta) for delta in edits]
    for index, (one, other) in enumerate(zip(in_sequence, fresh)):
        assert one == other, index

    after = (netlist_fingerprint(project.netlist),
             canonical(project.placement), canonical(project.routing),
             canonical(state))
    assert after == before


def test_cone_merged_state_reads_as_the_full_state():
    # The merged state is a view over the shared base state: it must
    # read as a full analysis of the edited design (its levels only need
    # to be topological) and leave the base state as it was.
    project = base_project()
    placement, routing = project.placement, project.routing
    prepared = EcoBase.of(project)
    state = prepared.state
    before = canonical(state)
    for delta in deltas(project.netlist):
        edited, impact = delta.apply(project.netlist)
        eco = eco_place(edited, project.device, placement,
                        set(impact.changed_cells), seed=1, effort=EFFORT,
                        warm=prepared.placement)
        moved = {name for name, tile in eco.locations.items()
                 if placement.locations.get(name) != tile}
        rerouted = route(edited, eco.locations, eco.grid,
                         channel_width=CHANNEL_WIDTH,
                         warm=prepared.routing)
        # The cone's contract: every net whose routed length changed,
        # the overflow cascade's included, is one the route re-routed.
        assert {name for name in edited.nets
                if rerouted.route_length(name)
                != routing.route_length(name)} <= rerouted.rerouted
        _cone, merged, _size = analyze_timing_cone(
            edited, project.device, state,
            changed_cells=set(impact.changed_cells) | moved,
            changed_nets=rerouted.rerouted | impact.touched_nets,
            routing=rerouted, locations=eco.locations,
            prepared=prepared.timing)
        _full, full = analyze_timing_state(
            edited, project.device, routing=rerouted,
            locations=eco.locations)
        for name in ("arrivals", "parents", "endpoint_delays",
                     "endpoint_sources"):
            assert dict(getattr(merged, name)) == getattr(full, name), name
        assert set(merged.levels) == set(full.levels)
        for name, cell in edited.cells.items():
            if cell.output is None or cell.is_sequential:
                continue
            for sink in edited.nets[cell.output].sinks:
                if not edited.cells[sink].is_sequential:
                    assert merged.levels[sink] > merged.levels[name]
    assert canonical(state) == before
