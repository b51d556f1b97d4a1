"""Differential property test: delta routing against a cold route.

Over generated designs (``synthesize_random``) and generated edits
(``random_delta``, warm-start placed by ``eco_place``):

* delta routing with every net named in ``reroute_nets`` tears up every
  warm tree, so it must equal a cold ``route()`` of the edited design
  byte for byte (``to_json``);
* the channel usage a result reports (``edge_usage``) is exactly the
  occupancy of the paths it reports — after a cold route, after that
  full warm re-route, and after a delta route that re-routes only the
  edit's touched nets (so warm trees are kept, subtracted and ripped).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import (
    NG_ULTRA,
    eco_place,
    place,
    random_delta,
    route,
    scaled_device,
    synthesize_random,
)
from repro.fabric.routing import _usage_of_paths


def small_device():
    return scaled_device(NG_ULTRA, "NG-ULTRA-TEST", luts=4096)


def canonical(result):
    return json.dumps(result.to_json(), sort_keys=True)


def usage_of_routes(result):
    return _usage_of_paths(path for paths in result.routes.values()
                           for path in paths)


@settings(max_examples=20, deadline=None)
@given(n_cells=st.integers(min_value=40, max_value=300),
       design_seed=st.integers(min_value=0, max_value=1 << 16),
       fraction=st.sampled_from([0.002, 0.01, 0.05]),
       delta_seed=st.integers(min_value=0, max_value=1 << 16),
       channel_width=st.integers(min_value=2, max_value=16))
def test_delta_route_matches_cold_route(n_cells, design_seed, fraction,
                                        delta_seed, channel_width):
    device = small_device()
    netlist = synthesize_random(n_cells, seed=design_seed)
    base_place = place(netlist, device, seed=1, effort=0.05)
    base_route = route(netlist, base_place.locations, base_place.grid,
                       channel_width=channel_width)
    edited, impact = random_delta(netlist, fraction,
                                  seed=delta_seed).apply(netlist)
    placement = eco_place(edited, device, base_place,
                          set(impact.changed_cells), seed=delta_seed,
                          effort=0.05)

    cold = route(edited, placement.locations, placement.grid,
                 channel_width=channel_width)
    full = route(edited, placement.locations, placement.grid,
                 channel_width=channel_width, warm=base_route,
                 reroute_nets=set(edited.nets))
    assert canonical(full) == canonical(cold)

    delta = route(edited, placement.locations, placement.grid,
                  channel_width=channel_width, warm=base_route,
                  reroute_nets=set(impact.touched_nets))
    for result in (base_route, cold, full, delta):
        assert result.edge_usage == usage_of_routes(result)
