"""Differential property test: delta routing against a cold route.

Over generated designs (``synthesize_random``) and generated edits
(``random_delta``, warm-start placed by ``eco_place``):

* the channel usage a result reports (``edge_usage``) is exactly the
  occupancy of the paths it reports — after a cold route and after a
  delta route (where warm trees are kept, subtracted and ripped);
* a delta route fits the edited design computed from scratch: every
  net's paths connect its driver to each of its sinks (``_connections``
  over all of the edited nets) unless a connection failed, no net
  without connections keeps paths, and the routed plus failed
  connections are all of them.
  The delta route checks only the nets the edit could have made stale,
  so this guards that set: every stale net must be found by the route;
* every net whose paths differ from the base is one the delta route
  reports re-routed (``rerouted``), the set the cone STA reads.

Plus a pinned base whose warm tree is rooted off its first path: it
still fits, so it is not stale.
"""

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
from repro.fabric.eco import WarmPlacement
from repro.fabric.routing import WarmRoutes, _connections, _grid, \
    _usage_of_paths


def small_device():
    return scaled_device(NG_ULTRA, "NG-ULTRA-TEST", luts=4096)


def usage_of_routes(result):
    return _usage_of_paths(path for paths in result.routes.values()
                           for path in paths)


def reaches(paths, source, sinks):
    """Whether ``paths`` (one per sink, in order) connect the driver
    tile ``source`` to each of ``sinks``: every path is a chain of
    neighbouring tiles that ends at its sink and starts on the driver
    or on a path that does.  (``_fits``, the route's own staleness
    filter, checks the same tree rule on tile ids, taking each path's
    chain of neighbours as given.)"""
    if len(paths) != len(sinks) or any(
            not path or path[-1] != sink
            or any(abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1
                   for a, b in zip(path, path[1:]))
            for path, sink in zip(paths, sinks)):
        return False
    reached, pending = {source}, list(paths)
    while pending:
        rest = [path for path in pending if path[0] not in reached]
        if len(rest) == len(pending):
            return False
        for path in pending:
            if path[0] in reached:
                reached.update(path)
        pending = rest
    return True


def misfits(result, netlist, placement):
    """Check ``result`` against ``netlist`` from scratch: the nets whose
    paths do not connect their connections, and the connection count."""
    tables = _grid(*placement.grid)
    unfit, connections = [], 0
    for net_name in netlist.nets:
        source, sinks = _connections(netlist, placement.locations,
                                     tables.ids, net_name)
        connections += len(sinks)
        paths = result.routes.get(net_name)
        if not sinks:
            if paths is not None:
                unfit.append(net_name)
        elif not reaches(paths or [], tables.tiles[source],
                         [tables.tiles[sink] for sink in sinks]):
            unfit.append(net_name)
    return unfit, connections


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
    order = {name: index for index, name in enumerate(netlist.cells)}
    warm = WarmRoutes(base_route, base_place.grid, netlist,
                      base_place.locations)
    edited, impact = random_delta(netlist, fraction,
                                  seed=delta_seed).apply(netlist)
    placement = eco_place(edited, device, base_place,
                          set(impact.changed_cells), seed=delta_seed,
                          effort=0.05,
                          warm=WarmPlacement(netlist, device, base_place,
                                             order))

    cold = route(edited, placement.locations, placement.grid,
                 channel_width=channel_width)
    delta = route(edited, placement.locations, placement.grid,
                  channel_width=channel_width, warm=warm)
    for result in (base_route, cold, delta):
        assert result.edge_usage == usage_of_routes(result)
    unfit, connections = misfits(delta, edited, placement)
    # A failed connection leaves its net short of one path.
    assert len(unfit) <= delta.failed_connections, unfit[:5]
    assert delta.routed_connections + delta.failed_connections \
        == connections
    changed = {name for name in delta.routes.keys() | base_route.routes
               if delta.routes.get(name) != base_route.routes.get(name)}
    assert changed <= delta.rerouted


def test_warm_tree_rooted_off_its_first_path_is_not_stale():
    # Net n8's first path was re-routed after a rip-up and starts on the
    # tree another path grew, not on the driver: its paths still connect
    # the driver to every sink, so every edit keeps them.
    netlist = synthesize_random(69, seed=0)
    placement = place(netlist, small_device(), seed=1, effort=0.05)
    result = route(netlist, placement.locations, placement.grid,
                   channel_width=5)
    tables = _grid(*placement.grid)
    source, sinks = _connections(netlist, placement.locations, tables.ids,
                                 "n8")
    paths = result.routes["n8"]
    assert paths[0][0] != tables.tiles[source]
    assert reaches(paths, tables.tiles[source],
                   [tables.tiles[sink] for sink in sinks])
    warm = WarmRoutes(result, placement.grid, netlist, placement.locations)
    assert "n8" not in warm.stale
