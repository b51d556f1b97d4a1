"""Interactive ECO flow: edit taxonomy, warm-start placement, delta
routing, cone-limited STA and the end-to-end incremental flow.

The load-bearing properties:

* a delta applies to a *copy* (the base netlist's fingerprint is
  stable) and equal (base, delta) pairs give identical edited designs;
* warm-start placement keeps every unmoved cell's tile bit-identical
  to the base and only moves cells inside the movable set;
* delta routing over a base with no paths reproduces the cold route
  byte-identically, a stale warm tree (moved pin) is detected and
  reported re-routed, and an unedited copy re-routes nothing;
* the cone-limited STA report equals a full re-analysis of the edited
  design exactly (byte-identical JSON);
* the whole flow is deterministic and the untouched region of the
  placement is bit-identical to the cached base.
"""

import json

import pytest

from repro.cache import FlowCache, netlist_fingerprint
from repro.fabric import (
    NG_ULTRA,
    AddCell,
    Cell,
    DeltaError,
    EcoFlow,
    FlowError,
    Netlist,
    NetlistDelta,
    NXmapProject,
    PlacementResult,
    ReconnectInput,
    RemoveCell,
    ResizeCell,
    RetargetOutput,
    SetConstraint,
    analyze_timing,
    analyze_timing_cone,
    analyze_timing_state,
    eco_place,
    random_delta,
    route,
    scaled_device,
    synthesize_component,
    synthesize_random,
)
from repro.fabric.bitstream import generate_bitstream
from repro.fabric.eco import EcoBase, WarmPlacement
from repro.fabric.netlist import DFF, LUT4
from repro.fabric.routing import RoutingError, RoutingResult, WarmRoutes, \
    _usage_of_paths
from repro.fabric.timing import TimingError


def small_device():
    return scaled_device(NG_ULTRA, "NG-ULTRA-TEST", luts=4096)


def base_netlist():
    return synthesize_component("addsub", 16, 2)


def base_project(netlist=None, cache=None):
    return NXmapProject(netlist if netlist is not None
                        else base_netlist(),
                        small_device(), seed=1, cache=cache)


class TestDeltaOps:
    def test_apply_edits_a_copy_and_keeps_base_fingerprint(self):
        netlist = base_netlist()
        before = netlist_fingerprint(netlist)
        delta = random_delta(netlist, 0.1, seed=3)
        edited, impact = delta.apply(netlist)
        assert edited is not netlist
        assert netlist_fingerprint(netlist) == before
        assert impact.changed_cells <= set(edited.cells) \
            | impact.removed

    def test_equal_pairs_give_identical_edits(self):
        delta = random_delta(base_netlist(), 0.1, seed=3)
        one = netlist_fingerprint(delta.apply(base_netlist())[0])
        two = netlist_fingerprint(delta.apply(base_netlist())[0])
        assert one == two

    def test_add_cell(self):
        netlist = base_netlist()
        nets = sorted(name for name, net in netlist.nets.items()
                      if net.driver is not None)[:2]
        delta = NetlistDelta(ops=(AddCell(
            name="obs", kind=LUT4, inputs=tuple(nets),
            output="obs_n", init=6, primary_output=True),))
        edited, impact = delta.apply(netlist)
        assert "obs" in edited.cells
        assert edited.nets["obs_n"].driver == "obs"
        assert "obs_n" in edited.outputs
        assert impact.added == {"obs"}

    def test_remove_cell_clears_driver_and_sinks(self):
        netlist = base_netlist()
        name = next(cell.name for cell in netlist.cells.values()
                    if cell.inputs and cell.output)
        cell = netlist.cells[name]
        inputs, output = list(cell.inputs), cell.output
        edited, impact = NetlistDelta(
            ops=(RemoveCell(name=name),)).apply(netlist)
        assert name not in edited.cells
        assert edited.nets[output].driver is None
        for net_name in inputs:
            assert name not in edited.nets[net_name].sinks
        assert impact.removed == {name}

    def test_reconnect_and_retarget(self):
        netlist = Netlist("tiny")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_cell(Cell(name="u", kind=LUT4, inputs=["a"],
                              output="x"))
        netlist.add_output("x")
        edited, impact = NetlistDelta(ops=(
            ReconnectInput(cell="u", index=0, net="b"),
            RetargetOutput(cell="u", net="y"),
        )).apply(netlist)
        assert edited.cells["u"].inputs == ["b"]
        assert edited.cells["u"].output == "y"
        assert edited.nets["x"].driver is None
        assert edited.nets["y"].driver == "u"
        assert impact.reconnected == {"u"}

    def test_resize_is_config_only(self):
        netlist = base_netlist()
        name = next(cell.name for cell in netlist.cells.values()
                    if cell.kind == LUT4)
        edited, impact = NetlistDelta(
            ops=(ResizeCell(name=name, init=0x1234),)).apply(netlist)
        assert edited.cells[name].init == 0x1234
        assert impact.changed_cells == frozenset()
        assert impact.resized == {name}

    def test_set_constraint(self):
        delta = NetlistDelta(ops=(SetConstraint(
            name="target_clock_ns", value=25.0),))
        _edited, impact = delta.apply(base_netlist())
        assert impact.constraints == {"target_clock_ns": 25.0}

    @pytest.mark.parametrize("op", [
        RemoveCell(name="nope"),
        ResizeCell(name="nope", init=1),
        ReconnectInput(cell="nope", index=0, net="a"),
        RetargetOutput(cell="nope", net="a"),
        SetConstraint(name="voltage", value=1.2),
        AddCell(name="x", kind="tube", output="o"),
    ])
    def test_inapplicable_ops_raise(self, op):
        with pytest.raises(DeltaError):
            NetlistDelta(ops=(op,)).apply(base_netlist())

    def test_retarget_onto_driven_net_raises(self):
        netlist = base_netlist()
        cells = [cell.name for cell in netlist.cells.values()
                 if cell.output is not None][:2]
        with pytest.raises(DeltaError):
            NetlistDelta(ops=(RetargetOutput(
                cell=cells[0],
                net=netlist.cells[cells[1]].output),)).apply(netlist)

    def test_fingerprint_stable_and_order_sensitive(self):
        ops = (ResizeCell(name="a", init=1), ResizeCell(name="b", init=2))
        assert NetlistDelta(ops=ops).fingerprint() \
            == NetlistDelta(ops=tuple(ops)).fingerprint()
        assert NetlistDelta(ops=ops).fingerprint() \
            != NetlistDelta(ops=ops[::-1]).fingerprint()

    def test_json_round_trip(self):
        delta = random_delta(base_netlist(), 0.2, seed=11)
        revived = NetlistDelta.from_json(
            json.loads(json.dumps(delta.to_json())))
        assert revived == delta
        assert revived.fingerprint() == delta.fingerprint()

    def test_from_json_rejects_unknown_and_malformed_ops(self):
        with pytest.raises(DeltaError):
            NetlistDelta.from_json([{"op": "teleport_cell", "name": "x"}])
        with pytest.raises(DeltaError):
            NetlistDelta.from_json([{"op": "resize_cell", "name": "x",
                                     "bogus_field": 1}])


def warm_start(project, placement):
    """The warm-start state of a placed base project."""
    order = {name: index for index, name in enumerate(project.netlist.cells)}
    return WarmPlacement(project.netlist, project.device, placement, order)


class TestEcoPlace:
    def _base(self):
        project = base_project()
        placement = project.run_place(effort=1.0)
        return project, placement

    def test_frozen_region_is_bit_identical(self):
        project, placement = self._base()
        delta = random_delta(project.netlist, 0.1, seed=3)
        edited, impact = delta.apply(project.netlist)
        result = eco_place(edited, project.device, placement,
                           set(impact.changed_cells), seed=1,
                           warm=warm_start(project, placement))
        moved = {name for name, tile in result.locations.items()
                 if placement.locations.get(name) != tile}
        surviving = set(edited.cells) - impact.added
        for name in surviving - moved:
            assert result.locations[name] == placement.locations[name]
        assert result.stats["frozen"] + result.stats["annealed"] \
            == len(edited.cells)
        # Frozen cells can never move, so every moved cell is either
        # annealed or newly added.
        assert result.stats["moved"] <= result.stats["annealed"]

    def test_added_cells_get_distinct_legal_sites(self):
        project, placement = self._base()
        nets = sorted(name for name, net in project.netlist.nets.items()
                      if net.driver is not None)[:2]
        delta = NetlistDelta(ops=tuple(
            AddCell(name=f"obs{i}", kind=LUT4, inputs=tuple(nets),
                    output=f"obs_n{i}", primary_output=True)
            for i in range(3)))
        edited, impact = delta.apply(project.netlist)
        result = eco_place(edited, project.device, placement,
                           set(impact.changed_cells), seed=1,
                           warm=warm_start(project, placement))
        cols, rows = result.grid
        for i in range(3):
            col, row = result.locations[f"obs{i}"]
            assert 0 <= col < cols and 0 <= row < rows

    def test_deterministic(self):
        project, placement = self._base()
        delta = random_delta(project.netlist, 0.1, seed=3)
        edited, impact = delta.apply(project.netlist)
        warm = warm_start(project, placement)
        one = eco_place(edited, project.device, placement,
                        set(impact.changed_cells), seed=1, warm=warm)
        two = eco_place(edited, project.device, placement,
                        set(impact.changed_cells), seed=1, warm=warm)
        assert one.locations == two.locations
        assert one.hpwl == two.hpwl

    def test_tracked_hpwl_matches_full_rescan(self):
        from repro.fabric.placement import total_hpwl
        project, placement = self._base()
        delta = random_delta(project.netlist, 0.1, seed=3)
        edited, impact = delta.apply(project.netlist)
        result = eco_place(edited, project.device, placement,
                           set(impact.changed_cells), seed=1,
                           warm=warm_start(project, placement))
        assert result.hpwl == total_hpwl(edited, result.locations)


class TestDeltaRouting:
    def _placed(self):
        project = base_project()
        placement = project.run_place(effort=1.0)
        routing = project.run_route(channel_width=8)
        return project, placement, routing

    def _warm(self, project, placement, routing):
        return WarmRoutes(routing, placement.grid, project.netlist,
                          placement.locations)

    def test_rip_everything_equals_cold_route(self):
        # Over a base without a single path every net with connections
        # is stale, so the delta route re-routes all of them from empty
        # channels: that is the cold route, byte for byte.
        project, placement, routing = self._placed()
        empty = RoutingResult(0, 0, 0, 0, 0, 0, 8)
        warm = route(project.netlist.copy(), placement.locations,
                     placement.grid, channel_width=8,
                     warm=self._warm(project, placement, empty))
        assert json.dumps(warm.to_json(), sort_keys=True) \
            == json.dumps(routing.to_json(), sort_keys=True)
        assert warm.rerouted == set(routing.routes)

    def test_rip_nothing_preserves_every_tree(self):
        project, placement, routing = self._placed()
        warm = route(project.netlist.copy(), placement.locations,
                     placement.grid, channel_width=8,
                     warm=self._warm(project, placement, routing))
        assert warm.routes == routing.routes
        assert warm.edge_usage == routing.edge_usage
        assert warm.rerouted == frozenset()

    def test_edge_usage_is_persisted_and_consistent(self):
        project, placement, routing = self._placed()
        revived = type(routing).from_json(routing.to_json())
        assert revived.edge_usage == routing.edge_usage
        recomputed = _usage_of_paths(
            path for paths in routing.routes.values() for path in paths)
        assert routing.edge_usage == recomputed

    def test_pre_v3_payload_rebuilds_usage_from_paths(self):
        project, placement, routing = self._placed()
        payload = routing.to_json()
        payload.pop("edge_usage")
        revived = type(routing).from_json(payload)
        assert revived.edge_usage == routing.edge_usage

    def test_moved_pin_invalidates_warm_tree(self):
        project, placement, routing = self._placed()
        net_name = next(name for name, paths in routing.routes.items()
                        if paths and len(paths[0]) > 1)
        driver = project.netlist.nets[net_name].driver
        locations = dict(placement.locations)
        col, row = locations[driver]
        cols, rows = placement.grid
        locations[driver] = ((col + 5) % cols, (row + 3) % rows)
        warm = route(project.netlist.copy(), locations, placement.grid,
                     channel_width=8,
                     warm=self._warm(project, placement, routing))
        # The stale tree was detected and re-routed from the new tile.
        assert warm.routes[net_name][0][0] == locations[driver]
        assert warm.failed_connections == 0
        assert net_name in warm.rerouted


class TestConeSta:
    def test_cone_merge_equals_full_reanalysis(self):
        project = base_project()
        placement = project.run_place(effort=1.0)
        project.run_route(channel_width=8)
        prepared = EcoBase.of(project)
        state = prepared.state
        for seed in (3, 11, 19):
            delta = random_delta(project.netlist, 0.1, seed=seed)
            edited, impact = delta.apply(project.netlist)
            eco = eco_place(edited, project.device, placement,
                            set(impact.changed_cells), seed=1,
                            warm=prepared.placement)
            moved = {name for name, tile in eco.locations.items()
                     if placement.locations.get(name) != tile}
            rerouted = route(edited, eco.locations, eco.grid,
                             channel_width=8, warm=prepared.routing)
            cone_report, _state, cone = analyze_timing_cone(
                edited, project.device, state,
                changed_cells=set(impact.changed_cells) | moved,
                changed_nets=rerouted.rerouted | impact.touched_nets,
                target_clock_ns=10.0,
                routing=rerouted, locations=eco.locations,
                prepared=prepared.timing)
            full_report = analyze_timing(
                edited, project.device, target_clock_ns=10.0,
                routing=rerouted, locations=eco.locations)
            assert json.dumps(cone_report.to_json(), sort_keys=True) \
                == json.dumps(full_report.to_json(), sort_keys=True)
            assert 0 <= cone <= len(edited.cells)

    def test_stale_location_annotation_raises(self):
        # Satellite of the ECO work: a partial placement map plus a
        # leftover cell.location annotation must be an error, never a
        # silent mixed-placement fallback.
        netlist = Netlist("stale")
        netlist.add_input("a")
        netlist.add_cell(Cell(name="u", kind=LUT4, inputs=["a"],
                              output="x"))
        netlist.add_cell(Cell(name="v", kind=DFF, inputs=["x"],
                              output="q"))
        netlist.add_output("q")
        netlist.cells["v"].location = (7, 7)      # stale annotation
        locations = {"u": (0, 0)}                 # v missing from map
        with pytest.raises(TimingError, match="stale location"):
            analyze_timing(netlist, small_device(),
                           target_clock_ns=10.0, locations=locations)

    def test_annotation_is_not_a_placement_without_a_map(self):
        # Without a placement map every cell is unplaced (nominal
        # one-tile hops); a cell.location annotation is never read.
        def chain(annotated):
            netlist = Netlist("chain")
            netlist.add_input("a")
            netlist.add_cell(Cell(name="u", kind=LUT4, inputs=["a"],
                                  output="x"))
            netlist.add_cell(Cell(name="v", kind=LUT4, inputs=["x"],
                                  output="y"))
            netlist.add_cell(Cell(name="w", kind=DFF, inputs=["y"],
                                  output="q"))
            netlist.add_output("q")
            if annotated:
                netlist.cells["u"].location = (0, 0)
                netlist.cells["v"].location = (9, 9)
            return netlist
        plain = analyze_timing(chain(False), small_device(),
                               target_clock_ns=10.0)
        annotated = analyze_timing(chain(True), small_device(),
                                   target_clock_ns=10.0)
        assert json.dumps(annotated.to_json(), sort_keys=True) \
            == json.dumps(plain.to_json(), sort_keys=True)


def _not_an_edit(case):
    """Call one ECO stage on what is not an edit of its base."""
    project = base_project()
    placement = project.run_place(effort=1.0)
    project.run_route(channel_width=8)
    prepared = EcoBase.of(project)
    plain = base_netlist()                # the same design, not a copy
    if case == "place":
        eco_place(plain, project.device, placement, set(),
                  warm=prepared.placement)
    elif case == "place-unplaced-base":
        first = next(iter(project.netlist.cells))
        partial = PlacementResult(
            {name: tile for name, tile in placement.locations.items()
             if name != first},
            placement.hpwl, placement.initial_hpwl, placement.iterations,
            placement.grid)
        eco_place(project.netlist.copy(), project.device, partial, set(),
                  warm=warm_start(project, partial))
    elif case == "place-overfull-base":
        piled = PlacementResult(
            dict.fromkeys(placement.locations, (0, 0)), placement.hpwl,
            placement.initial_hpwl, placement.iterations, placement.grid)
        eco_place(project.netlist.copy(), project.device, piled, set(),
                  warm=warm_start(project, piled))
    elif case in ("route", "route-foreign-copy"):
        netlist = plain if case == "route" else plain.copy()
        route(netlist, placement.locations, placement.grid,
              channel_width=8, warm=prepared.routing)
    else:
        analyze_timing_cone(plain, project.device, prepared.state, (), (),
                            prepared=prepared.timing)


@pytest.mark.parametrize("case,error,message", [
    ("place", FlowError, "not an edited copy"),
    ("place-unplaced-base", FlowError, "has no base tile"),
    ("place-overfull-base", FlowError, "is over capacity"),
    ("route", RoutingError, "not an edited copy"),
    ("route-foreign-copy", RoutingError, "not an edited copy"),
    ("cone", TimingError, "not an edited copy"),
])
def test_stages_reject_what_is_not_an_edit_of_their_base(case, error,
                                                         message):
    with pytest.raises(error, match=message):
        _not_an_edit(case)


class TestEcoFlowEndToEnd:
    def _run(self, cache=None, seed=3, fraction=0.1, **kwargs):
        project = base_project(cache=cache)
        delta = random_delta(project.netlist, fraction, seed=seed)
        flow = EcoFlow(project, delta)
        report = flow.run(**kwargs)
        return project, flow, report

    def test_untouched_region_matches_cached_base(self):
        project, flow, report = self._run(cache=FlowCache())
        base = project.placement
        moved = {name for name, tile in flow.placement.locations.items()
                 if base.locations.get(name) != tile}
        assert report.eco["cells_moved"] == len(moved)
        # Only annealed cells can leave their base tile — the frozen
        # region is bit-identical to the cached base placement.
        assert len(moved) <= report.eco["cells_annealed"]
        assert report.eco["cells_frozen"] \
            + report.eco["cells_annealed"] \
            == len(flow.placement.locations)

    @pytest.mark.parametrize("fraction,seed",
                             [(0.01, 1), (0.1, 2), (0.3, 3), (0.6, 4)])
    def test_edit_bitstream_equals_full_generation(self, fraction, seed):
        # The edit's bitstream is rebuilt from the base one on the
        # touched tiles only; it must be the full regeneration's, bit
        # for bit (frames, CRCs, essential bits, golden copy).
        _project, flow, _report = self._run(seed=seed, fraction=fraction)
        full = generate_bitstream(flow.netlist, flow.placement.locations,
                                  flow.placement.grid,
                                  flow.project.device.name)
        assert flow.bitstream.to_json() == full.to_json()

    def test_deterministic_wire_report(self):
        from repro.core.report import report_json_text
        _p1, _f1, one = self._run()
        _p2, _f2, two = self._run()
        assert report_json_text(one) == report_json_text(two)

    def test_warm_rerun_is_cache_hit_with_identical_report(self):
        from repro.core.report import report_json_text
        cache = FlowCache()
        _p1, _f1, cold = self._run(cache=cache)
        misses_after_cold = cache.stats["fabric"].misses
        _p2, _f2, warm = self._run(cache=cache)
        assert report_json_text(warm) == report_json_text(cold)
        assert cache.stats["fabric"].misses == misses_after_cold
        assert warm.eco == cold.eco

    def test_place_and_route_hits_still_feed_a_missed_sta(self, tmp_path):
        # A new target clock, on a restarted disk cache, misses the STA
        # stage alone.  The persisted place and route values carry the
        # moved cells and re-routed nets, so the cone still covers the
        # nets the overflow cascade re-routed on this congested design.
        netlist = synthesize_random(300, seed=5)
        delta = random_delta(netlist, 0.05, seed=2)
        for clock in (10.0, 20.0):
            cache = FlowCache(tmp_path)
            flow = EcoFlow(base_project(netlist, cache=cache), delta)
            flow.run(target_clock_ns=clock, effort=0.3, channel_width=6)
        assert cache.stats["fabric"].misses == 1
        full = analyze_timing(flow.netlist, small_device(),
                              target_clock_ns=20.0, routing=flow.routing,
                              locations=flow.placement.locations)
        assert json.dumps(flow.timing.to_json(), sort_keys=True) \
            == json.dumps(full.to_json(), sort_keys=True)

    def test_flows_on_one_uncached_base_run_its_full_sta_once(
            self, monkeypatch):
        # The base's derived state is current while its netlist,
        # placement and routing are: a second flow on the same base
        # reuses it, cache or no cache.  Each edit's report is the one
        # the flow gave when every flow re-ran the base STA (digests).
        import hashlib

        from repro.core.report import report_json_text
        from repro.fabric import eco
        full_stas = []

        def counted(*args, **kwargs):
            full_stas.append(args[0].name)
            return analyze_timing_state(*args, **kwargs)
        monkeypatch.setattr(eco, "analyze_timing_state", counted)
        project = base_project()
        digests = {}
        for seed in (3, 5):
            delta = random_delta(project.netlist, 0.1, seed=seed)
            report = EcoFlow(project, delta).run()
            digests[seed] = hashlib.sha256(
                report_json_text(report).encode()).hexdigest()
        assert full_stas == [project.netlist.name]
        assert digests == {
            3: "6d19d8627e5ede2ab8cfdc13052e206a"
               "dd51e849465f3532eebf3217951770c5",
            5: "114070b5b777bbd1314cf71be43461e3"
               "610bebaeeee8b7588167e629d06e3d70"}

    def test_readded_cell_of_another_class_is_placed_as_added(self):
        # A register removed and re-added as a LUT cannot keep its base
        # tile, whose LUT sites are full: it is placed as an added cell,
        # and the edit's results equal the from-scratch ones.  Re-added
        # as a register, it keeps its base tile.
        from repro.fabric.placement import _CAPACITY, _SiteManager, \
            total_hpwl
        project = base_project()
        netlist, locations = project.netlist, project.run_place().locations
        register = netlist.cells["pc0_ff0_0"]
        home = locations[register.name]
        assert register.kind == DFF
        assert sum(1 for name, cell in netlist.cells.items()
                   if locations[name] == home
                   and _SiteManager.site_class(cell.kind) == "lut") \
            == _CAPACITY["lut"]
        for kind in (LUT4, DFF):
            delta = NetlistDelta(ops=(
                RemoveCell(name=register.name),
                AddCell(name=register.name, kind=kind,
                        inputs=tuple(register.inputs),
                        output=register.output, init=2)))
            flow = EcoFlow(project, delta)
            flow.run(target_clock_ns=10.0)
            final = flow.placement.locations
            if kind == DFF:
                assert final[register.name] == home
            used = {}
            for name, cell in flow.netlist.cells.items():
                key = (_SiteManager.site_class(cell.kind), final[name])
                used[key] = used.get(key, 0) + 1
            assert all(count <= _CAPACITY[cls]
                       for (cls, _tile), count in used.items())
            assert flow.placement.hpwl == total_hpwl(flow.netlist, final)
            full = analyze_timing(flow.netlist, project.device,
                                  target_clock_ns=10.0,
                                  routing=flow.routing, locations=final)
            assert json.dumps(flow.timing.to_json(), sort_keys=True) \
                == json.dumps(full.to_json(), sort_keys=True)
            assert flow.bitstream.to_json() == generate_bitstream(
                flow.netlist, final, flow.placement.grid,
                project.device.name).to_json()

    def test_constraint_delta_changes_target(self):
        project = base_project()
        delta = NetlistDelta(ops=(SetConstraint(
            name="target_clock_ns", value=33.0),))
        report = EcoFlow(project, delta).run(target_clock_ns=10.0)
        assert report.flow.timing.target_clock_ns == 33.0

    def test_report_round_trip(self):
        from repro.core.report import parse_report, report_json_text
        _project, _flow, report = self._run()
        revived = parse_report(report_json_text(report))
        assert report_json_text(revived) == report_json_text(report)
        assert revived.summary() == report.summary()

    def test_rejects_illegal_edit(self):
        project = base_project()
        victim = next(cell.name for cell in
                      project.netlist.cells.values()
                      if cell.output is not None
                      and project.netlist.nets[cell.output].sinks)
        delta = NetlistDelta(ops=(RemoveCell(name=victim),))
        from repro.fabric.nxmap import FlowError
        with pytest.raises(FlowError, match="edited netlist rejected"):
            EcoFlow(project, delta).run()

    def test_telemetry_counters(self):
        from repro.telemetry import Tracer
        tracer = Tracer()
        project = NXmapProject(base_netlist(), small_device(), seed=1,
                               tracer=tracer)
        delta = random_delta(project.netlist, 0.1, seed=3)
        EcoFlow(project, delta).run()
        assert {"eco.cells.moved", "eco.nets.ripped",
                "eco.sta.cone_size"} <= set(tracer.counters)
