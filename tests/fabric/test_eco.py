"""Interactive ECO flow: edit taxonomy, warm-start placement, delta
routing, cone-limited STA and the end-to-end incremental flow.

The load-bearing properties:

* a delta applies to a *copy* (the base netlist's fingerprint is
  stable) and equal (base, delta) pairs give identical edited designs;
* warm-start placement keeps every unmoved cell's tile bit-identical
  to the base and only moves cells inside the movable set;
* delta routing with everything ripped reproduces the cold route
  byte-identically, and a stale warm tree (moved pin) is detected;
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
    Netlist,
    NetlistDelta,
    NXmapProject,
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
)
from repro.fabric.bitstream import generate_bitstream
from repro.fabric.netlist import DFF, LUT4
from repro.fabric.routing import _usage_of_paths
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
                           set(impact.changed_cells), seed=1)
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
                           set(impact.changed_cells), seed=1)
        cols, rows = result.grid
        for i in range(3):
            col, row = result.locations[f"obs{i}"]
            assert 0 <= col < cols and 0 <= row < rows

    def test_deterministic(self):
        project, placement = self._base()
        delta = random_delta(project.netlist, 0.1, seed=3)
        edited, impact = delta.apply(project.netlist)
        one = eco_place(edited, project.device, placement,
                        set(impact.changed_cells), seed=1)
        two = eco_place(edited, project.device, placement,
                        set(impact.changed_cells), seed=1)
        assert one.locations == two.locations
        assert one.hpwl == two.hpwl

    def test_tracked_hpwl_matches_full_rescan(self):
        from repro.fabric.placement import total_hpwl
        project, placement = self._base()
        delta = random_delta(project.netlist, 0.1, seed=3)
        edited, impact = delta.apply(project.netlist)
        result = eco_place(edited, project.device, placement,
                           set(impact.changed_cells), seed=1)
        assert result.hpwl == total_hpwl(edited, result.locations)


class TestDeltaRouting:
    def _placed(self):
        project = base_project()
        placement = project.run_place(effort=1.0)
        routing = project.run_route(channel_width=8)
        return project, placement, routing

    def test_rip_everything_equals_cold_route(self):
        project, placement, routing = self._placed()
        warm = route(project.netlist, placement.locations,
                     placement.grid, channel_width=8, warm=routing,
                     reroute_nets=set(project.netlist.nets))
        assert json.dumps(warm.to_json(), sort_keys=True) \
            == json.dumps(routing.to_json(), sort_keys=True)

    def test_rip_nothing_preserves_every_tree(self):
        project, placement, routing = self._placed()
        warm = route(project.netlist, placement.locations,
                     placement.grid, channel_width=8, warm=routing,
                     reroute_nets=set())
        assert warm.routes == routing.routes
        assert warm.edge_usage == routing.edge_usage

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
        warm = route(project.netlist, locations, placement.grid,
                     channel_width=8, warm=routing, reroute_nets=set())
        # The stale tree was detected and re-routed from the new tile.
        assert warm.routes[net_name][0][0] == locations[driver]
        assert warm.failed_connections == 0


class TestConeSta:
    def test_cone_merge_equals_full_reanalysis(self):
        project = base_project()
        placement = project.run_place(effort=1.0)
        routing = project.run_route(channel_width=8)
        _report, state = analyze_timing_state(
            project.netlist, project.device, target_clock_ns=10.0,
            routing=routing, locations=placement.locations)
        for seed in (3, 11, 19):
            delta = random_delta(project.netlist, 0.1, seed=seed)
            edited, impact = delta.apply(project.netlist)
            eco = eco_place(edited, project.device, placement,
                            set(impact.changed_cells), seed=1)
            moved = {name for name, tile in eco.locations.items()
                     if placement.locations.get(name) != tile}
            rip = {name for name in impact.touched_nets
                   if name in edited.nets}
            for name in moved:
                cell = edited.cells[name]
                rip.update(net for net in cell.inputs
                           if net in edited.nets)
                if cell.output in edited.nets:
                    rip.add(cell.output)
            rerouted = route(edited, eco.locations, eco.grid,
                             channel_width=8, warm=routing,
                             reroute_nets=rip)
            cone_report, _state, cone = analyze_timing_cone(
                edited, project.device, state,
                changed_cells=set(impact.changed_cells) | moved,
                changed_nets=rip, target_clock_ns=10.0,
                routing=rerouted, locations=eco.locations)
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
