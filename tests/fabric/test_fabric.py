"""Tests for the NG-ULTRA fabric model and NXmap-equivalent flow."""

import pytest

from repro.fabric import (
    LEGACY_RADHARD,
    NG_MEDIUM,
    NG_ULTRA,
    Cell,
    Netlist,
    NXmapProject,
    analyze_timing,
    generate_backend_script,
    generate_bitstream,
    get_device,
    place,
    route,
    scaled_device,
    supported_components,
    synthesize_component,
)
from repro.fabric.netlist import DFF, LUT4, NetlistError


def small_device():
    return scaled_device(NG_ULTRA, "NG-ULTRA-TEST", luts=4096)


class TestDevice:
    def test_ng_ultra_headline_capacity(self):
        # The paper claims ~550k LUTs for NG-ULTRA.
        assert 500_000 < NG_ULTRA.luts < 600_000

    def test_ng_ultra_is_faster_than_legacy(self):
        assert NG_ULTRA.lut_delay_ns < LEGACY_RADHARD.lut_delay_ns / 1.5

    def test_ng_ultra_energy_advantage(self):
        assert LEGACY_RADHARD.lut_energy_pj / NG_ULTRA.lut_energy_pj >= 3.5

    def test_quad_r52(self):
        assert NG_ULTRA.cpu_cores == 4
        assert NG_ULTRA.cpu_mhz == 600

    def test_get_device_unknown(self):
        with pytest.raises(KeyError):
            get_device("XC7Z020")

    def test_grid_covers_luts(self):
        cols, rows = NG_MEDIUM.grid_size
        assert cols * rows * 8 >= NG_MEDIUM.luts

    def test_scaled_device(self):
        small = small_device()
        assert small.luts == 4096
        assert small.lut_delay_ns == NG_ULTRA.lut_delay_ns


class TestNetlist:
    def test_duplicate_cell_rejected(self):
        netlist = Netlist("t")
        netlist.add_cell(Cell(name="a", kind=LUT4, inputs=[], output="n0"))
        with pytest.raises(NetlistError):
            netlist.add_cell(Cell(name="a", kind=LUT4, inputs=[]))

    def test_double_driver_rejected(self):
        netlist = Netlist("t")
        netlist.add_cell(Cell(name="a", kind=LUT4, inputs=[], output="n0"))
        with pytest.raises(NetlistError):
            netlist.add_cell(Cell(name="b", kind=LUT4, inputs=[],
                                  output="n0"))

    def test_rejected_cell_leaves_netlist_unchanged(self):
        netlist = Netlist("t")
        netlist.add_cell(Cell(name="a", kind=LUT4, inputs=["x"],
                              output="n0"))
        with pytest.raises(NetlistError, match="driven twice"):
            netlist.add_cell(Cell(name="b", kind=LUT4, inputs=["x", "y"],
                                  output="n0"))
        assert list(netlist.cells) == ["a"]
        assert netlist.nets["x"].sinks == ["a"]
        assert "y" not in netlist.nets
        assert netlist.nets["n0"].driver == "a"

    def test_lut_input_limit(self):
        with pytest.raises(NetlistError):
            Cell(name="x", kind=LUT4, inputs=["a", "b", "c", "d", "e"])

    def test_undriven_net_detected(self):
        netlist = Netlist("t")
        netlist.add_cell(Cell(name="a", kind=LUT4, inputs=["ghost"],
                              output="n0"))
        problems = netlist.validate()
        assert any("ghost" in p for p in problems)

    def test_comb_loop_detected(self):
        netlist = Netlist("t")
        netlist.add_cell(Cell(name="a", kind=LUT4, inputs=["n1"],
                              output="n0"))
        netlist.add_cell(Cell(name="b", kind=LUT4, inputs=["n0"],
                              output="n1"))
        problems = netlist.validate()
        assert any("loop" in p for p in problems)

    def test_ff_breaks_loop(self):
        netlist = Netlist("t")
        netlist.add_cell(Cell(name="a", kind=LUT4, inputs=["q"],
                              output="d"))
        netlist.add_cell(Cell(name="ff", kind=DFF, inputs=["d"],
                              output="q"))
        assert netlist.validate() == []


class TestComponentSynthesis:
    @pytest.mark.parametrize("component", supported_components())
    def test_all_components_generate(self, component):
        netlist = synthesize_component(component, 8)
        assert len(netlist.cells) > 0
        assert netlist.validate() == []

    def test_adder_scales_with_width(self):
        small = synthesize_component("addsub", 8)
        large = synthesize_component("addsub", 32)
        assert large.lut_count > small.lut_count

    def test_small_mult_uses_one_dsp(self):
        netlist = synthesize_component("mult", 16)
        assert netlist.dsp_count == 1

    def test_wide_mult_uses_dsp_array(self):
        netlist = synthesize_component("mult", 32)
        assert netlist.dsp_count > 1

    def test_pipelined_adder_has_ffs(self):
        comb = synthesize_component("addsub", 16, stages=0)
        piped = synthesize_component("addsub", 16, stages=2)
        assert comb.ff_count == 0
        assert piped.ff_count >= 16

    def test_divider_is_deeply_sequential(self):
        netlist = synthesize_component("divider", 8)
        assert netlist.ff_count >= 8 * 8

    def test_unknown_component(self):
        from repro.fabric.synthesis import SynthesisError
        with pytest.raises(SynthesisError):
            synthesize_component("quantum_alu", 8)


class TestPlacement:
    def test_place_legal_and_improves(self):
        netlist = synthesize_component("addsub", 16)
        result = place(netlist, small_device(), seed=3)
        assert result.hpwl <= result.initial_hpwl
        cols, rows = result.grid
        for tile in result.locations.values():
            assert 0 <= tile[0] < cols
            assert 0 <= tile[1] < rows

    def test_capacity_respected(self):
        netlist = synthesize_component("addsub", 16)
        result = place(netlist, small_device(), seed=3)
        from collections import Counter
        lut_cells = Counter()
        for name, tile in result.locations.items():
            if netlist.cells[name].kind in (LUT4, "CARRY"):
                lut_cells[tile] += 1
        assert all(count <= 8 for count in lut_cells.values())

    def test_deterministic_for_seed(self):
        netlist1 = synthesize_component("addsub", 8)
        netlist2 = synthesize_component("addsub", 8)
        r1 = place(netlist1, small_device(), seed=11)
        r2 = place(netlist2, small_device(), seed=11)
        assert r1.locations == r2.locations

    def test_design_too_big_rejected(self):
        from repro.fabric.placement import PlacementError
        tiny = scaled_device(NG_ULTRA, "TINY", luts=8)
        netlist = synthesize_component("addsub", 32)
        with pytest.raises(PlacementError):
            place(netlist, tiny)


class TestRouting:
    def test_routes_complete(self):
        netlist = synthesize_component("addsub", 16)
        placement = place(netlist, small_device(), seed=5)
        result = route(netlist, placement.locations, placement.grid)
        assert result.failed_connections == 0
        assert result.wirelength > 0

    def test_congestion_bounded(self):
        netlist = synthesize_component("mult", 16)
        placement = place(netlist, small_device(), seed=5)
        result = route(netlist, placement.locations, placement.grid,
                       channel_width=24)
        assert result.overflow_edges == 0

    def test_narrow_channels_congest(self):
        netlist = synthesize_component("addsub", 32)
        placement = place(netlist, small_device(), seed=5)
        wide = route(netlist, placement.locations, placement.grid,
                     channel_width=32)
        narrow = route(netlist, placement.locations, placement.grid,
                       channel_width=2)
        assert narrow.max_congestion >= wide.max_congestion or \
            narrow.wirelength >= wide.wirelength


class TestTiming:
    def test_critical_path_positive(self):
        netlist = synthesize_component("addsub", 16)
        placement = place(netlist, small_device(), seed=5)
        report = analyze_timing(netlist, small_device(),
                                locations=placement.locations)
        assert report.critical_path_ns > 0
        assert report.fmax_mhz > 0

    def test_wider_adder_is_slower(self):
        device = small_device()
        n8 = synthesize_component("addsub", 8)
        n32 = synthesize_component("addsub", 32)
        p8 = place(n8, device, seed=5)
        p32 = place(n32, device, seed=5)
        t8 = analyze_timing(n8, device, locations=p8.locations)
        t32 = analyze_timing(n32, device, locations=p32.locations)
        assert t32.critical_path_ns > t8.critical_path_ns

    def test_ng_ultra_faster_than_legacy(self):
        netlist = synthesize_component("addsub", 32)
        device = small_device()
        placement = place(netlist, device, seed=5)
        t_ultra = analyze_timing(netlist, device,
                                 locations=placement.locations)
        legacy_small = scaled_device(LEGACY_RADHARD, "LEGACY-TEST", 4096)
        t_legacy = analyze_timing(netlist, legacy_small,
                                  locations=placement.locations)
        assert t_ultra.critical_path_ns < t_legacy.critical_path_ns

    def test_slack_against_target(self):
        netlist = synthesize_component("logic", 8)
        placement = place(netlist, small_device(), seed=5)
        report = analyze_timing(netlist, small_device(),
                                target_clock_ns=100.0,
                                locations=placement.locations)
        assert report.timing_met
        tight = analyze_timing(netlist, small_device(),
                               target_clock_ns=0.01,
                               locations=placement.locations)
        assert not tight.timing_met

    def test_pipelining_shortens_path(self):
        device = small_device()
        comb = synthesize_component("addsub", 64, stages=0)
        piped = synthesize_component("addsub", 64, stages=2)
        p_comb = place(comb, device, seed=5)
        p_piped = place(piped, device, seed=5)
        t_comb = analyze_timing(comb, device, locations=p_comb.locations)
        t_piped = analyze_timing(piped, device,
                                 locations=p_piped.locations)
        assert t_piped.critical_path_ns <= t_comb.critical_path_ns

    def test_place_does_not_mutate_netlist(self):
        """Placement must not annotate cells (stage-purity contract)."""
        netlist = synthesize_component("addsub", 16)
        before = {name: cell.location
                  for name, cell in netlist.cells.items()}
        place(netlist, small_device(), seed=5)
        after = {name: cell.location
                 for name, cell in netlist.cells.items()}
        assert before == after
        assert all(location is None for location in after.values())


class TestBitstream:
    def netlist_and_placement(self):
        netlist = synthesize_component("addsub", 16)
        placement = place(netlist, small_device(), seed=9)
        return netlist, placement

    def test_generation_and_crc(self):
        netlist, placement = self.netlist_and_placement()
        bitstream = generate_bitstream(netlist, placement.locations,
                                       placement.grid, "NG-ULTRA-TEST")
        assert bitstream.total_bits > 0
        assert bitstream.corrupted_frames() == []

    def test_seu_detected_by_crc(self):
        netlist, placement = self.netlist_and_placement()
        bitstream = generate_bitstream(netlist, placement.locations,
                                       placement.grid, "NG-ULTRA-TEST")
        bitstream.flip_bit(bitstream.total_bits // 2)
        assert len(bitstream.corrupted_frames()) == 1

    def test_scrub_repairs(self):
        netlist, placement = self.netlist_and_placement()
        bitstream = generate_bitstream(netlist, placement.locations,
                                       placement.grid, "NG-ULTRA-TEST")
        bitstream.flip_bit(5)
        bitstream.flip_bit(bitstream.total_bits - 5)
        repaired = bitstream.scrub()
        assert repaired >= 1
        assert bitstream.corrupted_frames() == []

    def test_essential_bits_fraction(self):
        netlist, placement = self.netlist_and_placement()
        bitstream = generate_bitstream(netlist, placement.locations,
                                       placement.grid, "NG-ULTRA-TEST")
        assert 0 < bitstream.essential_bits < bitstream.total_bits

    def test_serialization_header(self):
        netlist, placement = self.netlist_and_placement()
        bitstream = generate_bitstream(netlist, placement.locations,
                                       placement.grid, "NG-ULTRA-TEST")
        raw = bitstream.to_bytes()
        assert raw.startswith(b"NGBS")


class TestNXmapFlow:
    def test_full_flow(self):
        netlist = synthesize_component("addsub", 16)
        project = NXmapProject(netlist, small_device(), seed=2)
        report = project.run_all(target_clock_ns=10.0, effort=0.3)
        assert report.stats["luts"] > 0
        assert report.routing.failed_connections == 0
        assert report.timing.fmax_mhz > 0
        assert report.bitstream_bits > 0
        assert report.power.total_mw > 0

    def test_utilization_fractions(self):
        netlist = synthesize_component("addsub", 8)
        project = NXmapProject(netlist, small_device(), seed=2)
        report = project.run_all(effort=0.2)
        assert 0 < report.utilization["luts"] <= 1

    def test_oversize_design_rejected(self):
        from repro.fabric import FlowError
        tiny = scaled_device(NG_ULTRA, "TINY2", luts=16)
        netlist = synthesize_component("addsub", 64)
        with pytest.raises(FlowError):
            NXmapProject(netlist, tiny)

    def test_backend_script_contents(self):
        script = generate_backend_script("sobel_ip", NG_ULTRA, 8.0)
        assert "createProject('sobel_ip')" in script
        assert "NG-ULTRA" in script
        assert "generateBitstream" in script
        assert "period_ns=8.0" in script


class TestEucalyptus:
    def test_characterize_one(self):
        from repro.hls.characterization.eucalyptus import Eucalyptus
        tool = Eucalyptus(device=small_device(), effort=0.2)
        [run] = tool.sweep(components=["addsub"], widths=(8,),
                           stages=(0,))
        assert run.delay_ns > 0
        assert run.luts > 0

    def test_sweep_and_library(self):
        from repro.hls.characterization.eucalyptus import Eucalyptus
        tool = Eucalyptus(device=small_device(), effort=0.1)
        tool.sweep(components=["addsub", "logic"], widths=(8, 16),
                   stages=(0, 2))
        library = tool.build_library()
        record = library.lookup("addsub", 8)
        assert record.luts > 0
        xml_text = library.to_xml()
        from repro.hls.characterization import ComponentLibrary
        reloaded = ComponentLibrary.from_xml(xml_text)
        assert reloaded.lookup("logic", 16).luts == \
            library.lookup("logic", 16).luts

    def test_characterized_library_drives_hls(self):
        from repro.hls import synthesize
        from repro.hls.characterization.eucalyptus import Eucalyptus
        tool = Eucalyptus(device=small_device(), effort=0.1)
        tool.sweep(components=["addsub", "logic", "comparator", "mux",
                               "shifter", "mult", "divider", "mem_bram"],
                   widths=(8, 32), stages=(0,))
        library = tool.build_library()
        # The wire class is always needed; merge from the analytic default.
        from repro.hls.characterization import default_library
        for record in default_library().records():
            if record.resource_class in ("wire", "mem_axi"):
                library.add(record)
        source = "int f(int a, int b) { return (a + b) * (a - b); }"
        project = synthesize(source, "f", clock_ns=12.0, library=library)
        assert project.cosimulate((9, 4)).match


class TestTimingReportRender:
    def test_render_contains_path(self):
        device = small_device()
        netlist = synthesize_component("addsub", 16)
        place(netlist, device, seed=5)
        report = analyze_timing(netlist, device, target_clock_ns=50.0)
        text = report.render()
        assert "critical path" in text
        assert "MET" in text
        assert "ns" in text

    def test_violated_target_flagged(self):
        device = small_device()
        netlist = synthesize_component("addsub", 32)
        place(netlist, device, seed=5)
        report = analyze_timing(netlist, device, target_clock_ns=0.5)
        assert "VIOLATED" in report.render()


class TestRoutingDeterminism:
    def test_same_seed_same_routes(self):
        device = small_device()
        n1 = synthesize_component("addsub", 8)
        n2 = synthesize_component("addsub", 8)
        p1 = place(n1, device, seed=21)
        p2 = place(n2, device, seed=21)
        from repro.fabric import route
        r1 = route(n1, p1.locations, p1.grid)
        r2 = route(n2, p2.locations, p2.grid)
        assert r1.wirelength == r2.wirelength
        assert r1.max_congestion == r2.max_congestion


class TestPowerModel:
    def test_dynamic_power_scales_with_frequency(self):
        netlist = synthesize_component("addsub", 16)
        project = NXmapProject(netlist, small_device(), seed=2)
        slow = project.estimate_power(clock_mhz=50.0)
        fast = project.estimate_power(clock_mhz=200.0)
        assert fast.dynamic_mw > slow.dynamic_mw
        assert fast.static_mw == slow.static_mw

    def test_bigger_design_burns_more(self):
        small = NXmapProject(synthesize_component("addsub", 8),
                             small_device(), seed=2)
        large = NXmapProject(synthesize_component("addsub", 64),
                             small_device(), seed=2)
        assert large.estimate_power(100.0).dynamic_mw > \
            small.estimate_power(100.0).dynamic_mw
