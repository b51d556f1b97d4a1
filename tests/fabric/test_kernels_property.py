"""Property tests for the incremental physical-implementation kernels.

The PR-5 kernels trade per-move/per-pass recomputation for incremental
state; these tests pin down the invariants that make the trade safe:

* the incrementally-tracked annealer cost equals ``total_hpwl``
  recomputed from scratch after a full anneal (no drift);
* nets covering fewer than two cells are invisible to the annealer:
  adding them changes no location and no HPWL;
* every routed net forms a driver-rooted Steiner tree — connected,
  acyclic, containing the driver tile and every placed sink tile;
* both kernels are bit-identical across two runs with the same seed;
* the kernel-version salt changes the flow-cache stage keys, so cached
  artifacts from an older kernel can never be served.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import (
    NG_ULTRA,
    Cell,
    Net,
    Netlist,
    NXmapProject,
    place,
    route,
    scaled_device,
    synthesize_component,
)
from repro.fabric import nxmap as nxmap_module
from repro.fabric.netlist import BRAM, DFF, DSP, LUT4
from repro.fabric.placement import total_hpwl


def small_device():
    return scaled_device(NG_ULTRA, "NG-ULTRA-TEST", luts=4096)


def random_netlist(n_cells=300, seed=11, fanin=3, window=24,
                   with_macros=False):
    """A random LUT/FF design with local connectivity (plus optional
    DSP/BRAM macros to exercise the dedicated-column free-lists)."""
    rng = random.Random(seed)
    netlist = Netlist(f"prop{n_cells}")
    for i in range(8):
        netlist.add_input(f"pi{i}")
    recent = [f"pi{i}" for i in range(8)]
    for i in range(n_cells):
        out = f"n{i}"
        if with_macros and i % 37 == 36:
            kind = DSP if i % 2 else BRAM
            src = recent[-1 - rng.randrange(min(len(recent), window))]
            netlist.add_cell(Cell(name=f"m{i}", kind=kind,
                                  inputs=[src], output=out))
        elif i % 5 == 4:
            src = recent[-1 - rng.randrange(min(len(recent), window))]
            netlist.add_cell(Cell(name=f"ff{i}", kind=DFF,
                                  inputs=[src], output=out))
        else:
            ins = [recent[-1 - rng.randrange(min(len(recent), window))]
                   for _ in range(2 + rng.randrange(fanin - 1))]
            netlist.add_cell(Cell(name=f"lut{i}", kind=LUT4,
                                  inputs=ins, output=out,
                                  init=rng.randrange(1 << 16)))
        recent.append(out)
        if len(recent) > window * 2:
            recent.pop(0)
    netlist.add_output(recent[-1])
    return netlist


class TestIncrementalHpwlExact:
    """The tracked cost is a pure function of the final placement."""

    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_cost_matches_scratch_recompute(self, seed):
        netlist = random_netlist(seed=seed)
        result = place(netlist, small_device(), seed=seed, effort=0.5)
        assert result.hpwl == pytest.approx(
            total_hpwl(netlist, result.locations), abs=1e-9)

    def test_cost_matches_with_macros(self):
        netlist = random_netlist(with_macros=True)
        result = place(netlist, small_device(), seed=3, effort=0.5)
        assert result.hpwl == pytest.approx(
            total_hpwl(netlist, result.locations), abs=1e-9)

    def test_cost_matches_on_hls_component(self):
        netlist = synthesize_component("addsub", 32, stages=2)
        result = place(netlist, small_device(), seed=5, effort=1.0)
        assert result.hpwl == pytest.approx(
            total_hpwl(netlist, result.locations), abs=1e-9)

    def test_improvement_is_real(self):
        netlist = random_netlist()
        result = place(netlist, small_device(), seed=1, effort=0.5)
        assert result.hpwl < result.initial_hpwl


class TestDegenerateNetsInvisible:
    """A net whose pins cover fewer than two cells spans 0 wherever the
    cells go, so the annealer must not see it: adding such nets anywhere
    in the net order leaves every RNG draw, location and HPWL as is."""

    #: One extra net: (position in the net order, cell pick, shape).
    extra_nets = st.lists(
        st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                  st.sampled_from(["driver-only", "sink-only",
                                   "self-loop", "empty"])),
        min_size=1, max_size=12)

    @settings(max_examples=15, deadline=None)
    @given(n_cells=st.integers(12, 80), netlist_seed=st.integers(0, 999),
           place_seed=st.integers(1, 50), extra=extra_nets)
    def test_degenerate_nets_change_nothing(self, n_cells, netlist_seed,
                                            place_seed, extra):
        netlist = random_netlist(n_cells=n_cells, seed=netlist_seed)
        before = place(netlist, small_device(), seed=place_seed,
                       effort=0.2)
        cells = list(netlist.cells)
        nets = list(netlist.nets.values())
        for number, (position, pick, shape) in enumerate(extra):
            cell = cells[pick % len(cells)]
            driver, sinks = {
                "driver-only": (cell, []),
                "sink-only": (None, [cell]),
                "self-loop": (cell, [cell, cell]),
                "empty": (None, []),
            }[shape]
            nets.insert(position % (len(nets) + 1),
                        Net(f"degenerate{number}", driver, sinks))
        netlist.nets = {net.name: net for net in nets}
        after = place(netlist, small_device(), seed=place_seed, effort=0.2)
        assert after.locations == before.locations
        assert after.hpwl == before.hpwl
        assert after.initial_hpwl == before.initial_hpwl
        assert after.stats == before.stats
        assert after.hpwl == total_hpwl(netlist, after.locations)


class TestPlacementLegality:
    def test_capacity_and_macro_columns_respected(self):
        netlist = random_netlist(with_macros=True)
        result = place(netlist, small_device(), seed=2, effort=0.3)
        occupancy = {}
        for name, tile in result.locations.items():
            cell = netlist.cells[name]
            if cell.kind == DSP:
                assert tile[0] % 8 == 4, f"{name} off the DSP column"
            if cell.kind == BRAM:
                assert tile[0] % 12 == 6, f"{name} off the BRAM column"
            key = (cell.kind == DFF, cell.kind in (DSP, BRAM), tile)
            occupancy[key] = occupancy.get(key, 0) + 1
        for (is_ff, is_macro, _tile), used in occupancy.items():
            assert used <= (2 if is_macro else 8)


class TestRouteTreeInvariants:
    def _check_trees(self, netlist, locations, result):
        checked = 0
        for net_name, paths in result.routes.items():
            net = netlist.nets[net_name]
            nodes = set()
            edges = set()
            for path in paths:
                nodes.update(path)
                for a, b in zip(path, path[1:]):
                    edge = (a, b) if a <= b else (b, a)
                    assert edge not in edges, \
                        f"{net_name}: duplicate tree edge {edge}"
                    edges.add(edge)
            # Tree: |E| == |V| - 1 plus connectivity == acyclic.
            assert len(edges) == len(nodes) - 1, f"{net_name}: cycle"
            driver_tile = locations[net.driver]
            assert driver_tile in nodes, f"{net_name}: driver not in tree"
            for sink in net.sinks:
                if sink in locations:
                    assert locations[sink] in nodes, \
                        f"{net_name}: sink {sink} not in tree"
            adjacency = {}
            for a, b in edges:
                adjacency.setdefault(a, []).append(b)
                adjacency.setdefault(b, []).append(a)
            seen = {driver_tile}
            stack = [driver_tile]
            while stack:
                for neighbour in adjacency.get(stack.pop(), []):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            assert seen == nodes, f"{net_name}: tree not connected"
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("seed", [1, 4])
    def test_random_design_trees(self, seed):
        netlist = random_netlist(seed=seed)
        placement = place(netlist, small_device(), seed=seed, effort=0.3)
        result = route(netlist, placement.locations, placement.grid,
                       channel_width=24)
        assert result.failed_connections == 0
        self._check_trees(netlist, placement.locations, result)

    def test_congested_design_trees_survive_ripup(self):
        # A narrow channel forces negotiation passes, exercising the
        # targeted rip-up (including the stranded-segment cascade).
        netlist = random_netlist(n_cells=400, seed=9, window=48)
        placement = place(netlist, small_device(), seed=9, effort=0.3)
        result = route(netlist, placement.locations, placement.grid,
                       channel_width=4)
        assert result.iterations > 1  # rip-up actually ran
        self._check_trees(netlist, placement.locations, result)

    def test_hls_component_trees(self):
        netlist = synthesize_component("shifter", 16)
        placement = place(netlist, small_device(), seed=1, effort=1.0)
        result = route(netlist, placement.locations, placement.grid)
        assert result.success
        self._check_trees(netlist, placement.locations, result)

    def test_wirelength_counts_shared_edges_once(self):
        netlist = random_netlist()
        placement = place(netlist, small_device(), seed=1, effort=0.3)
        result = route(netlist, placement.locations, placement.grid,
                       channel_width=24)
        by_tree = 0
        for paths in result.routes.values():
            by_tree += sum(max(0, len(p) - 1) for p in paths)
        assert result.wirelength == by_tree


class TestKernelDeterminism:
    def test_place_bit_identical_across_runs(self):
        netlist = random_netlist()
        device = small_device()
        first = place(netlist, device, seed=6, effort=0.5)
        second = place(netlist, device, seed=6, effort=0.5)
        assert first.to_json() == second.to_json()

    def test_route_bit_identical_across_runs(self):
        netlist = random_netlist()
        placement = place(netlist, small_device(), seed=6, effort=0.5)
        first = route(netlist, placement.locations, placement.grid,
                      channel_width=8)
        second = route(netlist, placement.locations, placement.grid,
                       channel_width=8)
        assert first.to_json() == second.to_json()

    def test_seed_changes_placement(self):
        netlist = random_netlist()
        device = small_device()
        first = place(netlist, device, seed=1, effort=0.5)
        second = place(netlist, device, seed=2, effort=0.5)
        assert first.locations != second.locations


class TestKernelVersionCacheSalt:
    """Stage keys must change when a kernel version is bumped."""

    def _project(self):
        netlist = synthesize_component("logic", 8)
        return NXmapProject(netlist, small_device(), seed=1)

    def test_stage_keys_include_kernel_versions(self, monkeypatch):
        project = self._project()
        before = {
            "place": project.stage_key("place", None, effort=1.0),
            "route": project.stage_key("route", "parent", channel_width=16),
            "sta": project.stage_key("sta", "parent", target_clock_ns=None,
                                      routed=True, placed=True),
        }
        bumped = dict(nxmap_module._KERNEL_VERSIONS)
        for stage in bumped:
            bumped[stage] += 1
        monkeypatch.setattr(nxmap_module, "_KERNEL_VERSIONS", bumped)
        for stage, old_key in before.items():
            new_key = {
                "place": lambda: project.stage_key("place", None,
                                                    effort=1.0),
                "route": lambda: project.stage_key("route", "parent",
                                                    channel_width=16),
                "sta": lambda: project.stage_key("sta", "parent",
                                                  target_clock_ns=None,
                                                  routed=True, placed=True),
            }[stage]()
            assert new_key != old_key, f"{stage} key ignored kernel bump"

    def test_kernel_bump_invalidates_cached_placement(self, monkeypatch):
        from repro.cache import FlowCache

        netlist = synthesize_component("logic", 8)
        cache = FlowCache()
        warm = NXmapProject(netlist, small_device(), seed=1, cache=cache)
        warm.run_place(effort=0.5)
        assert cache.stats["fabric"].misses == 1
        bumped = dict(nxmap_module._KERNEL_VERSIONS)
        bumped["place"] += 1
        monkeypatch.setattr(nxmap_module, "_KERNEL_VERSIONS", bumped)
        stale = NXmapProject(netlist, small_device(), seed=1, cache=cache)
        stale.run_place(effort=0.5)
        # The old artifact must not be served under the new kernel.
        assert cache.stats["fabric"].misses == 2

    def test_bitstream_chains_off_salted_place_key(self):
        project = self._project()
        project.cache = object()  # truthy: key computation active
        place_key = project.stage_key("place", None, effort=1.0)
        bit_key = project.stage_key("bitstream", place_key)
        other = project.stage_key("bitstream", "different-parent")
        assert bit_key != other
