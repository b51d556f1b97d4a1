"""Warm runs must be bit-identical to cold runs (golden equality).

The cache's contract is not "close enough": a hit must return exactly
the artifact recomputation would produce, across processes (disk tier)
and at any job count.
"""

import json

import pytest

from repro.cache import FlowCache
from repro.exec import ExecError, plan_shards
from repro.fabric import nxmap
from repro.fabric.device import NG_MEDIUM, scaled_device
from repro.fabric.nxmap import NXmapProject
from repro.fabric.routing import route
from repro.fabric.synthesis import synthesize_component
from repro.hls import synthesize
from repro.hls.characterization.eucalyptus import Eucalyptus
from repro.radhard import MegaCampaign, memory_scenarios
from repro.radhard.mega import DEFAULT_SHARD_SIZE


def _flow_json(report):
    return json.dumps(report.to_json(), sort_keys=True,
                      separators=(",", ":"))


def small_device():
    return scaled_device(NG_MEDIUM, "NG-MEDIUM-CACHE", 2048)


class TestNXmapWarmEquality:
    def test_cold_then_warm_flow_reports_are_identical(self, tmp_path):
        netlist = synthesize_component("addsub", 16)
        cache = FlowCache(directory=tmp_path / "cache")
        cold = NXmapProject(netlist, small_device(), seed=3,
                            cache=cache).run_all()
        warm = NXmapProject(netlist, small_device(), seed=3,
                            cache=cache).run_all()
        assert _flow_json(cold) == _flow_json(warm)
        assert cache.hit_count("fabric") >= 4  # place/route/sta/bitstream

    def test_disk_tier_warms_a_fresh_process(self, tmp_path):
        netlist = synthesize_component("addsub", 16)
        cold = NXmapProject(
            netlist, small_device(), seed=3,
            cache=FlowCache(directory=tmp_path / "cache")).run_all()
        fresh = FlowCache(directory=tmp_path / "cache")
        warm = NXmapProject(netlist, small_device(), seed=3,
                            cache=fresh).run_all()
        assert _flow_json(cold) == _flow_json(warm)
        assert fresh.hit_count("fabric") >= 4

    def test_route_option_change_reuses_cached_placement(self, tmp_path):
        netlist = synthesize_component("addsub", 16)
        cache = FlowCache(directory=tmp_path / "cache")
        first = NXmapProject(netlist, small_device(), seed=3, cache=cache)
        first.run_place()
        first.run_route(channel_width=16)
        second = NXmapProject(netlist, small_device(), seed=3,
                              cache=cache)
        second.run_place()                      # hit
        second.run_route(channel_width=4)       # miss: new option
        assert cache.stats["fabric"].hits == 1
        assert cache.stats["fabric"].misses == 3
        assert second.placement.to_json() == first.placement.to_json()

    def test_uncached_flow_matches_cached_flow(self, tmp_path):
        netlist = synthesize_component("addsub", 16)
        plain = NXmapProject(netlist, small_device(), seed=3).run_all()
        cached = NXmapProject(
            netlist, small_device(), seed=3,
            cache=FlowCache(directory=tmp_path / "cache")).run_all()
        assert _flow_json(plain) == _flow_json(cached)

    def test_stages_after_a_late_cache_are_not_keyed(self):
        # Placed before the cache was attached, a project has no place
        # key to chain off: a route keyed without it would be served to
        # another placement of the same netlist.
        netlist = synthesize_component("addsub", 32)
        cache = FlowCache()
        placements = []
        for effort in (0.1, 1.0):
            project = NXmapProject(netlist, small_device(), seed=3)
            project.run_place(effort=effort)
            project.cache = cache
            project.run_route(channel_width=8)
            project.run_sta()
            project.run_bitstream()
            assert set(project.stage_keys.values()) == {None}
            placement = project.placement
            assert project.routing.to_json() == route(
                netlist, placement.locations, placement.grid,
                channel_width=8).to_json()
            placements.append(placement.locations)
        assert placements[0] != placements[1]
        assert len(cache.memory) == 0


class TestCharacterizeWarmEquality:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_cold_then_warm_sweeps_identical(self, tmp_path, jobs):
        device = small_device()
        kwargs = dict(components=["addsub", "logic"], widths=(8, 16))
        cold_tool = Eucalyptus(
            device=device, effort=0.15,
            cache=FlowCache(directory=tmp_path / "cache"))
        cold = cold_tool.sweep(jobs=1, **kwargs)
        warm_cache = FlowCache(directory=tmp_path / "cache")
        warm_tool = Eucalyptus(device=device, effort=0.15,
                               cache=warm_cache)
        warm = warm_tool.sweep(jobs=jobs, **kwargs)
        assert [r.to_json() for r in cold] == [r.to_json() for r in warm]
        assert warm_cache.hit_count("characterize") == len(cold)
        # The exported XML library (the real artifact) is byte-identical.
        assert cold_tool.build_library("lib").to_xml() == \
            warm_tool.build_library("lib").to_xml()

    def test_partial_warm_fills_only_the_gap(self, tmp_path):
        device = small_device()
        cache = FlowCache(directory=tmp_path / "cache")
        tool = Eucalyptus(device=device, effort=0.15, cache=cache)
        tool.sweep(components=["addsub"], widths=(8,))
        tool.sweep(components=["addsub", "logic"], widths=(8,))
        layer = cache.stats["characterize"]
        assert layer.hits == 2      # addsub w8 s0 and s2 reused
        assert layer.misses == 3    # 2 cold + 1 new logic config

    def test_failed_sweep_keeps_its_finished_configurations(
            self, tmp_path, monkeypatch):
        # Each configuration is checkpointed as soon as it is computed,
        # so a sweep that fails on its last configuration still leaves
        # the two before it in the cache.
        directory = tmp_path / "cache"
        kwargs = dict(components=["addsub", "logic"], widths=(8,), jobs=1)
        characterize = Eucalyptus._characterize

        def fails_on_logic(self, component, width, stages):
            if component == "logic":
                raise RuntimeError("injected synthesis fault")
            return characterize(self, component, width, stages)

        monkeypatch.setattr(Eucalyptus, "_characterize", fails_on_logic)
        with pytest.raises(ExecError, match=r"\('logic', 8, 0\)"):
            Eucalyptus(device=small_device(), effort=0.15,
                       cache=FlowCache(directory=directory)).sweep(**kwargs)
        monkeypatch.undo()

        cache = FlowCache(directory=directory)
        updates = []
        Eucalyptus(device=small_device(), effort=0.15, cache=cache).sweep(
            progress=lambda done, total: updates.append((done, total)),
            **kwargs)
        layer = cache.stats["characterize"]
        assert (layer.hits, layer.misses) == (2, 1)
        # Cached configurations count towards progress.
        assert updates == [(1, 3), (2, 3), (3, 3)]

    def test_fully_warm_sweep_reports_progress(self, tmp_path):
        cache = FlowCache(directory=tmp_path / "cache")
        tool = Eucalyptus(device=small_device(), effort=0.15, cache=cache)
        tool.sweep(components=["addsub", "logic"], widths=(8,))
        updates = []
        tool.sweep(components=["addsub", "logic"], widths=(8,),
                   progress=lambda done, total: updates.append((done, total)))
        assert cache.stats["characterize"].hits == 3
        assert updates[-1] == (3, 3)

    def test_kernel_bump_misses_a_filled_cache(self, tmp_path, monkeypatch):
        # A record is keyed by the fabric kernels that computed it: a
        # cache filled before a place-kernel bump serves nothing after.
        directory = tmp_path / "cache"
        kwargs = dict(components=["logic"], widths=(8,))
        tool = Eucalyptus(device=small_device(), effort=0.15,
                          cache=FlowCache(directory=directory))
        old_key = tool._config_key("logic", 8, 0)
        tool.sweep(**kwargs)
        monkeypatch.setitem(nxmap._KERNEL_VERSIONS, "place",
                            nxmap._KERNEL_VERSIONS["place"] + 1)
        cache = FlowCache(directory=directory)
        tool = Eucalyptus(device=small_device(), effort=0.15, cache=cache)
        assert tool._config_key("logic", 8, 0) != old_key
        tool.sweep(**kwargs)
        layer = cache.stats["characterize"]
        assert (layer.hits, layer.misses) == (0, 1)


def default_plan_keys(campaign, runs, seed):
    """Checkpoint keys of a campaign run with the default shard plan."""
    mega = MegaCampaign(campaign)
    return [mega.shard_key(seed, spec) for spec in
            plan_shards(runs, shard_size=DEFAULT_SHARD_SIZE).specs]


class TestCampaignWarmEquality:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_cold_then_warm_reports_identical(self, tmp_path, jobs):
        cache = FlowCache(directory=tmp_path / "cache")
        cold = [c.run(50, seed=13, jobs=1, shard_size=10, cache=cache)
                for c in memory_scenarios(words=32)]
        warm_cache = FlowCache(directory=tmp_path / "cache")
        warm = [c.run(50, seed=13, jobs=jobs, shard_size=10,
                      cache=warm_cache)
                for c in memory_scenarios(words=32)]
        assert [r.to_json() for r in cold] == [r.to_json() for r in warm]
        # Every shard of every campaign is served from the disk tier.
        assert warm_cache.hit_count("mega") == 5 * len(cold)
        assert warm_cache.stats["mega"].misses == 0

    def test_scenario_params_split_the_key_space(self, tmp_path):
        small = memory_scenarios(words=16)[0]
        large = memory_scenarios(words=64)[0]
        assert small.name == large.name
        assert default_plan_keys(small, 50, 13) != \
            default_plan_keys(large, 50, 13)

    def test_run_or_seed_change_misses(self, tmp_path):
        campaign = memory_scenarios(words=16)[0]
        keys = default_plan_keys(campaign, 50, 13)
        assert keys != default_plan_keys(campaign, 51, 13)
        assert keys != default_plan_keys(campaign, 50, 14)


class TestHlsWarmEquality:
    SOURCE = "int triple(int x) { return x * 3; }\n"

    def test_memory_tier_reuses_the_project(self):
        cache = FlowCache()
        cold = synthesize(self.SOURCE, "triple", cache=cache)
        warm = synthesize(self.SOURCE, "triple", cache=cache)
        assert warm is cold                   # same live object
        assert cache.hit_count("hls") == 1

    def test_option_changes_miss(self):
        cache = FlowCache()
        cold = synthesize(self.SOURCE, "triple", cache=cache)
        other = synthesize(self.SOURCE, "triple", opt_level=0,
                           cache=cache)
        assert other is not cold
        assert cache.stats["hls"].misses == 2

    def test_verilog_identical_with_and_without_cache(self):
        plain = synthesize(self.SOURCE, "triple")
        cached = synthesize(self.SOURCE, "triple", cache=FlowCache())
        assert plain["triple"].verilog == cached["triple"].verilog
