"""Delta-chained stage keys: the ECO cache contract.

Every ECO stage result is addressed by
``content_key(parent stage key, canonical delta, options)``, made by
``NXmapProject.stage_key`` with the canonical delta; these tests pin
the three properties the interactive flow relies on:

* the same (base, delta, options) triple produces identical keys and
  byte-identical reports regardless of worker count;
* reordered deltas are *different* edits (order is semantic), so their
  chains never alias;
* a delta submitted against an evicted base transparently falls back
  to the cold base flow and still produces the identical report.
"""

import json


from repro.api import JobSpec, submit
from repro.cache import FlowCache
from repro.core.report import report_json_text
from repro.fabric import (
    NG_ULTRA,
    NetlistDelta,
    NXmapProject,
    PlacementResult,
    ResizeCell,
    random_delta,
    scaled_device,
    synthesize_component,
)


def small_device():
    return scaled_device(NG_ULTRA, "NG-ULTRA-TEST", luts=4096)


def base_netlist():
    return synthesize_component("addsub", 16, 2)


def eco_spec(delta, **overrides):
    params = {"component": "addsub", "width": 16, "stages": 2,
              "device": "NG-ULTRA", "grid_luts": 4096,
              "delta": delta.canonical(), "target_clock_ns": 10.0,
              "effort": 1.0, "channel_width": 8}
    params.update(overrides)
    return JobSpec(kind="eco", params=params, seed=1)


def run_eco(delta, cache, jobs=1):
    """Submit the ECO job: the runner rebuilds the base design (the
    ``base_netlist`` component on a 4096-LUT NG-ULTRA) from params."""
    return submit(eco_spec(delta), cache=cache, jobs=jobs)


class TestDeltaChainedKeys:
    def test_jobs_1_vs_4_identical_keys_and_reports(self):
        delta = random_delta(base_netlist(), 0.1, seed=3)
        serial = run_eco(delta, FlowCache(), jobs=1)
        parallel = run_eco(delta, FlowCache(), jobs=4)
        assert serial.key == parallel.key
        assert report_json_text(serial.report) \
            == report_json_text(parallel.report)

    def test_parallel_run_warm_hits_serial_cache(self):
        delta = random_delta(base_netlist(), 0.1, seed=3)
        cache = FlowCache()
        serial = run_eco(delta, cache, jobs=1)
        misses = cache.stats["fabric"].misses
        parallel = run_eco(delta, cache, jobs=4)
        # Identical stage keys: the second run recomputes nothing.
        assert cache.stats["fabric"].misses == misses
        assert report_json_text(parallel.report) \
            == report_json_text(serial.report)

    def test_reordered_independent_deltas_get_distinct_keys(self):
        netlist = base_netlist()
        luts = [cell.name for cell in netlist.cells.values()
                if cell.kind == "LUT4"][:2]
        ops = (ResizeCell(name=luts[0], init=1),
               ResizeCell(name=luts[1], init=2))
        forward = NetlistDelta(ops=ops)
        reverse = NetlistDelta(ops=ops[::-1])
        assert forward.fingerprint() != reverse.fingerprint()

        cache = FlowCache()
        project = NXmapProject(base_netlist(), small_device(), seed=1,
                               cache=cache)
        project.run_place(effort=1.0)
        place_key = project.stage_keys["place"]
        key_f = project.stage_key("place", place_key, forward.canonical(),
                                  effort=1.0)
        key_r = project.stage_key("place", place_key, reverse.canonical(),
                                  effort=1.0)
        assert key_f != key_r
        # Job-level keys diverge too, so the service never aliases them.
        assert eco_spec(forward).content_key() \
            != eco_spec(reverse).content_key()

    def test_commuting_deltas_still_produce_equal_results(self):
        # Reordered independent edits are distinct cache identities but
        # equal *designs*; both chains converge to byte-identical flow
        # payloads (only the delta echo in the report differs).
        netlist = base_netlist()
        luts = [cell.name for cell in netlist.cells.values()
                if cell.kind == "LUT4"][:2]
        ops = (ResizeCell(name=luts[0], init=1),
               ResizeCell(name=luts[1], init=2))
        one = run_eco(NetlistDelta(ops=ops), FlowCache())
        two = run_eco(NetlistDelta(ops=ops[::-1]), FlowCache())
        assert json.dumps(one.report.flow.to_json(), sort_keys=True) \
            == json.dumps(two.report.flow.to_json(), sort_keys=True)

    def test_evicted_base_falls_back_to_cold_flow(self):
        delta = random_delta(base_netlist(), 0.1, seed=3)
        cached = run_eco(delta, FlowCache())
        # A fresh cache is the eviction limit case: no base artifacts
        # at all.  The chain rebuilds below the recomputed base keys.
        evicted = run_eco(delta, FlowCache())
        assert report_json_text(evicted.report) \
            == report_json_text(cached.report)
        # And with no cache at all the flow still agrees.
        uncached = run_eco(delta, None)
        assert report_json_text(uncached.report) \
            == report_json_text(cached.report)

    def test_option_change_changes_stage_key(self):
        delta = random_delta(base_netlist(), 0.1, seed=3)
        cache = FlowCache()
        project = NXmapProject(base_netlist(), small_device(), seed=1,
                               cache=cache)
        project.run_place(effort=1.0)
        base_key = project.stage_keys["place"]
        edit = delta.canonical()
        assert project.stage_key("place", base_key, edit, effort=1.0) \
            != project.stage_key("place", base_key, edit, effort=0.5)
        assert project.stage_key("place", base_key, edit, effort=1.0) \
            != project.stage_key("route", base_key, edit, effort=1.0)
        # The delta is part of the key: the ECO stage never aliases the
        # cold stage of the same name, parent and options.
        assert project.stage_key("place", base_key, edit, effort=1.0) \
            != project.stage_key("place", base_key, effort=1.0)
        # No ECO key without a base key: a delta-chained stage whose
        # base was placed before the cache was attached stores nothing.
        late = NXmapProject(base_netlist(), small_device(), seed=1)
        late.run_place(effort=1.0)
        assert late.stage_keys["place"] is None
        late.cache = FlowCache()
        late.run_stage("place", late.stage_keys["place"], PlacementResult,
                       lambda: late.placement, options={"effort": 1.0},
                       delta=edit)
        assert late.stage_keys["place"] is None
        assert len(late.cache.memory) == 0
