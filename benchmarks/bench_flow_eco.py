"""PR 10 — interactive ECO flow vs cold re-implementation.

Implements a ~10k-cell design once (the interactive base), then races
the incremental edit-to-bitstream path against a full cold re-run for
scripted random edits of 0.1%, 1% and 5% of the cells.  Both sides pay
the same flow: placement, routing, STA to the same target clock, and
bitstream generation on the edited netlist.  Each side is timed
``REPEATS`` times per edit, the two sides interleaved, and the times
reported and gated are the medians: one run of either side swings with
host load.  Every ECO repeat computes its stages (a fresh flow cache
each time), as the first edit does.  Gates:

* ≥10x ECO speedup at the 1% edit point;
* ECO HPWL within 5% of the cold flow's at every edit size;
* no timing violation the cold flow does not also have;
* zero failed connections, and no frozen cell moved: a cell whose tile
  differs from the cached base is a changed cell or shares a net with
  one (checked from outside the flow, not from its counters).
"""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import save_table

from repro.cache import FlowCache
from repro.core import Table
from repro.fabric import (
    NG_ULTRA,
    EcoFlow,
    NXmapProject,
    random_delta,
    scaled_device,
    synthesize_random,
)

CELLS = 10_000
#: Default flow effort: the cold baseline is the re-run a designer
#: would actually pay (the warm-start anneal scales with the movable
#: set, so it is insensitive to this knob).
EFFORT = 1.0
CHANNEL_WIDTH = 256
TARGET_CLOCK_NS = 200.0
FRACTIONS = (0.001, 0.01, 0.05)
#: Timed runs of each side per edit size.
REPEATS = 3


def drifted_frozen_cells(project, flow):
    """Frozen cells whose tile differs from the base placement.

    Checked from outside the flow, without its counters: a cell may
    move only if it is a changed cell or shares a net with one.
    """
    netlist = flow.netlist
    allowed = set(flow.impact.changed_cells)
    for name in flow.impact.changed_cells:
        cell = netlist.cells.get(name)
        if cell is None:
            continue
        nets = list(cell.inputs) + ([cell.output] if cell.output else [])
        for net_name in nets:
            net = netlist.nets.get(net_name)
            if net is None:
                continue
            if net.driver is not None:
                allowed.add(net.driver)
            allowed.update(net.sinks)
    base = project.placement.locations
    return sorted(name for name, tile in flow.placement.locations.items()
                  if base.get(name) != tile and name not in allowed)


def run_eco_race():
    netlist = synthesize_random(CELLS, seed=7)
    device = scaled_device(NG_ULTRA, "BENCH", luts=64_000)
    cache = FlowCache()
    project = NXmapProject(netlist, device, seed=1, cache=cache)

    # The interactive base: implemented once, outside every timed edit.
    t0 = time.perf_counter()
    project.run_place(effort=EFFORT)
    project.run_route(channel_width=CHANNEL_WIDTH)
    base_s = time.perf_counter() - t0

    table = Table(
        "PR 10 — interactive ECO vs cold re-implementation "
        f"({CELLS} cells)",
        ["edit", "ops", "cold_s", "eco_s", "speedup", "hpwl_ratio",
         "moved", "ripped", "cone", "eco_failed", "cold_failed"])
    results = {}
    for fraction in FRACTIONS:
        delta = random_delta(netlist, fraction, seed=3)
        flow = EcoFlow(project, delta)
        flow.prepare_base(effort=EFFORT, channel_width=CHANNEL_WIDTH)

        eco_times, cold_times = [], []
        for _repeat in range(REPEATS):
            # The previous repeat's ECO results are not served warm.
            project.cache = FlowCache()
            t0 = time.perf_counter()
            report = flow.run(target_clock_ns=TARGET_CLOCK_NS,
                              effort=EFFORT, channel_width=CHANNEL_WIDTH)
            eco_times.append(time.perf_counter() - t0)

            edited, _impact = delta.apply(netlist)
            cold = NXmapProject(edited, device, seed=1)
            target = report.flow.timing.target_clock_ns
            t0 = time.perf_counter()
            cold.run_place(effort=EFFORT)
            cold.run_route(channel_width=CHANNEL_WIDTH)
            cold_timing = cold.run_sta(target_clock_ns=target)
            cold.run_bitstream()
            cold_times.append(time.perf_counter() - t0)
        project.cache = cache
        eco_s = statistics.median(eco_times)
        cold_s = statistics.median(cold_times)

        drifted = drifted_frozen_cells(project, flow)
        results[fraction] = {
            "report": report, "eco_s": eco_s, "cold_s": cold_s,
            "speedup": cold_s / eco_s,
            "hpwl_ratio": report.flow.placement.hpwl
            / cold.placement.hpwl,
            "eco_slack": report.flow.timing.slack_ns,
            "cold_slack": cold_timing.slack_ns,
            "cold_failed": cold.routing.failed_connections,
            "drifted": drifted,
        }
        metrics = results[fraction]
        table.add_row(f"{fraction * 100:.1f}%", len(delta.ops),
                      round(cold_s, 2), round(eco_s, 2),
                      round(metrics["speedup"], 1),
                      round(metrics["hpwl_ratio"], 4),
                      report.eco["cells_moved"],
                      report.eco["nets_ripped"],
                      report.eco["sta_cone_size"],
                      report.flow.routing.failed_connections,
                      metrics["cold_failed"])
    table.add_note(f"base implementation (paid once): {base_s:.1f} s; "
                   f"effort={EFFORT}, channel_width={CHANNEL_WIDTH}, "
                   f"target clock {TARGET_CLOCK_NS} ns")
    table.add_note("eco = warm-start place + delta route + cone STA + "
                   "bitstream; cold = full flow on the edited design")
    table.add_note(f"cold_s and eco_s: medians of {REPEATS} interleaved "
                   "runs per side; speedup = their ratio")
    return table, results


def gate_verdicts(results):
    """``(gate, passed, reading)`` of every QoR and speed gate."""
    verdicts = []
    for fraction, metrics in results.items():
        report = metrics["report"]
        edit = f"{fraction * 100:.1f}%"
        # QoR: within 5% of the cold flow's HPWL at every edit size.
        ratio = metrics["hpwl_ratio"]
        verdicts.append((f"{edit} ECO HPWL within 5% of cold",
                         ratio <= 1.05, f"ratio {ratio:.4f}"))
        # No timing violation the cold flow does not also have.
        eco_slack, cold_slack = metrics["eco_slack"], metrics["cold_slack"]
        violated = eco_slack is not None and eco_slack < 0
        verdicts.append((
            f"{edit} no timing violation the cold flow lacks",
            not violated or (cold_slack is not None and cold_slack < 0),
            f"slack eco {eco_slack} cold {cold_slack}"))
        failed = report.flow.routing.failed_connections
        verdicts.append((f"{edit} ECO routes every connection",
                         failed == 0, f"{failed} failed"))
        verdicts.append((f"{edit} cold flow routes every connection",
                         metrics["cold_failed"] == 0,
                         f"{metrics['cold_failed']} failed"))
        # The frozen region never drifts from the cached base.
        drifted = metrics["drifted"]
        verdicts.append((f"{edit} no frozen cell drifts", not drifted,
                         f"{len(drifted)} drifted {drifted[:5]}"))
    # The headline gate: ≥10x at the 1% edit point.
    speedup = results[0.01]["speedup"]
    verdicts.append(("1.0% ECO speedup >= 10x", speedup >= 10.0,
                     f"{speedup:.1f}x"))
    return verdicts


def test_flow_eco(benchmark, capsys):
    table, results = benchmark.pedantic(run_eco_race, rounds=1,
                                        iterations=1)
    save_table(table, "flow_eco")

    # Every gate is evaluated and printed before any fails the bench.
    verdicts = gate_verdicts(results)
    with capsys.disabled():
        for gate, passed, reading in verdicts:
            print(f"{'PASS' if passed else 'FAIL'}  {gate}: {reading}")
    failed = [f"{gate} ({reading})" for gate, passed, reading in verdicts
              if not passed]
    assert not failed, f"failed gates: {'; '.join(failed)}"
