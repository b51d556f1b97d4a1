"""§I / qualification — SEU hardening campaigns (TMR, ECC, scrubbing).

The NG-ULTRA hardening provides "triple modular redundancy, error
correction mechanisms, and memory integrity checks which are completely
transparent to the application developer" (paper §I).  The campaign
quantifies each mechanism: silent-data-corruption rate under uniform
random upsets, with and without mitigation, plus the configuration-memory
scrubbing story on a real generated bitstream.

Campaigns run as sharded mega-campaigns; pass ``--jobs N`` to fan
shards out (the counts are bit-identical at any job count, which
``test_seu_parallel_speedup`` asserts while measuring the wall-clock
gain on a fixture-latency-bound campaign).
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import save_table

from repro.core import Table, ratio
from repro.fabric import (
    NG_ULTRA,
    generate_bitstream,
    place,
    scaled_device,
    synthesize_component,
)
from repro.radhard import MegaCampaign, SeuInjector, beam_campaign, \
    memory_scenarios

RUNS = 400
SPEEDUP_RUNS = 2000
SPEEDUP_DWELL_S = 0.002
SPEEDUP_WORDS = 8


def memory_campaigns(jobs=1):
    table = Table(
        "SEU campaigns — silent corruption rate by mitigation "
        f"({RUNS} runs each)",
        ["target", "masked", "corrected", "detected", "sdc", "crash",
         "sdc_rate", "mitigation_effectiveness"])
    reports = {}
    for campaign in memory_scenarios():
        report = campaign.run(RUNS, seed=13, jobs=jobs)
        table.add_row(campaign.name, report.counts.get("masked", 0),
                      report.counts.get("corrected", 0),
                      report.counts.get("detected", 0),
                      report.counts.get("sdc", 0),
                      report.counts.get("crash", 0),
                      round(report.rate("sdc"), 4),
                      round(report.mitigation_effectiveness, 4))
        reports[campaign.name] = report
    return table, reports


def bitstream_scrubbing():
    device = scaled_device(NG_ULTRA, "NG-ULTRA-SEU", 4096)
    netlist = synthesize_component("addsub", 16)
    placement = place(netlist, device, seed=6)
    table = Table(
        "Configuration-memory SEU — CRC detection and scrubbing",
        ["upsets_injected", "frames_corrupted", "detected_by_crc",
         "repaired_by_scrub", "intact_after_scrub"])
    outcomes = []
    rng = random.Random(21)
    for upsets in (1, 4, 16, 64):
        bitstream = generate_bitstream(netlist, placement.locations,
                                       placement.grid, "NG-ULTRA-SEU")
        injector = SeuInjector(
            __import__("repro.radhard", fromlist=["BitstreamTarget"])
            .BitstreamTarget(bitstream), seed=rng.randrange(1 << 30))
        injector.inject_burst(upsets)
        corrupted = bitstream.corrupted_frames()
        repaired = bitstream.scrub()
        intact = bitstream.corrupted_frames() == []
        table.add_row(upsets, len(corrupted), len(corrupted) > 0,
                      repaired, intact)
        outcomes.append((upsets, len(corrupted), repaired, intact))
    return table, outcomes


def beam_run(jobs, backend):
    """One invocation of the speedup campaign; its ``wall_s`` is the
    invocation's elapsed time (the report's sums the shards')."""
    return MegaCampaign(beam_campaign(words=SPEEDUP_WORDS,
                                      dwell_s=SPEEDUP_DWELL_S)).run(
        SPEEDUP_RUNS, seed=29, jobs=jobs, backend=backend)


def parallel_speedup():
    """Serial vs parallel wall-clock on a fixture-latency-bound campaign.

    The beam scenario's per-run dwell models tester/beam turnaround —
    the regime real campaigns run in — so the thread backend overlaps
    shards even on one core.  Outcome counts must not move with the job
    count: that is the engine's determinism contract.
    """
    table = Table(
        f"SEU campaign scaling — {SPEEDUP_RUNS} runs, "
        f"{SPEEDUP_DWELL_S * 1e3:.0f}ms fixture dwell per run",
        ["jobs", "backend", "wall_s", "speedup", "mean_ms", "p95_ms",
         "counts_match_serial"])
    serial = beam_run(1, "serial")
    baseline = serial.report
    table.add_row(1, "serial", round(serial.wall_s, 3), 1.0,
                  round(baseline.latency.mean_s * 1e3, 3),
                  round(baseline.latency.p95_s * 1e3, 3), True)
    speedups = {1: 1.0}
    for jobs in (2, 4):
        parallel = beam_run(jobs, "thread")
        report = parallel.report
        speedup = ratio(serial.wall_s, parallel.wall_s)
        speedups[jobs] = speedup
        table.add_row(jobs, "thread", round(parallel.wall_s, 3),
                      round(speedup, 2),
                      round(report.latency.mean_s * 1e3, 3),
                      round(report.latency.p95_s * 1e3, 3),
                      report.counts == baseline.counts)
    table.add_note("counts are bit-identical at every job count "
                   "(seed_for derivation); dwell models beam/tester "
                   "equipment latency")
    return table, baseline, speedups


def test_seu_memory_campaigns(benchmark, jobs):
    table, reports = benchmark.pedantic(memory_campaigns, args=(jobs,),
                                        rounds=1, iterations=1)
    save_table(table, "qualification_seu_memory")
    raw = reports["unprotected SRAM"]
    ecc = reports["ECC SECDED (1 upset)"]
    tmr = reports["TMR memory"]
    # Unprotected memory corrupts on essentially every upset.
    assert raw.rate("sdc") > 0.9
    # ECC and TMR eliminate silent corruption entirely for single upsets.
    assert ecc.counts.get("sdc", 0) == 0
    assert tmr.counts.get("sdc", 0) == 0
    assert ecc.mitigation_effectiveness == 1.0
    assert tmr.mitigation_effectiveness == 1.0


def test_seu_bitstream_scrubbing(benchmark):
    table, outcomes = benchmark.pedantic(bitstream_scrubbing, rounds=1,
                                         iterations=1)
    save_table(table, "qualification_seu_bitstream")
    for upsets, corrupted, repaired, intact in outcomes:
        assert corrupted >= 1          # CRC always notices
        assert repaired == corrupted   # scrubbing repairs every frame
        assert intact                  # and the config memory is clean


def test_seu_parallel_speedup(benchmark):
    table, baseline, speedups = benchmark.pedantic(parallel_speedup,
                                                   rounds=1, iterations=1)
    save_table(table, "qualification_seu_parallel")
    # Identical counts at every job count (checked inside the table).
    assert all(table.column("counts_match_serial"))
    # Fixture-dwell-bound campaigns must scale: >=2x at four jobs.
    assert speedups[4] >= 2.0
    assert speedups[2] > 1.2
