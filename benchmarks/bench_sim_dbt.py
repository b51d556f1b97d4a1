"""DBT engine race — boot + hypervisor workload, oracle-checked.

Acceptance gate of the basic-block translation cache (repro.soc.dbt):
on the full boot-chain + SVC-heavy four-core guest workload the DBT
engine must be at least **8x** faster than the reference decode-per-step
interpreter while ending in **bit-identical architectural state**
(registers, flags, cycle counts, bus counters, memory contents,
hypercall counts and boot report cycles).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import save_table

from repro.boot import (
    BootImage,
    ImageKind,
    provision_flash,
    run_boot_chain,
)
from repro.core import Table
from repro.hypervisor import (
    Compute,
    EndActivation,
    MemoryArea,
    SvcBridge,
    SystemConfig,
    XtratumHypervisor,
)
from repro.soc import CoreState, DDR_BASE, NgUltraSoc, assemble

SPEEDUP_GATE = 8.0

# SVC-heavy guest: every outer iteration traps XM_GET_TIME (0x01), then
# grinds an ALU loop and bounces a value through memory.  All cores run
# the identical program, so the final state is interleave-independent.
GUEST_SOURCE = """
    MOVI r10, #16
    MOVI r11, #16
    LSL  r10, r10, r11
    MOVI r11, #16384
    ADD  r10, r10, r11
    MOVI r7, #2000
outer:
    MOVI r0, #1
    SVC  #0
    MOV  r4, r0
    MOVI r1, #10
inner:
    ADD  r2, r2, r4
    EOR  r3, r2, r1
    ADD  r2, r2, r3
    ADDI r1, r1, #-1
    CMP  r1, r12
    BNE  inner
    STR  r2, [r10, #0]
    LDR  r5, [r10, #0]
    ADDI r7, r7, #-1
    CMP  r7, r12
    BNE  outer
    HALT
"""


def hypervisor_with_bridge():
    config = SystemConfig(cores=4, context_switch_us=2.0)
    config.add_partition(0, "P0", [MemoryArea("p0ram", 0x1000, 0x1000)])
    config.add_partition(1, "P1", [MemoryArea("p1ram", 0x2000, 0x1000)])
    plan = config.add_plan(0, major_frame_us=1000.0)
    plan.add_window(0, core=0, start_us=0.0, duration_us=400.0)
    plan.add_window(1, core=0, start_us=400.0, duration_us=400.0)
    hv = XtratumHypervisor(config)

    def workload():
        while True:
            yield Compute(100.0)
            yield EndActivation()

    hv.load_partition(0, workload, period_us=1000.0)
    hv.load_partition(1, workload, period_us=1000.0)
    hv.run(frames=2)
    return hv, SvcBridge(hv.api, partition_of_core={0: 0, 1: 1, 2: 0, 3: 1})


def run_workload(engine):
    """Boot the SoC, then run the SVC-heavy guest on all four cores.

    The guest is provisioned into flash as the application image, so the
    timed region is the full qualification loop: BL0 -> BL1 -> BL2 ->
    multicore application execution through ``Soc.run_all``.
    """
    hv, bridge = hypervisor_with_bridge()
    soc = NgUltraSoc(svc_handler=bridge, engine=engine)
    words = assemble(GUEST_SOURCE, base_address=DDR_BASE)
    app = BootImage(kind=ImageKind.APPLICATION, load_address=DDR_BASE,
                    entry_point=DDR_BASE, payload=words, name="guest")
    provision_flash(soc, [app])
    start = time.perf_counter()
    boot = run_boot_chain(soc, multicore=True, run_application=True)
    elapsed = time.perf_counter() - start
    assert all(core.state is CoreState.HALTED for core in soc.cores), \
        [(core.state, core.fault_reason) for core in soc.cores]
    state = {
        "boot_cycles": boot.total_cycles,
        "regs": [list(core.regs) for core in soc.cores],
        "flags": [(core.flag_z, core.flag_n, core.flag_v)
                  for core in soc.cores],
        "cycles": [core.cycles for core in soc.cores],
        "bus": (soc.bus.reads, soc.bus.writes),
        "tcm": list(soc.tcm.data),
        "ddr": list(soc.ddr.data),
        "traps": bridge.trap_count,
        "hypercalls": dict(hv.api.calls),
    }
    instructions = sum(core.cycles for core in soc.cores)
    return elapsed, instructions, state


def race():
    interp_s, interp_instr, interp_state = run_workload("interp")
    dbt_s, dbt_instr, dbt_state = run_workload("dbt")
    assert interp_instr == dbt_instr
    assert interp_state == dbt_state, "architectural state diverged"
    return interp_s, dbt_s, interp_instr


def test_dbt_speedup_gate():
    interp_s, dbt_s, instructions = race()
    speedup = interp_s / dbt_s
    if speedup < SPEEDUP_GATE:  # one retry to ride out scheduler noise
        interp_s, dbt_s, instructions = race()
        speedup = interp_s / dbt_s

    table = Table(
        title="DBT vs decode-per-step interpreter "
              "(boot + 4-core SVC guest)",
        columns=["engine", "wall s", "Mcyc/s", "speedup"])
    table.add_row("interp", round(interp_s, 3),
                  round(instructions / interp_s / 1e6, 2), "1.0x")
    table.add_row("dbt", round(dbt_s, 3),
                  round(instructions / dbt_s / 1e6, 2),
                  f"{speedup:.1f}x")
    table.add_note(f"{instructions} guest cycles on 4 cores; "
                   f"architectural state bit-identical")
    table.add_note(f"gate: dbt >= {SPEEDUP_GATE}x")
    print(save_table(table, "sim_dbt"))

    assert speedup >= SPEEDUP_GATE, \
        f"DBT speedup {speedup:.2f}x below the {SPEEDUP_GATE}x gate"


if __name__ == "__main__":
    test_dbt_speedup_gate()
