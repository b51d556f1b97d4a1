"""DBT work counts: the deterministic twin of the DBT race gate.

``benchmarks/bench_sim_dbt.py`` gates the DBT engine on wall-clock
speedup (at least 8x the reference interpreter) over the boot chain plus
an SVC-heavy four-core guest under the hypervisor bridge.  This test
runs the same workload on the DBT engine alone and states what that gate
stands for as exact counts: six blocks translated once, every later
block dispatch a cache hit, no invalidation, and not one instruction
through the reference ``step()``.  A change that sends hook-free code
back through the single-step path, splits blocks or re-translates them
breaks a pin; a pin mismatch means the engine's work changed: re-pin
with a reason.

The guest and the hypervisor set-up are copied from the bench, so the
test stands alone.
"""

from repro.boot import BootImage, ImageKind, provision_flash, run_boot_chain
from repro.hypervisor import (
    Compute,
    EndActivation,
    MemoryArea,
    SvcBridge,
    SystemConfig,
    XtratumHypervisor,
)
from repro.soc import CoreState, DbtCore, DDR_BASE, NgUltraSoc, assemble

# Every outer iteration traps XM_GET_TIME (0x01), then grinds an ALU
# loop and bounces a value through memory; all cores run the same code.
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

PINNED = {"compiled": 6, "hits": 95_998, "invalidations": 0}
GUEST_CYCLES = 568_028


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
    return SvcBridge(hv.api, partition_of_core={0: 0, 1: 1, 2: 0, 3: 1})


def test_boot_and_svc_guest_work_counts(monkeypatch):
    reference_steps = []
    step = DbtCore.step

    def counted_step(core):
        reference_steps.append(core.regs[15])
        step(core)

    monkeypatch.setattr(DbtCore, "step", counted_step)
    soc = NgUltraSoc(svc_handler=hypervisor_with_bridge(), engine="dbt")
    words = assemble(GUEST_SOURCE, base_address=DDR_BASE)
    provision_flash(soc, [BootImage(
        kind=ImageKind.APPLICATION, load_address=DDR_BASE,
        entry_point=DDR_BASE, payload=words, name="guest")])
    run_boot_chain(soc, multicore=True, run_application=True)

    assert all(core.state is CoreState.HALTED for core in soc.cores), \
        [(core.state, core.fault_reason) for core in soc.cores]
    stats = soc.dbt_cache.stats()
    assert {key: stats[key] for key in PINNED} == PINNED
    assert sum(core.cycles for core in soc.cores) == GUEST_CYCLES
    assert reference_steps == []
