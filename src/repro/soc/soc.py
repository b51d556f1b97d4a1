"""The NG-ULTRA SoC model: quad R52-lite cores plus the platform devices.

This is the executable platform the boot chain (``repro.boot``) and the
hypervisor (``repro.hypervisor``) run against; Fig. 1 of the paper in
object form.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .cpu import CoreState, R52Core
from .memory import (
    DDR_WORDS,
    EROM_WORDS,
    SRAM_WORDS,
    TCM_WORDS,
    EccSram,
    SystemBus,
    WordArray,
)
from .peripherals import (
    DdrController,
    EFpgaConfigPort,
    FlashController,
    PeripheralFile,
    Pll,
    Watchdog,
)
from .spacewire import GroundSupportNode, SpaceWireLink

NUM_CORES = 4
CPU_MHZ = 600


class NgUltraSoc:
    """One NG-ULTRA SoC instance.

    ``engine`` selects the core execution engine: ``"dbt"`` (default)
    runs through the basic-block translation cache of
    :mod:`repro.soc.dbt`; ``"interp"`` keeps the reference
    decode-per-step interpreter, retained as the bit-identity oracle.
    """

    def __init__(self, svc_handler: Optional[Callable] = None,
                 engine: str = "dbt") -> None:
        if engine not in ("dbt", "interp"):
            raise ValueError(f"unknown engine {engine!r}")
        # Memories.
        self.erom = WordArray(EROM_WORDS, read_only=True)
        self.tcm = WordArray(TCM_WORDS)
        self.sram = EccSram(SRAM_WORDS)
        self.ddr = WordArray(DDR_WORDS)
        # Controllers / peripherals.
        self.pll = Pll("sys_pll")
        self.ddr_controller = DdrController()
        self.flash_controller = FlashController()
        self.watchdog = Watchdog()
        self.efpga = EFpgaConfigPort()
        self.spacewire = SpaceWireLink()
        self.peripheral_file = PeripheralFile(self)
        # Bus and cores.
        self.bus = SystemBus(self)
        self.engine = engine
        if engine == "dbt":
            from .dbt import BlockCache, DbtCore
            self.dbt_cache: Optional[BlockCache] = BlockCache(self.bus)
            self.cores = [DbtCore(i, self.bus, svc_handler,
                                  cache=self.dbt_cache)
                          for i in range(NUM_CORES)]
        else:
            self.dbt_cache = None
            self.cores = [R52Core(i, self.bus, svc_handler)
                          for i in range(NUM_CORES)]

    # -- platform helpers ---------------------------------------------------

    def load_erom(self, words: List[int]) -> None:
        """Factory programming of the BL0 ROM image."""
        self.erom.read_only = False
        self.erom.load(words)
        self.erom.read_only = True

    def attach_ground_node(self) -> GroundSupportNode:
        node = GroundSupportNode()
        self.spacewire.attach(node)
        return node

    def master_core(self) -> R52Core:
        return self.cores[0]

    def secondary_cores(self) -> List[R52Core]:
        return self.cores[1:]

    def release_secondaries(self, entry_point: int) -> None:
        """BL2 deploys itself on all the available processor cores."""
        for core in self.secondary_cores():
            core.release(entry_point)

    def run_all(self, max_steps: int = 1_000_000) -> Dict[int, int]:
        """Round-robin all running cores (simple SMP interleave).

        Each core runs at most ``max_steps`` instructions; the cap is
        exact on both engines.  The reference engine interleaves per
        instruction.  The DBT engine interleaves per turn: a turn runs
        whole cached blocks through :meth:`DbtCore.run` and ends at the
        first block boundary at or past ``DBT_QUANTUM`` instructions, so
        no block is split between turns.  For
        independent per-core programs (boot, hypervisor partitions) the
        final architectural state is identical; programs that race on
        shared memory observe a block-grained interleave.
        """
        steps = {core.core_id: 0 for core in self.cores}
        if self.engine != "dbt":
            for _ in range(max_steps):
                progressed = False
                for core in self.cores:
                    if core.state is CoreState.RUNNING:
                        core.step()
                        steps[core.core_id] += 1
                        progressed = True
                if not progressed:
                    break
            return steps
        from .dbt import DBT_QUANTUM
        progressed = True
        while progressed:
            progressed = False
            for core in self.cores:
                done = steps[core.core_id]
                if core.state is CoreState.RUNNING and done < max_steps:
                    steps[core.core_id] = done + core.run(max_steps - done,
                                                          DBT_QUANTUM)
                    progressed = True
        return steps

    def notify_code_mutation(self, address: Optional[int] = None) -> None:
        """Invalidate cached translations after an out-of-band memory
        mutation (SEU flip, debugger poke).  ``None`` flushes all."""
        cache = self.dbt_cache
        if cache is None:
            return
        if address is None:
            cache.invalidate_all()
        else:
            cache.invalidate_address(address)

    def inject_seu(self, address: int, bit: int) -> None:
        """Flip one bit of the word at ``address`` (SEU model).

        Routes to the mapped device (raw flip: ECC SRAM gets a codeword
        bit, plain arrays get a data bit) and invalidates any cached
        code translations covering the address.
        """
        device, index = self.bus._route(address, "write")
        if isinstance(device, EccSram):
            device.memory.inject_bit_flip(index, bit)
        elif isinstance(device, WordArray):
            device.data[index] ^= 1 << (bit & 31)
        else:
            raise ValueError(
                f"cannot inject SEU at 0x{address:08x}: unsupported device")
        self.notify_code_mutation(address)

    def cycles_to_us(self, cycles: int) -> float:
        return cycles / CPU_MHZ
