"""NG-ULTRA memory map, bus and MPU models.

The map follows the boot architecture of paper §IV: an internal eROM
holding BL0, per-core tightly coupled memories, ECC-protected embedded
SRAM, external DDR behind a controller that must be initialized first,
two redundant boot-flash banks behind the flash controller, and a
peripheral register window.  The MPU gates accesses exactly the way BL1
configures it ("initialization of Memory Protection Unit allowing access
to local Tightly Coupled Memories, embedded RAM, and external DDR").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..radhard.ecc import EccError, EccMemory
from .cpu import MemoryFault

# Base addresses (word-aligned byte addresses).
EROM_BASE = 0x0000_0000
TCM_BASE = 0x0010_0000
SRAM_BASE = 0x1000_0000
DDR_BASE = 0x4000_0000
FLASH_A_BASE = 0x8000_0000
FLASH_B_BASE = 0x9000_0000
PERIPH_BASE = 0xF000_0000

# Default sizes in words (kept modest: models, not allocations).
EROM_WORDS = 4 * 1024
TCM_WORDS = 16 * 1024
SRAM_WORDS = 64 * 1024
DDR_WORDS = 256 * 1024
FLASH_WORDS = 512 * 1024
PERIPH_WORDS = 4 * 1024


@dataclass
class MpuRegion:
    name: str
    base: int
    size_bytes: int
    readable: bool = True
    writable: bool = True
    executable: bool = False
    privileged_only: bool = False

    def covers(self, address: int) -> bool:
        return self.base <= address < self.base + self.size_bytes


class Mpu:
    """Memory Protection Unit: region table checked on every access."""

    def __init__(self) -> None:
        self.regions: List[MpuRegion] = []
        self.enabled = False
        # Bumped on every reconfiguration so cached code translations
        # (repro.soc.dbt) know to re-validate fetch permissions.
        self.epoch = 0

    def configure(self, regions: List[MpuRegion]) -> None:
        self.regions = list(regions)
        self.enabled = True
        self.epoch += 1

    def check(self, address: int, access: str, privileged: bool) -> bool:
        """``access`` is 'r', 'w' or 'x'. True when permitted."""
        if not self.enabled:
            return True
        for region in self.regions:
            if not region.covers(address):
                continue
            if region.privileged_only and not privileged:
                return False
            if access == "r":
                return region.readable
            if access == "w":
                return region.writable
            if access == "x":
                return region.executable
        return False  # default deny: unmapped addresses fault


class WordArray:
    """Simple RAM/ROM backing store."""

    def __init__(self, words: int, read_only: bool = False) -> None:
        self.data = [0] * words
        self.read_only = read_only

    def read(self, index: int) -> int:
        return self.data[index]

    def write(self, index: int, value: int) -> None:
        if self.read_only:
            raise MemoryFault(index * 4, "write to ROM")
        self.data[index] = value & 0xFFFFFFFF

    def load(self, words, offset: int = 0) -> None:
        """Write ``words`` (masked to 32 bits) from ``offset`` on; a
        range outside the array raises before anything is written."""
        words = [value & 0xFFFFFFFF for value in words]
        end = offset + len(words)
        if offset < 0 or end > len(self.data):
            raise IndexError(f"load of {len(words)} words at {offset} "
                             f"outside a {len(self.data)}-word array")
        self.data[offset:end] = words

    def __len__(self) -> int:
        return len(self.data)


class EccSram:
    """Embedded SRAM wrapper: SECDED-protected, transparent to software."""

    def __init__(self, words: int) -> None:
        self.memory = EccMemory(words)

    def read(self, index: int) -> int:
        try:
            return self.memory.read(index)
        except EccError:
            raise MemoryFault(SRAM_BASE + index * 4,
                              "uncorrectable ECC error on read") from None

    def write(self, index: int, value: int) -> None:
        self.memory.write(index, value & 0xFFFFFFFF)

    def load(self, words, offset: int = 0) -> None:
        """Write ``words`` from ``offset`` on, as :meth:`WordArray.load`
        does: a range outside the SRAM raises before anything is
        written."""
        words = list(words)
        if offset < 0 or offset + len(words) > self.memory.size:
            raise IndexError(f"load of {len(words)} words at {offset} "
                             f"outside a {self.memory.size}-word SRAM")
        for i, value in enumerate(words):
            self.write(offset + i, value)

    def __len__(self) -> int:
        return self.memory.size


class SystemBus:
    """Routes core accesses through the MPU to the mapped devices."""

    def __init__(self, soc) -> None:
        self.soc = soc
        self.mpu = Mpu()
        self.reads = 0
        self.writes = 0
        # The SoC's translation cache (repro.soc.dbt), notified on every
        # store so self-modifying code invalidates its cached basic
        # blocks; ``None`` on the reference interpreter engine.
        self.code_cache = None

    # -- core-facing API ----------------------------------------------------

    def read_word(self, address: int, core=None) -> int:
        self._mpu_check(address, "r", core)
        self.reads += 1
        device, index = self._route(address, "read")
        return device.read(index)

    def write_word(self, address: int, value: int, core=None) -> None:
        self._mpu_check(address, "w", core)
        self.writes += 1
        device, index = self._route(address, "write")
        device.write(index, value)
        if self.code_cache is not None:
            self.code_cache.invalidate_address(address)

    def fetch_word(self, address: int, core=None) -> int:
        """MPU-checked fetch for the DBT decoder: no counters.

        The translated block charges ``reads`` in bulk per execution, so
        decode-time fetches must not be double counted.
        """
        self._mpu_check(address, "r", core)
        device, index = self._route(address, "read")
        return device.read(index)

    def _mpu_check(self, address: int, access: str, core) -> None:
        privileged = core.privileged if core is not None else True
        if not self.mpu.check(address, access, privileged):
            raise MemoryFault(address, f"MPU denied {access}")

    def _route(self, address: int, what: str) -> Tuple[object, int]:
        soc = self.soc
        if EROM_BASE <= address < EROM_BASE + EROM_WORDS * 4:
            return soc.erom, (address - EROM_BASE) // 4
        if TCM_BASE <= address < TCM_BASE + TCM_WORDS * 4:
            return soc.tcm, (address - TCM_BASE) // 4
        if SRAM_BASE <= address < SRAM_BASE + SRAM_WORDS * 4:
            return soc.sram, (address - SRAM_BASE) // 4
        if DDR_BASE <= address < DDR_BASE + DDR_WORDS * 4:
            if not soc.ddr_controller.initialized:
                raise MemoryFault(address, f"{what} DDR before init")
            return soc.ddr, (address - DDR_BASE) // 4
        if FLASH_A_BASE <= address < FLASH_A_BASE + FLASH_WORDS * 4:
            return soc.flash_controller.window(0), \
                (address - FLASH_A_BASE) // 4
        if FLASH_B_BASE <= address < FLASH_B_BASE + FLASH_WORDS * 4:
            return soc.flash_controller.window(1), \
                (address - FLASH_B_BASE) // 4
        if PERIPH_BASE <= address < PERIPH_BASE + PERIPH_WORDS * 4:
            return soc.peripheral_file, (address - PERIPH_BASE) // 4
        raise MemoryFault(address, f"{what} unmapped address")


def default_mpu_regions() -> List[MpuRegion]:
    """The region set BL1 programs before releasing application code."""
    return [
        MpuRegion("erom", EROM_BASE, EROM_WORDS * 4, readable=True,
                  writable=False, executable=True),
        MpuRegion("tcm", TCM_BASE, TCM_WORDS * 4, readable=True,
                  writable=True, executable=True),
        MpuRegion("sram", SRAM_BASE, SRAM_WORDS * 4, readable=True,
                  writable=True, executable=True),
        MpuRegion("ddr", DDR_BASE, DDR_WORDS * 4, readable=True,
                  writable=True, executable=True),
        MpuRegion("flash_a", FLASH_A_BASE, FLASH_WORDS * 4, readable=True,
                  writable=False, executable=False, privileged_only=True),
        MpuRegion("flash_b", FLASH_B_BASE, FLASH_WORDS * 4, readable=True,
                  writable=False, executable=False, privileged_only=True),
        MpuRegion("periph", PERIPH_BASE, PERIPH_WORDS * 4, readable=True,
                  writable=True, executable=False, privileged_only=True),
    ]
