"""SoC peripherals: PLLs, DDR and flash controllers, watchdog, eFPGA
configuration port and the memory-mapped register file.

These are the "mandatory hardware resources" BL1 initializes (paper §IV):
clock PLLs, DDR controller, flash controller, SpaceWire controller and
tightly coupled memories.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional

from .cpu import MemoryFault
from .memory import FLASH_WORDS, WordArray

# Register-file word offsets (within the peripheral window).
REG_PLL_CTRL = 0x00
REG_PLL_STATUS = 0x01
REG_DDR_CTRL = 0x02
REG_DDR_STATUS = 0x03
REG_FLASH_CTRL = 0x04
REG_FLASH_STATUS = 0x05
REG_WDT_LOAD = 0x06
REG_WDT_KICK = 0x07
REG_SPW_TX = 0x08
REG_SPW_RX = 0x09
REG_SPW_STATUS = 0x0A
REG_EFPGA_DATA = 0x0B
REG_EFPGA_CTRL = 0x0C
REG_EFPGA_STATUS = 0x0D
REG_BOOT_REPORT = 0x10   # base of a small boot-report mailbox


class Pll:
    """Clock PLL: started by software, locks after a settle time."""

    def __init__(self, name: str, lock_delay: int = 5) -> None:
        self.name = name
        self.lock_delay = lock_delay
        self.enabled = False
        self._countdown = 0

    def enable(self) -> None:
        if not self.enabled:
            self.enabled = True
            self._countdown = self.lock_delay

    @property
    def locked(self) -> bool:
        return self.enabled and self._countdown == 0

    def poll(self) -> bool:
        """One status poll; models settle time passing."""
        if self.enabled and self._countdown > 0:
            self._countdown -= 1
        return self.locked


class DdrController:
    """DDR controller: training sequence must complete before access."""

    TRAIN_POLLS = 8

    def __init__(self) -> None:
        self.initialized = False
        self._training = 0

    def start_training(self) -> None:
        if not self.initialized and self._training == 0:
            self._training = self.TRAIN_POLLS

    def poll(self) -> bool:
        if self._training > 0:
            self._training -= 1
            if self._training == 0:
                self.initialized = True
        return self.initialized


class FlashController:
    """Dual-bank boot flash controller.

    Two independent flash components back the BL1 redundancy scheme of
    paper §IV ("sequential accesses to multiple hardware Flash
    components").  Banks are plain word arrays writable through the
    programming API (not through the memory window).
    """

    def __init__(self, words: int = FLASH_WORDS) -> None:
        self.banks = [WordArray(words, read_only=False) for _ in range(2)]
        self.enabled = False
        self._windows = [_FlashWindow(self, 0), _FlashWindow(self, 1)]

    def program(self, bank: int, offset: int, words) -> None:
        """Ground-segment programming (bypasses the read-only window)."""
        self.banks[bank].load(words, offset)

    def corrupt_word(self, bank: int, offset: int, mask: int) -> None:
        """Fault injection: flip bits in one stored word."""
        self.banks[bank].data[offset] ^= mask

    def window(self, bank: int) -> "_FlashWindow":
        return self._windows[bank]

    def read(self, bank: int, offset: int) -> int:
        if not self.enabled:
            raise MemoryFault(offset * 4, "flash read before controller init")
        return self.banks[bank].read(offset)


class _FlashWindow:
    """Read-only memory-mapped view of one flash bank."""

    def __init__(self, controller: FlashController, bank: int) -> None:
        self.controller = controller
        self.bank = bank

    def read(self, index: int) -> int:
        return self.controller.read(self.bank, index)

    def write(self, index: int, value: int) -> None:
        raise MemoryFault(index * 4, "write to flash window")


class Watchdog:
    """Windowed watchdog: must be kicked within ``timeout`` ticks."""

    def __init__(self, timeout: int = 1000) -> None:
        self.timeout = timeout
        self.counter = timeout
        self.enabled = False
        self.expired = False

    def enable(self, timeout: Optional[int] = None) -> None:
        if timeout is not None:
            self.timeout = timeout
        self.counter = self.timeout
        self.enabled = True
        self.expired = False

    def kick(self) -> None:
        self.counter = self.timeout

    def tick(self, cycles: int = 1) -> bool:
        if not self.enabled or self.expired:
            return self.expired
        self.counter -= cycles
        if self.counter <= 0:
            self.expired = True
        return self.expired


class EFpgaConfigPort:
    """eFPGA matrix configuration port.

    BL1 "loads the eFPGA matrix configuration (i.e., the bitstream)"
    (paper §IV).  The port accepts the serialized bitstream produced by
    the fabric flow, validates the header and per-frame CRCs and reports
    programming status.
    """

    MAGIC = b"NGBS"

    def __init__(self) -> None:
        self.buffer = bytearray()
        self.programmed = False
        self.crc_ok = False
        self.device_name = ""
        self.error: Optional[str] = None

    def begin(self) -> None:
        self.buffer.clear()
        self.programmed = False
        self.crc_ok = False
        self.error = None

    def push_word(self, word: int) -> None:
        self.buffer += (word & 0xFFFFFFFF).to_bytes(4, "little")

    def push_bytes(self, data: bytes) -> None:
        self.buffer += data

    def finish(self) -> bool:
        """Validate and 'program' the matrix; returns success."""
        data = bytes(self.buffer)
        if len(data) < 28 or not data.startswith(self.MAGIC):
            self.error = "bad bitstream header"
            return False
        self.device_name = data[4:20].rstrip(b"\0").decode(errors="replace")
        cols = int.from_bytes(data[20:22], "little")
        rows = int.from_bytes(data[22:24], "little")
        frame_payload = int.from_bytes(data[24:28], "little")
        if cols == 0 or rows == 0 or frame_payload == 0:
            self.error = "bad geometry"
            return False
        frame_len = 4 + frame_payload   # CRC word + payload
        body = data[28:]
        if len(body) < cols * frame_len:
            self.error = "truncated bitstream"
            return False
        body = body[:cols * frame_len]  # tolerate word-padding tails
        for index in range(cols):
            frame = body[index * frame_len:(index + 1) * frame_len]
            stored_crc = int.from_bytes(frame[:4], "little")
            actual = zlib.crc32(frame[4:]) & 0xFFFFFFFF
            if stored_crc != actual:
                self.error = f"frame {index} CRC mismatch"
                self.crc_ok = False
                return False
        self.crc_ok = True
        self.programmed = True
        return True


class PeripheralFile:
    """Memory-mapped register window dispatching to the peripherals."""

    def __init__(self, soc) -> None:
        self.soc = soc
        self.mailbox: Dict[int, int] = {}

    def read(self, offset: int) -> int:
        soc = self.soc
        if offset == REG_PLL_STATUS:
            return 1 if soc.pll.poll() else 0
        if offset == REG_DDR_STATUS:
            return 1 if soc.ddr_controller.poll() else 0
        if offset == REG_FLASH_STATUS:
            return 1 if soc.flash_controller.enabled else 0
        if offset == REG_SPW_RX:
            # Hardware gates the RX register on rx-ready (status bit 1);
            # an ungated read of an empty FIFO returns the idle bus value.
            return soc.spacewire.read_rx_word() \
                if soc.spacewire.rx_ready else 0
        if offset == REG_SPW_STATUS:
            return soc.spacewire.status_word()
        if offset == REG_EFPGA_STATUS:
            port = soc.efpga
            return (1 if port.programmed else 0) | \
                   ((1 if port.crc_ok else 0) << 1)
        return self.mailbox.get(offset, 0)

    def write(self, offset: int, value: int) -> None:
        soc = self.soc
        if offset == REG_PLL_CTRL and value & 1:
            soc.pll.enable()
        elif offset == REG_DDR_CTRL and value & 1:
            soc.ddr_controller.start_training()
        elif offset == REG_FLASH_CTRL:
            soc.flash_controller.enabled = bool(value & 1)
        elif offset == REG_WDT_LOAD:
            soc.watchdog.enable(value)
        elif offset == REG_WDT_KICK:
            soc.watchdog.kick()
        elif offset == REG_SPW_TX:
            soc.spacewire.write_tx_word(value)
        elif offset == REG_EFPGA_DATA:
            soc.efpga.push_word(value)
        elif offset == REG_EFPGA_CTRL:
            if value & 1:
                soc.efpga.begin()
            if value & 2:
                soc.efpga.finish()
        else:
            self.mailbox[offset] = value & 0xFFFFFFFF
