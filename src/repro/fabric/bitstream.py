"""Configuration bitstream generation.

Frame-oriented layout like real SRAM FPGAs: one frame per tile column,
each tile contributing LUT init tables, FF configuration and routing
switch bits.  Every frame carries a CRC32, which is what the configuration
scrubber and the BL1 boot loader check ("management of ... proper eFPGA
matrix programming", paper §IV).  The bitstream tracks *essential* bits
(bits that belong to used logic) so SEU campaigns can report meaningful
cross-sections.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .device import LUTS_PER_TILE
from .netlist import BRAM, CARRY, DFF, DSP, LUT4, Cell, Netlist

# Per-tile configuration budget (bits).
_LUT_INIT_BITS = 16
_FF_CFG_BITS = 2
_ROUTING_BITS = 64
TILE_CONFIG_BITS = (LUTS_PER_TILE * (_LUT_INIT_BITS + _FF_CFG_BITS)
                    + _ROUTING_BITS)


class BitstreamError(Exception):
    pass


@dataclass
class Frame:
    index: int
    data: bytearray
    crc: int = 0

    def compute_crc(self) -> int:
        return zlib.crc32(bytes(self.data)) & 0xFFFFFFFF

    def seal(self) -> None:
        self.crc = self.compute_crc()

    @property
    def intact(self) -> bool:
        return self.crc == self.compute_crc()


@dataclass
class Bitstream:
    device_name: str
    grid: Tuple[int, int]
    frames: List[Frame] = field(default_factory=list)
    essential: Set[int] = field(default_factory=set)   # global bit indices
    golden: Optional[bytes] = None

    @property
    def frame_bits(self) -> int:
        return self.grid[1] * TILE_CONFIG_BITS

    @property
    def total_bits(self) -> int:
        return len(self.frames) * self.frame_bits

    @property
    def essential_bits(self) -> int:
        return len(self.essential)

    def _locate(self, bit_index: int) -> Tuple[int, int]:
        if not 0 <= bit_index < self.total_bits:
            raise BitstreamError(f"bit {bit_index} out of range")
        return divmod(bit_index, self.frame_bits)

    def flip_bit(self, bit_index: int) -> None:
        """Inject an SEU: toggle one configuration bit."""
        frame_idx, offset = self._locate(bit_index)
        byte, bit = divmod(offset, 8)
        self.frames[frame_idx].data[byte] ^= (1 << bit)

    def corrupted_frames(self) -> List[int]:
        """Frames whose CRC no longer matches (scrubber detection)."""
        return [f.index for f in self.frames if not f.intact]

    def is_essential(self, bit_index: int) -> bool:
        return bit_index in self.essential

    def snapshot_golden(self) -> None:
        self.golden = b"".join(bytes(f.data) for f in self.frames)

    def scrub(self) -> int:
        """Repair corrupted frames from the golden copy; returns count."""
        if self.golden is None:
            raise BitstreamError("no golden copy captured")
        frame_bytes = len(self.frames[0].data) if self.frames else 0
        repaired = 0
        for frame in self.frames:
            if frame.intact:
                continue
            start = frame.index * frame_bytes
            frame.data[:] = self.golden[start:start + frame_bytes]
            frame.seal()
            repaired += 1
        return repaired

    def to_json(self) -> dict:
        return {
            "device_name": self.device_name,
            "grid": list(self.grid),
            "frames": [{"index": f.index, "data": bytes(f.data).hex(),
                        "crc": f.crc} for f in self.frames],
            "essential": sorted(self.essential),
            "golden": self.golden.hex() if self.golden is not None else None,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Bitstream":
        golden = payload["golden"]
        return cls(
            device_name=payload["device_name"],
            grid=(int(payload["grid"][0]), int(payload["grid"][1])),
            frames=[Frame(index=f["index"],
                          data=bytearray.fromhex(f["data"]), crc=f["crc"])
                    for f in payload["frames"]],
            essential=set(payload["essential"]),
            golden=bytes.fromhex(golden) if golden is not None else None,
        )

    def to_bytes(self) -> bytes:
        """Serialized bitstream: header + frames with CRCs.

        Header: magic, device name (16 B), cols, rows, frame payload
        bytes (4 B) — the explicit frame length lets loaders tolerate
        trailing padding from word-aligned transports.
        """
        frame_bytes = len(self.frames[0].data) if self.frames else 0
        header = (b"NGBS"
                  + self.device_name.encode()[:16].ljust(16, b"\0")
                  + self.grid[0].to_bytes(2, "little")
                  + self.grid[1].to_bytes(2, "little")
                  + frame_bytes.to_bytes(4, "little"))
        body = b""
        for frame in self.frames:
            body += frame.crc.to_bytes(4, "little") + bytes(frame.data)
        return header + body


def generate_bitstream(netlist: Netlist, locations: Dict[str, Tuple[int, int]],
                       grid: Tuple[int, int], device_name: str,
                       seed: int = 0) -> Bitstream:
    """Build the configuration bitstream for a placed design.

    Used LUTs write their init tables into the owning tile's config space;
    placed cells mark their bits (plus a routing share) as essential.
    """
    cols, rows = grid
    frame_bytes = (rows * TILE_CONFIG_BITS + 7) // 8
    bitstream = Bitstream(device_name=device_name, grid=grid)
    for col in range(cols):
        bitstream.frames.append(Frame(index=col,
                                      data=bytearray(frame_bytes)))
    _configure(bitstream, netlist.cells.items(), locations)
    for frame in bitstream.frames:
        frame.seal()
    bitstream.snapshot_golden()
    return bitstream


def update_bitstream(base: Bitstream, netlist: Netlist,
                     locations: Dict[str, Tuple[int, int]],
                     tiles: Set[Tuple[int, int]],
                     cells: Iterable[str]) -> Bitstream:
    """The bitstream of an edited design, rebuilt from ``base`` in the
    given ``tiles`` only.

    Equal to :func:`generate_bitstream` on (``netlist``, ``locations``)
    when ``tiles`` holds every tile where a cell was added, removed,
    moved from or to, or had its init changed since ``base``: a tile's
    configuration depends only on its own cells, in netlist order.
    Tile ranges are byte-aligned, so a tile is cleared by slicing.
    ``cells`` names the cells placed on ``tiles``, in netlist order.
    """
    tile_bytes = TILE_CONFIG_BITS // 8
    bitstream = Bitstream(
        device_name=base.device_name, grid=base.grid,
        frames=[Frame(index=frame.index, data=bytearray(frame.data),
                      crc=frame.crc) for frame in base.frames],
        essential=set(base.essential))
    frame_bits = bitstream.frame_bits
    for col, row in tiles:
        start = row * tile_bytes
        bitstream.frames[col].data[start:start + tile_bytes] = \
            bytes(tile_bytes)
        first = col * frame_bits + row * TILE_CONFIG_BITS
        bitstream.essential.difference_update(
            range(first, first + TILE_CONFIG_BITS))
    _configure(bitstream, ((name, netlist.cells[name]) for name in cells),
               locations)
    for col in sorted({col for col, _row in tiles}):
        bitstream.frames[col].seal()
    bitstream.snapshot_golden()
    return bitstream


def _configure(bitstream: Bitstream, placed: Iterable[Tuple[str, Cell]],
               locations: Dict[str, Tuple[int, int]]) -> None:
    """Write the configuration of the ``placed`` cells ((name, cell)
    pairs in netlist order) into ``bitstream``."""
    # Track per-tile LUT slot allocation.
    slot_of_tile: Dict[Tuple[int, int], int] = {}
    for name, cell in placed:
        tile = locations.get(name)
        if tile is None:
            continue
        col, row = tile
        tile_base = row * TILE_CONFIG_BITS
        frame = bitstream.frames[col]
        global_base = col * bitstream.frame_bits + tile_base
        if cell.kind in (LUT4, CARRY):
            slot = slot_of_tile.get(tile, 0)
            slot_of_tile[tile] = slot + 1
            slot %= LUTS_PER_TILE
            offset = tile_base + slot * _LUT_INIT_BITS
            init = cell.init & 0xFFFF
            for bit in range(_LUT_INIT_BITS):
                if (init >> bit) & 1:
                    byte, sub = divmod(offset + bit, 8)
                    frame.data[byte] |= (1 << sub)
                bitstream.essential.add(global_base
                                        + slot * _LUT_INIT_BITS + bit)
        elif cell.kind == DFF:
            base = tile_base + LUTS_PER_TILE * _LUT_INIT_BITS
            byte, sub = divmod(base, 8)
            frame.data[byte] |= (1 << sub)
            bitstream.essential.add(global_base
                                    + LUTS_PER_TILE * _LUT_INIT_BITS)
        elif cell.kind in (DSP, BRAM):
            base = tile_base + LUTS_PER_TILE * (_LUT_INIT_BITS + _FF_CFG_BITS)
            for bit in range(16):
                bitstream.essential.add(global_base + LUTS_PER_TILE
                                        * (_LUT_INIT_BITS + _FF_CFG_BITS)
                                        + bit)
            byte, sub = divmod(base, 8)
            frame.data[byte] |= (1 << sub)
        # Routing share: mark a slice of the tile routing bits essential.
        routing_base = (tile_base + LUTS_PER_TILE
                        * (_LUT_INIT_BITS + _FF_CFG_BITS))
        for bit in range(8):
            bitstream.essential.add(global_base + LUTS_PER_TILE
                                    * (_LUT_INIT_BITS + _FF_CFG_BITS) + bit)
        del routing_base
