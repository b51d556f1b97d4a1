"""Single-event-upset injection.

Radiation qualification to TRL 6 (paper abstract) observes how upsets in
configuration memory and user memories propagate to system behaviour.
The injector abstracts over targets (bitstreams, ECC/TMR memories, plain
word memories) so the campaign runner can treat them uniformly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Protocol

from .ecc import codeword_bits


class SeuTarget(Protocol):
    """Anything the injector can flip bits in."""

    def bit_count(self) -> int: ...
    def flip(self, bit_index: int) -> None: ...
    def describe(self, bit_index: int) -> str: ...


@dataclass
class Upset:
    bit_index: int
    description: str


class BitstreamTarget:
    """Adapter: configuration memory of a placed design."""

    def __init__(self, bitstream) -> None:
        self.bitstream = bitstream

    def bit_count(self) -> int:
        return self.bitstream.total_bits

    def flip(self, bit_index: int) -> None:
        self.bitstream.flip_bit(bit_index)

    def describe(self, bit_index: int) -> str:
        kind = "essential" if self.bitstream.is_essential(bit_index) \
            else "unused"
        return f"config[{bit_index}] ({kind})"


class WordMemoryTarget:
    """Adapter: a plain word-addressable memory (list-like)."""

    def __init__(self, memory: List[int], width: int = 32,
                 label: str = "ram") -> None:
        self.memory = memory
        self.width = width
        self.label = label

    def bit_count(self) -> int:
        return len(self.memory) * self.width

    def flip(self, bit_index: int) -> None:
        address, bit = divmod(bit_index, self.width)
        self.memory[address] ^= (1 << bit)

    def describe(self, bit_index: int) -> str:
        address, bit = divmod(bit_index, self.width)
        return f"{self.label}[{address}] bit {bit}"


class EccMemoryTarget:
    """Adapter: SECDED-protected memory (flips raw codeword bits)."""

    def __init__(self, memory) -> None:
        self.memory = memory
        self._code_bits = codeword_bits(memory.data_bits)

    def bit_count(self) -> int:
        return self.memory.size * self._code_bits

    def flip(self, bit_index: int) -> None:
        address, bit = divmod(bit_index, self._code_bits)
        self.memory.inject_bit_flip(address, bit)

    def describe(self, bit_index: int) -> str:
        address, bit = divmod(bit_index, self._code_bits)
        return f"ecc[{address}] code bit {bit}"


class TmrMemoryTarget:
    """Adapter: triplicated memory (flips one copy's bit)."""

    def __init__(self, memory) -> None:
        self.memory = memory

    def bit_count(self) -> int:
        return 3 * self.memory.size * self.memory.width

    def flip(self, bit_index: int) -> None:
        bank, rest = divmod(bit_index, self.memory.size * self.memory.width)
        address, bit = divmod(rest, self.memory.width)
        self.memory.inject(bank, address, bit)

    def describe(self, bit_index: int) -> str:
        bank, rest = divmod(bit_index, self.memory.size * self.memory.width)
        address, bit = divmod(rest, self.memory.width)
        return f"tmr bank {bank} [{address}] bit {bit}"


class SeuInjector:
    """Uniform random upset generator over a target (seeded)."""

    def __init__(self, target: SeuTarget, seed: int = 1) -> None:
        self.target = target
        self.rng = random.Random(seed)
        self.history: List[Upset] = []

    def inject_random(self) -> Upset:
        bit = self.rng.randrange(self.target.bit_count())
        return self.inject_at(bit)

    def inject_at(self, bit_index: int) -> Upset:
        self.target.flip(bit_index)
        upset = Upset(bit_index=bit_index,
                      description=self.target.describe(bit_index))
        self.history.append(upset)
        return upset

    def inject_burst(self, count: int) -> List[Upset]:
        """Multiple-cell upset: ``count`` distinct random flips."""
        bits = self.rng.sample(range(self.target.bit_count()),
                               min(count, self.target.bit_count()))
        return [self.inject_at(b) for b in bits]
