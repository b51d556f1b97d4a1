"""Triple modular redundancy (TMR).

NG-ULTRA provides TMR "completely transparent to the application
developer" (paper §I) and BL1 manages "basic redundancy for software
components stored in Flash (either through TMR or through sequential
accesses to multiple hardware Flash components)" (paper §IV).  This module
provides both granularities:

* :func:`vote_words` / :func:`vote_bitwise` — majority voting over three
  copies (module-level and bit-level);
* :class:`TmrRegister` / :class:`TmrMemory` — stateful triplicated storage
  with upset injection and voting statistics.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


class TmrError(Exception):
    pass


@dataclass
class VoteResult:
    value: int
    unanimous: bool
    dissenting_copy: Optional[int] = None   # index of the outvoted copy


def vote_words(a: int, b: int, c: int) -> VoteResult:
    """Module-level majority vote: the value held by >= 2 copies wins."""
    if a == b == c:
        return VoteResult(a, unanimous=True)
    if a == b:
        return VoteResult(a, unanimous=False, dissenting_copy=2)
    if a == c:
        return VoteResult(a, unanimous=False, dissenting_copy=1)
    if b == c:
        return VoteResult(b, unanimous=False, dissenting_copy=0)
    # Three-way disagreement: fall back to bitwise voting.
    return VoteResult(vote_bitwise(a, b, c), unanimous=False,
                      dissenting_copy=None)


def vote_bitwise(a: int, b: int, c: int) -> int:
    """Bit-level majority: survives different single-bit flips per copy."""
    return (a & b) | (a & c) | (b & c)


@dataclass
class TmrStats:
    reads: int = 0
    writes: int = 0
    corrected_votes: int = 0
    three_way_disagreements: int = 0


class TmrRegister:
    """One triplicated register with voting reads and self-repair."""

    def __init__(self, value: int = 0, width: int = 32) -> None:
        self.width = width
        self._mask = (1 << width) - 1
        self._copies = [value & self._mask] * 3
        self.stats = TmrStats()

    def write(self, value: int) -> None:
        value &= self._mask
        self._copies = [value] * 3
        self.stats.writes += 1

    def read(self, repair: bool = True) -> int:
        self.stats.reads += 1
        result = vote_words(*self._copies)
        if not result.unanimous:
            self.stats.corrected_votes += 1
            if result.dissenting_copy is None:
                self.stats.three_way_disagreements += 1
            if repair:
                self._copies = [result.value] * 3
        return result.value

    def inject(self, copy_index: int, bit: int) -> None:
        if not 0 <= copy_index < 3:
            raise TmrError("copy index must be 0..2")
        if not 0 <= bit < self.width:
            raise TmrError(f"bit {bit} outside register width")
        self._copies[copy_index] ^= (1 << bit)

    @property
    def copies(self) -> Tuple[int, int, int]:
        return tuple(self._copies)


class TmrMemory:
    """Word-addressable triplicated memory (flash-redundancy model)."""

    def __init__(self, size_words: int, width: int = 32) -> None:
        self.size = size_words
        self.width = width
        self._mask = (1 << width) - 1
        self._banks: List[List[int]] = [[0] * size_words for _ in range(3)]
        self.stats = TmrStats()

    def write(self, address: int, value: int) -> None:
        self._check(address)
        value &= self._mask
        for bank in self._banks:
            bank[address] = value
        self.stats.writes += 1

    def read(self, address: int, repair: bool = True) -> int:
        self._check(address)
        self.stats.reads += 1
        result = vote_words(self._banks[0][address],
                            self._banks[1][address],
                            self._banks[2][address])
        if not result.unanimous:
            self.stats.corrected_votes += 1
            if result.dissenting_copy is None:
                self.stats.three_way_disagreements += 1
            if repair:
                for bank in self._banks:
                    bank[address] = result.value
        return result.value

    def load(self, data: Sequence[int]) -> None:
        if len(data) > self.size:
            raise TmrError("data larger than memory")
        for address, value in enumerate(data):
            self.write(address, value)

    def copy(self) -> "TmrMemory":
        """An independent copy of the three banks, with fresh stats."""
        clone = copy.copy(self)
        clone._banks = [list(bank) for bank in self._banks]
        clone.stats = TmrStats()
        return clone

    def changed_addresses(self, other: "TmrMemory") -> List[int]:
        """Addresses where any bank differs from ``other``'s, in address
        order (both memories must have the same size)."""
        changed = set()
        for mine, theirs in zip(self._banks, other._banks):
            if mine != theirs:
                changed.update(address for address, (a, b)
                               in enumerate(zip(mine, theirs)) if a != b)
        return sorted(changed)

    def inject(self, bank: int, address: int, bit: int) -> None:
        self._check(address)
        if not 0 <= bank < 3:
            raise TmrError("bank must be 0..2")
        if not 0 <= bit < self.width:
            raise TmrError(f"bit {bit} outside word width")
        self._banks[bank][address] ^= (1 << bit)

    def scrub(self) -> int:
        """Re-vote every word, repairing divergent copies."""
        fixed = 0
        for address in range(self.size):
            values = [bank[address] for bank in self._banks]
            result = vote_words(*values)
            if not all(v == result.value for v in values):
                for bank in self._banks:
                    bank[address] = result.value
                fixed += 1
        return fixed

    def _check(self, address: int) -> None:
        if not 0 <= address < self.size:
            raise TmrError(f"address {address} out of range")
