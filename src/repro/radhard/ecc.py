"""SECDED (single-error-correct, double-error-detect) Hamming coding.

The NG-ULTRA embedded memories carry "error correction mechanisms ...
completely transparent to the application developer" (paper §I).  This
module implements the classic Hamming(k + p + 1) SECDED code used by such
memories, plus an ECC-protected memory model with scrubbing support.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional


class EccError(Exception):
    pass


def _parity_bit_count(data_bits: int) -> int:
    p = 0
    while (1 << p) < data_bits + p + 1:
        p += 1
    return p


def encode(value: int, data_bits: int = 32) -> int:
    """Encode ``value`` into a SECDED codeword.

    Layout: Hamming positions 1..n with parity bits at powers of two, plus
    an overall parity bit at position 0 for double-error detection.
    """
    if not 0 <= value < (1 << data_bits):
        raise EccError(f"value out of range for {data_bits} data bits")
    p = _parity_bit_count(data_bits)
    n = data_bits + p
    # Place data bits in non-power-of-two positions 1..n.
    word = [0] * (n + 1)  # index 0 unused by Hamming (overall parity later)
    data_index = 0
    for pos in range(1, n + 1):
        if pos & (pos - 1):  # not a power of two
            word[pos] = (value >> data_index) & 1
            data_index += 1
    # Compute parity bits.
    for i in range(p):
        mask = 1 << i
        parity = 0
        for pos in range(1, n + 1):
            if pos & mask:
                parity ^= word[pos]
        word[mask] = parity
    overall = 0
    for pos in range(1, n + 1):
        overall ^= word[pos]
    # Codeword: bit 0 = overall parity, bits 1..n = Hamming word.
    code = overall
    for pos in range(1, n + 1):
        code |= word[pos] << pos
    return code


def codeword_bits(data_bits: int = 32) -> int:
    return data_bits + _parity_bit_count(data_bits) + 1


@dataclass
class DecodeResult:
    value: int
    corrected: bool = False
    double_error: bool = False
    corrected_position: Optional[int] = None


def decode(code: int, data_bits: int = 32) -> DecodeResult:
    """Decode a SECDED codeword, correcting single-bit errors.

    An odd number of flips sets the overall parity; a single flip then
    leaves a syndrome naming its Hamming position (1..n), or none when
    the overall parity bit itself flipped.  A syndrome past ``n`` points
    outside the codeword, so no single flip can have produced it: three
    or more flips did, and the word is reported uncorrectable
    (``double_error``) rather than "corrected" to wrong data.
    """
    p = _parity_bit_count(data_bits)
    n = data_bits + p
    word = [(code >> pos) & 1 for pos in range(n + 1)]
    syndrome = 0
    for i in range(p):
        mask = 1 << i
        parity = 0
        for pos in range(1, n + 1):
            if pos & mask:
                parity ^= word[pos]
        if parity:
            syndrome |= mask
    overall = 0
    for pos in range(0, n + 1):
        overall ^= word[pos]
    corrected = False
    double_error = False
    corrected_position: Optional[int] = None
    if syndrome and overall and syndrome <= n:
        # Single error at `syndrome` (could be a parity bit itself).
        word[syndrome] ^= 1
        corrected = True
        corrected_position = syndrome
    elif syndrome:
        double_error = True
    elif overall:
        # The overall parity bit itself flipped.
        corrected = True
        corrected_position = 0
    value = 0
    data_index = 0
    for pos in range(1, n + 1):
        if pos & (pos - 1):
            value |= word[pos] << data_index
            data_index += 1
    return DecodeResult(value=value, corrected=corrected,
                        double_error=double_error,
                        corrected_position=corrected_position)


@dataclass
class EccStats:
    reads: int = 0
    writes: int = 0
    corrected: int = 0
    uncorrectable: int = 0
    scrub_corrections: int = 0


class EccMemory:
    """A word-addressable memory protected by SECDED ECC.

    ``read`` transparently corrects single-bit upsets (and counts them);
    double-bit upsets raise :class:`EccError` unless ``silent`` is set.
    ``scrub`` walks the array rewriting corrected codewords — the standard
    defence against error accumulation between reads.
    """

    def __init__(self, size_words: int, data_bits: int = 32) -> None:
        self.size = size_words
        self.data_bits = data_bits
        self._codes: List[int] = [encode(0, data_bits)] * size_words
        self.stats = EccStats()

    def write(self, address: int, value: int) -> None:
        self._check(address)
        mask = (1 << self.data_bits) - 1
        self._codes[address] = encode(value & mask, self.data_bits)
        self.stats.writes += 1

    def read(self, address: int, silent: bool = False) -> int:
        self._check(address)
        result = decode(self._codes[address], self.data_bits)
        self.stats.reads += 1
        if result.double_error:
            self.stats.uncorrectable += 1
            if not silent:
                raise EccError(f"uncorrectable double-bit error at "
                               f"address {address}")
            return result.value
        if result.corrected:
            self.stats.corrected += 1
            self._codes[address] = encode(result.value, self.data_bits)
        return result.value

    def copy(self) -> "EccMemory":
        """An independent copy of the stored codewords, with fresh stats."""
        clone = copy.copy(self)
        clone._codes = list(self._codes)
        clone.stats = EccStats()
        return clone

    def changed_addresses(self, other: "EccMemory") -> List[int]:
        """Addresses whose stored codeword differs from ``other``'s, in
        address order (both memories must have the same size)."""
        return [address for address, (mine, theirs)
                in enumerate(zip(self._codes, other._codes))
                if mine != theirs]

    def inject_bit_flip(self, address: int, bit: int) -> None:
        """SEU injection into the raw codeword (data or parity bit)."""
        self._check(address)
        if not 0 <= bit < codeword_bits(self.data_bits):
            raise EccError(f"bit {bit} outside codeword")
        self._codes[address] ^= (1 << bit)

    def scrub(self) -> int:
        """Correct latent single-bit errors across the whole array."""
        fixed = 0
        for address in range(self.size):
            result = decode(self._codes[address], self.data_bits)
            if result.corrected and not result.double_error:
                self._codes[address] = encode(result.value, self.data_bits)
                fixed += 1
        self.stats.scrub_corrections += fixed
        return fixed

    def _check(self, address: int) -> None:
        if not 0 <= address < self.size:
            raise EccError(f"address {address} out of range")
