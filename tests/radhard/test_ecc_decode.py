"""Exhaustive SECDED decode behaviour over every 1-, 2- and 3-bit error.

A Hamming syndrome past the last codeword position cannot come from a
single flip, so the decoder must report it uncorrectable instead of
"correcting" a bit that does not exist and returning wrong data.
"""

from itertools import combinations

import pytest

from repro.radhard import EccError, EccMemory, codeword_bits, decode, \
    encode

VALUES = {8: 0xA5, 16: 0xBEEF, 32: 0x12345678}


def flipped(code: int, bits) -> int:
    for bit in bits:
        code ^= 1 << bit
    return code


@pytest.mark.parametrize("data_bits", sorted(VALUES))
class TestExhaustiveErrorPatterns:
    def test_single_flips_are_corrected_in_place(self, data_bits):
        value = VALUES[data_bits]
        code = encode(value, data_bits)
        for bit in range(codeword_bits(data_bits)):
            result = decode(code ^ (1 << bit), data_bits)
            assert result.value == value
            assert result.corrected and not result.double_error
            assert result.corrected_position == bit

    def test_double_flips_are_detected_not_corrected(self, data_bits):
        code = encode(VALUES[data_bits], data_bits)
        for bits in combinations(range(codeword_bits(data_bits)), 2):
            result = decode(flipped(code, bits), data_bits)
            assert result.double_error and not result.corrected
            assert result.corrected_position is None

    def test_no_correction_outside_the_codeword(self, data_bits):
        code = encode(VALUES[data_bits], data_bits)
        n = codeword_bits(data_bits)
        outside = 0
        for size in (1, 2, 3):
            for bits in combinations(range(n), size):
                result = decode(flipped(code, bits), data_bits)
                if result.corrected:
                    assert 0 <= result.corrected_position < n, bits
                    assert not result.double_error
                else:
                    assert result.corrected_position is None
                if size == 3 and result.double_error:
                    outside += 1
        # Some triple flips do land their syndrome past the codeword.
        assert outside > 0


def test_out_of_codeword_syndrome_is_uncorrectable_in_memory():
    memory = EccMemory(1)
    memory.write(0, 5)
    # Hamming positions 1, 8 and 32 give syndrome 41, past position 38.
    for bit in (1, 8, 32):
        memory.inject_bit_flip(0, bit)
    with pytest.raises(EccError):
        memory.read(0)
    assert memory.stats.corrected == 0
    assert memory.stats.uncorrectable == 1
