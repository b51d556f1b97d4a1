"""Differential test: touched-word evaluate vs the full-memory evaluate.

The ECC and TMR scenarios copy a prebuilt golden memory per run and
read back only the words whose stored state an upset changed.  The
full evaluate below — every word read in address order — is the
oracle: for any set of flips applied to a ``setup()`` context, both
must classify the run the same way.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radhard import EccError, EccMemory, TmrMemory, codeword_bits
from repro.radhard.scenarios import ecc_campaign, golden_pattern, \
    tmr_campaign

ECC_BITS = codeword_bits(32)
TMR_BITS = 32


def full_evaluate_ecc(memory, golden):
    try:
        values = [memory.read(a) for a in range(len(golden))]
    except EccError:
        return "detected"
    if values != golden:
        return "sdc"
    return "corrected" if memory.stats.corrected else "masked"


def full_evaluate_tmr(memory, golden):
    values = [memory.read(a) for a in range(len(golden))]
    if values != golden:
        return "sdc"
    return "corrected" if memory.stats.corrected_votes else "masked"


def ecc_outcomes(words, flips):
    """(touched, full) outcomes of ``(address, bit)`` codeword flips."""
    campaign = ecc_campaign(words)
    touched, full = campaign.setup(), campaign.setup()
    for memory in (touched, full):
        for address, bit in flips:
            memory.inject_bit_flip(address, bit)
    return (campaign.evaluate(touched),
            full_evaluate_ecc(full, golden_pattern(words)))


def tmr_outcomes(words, flips):
    """(touched, full) outcomes of ``(bank, address, bit)`` flips."""
    campaign = tmr_campaign(words)
    touched, full = campaign.setup(), campaign.setup()
    for memory in (touched, full):
        for bank, address, bit in flips:
            memory.inject(bank, address, bit)
    return (campaign.evaluate(touched),
            full_evaluate_tmr(full, golden_pattern(words)))


@st.composite
def ecc_cases(draw):
    """A word count and flips clustered on a few words, so that two or
    three flips in one codeword (and the parity bit 0) come up often."""
    words = draw(st.integers(1, 24))
    flips = []
    for address in draw(st.lists(st.integers(0, words - 1), max_size=4)):
        for bit in draw(st.lists(st.integers(0, ECC_BITS - 1),
                                 min_size=1, max_size=3)):
            flips.append((address, bit))
    return words, flips


@st.composite
def tmr_cases(draw):
    words = draw(st.integers(1, 24))
    flips = []
    for address in draw(st.lists(st.integers(0, words - 1), max_size=4)):
        for bank in draw(st.lists(st.integers(0, 2), min_size=1,
                                  max_size=3)):
            flips.append((bank, address,
                          draw(st.integers(0, TMR_BITS - 1))))
    return words, flips


class TestEccTouchedEvaluate:
    @given(ecc_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_evaluate(self, case):
        touched, full = ecc_outcomes(*case)
        assert touched == full

    @pytest.mark.parametrize("flips, outcome", [
        ([], "masked"),
        ([(3, 0)], "corrected"),                       # overall parity
        ([(3, 5), (3, 5)], "masked"),                  # flip undone
        ([(3, 5), (3, 9)], "detected"),                # two in one word
        ([(3, 1), (3, 2), (3, 4)], "sdc"),            # three, miscorrected
        ([(3, 1), (3, 8), (3, 32)], "detected"),      # three, off the end
        ([(0, 7), (5, 0), (9, 38)], "corrected"),     # several words
        ([(0, 7), (5, 6), (5, 8), (9, 38)], "detected"),
    ])
    def test_named_cases(self, flips, outcome):
        touched, full = ecc_outcomes(16, flips)
        assert touched == full == outcome


class TestTmrTouchedEvaluate:
    @given(tmr_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_evaluate(self, case):
        touched, full = tmr_outcomes(*case)
        assert touched == full

    @pytest.mark.parametrize("flips, outcome", [
        ([], "masked"),
        ([(1, 4, 3)], "corrected"),
        ([(0, 4, 3), (1, 4, 3)], "sdc"),               # two banks agree
        ([(0, 4, 3), (1, 4, 7)], "corrected"),         # bitwise vote
        ([(0, 4, 3), (1, 4, 3), (2, 4, 3)], "sdc"),   # all three banks
        ([(0, 4, 3), (1, 4, 7), (2, 4, 9)], "corrected"),
        ([(2, 0, 0), (0, 6, 31), (1, 11, 12)], "corrected"),
    ])
    def test_named_cases(self, flips, outcome):
        touched, full = tmr_outcomes(12, flips)
        assert touched == full == outcome


def reference_memory(kind, words):
    if kind == "ecc":
        memory = EccMemory(words)
        for address, value in enumerate(golden_pattern(words)):
            memory.write(address, value)
        return memory
    memory = TmrMemory(words)
    memory.load(golden_pattern(words))
    return memory


@pytest.mark.parametrize("kind, factory", [("ecc", ecc_campaign),
                                           ("tmr", tmr_campaign)])
class TestGoldenMemoryIsolation:
    @pytest.mark.parametrize("jobs, backend", [(1, "serial"),
                                               (2, "thread")])
    def test_golden_unchanged_by_campaign(self, kind, factory, jobs,
                                          backend):
        campaign = factory(32)
        report = campaign.run(1000, seed=7, jobs=jobs, backend=backend)
        assert sum(report.counts.values()) == 1000
        assert report.counts.get("corrected", 0) > 0
        after = campaign.setup()
        assert after.changed_addresses(reference_memory(kind, 32)) == []

    def test_setups_share_no_stats_or_storage(self, kind, factory):
        campaign = factory(8)
        first, second = campaign.setup(), campaign.setup()
        assert first is not second and first.stats is not second.stats
        flip = (lambda m: m.inject_bit_flip(2, 3)) if kind == "ecc" \
            else (lambda m: m.inject(1, 2, 3))
        flip(first)
        assert first.changed_addresses(second) == [2]
        assert second.changed_addresses(reference_memory(kind, 8)) == []
        first.read(2)
        assert second.stats.reads == 0
        assert campaign.evaluate(second) == "masked"
        assert campaign.setup().stats.reads == 0
