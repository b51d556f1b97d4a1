"""Canonical SEU campaign scenarios (paper §I mitigation matrix).

The unprotected-SRAM / ECC / TMR memory campaigns appear in the
qualification benchmark, the CLI ``seu`` subcommand and the determinism
tests; defining them once here keeps their outcome classification (and
therefore the golden tables) in a single place.

Each protected-memory factory builds its golden memory once; a run's
``setup`` copies it and ``evaluate`` reads back only the words whose
stored state the upsets changed.  An untouched word decodes (or votes)
to its golden value with no correction, so reading it cannot change
the outcome: a run costs what its upset touches, not the memory size.

``beam_campaign`` additionally models the *fixture* side of a physical
test: every evaluation includes a dwell delay standing in for beam/tester
equipment latency, which is what makes real campaigns throughput-bound
and is exactly the regime the thread backend parallelizes.
"""

from __future__ import annotations

import time
from typing import List

from .campaign import Campaign
from .ecc import EccError, EccMemory
from .seu import EccMemoryTarget, SeuInjector, TmrMemoryTarget, \
    WordMemoryTarget
from .tmr import TmrMemory

DEFAULT_WORDS = 64


def golden_pattern(words: int = DEFAULT_WORDS) -> List[int]:
    """The reference memory image every scenario checks against."""
    return [i * 37 + 5 for i in range(words)]


def raw_sram_campaign(words: int = DEFAULT_WORDS) -> Campaign:
    """Unprotected SRAM: any upset in used state is silent corruption."""
    golden = golden_pattern(words)

    def setup():
        return list(golden)

    def inject(memory, rng):
        injector = SeuInjector(WordMemoryTarget(memory),
                               seed=rng.randrange(1 << 30))
        return injector.inject_random().description

    def evaluate(memory):
        return "masked" if memory == golden else "sdc"

    return Campaign("unprotected SRAM", setup, inject, evaluate,
                    scenario_params={"words": words})


def ecc_campaign(words: int = DEFAULT_WORDS, upsets: int = 1) -> Campaign:
    """SECDED-protected memory: corrects singles, detects doubles."""
    golden = golden_pattern(words)
    golden_memory = EccMemory(words)
    for address, value in enumerate(golden):
        golden_memory.write(address, value)

    def setup():
        return golden_memory.copy()

    def inject(memory, rng):
        injector = SeuInjector(EccMemoryTarget(memory),
                               seed=rng.randrange(1 << 30))
        return injector.inject_burst(upsets)[-1].description

    def evaluate(memory):
        # Untouched words decode to golden with no correction, so only
        # the words the upsets changed are read.
        touched = memory.changed_addresses(golden_memory)
        try:
            values = [memory.read(a) for a in touched]
        except EccError:
            return "detected"
        if values != [golden[a] for a in touched]:
            return "sdc"
        return "corrected" if memory.stats.corrected else "masked"

    name = f"ECC SECDED ({upsets} upset{'s' if upsets > 1 else ''})"
    return Campaign(name, setup, inject, evaluate, upsets_per_run=1,
                    scenario_params={"words": words, "upsets": upsets})


def tmr_campaign(words: int = DEFAULT_WORDS) -> Campaign:
    """Triplicated memory: single upsets always outvoted."""
    golden = golden_pattern(words)
    golden_memory = TmrMemory(words)
    golden_memory.load(golden)

    def setup():
        return golden_memory.copy()

    def inject(memory, rng):
        injector = SeuInjector(TmrMemoryTarget(memory),
                               seed=rng.randrange(1 << 30))
        return injector.inject_random().description

    def evaluate(memory):
        # Untouched words vote unanimously to golden: only the words the
        # upsets changed are read.
        touched = memory.changed_addresses(golden_memory)
        values = [memory.read(a) for a in touched]
        if values != [golden[a] for a in touched]:
            return "sdc"
        return "corrected" if memory.stats.corrected_votes else "masked"

    return Campaign("TMR memory", setup, inject, evaluate,
                    scenario_params={"words": words})


def beam_campaign(words: int = DEFAULT_WORDS,
                  dwell_s: float = 0.001) -> Campaign:
    """ECC campaign with per-run fixture dwell (beam/tester latency).

    The dwell sleep releases the GIL, so this scenario scales with the
    thread backend even on a single core — the same way a real campaign
    limited by equipment turnaround does.
    """
    base = ecc_campaign(words)

    def evaluate(memory):
        time.sleep(dwell_s)
        return base.evaluate(memory)

    return Campaign(f"beam fixture (dwell {dwell_s * 1e3:.1f}ms)",
                    base.setup, base.inject, evaluate,
                    scenario_params={"words": words, "dwell_s": dwell_s})


#: Scenario factory ids accepted by the ``seu``/``mega`` job kinds —
#: how a service client (which cannot ship campaign closures over the
#: wire) names a campaign in ``JobSpec.params["scenario"]``.
SCENARIO_FACTORIES = {
    "raw-sram": raw_sram_campaign,
    "ecc": ecc_campaign,
    "tmr": tmr_campaign,
    "beam": beam_campaign,
}

#: The §I mitigation matrix (raw vs ECC vs TMR), by factory id.
MEMORY_SCENARIOS = ("raw-sram", "ecc", "tmr")


def memory_scenarios(words: int = DEFAULT_WORDS) -> List[Campaign]:
    """The §I mitigation matrix: raw vs ECC vs TMR."""
    return [build_scenario(name, words=words) for name in MEMORY_SCENARIOS]


def build_scenario(name: str, **params) -> Campaign:
    """Instantiate a canonical campaign from its factory id.

    ``params`` are the factory's keyword arguments (``words``,
    ``upsets``, ``dwell_s``...).  Unknown ids raise ``KeyError`` with
    the known choices, which the job API surfaces as a spec error.
    """
    factory = SCENARIO_FACTORIES.get(name)
    if factory is None:
        raise KeyError(
            f"unknown scenario {name!r} "
            f"(known: {', '.join(sorted(SCENARIO_FACTORIES))})")
    return factory(**params)
