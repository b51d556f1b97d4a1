"""Coverage hooks see the reference core state on both engines.

A ``pc_hook`` or ``branch_hook`` is an observer of the reference
interpreter: at every call it may read the core's cycle count and the
bus counters, and coverage tooling (``CoverageTracer``) relies on the
call stream.  A hooked ``DbtCore`` therefore runs through the inherited
reference ``step()``, and each hook records the same sequence of
``(pc, cycles, bus reads)`` and ``(pc, taken, conditional, cycles)`` as
it does on the ``interp`` engine.
"""

import random

import pytest
from test_dbt import CODE_BASE, random_program

from repro.soc import NgUltraSoc, assemble

#: Seven instructions; the first translated block is the six up to and
#: including the BNE.
PROBE_SOURCE = """
    MOVI r1, #3
    MOVI r2, #5
    ADDI r1, r1, #1
    ADDI r2, r2, #-1
    CMP  r1, r2
    BNE  done
    done:
    HALT
"""


def hook_streams(words, engine, max_steps):
    """Run ``words`` at ``CODE_BASE`` on ``engine`` with both hooks
    attached; return what each hook recorded and the core's state."""
    soc = NgUltraSoc(engine=engine)
    soc.tcm.load(words)
    core = soc.master_core()
    core.reset(entry_point=CODE_BASE)
    pcs, branches = [], []
    core.pc_hook = lambda c, pc, _word: \
        pcs.append((pc, c.cycles, soc.bus.reads))
    core.branch_hook = lambda c, pc, taken, conditional: \
        branches.append((pc, taken, conditional, c.cycles))
    core.run(max_steps)
    state = (list(core.regs), core.cycles, core.state, soc.bus.reads,
             soc.bus.writes)
    return pcs, branches, state


def test_probe_block_hooks_read_the_reference_counters():
    """Inside one six-instruction block, each hook call sees the cycles
    and bus reads of the instructions before it, as the reference
    charges them: the cycle at step start, the read of the fetch."""
    words = assemble(PROBE_SOURCE, base_address=CODE_BASE)
    expected_pcs = [(CODE_BASE + 4 * i, i, i + 1) for i in range(7)]
    # r1 == r2 == 4 after the ADDIs: the BNE at +20 falls through.
    expected_branches = [(CODE_BASE + 20, False, True, 6)]
    for engine in ("dbt", "interp"):
        pcs, branches, _ = hook_streams(words, engine, 100)
        assert pcs == expected_pcs, engine
        assert branches == expected_branches, engine


@pytest.mark.parametrize("seed", range(6))
def test_random_program_hook_streams_match(seed):
    rng = random.Random(3000 + seed)
    words = assemble(random_program(rng, n_instr=40),
                     base_address=CODE_BASE)
    dbt = hook_streams(words, "dbt", 2_000)
    ref = hook_streams(words, "interp", 2_000)
    assert dbt == ref
    assert dbt[0], "the program ran no instruction"
