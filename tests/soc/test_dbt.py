"""Bit-identity property tests for the DBT engine (repro.soc.dbt).

The reference decode-per-step interpreter is the oracle: a ``DbtCore``
and an ``R52Core`` run the same randomized programs in lockstep (the
oracle single-steps exactly as many instructions as each translated
block executed) and the full architectural state is compared at every
block boundary — registers, flags, PC, cycle count, bus counters,
fault attribution and run state.  Dedicated cases cover the
invalidation paths: self-modifying stores, SEU bit flips and MPU
reconfiguration.
"""

import random

import pytest

from repro.soc import (
    CoreState,
    CoverageTracer,
    MpuRegion,
    NgUltraSoc,
    TCM_BASE,
    assemble,
)

CODE_BASE = TCM_BASE
DATA_BASE = TCM_BASE + 0x8000  # well past any generated program
DATA_WORDS = 16


def make_pair(words, svc_handler=None):
    """Two SoCs loaded identically: (dbt core, interp core)."""
    socs = []
    for engine in ("dbt", "interp"):
        soc = NgUltraSoc(svc_handler=svc_handler, engine=engine)
        soc.tcm.load(words)
        soc.master_core().reset(entry_point=CODE_BASE)
        socs.append(soc)
    return socs


def state_of(soc):
    core = soc.master_core()
    return {
        "regs": list(core.regs),
        "flags": (core.flag_z, core.flag_n, core.flag_v),
        "state": core.state,
        "cycles": core.cycles,
        "fault_reason": core.fault_reason,
        "fault_pc": core.fault_pc,
        "bus_reads": soc.bus.reads,
        "bus_writes": soc.bus.writes,
        "tcm": list(soc.tcm.data),
    }


def run_lockstep(words, max_steps=5_000, svc_handler=None,
                 pause_every=None, on_pause=None):
    """Run DBT blocks against the single-step oracle; compare at every
    block boundary.  ``on_pause(soc)`` mutates both SoCs identically
    every ``pause_every`` executed instructions (SEU/MPU scenarios)."""
    soc_d, soc_i = make_pair(words, svc_handler)
    core_d, core_i = soc_d.master_core(), soc_i.master_core()
    total = 0
    since_pause = 0
    while total < max_steps:
        ran = core_d.run_block(max_steps - total)
        if ran == 0:
            break
        for _ in range(ran):
            core_i.step()
        total += ran
        assert state_of(soc_d) == state_of(soc_i), \
            f"divergence after {total} instructions"
        if core_d.state is not CoreState.RUNNING:
            break
        if pause_every is not None:
            since_pause += ran
            if since_pause >= pause_every and on_pause is not None:
                on_pause(soc_d)
                on_pause(soc_i)
                since_pause = 0
    assert core_d.state == core_i.state
    assert state_of(soc_d) == state_of(soc_i)
    return soc_d, soc_i, total


# -- randomized program generator ---------------------------------------


def random_program(rng, n_instr=60):
    """A random but well-formed R52-lite program.

    r10 holds the data-area base, r11 is a scratch shift amount; all
    loads/stores stay inside the data window, all branches target labels
    inside the program.  Programs may loop forever — lockstep runs are
    step-bounded, not termination-bounded.
    """
    lines = [
        f"MOVI r10, #{TCM_BASE >> 16}",
        "MOVI r11, #16",
        "LSL  r10, r10, r11",
        f"MOVI r11, #{DATA_BASE - TCM_BASE}",
        "ADD  r10, r10, r11",
    ]
    body = []
    for i in range(n_instr):
        kind = rng.random()
        rd = rng.randrange(0, 10)
        ra = rng.randrange(0, 10)
        rb = rng.randrange(0, 10)
        if kind < 0.25:
            op = rng.choice(["ADD", "SUB", "MUL", "AND", "ORR", "EOR"])
            body.append(f"{op} r{rd}, r{ra}, r{rb}")
        elif kind < 0.35:
            body.append(f"MOVI r{rd}, #{rng.randrange(0, 0x10000)}")
        elif kind < 0.45:
            body.append(f"ADDI r{rd}, r{ra}, #{rng.randrange(-64, 64)}")
        elif kind < 0.55:
            shift = rng.choice(["LSL", "LSR"])
            body.append(f"MOVI r9, #{rng.randrange(0, 32)}")
            body.append(f"{shift} r{rd}, r{ra}, r9")
        elif kind < 0.65:
            offset = 4 * rng.randrange(0, DATA_WORDS)
            op = rng.choice(["LDR", "STR"])
            body.append(f"{op} r{rd}, [r10, #{offset}]")
        elif kind < 0.75:
            body.append(f"CMP r{ra}, r{rb}")
        else:
            branch = rng.choice(["BEQ", "BNE", "BLT", "BGE", "B"])
            target = rng.randrange(0, n_instr)
            body.append(f"{branch} L{target}")
    source_lines = []
    for i, line in enumerate(body):
        source_lines.append(f"L{i}:")
        source_lines.append(line)
    # Any missing label targets (past the end) land on the epilogue.
    for i in range(len(body), n_instr):
        source_lines.append(f"L{i}:")
    source_lines.append("HALT")
    return "\n".join(lines + source_lines)


class TestRandomizedLockstep:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_program_equivalence(self, seed):
        rng = random.Random(seed)
        source = random_program(rng)
        words = assemble(source, base_address=CODE_BASE)
        run_lockstep(words, max_steps=3_000)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_program_with_coverage_hooks(self, seed):
        """A hooked ``DbtCore`` steps the reference interpreter, so its
        coverage and final state match the oracle's."""
        rng = random.Random(1000 + seed)
        source = random_program(rng, n_instr=40)
        words = assemble(source, base_address=CODE_BASE)
        soc_d, soc_i = make_pair(words)
        tracers = []
        for soc in (soc_d, soc_i):
            tracer = CoverageTracer(CODE_BASE, len(words))
            tracer.attach(soc.master_core())
            tracers.append(tracer)
        core_d, core_i = soc_d.master_core(), soc_i.master_core()
        total = 0
        while total < 2_000:
            ran = core_d.run_block(2_000 - total)
            if ran == 0:
                break
            for _ in range(ran):
                core_i.step()
            total += ran
            if core_d.state is not CoreState.RUNNING:
                break
        assert state_of(soc_d) == state_of(soc_i)
        td, ti = tracers
        assert td.executed == ti.executed
        assert td.instructions == ti.instructions
        assert {a: (r.taken, r.not_taken, r.conditional)
                for a, r in td.branches.items()} == \
               {a: (r.taken, r.not_taken, r.conditional)
                for a, r in ti.branches.items()}

    @pytest.mark.parametrize("seed", range(4))
    def test_random_program_with_seu_flips(self, seed):
        """Periodic SEU flips into the code region invalidate cached
        blocks; both engines must track the mutated program."""
        rng = random.Random(2000 + seed)
        source = random_program(rng, n_instr=50)
        words = assemble(source, base_address=CODE_BASE)
        flip_rng = random.Random(seed)

        def flip(soc):
            address = CODE_BASE + 4 * flip_rng.randrange(3, len(words))
            bit = flip_rng.randrange(0, 32)
            soc.inject_seu(address, bit)

        # The same flip sequence is applied to both SoCs (flip_rng is
        # advanced twice per pause, once per SoC, so mirror it).
        def on_pause(soc):
            state = flip_rng.getstate()
            flip(soc)
            if soc.engine == "dbt":  # rewind so the oracle gets the same
                flip_rng.setstate(state)

        run_lockstep(words, max_steps=2_000, pause_every=150,
                     on_pause=on_pause)


class TestSelfModifyingCode:
    def test_store_over_upcoming_instruction(self):
        """A store that overwrites a later instruction in the *same*
        block must execute the new code, not the stale translation."""
        halt = assemble("HALT")[0]
        # One straight-line block: the STR (index 6) patches the NOP at
        # word index 8 (offset 32) — two instructions ahead *inside the
        # same translated block* — into HALT.  The DBT engine must stop
        # at the store and re-dispatch, so r5 stays 1.
        source = f"""
        MOVI r1, #{halt >> 16}
        MOVI r2, #16
        LSL  r1, r1, r2
        MOVI r3, #{CODE_BASE >> 16}
        MOVI r4, #16
        LSL  r3, r3, r4
        STR  r1, [r3, #32]
        MOVI r5, #1
        NOP
        MOVI r5, #2
        HALT
        """
        words = assemble(source, base_address=CODE_BASE)
        soc_d, _soc_i, _ = run_lockstep(words, max_steps=100)
        core = soc_d.master_core()
        assert core.state is CoreState.HALTED
        assert core.regs[5] == 1  # never reached the MOVI r5, #2

    def test_smc_loop_invalidates_and_matches(self):
        """Warm a loop, then store over its body; the cache must
        invalidate and both engines observe the new behavior."""
        halt = assemble("HALT")[0]
        # Loop decrements r1; when r1 hits 5 it patches the loop's NOP
        # (at label patch) into HALT.
        source = f"""
        MOVI r1, #20
        MOVI r2, #5
        MOVI r3, #{halt >> 16}
        MOVI r4, #16
        LSL  r3, r3, r4
        MOVI r10, #{CODE_BASE >> 16}
        LSL  r10, r10, r4
        loop:
        ADDI r1, r1, #-1
        CMP  r1, r2
        BNE  skip
        STR  r3, [r10, #44]
        skip:
        NOP
        B    loop
        HALT
        """
        words = assemble(source, base_address=CODE_BASE)
        # Offset 44 is word index 11: the loop's NOP.  Once r1 hits 5
        # the warmed loop block is patched and both engines halt there.
        soc_d, soc_i, _ = run_lockstep(words, max_steps=1_000)
        assert soc_d.master_core().state is CoreState.HALTED
        assert soc_d.dbt_cache.invalidations > 0


class TestInvalidation:
    def _loop_words(self):
        return assemble(
            """
            MOVI r1, #200
            loop:
            ADDI r1, r1, #-1
            CMP  r1, r0
            BNE  loop
            HALT
            """, base_address=CODE_BASE)

    def test_seu_flip_drops_cached_block(self):
        soc = NgUltraSoc(engine="dbt")
        words = self._loop_words()
        soc.tcm.load(words)
        core = soc.master_core()
        core.reset(entry_point=CODE_BASE)
        core.run(50)  # warm the cache
        cache = soc.dbt_cache
        assert cache.compiled > 0
        before = cache.invalidations
        soc.inject_seu(CODE_BASE + 4, 26)  # flip a bit of ADDI
        assert cache.invalidations > before

    def test_notify_code_mutation_flushes_all(self):
        soc = NgUltraSoc(engine="dbt")
        soc.tcm.load(self._loop_words())
        core = soc.master_core()
        core.reset(entry_point=CODE_BASE)
        core.run(50)
        assert soc.dbt_cache.stats()["resident"] > 0
        soc.notify_code_mutation()
        assert soc.dbt_cache.stats()["resident"] == 0

    def test_mpu_reconfiguration_lockstep(self):
        """Revoking execute/read on the code region mid-run must fault
        both engines identically (epoch revalidation)."""
        words = self._loop_words()

        def revoke(soc):
            soc.bus.mpu.configure([
                MpuRegion("data-only", DATA_BASE, DATA_WORDS * 4,
                          readable=True, writable=True),
            ])

        soc_d, soc_i, _ = run_lockstep(words, max_steps=500,
                                       pause_every=40, on_pause=revoke)
        assert soc_d.master_core().state is CoreState.FAULTED
        assert soc_d.master_core().fault_pc == \
            soc_i.master_core().fault_pc

    def test_counters_consistent(self):
        soc = NgUltraSoc(engine="dbt")
        soc.tcm.load(self._loop_words())
        core = soc.master_core()
        core.reset(entry_point=CODE_BASE)
        core.run(10_000)
        stats = soc.dbt_cache.stats()
        assert stats["compiled"] >= 2
        assert stats["hits"] > 100
        assert stats["resident"] <= stats["compiled"]


class TestSvcLockstep:
    def test_svc_handler_equivalence(self):
        """SVC dispatch (the hypervisor hot path) stays bit-identical,
        including handler-driven PC redirects."""
        def handler(core, imm):
            if imm == 1:
                core.regs[0] = (core.regs[0] + 7) & 0xFFFFFFFF
            elif imm == 2:
                core.regs[15] = CODE_BASE + 4 * 8  # redirect to HALT

        words = assemble(
            """
            MOVI r1, #10
            loop:
            SVC  #1
            ADDI r1, r1, #-1
            CMP  r1, r4
            BNE  loop
            SVC  #2
            NOP
            NOP
            HALT
            """, base_address=CODE_BASE)
        soc_d, soc_i, _ = run_lockstep(words, max_steps=200,
                                       svc_handler=handler)
        assert soc_d.master_core().state is CoreState.HALTED
        assert soc_d.master_core().regs[0] == 10 * 7


#: Three blocks: [MOVI .. BNE] at +0, the loop [ADDI .. BNE] at +4 and
#: [HALT] at +20.
LOOP_SOURCE = """
    MOVI r1, #300
    loop:
    ADDI r1, r1, #-1
    ADD  r2, r2, r1
    CMP  r1, r0
    BNE  loop
    HALT
"""
LOOP_BLOCK_STARTS = {CODE_BASE, CODE_BASE + 4, CODE_BASE + 20}


def per_core_socs(max_steps):
    """Both engines after ``run_all(max_steps)`` on four independent
    per-core programs (own code, own trip count, own data word).  Each
    runs an 11-instruction block, then a 7-instruction loop block."""
    socs = []
    for engine in ("dbt", "interp"):
        soc = NgUltraSoc(engine=engine)
        for core in soc.cores:
            base = CODE_BASE + core.core_id * 0x400
            soc.tcm.load(assemble(f"""
                MOVI r1, #{200 + 37 * core.core_id}
                MOVI r3, #{(DATA_BASE >> 8) + core.core_id}
                MOVI r4, #8
                LSL  r3, r3, r4
                loop:
                ADDI r1, r1, #-1
                ADD  r2, r2, r1
                EOR  r5, r2, r1
                STR  r5, [r3, #0]
                LDR  r6, [r3, #0]
                CMP  r1, r0
                BNE  loop
                HALT
                """, base_address=base), (base - TCM_BASE) // 4)
            core.reset(entry_point=base)
        steps = soc.run_all(max_steps)
        socs.append((soc, steps))
    return socs


class TestRunAllEquivalence:
    def test_multicore_final_state_matches(self):
        """run_all batches per block on the DBT engine; independent
        per-core programs end in identical architectural state."""
        words = assemble(LOOP_SOURCE, base_address=CODE_BASE)
        finals = []
        for engine in ("dbt", "interp"):
            soc = NgUltraSoc(engine=engine)
            soc.tcm.load(words)
            for core in soc.cores:
                core.reset(entry_point=CODE_BASE)
            steps = soc.run_all(100_000)
            finals.append((
                [list(c.regs) for c in soc.cores],
                [c.cycles for c in soc.cores],
                [c.state for c in soc.cores],
                sorted(steps.values()),
            ))
        assert finals[0] == finals[1]

    def test_turns_compile_only_block_starts(self):
        """A turn ends on a block boundary, so resuming never starts
        (and compiles) a block in the middle of another."""
        soc = NgUltraSoc()
        soc.tcm.load(assemble(LOOP_SOURCE, base_address=CODE_BASE))
        for core in soc.cores:
            core.reset(entry_point=CODE_BASE)
        soc.run_all(100_000)
        assert all(c.state is CoreState.HALTED for c in soc.cores)
        assert set(soc.dbt_cache.fast) == LOOP_BLOCK_STARTS
        assert soc.dbt_cache.stats()["compiled"] == len(LOOP_BLOCK_STARTS)

    @pytest.mark.parametrize("max_steps", [1, 129, 130, 131, 1001, 1403])
    def test_max_steps_is_exact(self, max_steps):
        """``max_steps`` caps every core exactly, also mid-block, and
        each core then matches the reference engine's state."""
        (dbt, dbt_steps), (ref, ref_steps) = per_core_socs(max_steps)
        assert dbt_steps == ref_steps == dict.fromkeys(range(4), max_steps)
        for core_d, core_i in zip(dbt.cores, ref.cores):
            assert core_d.state is core_i.state is CoreState.RUNNING
            assert list(core_d.regs) == list(core_i.regs)
            assert core_d.cycles == core_i.cycles
            assert (core_d.flag_z, core_d.flag_n, core_d.flag_v) == \
                (core_i.flag_z, core_i.flag_n, core_i.flag_v)
        assert dbt.tcm.data == ref.tcm.data

    def test_per_core_programs_run_to_halt(self):
        (dbt, dbt_steps), (ref, ref_steps) = per_core_socs(100_000)
        assert dbt_steps == ref_steps
        assert len(set(dbt_steps.values())) == 4
        assert [list(c.regs) for c in dbt.cores] == \
            [list(c.regs) for c in ref.cores]
        assert [c.cycles for c in dbt.cores] == [c.cycles for c in ref.cores]
        assert all(c.state is CoreState.HALTED for c in dbt.cores)
        assert dbt.tcm.data == ref.tcm.data
