"""DBT-lite execution engine for the R52-lite cores.

The reference :class:`~repro.soc.cpu.R52Core` re-decodes every
instruction on every step: one ``bus.read_word`` (MPU check + address
routing) per fetch, a dict lookup and a mnemonic ``if`` chain per
execute.  That decode-per-step loop is the hot path of every boot,
hypervisor and co-simulation scenario (ROADMAP item 2).

This module rewrites it around **basic-block caching**, the classic
dynamic-binary-translation structure (HERO, arXiv:1712.06497, and the
BZL V&V platform, arXiv:2604.27013, both lean on fast oracle-checked
simulation for qualification campaigns):

* each straight-line run of instructions starting at a PC is decoded
  **once** and compiled to a specialized Python function (closure over
  nothing — all operands become constants or direct ``regs[i]``
  accesses), keyed by block start address;
* cycle and fetch counters are batched per block, placed so that a
  :class:`MemoryFault` raised mid-block leaves exactly the state the
  reference interpreter would have left (cycles, PC, fault attribution);
* cached blocks are invalidated on self-modifying stores (a page-indexed
  listener on :class:`SystemBus.write_word`), on SEU memory flips
  (``NgUltraSoc.inject_seu`` / ``notify_code_mutation``) and re-validated
  when the MPU configuration epoch or the core's privilege level changes.

There is one translated form and one cache per SoC.  The reference core
remains the oracle: ``DbtCore`` inherits from it and falls back to the
inherited single-step path for cores with a ``pc_hook`` or
``branch_hook`` (coverage tooling), peripheral-resident code and the
tail of a block that would cross the step budget, so every observer
sees the reference state and every fallback is bit-identical by
construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .cpu import PC, WORD, CoreState, MemoryFault, R52Core, _OPCODES
from .memory import PERIPH_BASE

#: Invalidation granularity: 256-byte pages (64 words).
PAGE_SHIFT = 8
#: Maximum decoded instructions per block (spans at most two pages).
MAX_BLOCK_WORDS = 64
#: Instructions each core executes per ``run_all`` scheduling turn; a
#: turn ends at the first block boundary at or past it.
DBT_QUANTUM = 128

_BRANCHES = {_OPCODES[m]: m for m in ("B", "BEQ", "BNE", "BLT", "BGE", "BL")}
_OP_NOP = _OPCODES["NOP"]
_OP_MOV = _OPCODES["MOV"]
_OP_MOVI = _OPCODES["MOVI"]
_OP_ADDI = _OPCODES["ADDI"]
_OP_CMP = _OPCODES["CMP"]
_OP_LDR = _OPCODES["LDR"]
_OP_STR = _OPCODES["STR"]
_OP_BX = _OPCODES["BX"]
_OP_SVC = _OPCODES["SVC"]
_OP_HALT = _OPCODES["HALT"]
_ALU = {
    _OPCODES["ADD"]: "+", _OPCODES["SUB"]: "-", _OPCODES["MUL"]: "*",
    _OPCODES["AND"]: "&", _OPCODES["ORR"]: "|", _OPCODES["EOR"]: "^",
}
_OP_LSL = _OPCODES["LSL"]
_OP_LSR = _OPCODES["LSR"]


class CompiledBlock:
    """One translated basic block: ``fn(core, regs, bus)`` returns the
    next PC (or ``None`` when the core stopped running)."""

    __slots__ = ("start", "end", "n_instr", "fn", "pages", "mpu_epoch",
                 "priv")

    def __init__(self, start: int, n_instr: int, fn) -> None:
        self.start = start
        self.n_instr = n_instr
        self.end = start + n_instr * WORD
        self.fn = fn
        self.mpu_epoch = -1
        self.priv = True
        self.pages = tuple(range(start >> PAGE_SHIFT,
                                 ((self.end - 1) >> PAGE_SHIFT) + 1))


class _Emitter:
    """Builds the Python source of one block function.

    Counter batching contract: ``core.cycles`` and ``bus.reads`` are
    flushed *before* every operation that can raise ``MemoryFault``
    (including the +1 for the in-flight instruction, which the reference
    charges at step start) and at the terminator, so a fault observes the
    exact reference counter state.  ``core._dbt_pc`` is staged before
    each faulting access for PC/fault attribution.
    """

    def __init__(self) -> None:
        self.lines: List[str] = ["def __dbt_block__(core, regs, bus):"]
        self._pending_cycles = 0
        self._pending_fetches = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " + text)

    def flush(self, extra_cycles: int = 0, extra_fetches: int = 0) -> None:
        cycles = self._pending_cycles + extra_cycles
        fetches = self._pending_fetches + extra_fetches
        if cycles:
            self.emit(f"core.cycles += {cycles}")
        if fetches:
            self.emit(f"bus.reads += {fetches}")
        self._pending_cycles = 0
        self._pending_fetches = 0

    def account(self, cycles: int = 1, fetches: int = 1) -> None:
        self._pending_cycles += cycles
        self._pending_fetches += fetches

    def source(self) -> str:
        return "\n".join(self.lines)


def _reg(index: int, pc_after: int) -> str:
    """Operand read: PC reads become the constant the reference sees."""
    if index == PC:
        return hex(pc_after)
    return f"regs[{index}]"


def _decode(word: int) -> Tuple[int, int, int, int, int]:
    opcode = (word >> 24) & 0xFF
    rd = (word >> 20) & 0xF
    ra = (word >> 16) & 0xF
    rb = (word >> 12) & 0xF
    imm12 = word & 0xFFF
    simm12 = imm12 if imm12 < 0x800 else imm12 - 0x1000
    return opcode, rd, ra, rb, simm12


def _is_terminator(word: int) -> bool:
    """Does this word end a straight-line run?"""
    opcode, rd, _ra, _rb, _ = _decode(word)
    if opcode in _BRANCHES or opcode in (_OP_BX, _OP_SVC, _OP_HALT):
        return True
    if opcode not in _MNEMONIC_SET:
        return True  # undefined: faults when reached
    # Any write to r15 is a computed branch.
    writes_pc = rd == PC and opcode in _PC_WRITERS
    return writes_pc


_MNEMONIC_SET = set(_OPCODES.values())
_PC_WRITERS = ({_OP_MOV, _OP_MOVI, _OP_ADDI, _OP_LDR, _OP_LSL, _OP_LSR}
               | set(_ALU))


def _compile_block(start: int, words: List[int]) -> CompiledBlock:
    """Translate ``words`` (a straight-line run at ``start``) to Python."""
    em = _Emitter()
    n = len(words)
    for i, word in enumerate(words):
        pc = start + i * WORD
        pc_after = (pc + WORD) & 0xFFFFFFFF
        opcode, rd, ra, rb, simm = _decode(word)
        last = i == n - 1
        a = _reg(ra, pc_after)
        b = _reg(rb, pc_after)

        if opcode in _BRANCHES:
            mnemonic = _BRANCHES[opcode]
            em.flush(extra_cycles=1, extra_fetches=1)
            target = (pc_after + simm * WORD) & 0xFFFFFFFF
            cond = {"B": "True", "BL": "True",
                    "BEQ": "core.flag_z", "BNE": "not core.flag_z",
                    "BLT": "core.flag_n != core.flag_v",
                    "BGE": "core.flag_n == core.flag_v"}[mnemonic]
            if cond == "True":
                if mnemonic == "BL":
                    em.emit(f"regs[14] = {hex(pc_after)}")
                em.emit(f"regs[15] = {hex(target)}")
                em.emit(f"return {hex(target)}")
            else:
                em.emit(f"if {cond}:")
                em.emit(f"    regs[15] = {hex(target)}")
                em.emit(f"    return {hex(target)}")
                em.emit(f"regs[15] = {hex(pc_after)}")
                em.emit(f"return {hex(pc_after)}")
            break
        if opcode == _OP_BX:
            em.flush(extra_cycles=1, extra_fetches=1)
            em.emit(f"_t = {a} & 0xFFFFFFFF")
            em.emit("regs[15] = _t")
            em.emit("return _t")
            break
        if opcode == _OP_SVC:
            imm8 = (word & 0xFFF) & 0xFF
            em.flush(extra_cycles=1, extra_fetches=1)
            em.emit(f"regs[15] = {hex(pc_after)}")
            em.emit("if core.svc_handler is None:")
            em.emit(f"    core._fault('SVC #{imm8} with no handler', "
                    f"{hex(pc)})")
            em.emit("    return None")
            em.emit(f"core._dbt_pc = {hex(pc)}")
            em.emit(f"core.svc_handler(core, {imm8})")
            em.emit("return regs[15]")
            break
        if opcode == _OP_HALT:
            em.flush(extra_cycles=1, extra_fetches=1)
            em.emit(f"regs[15] = {hex(pc_after)}")
            em.emit("core.state = _HALTED")
            em.emit("return None")
            break
        if opcode not in _MNEMONIC_SET:
            em.flush(extra_cycles=1, extra_fetches=1)
            em.emit(f"regs[15] = {hex(pc_after)}")
            em.emit(f"core._fault('undefined instruction 0x{word:08x}', "
                    f"{hex(pc)})")
            em.emit("return None")
            break

        if opcode == _OP_NOP:
            em.account()
        elif opcode == _OP_MOV:
            if rd == PC:
                em.flush(extra_cycles=1, extra_fetches=1)
                em.emit(f"_t = {a}")
                em.emit("regs[15] = _t")
                em.emit("return _t")
                break
            em.emit(f"regs[{rd}] = {a}")
            em.account()
        elif opcode == _OP_MOVI:
            imm16 = word & 0xFFFF
            if rd == PC:
                em.flush(extra_cycles=1, extra_fetches=1)
                em.emit(f"regs[15] = {hex(imm16)}")
                em.emit(f"return {hex(imm16)}")
                break
            em.emit(f"regs[{rd}] = {hex(imm16)}")
            em.account()
        elif opcode == _OP_ADDI:
            expr = f"({a} + {simm}) & 0xFFFFFFFF" if simm else a
            if rd == PC:
                em.flush(extra_cycles=1, extra_fetches=1)
                em.emit(f"_t = {expr}")
                em.emit("regs[15] = _t")
                em.emit("return _t")
                break
            em.emit(f"regs[{rd}] = {expr}")
            em.account()
        elif opcode in _ALU or opcode in (_OP_LSL, _OP_LSR):
            if opcode in _ALU:
                sym = _ALU[opcode]
                if sym in "&|^":
                    expr = f"{a} {sym} {b}"
                else:
                    expr = f"({a} {sym} {b}) & 0xFFFFFFFF"
            elif opcode == _OP_LSL:
                expr = f"({a} << ({b} & 31)) & 0xFFFFFFFF"
            else:
                expr = f"{a} >> ({b} & 31)"
            if rd == PC:
                em.flush(extra_cycles=1, extra_fetches=1)
                em.emit(f"_t = {expr}")
                em.emit("regs[15] = _t")
                em.emit("return _t")
                break
            em.emit(f"regs[{rd}] = {expr}")
            em.account()
        elif opcode == _OP_CMP:
            em.emit(f"_a = {a}")
            em.emit(f"_b = {b}")
            em.emit("_d = (_a - _b) & 0xFFFFFFFF")
            em.emit("core.flag_z = _d == 0")
            em.emit("core.flag_n = _d >= 0x80000000")
            em.emit("core.flag_v = "
                    "((_a ^ _b) & (_a ^ _d) & 0x80000000) != 0")
            em.account()
        elif opcode == _OP_LDR:
            addr = f"({a} + {simm}) & 0xFFFFFFFF" if simm else a
            em.flush(extra_cycles=1, extra_fetches=1)
            em.emit(f"core._dbt_pc = {hex(pc)}")
            if rd == PC:
                em.emit(f"_t = bus.read_word({addr}, core)")
                em.emit("core.cycles += 1")
                em.emit("regs[15] = _t")
                em.emit("return _t")
                break
            em.emit(f"regs[{rd}] = bus.read_word({addr}, core)")
            em.account(cycles=1, fetches=0)  # the load's extra cycle
        elif opcode == _OP_STR:
            addr = f"({a} + {simm}) & 0xFFFFFFFF" if simm else a
            src = _reg(rd, pc_after)
            em.flush(extra_cycles=1, extra_fetches=1)
            em.emit(f"core._dbt_pc = {hex(pc)}")
            em.emit(f"_addr = {addr}")
            em.emit(f"bus.write_word(_addr, {src}, core)")
            if not last:
                # A store into the not-yet-executed remainder of this
                # very block must stop translation-stale execution: the
                # write already invalidated the cache entry, so bail out
                # and re-dispatch (which re-decodes the modified code).
                # ``_dbt_steps`` tells the dispatcher how many of the
                # block's instructions actually ran.
                em.emit(f"if {hex(pc_after)} <= _addr < "
                        f"{hex(start + n * WORD)}:")
                em.emit("    core.cycles += 1")
                em.emit(f"    core._dbt_steps = {i + 1}")
                em.emit(f"    regs[15] = {hex(pc_after)}")
                em.emit(f"    return {hex(pc_after)}")
            em.account(cycles=1, fetches=0)  # the store's extra cycle
        else:  # pragma: no cover - decode covers every opcode above
            raise AssertionError(f"unhandled opcode {opcode:#x}")
    else:
        # Fell off the block cap: plain fall-through to the next PC.
        em.flush()
        end_pc = (start + n * WORD) & 0xFFFFFFFF
        em.emit(f"regs[15] = {hex(end_pc)}")
        em.emit(f"return {hex(end_pc)}")

    source = em.source()
    namespace = {"_HALTED": CoreState.HALTED}
    exec(compile(source, f"<dbt:0x{start:08x}>", "exec"), namespace)
    return CompiledBlock(start, n, namespace["__dbt_block__"])


class BlockCache:
    """The SoC's one translation cache, with page-indexed invalidation.

    Registers itself as the bus's code cache: every ``write_word``
    notifies :meth:`invalidate_address`.  SEU flips that bypass the bus
    go through ``NgUltraSoc.notify_code_mutation``.
    """

    def __init__(self, bus) -> None:
        self.bus = bus
        # Keyed by plain block start address: the hot dispatch loop
        # avoids tuple-key allocation.
        self.fast: Dict[int, CompiledBlock] = {}
        self.pages: Dict[int, Set[int]] = {}
        self.compiled = 0
        self.hits = 0
        self.invalidations = 0
        bus.code_cache = self

    # -- lookup / compile ------------------------------------------------

    def lookup(self, pc: int, core: R52Core) -> CompiledBlock:
        """Return a validated block at ``pc``; compiles on miss.

        Raises :class:`MemoryFault` when the first word is unfetchable
        (the caller faults the core, exactly like a reference fetch).
        """
        block = self.fast.get(pc)
        if block is not None:
            mpu = self.bus.mpu
            if block.mpu_epoch != mpu.epoch \
                    or block.priv != core.privileged:
                if not self._still_fetchable(block, core):
                    self._drop(pc)
                    block = None
                else:
                    block.mpu_epoch = mpu.epoch
                    block.priv = core.privileged
            if block is not None:
                self.hits += 1
                return block
        return self._compile(pc, core)

    def _still_fetchable(self, block: CompiledBlock, core: R52Core) -> bool:
        mpu = self.bus.mpu
        return all(mpu.check(addr, "r", core.privileged)
                   for addr in range(block.start, block.end, WORD))

    def _compile(self, pc: int, core: R52Core) -> CompiledBlock:
        words: List[int] = []
        addr = pc
        while len(words) < MAX_BLOCK_WORDS:
            try:
                word = self.bus.fetch_word(addr, core)
            except MemoryFault:
                if not words:
                    raise  # first fetch faults: core faults at pc
                break  # stop before the unfetchable word; fall through
            words.append(word)
            if _is_terminator(word):
                break
            addr += WORD
        block = _compile_block(pc, words)
        block.mpu_epoch = self.bus.mpu.epoch
        block.priv = core.privileged
        self.fast[pc] = block
        for page in block.pages:
            self.pages.setdefault(page, set()).add(pc)
        self.compiled += 1
        return block

    # -- invalidation ----------------------------------------------------

    def invalidate_address(self, address: int) -> None:
        """Drop every block whose range intersects ``address``'s page."""
        keys = self.pages.get(address >> PAGE_SHIFT)
        if not keys:
            return
        for pc in list(keys):
            self._drop(pc)

    def invalidate_all(self) -> None:
        self.invalidations += len(self.fast)
        self.fast.clear()
        self.pages.clear()

    def _drop(self, pc: int) -> None:
        dropped = self.fast.pop(pc, None)
        if dropped is None:
            return
        self.invalidations += 1
        for page in dropped.pages:
            bucket = self.pages.get(page)
            if bucket is not None:
                bucket.discard(pc)
                if not bucket:
                    del self.pages[page]

    # -- telemetry -------------------------------------------------------

    def publish(self, tracer) -> None:
        """Export the cache statistics as telemetry counters."""
        tracer.counter("dbt.blocks.compiled", "dbt").add(self.compiled)
        tracer.counter("dbt.blocks.hits", "dbt").add(self.hits)
        tracer.counter("dbt.blocks.invalidations", "dbt").add(
            self.invalidations)

    def stats(self) -> Dict[str, int]:
        return {"compiled": self.compiled, "hits": self.hits,
                "invalidations": self.invalidations,
                "resident": len(self.fast)}


class DbtCore(R52Core):
    """R52-lite core executing through the basic-block cache.

    Architecturally bit-identical to :class:`R52Core` (registers, flags,
    memory, cycle counts, fault attribution and hook streams); only the
    dispatch granularity differs.  ``cache`` is the SoC's one
    :class:`BlockCache`, shared by its cores.  ``step()`` is inherited
    unchanged and remains the single-instruction oracle path, used for
    hooked cores, budget tails and peripheral-resident code.
    """

    def __init__(self, core_id: int, bus, svc_handler=None, *,
                 cache: BlockCache) -> None:
        super().__init__(core_id, bus, svc_handler)
        self.cache = cache
        self._dbt_pc = 0
        # Instructions executed by the current block dispatch; preset to
        # the block length, overwritten by the SMC early-exit path.
        self._dbt_steps = 0

    def run_block(self, budget: int = 1 << 30) -> int:
        """Execute (at most) one basic block, bounded by ``budget``
        instructions; returns the number of instructions executed.

        A core with a ``pc_hook`` or ``branch_hook``, or with its PC in
        the peripheral window, runs one reference ``step()`` instead, so
        a hook sees the reference core and bus state at every call.
        """
        if self.state is not CoreState.RUNNING or budget <= 0:
            return 0
        pc = self.regs[PC]
        if (self.pc_hook is not None or self.branch_hook is not None
                or not self._cacheable(pc)):
            self.step()
            return 1
        try:
            block = self.cache.lookup(pc, self)
        except MemoryFault:
            # First word unfetchable: take the reference fetch path so
            # fault attribution AND bus counter side effects (an
            # unmapped-address fetch still counts one bus read, an
            # MPU-denied one does not) stay bit-identical.
            self.step()
            return 1
        if block.n_instr > budget:
            steps = 0
            while steps < budget and self.state is CoreState.RUNNING:
                self.step()
                steps += 1
            return steps
        self._dbt_steps = block.n_instr
        try:
            block.fn(self, self.regs, self.bus)
        except MemoryFault as fault:
            faulting = self._dbt_pc
            self.regs[PC] = faulting
            self._fault(str(fault), faulting)
            return ((faulting - block.start) >> 2) + 1
        return self._dbt_steps

    def run(self, max_steps: int = 1_000_000,
            quantum: Optional[int] = None) -> int:
        """Run until HALT/fault/WFI; returns executed steps.

        ``max_steps`` is a hard, exact cap: a block that would cross it
        runs only up to the cap, one instruction at a time through the
        reference ``step()``.  With ``quantum`` (a ``run_all`` scheduling
        turn) the run also returns at the first block boundary at or
        past ``quantum`` instructions, so a turn never splits a block.

        Inlines the hot dispatch loop: hoisted locals, a single dict
        probe per block and no per-block Python call overhead beyond
        the translated function itself.  Misses, revalidation, hooked
        cores and budget tails delegate to :meth:`run_block`.
        """
        limit = max_steps if quantum is None else min(max_steps, quantum)
        steps = 0
        regs = self.regs
        bus = self.bus
        cache = self.cache
        fast = cache.fast
        mpu = bus.mpu
        running = CoreState.RUNNING
        while steps < limit and self.state is running:
            if self.pc_hook is not None or self.branch_hook is not None:
                steps += self.run_block(max_steps - steps)
                continue
            block = fast.get(regs[PC])
            if (block is None or block.mpu_epoch != mpu.epoch
                    or block.priv != self.privileged
                    or block.n_instr > max_steps - steps):
                steps += self.run_block(max_steps - steps)
                continue
            cache.hits += 1
            self._dbt_steps = block.n_instr
            try:
                block.fn(self, regs, bus)
            except MemoryFault as fault:
                faulting = self._dbt_pc
                regs[PC] = faulting
                self._fault(str(fault), faulting)
                steps += ((faulting - block.start) >> 2) + 1
                break
            steps += self._dbt_steps
        return steps

    def _cacheable(self, pc: int) -> bool:
        """Peripheral-window code has read side effects: never cache."""
        return pc < PERIPH_BASE
