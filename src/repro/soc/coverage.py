"""Structural-coverage tracing for R52-lite programs (the gcov role).

Paper §IV: the BL1 datapack covers "unitary, integration, and validation
source code using open-source software tools (gcc compiler, gcov for
coverage, google test suite)".  ECSS DAL-B requires statement coverage
evidence; this tracer collects statement and branch coverage of programs
executed on the modelled cores and renders a gcov-style report for the
qualification datapack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .cpu import WORD, R52Core, disassemble


@dataclass
class BranchRecord:
    taken: int = 0
    not_taken: int = 0
    conditional: bool = True

    @property
    def both_covered(self) -> bool:
        return self.taken > 0 and self.not_taken > 0


class CoverageTracer:
    """Records executed instructions and branch outcomes on one or more
    cores over a program region ``[base, base + words * 4)``."""

    def __init__(self, base: int, words: int) -> None:
        self.base = base
        self.words = words
        self.executed: Dict[int, int] = {}        # address -> hit count
        self.instructions: Dict[int, int] = {}    # address -> opcode word
        self.branches: Dict[int, BranchRecord] = {}
        self._cores: List[R52Core] = []

    # -- attachment -----------------------------------------------------

    def attach(self, core: R52Core) -> None:
        core.pc_hook = self._on_instruction
        core.branch_hook = self._on_branch
        self._cores.append(core)

    def detach_all(self) -> None:
        for core in self._cores:
            core.pc_hook = None
            core.branch_hook = None
        self._cores.clear()

    def _in_region(self, address: int) -> bool:
        return self.base <= address < self.base + self.words * WORD

    def _on_instruction(self, _core, address: int, word: int) -> None:
        if self._in_region(address):
            self.executed[address] = self.executed.get(address, 0) + 1
            self.instructions[address] = word

    def _on_branch(self, _core, address: int, taken: bool,
                   conditional: bool = True) -> None:
        if self._in_region(address):
            record = self.branches.setdefault(
                address, BranchRecord(conditional=conditional))
            if taken:
                record.taken += 1
            else:
                record.not_taken += 1

    # -- metrics -----------------------------------------------------------

    @property
    def statements_hit(self) -> int:
        return len(self.executed)

    def statement_coverage(self) -> float:
        if self.words == 0:
            return 1.0
        return self.statements_hit / self.words

    def branch_coverage(self) -> float:
        """Fraction of observed conditional branches with both outcomes.

        Unconditional B/BL edges (recorded since the branch-hook fix)
        are control-flow *edges*, not decisions; they are excluded from
        the both-outcomes denominator but counted in ``edges_taken``.
        """
        records = [r for r in self.branches.values() if r.conditional]
        if not records:
            return 1.0
        covered = sum(1 for r in records if r.both_covered)
        return covered / len(records)

    @property
    def edges_taken(self) -> int:
        """Total control-flow edges traversed (incl. unconditional B/BL)."""
        return sum(r.taken + r.not_taken for r in self.branches.values())

    def uncovered_addresses(self) -> List[int]:
        return [self.base + i * WORD for i in range(self.words)
                if self.base + i * WORD not in self.executed]

    def meets_dal_b(self, statement_threshold: float = 1.0) -> bool:
        """ECSS DAL-B structural coverage: full statement coverage."""
        return self.statement_coverage() >= statement_threshold

    # -- report -----------------------------------------------------------

    def render(self, label: str = "program") -> str:
        lines = [f"coverage report — {label}",
                 f"  statements: {self.statements_hit}/{self.words} "
                 f"({self.statement_coverage():.1%})",
                 f"  branches (both outcomes): "
                 f"{self.branch_coverage():.1%} of "
                 f"{sum(1 for r in self.branches.values() if r.conditional)}"
                 f" observed ({self.edges_taken} edges)"]
        for address in sorted(self.executed):
            count = self.executed[address]
            text = disassemble(self.instructions[address])
            marker = ""
            if address in self.branches:
                record = self.branches[address]
                if record.conditional:
                    marker = (f"   [taken {record.taken}, "
                              f"not-taken {record.not_taken}]")
                else:
                    marker = f"   [taken {record.taken}]"
            lines.append(f"    {count:>6}: 0x{address:08x}  {text}{marker}")
        for address in self.uncovered_addresses():
            lines.append(f"    #####: 0x{address:08x}  (never executed)")
        return "\n".join(lines)
