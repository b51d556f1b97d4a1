"""Pass manager for the HLS middle end.

Mirrors Bambu's front-end/middle-end organization (paper Fig. 2): a
sequence of analysis and transformation passes runs over each function
until a fixed point, collecting per-pass statistics that the flow report
exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..ir import Function, Module, verify_function

# A pass takes a function plus its enclosing module and returns the
# number of changes it made.
PassFn = Callable[[Function, Module], int]


@dataclass
class PassStats:
    """Cumulative statistics for one pass across the whole run."""

    name: str
    invocations: int = 0
    changes: int = 0


@dataclass
class OptReport:
    """Summary of a middle-end run."""

    passes: List[PassStats] = field(default_factory=list)
    iterations: Dict[str, int] = field(default_factory=dict)
    ops_before: Dict[str, int] = field(default_factory=dict)
    ops_after: Dict[str, int] = field(default_factory=dict)

    def reduction(self, func_name: str) -> float:
        before = self.ops_before.get(func_name, 0)
        after = self.ops_after.get(func_name, before)
        if before == 0:
            return 0.0
        return 1.0 - after / before


class PassManager:
    """Runs a pipeline of passes to a fixed point per function."""

    def __init__(self, max_iterations: int = 10) -> None:
        self._pipeline: List[tuple] = []
        self.max_iterations = max_iterations

    def add(self, name: str, pass_fn: PassFn) -> "PassManager":
        self._pipeline.append((name, pass_fn))
        return self

    def run(self, module: Module) -> OptReport:
        report = OptReport()
        stats = {name: PassStats(name) for name, _ in self._pipeline}
        report.passes = [stats[name] for name, _ in self._pipeline]
        for func in module.functions.values():
            report.ops_before[func.name] = func.op_count()
            for iteration in range(self.max_iterations):
                changed = 0
                for name, pass_fn in self._pipeline:
                    delta = pass_fn(func, module)
                    stats[name].invocations += 1
                    stats[name].changes += delta
                    changed += delta
                if changed == 0:
                    report.iterations[func.name] = iteration + 1
                    break
            else:
                report.iterations[func.name] = self.max_iterations
            problems = verify_function(func)
            if problems:
                raise RuntimeError(
                    f"middle end broke {func.name}: {'; '.join(problems)}")
            report.ops_after[func.name] = func.op_count()
        return report


def default_pipeline(level: int = 2) -> PassManager:
    """Standard optimization pipelines.

    * level 0 — cleanup only (unreachable block removal);
    * level 1 — plus constant folding and dead-code elimination;
    * level 2 — plus CSE, algebraic simplification, copy propagation and
      CFG simplification (the default for synthesis);
    * level 3 — plus function inlining.
    """
    from .bitwidth import infer_width_hints
    from .constprop import constant_propagation
    from .cse import common_subexpression_elimination
    from .dce import dead_code_elimination, remove_unreachable
    from .inline import inline_functions
    from .licm import loop_invariant_code_motion
    from .simplify import algebraic_simplification, copy_propagation
    from .cfgopt import simplify_cfg

    manager = PassManager()
    manager.add("remove-unreachable", remove_unreachable)
    if level >= 3:
        manager.add("inline", inline_functions)
    if level >= 1:
        manager.add("constprop", constant_propagation)
        manager.add("dce", dead_code_elimination)
    if level >= 2:
        manager.add("copyprop", copy_propagation)
        manager.add("simplify", algebraic_simplification)
        manager.add("cse", common_subexpression_elimination)
        manager.add("licm", loop_invariant_code_motion)
        manager.add("simplify-cfg", simplify_cfg)
        manager.add("dce2", dead_code_elimination)
        manager.add("bitwidth", infer_width_hints)
    return manager


def optimize(module: Module, level: int = 2) -> OptReport:
    """Run the default pipeline at the given level over a module."""
    return default_pipeline(level).run(module)
