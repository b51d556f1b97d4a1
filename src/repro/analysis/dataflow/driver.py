"""Per-module dataflow orchestration: memoized solves + counters.

Lint rules never call :func:`~.solver.solve` directly — they go through a
:class:`ModuleDataflow`, which memoizes one fixpoint per ``(function,
domain)`` pair so five rules sharing the interval domain pay for one
solve, and which aggregates :class:`~.solver.SolverStats` into the
deterministic counter map the analyzer merges into telemetry
(``dataflow.solver.iterations``, ``dataflow.widenings``,
``dataflow.<domain>.transfers``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ...hls.ir.cfg import Function, Module
from .domains import (
    ConstDomain,
    IntervalDomain,
    LivenessDomain,
    MustDefDomain,
    SeuTaintDomain,
)
from .lattice import Domain
from .solver import CfgView, DataflowResult, cfg_view, solve

DomainFactory = Callable[[Function, Optional[Module]], Domain]

DOMAIN_FACTORIES: Dict[str, DomainFactory] = {
    "const": lambda func, module: ConstDomain(),
    "interval": lambda func, module: IntervalDomain(func, module),
    "liveness": lambda func, module: LivenessDomain(),
    "mustdef": lambda func, module: MustDefDomain(),
    "seu-taint": lambda func, module: SeuTaintDomain(),
}


class ModuleDataflow:
    """Memoized fixpoint solves over the functions of one module."""

    def __init__(self, module: Optional[Module] = None) -> None:
        self.module = module
        self._results: Dict[Tuple[str, str], DataflowResult] = {}
        self._views: Dict[str, CfgView] = {}
        # Insertion-ordered, deterministic across runs and job counts.
        self.counters: Dict[str, int] = {}

    def view(self, func: Function) -> CfgView:
        """The shared forward CFG traversal of ``func``."""
        if func.name not in self._views:
            self._views[func.name] = cfg_view(func)
        return self._views[func.name]

    def solve(self, func: Function, domain_name: str) -> DataflowResult:
        """Fixpoint of ``domain_name`` over ``func`` (memoized)."""
        key = (func.name, domain_name)
        if key not in self._results:
            factory = DOMAIN_FACTORIES[domain_name]
            domain = factory(func, self.module)
            result = solve(domain, func)
            self._results[key] = result
            self._record(domain_name, result)
        return self._results[key]

    def _bump(self, key: str, amount: int) -> None:
        if amount:
            self.counters[key] = self.counters.get(key, 0) + amount

    def _record(self, domain_name: str, result: DataflowResult) -> None:
        stats = result.stats
        self._bump("dataflow.solver.iterations", stats.iterations)
        self._bump("dataflow.widenings", stats.widenings)
        self._bump("dataflow.narrowings", stats.narrowings)
        self._bump(f"dataflow.{domain_name}.transfers", stats.transfers)
        if not stats.converged:
            self._bump(f"dataflow.{domain_name}.unconverged", 1)
