"""Shared per-target analysis state handed to context-aware rules.

Rules declaring a third parameter (``fn(artifact, emit, context)``)
receive an :class:`AnalysisContext`.  It carries the ``--deep`` flag and
memoizes one :class:`~repro.analysis.dataflow.driver.ModuleDataflow` per
IR module, so every deep rule linting the same module shares the same
fixpoint solves.  The accumulated solver counters are collected by the
analyzer after each target and merged deterministically.
"""

from __future__ import annotations

from typing import Dict, List

from .dataflow.driver import ModuleDataflow


class AnalysisContext:
    """Per-target rule context: deep mode + memoized dataflow solves."""

    def __init__(self, deep: bool = False) -> None:
        self.deep = deep
        self._dataflow: List[ModuleDataflow] = []

    def dataflow(self, module) -> ModuleDataflow:
        """The memoized dataflow driver of ``module`` (by identity)."""
        for driver in self._dataflow:
            if driver.module is module:
                return driver
        driver = ModuleDataflow(module)
        self._dataflow.append(driver)
        return driver

    def counters(self) -> Dict[str, int]:
        """Deterministic counter totals across every module analyzed."""
        merged: Dict[str, int] = {}
        for driver in self._dataflow:
            for key, value in driver.counters.items():
                merged[key] = merged.get(key, 0) + value
        return merged
