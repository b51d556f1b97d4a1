"""The analysis driver: run selected rules over artifacts, concurrently.

The :class:`Analyzer` fans (target, rule) work out over the execution
engine's one dispatcher, :func:`~repro.exec.run_sharded`, one target per
shard: each *target* (one artifact of one layer) is an independent job,
so independent pass packs — an HLS module, a netlist, a hypervisor
configuration and a boot flash — lint concurrently with the same
determinism contract as every other campaign in the repo: results are
folded in plan order regardless of backend or job count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..exec import plan_shards, run_sharded
from .context import AnalysisContext
from .diagnostics import Diagnostic, Severity, max_severity
from .registry import DEFAULT_REGISTRY, Rule, RuleRegistry

JSON_SCHEMA_VERSION = 1


@dataclass
class AnalysisTarget:
    """One artifact to lint: its layer, a display name and the object."""

    layer: str
    name: str
    artifact: object


@dataclass
class PrelintedArtifact:
    """An artifact that could not be built; carries its findings.

    Target builders use this when the *input* fails (unparseable source,
    malformed XML): instead of crashing the analyzer, the failure itself
    becomes the target's diagnostics.
    """

    diagnostics: List[Diagnostic]


@dataclass
class TargetResult:
    """One target's lint outcome: findings + deterministic counters.

    Counters (dataflow solver iterations, widenings, per-domain transfer
    tallies) merge in plan order so the totals are identical at any job
    count or backend.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass
class AnalysisReport:
    """Merged diagnostics of one analyzer run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    targets: List[str] = field(default_factory=list)
    suppressed: int = 0
    rules_run: int = 0
    # Deep (dataflow) mode: solver counters appear in the JSON document.
    deep: bool = False
    counters: Dict[str, int] = field(default_factory=dict)

    # -- queries --------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    def counts(self) -> Dict[str, int]:
        counts = {s.value: 0 for s in Severity}
        for diag in self.diagnostics:
            counts[diag.severity.value] += 1
        return counts

    def messages(self, severity: Severity = Severity.ERROR) -> List[str]:
        """Plain messages at/above a severity (legacy validate() shape)."""
        return [d.message for d in self.diagnostics
                if d.severity >= severity]

    def exit_code(self, fail_on: Optional[Severity] = Severity.ERROR) -> int:
        """0 when nothing at/above ``fail_on`` fired (None: always 0)."""
        if fail_on is None:
            return 0
        worst = max_severity(self.diagnostics)
        return 1 if worst is not None and worst >= fail_on else 0

    def baseline_fingerprints(self) -> List[str]:
        return sorted({d.fingerprint for d in self.diagnostics})

    # -- renderers ------------------------------------------------------

    def render_text(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        counts = self.counts()
        summary = (f"{len(self.targets)} target(s), {self.rules_run} "
                   f"rule run(s): {counts['error']} error(s), "
                   f"{counts['warning']} warning(s), "
                   f"{counts['info']} info(s)")
        if self.suppressed:
            summary += f", {self.suppressed} suppressed by baseline"
        lines.append(summary)
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "version": JSON_SCHEMA_VERSION,
            "tool": "repro-lint",
            "targets": list(self.targets),
            "summary": {**self.counts(), "suppressed": self.suppressed},
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        if self.deep:
            # Only deep runs carry solver metrics, so shallow reports
            # (and their goldens) are byte-for-byte unchanged.
            document["deep"] = True
            document["solver"] = {key: self.counters[key]
                                  for key in sorted(self.counters)}
        return document

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent,
                          sort_keys=False)


def load_baseline(text: str) -> Set[str]:
    """Parse a baseline document into a suppression fingerprint set."""
    data = json.loads(text)
    if not isinstance(data, dict) \
            or not isinstance(data.get("suppress"), list):
        raise ValueError("baseline must be a JSON object with a "
                         "'suppress' list")
    return set(data["suppress"])


def render_baseline(report: AnalysisReport) -> str:
    """Render a baseline that suppresses every current finding."""
    return json.dumps({"version": JSON_SCHEMA_VERSION,
                       "suppress": report.baseline_fingerprints()},
                      indent=2)


class Analyzer:
    """Run a rule selection over analysis targets.

    ``rules`` is a list of glob patterns over rule ids (None = all);
    ``baseline`` a set of diagnostic fingerprints to suppress; ``jobs``
    fans independent targets out over the execution engine's dispatcher.
    """

    def __init__(self, rules: Optional[List[str]] = None,
                 baseline: Optional[Set[str]] = None,
                 jobs: int = 1, backend: str = "auto",
                 registry: Optional[RuleRegistry] = None,
                 deep: bool = False) -> None:
        self.registry = registry or DEFAULT_REGISTRY
        self.selected: List[Rule] = self.registry.select(rules, deep=deep)
        self.baseline: Set[str] = set(baseline or ())
        self.jobs = jobs
        self.backend = backend
        self.deep = deep

    def rules_for_layer(self, layer: str) -> List[Rule]:
        return [r for r in self.selected if r.layer == layer]

    def _lint_target(self, target: AnalysisTarget) -> TargetResult:
        if isinstance(target.artifact, PrelintedArtifact):
            return TargetResult(list(target.artifact.diagnostics))
        context = AnalysisContext(deep=self.deep)
        found: List[Diagnostic] = []
        for rule in self.rules_for_layer(target.layer):
            try:
                found.extend(rule.run(target.name, target.artifact,
                                      context))
            except Exception as error:  # noqa: BLE001 - rule crash is a finding
                found.append(Diagnostic(
                    rule="analysis.rule-crash", severity=Severity.ERROR,
                    layer=target.layer, target=target.name,
                    location=rule.rule_id,
                    message=f"rule crashed: {type(error).__name__}: "
                            f"{error}"))
        return TargetResult(found, context.counters())

    def run(self, targets: Sequence[AnalysisTarget]) -> AnalysisReport:
        targets = list(targets)
        report = AnalysisReport(
            targets=[f"{t.layer}:{t.name}" for t in targets],
            deep=self.deep)
        report.rules_run = sum(len(self.rules_for_layer(t.layer))
                               for t in targets)
        shards = run_sharded(
            lambda index, _seed: self._lint_target(targets[index]),
            plan_shards(len(targets), shard_size=1), jobs=self.jobs,
            backend=self.backend)
        merged: List[Diagnostic] = []
        # Plan-order fold keeps counters deterministic at any job count.
        for shard in shards:
            outcome = shard.results[0].value
            if outcome is None:
                continue
            merged.extend(outcome.diagnostics)
            for key, value in outcome.counters.items():
                report.counters[key] = report.counters.get(key, 0) + value
        kept: List[Diagnostic] = []
        for diag in merged:
            if diag.fingerprint in self.baseline:
                report.suppressed += 1
            else:
                kept.append(diag)
        report.diagnostics = sorted(kept, key=Diagnostic.sort_key)
        return report


def analyze(targets: Iterable[AnalysisTarget],
            rules: Optional[List[str]] = None,
            baseline: Optional[Set[str]] = None,
            jobs: int = 1, deep: bool = False) -> AnalysisReport:
    """One-shot convenience wrapper around :class:`Analyzer`."""
    return Analyzer(rules=rules, baseline=baseline, jobs=jobs,
                    deep=deep).run(list(targets))
