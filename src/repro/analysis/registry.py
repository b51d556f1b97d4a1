"""Rule registry: declarative registration of analysis rules.

A rule is a function ``fn(artifact, emit)`` that inspects one artifact of
its layer and reports findings through ``emit(location, message,
severity=None, fix_hint=None)``.  Registration is declarative::

    @rule("netlist.comb-loop", layer="netlist", severity=Severity.ERROR,
          fix_hint="break the cycle with a register")
    def check_comb_loops(netlist, emit):
        ...

The default severity and fix hint live on the registration so renderers
and the rule catalogue can describe a rule without running it; ``emit``
may override both per finding.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Optional

from .diagnostics import LAYERS, Diagnostic, Severity

# emit(location, message, severity=None, fix_hint=None)
EmitFn = Callable[..., None]
# fn(artifact, emit) or fn(artifact, emit, context) — the registry
# inspects the arity once at registration time.
RuleFn = Callable[..., None]


def _wants_context(fn: Callable) -> bool:
    """True when the rule declares a third positional parameter."""
    positional = [
        p for p in inspect.signature(fn).parameters.values()
        if p.kind in (inspect.Parameter.POSITIONAL_ONLY,
                      inspect.Parameter.POSITIONAL_OR_KEYWORD)]
    return len(positional) >= 3


class RuleError(Exception):
    """Bad rule registration or selection."""


@dataclass
class Rule:
    """A registered rule plus its metadata."""

    rule_id: str
    layer: str
    severity: Severity
    fn: RuleFn
    doc: str = ""
    fix_hint: str = ""
    # Deep rules (dataflow/cross-layer proofs) only run under --deep.
    deep: bool = False
    # Whether fn takes the (artifact, emit, context) form.
    wants_context: bool = False

    def run(self, target: str, artifact: object,
            context: Optional[object] = None) -> List[Diagnostic]:
        """Execute on one artifact, collecting diagnostics."""
        found: List[Diagnostic] = []

        def emit(location: str, message: str,
                 severity: Optional[Severity] = None,
                 fix_hint: Optional[str] = None) -> None:
            found.append(Diagnostic(
                rule=self.rule_id, layer=self.layer, target=target,
                severity=severity or self.severity,
                location=location, message=message,
                fix_hint=self.fix_hint if fix_hint is None else fix_hint))

        if self.wants_context:
            self.fn(artifact, emit, context)
        else:
            self.fn(artifact, emit)
        return found


@dataclass
class RuleRegistry:
    """All known rules, keyed by id and grouped by layer."""

    rules: Dict[str, Rule] = field(default_factory=dict)

    def register(self, rule: Rule) -> Rule:
        if rule.layer not in LAYERS:
            raise RuleError(f"{rule.rule_id}: unknown layer {rule.layer!r} "
                            f"(expected one of {LAYERS})")
        if rule.rule_id in self.rules:
            raise RuleError(f"duplicate rule id {rule.rule_id!r}")
        self.rules[rule.rule_id] = rule
        return rule

    def select(self, patterns: Optional[List[str]] = None,
               deep: bool = False) -> List[Rule]:
        """Rules whose id matches any glob pattern (all when None).

        Deep rules are excluded unless ``deep`` is set — they require
        the dataflow context ``--deep`` provides.
        """
        ordered = sorted(self.rules.values(), key=lambda r: r.rule_id)
        if patterns:
            matched = [r for r in ordered
                       if any(fnmatchcase(r.rule_id, p) for p in patterns)]
            if not matched:
                raise RuleError(
                    f"no rule matches {', '.join(patterns)!s}; known "
                    "rules: " + ", ".join(sorted(self.rules)))
        else:
            matched = ordered
        selected = [r for r in matched if deep or not r.deep]
        if not selected:
            raise RuleError(
                f"{', '.join(patterns or [])}: only deep rules match; "
                "pass --deep to run them")
        return selected


DEFAULT_REGISTRY = RuleRegistry()


def rule(rule_id: str, layer: str, severity: Severity,
         fix_hint: str = "", deep: bool = False,
         registry: Optional[RuleRegistry] = None
         ) -> Callable[[RuleFn], RuleFn]:
    """Decorator registering ``fn`` as an analysis rule."""

    def decorator(fn: RuleFn) -> RuleFn:
        (registry or DEFAULT_REGISTRY).register(Rule(
            rule_id=rule_id, layer=layer, severity=severity, fn=fn,
            doc=(fn.__doc__ or "").strip().splitlines()[0]
            if fn.__doc__ else "",
            fix_hint=fix_hint, deep=deep,
            wants_context=_wants_context(fn)))
        return fn

    return decorator
