"""Fault-injection campaigns and cross-section statistics.

A campaign repeatedly: (1) restores a pristine system, (2) injects one or
more upsets, (3) runs a workload and classifies the outcome.  The
classification follows radiation-test practice:

* ``masked``     — no observable effect (upset in unused state);
* ``corrected``  — a mitigation (ECC/TMR/scrubbing) repaired it;
* ``detected``   — an integrity check flagged it (no silent corruption);
* ``sdc``        — silent data corruption (wrong result, no flag);
* ``crash``      — the workload failed to complete.

``CrossSection`` converts campaign counts into the device cross-section
numbers a beam-test report quotes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exec.metrics import LatencyStats

OUTCOMES = ("masked", "corrected", "detected", "sdc", "crash")

#: The unhandled effects (silent corruption or crash): the "failure
#: rate" of the paper's mitigation matrix, and the outcome set a
#: mega-campaign's early stop monitors.
FAILURE_OUTCOMES: Tuple[str, ...] = ("sdc", "crash")


class CampaignError(Exception):
    pass


@dataclass
class InjectionResult:
    run: int
    outcome: str
    description: str = ""

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise CampaignError(f"unknown outcome {self.outcome!r}")


def classify_result(run_result) -> tuple:
    """``(outcome, description)`` of one engine :class:`RunResult`.

    A run whose callbacks raised or timed out (after its retry budget)
    is classified ``crash`` with the error text as description, whatever
    shard, worker or backend executed it.
    """
    if run_result.ok:
        return run_result.value
    return "crash", run_result.error


@dataclass
class CampaignReport:
    name: str
    runs: int
    upsets_per_run: int
    counts: Dict[str, int] = field(default_factory=dict)
    results: List[InjectionResult] = field(default_factory=list)
    # Execution accounting, summed or pooled over the shard records the
    # report was merged from (see repro.radhard.mega).
    wall_s: float = 0.0
    retried_runs: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)

    def rate(self, outcome: str) -> float:
        if outcome not in OUTCOMES:
            raise CampaignError(f"unknown outcome {outcome!r}")
        return self.counts.get(outcome, 0) / self.runs if self.runs else 0.0

    @property
    def failure_rate(self) -> float:
        """Fraction of runs ending in an unhandled effect
        (:data:`FAILURE_OUTCOMES`)."""
        return sum(self.rate(outcome) for outcome in FAILURE_OUTCOMES)

    @property
    def mitigation_effectiveness(self) -> float:
        """Fraction of non-masked upsets that were corrected or detected."""
        effective = self.counts.get("corrected", 0) + \
            self.counts.get("detected", 0)
        visible = self.runs - self.counts.get("masked", 0)
        return effective / visible if visible else 1.0

    def summary(self) -> str:
        """One-line report summary (the :class:`~repro.core.Report`
        protocol method)."""
        cells = "  ".join(f"{o}={self.counts.get(o, 0)}" for o in OUTCOMES)
        return (f"{self.name:<28} runs={self.runs:<6} {cells}  "
                f"fail={self.failure_rate:.4f}")

    def deterministic_json(self) -> Dict[str, Any]:
        """The execution-independent payload: the scientific evidence.

        Name, run/upset counts, per-outcome tallies and the per-run
        outcome list — everything a campaign *measured*, nothing about
        how it was executed.  This is the byte-identity contract of the
        sharded/resumed/parallel paths: any execution shape of the same
        (scenario, runs, seed) produces these bytes exactly.  The
        wall-clock accounting (wall_s, retried_runs, latency) is honest
        measurement of the shards' execution and is excluded.
        """
        return {
            "name": self.name,
            "runs": self.runs,
            "upsets_per_run": self.upsets_per_run,
            "counts": {o: self.counts[o]
                       for o in OUTCOMES if o in self.counts},
            "results": [{"run": r.run, "outcome": r.outcome,
                         "description": r.description}
                        for r in self.results],
        }

    def to_json(self) -> Dict[str, Any]:
        payload = self.deterministic_json()
        payload.update({
            "wall_s": self.wall_s,
            "retried_runs": self.retried_runs,
            "latency": self.latency.to_json(),
        })
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "CampaignReport":
        return cls(
            name=payload["name"],
            runs=payload["runs"],
            upsets_per_run=payload["upsets_per_run"],
            counts=dict(payload["counts"]),
            results=[InjectionResult(run=r["run"], outcome=r["outcome"],
                                     description=r["description"])
                     for r in payload["results"]],
            wall_s=payload["wall_s"],
            retried_runs=payload["retried_runs"],
            latency=LatencyStats.from_json(payload["latency"]),
        )


class Campaign:
    """Runs a fault-injection campaign.

    ``setup``     — returns a fresh system context per run;
    ``inject``    — performs the upset(s) on the context;
    ``evaluate``  — runs the workload and returns an outcome string.

    Every run draws from its own ``random.Random`` seeded by
    ``exec.seed_for(seed, run_index)``, so runs are statistically
    independent and any single run can be replayed in isolation.  The
    same property makes ``jobs > 1`` executions (thread or process
    backend) bit-identical to serial ones.
    """

    def __init__(self, name: str,
                 setup: Callable[[], object],
                 inject: Callable[[object, random.Random], str],
                 evaluate: Callable[[object], str],
                 upsets_per_run: int = 1,
                 scenario_params: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.setup = setup
        self.inject = inject
        self.evaluate = evaluate
        self.upsets_per_run = upsets_per_run
        # Parameters that shaped the scenario closures (word counts,
        # dwell times...).  Campaign names alone don't encode them, so
        # they must be part of the content-addressed cache key.
        self.scenario_params = dict(scenario_params or {})

    def _one_run(self, index: int, run_seed: int) -> tuple:
        rng = random.Random(run_seed)
        context = self.setup()
        description = ""
        for _ in range(self.upsets_per_run):
            description = self.inject(context, rng)
        outcome = self.evaluate(context)
        if outcome not in OUTCOMES:
            raise CampaignError(f"unknown outcome {outcome!r}")
        return outcome, description

    def run(self, runs: int, seed: int = 1, *, cache=None, tracer=None,
            **options: Any) -> CampaignReport:
        """The merged report of :meth:`MegaCampaign.run
        <repro.radhard.mega.MegaCampaign.run>` over this campaign.

        ``cache`` and ``tracer`` are the mega-campaign's checkpoint store
        and telemetry sink; ``options`` (``jobs``, ``backend``,
        ``shards``, ``shard_size``, ``timeout_s``, ``retries``,
        ``progress``...) go to its ``run`` unchanged.
        """
        from .mega import MegaCampaign
        return MegaCampaign(self, cache=cache, tracer=tracer).run(
            runs, seed=seed, **options).report


@dataclass
class CrossSection:
    """Beam-test style cross-section computation.

    ``sigma = events / fluence`` with fluence in particles/cm².  The
    per-bit cross-section divides by the sensitive bit count.
    """

    events: int
    fluence_per_cm2: float
    sensitive_bits: int = 0

    @property
    def device_cm2(self) -> float:
        if self.fluence_per_cm2 <= 0:
            raise CampaignError("fluence must be positive")
        return self.events / self.fluence_per_cm2

    @property
    def per_bit_cm2(self) -> float:
        if self.sensitive_bits <= 0:
            raise CampaignError("sensitive bit count required")
        return self.device_cm2 / self.sensitive_bits

    def expected_upsets_in_orbit(self, flux_per_cm2_per_day: float,
                                 days: float) -> float:
        """Predicted on-orbit upsets for a given environment flux."""
        return self.device_cm2 * flux_per_cm2_per_day * days
