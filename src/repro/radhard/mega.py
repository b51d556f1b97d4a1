"""Sharded, resumable, early-stoppable SEU campaigns: the one engine.

:class:`MegaCampaign` is the only way a
:class:`~repro.radhard.Campaign` executes (``Campaign.run`` returns the
merged report of a ``MegaCampaign`` run).  It scales from a five-run
service job to qualification-sized evidence accumulation:

* **Sharding** — the run range is split into fixed-size seed-range
  shards (:func:`repro.exec.plan_shards`); every run keeps its global
  index and therefore its ``seed_for(seed, index)`` sub-stream, so the
  merged report's deterministic payload is byte-identical at any shard
  count, worker count or backend.  With no plan arguments the plan is
  ``DEFAULT_SHARD_SIZE`` runs a shard: it depends on ``runs`` alone, so
  checkpoints, the early-stop point and the trace never depend on
  ``jobs``.
* **Checkpointing** — each completed shard is written through the
  content-addressed flow cache the moment it finishes (key = scenario
  fingerprint + seed + shard range).  A SIGKILLed campaign loses at
  most its in-flight shards; re-running the same invocation against the
  same cache directory replays only the missing shards.  Extending
  ``runs`` with the same ``shard_size`` (the default plan included)
  reuses every old shard and computes only the gap.
* **Streaming statistics** — shards fold into a
  :class:`~repro.exec.StreamingStats` accumulator *in shard index
  order* (a reorder buffer absorbs out-of-order completions), keeping
  per-outcome tallies and Wilson 95% CIs live during the campaign.
* **Early stopping** — with ``stop_ci`` set, the campaign halts at the
  first shard after which the CI half-width on the monitored outcome
  set (default: the sdc+crash failure rate) drops below the target.
  Because the stop decision consumes shards in index order, the folded
  prefix — and thus the early-stopped report — is deterministic at any
  job count; it just takes wall-clock longer with fewer workers.

The merged :class:`CampaignReport` is a function of its shard records
alone (payload, pooled latency, summed retries and shard wall time), so
a campaign served from checkpoints reports exactly what the run that
computed them reported.  The elapsed time of one invocation is
:attr:`MegaReport.wall_s`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..cache import FlowCache, content_key
from ..exec import LatencyStats, StreamingStats
from ..exec.sharding import ShardPlan, ShardResult, ShardSpec, \
    plan_shards, run_sharded
from ..telemetry import Tracer
from .campaign import Campaign, CampaignError, CampaignReport, \
    InjectionResult, OUTCOMES, classify_result

#: The outcome set early stopping monitors by default: unhandled
#: effects (silent corruption or crash) — the "failure rate" of the
#: paper's mitigation matrix.
FAILURE_OUTCOMES: Tuple[str, ...] = ("sdc", "crash")

#: Runs per shard when a caller gives neither ``shards`` nor
#: ``shard_size``: a five-run service job is one shard (one checkpoint
#: put), a qualification campaign has enough shards to spread over
#: workers and to stop early on.  A campaign uses at most
#: ``runs / DEFAULT_SHARD_SIZE`` workers, which is where another one
#: stops paying: on a 2-CPU host a process worker costs ~6 ms a
#: campaign, about what 80 runs of a 64-word memory scenario compute.
#: Timed there over 60-1000 runs at jobs 2/4/8, shards of 100 were as
#: fast as or faster than shards of 25 or 50, and than splitting by
#: job count as before.
DEFAULT_SHARD_SIZE = 100


@dataclass
class ShardRecord:
    """One shard's classified, cache-serializable outcome.

    Unlike a summarized report, the record keeps the per-run latency
    *samples*: summaries don't merge (percentiles don't compose), raw
    samples do — exactly and order-invariantly.
    """

    spec: ShardSpec
    counts: Dict[str, int] = field(default_factory=dict)
    results: List[InjectionResult] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    retried_runs: int = 0
    wall_s: float = 0.0
    cached: bool = False  # runtime flag, not serialized

    @classmethod
    def from_shard_result(cls, shard: ShardResult) -> "ShardRecord":
        record = cls(spec=shard.spec, wall_s=shard.wall_s)
        for run_result in shard.results:
            outcome, description = classify_result(run_result)
            record.results.append(InjectionResult(
                run=run_result.index, outcome=outcome,
                description=description))
            record.counts[outcome] = record.counts.get(outcome, 0) + 1
            record.latency_s.append(run_result.latency_s)
            if run_result.attempts > 1:
                record.retried_runs += 1
        return record

    def to_json(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_json(),
            "counts": {o: self.counts[o]
                       for o in OUTCOMES if o in self.counts},
            "results": [{"run": r.run, "outcome": r.outcome,
                         "description": r.description}
                        for r in self.results],
            "latency_s": list(self.latency_s),
            "retried_runs": self.retried_runs,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ShardRecord":
        return cls(
            spec=ShardSpec.from_json(payload["spec"]),
            counts=dict(payload["counts"]),
            results=[InjectionResult(run=r["run"], outcome=r["outcome"],
                                     description=r["description"])
                     for r in payload["results"]],
            latency_s=list(payload["latency_s"]),
            retried_runs=payload["retried_runs"],
            wall_s=payload["wall_s"],
        )


def merge_shard_records(name: str, upsets_per_run: int,
                        records: List[ShardRecord]) -> CampaignReport:
    """Merge shard records into one :class:`CampaignReport`.

    The report is a function of the records alone.  Order-invariant by
    construction: shards are sorted by range start before anything is
    accumulated, counts, retries and wall time are sums in that order,
    and the latency summary is rebuilt from the pooled samples
    (:meth:`LatencyStats.from_sample_groups`), never from per-shard
    summaries — so any completion order, and any shuffling of
    ``records``, produces byte-identical report JSON.  Merging zero
    records (or zero-run campaigns) yields a valid empty report whose
    rate accessors return 0.0 rather than dividing by zero.
    """
    ordered = sorted(records, key=lambda record: record.spec.start)
    counts: Dict[str, int] = {}
    results: List[InjectionResult] = []
    for record in ordered:
        results.extend(record.results)
        for outcome, amount in record.counts.items():
            counts[outcome] = counts.get(outcome, 0) + amount
    return CampaignReport(
        name=name,
        runs=sum(record.spec.count for record in ordered),
        upsets_per_run=upsets_per_run,
        counts=counts,
        results=results,
        wall_s=sum(record.wall_s for record in ordered),
        retried_runs=sum(record.retried_runs for record in ordered),
        latency=LatencyStats.from_sample_groups(
            [record.latency_s for record in ordered]),
    )


@dataclass
class MegaReport:
    """A merged campaign report plus the sharding/statistics evidence.

    ``wall_s`` is the elapsed time of this invocation (the report's own
    ``wall_s`` sums the shards' execution times, cached ones included).
    """

    report: CampaignReport
    runs_requested: int
    plan: ShardPlan
    shards: List[ShardRecord]
    stats: StreamingStats
    early_stopped: bool = False
    stop_ci: Optional[float] = None
    stop_outcomes: Tuple[str, ...] = FAILURE_OUTCOMES
    wall_s: float = 0.0

    @property
    def runs_executed(self) -> int:
        return self.report.runs

    @property
    def shards_folded(self) -> int:
        return len(self.shards)

    @property
    def shards_cached(self) -> int:
        return sum(1 for record in self.shards if record.cached)

    @property
    def shards_computed(self) -> int:
        return len(self.shards) - self.shards_cached

    def ci(self) -> Tuple[float, float]:
        """Wilson CI on the monitored outcome-set rate."""
        return self.stats.interval(self.stop_outcomes)

    @property
    def ci_half_width(self) -> float:
        return self.stats.half_width(self.stop_outcomes)

    @property
    def reached_target(self) -> bool:
        """True when the stop-CI target was met (early or at the end)."""
        if self.stop_ci is None:
            return True
        return self.early_stopped or self.ci_half_width < self.stop_ci

    def summary(self) -> str:
        low, high = self.ci()
        return (f"{self.report.name}: {self.runs_executed}/"
                f"{self.runs_requested} runs over {self.shards_folded}/"
                f"{len(self.plan)} shard(s) "
                f"({self.shards_cached} cached, "
                f"{self.shards_computed} computed); "
                f"rate[{'+'.join(self.stop_outcomes)}]="
                f"{self.stats.rate(self.stop_outcomes):.4f} "
                f"ci95=[{low:.4f}, {high:.4f}] "
                f"half={self.ci_half_width:.4f}"
                + ("; early stop" if self.early_stopped else ""))

    def to_json(self) -> Dict[str, Any]:
        return {
            "report": self.report.to_json(),
            "runs_requested": self.runs_requested,
            "manifest": self.plan.manifest(),
            "shards_folded": self.shards_folded,
            "shards_cached": self.shards_cached,
            "shards_computed": self.shards_computed,
            "early_stopped": self.early_stopped,
            "stop_ci": self.stop_ci,
            "stop_outcomes": list(self.stop_outcomes),
            "stats": self.stats.to_json(),
            "ci95": list(self.ci()),
            "wall_s": self.wall_s,
        }


class MegaCampaign:
    """Sharded, checkpointed, early-stoppable execution of a Campaign.

    ``cache`` (a :class:`FlowCache`) is the checkpoint store: pass one
    with a directory to make campaigns survive kills and extend across
    processes.  ``tracer`` records per-shard spans, outcome counters and
    the mitigation tally on the run-index timeline, derived from the
    folded, index-ordered records — identical at any job count.
    """

    def __init__(self, campaign: Campaign,
                 cache: Optional[FlowCache] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.campaign = campaign
        self.cache = cache
        self.tracer = tracer

    def shard_key(self, seed: int, spec: ShardSpec) -> str:
        """Checkpoint key of one shard: scenario fingerprint + range.

        The key binds everything that determines the shard's bytes —
        scenario name and parameters, upsets per run, campaign seed and
        the run-index range.  The shard *index* and total run count are
        deliberately excluded: shard 3 of a 1 000-run campaign is the
        same artifact as shard 3 of the 2 000-run extension.
        """
        return content_key("mega", {
            "scenario": self.campaign.name,
            "params": self.campaign.scenario_params,
            "upsets_per_run": self.campaign.upsets_per_run,
            "seed": seed,
            "start": spec.start, "count": spec.count})

    def run(self, runs: int, seed: int = 1, jobs: int = 1,
            backend: str = "auto", shards: Optional[int] = None,
            shard_size: Optional[int] = None,
            timeout_s: Optional[float] = None, retries: int = 0,
            stop_ci: Optional[float] = None,
            stop_outcomes: Tuple[str, ...] = FAILURE_OUTCOMES,
            min_stop_shards: int = 2,
            progress=None) -> MegaReport:
        """Execute up to ``runs`` injection runs in shards.

        Give ``shards`` (count) or ``shard_size`` (runs per shard;
        extension-friendly keys); with neither, shards of
        ``DEFAULT_SHARD_SIZE`` runs are planned.  ``stop_ci`` arms early
        stopping at the given Wilson-CI half-width on the
        ``stop_outcomes`` rate (never before ``min_stop_shards`` shards
        have folded).  ``progress`` is called as ``(folded_shards,
        planned_shards)``.
        """
        if shards is None and shard_size is None:
            shard_size = DEFAULT_SHARD_SIZE
        plan = plan_shards(runs, shards=shards, shard_size=shard_size)
        start = time.perf_counter()

        completed: Dict[int, ShardRecord] = {}
        keys: Dict[int, str] = {}  # shard index -> checkpoint key
        if self.cache is not None:
            for spec in plan.specs:
                keys[spec.index] = self.shard_key(seed, spec)
                hit, record = self.cache.get(
                    "mega", keys[spec.index], ShardRecord.from_json)
                if hit and record.spec == spec:
                    # Copy before marking: the memory tier returns the
                    # stored object itself, which an earlier report may
                    # still reference — flagging it in place would
                    # rewrite that report's cached-shard accounting.
                    completed[spec.index] = replace(record, cached=True)

        stats = StreamingStats()
        folded: List[ShardRecord] = []
        early_stopped = False

        def on_computed(shard: ShardResult) -> ShardRecord:
            record = ShardRecord.from_shard_result(shard)
            if self.cache is not None:
                self.cache.put("mega", keys[record.spec.index], record,
                               ShardRecord.to_json)
            return record

        def consume(record: ShardRecord) -> bool:
            nonlocal early_stopped
            folded.append(record)
            stats.fold(record.counts, record.spec.count)
            if progress is not None:
                progress(len(folded), len(plan))
            if stop_ci is not None and stats.should_stop(
                    stop_ci, stop_outcomes, min_folds=min_stop_shards):
                early_stopped = len(folded) < len(plan)
                return True
            return False

        run_sharded(self.campaign._one_run, plan, seed=seed, jobs=jobs,
                    backend=backend, timeout_s=timeout_s,
                    retries=retries, fatal_types=(CampaignError,),
                    completed=completed, on_computed=on_computed,
                    consume=consume)

        report = merge_shard_records(
            self.campaign.name, self.campaign.upsets_per_run, folded)
        mega = MegaReport(report=report, runs_requested=runs, plan=plan,
                          shards=folded, stats=stats,
                          early_stopped=early_stopped, stop_ci=stop_ci,
                          stop_outcomes=tuple(stop_outcomes),
                          wall_s=time.perf_counter() - start)
        if self.tracer is not None:
            self._emit_telemetry(self.tracer, mega)
        return mega

    def _emit_telemetry(self, tracer: Tracer, mega: MegaReport) -> None:
        """Per-shard spans, outcome counters and the mitigation tally on
        a run-index timeline.

        Derived from the folded, index-ordered records — never from
        worker completion order — so the trace is byte-identical at any
        ``jobs``/backend (cache hit/miss state being equal).
        """
        name = self.campaign.name
        runs_counter = tracer.counter("mega.runs", "mega")
        base = runs_counter.value
        runs_counter.add(mega.runs_executed)
        tracer.counter("mega.campaigns", "mega").add()
        tracer.counter("mega.shards", "mega").add(mega.shards_folded)
        tracer.counter("mega.shards.cached",
                       "mega").add(mega.shards_cached)
        tracer.counter("mega.shards.computed",
                       "mega").add(mega.shards_computed)
        for record in mega.shards:
            tracer.add_span(
                f"shard:{record.spec.index}", "mega",
                base + record.spec.start, base + record.spec.stop,
                campaign=name, cached=record.cached,
                retried_runs=record.retried_runs,
                counts={o: record.counts.get(o, 0)
                        for o in OUTCOMES if record.counts.get(o, 0)})
        for outcome in OUTCOMES:
            amount = mega.report.counts.get(outcome, 0)
            if amount:
                tracer.counter(f"mega.{outcome}", "mega").add(amount)
                tracer.counter(f"mega.{name}.{outcome}", "mega").add(amount)
        # The "masked by mitigation" tally the beam-test report quotes:
        # upsets a mitigation repaired or flagged before they could
        # propagate (ECC corrections, TMR out-votes, CRC detections).
        tracer.counter("radhard.mitigated", "radhard").add(
            mega.report.counts.get("corrected", 0)
            + mega.report.counts.get("detected", 0))
        low, high = mega.ci()
        tracer.gauge(f"mega.{name}.ci_half_width",
                     "mega").set(round(mega.ci_half_width, 9))
        if mega.early_stopped:
            tracer.counter("mega.early_stops", "mega").add()
            tracer.event("mega.early_stop", "mega",
                         at=base + mega.runs_executed,
                         campaign=name,
                         ci_low=round(low, 9), ci_high=round(high, 9))
        tracer.add_span(f"mega:{name}", "mega", base,
                        base + mega.runs_executed,
                        runs_requested=mega.runs_requested,
                        runs_executed=mega.runs_executed,
                        shards=mega.shards_folded,
                        early_stopped=mega.early_stopped)
