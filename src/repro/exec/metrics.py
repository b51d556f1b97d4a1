"""Latency summaries produced by the execution engine's metrics hook.

Lives in ``repro.exec`` (a leaf package) so the campaign/boot/soc import
chain can use it without touching ``repro.core``'s package init;
``repro.core`` exports ``LatencyStats`` and ``percentile`` from here for
report code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in 0..100) of ``samples``."""
    if not samples:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within 0..100")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


@dataclass
class LatencyStats:
    """Per-run latency summary attached to campaign/sweep reports.

    All figures are seconds.  ``count`` is the number of samples
    summarized (one per run, measured over all attempts of that run
    including retries).
    """

    count: int = 0
    total_s: float = 0.0
    mean_s: float = 0.0
    p50_s: float = 0.0
    p95_s: float = 0.0
    max_s: float = 0.0

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if not samples:
            return cls()
        total = sum(samples)
        return cls(count=len(samples), total_s=total,
                   mean_s=total / len(samples),
                   p50_s=percentile(samples, 50.0),
                   p95_s=percentile(samples, 95.0),
                   max_s=max(samples))

    @classmethod
    def from_sample_groups(
            cls, groups: Sequence[Sequence[float]]) -> "LatencyStats":
        """Exact, order-invariant merge of per-shard sample groups.

        Summaries cannot be merged (percentiles don't compose), so the
        merge works on the raw samples.  They are sorted before
        accumulation: float addition is not associative, and summing in
        shard-completion order would let the same multiset of samples
        produce different ``total_s``/``mean_s`` bytes run to run.  With
        the sort, the merged stats are a pure function of the sample
        multiset — any group order and any group partition agree.
        """
        merged = sorted(sample for group in groups for sample in group)
        return cls.from_samples(merged)

    def summary(self) -> str:
        if not self.count:
            return "no latency samples"
        return (f"n={self.count} mean={self.mean_s * 1e3:.3f}ms "
                f"p50={self.p50_s * 1e3:.3f}ms "
                f"p95={self.p95_s * 1e3:.3f}ms "
                f"max={self.max_s * 1e3:.3f}ms")

    def to_json(self) -> dict:
        return {"count": self.count, "total_s": self.total_s,
                "mean_s": self.mean_s, "p50_s": self.p50_s,
                "p95_s": self.p95_s, "max_s": self.max_s}

    @classmethod
    def from_json(cls, payload: dict) -> "LatencyStats":
        return cls(count=payload["count"], total_s=payload["total_s"],
                   mean_s=payload["mean_s"], p50_s=payload["p50_s"],
                   p95_s=payload["p95_s"], max_s=payload["max_s"])
