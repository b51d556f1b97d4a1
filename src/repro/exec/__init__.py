"""Parallel deterministic execution engine for qualification workloads.

The seed-derivation contract (:func:`seed_for`) plus the one
dispatcher, :func:`run_sharded`, guarantee that serial, thread-pool and
process-pool executions of the same campaign are bit-identical.  The
dispatcher runs deterministic seed-range shards (resumable, extensible,
early-stoppable mega-campaigns; one shard per lint target or
characterization configuration), and :mod:`repro.exec.stats`
accumulates streaming outcome statistics with Wilson confidence
intervals.
"""

from .cancel import (
    CancelToken,
    ExecCancelled,
    cancel_scope,
    check_cancelled,
    current_token,
)
from .metrics import LatencyStats, percentile
from .seeding import rng_for, seed_for
from .sharding import (
    BACKENDS,
    ExecError,
    RunResult,
    RunTimeout,
    ShardPlan,
    ShardResult,
    ShardSpec,
    default_jobs,
    plan_shards,
    run_shard,
    resolve_backend,
    run_sharded,
)
from .stats import Z95, StreamingStats, wilson_interval

__all__ = [
    "CancelToken", "ExecCancelled", "cancel_scope", "check_cancelled",
    "current_token",
    "BACKENDS", "ExecError", "RunResult", "RunTimeout", "default_jobs",
    "resolve_backend",
    "LatencyStats", "percentile", "rng_for", "seed_for",
    "ShardPlan", "ShardResult", "ShardSpec", "plan_shards", "run_shard",
    "run_sharded",
    "Z95", "StreamingStats", "wilson_interval",
]
