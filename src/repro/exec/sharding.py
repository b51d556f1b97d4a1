"""The execution engine's one dispatcher: seed-range shards over a pool.

Every large statistical workload in this repo — SEU injection campaigns,
Eucalyptus characterization sweeps, lint fan-outs — has the same shape:
``runs`` independent tasks, each needing (a) an independent
deterministic seed, (b) a latency measurement, (c) a bounded lifetime
(timeout + retry), and (d) somewhere to report progress.  This module
provides the per-run primitives for that and the one dispatch loop that
runs them, over three interchangeable backends:

* ``serial``  — plain loop (reference semantics, zero dependencies);
* ``thread``  — ``ThreadPoolExecutor``; right for workloads dominated by
  fixture/equipment latency (beam dwell, tester I/O) where the GIL is
  released while waiting;
* ``process`` — ``ProcessPoolExecutor`` over a ``fork`` context; right
  for CPU-bound Python work.  Fork inheritance means closures reach the
  workers without pickling, so campaign callbacks defined inside
  functions still work.  Where ``fork`` is unavailable (Windows/macOS
  spawn), the thread backend runs instead.

The determinism contract: run *i* of a campaign with seed *S* executes
``fn(i, seed_for(S, i))``, nothing else.  No backend, job count or shard
size can change any run's inputs, and results are always folded in run
order — so parallel and serial executions are bit-identical.

A mega-campaign (10^6–10^9 injections) cannot run as one flat job list:
it must survive a crash, extend without recomputing, and stop early when
the statistical answer is in.  The unit that makes all three possible is
the **shard** — a contiguous range of run indices executed as one unit.
A shard's results are a pure function of ``(S, start, count)``: no
shard count, worker count, backend or completion order can change a
single run.  Merging shard results in index order is therefore
bit-identical to the serial flat run — and a shard is a natural
checkpoint key for the content-addressed cache.

Fixed shard *size* (not count) is what makes campaigns extensible:
shards of a 1 000-run campaign with ``shard_size=250`` are byte-for-byte
the first four shards of the same campaign extended to 2 000 runs, so an
extension replays only the gap.

:func:`run_sharded` dispatches shards over a thread or fork pool with a
bounded in-flight window (workers steal the next shard as they free up),
buffers out-of-order completions, and **folds results strictly in shard
index order**.  The fold callback may stop the campaign; since folding
order never depends on completion order, an early-stopped campaign
covers a deterministic prefix of the plan at any job count.  Every
fan-out in the repo calls it directly: SEU campaigns plan shards of
runs, while lint targets and Eucalyptus configurations are planned one
per shard (``plan_shards(n, shard_size=1)``).
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, \
    ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, \
    Tuple, Type

from .cancel import check_cancelled, current_token
from .seeding import seed_for

BACKENDS = ("serial", "thread", "process")

RunFn = Callable[[int, int], Any]


class ExecError(Exception):
    """Engine misuse or an unrecoverable execution failure."""


class RunTimeout(ExecError):
    """A single run exceeded its per-run timeout budget."""


@dataclass
class RunResult:
    """Outcome of one run (after all retry attempts)."""

    index: int
    value: Any = None
    error: str = ""
    attempts: int = 1
    latency_s: float = 0.0
    timed_out: bool = False
    fatal: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return not self.error and self.fatal is None


def default_jobs() -> int:
    """Job count when the caller asks for ``jobs=0`` (all cores)."""
    return multiprocessing.cpu_count()


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_backend(backend: str, jobs: int) -> str:
    """Map an ``auto``/requested backend to the one that will run."""
    if backend == "auto":
        backend = "serial" if jobs <= 1 else "thread"
    if backend not in BACKENDS:
        raise ExecError(f"unknown backend {backend!r} "
                        f"(expected one of {BACKENDS} or 'auto')")
    if backend == "process" and not _fork_available():
        return "thread"
    return backend


def _call_with_timeout(fn: RunFn, index: int, run_seed: int,
                       timeout_s: Optional[float]) -> Any:
    """Invoke ``fn`` with a watchdog; abandon it if it overruns.

    The runaway call keeps its daemon thread (Python offers no safe way
    to kill it) but the engine moves on, so a hung workload occupies one
    watchdog thread, never a pool slot.
    """
    if timeout_s is None:
        return fn(index, run_seed)
    outcome: List[Any] = []

    def _invoke() -> None:
        try:
            outcome.append(("value", fn(index, run_seed)))
        except BaseException as error:  # noqa: BLE001 - re-raised below
            outcome.append(("error", error))

    watchdog = threading.Thread(target=_invoke, daemon=True,
                                name=f"exec-run-{index}")
    watchdog.start()
    watchdog.join(timeout_s)
    if watchdog.is_alive():
        raise RunTimeout(f"run {index} exceeded {timeout_s}s")
    kind, payload = outcome[0]
    if kind == "error":
        raise payload
    return payload


def _execute_run(fn: RunFn, index: int, run_seed: int,
                 timeout_s: Optional[float], retries: int,
                 fatal_types: Tuple[Type[BaseException], ...]) -> RunResult:
    """Run one task with bounded retry; never raises (except fatals,
    which are captured for the parent to re-raise)."""
    attempts = 0
    start = time.perf_counter()
    while True:
        attempts += 1
        try:
            value = _call_with_timeout(fn, index, run_seed, timeout_s)
            return RunResult(index=index, value=value, attempts=attempts,
                            latency_s=time.perf_counter() - start)
        except fatal_types as error:
            return RunResult(index=index, attempts=attempts,
                            latency_s=time.perf_counter() - start,
                            error=f"{type(error).__name__}: {error}",
                            fatal=error)
        except Exception as error:  # noqa: BLE001 - reclassified by caller
            if attempts > retries:
                return RunResult(
                    index=index, attempts=attempts,
                    latency_s=time.perf_counter() - start,
                    error=f"{type(error).__name__}: {error}",
                    timed_out=isinstance(error, RunTimeout))


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous run-index range ``[start, start + count)``."""

    index: int
    start: int
    count: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.count <= 0:
            raise ExecError(
                f"shard {self.index}: start must be >= 0 and count > 0")

    @property
    def stop(self) -> int:
        return self.start + self.count

    def run_indices(self) -> range:
        return range(self.start, self.stop)

    def to_json(self) -> Dict[str, int]:
        return {"index": self.index, "start": self.start,
                "count": self.count}

    @classmethod
    def from_json(cls, payload: Mapping[str, int]) -> "ShardSpec":
        return cls(index=payload["index"], start=payload["start"],
                   count=payload["count"])


@dataclass
class ShardPlan:
    """The shard manifest of one campaign execution."""

    runs: int
    shard_size: int
    specs: List[ShardSpec] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.specs)

    def manifest(self) -> Dict[str, Any]:
        """JSON manifest (what the docs call the *shard manifest*)."""
        return {"runs": self.runs, "shard_size": self.shard_size,
                "shards": [spec.to_json() for spec in self.specs]}


def plan_shards(runs: int, shards: Optional[int] = None,
                shard_size: Optional[int] = None) -> ShardPlan:
    """Split ``runs`` into contiguous fixed-size shards.

    Exactly one of ``shards`` (a target shard count; the size is derived
    as ``ceil(runs / shards)``) or ``shard_size`` must be given.  To
    keep a campaign *extensible* — old shards reused when ``runs``
    grows — callers must hold ``shard_size`` fixed across executions;
    a fixed shard *count* moves every boundary when ``runs`` changes.
    """
    if runs < 0:
        raise ExecError("runs must be >= 0")
    if (shards is None) == (shard_size is None):
        raise ExecError("give exactly one of shards / shard_size")
    if shards is not None:
        if shards <= 0:
            raise ExecError("shards must be positive")
        size = max(1, math.ceil(runs / shards))
    else:
        assert shard_size is not None
        if shard_size <= 0:
            raise ExecError("shard_size must be positive")
        size = shard_size
    specs = [ShardSpec(index=index, start=start,
                       count=min(size, runs - start))
             for index, start in enumerate(range(0, runs, size))]
    return ShardPlan(runs=runs, shard_size=size, specs=specs)


@dataclass
class ShardResult:
    """Raw engine results of one executed shard (run order within)."""

    spec: ShardSpec
    results: List[RunResult]
    wall_s: float = 0.0


def run_shard(fn: RunFn, spec: ShardSpec, seed: int,
              timeout_s: Optional[float] = None, retries: int = 0,
              fatal_types: Tuple[Type[BaseException], ...] = ()
              ) -> ShardResult:
    """Execute one shard serially with the engine's per-run semantics.

    Run *i* executes ``fn(i, seed_for(seed, i))`` under the per-run
    timeout/retry envelope, so a shard is exactly the corresponding
    slice of the serial campaign at any shard size.
    """
    start = time.perf_counter()
    results = []
    for index in spec.run_indices():
        # Cancellation checkpoint between runs: no-op outside a cancel
        # scope (and in pool worker threads, which don't inherit the
        # scope's ContextVar — the dispatcher loop covers those).
        check_cancelled()
        results.append(_execute_run(fn, index, seed_for(seed, index),
                                    timeout_s, retries,
                                    tuple(fatal_types)))
    return ShardResult(spec=spec, results=results,
                       wall_s=time.perf_counter() - start)


# -- fork plumbing --------------------------------------------------------
#
# The fork start method lets workers inherit the parent's memory, so the
# task function (often a closure over campaign state) never crosses a
# pickle boundary.  Each pool hands its payload to its own workers as the
# initializer's argument, which the fork inherits rather than pickles;
# the initializer keeps it in the worker.  The dispatching process never
# writes that slot, so two pools running at once cannot see each other's
# payload.  Only shard specs and results travel through the queues.

_Payload = Tuple[RunFn, int, Optional[float], int,
                 Tuple[Type[BaseException], ...]]

_worker_payload: Optional[_Payload] = None  # set inside pool workers only


def _install_payload(payload: _Payload) -> None:
    global _worker_payload
    _worker_payload = payload


def _run_shard_forked(spec: ShardSpec) -> ShardResult:
    assert _worker_payload is not None, "worker forked without payload"
    fn, seed, timeout_s, retries, fatal_types = _worker_payload
    return run_shard(fn, spec, seed, timeout_s, retries, fatal_types)


def _raise_fatals(result: Any) -> None:
    """Re-raise a captured fatal from a shard's run results, if any."""
    for run_result in getattr(result, "results", ()):
        fatal = getattr(run_result, "fatal", None)
        if fatal is not None:
            raise fatal


def run_sharded(fn: RunFn, plan: ShardPlan, seed: int = 1,
                jobs: int = 1, backend: str = "auto",
                timeout_s: Optional[float] = None, retries: int = 0,
                fatal_types: Tuple[Type[BaseException], ...] = (),
                completed: Optional[Mapping[int, Any]] = None,
                on_computed: Optional[Callable[[ShardResult], Any]] = None,
                consume: Optional[Callable[[Any], bool]] = None
                ) -> List[Any]:
    """Execute a shard plan with work-stealing and in-order folding.

    ``completed`` maps shard index → an already-known result (a cache
    hit); those shards are never executed and are folded verbatim.
    ``on_computed`` runs once per freshly computed shard, in completion
    order (this is the checkpoint hook — persist the shard here, so a
    kill loses at most the in-flight shards); its non-None return value
    replaces the :class:`ShardResult` from then on.  ``consume`` is
    called exactly once per shard **in shard index order**; returning
    True stops the campaign — no later shard is folded, and shards not
    yet started are never executed.

    Returns the folded results in index order (a prefix of the plan when
    stopped early).  A captured fatal exception (see ``fatal_types``)
    aborts the whole map and is re-raised.
    """
    if jobs < 0:
        raise ExecError("jobs must be >= 0 (0 means all cores)")
    if retries < 0:
        raise ExecError("retries must be >= 0")
    if timeout_s is not None and timeout_s <= 0:
        raise ExecError("timeout_s must be positive")
    jobs = jobs or default_jobs()
    resolved = resolve_backend(backend, jobs)
    known: Dict[int, Any] = dict(completed or {})
    fatal_types = tuple(fatal_types)
    folded: List[Any] = []

    def fold(result: Any) -> bool:
        folded.append(result)
        if consume is not None:
            return bool(consume(result))
        return False

    def computed(result: ShardResult) -> Any:
        _raise_fatals(result)
        if on_computed is not None:
            replaced = on_computed(result)
            if replaced is not None:
                return replaced
        return result

    pending = deque(spec for spec in plan.specs
                    if spec.index not in known)
    if resolved == "serial" or jobs == 1 or not pending:
        for spec in plan.specs:
            check_cancelled()
            result = known.get(spec.index)
            if result is None:
                result = computed(run_shard(fn, spec, seed, timeout_s,
                                            retries, fatal_types))
            if fold(result):
                break
        return folded

    workers = min(jobs, len(pending))
    if resolved == "process":
        executor: Any = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_install_payload,
            initargs=((fn, seed, timeout_s, retries, fatal_types),))
        submit = lambda spec: executor.submit(_run_shard_forked, spec)
    else:
        executor = ThreadPoolExecutor(max_workers=workers,
                                      thread_name_prefix="shard-pool")
        submit = lambda spec: executor.submit(
            run_shard, fn, spec, seed, timeout_s, retries, fatal_types)

    in_flight: Dict[Any, ShardSpec] = {}
    buffered: Dict[int, Any] = {}
    position = 0  # next plan position to fold
    # Poll instead of blocking when a cancel scope is active, so a
    # cancel lands within ~50ms; in-flight shards finish (or are
    # cancelled before starting) and their results are discarded.
    token = current_token()
    poll_s = None if token is None else 0.05
    try:
        while position < len(plan.specs):
            check_cancelled()
            # Keep the window full: workers steal the next shard the
            # moment a slot frees; nothing beyond the window starts, so
            # an early stop wastes at most ~jobs shards of work.
            while pending and len(in_flight) < jobs:
                in_flight[submit(pending.popleft())] = None
            front = plan.specs[position]
            if front.index in known:
                position += 1
                if fold(known[front.index]):
                    break
                continue
            if front.index in buffered:
                position += 1
                if fold(buffered.pop(front.index)):
                    break
                continue
            done, _ = wait(list(in_flight), timeout=poll_s,
                           return_when=FIRST_COMPLETED)
            for future in done:
                in_flight.pop(future)
                result = future.result()
                buffered[result.spec.index] = computed(result)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
    return folded
