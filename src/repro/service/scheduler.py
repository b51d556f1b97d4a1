"""The job scheduler: fair queueing, dedup coalescing, cancellation.

One :class:`JobScheduler` owns everything between the HTTP surface and
the producers:

**Weighted fair queueing.**  Each tenant has a virtual-time clock
advancing by ``1 / weight`` per dispatched job (classic WFQ).  The
scheduler always dispatches from the backlogged tenant with the
smallest virtual time, so a tenant flooding the queue only speeds up
its *own* clock — other tenants keep their proportional share and
cannot be starved.  Within one tenant, jobs are picked by *effective
priority* ``priority + aging_rate × wait_seconds`` (aging guarantees a
low-priority job's effective priority eventually exceeds any fixed
one), tie-broken by submission order.

**Dedup coalescing.**  ``spec.content_key()`` is computed before
scheduling.  A submission whose key is already warm in the cache's
``service`` layer completes immediately (a *warm hit*); one whose key
is currently being computed registers as a *follower* of the in-flight
leader (the scheduler's ``key -> leader record`` map) and receives the
leader's byte-identical wire report when it lands; only a genuinely
novel key is enqueued.  The first claimant of a key leads; only the
leader releases the key, when it finishes or is cancelled, so a later
submission takes the warm-cache path.

**Backpressure.**  The queue is bounded; a submission over capacity
raises :class:`~repro.service.jobs.QueueFullError` (HTTP 429).
Followers and warm hits consume no queue slot — duplicates are exactly
the load a busy service must absorb for free.

**Cancellation.**  Queued jobs are removed in place; running jobs get
their :class:`~repro.exec.CancelToken` tripped and the producer raises
at its next checkpoint (between engine chunks / P&R stages).

The PR-3 tracer is not thread-safe, so every telemetry touch happens
under the scheduler lock and jobs run untraced; the scheduler emits one
``job:<kind>`` span per completed job from its own accounting instead.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..api import ExitCode, JobContext, JobSpec, JobSpecError, submit
from ..cache import FlowCache
from ..core.report import report_json_text
from ..exec.cancel import ExecCancelled, cancel_scope
from ..telemetry import Tracer
from .jobs import (
    JobRecord,
    JobState,
    QueueFullError,
    ServiceClosedError,
    UnknownJobError,
)

#: Cache layer holding finished wire reports, keyed by spec content key.
SERVICE_LAYER = "service"


class FairQueue:
    """Per-tenant WFQ with priority aging (caller provides locking)."""

    def __init__(self, weights: Optional[Dict[str, float]] = None,
                 aging_rate: float = 0.05) -> None:
        self.weights = dict(weights or {})
        self.aging_rate = aging_rate
        self._queues: Dict[str, List[JobRecord]] = {}
        self._vtime: Dict[str, float] = {}
        self._clock = 0.0

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def weight_of(self, tenant: str) -> float:
        return max(float(self.weights.get(tenant, 1.0)), 1e-9)

    def push(self, record: JobRecord) -> None:
        self._queues.setdefault(record.spec.tenant, []).append(record)

    def remove(self, record: JobRecord) -> bool:
        queue = self._queues.get(record.spec.tenant)
        if queue and record in queue:
            queue.remove(record)
            if not queue:
                del self._queues[record.spec.tenant]
            return True
        return False

    def pop(self, now: float) -> Optional[JobRecord]:
        """Next job: min-virtual-time tenant, best effective priority."""
        tenant = None
        for candidate in sorted(self._queues):
            # A tenant that went idle re-enters at the current clock so
            # it cannot bank credit while away (standard WFQ re-entry).
            vtime = max(self._vtime.get(candidate, 0.0), self._clock)
            if tenant is None or vtime < best_vtime:
                tenant, best_vtime = candidate, vtime
        if tenant is None:
            return None
        queue = self._queues[tenant]
        record = max(
            queue,
            key=lambda r: (r.spec.priority
                           + self.aging_rate * (now - r.enqueued_at),
                           -r.seq))
        queue.remove(record)
        if not queue:
            del self._queues[tenant]
        self._clock = max(self._vtime.get(tenant, 0.0), self._clock)
        self._vtime[tenant] = self._clock + 1.0 / self.weight_of(tenant)
        return record

    def depth(self, tenant: Optional[str] = None) -> int:
        if tenant is not None:
            return len(self._queues.get(tenant, []))
        return len(self)


class JobScheduler:
    """Runs submitted jobs on worker threads with WFQ + coalescing."""

    def __init__(self, workers: int = 2, max_queue: int = 64,
                 cache: Optional[FlowCache] = None,
                 tracer: Optional[Tracer] = None,
                 weights: Optional[Dict[str, float]] = None,
                 aging_rate: float = 0.05,
                 job_workers: int = 1, backend: str = "auto",
                 clock: Callable[[], float] = time.monotonic,
                 max_finished: int = 1_000) -> None:
        self.cache = cache if cache is not None else FlowCache()
        self.tracer = tracer
        self.workers = max(1, workers)
        self.max_queue = max(1, max_queue)
        self.max_finished = max(1, max_finished)
        self.job_workers = job_workers
        self.backend = backend
        self.clock = clock
        # key -> the in-flight leader computing it, and the lifetime
        # count of keys claimed by an admitted submission.
        self._leaders: Dict[str, JobRecord] = {}
        self._claims = 0
        self._queue = FairQueue(weights=weights, aging_rate=aging_rate)
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        # Every live job and the last ``max_finished`` finished ones,
        # in submission order; older finished jobs are forgotten (their
        # reports stay in the cache), so memory does not grow with the
        # number of requests served.
        self._jobs: Dict[str, JobRecord] = {}
        self._finished: Deque[str] = deque()
        self._next_seq = 0
        self._running = 0
        self._closed = False
        self._threads: List[threading.Thread] = []
        self.counts = {"submitted": 0, "completed": 0, "failed": 0,
                       "cancelled": 0, "coalesced": 0, "warm_hits": 0,
                       "rejected": 0, "computed": 0}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "JobScheduler":
        for index in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"job-worker-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        """Drain nothing: cancel queued and running jobs, join workers."""
        with self._lock:
            self._closed = True
            while True:
                record = self._queue.pop(self.clock())
                if record is None:
                    break
                self._release_locked(record)
                self._finish_locked(record, JobState.CANCELLED,
                                    error="service shutdown")
            for record in self._jobs.values():
                if record.state is JobState.RUNNING:
                    record.token.cancel("service shutdown")
            self._work_ready.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        self._threads.clear()

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit one spec: warm-hit, coalesce, or enqueue (else 429)."""
        key = spec.content_key()
        with self._lock:
            if self._closed:
                raise ServiceClosedError("scheduler is shut down")
            record = JobRecord(id=f"j-{self._next_seq + 1:06d}",
                               spec=spec, key=key, seq=self._next_seq,
                               enqueued_at=self.clock())
            self._next_seq += 1
            self.counts["submitted"] += 1
            self._count("service.jobs.submitted")
            record.add_event("submitted", tenant=spec.tenant,
                             kind=spec.kind, key=key)

            hit, payload = self.cache.get(SERVICE_LAYER, key, dict)
            if hit:
                record.cache_hit = True
                self.counts["warm_hits"] += 1
                self._count("service.jobs.warm_hits")
                record.add_event("warm-hit")
                self._register_locked(record)
                self._finish_locked(
                    record, JobState.SUCCEEDED,
                    exit_code=ExitCode(payload["exit_code"]),
                    report_text=payload["report"])
                return record

            leader = self._leaders.get(key)
            if leader is not None:
                record.coalesced = True
                record.leader_id = leader.id
                leader.followers.append(record)
                self.counts["coalesced"] += 1
                self._count("service.jobs.coalesced")
                record.add_event("coalesced", leader=leader.id)
                self._register_locked(record)
                return record

            if len(self._queue) >= self.max_queue:
                self.counts["rejected"] += 1
                self._count("service.jobs.rejected")
                raise QueueFullError(
                    f"queue full ({self.max_queue} job(s) pending)")
            self._claims += 1
            self._leaders[key] = record
            self._register_locked(record)
            self._queue.push(record)
            record.add_event("queued",
                             depth=self._queue.depth(spec.tenant))
            self._work_ready.notify()
            return record

    def _register_locked(self, record: JobRecord) -> None:
        self._jobs[record.id] = record

    def _release_locked(self, record: JobRecord) -> None:
        """Release ``record``'s key if (and only if) it leads it."""
        if self._leaders.get(record.key) is record:
            del self._leaders[record.key]

    # -- queries -----------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise UnknownJobError(f"unknown job {job_id!r}")
            return record

    def jobs(self, tenant: Optional[str] = None,
             state: Optional[JobState] = None) -> List[JobRecord]:
        with self._lock:
            records = list(self._jobs.values())
        if tenant is not None:
            records = [r for r in records if r.spec.tenant == tenant]
        if state is not None:
            records = [r for r in records if r.state is state]
        return records

    def events_since(self, job_id: str, since: int = 0) -> \
            Tuple[List[Dict[str, Any]], bool]:
        """(events after ``since``, job-is-terminal) — snapshot copy."""
        record = self.get(job_id)
        with self._lock:
            return list(record.events[since:]), record.terminal

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            cache_stats = {
                layer: {"hits": s.hits, "misses": s.misses,
                        "stores": s.stores}
                for layer, s in self.cache.stats.items()}
            return {
                "counts": dict(self.counts),
                "queue_depth": len(self._queue),
                "running": self._running,
                "jobs": len(self._jobs),
                "inflight": {"inflight": len(self._leaders),
                             "leaders": self._claims,
                             "coalesced": self.counts["coalesced"]},
                "cache": cache_stats,
            }

    # -- cancellation ------------------------------------------------------

    def cancel(self, job_id: str, reason: str = "client cancel") -> bool:
        """True if the job was (or will now be) cancelled."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise UnknownJobError(f"unknown job {job_id!r}")
            if record.terminal:
                return record.state is JobState.CANCELLED
            if record.coalesced:
                leader = self._jobs.get(record.leader_id or "")
                if leader is not None and record in leader.followers:
                    leader.followers.remove(record)
                self._finish_locked(record, JobState.CANCELLED,
                                    error=reason)
                return True
            if record.state is JobState.QUEUED \
                    and self._queue.remove(record):
                self._release_locked(record)
                self._promote_follower_locked(record)
                self._finish_locked(record, JobState.CANCELLED,
                                    error=reason)
                return True
            # Running: trip the token; the worker finalizes the state.
            record.token.cancel(reason)
            record.add_event("cancel-requested", reason=reason)
            return True

    def _promote_follower_locked(self, cancelled: JobRecord) -> None:
        """Re-enqueue the first follower of a cancelled queued leader."""
        while cancelled.followers:
            follower = cancelled.followers.pop(0)
            if follower.terminal:
                continue
            follower.coalesced = False
            follower.leader_id = None
            follower.followers = cancelled.followers
            cancelled.followers = []
            self._leaders[follower.key] = follower
            self._claims += 1
            self._queue.push(follower)
            follower.add_event("promoted-to-leader")
            self._work_ready.notify()
            return

    # -- worker side -------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                record = None
                while not self._closed:
                    record = self._queue.pop(self.clock())
                    if record is not None:
                        break
                    self._work_ready.wait()
                if record is None:     # closed and queue drained
                    return
                if record.token.cancelled:
                    self._release_locked(record)
                    self._promote_follower_locked(record)
                    self._finish_locked(record, JobState.CANCELLED,
                                        error=record.token.reason)
                    continue
                record.state = JobState.RUNNING
                record.started_at = self.clock()
                self._running += 1
                record.add_event("running")
            self._execute(record)

    def _job_progress(self, record: JobRecord
                      ) -> Callable[[int, int], None]:
        def on_progress(completed: int, total: int) -> None:
            with self._lock:
                record.progress = {"completed": completed,
                                   "total": total}
                record.add_event("progress", completed=completed,
                                 total=total)
        return on_progress

    def _execute(self, record: JobRecord) -> None:
        context = JobContext(jobs=self.job_workers,
                             backend=self.backend, cache=self.cache,
                             progress=self._job_progress(record))
        try:
            with cancel_scope(record.token):
                result = submit(record.spec, context)
            report_text = report_json_text(result.report)
        except ExecCancelled as error:
            self._finalize(record, JobState.CANCELLED, error=str(error))
            return
        except JobSpecError as error:
            self._finalize(record, JobState.FAILED, error=str(error),
                           exit_code=ExitCode.USAGE)
            return
        except Exception as error:  # producer failure: surfaced, not cached
            self._finalize(record, JobState.FAILED,
                           error=f"{type(error).__name__}: {error}",
                           exit_code=ExitCode.FAILURE)
            return
        # Cache before release: a submission arriving between release
        # and put must find the warm entry, not elect a new leader.
        self.cache.put(SERVICE_LAYER, record.key,
                       {"exit_code": int(result.exit_code),
                        "report": report_text}, dict)
        self._finalize(record, JobState.SUCCEEDED,
                       exit_code=result.exit_code,
                       report_text=report_text)

    def _finalize(self, record: JobRecord, state: JobState,
                  exit_code: Optional[ExitCode] = None,
                  report_text: Optional[str] = None,
                  error: Optional[str] = None) -> None:
        with self._lock:
            self._running -= 1
            self._release_locked(record)
            if state is JobState.CANCELLED and not self._closed:
                # A cancelled leader must not drag its subscribers down:
                # the first live follower is promoted to leader and
                # re-enqueued with the remaining subscribers attached.
                self._promote_follower_locked(record)
            followers, record.followers = record.followers, []
            self._finish_locked(record, state, exit_code=exit_code,
                                report_text=report_text, error=error)
            for follower in followers:
                if follower.terminal:
                    continue
                # Followers receive the leader's exact wire bytes — the
                # byte-identity contract coalescing is measured by.
                self._finish_locked(follower, state,
                                    exit_code=exit_code,
                                    report_text=report_text,
                                    error=error)

    def _finish_locked(self, record: JobRecord, state: JobState,
                       exit_code: Optional[ExitCode] = None,
                       report_text: Optional[str] = None,
                       error: Optional[str] = None) -> None:
        record.state = state
        record.exit_code = exit_code
        record.report_text = report_text
        record.error = error
        record.finished_at = self.clock()
        record.add_event(state.value, error=error)
        if state is JobState.SUCCEEDED:
            self.counts["completed"] += 1
            self._count("service.jobs.completed")
            if not record.cache_hit and not record.coalesced:
                self.counts["computed"] += 1
                self._count("service.jobs.computed")
        elif state is JobState.FAILED:
            self.counts["failed"] += 1
            self._count("service.jobs.failed")
        else:
            self.counts["cancelled"] += 1
            self._count("service.jobs.cancelled")
        self._emit_span_locked(record)
        record.done.set()
        self._finished.append(record.id)
        while len(self._finished) > self.max_finished:
            self._jobs.pop(self._finished.popleft(), None)

    # -- telemetry (tracer is not thread-safe: lock held throughout) -------

    def _count(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.counter(name, "service").add()

    def _emit_span_locked(self, record: JobRecord) -> None:
        if self.tracer is None:
            return
        start = record.started_at if record.started_at is not None \
            else record.enqueued_at
        end = record.finished_at if record.finished_at is not None \
            else start
        self.tracer.add_span(
            f"job:{record.spec.kind}", "service", start, end,
            job=record.id, tenant=record.spec.tenant,
            state=record.state.value, cache_hit=record.cache_hit,
            coalesced=record.coalesced)


__all__ = ["FairQueue", "JobScheduler", "SERVICE_LAYER"]
