"""Scheduler behavior: fairness, backpressure, cancellation, aging."""

import threading
import time

import pytest

from repro.api import (
    JobOutcome,
    JobSpec,
    register_kind,
    unregister_kind,
)
from repro.core import GenericReport
from repro.exec.cancel import check_cancelled
from repro.service import (
    FairQueue,
    JobScheduler,
    JobState,
    QueueFullError,
    UnknownJobError,
)
from repro.service.jobs import JobRecord


def _record(tenant: str, seq: int, priority: int = 0,
            enqueued_at: float = 0.0) -> JobRecord:
    spec = JobSpec(kind="seu", params={"n": seq}, tenant=tenant,
                   priority=priority)
    return JobRecord(id=f"j-{seq:06d}", spec=spec, key=f"key-{seq}",
                     seq=seq, enqueued_at=enqueued_at)


class TestFairQueue:
    def test_round_robins_equal_weight_tenants(self):
        queue = FairQueue()
        for seq in range(6):
            queue.push(_record("a", seq))
        for seq in range(6, 8):
            queue.push(_record("b", seq))
        order = [queue.pop(0.0).spec.tenant for _ in range(len(queue))]
        # Tenant b's two jobs land in the first four dispatches: a's
        # flood advances only a's virtual clock.
        assert order[:4].count("b") == 2

    def test_weighted_tenant_gets_proportional_share(self):
        queue = FairQueue(weights={"heavy": 2.0})
        for seq in range(8):
            queue.push(_record("heavy", seq))
        for seq in range(8, 12):
            queue.push(_record("light", seq))
        first_six = [queue.pop(0.0).spec.tenant for _ in range(6)]
        assert first_six.count("heavy") == 4
        assert first_six.count("light") == 2

    def test_priority_orders_within_tenant(self):
        queue = FairQueue()
        queue.push(_record("a", 0, priority=0))
        queue.push(_record("a", 1, priority=5))
        queue.push(_record("a", 2, priority=1))
        order = [queue.pop(0.0).seq for _ in range(3)]
        assert order == [1, 2, 0]

    def test_aging_eventually_beats_fixed_priority(self):
        queue = FairQueue(aging_rate=1.0)
        queue.push(_record("a", 0, priority=0, enqueued_at=0.0))
        queue.push(_record("a", 1, priority=5, enqueued_at=0.0))
        # Young high-priority job wins at t=0...
        assert queue.pop(0.0).seq == 1
        queue.push(_record("a", 2, priority=5, enqueued_at=10.0))
        # ...but at t=10 the old job's effective priority (0 + 10×1.0)
        # exceeds the newcomer's (5 + 0).
        assert queue.pop(10.0).seq == 0

    def test_submission_order_breaks_ties(self):
        queue = FairQueue(aging_rate=0.0)
        queue.push(_record("a", 7))
        queue.push(_record("a", 3))
        assert queue.pop(0.0).seq == 3

    def test_remove(self):
        queue = FairQueue()
        record = _record("a", 0)
        queue.push(record)
        assert queue.remove(record)
        assert not queue.remove(record)
        assert queue.pop(0.0) is None


class BlockingKind:
    """A kind whose runs block until released (checks cancellation)."""

    def __init__(self, kind: str):
        self.kind = kind
        self.release = threading.Event()
        self.started = threading.Event()
        self.executed = []
        self._lock = threading.Lock()
        register_kind(kind, self)

    def __call__(self, spec, ctx):
        self.started.set()
        while not self.release.wait(timeout=0.01):
            check_cancelled()
        with self._lock:
            self.executed.append(spec.tenant)
        return JobOutcome(report=GenericReport(
            kind=self.kind, payload=dict(spec.params)))

    def close(self):
        self.release.set()
        unregister_kind(self.kind)


class TestBackpressure:
    def test_queue_bound_rejects_with_429_semantics(self):
        scheduler = JobScheduler(workers=1, max_queue=2).start()
        blocking = BlockingKind("test-bp")
        try:
            # One job occupies the worker, two more fill the queue.
            first = scheduler.submit(JobSpec(kind="test-bp",
                                             params={"n": 0}))
            assert blocking.started.wait(timeout=10.0)
            records = [first] + [scheduler.submit(
                JobSpec(kind="test-bp", params={"n": n}))
                for n in range(1, 3)]
            with pytest.raises(QueueFullError):
                scheduler.submit(JobSpec(kind="test-bp",
                                         params={"n": 99}))
            assert scheduler.counts["rejected"] == 1
            blocking.release.set()
            for record in records:
                assert record.done.wait(timeout=30.0)
        finally:
            blocking.close()
            scheduler.stop()

    def test_rejected_key_is_resubmittable(self):
        scheduler = JobScheduler(workers=1, max_queue=1).start()
        blocking = BlockingKind("test-bp2")
        try:
            held = scheduler.submit(JobSpec(kind="test-bp2",
                                            params={"n": 0}))
            assert blocking.started.wait(timeout=10.0)
            queued = scheduler.submit(JobSpec(kind="test-bp2",
                                              params={"n": 1}))
            rejected_spec = JobSpec(kind="test-bp2", params={"n": 2})
            with pytest.raises(QueueFullError):
                scheduler.submit(rejected_spec)
            blocking.release.set()
            assert held.done.wait(timeout=30.0)
            assert queued.done.wait(timeout=30.0)
            # The rejected key must not be stuck in the inflight
            # registry: a later resubmission becomes a normal leader.
            retry = scheduler.submit(rejected_spec)
            assert retry.done.wait(timeout=30.0)
            assert retry.state is JobState.SUCCEEDED
            assert not retry.coalesced
        finally:
            blocking.close()
            scheduler.stop()


class TestFairness:
    def test_tenant_flood_cannot_starve_other_tenant(self):
        scheduler = JobScheduler(workers=1, max_queue=64).start()
        blocking = BlockingKind("test-fair")
        try:
            # Occupy the single worker so submissions pile up queued.
            gate = scheduler.submit(JobSpec(kind="test-fair",
                                            params={"gate": True},
                                            tenant="gate"))
            assert blocking.started.wait(timeout=10.0)
            for n in range(10):
                scheduler.submit(JobSpec(kind="test-fair",
                                         params={"n": n},
                                         tenant="flooder"))
            victims = [scheduler.submit(JobSpec(kind="test-fair",
                                                params={"v": v},
                                                tenant="victim"))
                       for v in range(2)]
            blocking.release.set()
            for record in victims:
                assert record.done.wait(timeout=30.0)
            assert gate.done.wait(timeout=30.0)
            # WFQ interleaves: both victim jobs execute among the first
            # four dispatches after the gate, despite 10 queued flood
            # jobs submitted ahead of them.
            dispatched = blocking.executed[1:5]
            assert dispatched.count("victim") == 2
        finally:
            blocking.close()
            scheduler.stop()


class TestCancellation:
    def test_cancel_queued_job(self):
        scheduler = JobScheduler(workers=1, max_queue=16).start()
        blocking = BlockingKind("test-cq")
        try:
            scheduler.submit(JobSpec(kind="test-cq", params={"n": 0}))
            assert blocking.started.wait(timeout=10.0)
            queued = scheduler.submit(JobSpec(kind="test-cq",
                                              params={"n": 1}))
            assert scheduler.cancel(queued.id)
            assert queued.state is JobState.CANCELLED
            assert queued.done.is_set()
            blocking.release.set()
        finally:
            blocking.close()
            scheduler.stop()

    def test_cancel_running_job_via_token(self):
        scheduler = JobScheduler(workers=1, max_queue=16).start()
        blocking = BlockingKind("test-cr")
        try:
            running = scheduler.submit(JobSpec(kind="test-cr",
                                               params={"n": 0}))
            assert blocking.started.wait(timeout=10.0)
            assert scheduler.cancel(running.id, reason="test abort")
            assert running.done.wait(timeout=30.0)
            assert running.state is JobState.CANCELLED
            assert scheduler.counts["cancelled"] == 1
            # Nothing cached for a cancelled computation.
            retry = scheduler.submit(JobSpec(kind="test-cr",
                                             params={"n": 0},
                                             tenant="again"))
            assert not retry.cache_hit
            blocking.release.set()
            assert retry.done.wait(timeout=30.0)
            assert retry.state is JobState.SUCCEEDED
        finally:
            blocking.close()
            scheduler.stop()

    def test_cancelled_leader_promotes_follower(self):
        scheduler = JobScheduler(workers=1, max_queue=16).start()
        blocking = BlockingKind("test-cp")
        try:
            spec = JobSpec(kind="test-cp", params={"n": 0})
            leader = scheduler.submit(spec)
            assert blocking.started.wait(timeout=10.0)
            follower = scheduler.submit(
                JobSpec(kind="test-cp", params={"n": 0},
                        tenant="subscriber"))
            assert follower.coalesced
            blocking.started.clear()
            assert scheduler.cancel(leader.id)
            assert leader.done.wait(timeout=30.0)
            assert leader.state is JobState.CANCELLED
            # The follower is promoted and recomputes on its own.
            assert blocking.started.wait(timeout=10.0)
            blocking.release.set()
            assert follower.done.wait(timeout=30.0)
            assert follower.state is JobState.SUCCEEDED
        finally:
            blocking.close()
            scheduler.stop()

    def test_cancel_follower_leaves_leader_running(self):
        scheduler = JobScheduler(workers=1, max_queue=16).start()
        blocking = BlockingKind("test-cf")
        try:
            spec = JobSpec(kind="test-cf", params={"n": 0})
            leader = scheduler.submit(spec)
            assert blocking.started.wait(timeout=10.0)
            follower = scheduler.submit(
                JobSpec(kind="test-cf", params={"n": 0},
                        tenant="subscriber"))
            assert scheduler.cancel(follower.id)
            assert follower.state is JobState.CANCELLED
            blocking.release.set()
            assert leader.done.wait(timeout=30.0)
            assert leader.state is JobState.SUCCEEDED
        finally:
            blocking.close()
            scheduler.stop()

    def test_cancel_unknown_job_raises(self):
        scheduler = JobScheduler(workers=1).start()
        try:
            with pytest.raises(UnknownJobError):
                scheduler.cancel("j-999999")
        finally:
            scheduler.stop()

    def test_cancel_terminal_job_is_noop(self):
        scheduler = JobScheduler(workers=1).start()
        blocking = BlockingKind("test-ct")
        try:
            blocking.release.set()
            record = scheduler.submit(JobSpec(kind="test-ct",
                                              params={"n": 0}))
            assert record.done.wait(timeout=30.0)
            assert not scheduler.cancel(record.id)
            assert record.state is JobState.SUCCEEDED
        finally:
            blocking.close()
            scheduler.stop()


class TestEngineCancellation:
    def test_engine_serial_checkpoint_raises(self):
        from repro.exec import ExecCancelled, cancel_scope
        from repro.exec.sharding import plan_shards, run_sharded
        with cancel_scope() as token:
            token.cancel("stop now")
            with pytest.raises(ExecCancelled):
                run_sharded(lambda i, s: i, plan_shards(10, shard_size=1),
                            seed=1, jobs=1)

    def test_engine_pooled_cancel_mid_run(self):
        from repro.exec import ExecCancelled, cancel_scope
        from repro.exec.sharding import plan_shards, run_sharded

        def slow_run(index, run_seed):
            time.sleep(0.02)
            return index

        with cancel_scope() as token:
            killer = threading.Timer(0.05, token.cancel)
            killer.start()
            try:
                with pytest.raises(ExecCancelled):
                    run_sharded(slow_run, plan_shards(500, shard_size=1),
                                seed=1, jobs=2, backend="thread")
            finally:
                killer.cancel()

    def test_sharded_dispatch_cancels_between_shards(self):
        from repro.exec import ExecCancelled, cancel_scope
        from repro.exec.sharding import plan_shards, run_sharded

        plan = plan_shards(200, shard_size=10)
        executed = []

        def slow_run(index, run_seed):
            time.sleep(0.002)
            executed.append(index)
            return index

        with cancel_scope() as token:
            killer = threading.Timer(0.05, token.cancel)
            killer.start()
            try:
                with pytest.raises(ExecCancelled):
                    run_sharded(slow_run, plan, seed=1, jobs=1)
            finally:
                killer.cancel()
        assert len(executed) < 200    # abandoned mid-campaign

    def test_engine_unaffected_outside_scope(self):
        from repro.exec.sharding import plan_shards, run_sharded
        shards = run_sharded(lambda i, s: i * 2,
                             plan_shards(20, shard_size=5), seed=1,
                             jobs=2, backend="thread")
        assert [r.value for shard in shards for r in shard.results] == \
            [i * 2 for i in range(20)]


class TestEvents:
    def test_event_log_records_lifecycle(self):
        scheduler = JobScheduler(workers=1).start()
        blocking = BlockingKind("test-ev")
        try:
            blocking.release.set()
            record = scheduler.submit(JobSpec(kind="test-ev",
                                              params={"n": 0}))
            assert record.done.wait(timeout=30.0)
            events, terminal = scheduler.events_since(record.id)
            assert terminal
            names = [event["event"] for event in events]
            assert names[0] == "submitted"
            assert "queued" in names
            assert "running" in names
            assert names[-1] == "succeeded"
            # Incremental polling returns only the new suffix.
            tail, _ = scheduler.events_since(record.id,
                                             since=len(events) - 1)
            assert [event["event"] for event in tail] == ["succeeded"]
        finally:
            blocking.close()
            scheduler.stop()


class TestRetention:
    def test_only_the_last_finished_jobs_are_kept(self):
        scheduler = JobScheduler(workers=1, max_finished=2).start()
        blocking = BlockingKind("test-keep")
        try:
            blocking.release.set()
            spec = JobSpec(kind="test-keep", params={"n": 0})
            first = scheduler.submit(spec)
            assert first.done.wait(timeout=30.0)
            # Warm hits of the same spec finish at submission.
            second = scheduler.submit(spec)
            third = scheduler.submit(spec)
            assert [r.id for r in scheduler.jobs()] == [second.id,
                                                        third.id]
            with pytest.raises(UnknownJobError):
                scheduler.get(first.id)
            assert scheduler.get(third.id).report_text \
                == first.report_text
            assert scheduler.stats()["jobs"] == 2
        finally:
            blocking.close()
            scheduler.stop()
