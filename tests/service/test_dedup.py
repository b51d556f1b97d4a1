"""Dedup coalescing: N identical submissions, one computation."""

import threading

import pytest

from repro.api import (
    ExitCode,
    JobOutcome,
    JobSpec,
    register_kind,
    unregister_kind,
)
from repro.core import GenericReport
from repro.service import JobScheduler, JobState


@pytest.fixture
def idle_scheduler():
    """A scheduler with no worker threads: every leader stays queued."""
    instance = JobScheduler(workers=1, max_queue=8)
    yield instance
    instance.stop()


def flow_spec(tenant="default", width=8):
    return JobSpec(kind="flow", params={"component": "addsub",
                                        "width": width}, tenant=tenant)


def inflight(scheduler):
    return scheduler.stats()["inflight"]


class TestLeaderMap:
    """The scheduler's ``key -> leader`` map and its lifetime counts."""

    def test_first_claim_leads(self, idle_scheduler):
        first = idle_scheduler.submit(flow_spec())
        assert not first.coalesced and first.leader_id is None
        assert inflight(idle_scheduler) == {"inflight": 1, "leaders": 1,
                                            "coalesced": 0}

    def test_second_claim_coalesces_onto_leader(self, idle_scheduler):
        first = idle_scheduler.submit(flow_spec())
        second = idle_scheduler.submit(flow_spec(tenant="other"))
        assert second.coalesced and second.leader_id == first.id
        assert first.followers == [second]
        assert inflight(idle_scheduler) == {"inflight": 1, "leaders": 1,
                                            "coalesced": 1}

    def test_release_is_leader_only(self, idle_scheduler):
        leader = idle_scheduler.submit(flow_spec())
        follower = idle_scheduler.submit(flow_spec())
        assert idle_scheduler.cancel(follower.id)   # releases nothing
        late = idle_scheduler.submit(flow_spec())
        assert late.leader_id == leader.id
        # The leader releases the key; its live follower claims it.
        assert idle_scheduler.cancel(leader.id)
        assert not late.coalesced and late.state is JobState.QUEUED
        assert idle_scheduler.cancel(late.id)
        assert inflight(idle_scheduler) == {"inflight": 0, "leaders": 2,
                                            "coalesced": 2}

    def test_distinct_keys_do_not_coalesce(self, idle_scheduler):
        one = idle_scheduler.submit(flow_spec(width=8))
        two = idle_scheduler.submit(flow_spec(width=16))
        assert not one.coalesced and not two.coalesced
        assert inflight(idle_scheduler) == {"inflight": 2, "leaders": 2,
                                            "coalesced": 0}


class CountingKind:
    """A registered job kind that counts real computations."""

    def __init__(self, kind: str, fail: bool = False):
        self.kind = kind
        self.fail = fail
        self.computations = 0
        self.release = threading.Event()
        self.started = threading.Event()
        self._lock = threading.Lock()
        register_kind(kind, self)

    def __call__(self, spec, ctx):
        with self._lock:
            self.computations += 1
        self.started.set()
        assert self.release.wait(timeout=30.0)
        if self.fail:
            raise RuntimeError("synthetic producer failure")
        return JobOutcome(report=GenericReport(
            kind=self.kind, payload={"echo": dict(spec.params)}))

    def close(self):
        self.release.set()
        unregister_kind(self.kind)


@pytest.fixture
def scheduler():
    instance = JobScheduler(workers=4, max_queue=32).start()
    yield instance
    instance.stop()


class TestCoalescing:
    def test_identical_specs_coalesce_to_one_computation(self, scheduler):
        counting = CountingKind("test-coalesce")
        try:
            specs = [JobSpec(kind="test-coalesce",
                             params={"x": 1}, tenant=f"tenant-{i % 5}")
                     for i in range(12)]
            records = [scheduler.submit(spec) for spec in specs]
            assert counting.started.wait(timeout=10.0)
            counting.release.set()
            for record in records:
                assert record.done.wait(timeout=30.0)

            # Exactly one underlying computation...
            assert counting.computations == 1
            assert inflight(scheduler)["coalesced"] == 11
            assert scheduler.counts["coalesced"] == 11
            assert scheduler.counts["computed"] == 1
            # ...stored exactly once in the service cache layer...
            assert scheduler.cache.stats["service"].stores == 1
            # ...and every subscriber received the leader's bytes.
            texts = {record.report_text for record in records}
            assert len(texts) == 1
            assert all(r.state is JobState.SUCCEEDED for r in records)
            leaders = [r for r in records if not r.coalesced]
            followers = [r for r in records if r.coalesced]
            assert len(leaders) == 1 and len(followers) == 11
            assert all(f.leader_id == leaders[0].id for f in followers)
        finally:
            counting.close()

    def test_submissions_after_completion_are_warm_hits(self, scheduler):
        counting = CountingKind("test-warm")
        try:
            counting.release.set()
            spec = JobSpec(kind="test-warm", params={"y": 2})
            first = scheduler.submit(spec)
            assert first.done.wait(timeout=30.0)
            again = scheduler.submit(JobSpec(kind="test-warm",
                                             params={"y": 2},
                                             tenant="other"))
            assert again.done.is_set()       # immediate, no queueing
            assert again.cache_hit
            assert again.report_text == first.report_text
            assert counting.computations == 1
            assert scheduler.counts["warm_hits"] == 1
        finally:
            counting.close()

    def test_different_params_do_not_coalesce(self, scheduler):
        counting = CountingKind("test-distinct")
        try:
            counting.release.set()
            records = [scheduler.submit(JobSpec(kind="test-distinct",
                                                params={"n": n}))
                       for n in range(3)]
            for record in records:
                assert record.done.wait(timeout=30.0)
            assert counting.computations == 3
            assert scheduler.counts["coalesced"] == 0
        finally:
            counting.close()

    def test_failures_propagate_to_followers_and_are_not_cached(
            self, scheduler):
        counting = CountingKind("test-fail", fail=True)
        try:
            spec = JobSpec(kind="test-fail", params={"z": 1})
            first = scheduler.submit(spec)
            second = scheduler.submit(JobSpec(kind="test-fail",
                                              params={"z": 1},
                                              tenant="other"))
            assert counting.started.wait(timeout=10.0)
            counting.release.set()
            assert first.done.wait(timeout=30.0)
            assert second.done.wait(timeout=30.0)
            assert first.state is JobState.FAILED
            assert second.state is JobState.FAILED
            assert first.exit_code is ExitCode.FAILURE
            assert "synthetic producer failure" in first.error
            # Failures are never cached: a retry recomputes.
            counting.fail = False
            retry = scheduler.submit(spec)
            assert retry.done.wait(timeout=30.0)
            assert retry.state is JobState.SUCCEEDED
            assert not retry.cache_hit
            assert counting.computations == 2
        finally:
            counting.close()

    def test_coalesced_submissions_bypass_queue_bound(self):
        tiny = JobScheduler(workers=1, max_queue=1).start()
        counting = CountingKind("test-bypass")
        try:
            spec = JobSpec(kind="test-bypass", params={"q": 1})
            records = [tiny.submit(spec) for _ in range(8)]
            assert counting.started.wait(timeout=10.0)
            counting.release.set()
            for record in records:
                assert record.done.wait(timeout=30.0)
            assert counting.computations == 1
            assert tiny.counts["rejected"] == 0
        finally:
            counting.close()
            tiny.stop()


class TestRealProducerCoalescing:
    def test_concurrent_flow_jobs_coalesce_byte_identically(self):
        scheduler = JobScheduler(workers=4, max_queue=32).start()
        try:
            spec_of = lambda tenant: JobSpec(
                kind="flow",
                params={"component": "addsub", "width": 8,
                        "effort": 0.2},
                tenant=tenant)
            records = []
            barrier = threading.Barrier(6)

            def client(tenant):
                barrier.wait()
                records.append(scheduler.submit(spec_of(tenant)))

            threads = [threading.Thread(target=client, args=(f"t{i}",))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for record in records:
                assert record.done.wait(timeout=60.0)
            assert all(r.state is JobState.SUCCEEDED for r in records)
            assert len({r.report_text for r in records}) == 1
            stats = scheduler.stats()
            computed = stats["counts"]["computed"]
            coalesced = stats["counts"]["coalesced"]
            warm = stats["counts"]["warm_hits"]
            assert computed == 1
            assert coalesced + warm == 5
        finally:
            scheduler.stop()
