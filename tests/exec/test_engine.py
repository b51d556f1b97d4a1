"""Execution-engine contract on its one dispatcher, ``run_sharded``:
seed derivation, backend resolution, determinism across backends and
job counts, and the per-run timeout/retry envelope."""

import random
import threading
import time

import pytest

from repro.exec import (
    BACKENDS,
    ExecError,
    LatencyStats,
    plan_shards,
    resolve_backend,
    rng_for,
    run_sharded,
    seed_for,
)
from repro.exec import sharding


def square_task(index, run_seed):
    return index * index


def seeded_draw(index, run_seed):
    return random.Random(run_seed).randrange(1 << 30)


def run_all(fn, runs, seed=1, shard_size=4, **kwargs):
    """Every run result of a sharded execution, in run order."""
    shards = run_sharded(fn, plan_shards(runs, shard_size=shard_size),
                         seed=seed, **kwargs)
    return [result for shard in shards for result in shard.results]


def values(results):
    return [result.value for result in results]


class TestSeedDerivation:
    def test_deterministic(self):
        assert seed_for(13, 512) == seed_for(13, 512)

    def test_pinned_values(self):
        # Platform/version stability: pure integer arithmetic, no hash().
        assert seed_for(1, 0) == 3018708184346319059
        assert seed_for(1, 1) == 6770037107723588774
        assert seed_for(2, 0) == 180477462826346010

    def test_runs_are_independent(self):
        seeds = [seed_for(13, i) for i in range(1000)]
        assert len(set(seeds)) == 1000

    def test_campaign_seed_reshuffles(self):
        a = [seed_for(1, i) for i in range(100)]
        b = [seed_for(2, i) for i in range(100)]
        assert not set(a) & set(b)

    def test_streams_are_independent(self):
        assert seed_for(7, 3, stream=0) != seed_for(7, 3, stream=1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            seed_for(1, -1)

    def test_rng_for_reproduces(self):
        assert rng_for(5, 9).random() == rng_for(5, 9).random()


class TestBackendResolution:
    def test_auto_serial_for_one_job(self):
        assert resolve_backend("auto", 1) == "serial"

    def test_auto_thread_for_many_jobs(self):
        assert resolve_backend("auto", 4) == "thread"

    def test_explicit_backends(self):
        for backend in BACKENDS:
            assert resolve_backend(backend, 2) in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExecError):
            resolve_backend("gpu", 2)

    def test_zero_jobs_means_all_cores(self, monkeypatch):
        # Three runs meet at a three-party barrier: only a pool of
        # default_jobs() == 3 workers can run them all at once.
        monkeypatch.setattr(sharding, "default_jobs", lambda: 3)
        barrier = threading.Barrier(3)

        def meet(index, run_seed):
            return barrier.wait(timeout=10)

        results = run_all(meet, 3, shard_size=1, jobs=0, backend="thread")
        assert all(result.ok for result in results)


class TestDeterminism:
    def reference(self, runs, seed):
        return values(run_all(seeded_draw, runs, seed, jobs=1,
                              backend="serial"))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_backends_and_jobs_agree(self, backend, jobs):
        results = run_all(seeded_draw, 64, seed=17, jobs=jobs,
                          backend=backend)
        assert values(results) == self.reference(64, 17)

    def test_results_in_run_order(self):
        results = run_all(square_task, 50, shard_size=3, jobs=4,
                          backend="thread")
        assert [r.index for r in results] == list(range(50))
        assert values(results) == [i * i for i in range(50)]

    def test_shard_size_is_invisible(self):
        for size in (1, 7, 100):
            results = run_all(seeded_draw, 40, seed=3, shard_size=size,
                              jobs=3, backend="thread")
            assert values(results) == self.reference(40, 3)

    def test_zero_runs(self):
        results = run_all(square_task, 0, jobs=4, backend="thread")
        assert results == []
        assert LatencyStats.from_samples(
            [r.latency_s for r in results]).count == 0


class TestTimeoutAndRetry:
    def test_timeout_classified(self):
        def hang(index, run_seed):
            time.sleep(30)

        results = run_all(hang, 4, shard_size=1, jobs=2,
                          backend="thread", timeout_s=0.05)
        assert len(results) == 4
        for result in results:
            assert not result.ok
            assert result.timed_out
            assert result.attempts == 1
            assert "exceeded" in result.error

    def test_hung_runs_never_wedge_the_pool(self):
        def hang_some(index, run_seed):
            if index % 4 == 0:
                time.sleep(30)
            return index

        start = time.perf_counter()
        results = run_all(hang_some, 12, shard_size=1, jobs=2,
                          backend="thread", timeout_s=0.05)
        assert time.perf_counter() - start < 10
        assert sum(1 for r in results if r.ok) == 9
        assert [r.index for r in results if not r.ok] == [0, 4, 8]

    def test_retry_exhaustion_counts_attempts(self):
        def always_fails(index, run_seed):
            raise RuntimeError("flaky forever")

        results = run_all(always_fails, 2, retries=3)
        assert len(results) == 2
        for result in results:
            assert not result.ok
            assert result.attempts == 4
            assert "flaky forever" in result.error

    def test_retry_recovers_transient_failure(self):
        attempts_seen = {}
        lock = threading.Lock()

        def flaky(index, run_seed):
            with lock:
                attempts_seen[index] = attempts_seen.get(index, 0) + 1
                if attempts_seen[index] < 2:
                    raise RuntimeError("transient")
            return "ok"

        results = run_all(flaky, 6, jobs=2, backend="thread", retries=2)
        assert all(r.ok and r.value == "ok" for r in results)
        assert all(r.attempts == 2 for r in results)

    def test_fatal_types_propagate(self):
        class Misconfigured(Exception):
            pass

        attempts = []

        def broken(index, run_seed):
            attempts.append(index)
            raise Misconfigured("campaign bug")

        with pytest.raises(Misconfigured):
            run_all(broken, 4, shard_size=1, jobs=2, backend="thread",
                    retries=5, fatal_types=(Misconfigured,))
        # A fatal aborts at once: it is never retried.
        assert len(attempts) <= 2


class TestReporting:
    def test_progress_hook(self):
        # Callers report progress from the in-order fold.
        updates = []
        folded = []

        def progress(shard):
            folded.extend(shard.results)
            updates.append((len(folded), 20))

        run_sharded(square_task, plan_shards(20, shard_size=5), jobs=2,
                    backend="thread", consume=progress)
        assert updates == [(5, 20), (10, 20), (15, 20), (20, 20)]

    def test_latency_and_wall_recorded(self):
        def work(index, run_seed):
            time.sleep(0.002)

        shards = run_sharded(work, plan_shards(8, shard_size=2), jobs=2,
                             backend="thread")
        stats = LatencyStats.from_samples(
            [r.latency_s for shard in shards for r in shard.results])
        assert stats.count == 8
        assert stats.mean_s >= 0.002
        assert stats.max_s >= stats.p95_s >= stats.p50_s > 0
        assert all(shard.wall_s >= 0.004 for shard in shards)

    def test_process_backend_runs_closures(self):
        # fork inheritance: a closure over local state must reach workers.
        offset = 1000

        def task(index, run_seed):
            return index + offset

        results = run_all(task, 10, jobs=2, backend="process")
        assert values(results) == [i + 1000 for i in range(10)]
