"""Property tests for the shard planner and work-stealing dispatcher."""

import threading

import pytest

from repro.exec import ExecError, plan_shards, run_shard, run_sharded
from repro.exec.seeding import seed_for
from repro.exec.sharding import ShardResult, ShardSpec


def echo_run(index, run_seed):
    """Module-level so the fork backend can resolve it post-fork."""
    return (index, run_seed)


class TestPlanShards:
    @pytest.mark.parametrize("runs,shards", [
        (1, 1), (10, 1), (10, 3), (10, 10), (10, 16), (100, 7), (97, 16),
    ])
    def test_shard_count_covers_every_run_exactly_once(self, runs, shards):
        plan = plan_shards(runs, shards=shards)
        covered = [i for spec in plan.specs for i in spec.run_indices()]
        assert covered == list(range(runs))

    @pytest.mark.parametrize("runs,size", [(1, 1), (10, 3), (100, 7),
                                           (100, 100), (100, 1000)])
    def test_shard_size_covers_every_run_exactly_once(self, runs, size):
        plan = plan_shards(runs, shard_size=size)
        covered = [i for spec in plan.specs for i in spec.run_indices()]
        assert covered == list(range(runs))
        assert all(spec.count == size for spec in plan.specs[:-1])
        assert plan.specs[-1].count <= size

    def test_indices_are_sequential(self):
        plan = plan_shards(100, shards=7)
        assert [s.index for s in plan.specs] == list(range(len(plan)))

    def test_zero_runs_is_an_empty_plan(self):
        assert plan_shards(0, shards=4).specs == []
        assert plan_shards(0, shard_size=10).specs == []

    def test_fixed_size_extension_keeps_old_shards(self):
        # The resume contract: growing ``runs`` at fixed shard_size
        # leaves every previously planned shard untouched, so its
        # cached results stay valid.
        small = plan_shards(1000, shard_size=250)
        large = plan_shards(2000, shard_size=250)
        assert large.specs[:len(small)] == small.specs
        # ...whereas a fixed shard *count* moves the boundaries.
        assert plan_shards(2000, shards=4).specs[:1] != \
            plan_shards(1000, shards=4).specs[:1]

    def test_manifest_round_trips_specs(self):
        plan = plan_shards(50, shard_size=20)
        manifest = plan.manifest()
        assert manifest["runs"] == 50
        assert manifest["shard_size"] == 20
        assert [ShardSpec.from_json(s) for s in manifest["shards"]] == \
            plan.specs

    def test_argument_validation(self):
        with pytest.raises(ExecError):
            plan_shards(10)  # neither
        with pytest.raises(ExecError):
            plan_shards(10, shards=2, shard_size=5)  # both
        with pytest.raises(ExecError):
            plan_shards(-1, shards=2)
        with pytest.raises(ExecError):
            plan_shards(10, shards=0)
        with pytest.raises(ExecError):
            plan_shards(10, shard_size=0)


class TestRunShard:
    def test_is_the_exact_serial_slice(self):
        spec = ShardSpec(index=2, start=20, count=10)
        result = run_shard(echo_run, spec, seed=42)
        assert [r.value for r in result.results] == \
            [(i, seed_for(42, i)) for i in range(20, 30)]
        assert all(r.ok for r in result.results)
        assert all(r.latency_s >= 0.0 for r in result.results)

    def test_non_fatal_exception_becomes_a_failed_run(self):
        def sometimes_raises(index, run_seed):
            if index == 5:
                raise RuntimeError("boom")
            return index

        spec = ShardSpec(index=0, start=0, count=10)
        result = run_shard(sometimes_raises, spec, seed=1)
        failed = [r for r in result.results if not r.ok]
        assert [r.index for r in failed] == [5]
        assert "boom" in failed[0].error


class TestRunSharded:
    @pytest.mark.parametrize("jobs,backend", [(1, "serial"), (4, "thread")])
    def test_folds_in_plan_order_regardless_of_completion(self, jobs,
                                                          backend):
        plan = plan_shards(60, shards=7)
        results = run_sharded(echo_run, plan, seed=9, jobs=jobs,
                              backend=backend)
        assert [r.spec.index for r in results] == list(range(len(plan)))
        flat = [run.value for shard in results for run in shard.results]
        assert flat == [(i, seed_for(9, i)) for i in range(60)]

    def test_completed_shards_are_never_executed(self):
        plan = plan_shards(40, shard_size=10)
        executed = []
        lock = threading.Lock()

        def tracking(index, run_seed):
            with lock:
                executed.append(index)
            return index

        sentinel = ShardResult(spec=plan.specs[1], results=[])
        results = run_sharded(tracking, plan, seed=1, jobs=4,
                              backend="thread", completed={1: sentinel})
        assert results[1] is sentinel
        assert not any(10 <= i < 20 for i in executed)
        assert sorted(executed) == \
            list(range(0, 10)) + list(range(20, 40))

    def test_on_computed_return_value_replaces_the_shard(self):
        plan = plan_shards(20, shard_size=5)
        results = run_sharded(echo_run, plan, seed=1, jobs=2,
                              backend="thread",
                              on_computed=lambda s: ("folded", s.spec.index))
        assert results == [("folded", i) for i in range(4)]

    def test_consume_true_stops_after_a_deterministic_prefix(self):
        plan = plan_shards(200, shard_size=10)

        def stop_after_third(shard):
            return shard.spec.index >= 2

        prefixes = []
        for jobs, backend in [(1, "serial"), (4, "thread")]:
            results = run_sharded(echo_run, plan, seed=3, jobs=jobs,
                                  backend=backend,
                                  consume=stop_after_third)
            assert [r.spec.index for r in results] == [0, 1, 2]
            prefixes.append([run.value for shard in results
                             for run in shard.results])
        # The folded prefix is identical at any job count — the early
        # stop is a property of the plan, not of the schedule.
        assert prefixes[0] == prefixes[1]

    def test_fatal_exception_propagates(self):
        def fatally_broken(index, run_seed):
            raise ValueError("programming error")

        plan = plan_shards(10, shard_size=5)
        for jobs, backend in [(1, "serial"), (2, "thread")]:
            with pytest.raises(ValueError, match="programming error"):
                run_sharded(fatally_broken, plan, seed=1, jobs=jobs,
                            backend=backend, fatal_types=(ValueError,))

    def test_fork_backend_matches_thread_backend(self):
        plan = plan_shards(30, shards=4)
        forked = run_sharded(echo_run, plan, seed=7, jobs=2,
                             backend="process")
        threaded = run_sharded(echo_run, plan, seed=7, jobs=2,
                               backend="thread")
        assert [[r.value for r in s.results] for s in forked] == \
            [[r.value for r in s.results] for s in threaded]

    def test_rejects_negative_jobs(self):
        with pytest.raises(ExecError):
            run_sharded(echo_run, plan_shards(10, shards=2), jobs=-1)

    def test_rejects_negative_retries_and_non_positive_timeout(self):
        for bad in (dict(retries=-1), dict(timeout_s=0),
                    dict(timeout_s=-1.0)):
            with pytest.raises(ExecError):
                run_sharded(echo_run, plan_shards(10, shards=2), **bad)
