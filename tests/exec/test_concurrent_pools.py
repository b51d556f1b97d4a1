"""Concurrent process-backend maps never see each other's task function.

The fork backend hands each pool's task closure to its own workers.  Two
callers dispatching at once (the job service running two jobs) must each
get back only their own results from the sharded dispatcher, whether
their plans run one task per shard or many.
"""

import multiprocessing
import threading

import pytest

from repro.exec import plan_shards, run_sharded

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend needs the fork start method")

RUNS = 40
MAPS_PER_CALLER = 5


def sharded_map(tag, shard_size):
    shards = run_sharded(lambda index, run_seed: tag,
                         plan_shards(RUNS, shard_size=shard_size), seed=1,
                         jobs=2, backend="process")
    return [result.value for shard in shards for result in shard.results]


def test_concurrent_process_maps_keep_their_own_payload():
    callers = [("single-a", 1), ("single-b", 1),
               ("sharded-a", 5), ("sharded-b", 5)]
    barrier = threading.Barrier(len(callers))
    seen = {tag: [] for tag, _ in callers}
    errors = []

    def caller(tag, shard_size):
        try:
            for _ in range(MAPS_PER_CALLER):
                barrier.wait(timeout=60)
                seen[tag].append(sharded_map(tag, shard_size))
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(f"{tag}: {type(error).__name__}: {error}")
            barrier.abort()

    threads = [threading.Thread(target=caller, args=entry)
               for entry in callers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    for tag, maps in seen.items():
        assert len(maps) == MAPS_PER_CALLER, tag
        for values in maps:
            assert values == [tag] * RUNS, (tag, sorted(set(values)))
