"""Processes sharing one cache directory keep every entry and counter.

Forked writers put and read back distinct keys on one ``DiskStore``
directory at the same time; a fresh store must then serve all of them
and report every store.  A writer killed with SIGKILL mid-loop must
leave only whole files behind.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.cache import DiskStore

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
pytestmark = pytest.mark.skipif(not HAS_FORK,
                                reason="the writers are forked processes")
CONTEXT = multiprocessing.get_context("fork") if HAS_FORK else None

WRITERS = 4
KEYS = 25


def payload(writer, index):
    return {"writer": writer, "index": index, "pad": "x" * 64}


def put_then_get(directory, writer, start):
    store = DiskStore(directory)
    start.wait()
    for index in range(KEYS):
        key = f"w{writer}-{index:02d}"
        store.put(key, payload(writer, index), layer="radhard")
        assert store.get(key, "radhard") == payload(writer, index)


def write_forever(directory):
    store = DiskStore(directory)
    for index in range(10 ** 6):
        store.put(f"k{index:06d}", {"index": index, "pad": "y" * 4096},
                  layer="radhard")
        store.get(f"k{index // 2:06d}", "radhard")


def test_forked_writers_share_one_directory(tmp_path):
    directory = tmp_path / "cache"
    start = CONTEXT.Barrier(WRITERS)
    writers = [CONTEXT.Process(target=put_then_get,
                               args=(directory, writer, start))
               for writer in range(WRITERS)]
    for process in writers:
        process.start()
    for process in writers:
        process.join(timeout=60)
    assert [process.exitcode for process in writers] == [0] * WRITERS

    store = DiskStore(directory)
    for writer in range(WRITERS):
        for index in range(KEYS):
            assert store.get(f"w{writer}-{index:02d}", "radhard") \
                == payload(writer, index)
    assert store.entry_count() == WRITERS * KEYS
    counters = store.stats()["radhard"]
    assert counters["stores"] == WRITERS * KEYS
    assert counters["hits"] >= WRITERS * KEYS


def test_killed_writer_leaves_only_whole_files(tmp_path):
    directory = tmp_path / "cache"
    writer = CONTEXT.Process(target=write_forever, args=(directory,))
    writer.start()
    objects = directory / "objects"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and (
            not objects.is_dir() or len(list(objects.glob("*.json"))) < 20):
        time.sleep(0.01)
    os.kill(writer.pid, signal.SIGKILL)
    writer.join(timeout=30)
    assert writer.exitcode == -signal.SIGKILL

    written = sorted(objects.glob("*.json"))
    assert len(written) >= 20
    for path in written:
        assert isinstance(json.loads(path.read_text()), dict)
    stats_path = directory / "stats.json"
    if stats_path.exists():
        json.loads(stats_path.read_text())
    store = DiskStore(directory)
    assert store.gc() == 0
    assert store.entry_count() == len(written)
