"""Parallel/serial campaign equivalence and failure handling.

Campaigns run as shards of ``DEFAULT_SHARD_SIZE`` runs unless told
otherwise; a parallel case whose run count fits one default shard gives
a ``shard_size`` that yields at least ``jobs`` shards, so its workers
really share the campaign.
"""

import time

import pytest

from repro.exec import seed_for
from repro.radhard import (
    Campaign,
    CampaignError,
    ecc_campaign,
    memory_scenarios,
    raw_sram_campaign,
    tmr_campaign,
)


def fingerprint(report):
    return [(r.run, r.outcome, r.description) for r in report.results]


class TestParallelSerialEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_backends_bit_identical(self, backend):
        reference = ecc_campaign().run(120, seed=13)
        report = ecc_campaign().run(120, seed=13, jobs=4, backend=backend,
                                    shard_size=30)
        assert report.counts == reference.counts
        assert fingerprint(report) == fingerprint(reference)

    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_job_counts_bit_identical(self, jobs):
        reference = raw_sram_campaign().run(100, seed=7)
        report = raw_sram_campaign().run(100, seed=7, jobs=jobs,
                                         shard_size=10)
        assert fingerprint(report) == fingerprint(reference)

    def test_all_scenarios_invariant_under_parallelism(self):
        for make in (raw_sram_campaign, ecc_campaign, tmr_campaign):
            serial = make().run(60, seed=3)
            parallel = make().run(60, seed=3, jobs=8, backend="thread",
                                  shard_size=6)
            assert serial.counts == parallel.counts, make.__name__
            assert fingerprint(serial) == fingerprint(parallel)

    def test_single_run_replay(self):
        # Run 57 of a big campaign can be reproduced alone: child seeds
        # do not depend on how much randomness earlier runs consumed.
        big = raw_sram_campaign().run(100, seed=5)
        lone = raw_sram_campaign()._one_run(57, seed_for(5, 57))
        assert lone == (big.results[57].outcome,
                        big.results[57].description)

    def test_different_seeds_differ(self):
        a = raw_sram_campaign().run(50, seed=1)
        b = raw_sram_campaign().run(50, seed=2)
        assert fingerprint(a) != fingerprint(b)


class TestFailurePaths:
    def test_hanging_workload_classified_crash(self):
        campaign = Campaign("hang", lambda: {}, lambda ctx, rng: "",
                            lambda ctx: time.sleep(60))
        start = time.perf_counter()
        report = campaign.run(6, seed=1, jobs=3, backend="thread",
                              shard_size=2, timeout_s=0.05, retries=1)
        assert time.perf_counter() - start < 10  # pool never wedges
        assert report.counts == {"crash": 6}
        assert report.retried_runs == 6
        for result in report.results:
            assert "exceeded" in result.description

    def test_raising_workload_classified_crash(self):
        def bad_inject(ctx, rng):
            raise RuntimeError("beam glitch")

        campaign = Campaign("raises", lambda: {}, bad_inject,
                            lambda ctx: "masked")
        report = campaign.run(4, seed=1, jobs=2, backend="process",
                              shard_size=2, retries=2)
        assert report.counts == {"crash": 4}
        assert all("beam glitch" in r.description for r in report.results)

    def test_partial_failures_keep_good_runs(self):
        def flaky_evaluate(ctx):
            if ctx["index"] % 3 == 0:
                raise RuntimeError("induced")
            return "masked"

        counter = iter(range(1000))

        def setup():
            return {"index": next(counter)}

        campaign = Campaign("partial", setup, lambda ctx, rng: "",
                            flaky_evaluate)
        report = campaign.run(9, seed=1)
        assert report.counts["crash"] == 3
        assert report.counts["masked"] == 6

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_unknown_outcome_raises_everywhere(self, backend):
        campaign = Campaign("bad", lambda: {}, lambda ctx, rng: "",
                            lambda ctx: "exploded")
        with pytest.raises(CampaignError):
            campaign.run(3, jobs=2, backend=backend, shard_size=1)


class TestReportAccounting:
    def test_timing_fields_populated(self):
        report = ecc_campaign().run(30, seed=13, jobs=2, backend="thread",
                                    shard_size=15)
        assert report.wall_s > 0
        assert report.latency.count == 30
        assert report.latency.max_s >= report.latency.p50_s > 0
        # The accounting describes the runs, not the invocation.
        assert "backend" not in report.to_json()
        assert "jobs" not in report.to_json()

    def test_progress_hook(self):
        # Progress counts folded shards, in shard order at any job count.
        updates = []
        raw_sram_campaign().run(
            40, seed=1, jobs=2, backend="thread", shard_size=10,
            progress=lambda done, total: updates.append((done, total)))
        assert updates == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_scenarios_cover_mitigation_matrix(self):
        names = [c.name for c in memory_scenarios()]
        assert names == ["unprotected SRAM", "ECC SECDED (1 upset)",
                         "TMR memory"]
