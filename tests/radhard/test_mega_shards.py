"""Shard-merge bit-identity, order invariance and the mega golden.

The mega-campaign contract under test: any execution shape — shard
count, worker count, backend, cache state, record arrival order —
produces a merged report whose ``deterministic_json()`` is byte-for-byte
the serial ``Campaign.run`` payload.  Regenerate the committed golden
after an intended behaviour change with::

    REGEN_MEGA_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/radhard/test_mega_shards.py
"""

import json
import os
import random
from pathlib import Path

import pytest

from repro.cache import FlowCache
from repro.exec import LatencyStats, plan_shards
from repro.radhard import (
    MegaCampaign,
    ShardRecord,
    ecc_campaign,
    merge_shard_records,
    raw_sram_campaign,
)

GOLDEN = Path(__file__).parent / "golden_mega_report.json"


def payload_bytes(report):
    return json.dumps(report.deterministic_json(), sort_keys=True,
                      separators=(",", ":"))


class TestShardMergeBitIdentity:
    @pytest.fixture(scope="class")
    def serial(self):
        return ecc_campaign(words=32).run(120, seed=13)

    @pytest.mark.parametrize("shards", [1, 3, 7, 16])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_merged_equals_serial(self, serial, shards, jobs):
        mega = MegaCampaign(ecc_campaign(words=32)).run(
            120, seed=13, jobs=jobs, shards=shards)
        assert payload_bytes(mega.report) == payload_bytes(serial)
        assert mega.runs_executed == 120
        assert mega.shards_folded == len(plan_shards(120, shards=shards))

    def test_latency_is_the_exact_pooled_sample_summary(self):
        mega = MegaCampaign(ecc_campaign(words=32)).run(
            120, seed=13, jobs=4, shards=7)
        samples = [s for record in mega.shards for s in record.latency_s]
        assert len(samples) == 120
        assert mega.report.latency == LatencyStats.from_samples(
            sorted(samples))
        assert mega.report.latency.count == mega.report.runs

    def test_merged_report_json_round_trip(self):
        mega = MegaCampaign(ecc_campaign(words=32)).run(
            120, seed=13, jobs=2, shards=3)
        from repro.radhard import CampaignReport
        revived = CampaignReport.from_json(
            json.loads(json.dumps(mega.report.to_json())))
        assert revived.to_json() == mega.report.to_json()

    def test_mega_report_is_jsonable(self):
        mega = MegaCampaign(ecc_campaign(words=32)).run(
            60, seed=13, shards=3)
        document = json.loads(json.dumps(mega.to_json()))
        assert document["manifest"]["shards"][0] == \
            {"index": 0, "start": 0, "count": 20}
        assert document["stats"]["trials"] == 60
        assert document["report"]["runs"] == 60


class TestMergeOrderInvariance:
    def make_records(self):
        campaign = ecc_campaign(words=32)
        mega = MegaCampaign(campaign).run(120, seed=13, shards=7)
        return mega.shards

    def test_shuffled_records_merge_byte_identically(self):
        records = self.make_records()
        reference = merge_shard_records("ecc", 1, list(records))
        for round_seed in range(3):
            shuffled = list(records)
            random.Random(round_seed).shuffle(shuffled)
            merged = merge_shard_records("ecc", 1, shuffled)
            assert json.dumps(merged.to_json(), sort_keys=True) == \
                json.dumps(reference.to_json(), sort_keys=True)

    def test_shard_record_json_round_trip(self):
        for record in self.make_records():
            revived = ShardRecord.from_json(
                json.loads(json.dumps(record.to_json())))
            assert revived.to_json() == record.to_json()
            assert revived.cached is False  # runtime flag, not persisted


class TestEmptyCampaignRegression:
    # The div-zero bug class: rate accessors on reports merged from
    # zero shards (an early stop before any fold, or runs=0).
    def test_merge_of_no_records_is_a_valid_empty_report(self):
        report = merge_shard_records("empty", 1, [])
        assert report.runs == 0
        assert report.rate("sdc") == 0.0
        assert report.failure_rate == 0.0
        assert report.mitigation_effectiveness == 1.0
        assert report.latency.count == 0
        assert "fail=0.0000" in report.summary()

    def test_zero_run_mega_campaign(self):
        mega = MegaCampaign(ecc_campaign(words=32)).run(
            0, seed=13, shards=4)
        assert mega.runs_executed == 0
        assert mega.shards_folded == 0
        assert mega.ci() == (0.0, 1.0)
        assert "0/0 runs" in mega.summary()


class TestEarlyStopDeterminism:
    def test_same_prefix_at_any_job_count(self):
        payloads = {}
        for jobs in (1, 4):
            mega = MegaCampaign(raw_sram_campaign(words=32)).run(
                2000, seed=13, jobs=jobs, shard_size=100, stop_ci=0.05)
            assert mega.early_stopped
            assert mega.runs_executed < 2000
            assert mega.reached_target
            payloads[jobs] = payload_bytes(mega.report)
        assert payloads[1] == payloads[4]

    def test_default_plan_stops_at_the_same_run_at_any_job_count(self):
        # Regression: with no plan arguments the plan was jobs * 4
        # shards, so `--stop-ci` stopped a 3 000-run campaign after
        # 1 500 runs at jobs=1 and 750 at jobs=2 under one job key.
        runs = {}
        for jobs in (1, 2):
            mega = MegaCampaign(raw_sram_campaign(words=16)).run(
                3000, seed=13, jobs=jobs, stop_ci=0.02)
            assert mega.early_stopped
            runs[jobs] = (json.dumps(mega.plan.manifest()),
                          mega.runs_executed, payload_bytes(mega.report))
        assert runs[1] == runs[2]

    def test_never_stops_on_the_first_shard(self):
        mega = MegaCampaign(raw_sram_campaign(words=32)).run(
            200, seed=13, shard_size=100, stop_ci=0.49)
        # Two shards planned; however loose the target, at least two
        # must fold before the stop rule may fire.
        assert mega.shards_folded >= 2

    def test_stopped_prefix_matches_serial_prefix(self):
        mega = MegaCampaign(raw_sram_campaign(words=32)).run(
            2000, seed=13, shard_size=100, stop_ci=0.05)
        executed = mega.runs_executed
        serial = raw_sram_campaign(words=32).run(executed, seed=13)
        assert payload_bytes(mega.report) == payload_bytes(serial)


class TestCheckpointCache:
    def test_extension_reuses_old_shards(self, tmp_path):
        cache = FlowCache(directory=tmp_path / "cache")
        first = MegaCampaign(ecc_campaign(words=32), cache=cache).run(
            80, seed=13, shard_size=20)
        assert first.shards_cached == 0 and first.shards_computed == 4
        extended = MegaCampaign(ecc_campaign(words=32), cache=cache).run(
            160, seed=13, shard_size=20)
        assert extended.shards_cached == 4
        assert extended.shards_computed == 4
        assert payload_bytes(extended.report) == payload_bytes(
            ecc_campaign(words=32).run(160, seed=13))

    def test_cache_hits_do_not_mutate_prior_reports(self, tmp_path):
        # Regression: the memory tier returns stored record objects by
        # reference; marking them cached in place rewrote the
        # cached-shard accounting of the report that computed them.
        cache = FlowCache(directory=tmp_path / "cache")
        first = MegaCampaign(ecc_campaign(words=32), cache=cache).run(
            40, seed=13, shard_size=20)
        assert first.shards_cached == 0
        second = MegaCampaign(ecc_campaign(words=32), cache=cache).run(
            40, seed=13, shard_size=20)
        assert second.shards_cached == 2
        assert first.shards_cached == 0

    def test_key_binds_seed_and_scenario_params(self, tmp_path):
        cache = FlowCache(directory=tmp_path / "cache")
        runner = MegaCampaign(ecc_campaign(words=32), cache=cache)
        runner.run(40, seed=13, shard_size=20)
        # Different seed: nothing reusable.
        assert runner.run(40, seed=14, shard_size=20).shards_cached == 0
        # Different scenario shape: nothing reusable either.
        other = MegaCampaign(ecc_campaign(words=64), cache=cache)
        assert other.run(40, seed=13, shard_size=20).shards_cached == 0
        # The original invocation: everything reusable.
        assert runner.run(40, seed=13, shard_size=20).shards_cached == 2


class TestMegaGolden:
    def test_deterministic_payload_matches_golden(self):
        mega = MegaCampaign(ecc_campaign(words=32)).run(
            240, seed=13, jobs=2, shard_size=40)
        rendered = json.dumps(mega.report.deterministic_json(),
                              sort_keys=True, indent=2) + "\n"
        if os.environ.get("REGEN_MEGA_GOLDEN"):
            GOLDEN.write_text(rendered)
        assert GOLDEN.exists(), \
            f"golden {GOLDEN} missing; regenerate with REGEN_MEGA_GOLDEN=1"
        assert rendered == GOLDEN.read_text(), (
            "mega report drifted from golden_mega_report.json — if the "
            "change is intended, regenerate with REGEN_MEGA_GOLDEN=1")
