"""Telemetry determinism across job counts and backends.

The hard rule of the telemetry layer: the same workload with the same
seed yields a byte-identical trace export at any ``--jobs`` count.  These
tests exercise the two parallel producers (SEU campaigns over the exec
engine and a Eucalyptus sweep) at jobs=1 vs jobs=4.
"""

from repro.fabric import NG_ULTRA, scaled_device
from repro.hls.characterization.eucalyptus import Eucalyptus
from repro.radhard import memory_scenarios
from repro.telemetry import Tracer, to_chrome, to_jsonl


def seu_trace(jobs):
    tracer = Tracer()
    for campaign in memory_scenarios(words=32):
        campaign.run(50, seed=13, jobs=jobs, shard_size=10, tracer=tracer)
    return tracer


def sweep_trace(jobs):
    device = scaled_device(NG_ULTRA, "NG-ULTRA-test", 4096)
    tool = Eucalyptus(device=device, effort=0.2, tracer=Tracer())
    tool.sweep(components=["addsub"], widths=(8, 16), jobs=jobs)
    return tool.tracer


class TestParallelEquivalence:
    def test_seu_jsonl_identical_at_any_job_count(self):
        assert to_jsonl(seu_trace(1)) == to_jsonl(seu_trace(4))

    def test_seu_chrome_identical_at_any_job_count(self):
        assert to_chrome(seu_trace(1)) == to_chrome(seu_trace(4))

    def test_sweep_jsonl_identical_at_any_job_count(self):
        assert to_jsonl(sweep_trace(1)) == to_jsonl(sweep_trace(4))

    def test_seu_trace_content(self):
        tracer = seu_trace(2)
        campaigns = [s for s in tracer.spans_in("mega")
                     if s.name.startswith("mega:")]
        assert len(campaigns) == len(memory_scenarios(words=32))
        # Campaign timelines tile consecutively on the shared run index.
        for earlier, later in zip(campaigns, campaigns[1:]):
            assert later.start == earlier.end
        shards = [s for s in tracer.spans_in("mega")
                  if s.name.startswith("shard:")]
        assert len(shards) == 5 * len(campaigns)
        assert tracer.counters["mega.runs"].value == 50 * len(campaigns)
        # No per-run spans: each run's outcome is in the report.
        assert not tracer.spans_in("radhard")
        mitigated = tracer.counters["radhard.mitigated"].value
        corrected = tracer.counters.get("mega.corrected")
        detected = tracer.counters.get("mega.detected")
        assert mitigated == (corrected.value if corrected else 0) + \
            (detected.value if detected else 0)
