"""The ``eco`` job kind through the multi-tenant service.

The interactive contract: a second identical edit submission is a warm
cache hit served without recomputation, and its wire report is
byte-identical to the first — across tenants, like every other kind.
"""

import pytest

from repro.api import ExitCode, JobSpec
from repro.core.report import parse_report
from repro.fabric import random_delta, synthesize_component
from repro.service import JobScheduler, JobState


@pytest.fixture
def scheduler():
    instance = JobScheduler(workers=4, max_queue=32).start()
    yield instance
    instance.stop()


def eco_spec(tenant="alice"):
    netlist = synthesize_component("addsub", 16, 2)
    delta = random_delta(netlist, 0.1, seed=3)
    return JobSpec(kind="eco", tenant=tenant, seed=1, params={
        "component": "addsub", "width": 16, "stages": 2,
        "device": "NG-ULTRA", "grid_luts": 4096,
        "delta": delta.canonical(), "target_clock_ns": 10.0,
        "effort": 1.0, "channel_width": 8})


class TestEcoService:
    def test_second_identical_submission_is_warm_hit(self, scheduler):
        first = scheduler.submit(eco_spec())
        assert first.done.wait(timeout=60.0)
        assert first.state is JobState.SUCCEEDED
        assert first.exit_code == ExitCode.OK

        again = scheduler.submit(eco_spec(tenant="bob"))
        assert again.done.is_set()            # served synchronously
        assert again.cache_hit
        assert again.report_text == first.report_text
        assert scheduler.counts["warm_hits"] == 1
        assert scheduler.counts["computed"] == 1

    def test_report_revives_as_eco_report(self, scheduler):
        record = scheduler.submit(eco_spec())
        assert record.done.wait(timeout=60.0)
        report = parse_report(record.report_text)
        assert report.eco["cells_frozen"] > 0
        assert report.delta_fingerprint
        assert report.flow.routing.failed_connections == 0

    def test_malformed_delta_is_a_spec_error(self, scheduler):
        spec = eco_spec()
        spec.params["delta"] = [{"op": "teleport_cell"}]
        record = scheduler.submit(spec)
        assert record.done.wait(timeout=60.0)
        assert record.state is JobState.FAILED
        assert "delta" in (record.error or "")

    def test_progress_brackets_the_edit(self, scheduler):
        # The base is prepared before (1, 2) and the edit done at
        # (2, 2): the CLI times the edit between the two.
        record = scheduler.submit(eco_spec())
        assert record.done.wait(timeout=60.0)
        progress = [(event["completed"], event["total"])
                    for event in record.events
                    if event["event"] == "progress"]
        assert progress == [(1, 2), (2, 2)]


class TestUnknownComponentIsUsage:
    """A component the synthesis library lacks is a usage error (exit 2)
    for every kind that names one, as it is for the CLI."""

    @pytest.mark.parametrize("kind, params", [
        ("flow", {"component": "nope", "grid_luts": 1024}),
        ("eco", {"component": "nope", "grid_luts": 1024, "delta": []}),
        ("characterize", {"components": ["logic", "nope"],
                          "widths": [8], "grid_luts": 1024}),
    ], ids=["flow", "eco", "characterize"])
    def test_service_job_exits_usage(self, scheduler, kind, params):
        record = scheduler.submit(JobSpec(kind=kind, params=params))
        assert record.done.wait(timeout=60.0)
        assert record.state is JobState.FAILED
        assert record.exit_code is ExitCode.USAGE
        assert "unknown component" in record.error
