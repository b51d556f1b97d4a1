"""The unified job API: JobSpec, submit(), ExitCode, versioned reports."""

import json

import pytest

from repro.api import (
    ExitCode,
    HlsJobReport,
    JobSpec,
    JobSpecError,
    eco_base_netlist,
    http_status,
    job_kinds,
    submit,
)
from repro.cache import FlowCache, content_key
from repro.core import (
    SCHEMA_VERSION,
    GenericReport,
    Report,
    ReportSchemaError,
    parse_report,
    report_json_text,
    report_kind,
    registered_kinds,
)
from repro.fabric import random_delta
from repro.service import JobScheduler, JobState

SOURCE = """
int scale(int x) { return (x * 3) >> 1; }
"""


# -- JobSpec ----------------------------------------------------------------

class TestJobSpec:
    def test_content_key_ignores_scheduling_metadata(self):
        base = JobSpec(kind="seu", params={"scenario": "ecc", "runs": 10})
        other = JobSpec(kind="seu", params={"scenario": "ecc", "runs": 10},
                        priority=9, tenant="someone-else")
        assert base.content_key() == other.content_key()

    def test_content_key_covers_kind_params_seed(self):
        base = JobSpec(kind="seu", params={"runs": 10})
        assert base.content_key() != \
            JobSpec(kind="mega", params={"runs": 10}).content_key()
        assert base.content_key() != \
            JobSpec(kind="seu", params={"runs": 11}).content_key()
        assert base.content_key() != \
            JobSpec(kind="seu", params={"runs": 10},
                    seed=99).content_key()

    def test_stale_campaign_entry_of_an_older_runner_misses(self):
        # A persisted service entry keyed as the campaign runner keyed
        # jobs before its version bump is never served for the spec.
        self.assert_stale_entry_misses(JobSpec(kind="seu", params={
            "scenario": "raw-sram", "runs": 5,
            "scenario_params": {"words": 16}}))

    def test_stale_eco_entry_of_an_older_runner_misses(self):
        # The eco runner's first version timed edits on a cone STA that
        # missed the delta route's overflow cascade.
        base = {"component": "addsub", "width": 8, "stages": 0,
                "grid_luts": 1024, "effort": 0.2}
        delta = random_delta(eco_base_netlist(base), 0.1, seed=3)
        self.assert_stale_entry_misses(JobSpec(
            kind="eco", params=dict(base, delta=delta.to_json())))

    @staticmethod
    def assert_stale_entry_misses(spec):
        stale_key = content_key("job", {"kind": spec.kind,
                                        "params": spec.params,
                                        "seed": spec.seed})
        assert spec.content_key() != stale_key
        cache = FlowCache()
        cache.put("service", stale_key,
                  {"exit_code": 0, "report": "stale"}, dict)
        scheduler = JobScheduler(workers=1, cache=cache).start()
        try:
            record = scheduler.submit(spec)
            assert record.done.wait(timeout=30.0)
            assert not record.cache_hit
            assert record.state is JobState.SUCCEEDED
            assert record.report_text != "stale"
        finally:
            scheduler.stop()

    def test_params_canonicalized_at_construction(self):
        spec = JobSpec(kind="seu", params={"b": 2, "a": (1, 2)})
        assert spec.params == {"a": [1, 2], "b": 2}

    def test_rejects_uncanonicalizable_params(self):
        with pytest.raises(JobSpecError):
            JobSpec(kind="seu", params={"fn": lambda: None})

    def test_rejects_bad_fields(self):
        with pytest.raises(JobSpecError):
            JobSpec(kind="")
        with pytest.raises(JobSpecError):
            JobSpec(kind="seu", tenant="")
        with pytest.raises(JobSpecError):
            JobSpec(kind="seu", seed="13")
        with pytest.raises(JobSpecError):
            JobSpec(kind="seu", priority=None)

    def test_json_round_trip(self):
        spec = JobSpec(kind="flow", params={"component": "addsub"},
                       seed=7, priority=3, tenant="alice")
        clone = JobSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.content_key() == spec.content_key()

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(JobSpecError):
            JobSpec.from_json({"kind": "seu", "nonsense": 1})
        with pytest.raises(JobSpecError):
            JobSpec.from_json({"params": {}})


# -- ExitCode ---------------------------------------------------------------

class TestExitCode:
    def test_documented_values(self):
        assert ExitCode.OK == 0
        assert ExitCode.FAILURE == 1
        assert ExitCode.USAGE == 2
        assert ExitCode.INSUFFICIENT_EVIDENCE == 4

    def test_http_mapping(self):
        assert http_status(ExitCode.OK) == 200
        assert http_status(ExitCode.FAILURE) == 422
        assert http_status(ExitCode.USAGE) == 400
        assert http_status(ExitCode.INSUFFICIENT_EVIDENCE) == 424


# -- submit() facade --------------------------------------------------------

class TestSubmit:
    def test_unknown_kind_is_spec_error(self):
        with pytest.raises(JobSpecError, match="unknown job kind"):
            submit(JobSpec(kind="definitely-not-registered"))

    def test_builtin_kinds_registered(self):
        assert set(job_kinds()) >= {"hls", "flow", "characterize",
                                    "seu", "mega"}

    def test_hls_job(self):
        result = submit(JobSpec(kind="hls", params={
            "source": SOURCE, "top": "scale"}))
        assert result.exit_code is ExitCode.OK
        assert isinstance(result.report, HlsJobReport)
        assert result.report.top == "scale"
        assert result.artifact.top == "scale"      # the live project
        assert isinstance(result.report, Report)
        assert result.key == result.spec.content_key()

    def test_seu_job_via_scenario_factory(self):
        result = submit(JobSpec(kind="seu", params={
            "scenario": "ecc", "scenario_params": {"words": 16},
            "runs": 30}, seed=5))
        assert result.report.runs == 30
        assert result.exit_code is ExitCode.OK

    def test_unknown_scenario_is_spec_error(self):
        with pytest.raises(JobSpecError, match="unknown scenario"):
            submit(JobSpec(kind="seu", params={"scenario": "nope",
                                               "runs": 5}))

    def test_missing_params_is_spec_error(self):
        with pytest.raises(JobSpecError, match="missing required"):
            submit(JobSpec(kind="hls", params={"source": SOURCE}))

    def test_hls_library_param_is_spec_error(self):
        # The content key covers ``library``; a runner that ignored it
        # would file the default library's project under another key.
        with pytest.raises(JobSpecError, match="library"):
            submit(JobSpec(kind="hls", params={
                "source": SOURCE, "top": "scale",
                "library": "not-a-real-library"}))

    @pytest.mark.parametrize("kind", ["seu", "mega"])
    def test_foreign_upsets_per_run_is_spec_error(self, kind):
        params = {"scenario": "raw-sram", "scenario_params": {"words": 8},
                  "runs": 5}
        with pytest.raises(JobSpecError, match="upset"):
            submit(JobSpec(kind=kind, params=dict(params,
                                                  upsets_per_run=3)))
        # The scenario's own value names the same computation.
        result = submit(JobSpec(kind=kind, params=dict(params,
                                                       upsets_per_run=1)))
        assert result.exit_code is not ExitCode.USAGE

    def test_result_is_report_conforming(self):
        result = submit(JobSpec(kind="seu", params={
            "scenario": "raw-sram", "scenario_params": {"words": 8},
            "runs": 5}))
        assert isinstance(result, Report)
        payload = result.to_json()
        assert payload["spec"]["kind"] == "seu"
        assert payload["report_kind"] == "seu"
        assert "seu" in result.summary()


# -- exit codes, one table per kind -------------------------------------------


def verdict(spec):
    """The exit code the job service gives ``spec``: the runner's code,
    USAGE for a JobSpecError, FAILURE for any other exception."""
    try:
        return submit(spec).exit_code
    except JobSpecError:
        return ExitCode.USAGE
    except Exception:  # noqa: BLE001 - the service's failed-job rule
        return ExitCode.FAILURE


SCENARIO = {"scenario": "raw-sram", "scenario_params": {"words": 16},
            "runs": 40}
MISSED_CI = {"shards": 2, "stop_ci": 0.000001}


class TestExitCodeTables:
    """One row per verdict of each kind; ``tests/test_cli.py`` pins the
    same verdicts for the matching ``repro`` commands."""

    @pytest.mark.parametrize("kind, params, crash, expected", [
        ("seu", SCENARIO, False, ExitCode.OK),
        ("seu", SCENARIO, True, ExitCode.FAILURE),
        ("seu", dict(SCENARIO, scenario="nope"), False, ExitCode.USAGE),
        ("mega", SCENARIO, False, ExitCode.OK),
        ("mega", SCENARIO, True, ExitCode.FAILURE),
        ("mega", dict(SCENARIO, scenario="nope"), False, ExitCode.USAGE),
        ("mega", dict(SCENARIO, **MISSED_CI), False,
         ExitCode.INSUFFICIENT_EVIDENCE),
        # A crash outranks a missed CI target.
        ("mega", dict(SCENARIO, **MISSED_CI), True, ExitCode.FAILURE),
    ], ids=["seu-ok", "seu-crash", "seu-usage", "mega-ok", "mega-crash",
            "mega-usage", "mega-missed-ci", "mega-crash-and-missed-ci"])
    def test_campaign_kinds(self, request, kind, params, crash, expected):
        if crash:
            request.getfixturevalue("crashing_sram")
        assert verdict(JobSpec(kind=kind, params=params)) is expected

    def test_crash_and_missed_ci_returned_by_submit(self, crashing_sram):
        result = submit(JobSpec(kind="mega",
                                params=dict(SCENARIO, **MISSED_CI)))
        assert not result.artifact.reached_target
        assert result.exit_code is ExitCode.FAILURE

    @pytest.mark.parametrize("params, expected", [
        ({"source": SOURCE, "top": "scale"}, ExitCode.OK),
        ({"source": SOURCE}, ExitCode.USAGE),
        ({"source": "int scale(int x) { return x", "top": "scale"},
         ExitCode.FAILURE),
    ], ids=["ok", "missing-top", "parse-error"])
    def test_hls(self, params, expected):
        assert verdict(JobSpec(kind="hls", params=params)) is expected

    ECO_BASE = {"component": "addsub", "width": 8, "stages": 0,
                "grid_luts": 1024, "effort": 0.2}

    def eco_spec(self, **params):
        from repro.api import eco_base_netlist
        from repro.fabric.eco import random_delta
        merged = dict(self.ECO_BASE, **params)
        if "delta" not in merged:
            merged["delta"] = random_delta(eco_base_netlist(self.ECO_BASE),
                                           0.1, seed=3).to_json()
        return JobSpec(kind="eco", params=merged)

    def test_eco_ok(self):
        assert verdict(self.eco_spec()) is ExitCode.OK

    def test_eco_usage(self):
        assert verdict(self.eco_spec(component="nope",
                                     delta=[])) is ExitCode.USAGE
        assert verdict(self.eco_spec(delta=[
            {"op": "remove_cell", "name": "no-such-cell"}])) \
            is ExitCode.USAGE
        # A base design too large for its device.
        assert verdict(self.eco_spec(grid_luts=2)) is ExitCode.USAGE

    def test_eco_failed_routing_is_failure(self, failed_eco_routing):
        assert verdict(self.eco_spec()) is ExitCode.FAILURE

    CHAR = {"components": ["logic"], "widths": [8], "effort": 0.1,
            "grid_luts": 1024}

    def test_characterize(self, request):
        assert verdict(JobSpec(kind="characterize", params=self.CHAR)) \
            is ExitCode.OK
        for bad in ({"components": ["logic", "nope"]},
                    {"device": "NG-NOPE"}):
            assert verdict(JobSpec(kind="characterize", params=dict(
                self.CHAR, **bad))) is ExitCode.USAGE
        request.getfixturevalue("broken_characterization")
        assert verdict(JobSpec(kind="characterize", params=self.CHAR)) \
            is ExitCode.FAILURE


# -- public entry points and the facade agree --------------------------------

class TestShimEquivalence:
    def test_synthesize_matches_facade(self):
        from repro.hls import synthesize
        direct = submit(JobSpec(kind="hls", params={
            "source": SOURCE, "top": "scale"})).report
        via_entry = HlsJobReport.from_project(synthesize(SOURCE, "scale"))
        assert report_json_text(via_entry) == report_json_text(direct)

    def test_campaign_run_matches_facade(self):
        from repro.radhard.scenarios import ecc_campaign
        entry_report = ecc_campaign(16).run(30, seed=5)
        facade_report = submit(JobSpec(kind="seu", params={
            "scenario": "ecc", "scenario_params": {"words": 16},
            "runs": 30}, seed=5)).report
        assert entry_report.deterministic_json() == \
            facade_report.deterministic_json()

    def test_shim_warm_cache_byte_identity(self):
        from repro.radhard.scenarios import tmr_campaign
        cache = FlowCache()
        cold = tmr_campaign(8).run(20, seed=3, cache=cache)
        warm = tmr_campaign(8).run(20, seed=3, cache=cache)
        assert report_json_text(cold) == report_json_text(warm)
        assert cache.hit_count("mega") == 1

    def test_mega_run_matches_facade(self):
        from repro.radhard import MegaCampaign
        from repro.radhard.scenarios import raw_sram_campaign
        entry = MegaCampaign(raw_sram_campaign(8)).run(
            40, seed=2, shard_size=10)
        facade = submit(JobSpec(kind="mega", params={
            "scenario": "raw-sram", "scenario_params": {"words": 8},
            "runs": 40, "shard_size": 10}, seed=2)).report
        assert entry.report.deterministic_json() == \
            facade.report.deterministic_json()


# -- versioned report wire format -------------------------------------------

class TestVersionedWireFormat:
    def _flow_report(self):
        from repro.fabric.device import get_device
        from repro.fabric.nxmap import NXmapProject
        from repro.fabric.synthesis import synthesize_component
        project = NXmapProject(synthesize_component("addsub", 8, 0),
                               get_device("NG-MEDIUM"))
        return project.run_all(effort=0.2)

    def test_envelope_fields(self):
        report = self._flow_report()
        envelope = json.loads(report_json_text(report))
        assert envelope["schema_version"] == SCHEMA_VERSION
        assert envelope["kind"] == "flow"
        assert envelope["payload"] == report.to_json()

    def test_parse_round_trip_byte_identical(self):
        report = self._flow_report()
        text = report_json_text(report)
        clone = parse_report(text)
        assert type(clone) is type(report)
        assert report_json_text(clone) == text

    def test_parse_accepts_bytes_and_mapping(self):
        report = self._flow_report()
        text = report_json_text(report)
        assert report_json_text(parse_report(text.encode())) == text
        assert report_json_text(parse_report(json.loads(text))) == text

    def test_report_parse_alias(self):
        import repro.core.report as report_module
        assert report_module.parse is parse_report

    def test_unknown_major_version_rejected(self):
        report = self._flow_report()
        envelope = json.loads(report_json_text(report))
        envelope["schema_version"] = "2.0"
        with pytest.raises(ReportSchemaError, match="major version"):
            parse_report(envelope)

    def test_minor_version_drift_accepted(self):
        report = self._flow_report()
        envelope = json.loads(report_json_text(report))
        envelope["schema_version"] = "1.9"
        assert report_json_text(parse_report(envelope)) == \
            report_json_text(report)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReportSchemaError, match="unknown report kind"):
            parse_report({"schema_version": SCHEMA_VERSION,
                          "kind": "martian", "payload": {}})

    def test_missing_envelope_field_rejected(self):
        with pytest.raises(ReportSchemaError, match="missing"):
            parse_report({"schema_version": SCHEMA_VERSION,
                          "payload": {}})

    def test_undecodable_text_rejected(self):
        with pytest.raises(ReportSchemaError):
            parse_report("{not json")

    def test_registry_covers_all_producers(self):
        kinds = registered_kinds()
        for kind in ("flow", "seu", "characterize", "boot", "hls",
                     "mega", "job", "characterization-run"):
            assert kind in kinds

    def test_non_decodable_kind_parses_generically(self):
        from repro.radhard import MegaCampaign
        from repro.radhard.scenarios import raw_sram_campaign
        mega = MegaCampaign(raw_sram_campaign(8)).run(
            20, seed=1, shard_size=10)
        text = report_json_text(mega)
        clone = parse_report(text)
        assert isinstance(clone, GenericReport)
        assert clone.kind == "mega"
        # Byte-preserving round trip even without a live decoder.
        assert report_json_text(clone) == text

    def test_seu_and_characterize_round_trip(self):
        from repro.hls.characterization.eucalyptus import Eucalyptus
        from repro.radhard.scenarios import ecc_campaign
        seu = ecc_campaign(8).run(10, seed=4)
        assert report_json_text(parse_report(report_json_text(seu))) \
            == report_json_text(seu)
        tool = Eucalyptus(effort=0.1)
        tool.sweep(components=["logic"], widths=[8], stages=[0])
        sweep = submit(JobSpec(kind="characterize", params={
            "effort": 0.1, "components": ["logic"], "widths": [8],
            "stages": [0]}, seed=7)).report
        assert report_json_text(parse_report(report_json_text(sweep))) \
            == report_json_text(sweep)

    def test_hls_job_report_round_trip(self):
        result = submit(JobSpec(kind="hls", params={
            "source": SOURCE, "top": "scale"}))
        text = report_json_text(result.report)
        clone = parse_report(text)
        assert isinstance(clone, HlsJobReport)
        assert report_json_text(clone) == text
        assert report_kind(clone) == "hls"
