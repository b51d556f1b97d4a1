"""Tests for the command-line interface."""

import hashlib
import json

import pytest

from repro.api import ExitCode
from repro.cli import main

from .test_cli_identity import KERNEL as WAVG


class TestCliHls:
    def test_hls_report_and_rtl(self, tmp_path, capsys):
        source = tmp_path / "kernel.c"
        source.write_text(
            "int triple(int x) { return x * 3; }\n")
        out_dir = tmp_path / "rtl"
        code = main(["hls", str(source), "--top", "triple",
                     "--out", str(out_dir)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "function triple" in captured
        assert (out_dir / "triple.v").exists()
        assert "module triple" in (out_dir / "triple.v").read_text()

    def test_cosim_flag_is_gone(self, tmp_path):
        source = tmp_path / "kernel.c"
        source.write_text("int f(int x) { return x; }\n")
        with pytest.raises(SystemExit):
            main(["hls", str(source), "--top", "f", "--cosim"])

    def test_hls_opt_levels(self, tmp_path, capsys):
        source = tmp_path / "kernel.c"
        source.write_text("int f(int x) { return x + 0 + 3 * 4; }\n")
        for opt in (0, 3):
            assert main(["hls", str(source), "--top", "f",
                         "--opt", str(opt)]) == 0


class TestCliCharacterize:
    def test_xml_to_stdout(self, capsys):
        code = main(["characterize", "--components", "logic",
                     "--widths", "8", "--effort", "0.1"])
        assert code == 0
        assert "component_library" in capsys.readouterr().out

    def test_xml_to_file(self, tmp_path):
        out = tmp_path / "lib.xml"
        code = main(["characterize", "--components", "addsub",
                     "--widths", "8,16", "--effort", "0.1",
                     "--out", str(out)])
        assert code == 0
        from repro.hls.characterization import ComponentLibrary
        library = ComponentLibrary.from_xml(out.read_text())
        assert library.lookup("addsub", 8).luts > 0

    def test_stdout_xml_is_the_same_at_any_job_count(self, capsys):
        # Regression: --jobs 2 printed a wall-clock sweep line to stdout
        # ahead of the XML, so the library no longer parsed.
        outputs = []
        for jobs in ("1", "2"):
            assert main(["characterize", "--components", "addsub,logic",
                         "--widths", "8", "--effort", "0.1",
                         "--grid-luts", "1024", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1]
        from repro.hls.characterization import ComponentLibrary
        library = ComponentLibrary.from_xml(outputs[1].decode())
        assert library.lookup("addsub", 8).luts > 0


class TestCliBoot:
    def test_boot_nominal(self, capsys):
        assert main(["boot"]) == 0
        captured = capsys.readouterr().out
        assert "BL0 boot report" in captured
        assert "BL1 boot report" in captured

    def test_boot_tmr(self, capsys):
        assert main(["boot", "--copies", "3",
                     "--redundancy", "tmr"]) == 0


class TestCliMission:
    def test_mission_nominal(self, capsys):
        assert main(["mission", "--frames", "5"]) == 0
        assert "XtratuM schedule report" in capsys.readouterr().out

    def test_mission_with_faults(self, capsys):
        assert main(["mission", "--frames", "6",
                     "--inject-faults"]) == 0


class TestCliQualify:
    def test_qualify_reaches_trl6_with_complete_datapack(self, capsys):
        import sys

        path = list(sys.path)
        assert main(["qualify"]) == 0
        out = capsys.readouterr().out
        assert "TRL 6; datapack complete: True" in out
        assert "note: TRL achieved: 6" in out
        # The campaign ships in the package: nothing is put on the path.
        assert sys.path == path


# sha256 of the traces the removed ``repro trace boot|mission --out``
# scenarios wrote (JSON-lines, plus boot in Chrome format), taken before
# the scenarios were removed; the commands that do the same work must
# reproduce them byte for byte.  The SEU trace (shard spans, outcome
# counters, mitigation tally) must be the same at any job count, so
# its four shards are also spread over four workers.
SEU_TRACE = ["seu", "--runs", "60", "--words", "32", "--shard-size", "15"]
SCENARIO_TRACES = [
    (SEU_TRACE, "json",
     "a2bc054defd577b56f772584fb635ef99e8a7386d766ca33d070b471d90dc96b"),
    (SEU_TRACE + ["--jobs", "4"], "json",
     "a2bc054defd577b56f772584fb635ef99e8a7386d766ca33d070b471d90dc96b"),
    (["mission", "--frames", "20"], "json",
     "e6f89b0577ccf38e3d1a79fac6b6a5406827563c8fb6c67e82feca8e3e3f35b3"),
    (["boot", "--engine", "interp"], "json",
     "6c8d1e00c317a801657e622f80885e8ec2a8c9b1fbc92426ff4df6609c0c5bac"),
    (["boot", "--engine", "interp"], "chrome",
     "af23d420368ae2d09388d4229fd43dbef54f28cd696e90de9c149f7753adfa34"),
]


class TestCliTrace:
    @pytest.mark.parametrize(
        "argv, trace_format, digest", SCENARIO_TRACES,
        ids=["seu", "seu-jobs4", "mission", "boot", "boot-chrome"])
    def test_command_reproduces_scenario_trace(
            self, tmp_path, argv, trace_format, digest, capsys):
        out = tmp_path / "trace"
        assert main(argv + ["--trace", str(out),
                            "--trace-format", trace_format]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_boot_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["boot", "--trace", str(out),
                     "--trace-format", "chrome"]) == 0
        document = json.loads(out.read_text())
        phases = {e["ph"] for e in document["traceEvents"]}
        assert "X" in phases and "M" in phases

    def test_mission_trace_jsonl_meta(self, tmp_path, capsys):
        out = tmp_path / "mission.jsonl"
        assert main(["mission", "--frames", "20", "--trace", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        meta = json.loads(lines[0])
        assert meta["type"] == "meta" and meta["spans"] > 0

    def test_hls_trace_has_hls_spans(self, tmp_path, capsys):
        source = tmp_path / "wavg.c"
        source.write_text(WAVG)
        out = tmp_path / "hls.jsonl"
        assert main(["hls", str(source), "--top", "wavg", "--clock", "5",
                     "--trace", str(out)]) == 0
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        assert spans and all(r["cat"] == "hls" for r in spans)
        assert {"frontend", "schedule", "bind"} <= \
            {r["name"] for r in spans}

    def test_trace_option_on_boot_command(self, tmp_path, capsys):
        out = tmp_path / "boot.jsonl"
        assert main(["boot", "--trace", str(out)]) == 0
        assert '"cat":"boot"' in out.read_text()

    def test_trace_option_on_seu_command(self, tmp_path, capsys):
        out = tmp_path / "seu.json"
        assert main(["seu", "--runs", "20", "--words", "16",
                     "--trace", str(out),
                     "--trace-format", "chrome"]) == 0
        assert '"ph": "X"' in out.read_text()

    @pytest.mark.parametrize("argv", [["trace", "seu"],
                                      ["trace", "warp-drive"]],
                             ids=["old-scenario", "unknown-scenario"])
    def test_trace_subcommand_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)


class TestCliCache:
    def test_seu_cold_then_warm_json_identical(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        args = ["seu", "--runs", "30", "--words", "16",
                "--cache-dir", str(cache_dir)]
        assert main(args + ["--json", str(cold)]) == 0
        assert main(args + ["--json", str(warm)]) == 0
        assert cold.read_bytes() == warm.read_bytes()
        err = capsys.readouterr().err
        assert "cache:" in err and "hit" in err
        # The plan does not depend on --jobs, so a warm run at another
        # job count is served whole from the cold run's checkpoints.
        assert main(args + ["--jobs", "2", "--json", str(warm)]) == 0
        assert cold.read_bytes() == warm.read_bytes()
        summaries = [line for line in capsys.readouterr().err.splitlines()
                     if line.startswith("mega: ")]
        assert len(summaries) == 3
        assert all("(1 cached, 0 computed)" in line for line in summaries)

    def test_characterize_cold_then_warm_identical(self, tmp_path,
                                                   capsys):
        cache_dir = tmp_path / "cache"
        args = ["characterize", "--components", "addsub",
                "--widths", "8", "--effort", "0.1",
                "--cache-dir", str(cache_dir)]
        cold_out = tmp_path / "cold.xml"
        warm_out = tmp_path / "warm.xml"
        cold_json = tmp_path / "cold.json"
        warm_json = tmp_path / "warm.json"
        assert main(args + ["--out", str(cold_out),
                            "--json", str(cold_json)]) == 0
        assert main(args + ["--out", str(warm_out),
                            "--json", str(warm_json)]) == 0
        assert cold_out.read_bytes() == warm_out.read_bytes()
        assert cold_json.read_bytes() == warm_json.read_bytes()

    def test_cache_stats_clear_gc(self, tmp_path, capsys):
        import json
        cache_dir = tmp_path / "cache"
        assert main(["seu", "--runs", "20", "--words", "16",
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(cache_dir)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0
        assert stats["layers"]["mega"]["stores"] > 0
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert main(["cache", "clear", "--cache-dir",
                     str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(cache_dir)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0

    def test_no_cache_is_the_default(self, tmp_path, capsys):
        assert main(["seu", "--runs", "20", "--words", "16"]) == 0
        assert "cache:" not in capsys.readouterr().err

    def test_hls_cache_flag(self, tmp_path, capsys):
        source = tmp_path / "kernel.c"
        source.write_text("int triple(int x) { return x * 3; }\n")
        assert main(["hls", str(source), "--top", "triple",
                     "--cache"]) == 0


class TestCliParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCliLint:
    def test_examples_lint_clean(self, capsys):
        assert main(["lint", "--examples"]) == 0
        captured = capsys.readouterr().out
        assert "0 error(s)" in captured
        assert "4 target(s)" in captured

    def test_json_format(self, capsys):
        import json
        assert main(["lint", "--examples", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tool"] == "repro-lint"
        assert data["summary"]["error"] == 0

    def test_defective_source_fails(self, tmp_path, capsys):
        source = tmp_path / "bad.c"
        source.write_text("int f(int x) { int y; return y; }\n")
        assert main(["lint", str(source)]) == 1
        assert "use-before-def" in capsys.readouterr().out

    def test_fail_on_never_always_succeeds(self, tmp_path, capsys):
        source = tmp_path / "bad.c"
        source.write_text("int f(int x) { int y; return y; }\n")
        assert main(["lint", str(source), "--fail-on", "never"]) == 0

    def test_rule_selection(self, tmp_path, capsys):
        source = tmp_path / "bad.c"
        source.write_text("int f(int x) { int y; return y; }\n")
        assert main(["lint", str(source), "--rules",
                     "ir.unreachable-block"]) == 0

    def test_unknown_rule_pattern(self, capsys):
        assert main(["lint", "--examples", "--rules", "nope.*"]) == 2
        assert "no rule matches" in capsys.readouterr().err

    def test_nothing_to_lint(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_unknown_suffix(self, tmp_path, capsys):
        target = tmp_path / "design.vhdl"
        target.write_text("entity e is end;")
        assert main(["lint", str(target)]) == 2
        assert "unknown lint input" in capsys.readouterr().err

    def test_baseline_roundtrip(self, tmp_path, capsys):
        source = tmp_path / "bad.c"
        source.write_text("int f(int x) { int y; return y; }\n")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(source), "--write-baseline",
                     str(baseline), "--fail-on", "never"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["lint", str(source), "--baseline",
                     str(baseline)]) == 0
        assert "suppressed by baseline" in capsys.readouterr().out


class TestCliSeuPlan:
    def test_stop_ci_payload_is_the_same_at_any_job_count(self, tmp_path,
                                                          capsys):
        # Regression: the default plan was jobs * 4 shards, so the
        # early-stop point (and the payload) moved with --jobs.
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.json"
            assert main(["seu", "--runs", "3000", "--words", "16",
                         "--stop-ci", "0.02", "--jobs", jobs,
                         "--json-deterministic", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestCliExitCodes:
    """One row per verdict of each job command; the same verdicts are
    pinned for the job API in ``tests/service/test_api.py``."""

    SEU = ["seu", "--runs", "40", "--words", "16"]
    MISSED_CI = ["--shards", "2", "--stop-ci", "0.000001"]

    @pytest.mark.parametrize("extra, crash, expected", [
        ([], False, ExitCode.OK),
        ([], True, ExitCode.FAILURE),
        (["--resume"], False, ExitCode.USAGE),
        (MISSED_CI, False, ExitCode.INSUFFICIENT_EVIDENCE),
        # A crash outranks a missed CI target.
        (MISSED_CI, True, ExitCode.FAILURE),
        (["--shard-size", "10"], True, ExitCode.FAILURE),
    ], ids=["ok", "crash", "resume-without-cache", "missed-ci",
            "crash-and-missed-ci", "sharded-crash"])
    def test_seu(self, request, extra, crash, expected, capsys):
        if crash:
            request.getfixturevalue("crashing_sram")
        assert main(self.SEU + extra) == expected

    @pytest.mark.parametrize("flag, value", [
        ("--timeout", "0"), ("--timeout", "-1"), ("--retries", "-1"),
        ("--jobs", "-1")])
    def test_seu_invalid_run_envelope_is_usage(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.SEU + [flag, value])
        assert exit_info.value.code == ExitCode.USAGE
        assert f"argument {flag}" in capsys.readouterr().err

    HLS_OK = "int f(int x) { return x * 3; }\n"

    @pytest.mark.parametrize("text, expected", [
        (HLS_OK, ExitCode.OK),
        (None, ExitCode.USAGE),                  # no such source file
        ("int f(int x) { return x", ExitCode.FAILURE),
    ], ids=["ok", "missing-source", "parse-error"])
    def test_hls(self, tmp_path, text, expected, capsys):
        source = tmp_path / "kernel.c"
        if text is not None:
            source.write_text(text)
        assert main(["hls", str(source), "--top", "f"]) == expected
        if expected is ExitCode.FAILURE:
            # A producer exception gets the line the service gives the
            # failed job, not a traceback.
            err = capsys.readouterr().err
            assert err.startswith("error: ParseError: ")
            assert len(err.strip().splitlines()) == 1

    ECO = ["eco", "--width", "8", "--stages", "0", "--grid-luts", "1024",
           "--effort", "0.2", "--edit-fraction", "0.1"]

    def test_eco_ok(self, tmp_path, capsys):
        assert main(self.ECO + ["--report", str(tmp_path / "r.json")]) \
            == ExitCode.OK

    def test_eco_unknown_component_is_usage(self, capsys):
        assert main(self.ECO + ["--component", "nope"]) == ExitCode.USAGE
        assert "unknown component" in capsys.readouterr().err

    def test_eco_inapplicable_delta_is_usage(self, tmp_path, capsys):
        delta = tmp_path / "delta.json"
        delta.write_text(json.dumps([{"op": "remove_cell",
                                      "name": "no-such-cell"}]))
        assert main(self.ECO + ["--delta", str(delta)]) == ExitCode.USAGE

    def test_eco_failed_routing_is_failure(self, failed_eco_routing,
                                           capsys):
        assert main(self.ECO) == ExitCode.FAILURE

    @pytest.mark.parametrize("text", [None, "{bad"],
                             ids=["missing", "malformed"])
    def test_lint_bad_baseline_is_usage(self, tmp_path, text, capsys):
        source = tmp_path / "bad.c"
        source.write_text("int f(int x) { int y; return y; }\n")
        baseline = tmp_path / "baseline.json"
        if text is not None:
            baseline.write_text(text)
        assert main(["lint", str(source), "--baseline", str(baseline)]) \
            == ExitCode.USAGE
        assert capsys.readouterr().err.startswith("error: baseline ")

    CHAR = ["characterize", "--components", "logic", "--widths", "8",
            "--effort", "0.1"]

    def test_characterize_ok(self, capsys):
        assert main(self.CHAR) == ExitCode.OK

    @pytest.mark.parametrize("extra", [
        ["--components", "logic,nope"], ["--device", "NG-NOPE"]],
        ids=["unknown-component", "unknown-device"])
    def test_characterize_usage(self, extra, capsys):
        assert main(self.CHAR + extra) == ExitCode.USAGE

    def test_characterize_failed_config_is_failure(
            self, broken_characterization, capsys):
        assert main(self.CHAR) == ExitCode.FAILURE
        assert "injected synthesis fault" in capsys.readouterr().err


class TestCliSubmitCharacterize:
    def test_submit_returns_the_sweep_the_command_computes(
            self, tmp_path, capsys):
        from repro.api import submit
        from repro.cli import _characterize_spec, build_parser
        from repro.core.report import parse_report, report_json_text
        from repro.service import JobScheduler, serve_background, \
            shutdown_server

        argv = ["characterize", "--components", "addsub,logic",
                "--widths", "8", "--effort", "0.1", "--grid-luts", "1024"]
        runs = tmp_path / "runs.json"
        assert main(argv + ["--json", str(runs)]) == 0
        spec = _characterize_spec(build_parser().parse_args(argv))
        server, thread = serve_background(
            port=0, scheduler=JobScheduler(workers=1, max_queue=4))
        try:
            wire = tmp_path / "report.json"
            assert main(["submit", "characterize",
                         "--port", str(server.server_address[1]),
                         "--params", json.dumps(spec.params),
                         "--seed", str(spec.seed), "--wait",
                         "--report", str(wire)]) == 0
        finally:
            shutdown_server(server, thread)
        assert wire.read_text() == report_json_text(submit(spec).report)
        served = parse_report(wire.read_text())
        assert served.device == "NG-ULTRA-char"
        assert json.dumps([run.to_json() for run in served.runs],
                          sort_keys=True, separators=(",", ":")) \
            == runs.read_text()
