"""Tests of the benchmark harness itself (not collected by tier-1).

Run with ``python3 -m pytest perfbench/test_run_bench.py -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run_bench  # noqa: E402
from spans import Patcher, Recorder, Span, analyze  # noqa: E402
from speed import REFERENCE_S, HostSpeed  # noqa: E402

run_bench._require_source()

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads(run_bench.BENCHMARK_JSON.read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- percentiles ----------------------------------------------------------------


def test_tail_quantile_keeps_ten_samples_beyond():
    assert run_bench.tail_quantile(2000) == 0.99
    assert run_bench.tail_quantile(902) == 0.99
    assert run_bench.tail_quantile(901) == 0.9
    assert run_bench.tail_quantile(92) == 0.9
    assert run_bench.tail_quantile(91) == 0.75
    assert run_bench.tail_quantile(38) == 0.75
    assert run_bench.tail_quantile(37) == 1.0
    for samples in range(2, 3000):
        q = run_bench.tail_quantile(samples)
        values = [float(i) for i in range(samples)]
        tail = run_bench.percentile(values, q)
        if q < 1.0:
            assert run_bench.beyond(values, tail) >= 10
        else:
            assert tail == max(values)
            assert run_bench.beyond(values, run_bench.percentile(
                values, 0.75)) < 10


def test_percentile_interpolates_and_quartiles_match_statistics():
    assert run_bench.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert run_bench.percentile([5.0], 0.99) == 5.0
    assert run_bench.percentile([3.0, 1.0, 2.0], 1.0) == 3.0
    summary = run_bench.summarize([1.0, 2.0, 3.0, 4.0, 10.0])
    assert summary["median"] == 3.0
    assert summary["spread"] == pytest.approx(
        (summary["q3"] - summary["q1"]) / 3.0)


# -- host speed -------------------------------------------------------------------


def test_host_speed_converts_durations_to_reference_seconds():
    speed = HostSpeed()
    assert speed.seconds(0.0, 2.0) == 2.0          # nothing sampled yet
    # A host at half the reference speed for five seconds, then at it.
    for tick in range(100):
        speed.record(tick * 0.1, REFERENCE_S * (2.0 if tick < 50 else 1.0))
    assert speed.seconds(1.0, 3.0) == pytest.approx(1.0)
    assert speed.seconds(7.0, 7.004) == pytest.approx(0.004)
    assert speed.seconds(20.0, 21.0) == pytest.approx(1.0)  # nearest
    speed.record(10.0, 0.0)                    # a clock glitch is dropped
    assert speed.overall() == pytest.approx(0.75)


def test_host_speed_samples_until_stopped():
    speed = HostSpeed().start()
    time.sleep(0.3)
    speed.stop()
    assert not speed._thread.is_alive()
    assert 0.05 < speed.overall() < 20


# -- self time ----------------------------------------------------------------------


def _span(name, start, end, thread, op=None, parent=None, root=False):
    span = Span(name, start, thread, op, parent, root)
    span.end = end
    return span


def test_self_time_subtracts_overlapping_children_from_two_threads():
    root = _span("op", 0, 100, thread=1, op=7, root=True)
    a = _span("a", 10, 60, thread=1, parent=root)
    a.agg_ns = 5                    # a timed callback inside ``a``
    # Outermost spans on two other threads, correlated to op 7: ``b``
    # starts inside ``a`` and outlives it; ``c`` starts inside ``b``.
    b = _span("b", 40, 90, thread=2, op=7)
    c = _span("c", 50, 70, thread=3, op=7)
    result = analyze([root, a, b, c], {"cb": (5, 3)})
    assert result.layers["a"] == (pytest.approx(25e-9), 1)  # 50-20-5
    assert result.layers["b"] == (pytest.approx(30e-9), 1)  # 50-20
    assert result.layers["c"] == (pytest.approx(20e-9), 1)
    assert result.layers["cb"] == (pytest.approx(5e-9), 3)
    # [10, 90] is covered by the op's spans, b's overhang included.
    assert result.op_wall_s == pytest.approx(100e-9)
    assert result.unattributed_s == pytest.approx(20e-9)
    assert result.attributed == pytest.approx(0.8)


def test_recorder_parents_a_worker_thread_span_to_the_waiting_span():
    recorder = Recorder()

    def work():
        with recorder.span("work"):
            time.sleep(0.05)

    with recorder.op(1):
        with recorder.span("wait"):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=5)
    assert not worker.is_alive()
    result = analyze(recorder.spans)
    assert result.layers["work"][0] >= 0.045
    # The waiting span's self time excludes the worker's span.
    assert result.layers["wait"][0] < 0.02
    assert result.attributed > 0.99


def test_timed_callbacks_are_summed_and_charged_to_the_open_span():
    recorder = Recorder()
    callback = recorder.timed(lambda: time.sleep(0.01), "cb")
    with recorder.op(1):
        with recorder.span("outer"):
            for _ in range(3):
                callback()
    result = analyze(recorder.spans, recorder.timer_totals())
    seconds, calls = result.layers["cb"]
    assert calls == 3 and seconds >= 0.03
    assert result.layers["outer"][0] < 0.01
    with recorder.paused():
        callback()
    assert recorder.timer_totals()["cb"][1] == 3


def test_patcher_restores_module_class_and_instance_attributes():
    module = types.ModuleType("fake")
    module.fn = lambda: "module"

    class Base:
        def inherited(self):
            return "base"

    class Child(Base):
        def own(self):
            return "own"

    instance = Child()
    instance.callback = lambda: "instance"
    patcher = Patcher()
    for owner, attribute in ((module, "fn"), (Child, "own"),
                             (Child, "inherited"), (instance, "callback")):
        patcher.patch(owner, attribute, lambda fn: (lambda *a: "patched"))
    assert module.fn() == Child().own() == Child().inherited() \
        == instance.callback() == "patched"
    patcher.restore()
    assert module.fn() == "module"
    assert Child().own() == "own"
    assert "inherited" not in vars(Child)
    assert Child().inherited() == "base"
    assert instance.callback() == "instance"


# -- bounds and verdicts -----------------------------------------------------------


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_verdict_uses_the_bound_and_the_spread():
    verdict = run_bench.verdict
    assert verdict(BASE, [v * 1.02 for v in BASE], "lower", 0.1) \
        == "unchanged"
    assert verdict(BASE, [v * 1.2 for v in BASE], "lower", 0.1) \
        == "regressed"
    assert verdict(BASE, [v * 1.2 for v in BASE], "higher", 0.1) \
        == "improved"
    assert verdict(BASE, [v * 0.8 for v in BASE], "lower", 0.1) \
        == "improved"
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0]
    assert verdict(BASE, wide, "lower", 0.1) == "unresolved"
    # Wider than the bound, but every head run beats every base run.
    assert verdict(BASE, [40.0, 60.0, 45.0, 55.0], "lower", 0.1) \
        == "improved"


def _set_file(path: Path, factor: float) -> Path:
    runs = [{"workload": "w", "seed": seed, "trace": 0, "exit": 0,
             "result": {"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {name: {"value": value * factor,
                                           "unit": unit}
                                    for name, unit in run_bench.END_TO_END}}}
            for seed, value in enumerate(BASE)]
    payload = {"seconds": 10, "smoke": False, "runs": runs,
               "summary": run_bench.summarize_runs(runs)}
    path.write_text(json.dumps(payload))
    return path


def test_compare_reports_regressions_against_benchmark_bounds(tmp_path,
                                                              capsys):
    base = _set_file(tmp_path / "base.json", 1.0)
    assert run_bench.compare(base, _set_file(tmp_path / "same.json", 1.01)) \
        == 0
    assert run_bench.compare(base, _set_file(tmp_path / "slow.json", 1.5)) \
        == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "unchanged" in out


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run_bench.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) \
        and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == run_bench.END_TO_END
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == layers.per_layer_metrics()
    every = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    assert len({m["name"] for m in every}) == len(every)
    for metric in every:
        assert NAME.match(metric["name"]), metric["name"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric["unit"]
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("lower", "higher")
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert len(run_bench.BENCHMARK_JSON.read_bytes()) <= 64 * 1024


# -- the workloads end to end, at smoke scale --------------------------------------


def _declared(trace: int):
    return {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace,
                                                      tmp_path):
    process = subprocess.run(
        [sys.executable, str(HERE / "run_bench.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)
    assert process.returncode == 0, process.stderr[-2000:]
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == _declared(trace)
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace:
        assert (tmp_path / f"{workload}-seed3.json").is_file()
        assert result["metrics"]["op.attributed"]["value"] >= 0.9
    else:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_a_broken_output_is_a_failed_run(monkeypatch, capsys):
    """An ECO placement that moves frozen cells must fail the run."""
    import repro.fabric.eco as eco

    original = eco.eco_place

    def drifting(netlist, device, base, changed_cells, **kwargs):
        result = original(netlist, device, base, changed_cells, **kwargs)
        frozen = sorted(name for name, cell in netlist.cells.items()
                        if cell.kind == "LUT4" and name not in changed_cells
                        and name in base.locations)
        first, second = frozen[0], frozen[-1]
        locations = result.locations
        locations[first], locations[second] = \
            locations[second], locations[first]
        return result

    monkeypatch.setattr(eco, "eco_place", drifting)
    code = run_bench.main(["--workload", "eco_edits", "--seed", "1",
                           "--seconds", "0.5", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory with only BENCHMARK.json and perfbench/ has no program:
    the command must fail without printing a result."""
    shutil.copy(run_bench.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  "traces"))
    process = subprocess.run(
        ["python3", "perfbench/run_bench.py", "--workload", "hls_dse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert process.returncode != 0
    assert "{" not in process.stdout
