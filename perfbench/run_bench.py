#!/usr/bin/env python3
"""The repository benchmark: one command, six workloads, every metric.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 perfbench/run_bench.py --workload NAME --seed N \\
        --seconds S --trace 0|1

prints each metric with its unit and, as the last line of standard
output, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run records layer spans and reports the per-layer metrics instead,
and writes its raw spans under ``--out`` (default
``perfbench/results/traces``).

A set of runs, each workload in a fresh process (so peak memory is per
workload and no warm state leaks between workloads)::

    python3 perfbench/run_bench.py [--workload NAME] [--seed N]
        [--repeat K] [--trace 0|1] [--save FILE]

runs seeds N..N+K-1 of every workload (or just NAME) and exits non-zero
if any output check failed.  With ``--trace 1`` each seed runs untraced
and traced, and the set reports the tracing overhead.  Two saved sets
compare with::

    python3 perfbench/run_bench.py --compare BASE.json HEAD.json

which gives, per (metric, workload), both medians and quartiles and a
verdict against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
TRACE_DIR = HERE / "results" / "traces"

SETUP_REPEATS = 3
DEFAULT_SECONDS = 10
#: One child run may not take longer than this in a set.
CHILD_TIMEOUT_S = 300

#: The end-to-end metrics, in ``BENCHMARK.json`` order.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

TAIL_CANDIDATES = (0.99, 0.9, 0.75)


# -- statistics -----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_quantile(samples: int) -> float:
    """The highest of p99/p90/p75 with at least ten samples beyond it.

    With :func:`percentile`'s interpolation, ``samples - 1 -
    floor(q * (samples - 1))`` samples lie beyond quantile ``q``.  Below
    38 samples none of the three qualifies and the tail is the slowest
    op (p100).  Each workload fixes its quantile by applying this rule
    to its usual op count, so the reported percentile does not change
    with machine speed.
    """
    for q in TAIL_CANDIDATES:
        if samples - 1 - math.floor(q * (samples - 1) + 1e-9) >= 10:
            return q
    return 1.0


def beyond(values: Sequence[float], threshold: float) -> int:
    return sum(1 for value in values if value > threshold)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


# -- one run ----------------------------------------------------------------------


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"run_bench: no program source at {SRC}; run "
                         f"from a full checkout of the repository\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, out: Optional[Path] = None
            ) -> Dict[str, Any]:
    """Run one workload in this process; returns the result object."""
    import layers
    from spans import NullRecorder, Patcher, Recorder
    from speed import HostSpeed
    from workloads import WORKLOADS, cold_start

    recorder = Recorder() if trace else NullRecorder()
    workload = WORKLOADS[name](seed, smoke, recorder)
    problems: List[str] = []
    setups: List[float] = []
    # Every thread of the run, the speed sampler included (threads inherit
    # this), shares one processor: the sampler then measures the speed of
    # the processor the work runs on, not of its neighbour.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    speed = HostSpeed().start()
    try:
        workload.generate()
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.release()
            start = time.perf_counter()
            cold_start(workload.modules)
            workload.prepare()
            setups.append(speed.seconds(start, time.perf_counter()))
        workload.warm_up()
        patcher = Patcher()
        try:
            if trace:
                layers.install(patcher, recorder)
                workload.install(patcher, recorder)
            measured = workload.measure(seconds)
            # Before the end-of-run checks, which replay work their own way.
            peak_rss_mb = _peak_rss_mb()
            counts = workload.counts()
        finally:
            patcher.restore()
        try:
            with recorder.paused():
                problems = workload.verify()
        except Exception as error:  # a broken check is a failed check
            problems = [f"verify: {type(error).__name__}: {error}"]
    finally:
        speed.stop()
        workload.close()

    for problem in measured.problems + problems:
        sys.stderr.write(f"{name}: FAILED {problem}\n")
    lines = [f"{name} seed={seed} trace={int(trace)}: "
             f"{measured.attempted} ops, {measured.failed} failed"
             f"{'' if not problems else ', end-of-run check FAILED'}; "
             f"host at {speed.overall():.2f}x reference speed"]
    if trace:
        metrics, units, notes = _per_layer(workload, measured, recorder,
                                           counts, speed, lines)
        directory = out or TRACE_DIR
        directory.mkdir(parents=True, exist_ok=True)
        recorder.dump(directory / f"{name}-seed{seed}.json")
    else:
        metrics, units, notes = _end_to_end(workload, measured, setups,
                                            speed, peak_rss_mb)
    for metric, value in metrics.items():
        note = notes.get(metric)
        lines.append(f"  {metric:<34} {value:>14.6g} {units[metric]:<6}"
                     + (f" ({note})" if note else ""))
    print("\n".join(lines))
    correct = not problems and measured.failed == 0 \
        and measured.accepted() > 0
    return {"correct": correct, "attempted": measured.attempted,
            "failed": measured.failed,
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in metrics.items()}}


def _latencies(workload, measured, speed) -> Tuple[float, float, str]:
    """(op p50 ms, op tail ms, how the tail was taken).

    Workloads whose ops differ in size (kernels, scenarios, opt levels)
    run whole passes with the same mix, and the p50 is the median over
    passes of each pass's median op, so it always falls on the same kind
    of op.  A workload without passes has one, and its p50 is the plain
    median.
    """
    passes = [ops for ops in measured.latencies_s(speed) if ops]
    latencies = [value for ops in passes for value in ops]
    if not latencies:
        return 0.0, 0.0, "no ops"
    p50_ms = statistics.median(statistics.median(ops)
                               for ops in passes) * 1e3
    q = workload.tail_q
    if q < 1.0:
        tail_ms = percentile(latencies, q) * 1e3
        note = (f"p{q * 100:g} of {len(latencies)} ops, "
                f"{beyond(latencies, tail_ms / 1e3)} beyond")
    else:
        # Too few ops for a percentile with ten beyond it; the slowest op
        # of one pass would be set by a single stall.
        tail_ms = statistics.median(max(ops) for ops in passes) * 1e3
        note = f"slowest op per pass, median of {len(passes)} passes"
    return p50_ms, tail_ms, note


def _end_to_end(workload, measured, setups: List[float], speed,
                peak_rss_mb: float):
    p50_ms, tail_ms, tail_note = _latencies(workload, measured, speed)
    passes = len(measured.passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": p50_ms,
        "op_tail_ms": tail_ms,
        "work_per_s": measured.work_per_s(speed),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_p50_ms": f"{measured.accepted()} ops"
                     + (f", median of {passes} pass medians"
                        if passes > 1 else ""),
        "op_tail_ms": tail_note,
        "work_per_s": workload.work_unit
                      + (" over wall time" if measured.wall else ""),
    }
    return metrics, dict(END_TO_END), notes


def _per_layer(workload, measured, recorder, counts: Dict[str, float],
               speed, lines: List[str]):
    import layers
    from spans import analyze
    analysis = analyze(recorder.spans, recorder.timer_totals())
    lines += layer_table(analysis)
    # Span times are scaled by the run's median host speed.
    factor = speed.overall()
    values: Dict[str, float] = {
        "op.unattributed_s": analysis.unattributed_s * factor,
        "op.attributed": analysis.attributed,
        "traced.op_p50_ms": _latencies(workload, measured, speed)[0],
        "traced.work_per_s": measured.work_per_s(speed),
        "host.speed": factor,
    }
    for span_name, _ in layers.SPANS + layers.TIMED:
        self_s, calls = analysis.layers.get(span_name, (0.0, 0))
        values[f"{span_name}.self_s"] = self_s * factor
        values[f"{span_name}.calls"] = calls
    gathered = dict(recorder.counts)
    gathered.update(counts)
    for count_name, *_ in layers.COUNTS:
        values[count_name] = gathered.get(count_name, 0)
    units = {metric: unit for metric, unit, _
             in layers.per_layer_metrics()}
    return {metric: values[metric] for metric in units}, units, {}


def layer_table(analysis) -> List[str]:
    """Self time per layer as a share of op wall time, largest first."""
    wall = analysis.op_wall_s or 1.0
    lines = [f"  layer table: {analysis.op_wall_s:.3f} s of op wall time, "
             f"{analysis.attributed * 100:.1f}% in layer spans"]
    rows = sorted(analysis.layers.items(), key=lambda item: -item[1][0])
    for span_name, (self_s, calls) in rows:
        lines.append(f"    {span_name:<24} {self_s:>9.4f} s "
                     f"{self_s / wall * 100:>6.1f}%  {calls:>8} calls")
    lines.append(f"    {'(unattributed)':<24} "
                 f"{analysis.unattributed_s:>9.4f} s "
                 f"{analysis.unattributed_s / wall * 100:>6.1f}%")
    return lines


# -- sets of runs -----------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: bool,
           smoke: bool) -> Tuple[int, Optional[Dict[str, Any]], str]:
    command = [sys.executable, str(HERE / "run_bench.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    process = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT_S)
    lines = process.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return process.returncode, result, "\n".join(lines[:-1])


def run_set(names: Sequence[str], seed: int, repeat: int, seconds: float,
            trace: bool, smoke: bool, save: Optional[Path]) -> int:
    """Seed-major order: drift in machine load spreads over workloads."""
    modes = [False, True] if trace else [False]
    runs: List[Dict[str, Any]] = []
    ok = True
    for offset in range(repeat):
        for name in names:
            for traced in modes:
                start = time.perf_counter()
                code, result, text = _child(name, seed + offset, seconds,
                                            traced, smoke)
                wall_s = time.perf_counter() - start
                print(f"{text}\n  (run took {wall_s:.1f} s)", flush=True)
                good = code == 0 and result is not None \
                    and result.get("correct") is True
                ok = ok and good
                runs.append({"workload": name, "seed": seed + offset,
                             "trace": int(traced), "exit": code,
                             "wall_s": wall_s, "result": result})
    summary = summarize_runs(runs)
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seconds": seconds,
        "smoke": smoke,
        "seeds": [seed, seed + repeat - 1],
        "runs": runs,
        "summary": summary,
    }
    if trace:
        payload["overhead"] = tracing_overhead(summary)
    print(render_summary(payload))
    if save is not None:
        save.parent.mkdir(parents=True, exist_ok=True)
        save.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if not ok:
        sys.stderr.write("run_bench: a run failed or its output check "
                         "failed\n")
    return 0 if ok else 1


def summarize_runs(runs: Sequence[Dict[str, Any]]
                   ) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Per workload and metric: median, quartiles and spread."""
    values: Dict[str, Dict[str, List[float]]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        result = run["result"]
        if not result:
            continue
        for metric, entry in result["metrics"].items():
            values.setdefault(run["workload"], {}) \
                .setdefault(metric, []).append(entry["value"])
            units[metric] = entry["unit"]
    return {workload: {metric: dict(summarize(series), unit=units[metric])
                       for metric, series in metrics.items()}
            for workload, metrics in values.items()}


def tracing_overhead(summary) -> Dict[str, Dict[str, float]]:
    """Traced vs untraced medians: op_p50 slower by, throughput lost."""
    overhead = {}
    for workload, metrics in summary.items():
        try:
            p50 = metrics["traced.op_p50_ms"]["median"] \
                / metrics["op_p50_ms"]["median"] - 1.0
            work = 1.0 - metrics["traced.work_per_s"]["median"] \
                / metrics["work_per_s"]["median"]
        except (KeyError, ZeroDivisionError):
            continue
        overhead[workload] = {"op_p50": p50, "work_per_s": work,
                              "attributed":
                              metrics["op.attributed"]["median"]}
    return overhead


def render_summary(payload: Dict[str, Any]) -> str:
    lines = []
    for workload, metrics in payload["summary"].items():
        lines.append(f"== {workload}")
        for metric, entry in metrics.items():
            if "." in metric and not metric.endswith(".self_s") \
                    and metric not in ("op.attributed",
                                       "traced.op_p50_ms",
                                       "traced.work_per_s"):
                continue
            if metric.endswith(".self_s") and not entry["median"]:
                continue
            lines.append(f"  {metric:<34} median {entry['median']:>12.6g} "
                         f"{entry['unit']:<6} q1 {entry['q1']:.6g} "
                         f"q3 {entry['q3']:.6g} spread "
                         f"{entry['spread'] * 100:.1f}% (n={entry['n']})")
    for workload, entry in payload.get("overhead", {}).items():
        lines.append(f"tracing overhead {workload}: op_p50 "
                     f"{entry['op_p50'] * 100:+.1f}%, work_per_s "
                     f"{-entry['work_per_s'] * 100:+.1f}%, attributed "
                     f"{entry['attributed'] * 100:.1f}%")
    return "\n".join(lines)


# -- comparison -------------------------------------------------------------------


def load_bounds() -> Dict[str, Tuple[str, float]]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {metric["name"]: (metric["better"], float(metric["bound"]))
            for metric in spec["end_to_end"]}


def verdict(base: Sequence[float], head: Sequence[float], better: str,
            bound: float, check_spread: bool = True) -> str:
    """improved / unchanged / regressed / unresolved for one row.

    Unresolved when either side's quartile spread exceeds the bound —
    unless every head run beats every base run.  Regressed when the
    head median is worse by more than the bound.  Improved only when
    head wins at least 90% of the base x head pairs (ties count for
    neither) and the medians differ by more than the base's own
    quartile spread.  ``check_spread=False`` judges medians only (the
    rule for ``setup_s``, whose spread the benchmark does not bound).
    """
    sign = 1.0 if better == "higher" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    head_q1, head_median, head_q3 = quartiles(head)
    spread = max((base_q3 - base_q1) / base_median,
                 (head_q3 - head_q1) / head_median)
    pairs = [(b, h) for b in base for h in head]
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    if check_spread and spread > bound:
        return "improved" if wins == len(pairs) else "unresolved"
    change = sign * (head_median - base_median) / base_median
    if change < -bound:
        return "regressed"
    if change > 0 and wins >= 0.9 * len(pairs) \
            and abs(head_median - base_median) > base_q3 - base_q1:
        return "improved"
    return "unchanged"


def compare(base_path: Path, head_path: Path) -> int:
    bounds = load_bounds()
    base = json.loads(base_path.read_text())
    head = json.loads(head_path.read_text())
    for key in ("seconds", "smoke"):
        if base.get(key) != head.get(key):
            sys.stderr.write(f"compare: sets differ in {key}: "
                             f"{base.get(key)} vs {head.get(key)}\n")

    def series(payload, workload, metric) -> List[float]:
        return [run["result"]["metrics"][metric]["value"]
                for run in payload["runs"]
                if run["workload"] == workload and run["result"]
                and metric in run["result"]["metrics"]]

    workloads = [name for name in base["summary"] if name in head["summary"]]
    verdicts: Dict[str, int] = {}
    print(f"{'workload':<16} {'metric':<12} {'base median [q1, q3]':>34} "
          f"{'head median [q1, q3]':>34} {'change':>8}  verdict")
    for workload in workloads:
        for metric, (better, bound) in bounds.items():
            old = series(base, workload, metric)
            new = series(head, workload, metric)
            if not old or not new:
                continue
            outcome = verdict(old, new, better, bound,
                              check_spread=metric != "setup_s")
            verdicts[outcome] = verdicts.get(outcome, 0) + 1
            old_q = quartiles(old)
            new_q = quartiles(new)
            print(f"{workload:<16} {metric:<12} "
                  f"{old_q[1]:>12.5g} [{old_q[0]:.5g}, {old_q[2]:.5g}]"
                  f"{'':>2} {new_q[1]:>12.5g} "
                  f"[{new_q[0]:.5g}, {new_q[2]:.5g}]  "
                  f"{(new_q[1] / old_q[1] - 1) * 100:>+7.1f}%  {outcome}")
    print(", ".join(f"{count} {outcome}"
                    for outcome, count in sorted(verdicts.items())))
    return 1 if verdicts.get("regressed") or verdicts.get("unresolved") \
        else 0


# -- command line -------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", help="one workload; alone (without "
                        "--repeat) it runs in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int,
                        help="runs per workload, seeds N..N+K-1 (a set)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness tests")
    parser.add_argument("--save", type=Path, help="write the set here")
    parser.add_argument("--out", type=Path,
                        help="directory for raw span dumps (traced runs)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    _require_source()
    from workloads import WORKLOADS
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    if args.workload is not None and args.repeat is None:
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke, args.out)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    names = [args.workload] if args.workload else list(WORKLOADS)
    return run_set(names, args.seed, args.repeat or 1, args.seconds,
                   bool(args.trace), args.smoke, args.save)


if __name__ == "__main__":
    sys.exit(main())
