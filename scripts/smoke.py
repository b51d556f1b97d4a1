"""The CI smoke gates, one table entry per smoke.

    python scripts/smoke.py NAME      # run one smoke's steps in order
    python scripts/smoke.py --list    # print every smoke name

Each step is a bash command written as if run from the repository root.
The steps of one smoke run in a fresh temporary directory that links the
repository's ``src``, ``tests``, ``benchmarks``, ``examples`` and
``perfbench``, so the traces, caches and reports a step writes start
cold and vanish with the run; bench tables still land in
``benchmarks/results/``.  A smoke stops
at its first failing step and exits non-zero; its ``finally`` steps
(stopping a server) always run.  The CI ``smoke`` job runs every name in
a matrix, and ``tests/test_ci_smoke.py`` keeps that matrix equal to
this table.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
LINKED = ("src", "tests", "benchmarks", "examples", "perfbench")

Step = Tuple[str, str]

SMOKES: Dict[str, Dict[str, List[Step]]] = {
    # The semantic-verification gates of `repro lint --deep`: the clean
    # example set (including the cross-layer wavg bundle) must produce
    # zero findings under abstract interpretation, the seeded defect
    # corpus must make every deep rule fire exactly once, and the deep
    # JSON must be byte-identical across job counts.
    "deep-lint": {"steps": [
        ("Deep lint over the clean examples (zero-findings gate)",
         "PYTHONPATH=src python -m repro.cli lint --examples --deep "
         "--fail-on info"),
        ("Deep JSON carries solver evidence",
         "PYTHONPATH=src python -m repro.cli lint --examples --deep "
         "--format json "
         "| python -c \"import json,sys; d=json.load(sys.stdin); "
         "assert d['deep'] is True; "
         "assert d['solver']['dataflow.solver.iterations'] > 0; "
         "assert d['summary']['error'] == 0\""),
        ("Seeded corpus fires every deep rule exactly once",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/analysis/test_deep_golden.py "
         "tests/analysis/test_ir_dataflow_rules.py "
         "tests/analysis/test_crosslayer_lint.py"),
        ("Solver + domain property tests",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/analysis/test_dataflow_solver.py "
         "tests/analysis/test_dataflow_domains.py "
         "tests/hls/test_dataflow_differential.py"),
    ]},
    # Pool-regression net: the campaign/sweep benches with the engine
    # fanned out.  Counts must be bit-identical to serial (asserted by
    # the benches and golden tests); this catches backend wedges,
    # fork/pickle breakage and determinism drift under real parallelism.
    "parallel-campaign": {"steps": [
        ("Engine + campaign tests under parallel smoke",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/exec tests/radhard tests/test_golden_outputs.py"),
        ("Campaign benches at --jobs 4",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "benchmarks/bench_qualification_seu.py "
         "benchmarks/bench_eucalyptus_characterization.py "
         "--jobs 4"),
    ]},
    # Trace + schema gates on the commands that do the work: Chrome
    # traces of the quickstart kernel through `repro hls` and of a
    # fabric flow through `repro eco`, validated against the stdlib-only
    # trace-event schema checker; a traced boot; and --jobs invariance
    # of a parallel producer, by diffing byte-identical JSON-lines
    # exports of the same SEU campaigns.
    "telemetry-trace": {"steps": [
        ("Traced HLS and fabric flows (Chrome export)",
         "PYTHONPATH=src python -c \"import sys; "
         "sys.path.insert(0, 'examples'); import quickstart; "
         "open('wavg.c', 'w').write(quickstart.SOURCE)\" "
         "&& PYTHONPATH=src python -m repro.cli hls wavg.c --top wavg "
         "--clock 5 --trace hls_trace.json --trace-format chrome "
         "&& PYTHONPATH=src python -m repro.cli eco --width 16 "
         "--stages 0 --grid-luts 4096 --effort 0.2 --clock 5 "
         "--report eco_report.json "
         "--trace eco_trace.json --trace-format chrome"),
        ("Validate both traces against the trace-event schema",
         "python tests/telemetry/chrome_schema.py hls_trace.json "
         "&& python tests/telemetry/chrome_schema.py eco_trace.json"),
        ("Traced boot via --trace on the boot command",
         "PYTHONPATH=src python -m repro.cli boot "
         "--trace boot_trace.json --trace-format chrome "
         "&& python tests/telemetry/chrome_schema.py boot_trace.json"),
        ("Trace determinism across job counts",
         "PYTHONPATH=src python -m repro.cli seu --runs 60 --words 32 "
         "--shard-size 15 --jobs 1 --trace seu1.jsonl "
         "&& PYTHONPATH=src python -m repro.cli seu --runs 60 --words 32 "
         "--shard-size 15 --jobs 4 --trace seu4.jsonl "
         "&& cmp seu1.jsonl seu4.jsonl"),
    ]},
    # Warm-run bit-identity gate for the content-addressed flow cache: a
    # cold characterization sweep populates an on-disk store, the warm
    # re-run must serve every config from it and export byte-identical
    # JSON/XML artifacts.  Same contract re-proved for an SEU campaign
    # at a different job count.
    "cache": {"steps": [
        ("Cold characterization sweep",
         "PYTHONPATH=src python -m repro.cli characterize "
         "--components addsub,mult,logic --widths 8,16 --effort 0.15 "
         "--cache-dir .flow-cache --out cold.xml --json cold.json"),
        ("Warm characterization sweep",
         "PYTHONPATH=src python -m repro.cli characterize "
         "--components addsub,mult,logic --widths 8,16 --effort 0.15 "
         "--cache-dir .flow-cache --out warm.xml --json warm.json"),
        ("Warm artifacts are byte-identical",
         "cmp cold.xml warm.xml && cmp cold.json warm.json"),
        ("Cold then warm SEU campaign across job counts",
         "PYTHONPATH=src python -m repro.cli seu --runs 200 --jobs 1 "
         "--cache-dir .flow-cache --json seu_cold.json "
         "&& PYTHONPATH=src python -m repro.cli seu --runs 200 --jobs 4 "
         "--cache-dir .flow-cache --json seu_warm.json "
         "&& cmp seu_cold.json seu_warm.json"),
        ("Cache stats report nonzero hits",
         "PYTHONPATH=src python -m repro.cli cache stats "
         "--cache-dir .flow-cache "
         "| python -c \"import json,sys; d=json.load(sys.stdin); "
         "layers=d['layers']; "
         "assert layers['characterize']['hits'] > 0, layers; "
         "assert layers['mega']['hits'] > 0, layers; "
         "assert d['entries'] > 0 and d['bytes'] > 0\""),
        ("Store tests and concurrent writers on one cache directory",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/cache/test_store.py tests/cache/test_store_concurrency.py"),
        ("Two SEU campaigns at once share one cache directory",
         "PYTHONPATH=src python -m repro.cli seu --runs 200 --seed 1 "
         "--cache-dir .shared-cache >/dev/null &\n"
         "first=$!\n"
         "PYTHONPATH=src python -m repro.cli seu --runs 200 --seed 2 "
         "--cache-dir .shared-cache >/dev/null &\n"
         "second=$!\n"
         "wait $first\n"
         "wait $second\n"
         "PYTHONPATH=src python -m repro.cli cache stats "
         "--cache-dir .shared-cache "
         "| python -c \"import json,sys; d=json.load(sys.stdin); "
         "assert d['layers']['mega']['stores'] >= 2, d['layers']\"\n"),
        ("Cold-vs-warm speedup benchmark",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "benchmarks/bench_cache_warm.py"),
    ]},
    # Sharded/resumable mega-campaign gates: the shard-merge,
    # streaming-statistics and kill/resume (real SIGKILL) test suites,
    # the pinned scenario payload digests, the exhaustive SECDED decode
    # patterns and the touched-word vs full evaluate differential test,
    # then the same contracts through the real CLI — sharded runs
    # byte-identical to serial, a runs-extension resumed from the
    # checkpoint store byte-identical to a from-scratch run, the
    # early-stop run-savings gate on a 50k-run campaign, the same
    # early-stop point at any job count on the default shard plan, and
    # the distinct exit code for statistically insufficient campaigns.
    "mega-campaign": {"steps": [
        ("Sharding, statistics and kill/resume tests",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/exec/test_sharding.py tests/exec/test_streaming_stats.py "
         "tests/radhard/test_mega_shards.py "
         "tests/radhard/test_mega_kill_resume.py "
         "tests/radhard/test_payload_digests.py "
         "tests/radhard/test_ecc_decode.py "
         "tests/radhard/test_touched_evaluate.py"),
        ("Sharded run is byte-identical to serial",
         "PYTHONPATH=src python -m repro.cli seu --runs 600 --jobs 1 "
         "--json-deterministic serial.json "
         "&& PYTHONPATH=src python -m repro.cli seu --runs 600 "
         "--shard-size 75 --jobs 4 --cache-dir .mega-cache "
         "--json-deterministic sharded.json "
         "&& cmp serial.json sharded.json"),
        ("Extension resumed from checkpoints matches from-scratch",
         "PYTHONPATH=src python -m repro.cli seu --runs 900 "
         "--shard-size 75 --jobs 4 --cache-dir .mega-cache --resume "
         "--json-deterministic extended.json "
         "&& PYTHONPATH=src python -m repro.cli seu --runs 900 --jobs 1 "
         "--json-deterministic serial900.json "
         "&& cmp extended.json serial900.json"),
        ("Checkpoint store reports mega-layer hits",
         "PYTHONPATH=src python -m repro.cli cache stats "
         "--cache-dir .mega-cache "
         "| python -c \"import json,sys; d=json.load(sys.stdin); "
         "assert d['layers']['mega']['hits'] > 0, d['layers']\""),
        ("Early stopping ends a 50k-run campaign in <50% of runs",
         "PYTHONPATH=src python -m repro.cli seu --runs 50000 "
         "--shard-size 500 --jobs 4 --stop-ci 0.01 --json stopped.json "
         "&& python -c \"import json; "
         "rs=[r['runs'] for r in json.load(open('stopped.json'))]; "
         "assert all(r < 25000 for r in rs), rs\""),
        ("Early stop on the default plan is the same at any job count",
         "PYTHONPATH=src python -m repro.cli seu --runs 3000 "
         "--stop-ci 0.02 --jobs 1 --json-deterministic stop1.json "
         "&& PYTHONPATH=src python -m repro.cli seu --runs 3000 "
         "--stop-ci 0.02 --jobs 4 --json-deterministic stop4.json "
         "&& cmp stop1.json stop4.json"),
        ("Unreachable CI target exits with the evidence code (4)",
         "code=0\n"
         "PYTHONPATH=src python -m repro.cli seu --runs 200 --shards 4 \\\n"
         "  --stop-ci 0.000001 >/dev/null || code=$?\n"
         "test \"$code\" -eq 4\n"),
        ("Cold vs resumed vs early-stopped economics bench",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "benchmarks/bench_mega_campaign.py"),
    ]},
    # Correctness + perf net for the block-cached simulators: the
    # randomized lockstep equivalence suite (DBT vs decode-per-step
    # oracle, including self-modifying code and SEU-flip invalidation),
    # the latent-bugfix regressions, the FSMD identity digests
    # (results and full traces of the reference FSMD walk and the FSMD
    # DBT) and the synthesis identity digests (optimized IR, block
    # schedule lengths and Verilog of every hls_dse point), the HLS
    # golden model's identity digests (the decoded IR
    # interpreter every co-simulation checks against), then the gated
    # race — ≥8x on the boot + 4-core SVC guest workload with
    # bit-identical state — and a short run of the co-simulation-bound
    # hls_dse benchmark, which checks every output.
    "sim-dbt": {"steps": [
        ("Lockstep equivalence + bugfix regressions + FSMD and "
         "synthesis identity",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/soc/test_dbt.py tests/soc/test_cpu_bugfixes.py "
         "tests/hls/test_fsmd_dbt.py tests/hls/test_fsmd_identity.py "
         "tests/hls/test_synthesis_identity.py"),
        ("IR interpreter identity golden",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/hls/test_interp_identity.py"),
        ("DBT vs interpreter race (bit-identity + ≥8x gate)",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "benchmarks/bench_sim_dbt.py"),
        ("Benchmark output checks: hls_dse",
         "python3 perfbench/run_bench.py --workload hls_dse --smoke "
         "--seconds 2"),
    ]},
    # Flow-as-a-service gates: the job API, scheduler and HTTP test
    # suites and the CLI's output digests (its job commands submit
    # through the same API), then the real server through the real
    # CLI — a cold flow computed once, the same spec resubmitted by
    # another tenant served warm with a byte-identical wire report, the
    # dedup counters visible through the stats endpoint — and finally
    # the Zipf load bench.
    "service": {"steps": [
        ("Job API, scheduler and HTTP test suites",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/service tests/test_cli_identity.py"),
        ("Start the job server",
         "PYTHONPATH=src python -m repro.cli serve --port 8321 "
         "--workers 2 &\n"
         "echo $! > server.pid\n"
         "for i in $(seq 1 50); do\n"
         "  curl -sf http://127.0.0.1:8321/v1/healthz >/dev/null && break\n"
         "  sleep 0.2\n"
         "done\n"),
        ("Cold submit, warm resubmit, byte-identical reports",
         "PYTHONPATH=src python -m repro.cli submit flow "
         "--params '{\"component\":\"addsub\",\"width\":16,"
         "\"effort\":0.5}' "
         "--tenant alice --wait --report cold_report.json "
         "&& PYTHONPATH=src python -m repro.cli submit flow "
         "--params '{\"component\":\"addsub\",\"width\":16,"
         "\"effort\":0.5}' "
         "--tenant bob --wait --report warm_report.json "
         "&& cmp cold_report.json warm_report.json"),
        ("Stats prove one computation and one warm hit",
         "PYTHONPATH=src python -m repro.cli jobs --stats "
         "| python -c \"import json,sys; d=json.load(sys.stdin); "
         "c=d['counts']; "
         "assert c['computed'] == 1 and c['warm_hits'] == 1, c\""),
        ("Zipf load benchmark (coalescing + warm-latency gates)",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "benchmarks/bench_service.py"),
    ], "finally": [
        ("Stop the job server",
         "if [ -f server.pid ]; then kill $(cat server.pid); fi"),
    ]},
    # Interactive ECO gates: the delta/warm-start/cone test suites (edit
    # sequences, work counts, edit validation, the delta route and the
    # ECO timing report against their from-scratch oracles), the
    # delta-chained key + service warm-hit contracts, the pinned cold
    # and ECO stage keys and the placement
    # and route identity pins, then a scripted 1% edit to the 10k design
    # through the real CLI — ≥3x over the cold re-run at CI scale, ECO HPWL within 5% of cold's,
    # no timing violation the cold flow doesn't have, and the ECO wire
    # report byte-identical across two fresh runs — and finally the
    # cold-vs-ECO race bench (≥10x at 1% edits, QoR-gated).
    "eco": {"steps": [
        ("Delta, warm-start, cone-STA and key-chain test suites",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/fabric/test_eco.py tests/fabric/test_eco_sequence.py "
         "tests/fabric/test_eco_work.py tests/fabric/test_eco_validate.py "
         "tests/fabric/test_route_delta_property.py "
         "tests/fabric/test_eco_timing_property.py "
         "tests/fabric/test_place_identity.py "
         "tests/fabric/test_route_identity.py "
         "tests/cache/test_eco_keys.py "
         "tests/cache/test_stage_key_pins.py "
         "tests/service/test_eco_service.py"),
        ("Scripted 1% edit through the real CLI (speedup + QoR gates)",
         "PYTHONPATH=src python -m repro.cli eco --synth-cells 10000 "
         "--edit-fraction 0.01 --effort 0.1 --channel-width 256 "
         "--grid-luts 64000 --clock 200 --cache --compare-cold "
         "--json eco_metrics.json --report eco_report.json "
         "&& python -c \"import json; "
         "d=json.load(open('eco_metrics.json')); "
         "assert d['speedup'] >= 3.0, d['speedup']; "
         "assert d['hpwl_ratio'] <= 1.05, d['hpwl_ratio']; "
         "assert not d['new_timing_violation'], d\""),
        ("ECO report byte-identical across fresh runs",
         "PYTHONPATH=src python -m repro.cli eco --synth-cells 10000 "
         "--edit-fraction 0.01 --effort 0.1 --channel-width 256 "
         "--grid-luts 64000 --clock 200 --cache --report eco_r1.json "
         "&& PYTHONPATH=src python -m repro.cli eco --synth-cells 10000 "
         "--edit-fraction 0.01 --effort 0.1 --channel-width 256 "
         "--grid-luts 64000 --clock 200 --cache --report eco_r2.json "
         "&& cmp eco_r1.json eco_r2.json"),
        ("Cold vs ECO race at 0.1/1/5% edits (≥10x at 1%, QoR-gated)",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "benchmarks/bench_flow_eco.py"),
    ]},
    # QoR net for the incremental place/route/STA kernels: the kernel
    # property tests (incremental HPWL == scratch recompute, route-tree
    # invariants, per-seed bit-identity, kernel-version cache salt, and
    # the analytic start's legality and same-seed identity in a fresh
    # process), the placement identity golden (cold and ECO placements
    # pinned by digest), then the QoR gates against the pinned results
    # of the replaced kernels on a ~10k-cell design and the three Fig. 3
    # designs, with each placement's W_min.  Their wall-clock net is the
    # repository benchmark: a short smoke run of compile_cold and
    # eco_edits checks every output and exits 1 on a wrong result.
    "perf-kernel": {"steps": [
        ("Kernel property tests",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/fabric/test_kernels_property.py"),
        ("Placement identity golden",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/fabric/test_place_identity.py"),
        ("Route identity golden",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "tests/fabric/test_route_identity.py"),
        ("Kernel QoR gates against the pinned old-kernel results",
         "PYTHONPATH=src python -m pytest -q -p no:cacheprovider "
         "benchmarks/bench_flow_kernels.py"),
        ("Benchmark output checks: compile_cold",
         "python3 perfbench/run_bench.py --workload compile_cold --smoke "
         "--seconds 2"),
        ("Benchmark output checks: eco_edits",
         "python3 perfbench/run_bench.py --workload eco_edits --smoke "
         "--seconds 2"),
    ]},
}


def run_smoke(name: str) -> int:
    """Run one smoke's steps (then its ``finally`` steps); exit code."""
    smoke = SMOKES[name]
    status = 0
    with tempfile.TemporaryDirectory(prefix=f"smoke-{name}-") as work:
        for linked in LINKED:
            os.symlink(ROOT / linked, Path(work) / linked)
        steps = [(title, command, False) for title, command
                 in smoke["steps"]]
        steps += [(title, command, True) for title, command
                  in smoke.get("finally", [])]
        for title, command, always in steps:
            if status and not always:
                continue
            print(f"== {name}: {title}", flush=True)
            code = subprocess.run(["bash", "-e", "-c", command],
                                  cwd=work).returncode
            if code:
                print(f"== {name}: step failed with exit {code}: {title}",
                      file=sys.stderr, flush=True)
                status = status or code
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", nargs="?", help="the smoke to run")
    parser.add_argument("--list", action="store_true",
                        help="print every smoke name, one per line")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(SMOKES))
        return 0
    if args.name not in SMOKES:
        parser.error(f"unknown smoke {args.name!r} "
                     f"(known: {', '.join(SMOKES)})")
    return run_smoke(args.name)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
