"""Command-line interface to the HERMES ecosystem tools.

Subcommands mirror the tool surface a user of the paper's ecosystem gets:

* ``hls``          — synthesize a HermesC file; print reports, write RTL;
* ``eco``          — implement a base design, then re-implement one
  netlist edit incrementally (optionally against a cold re-run);
* ``characterize`` — run Eucalyptus and export the XML library;
* ``boot``         — run the BL0→BL1→BL2 chain and print the boot report;
* ``mission``      — run the virtualized mission under XtratuM;
* ``qualify``      — run the BL1 qualification campaign, print TRL;
* ``seu``          — run the SEU mitigation campaigns (raw/ECC/TMR);
* ``lint``         — static verification of HermesC sources, XM_CF
  documents and the built-in example designs (``--examples``);
* ``cache``        — inspect or maintain an on-disk flow cache
  (``stats`` / ``clear`` / ``gc``).

``characterize`` and ``seu`` take ``--jobs N`` (``0`` = every core;
results are bit-identical to a serial run).  ``hls``, ``eco``,
``characterize``, ``seu``, ``boot``, ``mission`` and ``serve`` take
``--trace PATH`` (``--trace-format json|chrome``) to export the
telemetry of the run they do; there is no separate tracing command, so
a trace is always the telemetry of a real job.  Most commands take
``--cache`` or ``--cache-dir DIR`` to reuse content-addressed flow
artifacts (warm results are byte-identical to cold ones).  ``seu``
runs every scenario as a sharded, checkpointed mega-campaign (shards
of 100 runs unless ``--shards``/``--shard-size`` say otherwise;
``--resume`` after a kill or a ``--runs`` extension), stops each
scenario early at a Wilson-CI target (``--stop-ci``; exit 4 when a
campaign misses it) and writes the execution-independent payloads CI
diffs with ``--json-deterministic``.

The flow-as-a-service surface rides on the same tools:

* ``serve``        — run the multi-tenant job server (fair queueing,
  in-flight dedup, bounded queue, cancellation);
* ``submit``       — POST one JobSpec to a running server (optionally
  wait for and print the final report);
* ``jobs``         — list/inspect/cancel jobs on a running server.

``hls``, ``eco``, ``characterize`` and ``seu`` are clients of the job
API: each builds job specs from its arguments, runs them in-process with
:func:`repro.api.submit` under a :class:`~repro.api.JobContext` built
from :class:`CommonOptions`, and renders the returned report and
artifact.  A command and the same spec sent to ``repro serve`` compute
the same result and reach the same verdict.

Every subcommand exits with a :class:`repro.api.ExitCode` value —
``0`` OK, ``1`` workload failure, ``2`` usage error, ``4`` statistically
insufficient evidence — and the service maps the same enum onto HTTP
statuses, so shell pipelines and HTTP clients read one convention.  A
producer exception (a HermesC ``ParseError``, say) ends the command with
``error: <Type>: <message>`` on stderr and exit ``1``: the line and code
the service gives the same failed job.

Shared flags are defined once as argparse *parent parsers*
(``--jobs``/``--backend``, ``--seed``, ``--trace``/``--trace-format``,
``--cache``/``--no-cache``/``--cache-dir``) and read back through the
:class:`CommonOptions` dataclass, so every subcommand spells them the
same way.

Run ``python -m repro.cli <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from .api import ExitCode, JobContext, JobSpecError, job_kinds
from .telemetry import TRACE_FORMATS, Tracer, write_trace


@dataclass
class CommonOptions:
    """The shared subcommand options, extracted from parsed args.

    One instance per invocation; fields a subcommand doesn't declare
    keep their defaults, so command handlers read one object instead of
    probing the argparse namespace.
    """

    jobs: int = 1
    backend: str = "auto"
    seed: int = 13
    trace: Optional[str] = None
    trace_format: str = "json"
    cache: bool = False
    cache_dir: Optional[str] = None

    @classmethod
    def from_args(cls, args) -> "CommonOptions":
        options = cls()
        for field in dataclasses.fields(cls):
            if hasattr(args, field.name):
                setattr(options, field.name, getattr(args, field.name))
        return options

    @property
    def cache_enabled(self) -> bool:
        return self.cache or self.cache_dir is not None

    def job_context(self, **knobs) -> JobContext:
        """The execution context this invocation asked for: its jobs and
        backend, a tracer with ``--trace``, a FlowCache with ``--cache``
        or ``--cache-dir``, plus per-command ``knobs``."""
        tracer = Tracer() if self.trace else None
        cache = None
        if self.cache_enabled:
            from .cache import FlowCache
            cache = FlowCache(directory=Path(self.cache_dir)
                              if self.cache_dir else None, tracer=tracer)
        return JobContext(jobs=self.jobs, backend=self.backend,
                          tracer=tracer, cache=cache, **knobs)

    def finish(self, context: JobContext) -> None:
        """Print the cache summary and export the trace of a run."""
        if context.cache is not None:
            print(f"cache: {context.cache.summary()}", file=sys.stderr)
        if context.tracer is not None:
            write_trace(context.tracer, self.trace, self.trace_format)
            print(f"trace ({self.trace_format}, "
                  f"{len(context.tracer.spans)} spans) written to "
                  f"{self.trace}", file=sys.stderr)


def _write_json(path: str, payload, what: str) -> None:
    import json
    Path(path).write_text(json.dumps(payload, sort_keys=True,
                                     separators=(",", ":")))
    print(f"{what} written to {path}", file=sys.stderr)


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _parent(*specs) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    for flags, kwargs in specs:
        parent.add_argument(*flags, **kwargs)
    return parent


def _jobs_parent() -> argparse.ArgumentParser:
    return _parent((("--jobs",), dict(
        type=_non_negative_int, default=1,
        help="parallel jobs (0 = all cores)")))


def _backend_parent() -> argparse.ArgumentParser:
    return _parent((("--backend",), dict(
        default="auto", choices=("auto", "serial", "thread", "process"))))


def _seed_parent(default: int = 13) -> argparse.ArgumentParser:
    return _parent((("--seed",), dict(
        type=int, default=default, help="campaign seed")))


def _trace_parent() -> argparse.ArgumentParser:
    return _parent(
        (("--trace",), dict(
            metavar="PATH", help="export collected telemetry to PATH")),
        (("--trace-format",), dict(
            default="json", choices=TRACE_FORMATS,
            help="trace export format (json = JSON-lines, chrome = "
                 "Perfetto-loadable trace events)")))


def _cache_parent() -> argparse.ArgumentParser:
    return _parent(
        (("--cache",), dict(
            action=argparse.BooleanOptionalAction, default=False,
            help="reuse content-addressed flow artifacts")),
        (("--cache-dir",), dict(
            metavar="DIR",
            help="persistent cache directory (implies --cache)")))


def _cmd_hls(args) -> int:
    from .api import JobSpec, submit

    options = CommonOptions.from_args(args)
    try:
        source = Path(args.source).read_text()
    except OSError as error:
        raise JobSpecError(str(error))
    context = options.job_context()
    result = submit(JobSpec(kind="hls", params={
        "source": source, "top": args.top, "clock_ns": args.clock,
        "opt_level": args.opt}), context)
    options.finish(context)
    project = result.artifact
    design = project.top_design
    print(f"function {args.top}: {design.report.summary()}")
    print(f"  states: {design.state_count}  "
          f"static latency: {design.static_latency()}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in project.verilog_files().items():
            (out / name).write_text(text)
        print(f"  RTL written to {out}/")
    return result.exit_code


def _cmd_eco(args) -> int:
    import json
    import time

    from .api import JobSpec, eco_base_netlist, submit
    from .core.report import report_json_text
    from .fabric.eco import DeltaError, random_delta

    options = CommonOptions.from_args(args)
    params = {"device": args.device, "grid_luts": args.grid_luts,
              "target_clock_ns": args.clock, "effort": args.effort}
    if args.channel_width is not None:
        params["channel_width"] = args.channel_width
    if args.synth_cells:
        params.update(synth_cells=args.synth_cells,
                      synth_seed=args.synth_seed)
    else:
        params.update(component=args.component, width=args.width,
                      stages=args.stages)
    try:
        if args.delta:
            params["delta"] = json.loads(Path(args.delta).read_text())
        else:
            params["delta"] = random_delta(
                eco_base_netlist(params), args.edit_fraction,
                seed=args.edit_seed).to_json()
    except (DeltaError, OSError, ValueError) as error:
        raise JobSpecError(str(error))

    # The runner reports progress once the base is implemented and again
    # after the edit: the edit alone is timed between the two.
    marks: List[float] = []
    context = options.job_context(
        progress=lambda done, total: marks.append(time.perf_counter()))
    result = submit(JobSpec(kind="eco", params=params, seed=options.seed),
                    context)
    report, flow = result.report, result.artifact
    eco_s = marks[1] - marks[0]
    print(f"eco: {report.summary()}", file=sys.stderr)
    print(f"eco wall time {eco_s:.3f} s", file=sys.stderr)

    metrics = {"eco_s": eco_s, "delta_ops": len(flow.delta.ops),
               "hpwl_eco": report.flow.placement.hpwl,
               "hpwl_base": report.base_hpwl,
               **{f"eco_{key}": value
                  for key, value in sorted(report.eco.items())}}
    if args.compare_cold:
        from .fabric.nxmap import NXmapProject

        # The cold reference: the edited netlist through the full flow,
        # at the edit's own clock target and channel width.
        cold = NXmapProject(flow.netlist, flow.project.device,
                            seed=options.seed)
        eco_slack = report.flow.timing.slack_ns
        start = time.perf_counter()
        cold_slack = cold.run_all(
            target_clock_ns=report.flow.timing.target_clock_ns,
            effort=args.effort,
            channel_width=report.flow.routing.channel_width
        ).timing.slack_ns
        cold_s = time.perf_counter() - start
        metrics.update(
            cold_s=cold_s, speedup=cold_s / eco_s,
            hpwl_cold=cold.placement.hpwl,
            hpwl_ratio=report.flow.placement.hpwl / cold.placement.hpwl,
            slack_eco_ns=eco_slack, slack_cold_ns=cold_slack,
            new_timing_violation=bool(
                eco_slack is not None and eco_slack < 0
                and (cold_slack is None or cold_slack >= 0)))
        print(f"cold wall time {cold_s:.3f} s "
              f"(speedup {metrics['speedup']:.1f}x, "
              f"hpwl ratio {metrics['hpwl_ratio']:.4f})",
              file=sys.stderr)
    options.finish(context)
    if args.json:
        _write_json(args.json, metrics, "metrics")
    wire = report_json_text(report)
    if args.report:
        Path(args.report).write_text(wire)
        print(f"report written to {args.report}", file=sys.stderr)
    else:
        print(wire)
    return result.exit_code


def _characterize_spec(args):
    """The ``characterize`` job of ``repro characterize``: the sweep on
    ``--device`` scaled to ``--grid-luts``, as an asdict payload."""
    from .api import JobSpec, _device_from
    from .fabric import scaled_device
    from .hls.characterization.eucalyptus import DEFAULT_SEED

    base = _device_from(args.device)
    device = scaled_device(base, f"{base.name}-char", args.grid_luts)
    return JobSpec(kind="characterize", seed=DEFAULT_SEED, params={
        "device": device, "effort": args.effort,
        "components": args.components.split(",")
        if args.components else None,
        "widths": [int(width) for width in args.widths.split(",")]})


def _cmd_characterize(args) -> int:
    from .api import submit

    options = CommonOptions.from_args(args)
    context = options.job_context()
    result = submit(_characterize_spec(args), context)
    tool = result.artifact
    print(f"sweep: {result.report.summary()}", file=sys.stderr)
    options.finish(context)
    library = tool.build_library()
    xml_text = library.to_xml()
    if args.json:
        runs = result.report.runs
        _write_json(args.json, [run.to_json() for run in runs],
                    f"{len(runs)} runs")
    if args.out:
        Path(args.out).write_text(xml_text)
        print(f"library written to {args.out} "
              f"({len(library.records())} records)")
    elif not args.json:
        print(xml_text)
    return result.exit_code


def _cmd_seu(args) -> int:
    from .api import JobSpec, submit
    from .core import Table
    from .radhard.campaign import OUTCOMES
    from .radhard.scenarios import MEMORY_SCENARIOS

    options = CommonOptions.from_args(args)
    if args.resume and not options.cache_enabled:
        raise JobSpecError("--resume needs --cache-dir (or --cache) to "
                           "resume from")
    # Unset plan options stay out of the spec, so `seu --runs N` is the
    # same job (content key) as a service `seu` job naming only runs.
    plan = {"shards": args.shards or None, "shard_size": args.shard_size,
            "stop_ci": args.stop_ci}
    params = {"scenario_params": {"words": args.words}, "runs": args.runs,
              **{name: value for name, value in plan.items()
                 if value is not None}}
    context = options.job_context(timeout_s=args.timeout,
                                  retries=args.retries)
    table = Table(
        f"SEU campaigns ({args.runs} runs each, seed {options.seed}, "
        f"jobs {options.jobs})",
        ["target", *OUTCOMES, "fail_rate", "wall_s", "mean_ms", "p95_ms"])
    codes = set()
    reports = []
    for scenario in MEMORY_SCENARIOS:
        result = submit(JobSpec(kind="seu",
                                params=dict(params, scenario=scenario),
                                seed=options.seed), context)
        codes.add(result.exit_code)
        mega, report = result.artifact, result.report
        print(f"mega: {mega.summary()}", file=sys.stderr)
        reports.append(report)
        table.add_row(report.name,
                      *(report.counts.get(name, 0) for name in OUTCOMES),
                      round(report.failure_rate, 4),
                      round(mega.wall_s, 3),
                      round(report.latency.mean_s * 1e3, 3),
                      round(report.latency.p95_s * 1e3, 3))
    print(table.render())
    if args.json:
        _write_json(args.json, [report.to_json() for report in reports],
                    "reports")
    if args.json_deterministic:
        _write_json(args.json_deterministic,
                    [report.deterministic_json() for report in reports],
                    "deterministic payloads")
    options.finish(context)
    # The worst runner verdict wins: a crash, then a missed CI target.
    return max(codes, key=(ExitCode.OK, ExitCode.INSUFFICIENT_EVIDENCE,
                           ExitCode.FAILURE).index)


def _cmd_boot(args) -> int:
    from .boot import (BootImage, ImageKind, Bl1Config, RedundancyMode,
                       provision_flash, run_boot_chain)
    from .soc import DDR_BASE, NgUltraSoc, assemble

    soc = NgUltraSoc(engine=args.engine)
    program = assemble("MOVI r0, #42\nHALT", base_address=DDR_BASE)
    app = BootImage(kind=ImageKind.APPLICATION, load_address=DDR_BASE,
                    entry_point=DDR_BASE, payload=program, name="app")
    provision_flash(soc, [app], copies=args.copies)
    options = CommonOptions.from_args(args)
    config = Bl1Config(redundancy=RedundancyMode(args.redundancy))
    context = options.job_context()
    tracer = context.tracer
    result = run_boot_chain(soc, config=config, run_application=True,
                            tracer=tracer)
    print(result.render())
    print(f"\ntotal: {result.total_cycles} cycles "
          f"({result.total_cycles / 600:.1f} us @600MHz)")
    if soc.dbt_cache is not None:
        stats = soc.dbt_cache.stats()
        print(f"dbt: {stats['compiled']} blocks compiled, "
              f"{stats['hits']} hits, "
              f"{stats['invalidations']} invalidations")
        if tracer is not None:
            soc.dbt_cache.publish(tracer)
    options.finish(context)
    return ExitCode.OK if result.bl1.report.success \
        else ExitCode.FAILURE


def _cmd_mission(args) -> int:
    from .apps import mission

    options = CommonOptions.from_args(args)
    context = options.job_context()
    run = mission.run_mission(frames=args.frames,
                              faulty_vbn=args.inject_faults,
                              tracer=context.tracer)
    print(run.hypervisor.summary(run.metrics))
    options.finish(context)
    if run.telemetry:
        last = run.telemetry[-1]
        print(f"\nfinal AOCS pointing error: "
              f"{last['aocs']['pointing_error_rad']:.4f} rad")
    misses = sum(p.deadline_misses
                 for pid, p in run.metrics.partitions.items()
                 if pid != mission.VBN_PID)
    return ExitCode.OK if misses == 0 else ExitCode.FAILURE


def _cmd_lint(args) -> int:
    from .analysis import (
        Analyzer,
        RuleError,
        Severity,
        TargetError,
        example_targets,
        load_baseline,
        render_baseline,
        target_from_file,
    )

    targets = []
    try:
        if args.examples:
            targets.extend(example_targets(deep=args.deep))
        for path_text in args.targets:
            targets.append(target_from_file(Path(path_text)))
    except (TargetError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return ExitCode.USAGE
    if not targets:
        print("error: nothing to lint (pass files or --examples)",
              file=sys.stderr)
        return ExitCode.USAGE
    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline(Path(args.baseline).read_text())
        except (OSError, ValueError) as error:
            print(f"error: baseline {args.baseline}: {error}",
                  file=sys.stderr)
            return ExitCode.USAGE
    rules = [p.strip() for p in args.rules.split(",") if p.strip()] \
        if args.rules else None
    try:
        analyzer = Analyzer(rules=rules, baseline=baseline,
                            jobs=args.jobs, deep=args.deep)
    except RuleError as error:
        print(f"error: {error}", file=sys.stderr)
        return ExitCode.USAGE
    report = analyzer.run(targets)
    if args.write_baseline:
        Path(args.write_baseline).write_text(render_baseline(report))
        print(f"baseline written to {args.write_baseline} "
              f"({len(report.baseline_fingerprints())} findings)",
              file=sys.stderr)
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    fail_on = None if args.fail_on == "never" \
        else Severity.parse(args.fail_on)
    return report.exit_code(fail_on)


def _cmd_qualify(args) -> int:
    from .core.bl1_qualification import run_qualification

    options = CommonOptions.from_args(args)
    context = options.job_context()
    table, report, trl, pack = run_qualification(cache=context.cache)
    print(table.render())
    print(f"\nTRL {trl.level}; datapack complete: {pack.complete}")
    options.finish(context)
    return ExitCode.OK if report.all_passed else ExitCode.FAILURE


def _cmd_cache(args) -> int:
    import json

    from .cache import DiskStore

    store = DiskStore(Path(args.cache_dir))
    if args.action == "stats":
        print(json.dumps({"layers": store.stats(),
                          "entries": store.entry_count(),
                          "bytes": store.total_bytes()},
                         indent=2, sort_keys=True))
        return ExitCode.OK
    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} entrie(s) from {args.cache_dir}")
        return ExitCode.OK
    removed = store.gc(max_bytes=args.max_bytes)
    print(f"gc removed {removed} entrie(s); "
          f"{store.entry_count()} left ({store.total_bytes()} bytes)")
    return ExitCode.OK


def _cmd_serve(args) -> int:
    from .service import JobScheduler, JobServer

    options = CommonOptions.from_args(args)
    context = options.job_context()
    scheduler = JobScheduler(workers=args.workers,
                             max_queue=args.max_queue, cache=context.cache,
                             tracer=context.tracer, job_workers=context.jobs,
                             backend=context.backend).start()
    server = JobServer((args.host, args.port), scheduler,
                       verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"flow service listening on http://{host}:{port} "
          f"({args.workers} worker(s), queue bound {args.max_queue})",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
        scheduler.stop()
        options.finish(context)
    return ExitCode.OK


def _cmd_submit(args) -> int:
    import json

    from .api import JobSpec
    from .service import ServiceClient, ServiceClientError

    options = CommonOptions.from_args(args)
    try:
        params = json.loads(args.params)
    except ValueError as error:
        raise JobSpecError(f"--params is not JSON: {error}")
    if not isinstance(params, dict):
        raise JobSpecError("--params must be a JSON object")
    client = ServiceClient(args.host, args.port)
    try:
        spec = JobSpec(kind=args.kind, params=params,
                       seed=options.seed, priority=args.priority,
                       tenant=args.tenant)
        job = client.submit(spec)
    except ServiceClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return ExitCode.USAGE if error.status == 400 \
            else ExitCode.FAILURE
    origin = ("warm hit" if job["cache_hit"]
              else f"coalesced onto {job['leader_id']}"
              if job["coalesced"] else "scheduled")
    print(f"{job['id']}: {job['state']} ({origin}, key "
          f"{job['key'][:12]}…)", file=sys.stderr)
    if not args.wait:
        print(job["id"])
        return ExitCode.OK
    try:
        final = client.wait(job["id"], timeout_s=args.timeout)
        status, text = client.report(job["id"])
    except ServiceClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return ExitCode.FAILURE
    if final["state"] != "succeeded":
        print(f"job {job['id']} {final['state']}: "
              f"{final.get('error')} (HTTP {status})", file=sys.stderr)
        return ExitCode.FAILURE
    if args.report:
        Path(args.report).write_text(text)
        print(f"report written to {args.report}", file=sys.stderr)
    else:
        print(text)
    return ExitCode(final["exit_code"])


def _cmd_jobs(args) -> int:
    import json

    from .core import Table
    from .service import ServiceClient, ServiceClientError

    client = ServiceClient(args.host, args.port)
    try:
        if args.cancel:
            cancelled = client.cancel(args.cancel)
            print(f"{args.cancel}: "
                  f"{'cancelled' if cancelled else 'not cancelled'}")
            return ExitCode.OK if cancelled else ExitCode.FAILURE
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return ExitCode.OK
        records = client.jobs(tenant=args.tenant, state=args.state)
    except ServiceClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return ExitCode.FAILURE
    table = Table(
        f"jobs on {args.host}:{args.port}",
        ["id", "kind", "tenant", "state", "exit", "origin"])
    for job in records:
        origin = ("warm" if job["cache_hit"]
                  else "coalesced" if job["coalesced"] else "computed")
        table.add_row(job["id"], job["spec"]["kind"],
                      job["spec"]["tenant"], job["state"],
                      "-" if job["exit_code"] is None
                      else job["exit_code"], origin)
    print(table.render())
    return ExitCode.OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HERMES ecosystem tools")
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared option groups, defined once (see CommonOptions).
    jobs_p = _jobs_parent()
    backend_p = _backend_parent()
    seed_p = _seed_parent()
    trace_p = _trace_parent()
    cache_p = _cache_parent()

    hls = sub.add_parser("hls", parents=[trace_p, cache_p],
                         help="synthesize a HermesC source file")
    hls.add_argument("source")
    hls.add_argument("--top", required=True)
    hls.add_argument("--clock", type=float, default=10.0,
                     help="clock period (ns)")
    hls.add_argument("--opt", type=int, default=2, choices=(0, 1, 2, 3))
    hls.add_argument("--out", help="directory for generated RTL")
    hls.set_defaults(func=_cmd_hls)

    eco = sub.add_parser(
        "eco", parents=[seed_p, trace_p, cache_p],
        help="incremental edit-to-bitstream on an implemented design")
    eco.add_argument("--component", default="addsub",
                     help="structural design to implement as the base")
    eco.add_argument("--width", type=int, default=16)
    eco.add_argument("--stages", type=int, default=2)
    eco.add_argument("--synth-cells", type=int, default=0, metavar="N",
                     help="use a random N-cell design instead of "
                          "--component")
    eco.add_argument("--synth-seed", type=int, default=7)
    eco.add_argument("--device", default="NG-ULTRA")
    eco.add_argument("--grid-luts", type=int, default=None,
                     help="scale the device grid to this many LUTs")
    eco.add_argument("--clock", type=float, default=10.0,
                     help="target clock (ns)")
    eco.add_argument("--effort", type=float, default=1.0)
    eco.add_argument("--channel-width", type=int, default=None,
                     help="routing tracks per channel (default: the "
                          "router's default width)")
    eco.add_argument("--delta", metavar="FILE",
                     help="JSON edit script (list of delta ops)")
    eco.add_argument("--edit-fraction", type=float, default=0.01,
                     help="scripted random edit of this cell fraction "
                          "(when --delta is not given)")
    eco.add_argument("--edit-seed", type=int, default=3)
    eco.add_argument("--compare-cold", action="store_true",
                     help="also run the cold flow on the edited design "
                          "and report speedup/QoR metrics")
    eco.add_argument("--json", metavar="PATH",
                     help="write speedup/QoR metrics JSON to PATH")
    eco.add_argument("--report", metavar="PATH",
                     help="write the canonical wire report to PATH "
                          "instead of stdout")
    eco.set_defaults(func=_cmd_eco)

    char = sub.add_parser("characterize",
                          parents=[jobs_p, backend_p, trace_p, cache_p],
                          help="Eucalyptus component characterization")
    char.add_argument("--device", default="NG-ULTRA")
    char.add_argument("--components", default="addsub,logic,comparator")
    char.add_argument("--widths", default="8,16,32")
    char.add_argument("--effort", type=float, default=0.2)
    char.add_argument("--grid-luts", type=int, default=4096)
    char.add_argument("--out", help="XML output file")
    char.add_argument("--json", metavar="PATH",
                      help="also export the runs as canonical JSON")
    char.set_defaults(func=_cmd_characterize)

    seu = sub.add_parser("seu",
                         parents=[jobs_p, backend_p, seed_p, trace_p,
                                  cache_p],
                         help="run the SEU mitigation campaigns")
    seu.add_argument("--runs", type=int, default=400)
    seu.add_argument("--words", type=int, default=64,
                     help="memory size per campaign target")
    seu.add_argument("--timeout", type=_positive_float, default=None,
                     help="per-run timeout (seconds)")
    seu.add_argument("--retries", type=_non_negative_int, default=0,
                     help="retry budget before classifying crash")
    seu.add_argument("--json", metavar="PATH",
                     help="also export the reports as canonical JSON")
    seu.add_argument("--shards", type=int, default=0,
                     help="split each campaign into this many shards "
                          "(0 = shards of 100 runs)")
    seu.add_argument("--shard-size", type=int, default=None,
                     metavar="RUNS",
                     help="runs per shard (keep fixed across "
                          "invocations to resume/extend from a cache)")
    seu.add_argument("--resume", action="store_true",
                     help="resume/extend from --cache-dir shard "
                          "checkpoints (errors without a cache)")
    seu.add_argument("--stop-ci", type=float, default=None,
                     metavar="HALF_WIDTH",
                     help="stop each campaign early once the Wilson "
                          "95%% CI half-width on its failure rate is "
                          "below this (exit 4 if never reached)")
    seu.add_argument("--json-deterministic", metavar="PATH",
                     help="export the execution-independent report "
                          "payloads (byte-identical at any job count, "
                          "shard plan or resume)")
    seu.set_defaults(func=_cmd_seu)

    boot = sub.add_parser("boot", parents=[trace_p],
                          help="run the BL0/BL1/BL2 chain")
    boot.add_argument("--copies", type=int, default=2)
    boot.add_argument("--redundancy", default="sequential",
                      choices=("sequential", "tmr"))
    boot.add_argument("--engine", default="dbt",
                      choices=("dbt", "interp"),
                      help="core execution engine: block-cached DBT "
                           "(default) or the reference decode-per-step "
                           "interpreter")
    boot.set_defaults(func=_cmd_boot)

    mission = sub.add_parser("mission", parents=[trace_p],
                             help="run the virtualized mission")
    mission.add_argument("--frames", type=int, default=30)
    mission.add_argument("--inject-faults", action="store_true")
    mission.set_defaults(func=_cmd_mission)

    qualify = sub.add_parser("qualify", parents=[cache_p],
                             help="BL1 ECSS qualification campaign")
    qualify.set_defaults(func=_cmd_qualify)

    cache = sub.add_parser(
        "cache", help="inspect or maintain an on-disk flow cache")
    cache.add_argument("action", choices=("stats", "clear", "gc"))
    cache.add_argument("--cache-dir", required=True, metavar="DIR",
                       help="cache directory to operate on")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="gc: new size bound for the store")
    cache.set_defaults(func=_cmd_cache)

    lint = sub.add_parser(
        "lint", parents=[jobs_p],
        help="static verification of design artifacts")
    lint.add_argument("targets", nargs="*",
                      help="HermesC sources (.c/.hc) or XM_CF documents "
                           "(.xml)")
    lint.add_argument("--examples", action="store_true",
                      help="also lint the built-in example designs "
                           "(one per layer)")
    lint.add_argument("--deep", action="store_true",
                      help="also run the dataflow-proven rules "
                           "(abstract interpretation + cross-layer "
                           "consistency)")
    lint.add_argument("--rules",
                      help="comma-separated rule id globs "
                           "(e.g. 'netlist.*,xmcf.window-*')")
    lint.add_argument("--format", default="text",
                      choices=("text", "json"))
    lint.add_argument("--fail-on", default="error",
                      choices=("info", "warning", "error", "never"),
                      help="lowest severity producing a non-zero exit")
    lint.add_argument("--baseline",
                      help="JSON baseline of suppressed findings")
    lint.add_argument("--write-baseline",
                      help="write a baseline suppressing every current "
                           "finding")
    lint.set_defaults(func=_cmd_lint)

    service_p = _parent(
        (("--host",), dict(default="127.0.0.1",
                           help="job service host")),
        (("--port",), dict(type=int, default=8321,
                           help="job service port")))

    serve = sub.add_parser(
        "serve", parents=[jobs_p, backend_p, trace_p, cache_p,
                          service_p],
        help="run the multi-tenant flow-as-a-service job server")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent scheduler worker threads")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="bounded queue capacity (429 beyond it)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", parents=[seed_p, service_p],
        help="submit one JobSpec to a running job server")
    submit.add_argument("kind",
                        help=f"job kind ({', '.join(job_kinds())})")
    submit.add_argument("--params", default="{}", metavar="JSON",
                        help="kind-specific params as a JSON object")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--wait", action="store_true",
                        help="block until terminal and print the "
                             "wire report")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait deadline (seconds)")
    submit.add_argument("--report", metavar="PATH",
                        help="with --wait: write the report here "
                             "instead of stdout")
    submit.set_defaults(func=_cmd_submit)

    jobs_cmd = sub.add_parser(
        "jobs", parents=[service_p],
        help="list, inspect or cancel jobs on a running server")
    jobs_cmd.add_argument("--tenant", help="filter by tenant")
    jobs_cmd.add_argument("--state",
                          choices=("queued", "running", "succeeded",
                                   "failed", "cancelled"),
                          help="filter by state")
    jobs_cmd.add_argument("--stats", action="store_true",
                          help="print scheduler statistics as JSON")
    jobs_cmd.add_argument("--cancel", metavar="JOB_ID",
                          help="cancel this job instead of listing")
    jobs_cmd.set_defaults(func=_cmd_jobs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The job service's rule (``JobScheduler._execute``): a spec its
    # runner cannot build from is a usage error; any other exception is
    # a failed run, reported in one line as the service reports the job.
    try:
        return args.func(args)
    except JobSpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return ExitCode.USAGE
    except Exception as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return ExitCode.FAILURE


if __name__ == "__main__":
    sys.exit(main())
