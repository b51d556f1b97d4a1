"""Which program calls the traced run times, and what each should move.

:func:`install` rebinds, for the length of one traced run, the module
and class attributes the orchestrators look up at call time.  Nothing
under ``src/`` changes: the wrappers sit between a caller and the
function it names, so every span measures one call into a layer's
public entry point from outside.

``SPANS`` and ``COUNTS`` are the per-layer metrics of ``BENCHMARK.json``
(in that order, after ``HARNESS``).  The text beside each is the
end-to-end metric, and the workload, that a change to that layer should
move — written down before anything was optimized, as the benchmark's
prediction.
"""

from __future__ import annotations

import re
from typing import Any, List, Tuple

from spans import Patcher, Recorder

#: (span name, what a faster layer should move).  A span reports
#: ``<name>.self_s`` (s) and ``<name>.calls`` (count).
SPANS: List[Tuple[str, str]] = [
    ("api.submit", "op_p50_ms/work_per_s on hls_dse (facade self time)"),
    ("hls.frontend", "op_p50_ms/work_per_s on hls_dse"),
    ("hls.optimize", "op_p50_ms/work_per_s on hls_dse"),
    ("hls.allocate", "op_p50_ms/work_per_s on hls_dse"),
    ("hls.schedule", "op_p50_ms/work_per_s on hls_dse"),
    ("hls.bind", "op_p50_ms/work_per_s on hls_dse"),
    ("hls.fsm", "op_p50_ms/work_per_s on hls_dse"),
    ("hls.verilog", "op_p50_ms/work_per_s on hls_dse"),
    ("hls.simulate", "op_p50_ms/work_per_s on hls_dse"),
    ("hls.interp", "op_p50_ms/work_per_s on hls_dse"),
    ("fabric.synth", "work_per_s on compile_cold (below 1% at seed)"),
    ("fabric.place", "work_per_s/op_p50_ms on compile_cold; "
                     "no change on eco_edits"),
    ("fabric.route", "work_per_s on compile_cold; op_p50_ms on eco_edits"),
    ("fabric.sta", "work_per_s on compile_cold (below 1% at seed)"),
    ("fabric.bitstream", "work_per_s on compile_cold; op_p50_ms on "
                         "eco_edits"),
    ("fabric.eco", "op_p50_ms on eco_edits (delta apply, shadow "
                   "project, report)"),
    ("fabric.eco_place", "op_p50_ms on eco_edits"),
    ("fabric.sta_cone", "op_p50_ms on eco_edits"),
    ("exec.dispatch", "work_per_s on seu_campaign (fold + checkpoint)"),
    ("exec.run_shard", "work_per_s on seu_campaign"),
    ("cache.disk_get", "work_per_s on seu_campaign; op_tail_ms/work_per_s "
                       "on service_restart"),
    ("cache.disk_put", "work_per_s on seu_campaign; op_tail_ms on "
                       "service_restart"),
    ("service.client_submit", "op_p50_ms/work_per_s on service_restart "
                              "(client + transport)"),
    ("service.client_report", "op_p50_ms/work_per_s on service_restart "
                              "(client + transport)"),
    ("service.http_submit", "op_p50_ms/work_per_s on service_restart"),
    ("service.http_report", "op_tail_ms on service_restart (long-poll "
                            "wait)"),
    ("service.admit", "op_p50_ms/work_per_s on service_restart"),
    ("service.run", "op_tail_ms on service_restart (fresh specs)"),
    ("service.serialize", "op_tail_ms on service_restart"),
    ("hypervisor.setup", "work_per_s on soc_boot"),
    ("soc.init", "work_per_s on soc_boot"),
    ("boot.provision", "work_per_s on soc_boot"),
    ("boot.bl0", "work_per_s on soc_boot"),
    ("boot.bl1", "work_per_s on soc_boot"),
    ("boot.bl2", "work_per_s on soc_boot"),
    ("soc.run_all", "work_per_s on soc_boot (DBT execute + compile)"),
]

#: Per-run callbacks timed as sum + count rather than spans.
TIMED: List[Tuple[str, str]] = [
    ("radhard.setup", "work_per_s on seu_campaign"),
    ("radhard.inject", "work_per_s on seu_campaign"),
    ("radhard.evaluate", "work_per_s on seu_campaign"),
]

#: (name, unit, better, what it explains).  Work counts read from the
#: public result objects at the layer boundary, plus cache and service
#: state.
COUNTS: List[Tuple[str, str, str, str]] = [
    ("fabric.place.moves", "count", "lower",
     "placement work on compile_cold"),
    ("fabric.route.expanded_nodes", "count", "lower",
     "routing work on compile_cold and eco_edits"),
    ("fabric.route.ripped_connections", "count", "lower", "rip-up work"),
    ("fabric.eco_place.cells_moved", "count", "lower", "ECO disturbance"),
    ("fabric.sta_cone.cone_cells", "count", "lower",
     "incremental STA work"),
    ("cache.index_bytes", "B", "lower",
     "cache metadata size at the end of the run (service_restart, "
     "seu_campaign)"),
    ("cache.hit_ratio.service", "ratio", "higher",
     "warm share on service_restart"),
    ("cache.hit_ratio.mega", "ratio", "higher",
     "checkpoint reuse on seu_campaign (0: every campaign seed is fresh)"),
    ("service.queue_wait_s", "s", "lower",
     "admit return to worker start, summed"),
    ("service.warm_hits", "count", "higher", "requests served from the "
                                             "cache"),
    ("service.computed", "count", "lower", "requests computed"),
    ("service.coalesced", "count", "higher",
     "requests that joined an in-flight job"),
    ("service.rejected", "count", "lower",
     "requests refused by backpressure"),
    ("soc.dbt.blocks_compiled", "count", "lower", "DBT translations"),
    ("soc.dbt.block_hits", "count", "higher", "DBT cache hits"),
    ("soc.dbt.invalidations", "count", "lower", "DBT invalidations"),
    ("hypervisor.traps", "count", "lower", "guest SVC traps"),
]

#: Harness-level metrics of the traced run.
HARNESS: List[Tuple[str, str, str, str]] = [
    ("op.unattributed_s", "s", "lower", "op wall time no layer span covers"),
    ("op.attributed", "ratio", "higher",
     "share of op wall time in layer spans"),
    ("traced.op_p50_ms", "ms", "lower",
     "op_p50_ms with tracing on (overhead)"),
    ("traced.work_per_s", "1/s", "higher",
     "work_per_s with tracing on (overhead)"),
    ("host.speed", "ratio", "higher",
     "median host speed over the run, relative to the reference host"),
]


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in order."""
    metrics = [(name, unit, better) for name, unit, better, _ in HARNESS]
    for name, _ in SPANS + TIMED:
        metrics.append((f"{name}.self_s", "s", "lower"))
        metrics.append((f"{name}.calls", "count", "lower"))
    metrics += [(name, unit, better) for name, unit, better, _ in COUNTS]
    return metrics


_REPORT_PATH = re.compile(r"^/v1/jobs/([^/?]+)/report")


def install(patcher: Patcher, recorder: Recorder) -> None:
    """Wrap every layer entry point the workloads reach."""
    import repro.api
    import repro.boot.chain
    import repro.cache.store
    import repro.core.project
    import repro.exec.sharding
    import repro.fabric.eco
    import repro.fabric.nxmap
    import repro.hls.flow
    import repro.hls.ir.interp
    import repro.radhard.mega
    import repro.service.client
    import repro.service.scheduler
    import repro.service.server
    import repro.soc.soc

    def span(owner: Any, attribute: str, name: str, on_result=None):
        patcher.patch(owner, attribute,
                      lambda fn: recorder.wrap(fn, name, on_result))

    hls = repro.hls.flow
    span(repro.api, "submit", "api.submit")
    span(hls, "compile_to_ir", "hls.frontend")
    span(hls, "optimize", "hls.optimize")
    span(hls, "allocate", "hls.allocate")
    span(hls, "schedule_function", "hls.schedule")
    span(hls, "bind", "hls.bind")
    span(hls, "build_fsm", "hls.fsm")
    span(hls, "generate_verilog", "hls.verilog")
    span(hls.HlsProject, "simulate", "hls.simulate")
    span(repro.hls.ir.interp.Interpreter, "run", "hls.interp")

    def placed(result) -> None:
        recorder.count("fabric.place.moves", result.stats.get("moves", 0))

    def routed(result) -> None:
        recorder.count("fabric.route.expanded_nodes", result.expanded_nodes)
        recorder.count("fabric.route.ripped_connections",
                       result.ripped_connections)

    def eco_placed(result) -> None:
        recorder.count("fabric.eco_place.cells_moved",
                       result.stats.get("moved", 0))

    def cone_timed(result) -> None:
        recorder.count("fabric.sta_cone.cone_cells", result[2])

    nxmap, eco = repro.fabric.nxmap, repro.fabric.eco
    span(repro.core.project, "synthesize_design", "fabric.synth")
    span(nxmap, "place", "fabric.place", placed)
    span(nxmap, "route", "fabric.route", routed)
    span(eco, "route", "fabric.route", routed)
    span(nxmap, "analyze_timing", "fabric.sta")
    span(nxmap, "generate_bitstream", "fabric.bitstream")
    span(eco.EcoFlow, "run", "fabric.eco")
    span(eco, "eco_place", "fabric.eco_place", eco_placed)
    span(eco, "analyze_timing_cone", "fabric.sta_cone", cone_timed)

    span(repro.radhard.mega, "run_sharded", "exec.dispatch")
    span(repro.exec.sharding, "run_shard", "exec.run_shard")
    span(repro.cache.store.DiskStore, "get", "cache.disk_get")
    span(repro.cache.store.DiskStore, "put", "cache.disk_put")

    _install_service(patcher, recorder, span, repro.service)

    span(repro.boot.chain, "run_bl0", "boot.bl0")
    span(repro.boot.chain, "run_bl1", "boot.bl1")
    span(repro.boot.chain, "run_bl2", "boot.bl2")
    span(repro.soc.soc.NgUltraSoc, "run_all", "soc.run_all")


def _install_service(patcher: Patcher, recorder: Recorder, span,
                     service: Any) -> None:
    """Service spans, correlated to the client request that caused them.

    Two client threads run concurrently, so server-side spans cannot
    take "the current op".  Each client has its own tenant and one
    request in flight, so it links its tenant to its op before
    submitting; admission claims the handler span for that op and links
    the job id for the report long-poll, and the worker running a job
    finds the op through the job's tenant.
    """
    handler = service.server.JobServiceHandler
    scheduler = service.scheduler

    span(service.client.ServiceClient, "submit", "service.client_submit")
    span(service.client.ServiceClient, "report", "service.client_report")
    span(scheduler, "submit", "api.submit")
    span(scheduler, "report_json_text", "service.serialize")

    def traced_post(original):
        def do_post(self):
            if not recorder.on:
                return original(self)
            name = ("service.http_submit"
                    if self.path.rstrip("/") == "/v1/jobs"
                    else "service.http_other")
            current = recorder.begin(name)
            try:
                return original(self)
            finally:
                recorder.end(current)
        return do_post

    def traced_get(original):
        def do_get(self):
            if not recorder.on:
                return original(self)
            match = _REPORT_PATH.match(self.path)
            if match is None:
                current = recorder.begin("service.http_other")
            else:
                current = recorder.begin(
                    "service.http_report",
                    op=recorder.linked(("job", match.group(1))))
            try:
                return original(self)
            finally:
                recorder.end(current)
        return do_get

    def traced_admit(original):
        def admit(self, spec):
            if not recorder.on:
                return original(self, spec)
            op = recorder.linked(("tenant", spec.tenant))
            recorder.claim(op)
            current = recorder.begin("service.admit")
            try:
                record = original(self, spec)
            finally:
                recorder.end(current)
            recorder.link(("job", record.id), op)
            recorder.link(("admitted", record.id), current.end)
            return record
        return admit

    def traced_execute(original):
        def execute(self, record):
            if not recorder.on:
                return original(self, record)
            current = recorder.begin(
                "service.run",
                op=recorder.linked(("tenant", record.spec.tenant)))
            # Unset when the worker picked the job up before admission
            # returned: it waited no time in the queue.
            admitted = recorder.linked(("admitted", record.id))
            if admitted is not None:
                recorder.count("service.queue_wait_s",
                               max(0, current.start - admitted) / 1e9)
            try:
                return original(self, record)
            finally:
                recorder.end(current)
        return execute

    patcher.patch(handler, "do_POST", traced_post)
    patcher.patch(handler, "do_GET", traced_get)
    patcher.patch(scheduler.JobScheduler, "submit", traced_admit)
    patcher.patch(scheduler.JobScheduler, "_execute", traced_execute)
