"""Unified job API: one typed :class:`JobSpec` + :func:`submit` facade.

The four flow producers of the ecosystem — HLS synthesis, the NXmap
backend flow, Eucalyptus characterization and the SEU campaigns —
historically each grew their own entry-point signature,
JSON shape and exit-code convention.  This module gives them one job
description and one way to run it:

* :class:`JobSpec` — a typed, canonicalizable description of one job
  (``kind``, ``params``, ``seed``) plus scheduling metadata (``tenant``,
  ``priority``).  ``spec.content_key()`` is the PR-4 content-addressed
  identity of the computation: two specs with equal kind/params/seed
  *are* the same job, which is what lets the service coalesce identical
  submissions from different tenants onto one in-flight computation.
* :func:`submit` — runs a spec through the registered *runner* for its
  kind and returns a :class:`JobResult` (itself Report-conforming),
  carrying the producer's report, a consolidated :class:`ExitCode` and
  the live artifact (HLS project, ECO flow, Eucalyptus tool...).
* :class:`ExitCode` — the one documented exit-code enum.  The CLI
  returns these values; the service maps them onto HTTP statuses via
  :func:`http_status`.

Each runner builds its live objects (netlists, projects, campaign
closures) from ``params`` alone and calls the producer's public entry
point — ``repro.hls.synthesize``, ``NXmapProject.run_all``,
``EcoFlow.run``, ``Eucalyptus.sweep``, ``MegaCampaign.run`` — so a job
computes exactly what its content key names.  The ``seu`` and ``mega``
kinds are one runner that differs only in the report it serves: the
merged :class:`~repro.radhard.CampaignReport` or the whole
:class:`~repro.radhard.MegaReport`.  Library callers call those entry
points directly; the job service and the CLI
(``repro hls``/``eco``/``characterize``/``seu``) run every job through
this facade.  Each kind's exit rule therefore
lives once, in its runner, and both front doors map a runner's
:class:`JobSpecError` (an input it cannot build from) to ``USAGE``.

Runners for new job kinds can be registered with :func:`register_kind`
(the service's test suite registers synthetic slow/failing kinds this
way).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .cache import CacheKeyError, FlowCache, canonicalize, content_key
from .telemetry import Tracer


class ApiError(Exception):
    """Job API misuse."""


class JobSpecError(ApiError):
    """A malformed or unprocessable job specification."""


# -- exit codes -------------------------------------------------------------


class ExitCode(IntEnum):
    """The consolidated process exit codes of every ``repro`` command.

    * ``OK`` — the job ran and its verdict is clean;
    * ``FAILURE`` — the job ran but the workload failed (campaign
      crashes, boot failure, lint findings at/above the gate);
    * ``USAGE`` — the invocation itself was invalid (unknown rule,
      missing cache for ``--resume``, malformed spec);
    * ``INSUFFICIENT_EVIDENCE`` — a statistics-gated campaign ended
      before reaching its confidence target (``seu --stop-ci``).

    The service maps the same enum onto HTTP statuses with
    :func:`http_status`, so a CLI caller and an HTTP client read the
    same verdict.
    """

    OK = 0
    FAILURE = 1
    USAGE = 2
    INSUFFICIENT_EVIDENCE = 4


#: ExitCode -> HTTP status served by the job server's report endpoint.
HTTP_STATUS_BY_EXIT: Dict[ExitCode, int] = {
    ExitCode.OK: 200,
    ExitCode.FAILURE: 422,
    ExitCode.USAGE: 400,
    ExitCode.INSUFFICIENT_EVIDENCE: 424,
}


def http_status(code: ExitCode) -> int:
    """The HTTP status the service serves for a job exit code."""
    return HTTP_STATUS_BY_EXIT.get(ExitCode(code), 500)


# -- the job spec -----------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """One job submission: what to compute, plus scheduling metadata.

    ``kind`` selects the registered runner; ``params`` are the
    kind-specific inputs and must be canonicalizable (JSON scalars,
    lists, dicts, dataclasses — see :func:`repro.cache.canonicalize`);
    ``seed`` is the deterministic campaign/flow seed.  ``tenant`` and
    ``priority`` are *scheduling* metadata: they are deliberately
    excluded from :meth:`content_key`, which is exactly what makes
    identical submissions from different tenants coalesce onto one
    computation.
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 13
    priority: int = 0
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise JobSpecError("spec.kind must be a non-empty string")
        if not isinstance(self.tenant, str) or not self.tenant:
            raise JobSpecError("spec.tenant must be a non-empty string")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise JobSpecError("spec.seed must be an int")
        if not isinstance(self.priority, int) \
                or isinstance(self.priority, bool):
            raise JobSpecError("spec.priority must be an int")
        try:
            object.__setattr__(self, "params",
                               canonicalize(dict(self.params)))
        except (CacheKeyError, TypeError, ValueError) as error:
            raise JobSpecError(f"spec.params not canonicalizable: {error}")

    def content_key(self) -> str:
        """Content-addressed identity of this computation.

        Covers kind, params, seed and the kind's runner version —
        everything that determines the result — and nothing about who
        asked or how urgently.
        """
        material = {"kind": self.kind, "params": self.params,
                    "seed": self.seed}
        if self.kind in _RUNNER_VERSIONS:
            material["runner"] = _RUNNER_VERSIONS[self.kind]
        return content_key("job", material)

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.params,
                "seed": self.seed, "priority": self.priority,
                "tenant": self.tenant}

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "JobSpec":
        if not isinstance(payload, Mapping):
            raise JobSpecError("job spec payload must be an object")
        if "kind" not in payload:
            raise JobSpecError("job spec payload missing 'kind'")
        unknown = set(payload) - {"kind", "params", "seed", "priority",
                                  "tenant"}
        if unknown:
            raise JobSpecError(
                f"unknown job spec field(s): {', '.join(sorted(unknown))}")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise JobSpecError("spec.params must be an object")
        return cls(kind=payload["kind"], params=dict(params),
                   seed=payload.get("seed", 13),
                   priority=payload.get("priority", 0),
                   tenant=payload.get("tenant", "default"))


# -- execution context and result -------------------------------------------


@dataclass
class JobContext:
    """How to run a job: execution knobs, never inputs.

    Everything that shapes the result is in the spec's ``params``, so
    the content key covers it.
    """

    jobs: int = 1
    backend: str = "auto"
    timeout_s: Optional[float] = None
    retries: int = 0
    progress: Optional[Callable[[int, int], None]] = None
    tracer: Optional[Tracer] = None
    cache: Optional[FlowCache] = None


@dataclass
class JobResult:
    """Outcome of one submitted job (conforms to the Report protocol).

    ``report`` is the producer's own Report object; ``artifact`` is the
    richer live object behind it (the HLS project, the Eucalyptus
    tool...).  ``exit_code`` is the consolidated verdict.
    """

    spec: JobSpec
    report: Any
    exit_code: ExitCode = ExitCode.OK
    artifact: Any = None
    key: str = ""
    wall_s: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        from .core.report import report_kind
        return {
            "spec": self.spec.to_json(),
            "key": self.key,
            "exit_code": int(self.exit_code),
            "report_kind": report_kind(self.report),
            "report": self.report.to_json(),
        }

    def summary(self) -> str:
        return (f"[{self.spec.kind}] exit={int(self.exit_code)} "
                f"{self.report.summary()}")


@dataclass
class JobOutcome:
    """What a runner hands back to :func:`submit`."""

    report: Any
    exit_code: ExitCode = ExitCode.OK
    artifact: Any = None


Runner = Callable[[JobSpec, JobContext], JobOutcome]

_RUNNERS: Dict[str, Runner] = {}

#: Runner versions salted into a kind's job keys; a kind not listed is
#: at version 1, whose keys predate runner versions.  Bump a kind's
#: version when its runner starts computing a different answer for an
#: unchanged spec, so a persisted service entry of the older runner
#: misses.  ``seu``/``mega`` 2: one engine with a plan from ``runs``
#: alone.  Before it, a ``mega`` job without plan params split into
#: ``jobs * 4`` shards (its early-stop point followed the job count)
#: and a ``seu`` job ignored ``shards`` and ``stop_ci``.  ``eco`` 2:
#: ``ECO_KERNEL_VERSION`` 3, whose cone STA is exact.
_RUNNER_VERSIONS: Dict[str, int] = {"seu": 2, "mega": 2, "eco": 2}


def register_kind(kind: str, runner: Optional[Runner] = None):
    """Register ``runner`` for job ``kind`` (usable as a decorator)."""

    def install(fn: Runner) -> Runner:
        _RUNNERS[kind] = fn
        return fn

    if runner is not None:
        return install(runner)
    return install


def unregister_kind(kind: str) -> None:
    """Remove a registered kind (test cleanup)."""
    _RUNNERS.pop(kind, None)


def job_kinds() -> Tuple[str, ...]:
    """Every registered job kind, sorted."""
    return tuple(sorted(_RUNNERS))


def submit(spec: JobSpec, context: Optional[JobContext] = None,
           **options: Any) -> JobResult:
    """Run ``spec`` through its kind's runner and return the result.

    The job service's workers call this for every job; so can any
    caller holding a :class:`JobSpec`.  ``options`` are
    :class:`JobContext` fields for convenience (``submit(spec,
    cache=..., jobs=4)``).  Producer exceptions propagate unchanged —
    the service layer is what turns them into failed-job states.
    """
    if context is None:
        context = JobContext(**options)
    elif options:
        raise ApiError("pass either a JobContext or keyword options, "
                       "not both")
    runner = _RUNNERS.get(spec.kind)
    if runner is None:
        raise JobSpecError(
            f"unknown job kind {spec.kind!r} "
            f"(known: {', '.join(job_kinds())})")
    start = time.perf_counter()
    outcome = runner(spec, context)
    return JobResult(spec=spec, report=outcome.report,
                     exit_code=outcome.exit_code,
                     artifact=outcome.artifact,
                     key=spec.content_key(),
                     wall_s=time.perf_counter() - start)


# -- HLS job report ---------------------------------------------------------


@dataclass
class HlsJobReport:
    """JSON-able summary of one HLS synthesis job.

    The live :class:`~repro.hls.flow.HlsProject` carries IR objects with
    no JSON codec; this is the wire-format projection the service (and
    the ``hls`` job kind) serves: per-function resource/state summary
    plus content hashes of every generated RTL file.
    """

    top: str
    clock_ns: float
    functions: Dict[str, Dict[str, int]]
    states: int
    static_latency: Optional[int]
    verilog_sha256: Dict[str, str]

    @classmethod
    def from_project(cls, project) -> "HlsJobReport":
        design = project.top_design
        hashes = {
            name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in sorted(project.verilog_files().items())}
        return cls(top=project.top, clock_ns=project.clock_ns,
                   functions=project.resource_summary(),
                   states=design.state_count,
                   static_latency=design.static_latency(),
                   verilog_sha256=hashes)

    def to_json(self) -> Dict[str, Any]:
        return {
            "top": self.top,
            "clock_ns": self.clock_ns,
            "functions": {name: dict(sorted(stats.items()))
                          for name, stats in sorted(self.functions.items())},
            "states": self.states,
            "static_latency": self.static_latency,
            "verilog_sha256": dict(sorted(self.verilog_sha256.items())),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "HlsJobReport":
        return cls(top=payload["top"], clock_ns=payload["clock_ns"],
                   functions={name: dict(stats) for name, stats
                              in payload["functions"].items()},
                   states=payload["states"],
                   static_latency=payload.get("static_latency"),
                   verilog_sha256=dict(payload["verilog_sha256"]))

    def summary(self) -> str:
        area = self.functions.get(self.top, {})
        return (f"hls {self.top}: {self.states} states, "
                f"latency {self.static_latency}, "
                f"{area.get('luts', 0)} LUTs, {area.get('ffs', 0)} FFs")


# -- built-in runners -------------------------------------------------------


def _require(params: Mapping[str, Any], *names: str) -> None:
    missing = [name for name in names if name not in params]
    if missing:
        raise JobSpecError(
            f"job params missing required field(s): "
            f"{', '.join(missing)}")


def _device_from(value: Any, grid_luts: Optional[int] = None):
    """Build a Device from params: a family name or an asdict payload."""
    from .fabric.device import Device, get_device, scaled_device
    if isinstance(value, Mapping):
        try:
            device = Device(**dict(value))
        except TypeError as error:
            raise JobSpecError(f"malformed device payload: {error}")
    else:
        try:
            device = get_device(str(value))
        except KeyError as error:
            raise JobSpecError(str(error.args[0]))
    if grid_luts:
        device = scaled_device(device, f"{device.name}-job{grid_luts}",
                               int(grid_luts))
    return device


@register_kind("hls")
def _run_hls(spec: JobSpec, ctx: JobContext) -> JobOutcome:
    """params: source, top, [clock_ns, opt_level, scheduling,
    axi_read_latency].  Jobs run on the default component library."""
    from .hls.flow import synthesize
    params = spec.params
    _require(params, "source", "top")
    if params.get("library") is not None:
        raise JobSpecError("hls jobs run on the default component "
                           "library; 'library' must be null")
    project = synthesize(
        params["source"], params["top"],
        clock_ns=params.get("clock_ns", 10.0),
        opt_level=params.get("opt_level", 2),
        scheduling=params.get("scheduling", "list"),
        axi_read_latency=params.get("axi_read_latency"),
        tracer=ctx.tracer, cache=ctx.cache)
    return JobOutcome(report=HlsJobReport.from_project(project),
                      artifact=project)


def _check_components(names) -> None:
    from .fabric.synthesis import supported_components
    unknown = sorted(set(names) - set(supported_components()))
    if unknown:
        raise JobSpecError(f"unknown component(s): {', '.join(unknown)}")


def _component_netlist(params: Mapping[str, Any]):
    """The ``component``/``width``/``stages`` design of a fabric job."""
    from .fabric.synthesis import synthesize_component
    _require(params, "component")
    _check_components([params["component"]])
    return synthesize_component(params["component"],
                                params.get("width", 16),
                                params.get("stages", 0))


def eco_base_netlist(params: Mapping[str, Any]):
    """The base design of an ``eco`` job, which the CLI draws edits on."""
    if "synth_cells" in params:
        from .fabric.synthesis import synthesize_random
        return synthesize_random(int(params["synth_cells"]),
                                 seed=params.get("synth_seed", 7))
    return _component_netlist(params)


def _project_from(spec: JobSpec, ctx: JobContext, netlist):
    """An NXmap project for ``netlist`` on the job's ``device`` (name or
    asdict) scaled to ``grid_luts``."""
    from .fabric.nxmap import FlowError, NXmapProject
    device = _device_from(spec.params.get("device", "NG-ULTRA"),
                          spec.params.get("grid_luts"))
    try:
        return NXmapProject(netlist, device, seed=spec.seed,
                            tracer=ctx.tracer, cache=ctx.cache)
    except FlowError as error:
        raise JobSpecError(str(error))


@register_kind("flow")
def _run_flow(spec: JobSpec, ctx: JobContext) -> JobOutcome:
    """params: component/width/stages + device (name or asdict) +
    [grid_luts, target_clock_ns, effort, channel_width]."""
    from .fabric.routing import DEFAULT_CHANNEL_WIDTH
    params = spec.params
    project = _project_from(spec, ctx, _component_netlist(params))
    report = project.run_all(
        target_clock_ns=params.get("target_clock_ns", 10.0),
        effort=params.get("effort", 1.0),
        channel_width=params.get("channel_width", DEFAULT_CHANNEL_WIDTH))
    return JobOutcome(report=report, artifact=project)


@register_kind("eco")
def _run_eco(spec: JobSpec, ctx: JobContext) -> JobOutcome:
    """params: delta (canonical op list) + the base design —
    ``component``/``width``/``stages`` or ``synth_cells``/``synth_seed``
    — plus [device, grid_luts, target_clock_ns, effort, channel_width].

    The base flow's cached stages are reused when the cache holds them
    and recomputed cold otherwise; either way the ECO stage keys chain
    off the (re)computed base keys, so a repeated identical submission
    is a warm cache hit with a byte-identical report.  Progress
    ``(1, 2)`` marks the prepared base and ``(2, 2)`` the finished edit.
    """
    from .fabric.eco import DeltaError, EcoFlow, NetlistDelta
    from .fabric.netlist import NetlistError
    from .fabric.nxmap import FlowError
    from .fabric.routing import DEFAULT_CHANNEL_WIDTH
    params = spec.params
    _require(params, "delta")
    try:
        delta = NetlistDelta.from_json(params["delta"])
    except DeltaError as error:
        raise JobSpecError(f"bad eco delta: {error}")
    flow = EcoFlow(_project_from(spec, ctx, eco_base_netlist(params)),
                   delta)
    effort = params.get("effort", 1.0)
    channel_width = params.get("channel_width", DEFAULT_CHANNEL_WIDTH)
    progress = ctx.progress or (lambda completed, total: None)
    flow.prepare_base(effort=effort, channel_width=channel_width)
    progress(1, 2)
    try:
        report = flow.run(
            target_clock_ns=params.get("target_clock_ns", 10.0),
            effort=effort, channel_width=channel_width)
    except (DeltaError, NetlistError, FlowError) as error:
        raise JobSpecError(f"eco delta not applicable: {error}")
    progress(2, 2)
    routing = report.flow.routing
    code = ExitCode.FAILURE if routing is not None \
        and routing.failed_connections else ExitCode.OK
    return JobOutcome(report=report, exit_code=code, artifact=flow)


@register_kind("characterize")
def _run_characterize(spec: JobSpec, ctx: JobContext) -> JobOutcome:
    """params: device (name or asdict) + [grid_luts, effort, components,
    widths, stages]; the artifact is the :class:`Eucalyptus` tool."""
    from .hls.characterization.eucalyptus import (
        DEFAULT_STAGES,
        DEFAULT_WIDTHS,
        Eucalyptus,
        SweepReport,
    )
    params = spec.params
    _check_components(params.get("components") or ())
    device = _device_from(params.get("device", "NG-ULTRA"),
                          params.get("grid_luts"))
    tool = Eucalyptus(device=device, seed=spec.seed,
                      effort=params.get("effort", 0.3),
                      tracer=ctx.tracer, cache=ctx.cache)
    runs = tool.sweep(
        components=params.get("components"),
        widths=params.get("widths", DEFAULT_WIDTHS),
        stages=params.get("stages", DEFAULT_STAGES),
        jobs=ctx.jobs, backend=ctx.backend, timeout_s=ctx.timeout_s,
        retries=ctx.retries, progress=ctx.progress)
    report = SweepReport(device=tool.device.name, effort=tool.effort,
                         runs=list(runs))
    return JobOutcome(report=report, artifact=tool)


def _campaign_from(spec: JobSpec):
    """The scenario campaign of an ``seu``/``mega`` job: params
    scenario (factory id) + [scenario_params, upsets_per_run]."""
    from .radhard.scenarios import build_scenario
    params = spec.params
    _require(params, "scenario")
    factory_params = dict(params.get("scenario_params") or {})
    try:
        campaign = build_scenario(params["scenario"], **factory_params)
    except KeyError as error:
        raise JobSpecError(str(error.args[0]))
    except TypeError as error:
        raise JobSpecError(f"bad scenario_params: {error}")
    upsets = params.get("upsets_per_run")
    if upsets is not None and upsets != campaign.upsets_per_run:
        raise JobSpecError(
            f"scenario {params['scenario']!r} injects "
            f"{campaign.upsets_per_run} upset(s) per run, not {upsets!r}")
    return campaign


def _run_campaign(spec: JobSpec, ctx: JobContext) -> JobOutcome:
    """The ``seu`` and ``mega`` kinds.  params: the scenario (see
    :func:`_campaign_from`) + runs + [shards, shard_size, stop_ci,
    stop_outcomes, min_stop_shards].

    Both run :meth:`MegaCampaign.run` (the artifact is its
    :class:`~repro.radhard.MegaReport`); ``seu`` reports the merged
    campaign report, ``mega`` the mega report.
    """
    from .radhard.mega import FAILURE_OUTCOMES, MegaCampaign
    params = spec.params
    _require(params, "runs")
    mega = MegaCampaign(_campaign_from(spec), cache=ctx.cache,
                        tracer=ctx.tracer)
    result = mega.run(
        int(params["runs"]), seed=spec.seed, jobs=ctx.jobs,
        backend=ctx.backend, shards=params.get("shards"),
        shard_size=params.get("shard_size"),
        timeout_s=ctx.timeout_s, retries=ctx.retries,
        stop_ci=params.get("stop_ci"),
        stop_outcomes=tuple(params.get("stop_outcomes")
                            or FAILURE_OUTCOMES),
        min_stop_shards=params.get("min_stop_shards", 2),
        progress=ctx.progress)
    # A crash outranks a missed CI target.
    if result.report.counts.get("crash", 0):
        code = ExitCode.FAILURE
    elif not result.reached_target:
        code = ExitCode.INSUFFICIENT_EVIDENCE
    else:
        code = ExitCode.OK
    report = result if spec.kind == "mega" else result.report
    return JobOutcome(report=report, exit_code=code, artifact=result)


register_kind("seu", _run_campaign)
register_kind("mega", _run_campaign)


__all__ = [
    "ApiError", "ExitCode", "HTTP_STATUS_BY_EXIT", "HlsJobReport",
    "JobContext", "JobOutcome", "JobResult", "JobSpec", "JobSpecError",
    "Runner", "eco_base_netlist", "http_status", "job_kinds",
    "register_kind", "submit", "unregister_kind",
]
