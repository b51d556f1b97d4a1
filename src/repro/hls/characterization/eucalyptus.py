"""Eucalyptus: component pre-characterization through the fabric flow.

Paper §II: "Bambu integrates a characterization tool called Eucalyptus to
synthesize different configurations of library components and collect the
resulting latency and resource consumption metrics as XML files in the
Bambu library.  The configurations are obtained by specializing a generic
template of the resource component according to the bit widths of its
input and output arguments, and to the number of pipeline stages."

This module does exactly that against the NXmap-equivalent backend: every
(component, width, stages) configuration is synthesized structurally,
placed, routed and timed on the target device; the measured delay and
resource counts become :class:`ComponentRecord` entries, exported as XML.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ...cache import FlowCache, content_key, device_fingerprint
from ...exec import ExecError, RunResult, ShardResult, plan_shards, \
    run_sharded
from ...fabric import nxmap
from ...fabric.device import Device, NG_ULTRA
from ...fabric.nxmap import NXmapProject
from ...fabric.synthesis import supported_components, synthesize_component
from ...telemetry import Tracer
from .library import ComponentLibrary, ComponentRecord

DEFAULT_WIDTHS = (8, 16, 32)
DEFAULT_STAGES = (0, 2)
#: The fixed placement seed of every configuration a sweep characterizes.
DEFAULT_SEED = 7

# Components whose template ignores the stages parameter.
_COMBINATIONAL_ONLY = {"logic", "shifter", "comparator", "mux"}
# Sequential-by-construction components (latency fixed by the template).
_FIXED_LATENCY = {"divider", "mem_bram"}


@dataclass
class CharacterizationRun:
    """Result of characterizing one configuration."""

    component: str
    width: int
    stages: int
    delay_ns: float
    luts: int
    ffs: int
    dsps: int
    brams: int
    wirelength: int

    def to_record(self) -> ComponentRecord:
        return ComponentRecord(
            resource_class=self.component, width=self.width,
            stages=self.stages, delay_ns=self.delay_ns, luts=self.luts,
            ffs=self.ffs, dsps=self.dsps, brams=self.brams)

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "CharacterizationRun":
        return cls(**{name: payload[name]
                      for name in ("component", "width", "stages",
                                   "delay_ns", "luts", "ffs", "dsps",
                                   "brams", "wirelength")})

    def summary(self) -> str:
        return (f"{self.component}/w{self.width}/s{self.stages}: "
                f"{self.delay_ns:.3f} ns, {self.luts} LUTs, "
                f"{self.ffs} FFs, {self.dsps} DSPs, {self.brams} BRAMs")


@dataclass
class SweepReport:
    """JSON-able result of one characterization sweep.

    The wire-format report the ``characterize`` job kind returns: the
    target device, the sweep effort and every configuration's measured
    run, in configuration order.
    """

    device: str
    effort: float
    runs: List[CharacterizationRun]

    def to_json(self) -> Dict[str, Any]:
        return {"device": self.device, "effort": self.effort,
                "runs": [run.to_json() for run in self.runs]}

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "SweepReport":
        return cls(device=payload["device"], effort=payload["effort"],
                   runs=[CharacterizationRun.from_json(entry)
                         for entry in payload["runs"]])

    def summary(self) -> str:
        worst = max((run.delay_ns for run in self.runs), default=0.0)
        return (f"sweep on {self.device}: {len(self.runs)} "
                f"configurations, worst delay {worst:.3f} ns")


class Eucalyptus:
    """Drives characterization sweeps over the fabric flow."""

    def __init__(self, device: Device = NG_ULTRA,
                 seed: int = DEFAULT_SEED,
                 effort: float = 0.3,
                 tracer: Optional[Tracer] = None,
                 cache: Optional[FlowCache] = None) -> None:
        self.device = device
        self.seed = seed
        self.effort = effort
        self.tracer = tracer
        self.cache = cache
        self.runs: List[CharacterizationRun] = []

    def _config_key(self, component: str, width: int, stages: int) -> str:
        """Content key of one configuration (requested, not effective),
        salted with the fabric kernel versions that compute it."""
        return content_key("characterize", {
            "device": device_fingerprint(self.device),
            "seed": self.seed, "effort": self.effort,
            "component": component, "width": width, "stages": stages,
            "kernels": nxmap._KERNEL_VERSIONS})

    def _characterize(self, component: str, width: int,
                      stages: int) -> CharacterizationRun:
        """Characterize one configuration (pure: no state mutation).

        Runs untraced: the sweep emits its deterministic
        per-configuration spans from the merged report instead.
        """
        netlist = synthesize_component(component, width, stages)
        project = NXmapProject(netlist, self.device, seed=self.seed)
        project.run_place(effort=self.effort)
        project.run_route()
        timing = project.run_sta()
        stats = netlist.stats()
        if component == "divider":
            effective_stages = max(1, width)
        elif component == "mem_bram":
            effective_stages = 1
        elif stages > 0 and stats["ffs"] > 0:
            effective_stages = stages
        else:
            effective_stages = 0
        run = CharacterizationRun(
            component=component, width=width, stages=effective_stages,
            delay_ns=timing.critical_path_ns,
            luts=stats["luts"], ffs=stats["ffs"], dsps=stats["dsps"],
            brams=stats["brams"],
            wirelength=project.routing.wirelength if project.routing else 0)
        return run

    @staticmethod
    def configurations(components: Optional[Iterable[str]] = None,
                       widths: Iterable[int] = DEFAULT_WIDTHS,
                       stages: Iterable[int] = DEFAULT_STAGES
                       ) -> List[Tuple[str, int, int]]:
        """The cartesian configuration space a sweep will visit."""
        components = list(components or supported_components())
        configs: List[Tuple[str, int, int]] = []
        for component in components:
            for width in widths:
                stage_options: Tuple[int, ...]
                if component in _COMBINATIONAL_ONLY:
                    stage_options = (0,)
                elif component in _FIXED_LATENCY:
                    stage_options = (0,)
                else:
                    stage_options = tuple(stages)
                for stage in stage_options:
                    configs.append((component, width, stage))
        return configs

    def sweep(self, components: Optional[Iterable[str]] = None,
              widths: Iterable[int] = DEFAULT_WIDTHS,
              stages: Iterable[int] = DEFAULT_STAGES,
              jobs: int = 1, backend: str = "auto",
              timeout_s: Optional[float] = None, retries: int = 0,
              progress: Optional[Callable[[int, int], None]] = None
              ) -> List[CharacterizationRun]:
        """Characterize the cartesian configuration space.

        With ``jobs > 1`` configurations are characterized in parallel;
        every configuration uses the same fixed placement seed, so the
        measured numbers (and the exported XML library) are identical no
        matter the backend or job count.  A configuration that fails to
        synthesize aborts the sweep with :class:`~repro.exec.ExecError`
        naming the configuration — characterization must be complete to
        be usable as an HLS library.  ``progress`` is called as
        ``(folded, planned)`` configurations, cached ones included.
        """
        configs = self.configurations(components, tuple(widths),
                                      tuple(stages))
        keys = [self._config_key(*config) for config in configs]

        # One configuration per shard.  The cache is read and written
        # parent-side only: worker threads/processes never touch it, so
        # there are no lost-update races and fork backends need no
        # shared state.  Each configuration is checkpointed as soon as
        # it is computed, so a killed or failed sweep keeps the
        # configurations it finished.
        completed: Dict[int, RunResult] = {}
        if self.cache is not None:
            for index, key in enumerate(keys):
                hit, value = self.cache.get(
                    "characterize", key, CharacterizationRun.from_json)
                if hit:
                    completed[index] = RunResult(index=index, value=value)

        def on_computed(shard: ShardResult) -> RunResult:
            result = shard.results[0]
            if result.ok and self.cache is not None:
                self.cache.put("characterize", keys[result.index],
                               result.value, CharacterizationRun.to_json)
            return result

        results: List[CharacterizationRun] = []

        def consume(result: RunResult) -> bool:
            if not result.ok:
                raise ExecError(
                    f"characterization of {configs[result.index]} failed "
                    f"after {result.attempts} attempt(s): {result.error}")
            results.append(result.value)
            if progress is not None:
                progress(len(results), len(configs))
            return False

        run_sharded(lambda index, _seed: self._characterize(*configs[index]),
                    plan_shards(len(configs), shard_size=1), seed=self.seed,
                    jobs=jobs, backend=backend, timeout_s=timeout_s,
                    retries=retries, completed=completed,
                    on_computed=on_computed, consume=consume)
        if self.tracer is not None:
            self._emit_telemetry(configs, results)
        self.runs.extend(results)
        return results

    def _emit_telemetry(self, configs: List[Tuple[str, int, int]],
                        results: List[CharacterizationRun]) -> None:
        """Deterministic per-configuration spans from the merged sweep."""
        tracer = self.tracer
        assert tracer is not None
        sweep_counter = tracer.counter("fabric.characterizations",
                                       "fabric")
        base = sweep_counter.value
        sweep_counter.add(len(results))
        for index, run in enumerate(results):
            tracer.add_span(f"characterize:{run.component}", "fabric",
                            base + index, base + index + 1,
                            component=run.component, width=run.width,
                            stages=run.stages,
                            delay_ns=round(run.delay_ns, 6),
                            luts=run.luts, ffs=run.ffs, dsps=run.dsps,
                            brams=run.brams, wirelength=run.wirelength)
        tracer.add_span("sweep", "fabric", base, base + len(results),
                        device=self.device.name, configs=len(configs))

    def build_library(self, name: Optional[str] = None) -> ComponentLibrary:
        """Collect all runs into a component library (XML-exportable)."""
        library = ComponentLibrary(
            name=name or f"eucalyptus-{self.device.name.lower()}")
        for run in self.runs:
            library.add(run.to_record())
        return library
