"""The six workloads: inputs from a seed, timed operations, output checks.

Each workload follows one user of the ecosystem down the code path they
wait on.  A run of one workload goes:

1. ``generate()`` — build the inputs from the seed (untimed);
2. set-up, three times: a fresh interpreter importing the workload's
   modules (the tool's cold start) plus ``prepare()``; ``setup_s`` is
   the median, and the last set-up's state is the one measured;
3. ``warm_up()`` then ``measure(seconds)`` — operations until the
   deadline, each timed and checked (checks run with the recorder
   paused, outside the op);
4. ``verify()`` — end-of-run checks against an independent reference;
5. ``counts()`` — per-layer counts read from public result objects;
6. ``close()``.

Inputs come only from the seed; the program sees only those inputs.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
#: Working space for cache directories; removed by ``close()``.
WORK_ROOT = Path(__file__).resolve().parent / ".work"

MAX_PROBLEMS = 10


@dataclass
class Measured:
    """What one measurement produced.

    ``passes`` hold the accepted ops' ``perf_counter`` intervals, one
    list per pass over the workload's inputs (a single list when the
    workload has no passes).  Times are read through a
    :class:`speed.HostSpeed`, in reference seconds.  ``wall`` is set when
    ops ran concurrently: throughput is then over that stretch of wall
    time rather than over the sum of op times.
    """

    passes: List[List[Tuple[float, float]]] = field(default_factory=list)
    work: float = 0.0
    wall: Optional[Tuple[float, float]] = None
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def accepted(self) -> int:
        return sum(len(ops) for ops in self.passes)

    def latencies_s(self, speed) -> List[List[float]]:
        """Each pass's op latencies."""
        return [[speed.seconds(*op) for op in ops] for ops in self.passes]

    def work_per_s(self, speed) -> float:
        """Work done per second of op time (or of ``wall``)."""
        seconds = speed.seconds(*self.wall) if self.wall else sum(
            sum(latencies) for latencies in self.latencies_s(speed))
        return self.work / seconds if seconds > 0 else 0.0


class OpLoop:
    """Runs sequential ops, timing each inside its recorder op span.

    Garbage is collected after each op, outside its time: an op then
    starts on the same heap whatever ran before it, and the peak memory
    of the run does not depend on when a full collection happened to
    fall.
    """

    def __init__(self, recorder, seconds: float) -> None:
        self.recorder = recorder
        self.deadline = time.perf_counter() + seconds
        self.result = Measured()
        self._ops: List[Tuple[float, float]] = []
        self._interval = (0.0, 0.0)
        self._passes = 0
        self._passes_start = 0.0

    def time_left(self) -> bool:
        return time.perf_counter() < self.deadline

    def another_pass(self) -> bool:
        """Start another whole pass?  The first always; a later one only
        if it should end less than half a pass after the deadline."""
        now = time.perf_counter()
        if self._passes == 0:
            self._passes_start = now
        elif now + (now - self._passes_start) / self._passes / 2 \
                >= self.deadline:
            return False
        self._passes += 1
        return True

    def run(self, fn, *args):
        """One op: returns fn's result, or None if it raised (a failure)."""
        result = self.result
        result.attempted += 1
        start = time.perf_counter()
        try:
            with self.recorder.op(result.attempted):
                value = fn(*args)
        except Exception as error:  # a failed op is counted, not fatal
            result.fail(f"op {result.attempted}: "
                        f"{type(error).__name__}: {error}")
            return None
        self._interval = (start, time.perf_counter())
        gc.collect()
        return value

    def accept(self, problems: Sequence[str], work: float) -> None:
        """Record the last op: failed if its output check found problems,
        else its interval and the work it did."""
        result = self.result
        if problems:
            result.failed += 1
            for problem in problems:
                if len(result.problems) < MAX_PROBLEMS:
                    result.problems.append(f"op {result.attempted}: "
                                           f"{problem}")
            return
        result.work += work
        self._ops.append(self._interval)

    def end_pass(self) -> None:
        if self._ops:
            self.result.passes.append(self._ops)
        self._ops = []

    def finish(self) -> Measured:
        self.end_pass()
        return self.result


def cold_start(modules: Sequence[str]) -> None:
    """A fresh interpreter importing ``modules`` (the tool's start-up)."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"import {', '.join(modules)}")
    subprocess.run([sys.executable, "-c", code], check=True)


def _rng(name: str, seed: int, *salt: Any) -> random.Random:
    return random.Random(":".join(str(part)
                                  for part in (name, seed) + salt))


class Workload:
    """Base class: one user path through the ecosystem."""

    name = ""
    #: One line: why the benchmark has this workload.
    why = ""
    #: The unit of ``work_per_s``.
    work_unit = ""
    #: Fixed tail percentile (see ``run_bench.tail_quantile``); 1.0 is
    #: the slowest op of each pass, median over passes.
    tail_q = 1.0
    #: Modules the cold-start probe imports.
    modules: Tuple[str, ...] = ("repro",)

    def __init__(self, seed: int, smoke: bool, recorder) -> None:
        self.seed = seed
        self.smoke = smoke
        self.recorder = recorder

    def generate(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def release(self) -> None:
        """Undo ``prepare`` (between set-up repetitions)."""

    def warm_up(self) -> None:
        """One untimed op after set-up: a process's first op pays one-off
        costs (first-use code paths, heap growth) the rest do not."""

    def install(self, patcher, recorder) -> None:
        """Instance-level trace hooks beyond the module-level ones."""

    def measure(self, seconds: float) -> Measured:
        raise NotImplementedError

    def verify(self) -> List[str]:
        return []

    def counts(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        self.release()


# -- compile_cold -------------------------------------------------------------


def _kernel_sources() -> Dict[str, Tuple[str, str]]:
    from repro.apps import ai, image, sdr, vbn
    return {
        "sobel": (image.SOBEL_C, "sobel"),
        "conv2d": (image.CONV2D_3X3_C, "conv2d"),
        "median3": (image.MEDIAN3_C, "median3"),
        "dpcm_encode": (image.DPCM_ENCODE_C, "dpcm_encode"),
        "fir8": (sdr.FIR_C, "fir8"),
        "fft16": (sdr.FFT16_C, "fft16"),
        "harris16": (vbn.HARRIS16_C, "harris16"),
        "mlp": (ai.mlp_monolithic_source(), "mlp"),
    }


def _eval_device():
    from repro.fabric import NG_ULTRA, scaled_device
    return scaled_device(NG_ULTRA, "NG-ULTRA-EVAL", luts=8192)


class CompileCold(Workload):
    name = "compile_cold"
    why = ("designer's cold C-to-bitstream turnaround: HLS, synthesis, "
           "place, route, STA, bitstream per kernel, no cache; "
           "place-bound")
    work_unit = "cells/s"
    tail_q = 1.0
    modules = ("repro.core", "repro.hls", "repro.fabric")

    #: A pass takes about 2.6 reference seconds, so a run holds two to
    #: four and the medians over passes resist a stall.  conv2d (1.3 s), sobel
    #: (1.9 s), fft16 and harris16 (7-8 s each) would cut that to one
    #: or two; eco_edits implements conv2d and hls_dse covers them all.
    KERNELS = ("median3", "dpcm_encode", "fir8", "mlp")
    CLOCK_NS = 8.0
    EFFORT = 1.0

    def generate(self) -> None:
        rng = _rng(self.name, self.seed)
        self.pnr_seed = rng.randrange(1, 1 << 20)
        self.kernels = list(self.KERNELS if not self.smoke
                            else ("median3", "dpcm_encode"))
        self.effort = self.EFFORT if not self.smoke else 0.1
        self.order_rng = rng

    def prepare(self) -> None:
        self.sources = _kernel_sources()
        self.device = _eval_device()

    def warm_up(self) -> None:
        self._build(self.kernels[0])

    def _build(self, kernel: str):
        from repro.core import HermesProject
        source, top = self.sources[kernel]
        project = HermesProject(self.device, clock_ns=self.CLOCK_NS,
                                seed=self.pnr_seed)
        return project.build_accelerator(source, top, opt_level=2,
                                         effort=self.effort)

    def measure(self, seconds: float) -> Measured:
        # Whole passes only: the kernels differ 3x in size, so a partial
        # pass would make every per-op statistic depend on where the
        # deadline fell.
        loop = OpLoop(self.recorder, seconds)
        signatures: Dict[str, Tuple] = {}
        while loop.another_pass():
            order = list(self.kernels)
            self.order_rng.shuffle(order)
            for kernel in order:
                result = loop.run(self._build, kernel)
                if result is None:
                    continue
                with self.recorder.paused():
                    problems = self._check(kernel, result, signatures)
                loop.accept(problems, result.flow.stats["cells"])
            loop.end_pass()
        return loop.finish()

    @staticmethod
    def _check(kernel: str, result, signatures: Dict[str, Tuple]
               ) -> List[str]:
        flow = result.flow
        problems = []
        if flow.routing.failed_connections:
            problems.append(f"{kernel}: {flow.routing.failed_connections}"
                            f" unrouted connections")
        if not flow.timing.fmax_mhz > 0:
            problems.append(f"{kernel}: no timing result")
        if not 0 < flow.essential_bits < flow.bitstream_bits:
            problems.append(f"{kernel}: bitstream bits inconsistent")
        words = hashlib.sha256(
            json.dumps(result.bitstream_words).encode()).hexdigest()
        signature = (flow.stats["cells"], flow.placement.hpwl,
                     flow.routing.wirelength, flow.timing.critical_path_ns,
                     flow.bitstream_bits, words)
        # Same kernel, same P&R seed: every pass must agree exactly.
        if signatures.setdefault(kernel, signature) != signature:
            problems.append(f"{kernel}: result differs between passes")
        return problems


# -- eco_edits ----------------------------------------------------------------


class EcoEdits(Workload):
    name = "eco_edits"
    why = ("late incremental edits on an implemented HLS design: "
           "warm-start place, delta route, cone STA, bitstream; "
           "route-bound, no cold placement")
    work_unit = "edits/s"
    tail_q = 1.0
    modules = ("repro.hls", "repro.fabric")

    KERNEL = "conv2d"
    #: One pass: two 0.2% and two 1% edits.  A run gets through 35-50
    #: edits, too few for a p75 with ten edits beyond it on a slow host.
    FRACTIONS = (0.002, 0.01, 0.002, 0.01)
    CLOCK_NS = 8.0
    CHANNEL_WIDTH = 16
    BASE_PNR_SEED = 1

    def generate(self) -> None:
        # The seed picks the edits.  The base design is the same in every
        # run: its P&R seed sets how congested the channels are, and so
        # how much every edit costs to re-route (+-30% across seeds).
        self.edit_seed = _rng(self.name, self.seed).randrange(1 << 30)
        self.kernel = self.KERNEL if not self.smoke else "median3"
        self.effort = 1.0 if not self.smoke else 0.2

    def prepare(self) -> None:
        """Implement the base design cold, as a designer does before
        the first edit."""
        from repro.cache import FlowCache
        from repro.fabric import EcoFlow, NetlistDelta, NXmapProject, \
            synthesize_design
        from repro.hls import synthesize
        source, top = _kernel_sources()[self.kernel]
        hls = synthesize(source, top, clock_ns=self.CLOCK_NS)
        self.netlist = synthesize_design(hls[top], hls.module[top])
        # A small memory cache: the base STA state is read back by every
        # edit and stays resident, while old edits' routing results are
        # evicted, so the heap (and its GC pauses) does not grow with the
        # number of edits a run gets through.
        self.project = NXmapProject(self.netlist, _eval_device(),
                                    seed=self.BASE_PNR_SEED,
                                    cache=FlowCache(max_entries=64))
        self.project.run_place(effort=self.effort)
        self.project.run_route(channel_width=self.CHANNEL_WIDTH)
        # Caches the base STA state the edits increment from.
        EcoFlow(self.project, NetlistDelta()).prepare_base(
            effort=self.effort, channel_width=self.CHANNEL_WIDTH)

    def warm_up(self) -> None:
        from repro.fabric import random_delta
        self._edit(random_delta(self.netlist, self.FRACTIONS[0],
                                seed=self.edit_seed - 1))

    def _edit(self, delta):
        from repro.fabric import EcoFlow
        flow = EcoFlow(self.project, delta)
        report = flow.run(target_clock_ns=self.CLOCK_NS, effort=self.effort,
                          channel_width=self.CHANNEL_WIDTH)
        return flow, report

    def measure(self, seconds: float) -> Measured:
        from repro.fabric import random_delta
        loop = OpLoop(self.recorder, seconds)
        seeds = itertools.count(self.edit_seed)
        while loop.another_pass():
            for fraction in self.FRACTIONS:
                delta = random_delta(self.netlist, fraction,
                                     seed=next(seeds))
                result = loop.run(self._edit, delta)
                if result is None:
                    continue
                with self.recorder.paused():
                    problems = eco_problems(self.project, *result)
                loop.accept(problems, 1)
            loop.end_pass()
        return loop.finish()


def eco_problems(project, flow, report) -> List[str]:
    """Output check of one ECO edit, made from outside the flow.

    Every cell whose tile differs from the base placement must be a
    changed cell or share a net with one: the frozen region may not
    drift.  (The flow's own counters are not trusted for this.)  The
    edited design must also route completely and carry a bitstream.
    """
    problems = []
    netlist = flow.netlist
    changed = set(flow.impact.changed_cells)
    allowed = set(changed)
    for name in changed:
        cell = netlist.cells.get(name)
        if cell is None:
            continue
        nets = list(cell.inputs) + ([cell.output] if cell.output else [])
        for net_name in nets:
            net = netlist.nets.get(net_name)
            if net is None:
                continue
            if net.driver is not None:
                allowed.add(net.driver)
            allowed.update(net.sinks)
    base = project.placement.locations
    drifted = sorted(name for name, tile in flow.placement.locations.items()
                     if base.get(name) != tile and name not in allowed)
    if drifted:
        problems.append(f"frozen cells moved: {drifted[:5]}")
    missing = set(netlist.cells) - set(flow.placement.locations)
    if missing:
        problems.append(f"unplaced cells: {sorted(missing)[:5]}")
    if report.flow.routing.failed_connections:
        problems.append(f"{report.flow.routing.failed_connections} "
                        f"unrouted connections")
    if not report.flow.bitstream_bits:
        problems.append("no bitstream")
    return problems


# -- hls_dse --------------------------------------------------------------------


class HlsDse(Workload):
    name = "hls_dse"
    why = ("Bambu-style design-space exploration: 3 opt levels x 4 "
           "clocks over 7 kernels, each synthesized and co-simulated (IR "
           "interpreter vs FSMD); no fabric work")
    work_unit = "points/s"
    tail_q = 1.0
    modules = ("repro.api", "repro.hls", "repro.apps")

    KERNELS = ("sobel", "conv2d", "harris16", "dpcm_encode", "fir8",
               "fft16", "mlp")
    OPT_LEVELS = (0, 1, 2)
    CLOCKS_NS = (5.0, 8.0, 10.0, 12.5)

    def generate(self) -> None:
        import numpy as np
        from repro.apps import ai, image, sdr
        rng = _rng(self.name, self.seed)
        np_rng = np.random.default_rng(rng.randrange(1 << 30))
        frame = image.synthetic_frame(seed=rng.randrange(1 << 30))
        pixels = frame.flatten().tolist()
        re, im = sdr.tone(frequency_bin=rng.randrange(1, 8),
                          amplitude=rng.randrange(200, 2000))
        self.stimuli = {
            "sobel": ((), {"src": pixels, "dst": [0] * len(pixels)}),
            "conv2d": ((rng.randrange(2, 6),),
                       {"src": pixels, "dst": [0] * len(pixels),
                        "kernel": [int(v) for v
                                   in np_rng.integers(-4, 5, 9)]}),
            "harris16": ((), {"img": [int(v) for v
                                      in np_rng.integers(0, 16, 256)],
                              "resp": [0] * 256}),
            "dpcm_encode": ((64,), {"src": pixels[:64], "dst": [0] * 64}),
            "fir8": ((64,), {"x": [int(v) for v
                                   in np_rng.integers(-512, 512, 64)],
                             "y": [0] * 64}),
            "fft16": ((), {"re": re, "im": im}),
            "mlp": ((), {"x": ai.sample_inputs(
                1, seed=rng.randrange(1 << 30))[0]}),
        }
        kernels = self.KERNELS if not self.smoke else ("dpcm_encode", "mlp")
        opts = self.OPT_LEVELS if not self.smoke else (2,)
        clocks = self.CLOCKS_NS if not self.smoke else (8.0,)
        self.kernels = list(kernels)
        self.opt_levels = list(opts)
        self.clocks = list(clocks)
        self.order_rng = rng

    def prepare(self) -> None:
        self.sources = _kernel_sources()

    def warm_up(self) -> None:
        self._configuration(self.opt_levels[0], self.clocks[0])

    def _configuration(self, opt: int, clock: float):
        """One op: a configuration tried on every kernel, in seeded order.

        (A single kernel point is too fine an op: point costs span 100x,
        harris16's co-simulation dominating, so the median point would
        sit on a gap between kernels and jump from run to run.)
        """
        from repro.hls import synthesize
        kernels = list(self.kernels)
        self.order_rng.shuffle(kernels)
        results = []
        for kernel in kernels:
            source, top = self.sources[kernel]
            args, mems = self.stimuli[kernel]
            project = synthesize(source, top, clock_ns=clock, opt_level=opt)
            results.append((kernel, project.cosimulate(args, mems)))
        return results

    def measure(self, seconds: float) -> Measured:
        # Whole passes over the grid.  Per-op statistics are taken per
        # clock, over every opt level, so each group has the same mix and
        # a run holds four to eight of them.
        loop = OpLoop(self.recorder, seconds)
        cycles: Dict[Tuple, int] = {}
        while loop.another_pass():
            clocks = list(self.clocks)
            self.order_rng.shuffle(clocks)
            for clock in clocks:
                self._clock(loop, clock, cycles)
        return loop.finish()

    def _clock(self, loop: OpLoop, clock: float,
                cycles: Dict[Tuple, int]) -> None:
        opt_levels = list(self.opt_levels)
        self.order_rng.shuffle(opt_levels)
        for opt in opt_levels:
            results = loop.run(self._configuration, opt, clock)
            if results is None:
                continue
            problems = []
            for kernel, cosim in results:
                point = (kernel, opt, clock)
                if not cosim.match:
                    problems.append(f"{point}: co-simulation mismatch "
                                    f"({cosim.expected} vs {cosim.actual},"
                                    f" {cosim.mem_mismatches})")
                if cycles.setdefault(point, cosim.cycles) != cosim.cycles:
                    problems.append(f"{point}: cycle count changed")
            loop.accept(problems, len(results))
        loop.end_pass()


# -- seu_campaign -------------------------------------------------------------


class SeuCampaign(Workload):
    name = "seu_campaign"
    why = ("qualification SEU campaigns (ECC, TMR, raw SRAM) sharded and "
           "checkpointed to a disk cache: radhard per-run callbacks, exec "
           "dispatch and cache puts")
    work_unit = "runs/s"
    tail_q = 1.0
    modules = ("repro.radhard", "repro.exec", "repro.cache")

    #: jobs=2 (thread backend) is no faster here and its latency is
    #: bimodal from run to run (GIL hand-off); it is checked in verify().
    JOBS = 1
    #: (scenario, runs, shards): 250 runs per ECC shard (compute-bound),
    #: 200 per TMR / raw-SRAM shard (per-shard overhead dominates).  A
    #: cycle of the three takes about 0.7 s, so a run holds 10-17.
    CAMPAIGNS = (("ecc", 250, 1), ("tmr", 2000, 10), ("raw-sram", 3000, 15))
    SMOKE = (("ecc", 20, 2), ("tmr", 100, 2), ("raw-sram", 100, 2))
    WORDS = 64

    def generate(self) -> None:
        self.seeds = _rng(self.name, self.seed)
        self.campaigns = self.CAMPAIGNS if not self.smoke else self.SMOKE

    def prepare(self) -> None:
        from repro.cache import FlowCache
        from repro.radhard.scenarios import build_scenario
        WORK_ROOT.mkdir(exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="seu-",
                                               dir=WORK_ROOT))
        # The memory tier holds about one cycle's shards: every campaign
        # seed is fresh, so a larger one would only grow the heap with
        # the number of cycles a run gets through.
        self.cache = FlowCache(self.directory, max_entries=32)
        words = self.WORDS if not self.smoke else 16
        self.scenarios = {name: build_scenario(name, words=words)
                          for name, _runs, _shards in self.campaigns}

    def release(self) -> None:
        directory = getattr(self, "directory", None)
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
            self.directory = None

    def install(self, patcher, recorder) -> None:
        for campaign in self.scenarios.values():
            for callback in ("setup", "inject", "evaluate"):
                patcher.patch(campaign, callback,
                              lambda fn, name=f"radhard.{callback}":
                              recorder.timed(fn, name))

    def warm_up(self) -> None:
        name, runs, shards = self.campaigns[-1]
        self._campaign(name, runs, shards, self.seeds.randrange(1 << 30))

    def _campaign(self, name: str, runs: int, shards: int, seed: int,
                  cache=None, jobs: Optional[int] = None):
        from repro.radhard import MegaCampaign
        mega = MegaCampaign(self.scenarios[name], cache=cache)
        return mega.run(runs, seed=seed, jobs=jobs or self.JOBS,
                        backend="auto", shards=shards)

    def measure(self, seconds: float) -> Measured:
        # Whole cycles of the three scenarios.
        loop = OpLoop(self.recorder, seconds)
        self.first: Dict[str, Tuple] = {}
        while loop.another_pass():
            for name, runs, shards in self.campaigns:
                seed = self.seeds.randrange(1 << 30)
                result = loop.run(self._campaign, name, runs, shards, seed,
                                  self.cache)
                if result is None:
                    continue
                problems = seu_problems(name, runs, shards, result)
                loop.accept(problems, runs)
                if not problems:
                    self.first.setdefault(name, (runs, shards, seed,
                                                 result))
            loop.end_pass()
        return loop.finish()

    def verify(self) -> List[str]:
        """Resume and parallel replays must reproduce the first campaigns.

        The first campaign of each scenario runs again: once against the
        checkpoint cache (every shard must come back cached) and once at
        jobs=2 on the thread backend with no cache.  Both must match the
        measured run byte for byte on the deterministic payload.
        """
        problems = []
        for name, (runs, shards, seed, result) in self.first.items():
            expected = json.dumps(result.report.deterministic_json())
            resumed = self._campaign(name, runs, shards, seed, self.cache)
            if resumed.shards_cached != shards:
                problems.append(f"{name}: resume recomputed "
                                f"{shards - resumed.shards_cached} shards")
            parallel = self._campaign(name, runs, shards, seed, jobs=2)
            for label, replay in (("resume", resumed),
                                  ("jobs=2", parallel)):
                if json.dumps(replay.report.deterministic_json()) \
                        != expected:
                    problems.append(f"{name}: {label} replay differs")
        return problems

    def counts(self) -> Dict[str, float]:
        stats = self.cache.stats.get("mega")
        lookups = stats.hits + stats.misses if stats else 0
        return {"cache.hit_ratio.mega": stats.hits / lookups
                if lookups else 0.0,
                "cache.index_bytes": _metadata_bytes(self.directory)}


def seu_problems(name: str, runs: int, shards: int, result) -> List[str]:
    """Outcome invariants of one campaign (independent of the program's
    own accounting): every run classified once, mitigations hold."""
    report = result.report
    counts = report.counts
    problems = []
    if report.runs != runs or sum(counts.values()) != runs:
        problems.append(f"{name}: {sum(counts.values())} outcomes for "
                        f"{runs} runs")
    allowed = {"ecc": {"corrected", "masked"},
               "tmr": {"corrected", "masked"},
               "raw-sram": {"masked", "sdc"}}[name]
    unexpected = set(counts) - allowed
    if unexpected:
        problems.append(f"{name}: unexpected outcomes {sorted(unexpected)}")
    if result.shards_computed != shards or result.early_stopped:
        problems.append(f"{name}: {result.shards_computed}/{shards} "
                        f"shards computed")
    return problems


def _metadata_bytes(directory: Optional[Path]) -> int:
    """Bytes of the files at the top of a cache directory (its index)."""
    if directory is None or not directory.is_dir():
        return 0
    return sum(path.stat().st_size for path in directory.iterdir()
               if path.is_file())


# -- service_restart ----------------------------------------------------------


def _service_spec(seed: int, tenant: str = "default", runs: int = 5):
    from repro.api import JobSpec
    return JobSpec(kind="seu", params={
        "scenario": "raw-sram", "scenario_params": {"words": 8},
        "runs": runs}, seed=seed, tenant=tenant)


def populate_service(directory: str, seeds: List[int], runs: int,
                     expected_path: str) -> None:
    """The service's first lifetime, in its own process.

    Computes every key into the disk cache through the scheduler, as a
    running service would, and writes the wire report of each key to
    ``expected_path`` for the benchmark's output check.
    """
    sys.path.insert(0, str(SRC))
    from repro.cache import FlowCache
    from repro.service import JobScheduler
    scheduler = JobScheduler(workers=1, max_queue=len(seeds) + 1,
                             cache=FlowCache(directory)).start()
    try:
        records = [scheduler.submit(_service_spec(seed, runs=runs))
                   for seed in seeds]
        expected = {}
        for record in records:
            if not record.done.wait(300) or record.report_text is None:
                raise RuntimeError(f"population job {record.id} failed: "
                                   f"{record.error}")
            expected[record.key] = record.report_text
    finally:
        scheduler.stop()
    with open(expected_path, "w") as handle:
        json.dump(expected, handle)


class ServiceRestart(Workload):
    name = "service_restart"
    why = ("job service restarted on a 200-key disk cache: two "
           "closed-loop clients, Zipf(1.1) reads, every tenth request a "
           "fresh spec (a write), through the service and cache layers")
    work_unit = "req/s"
    tail_q = 0.99
    modules = ("repro.service",)

    KEYS = 200
    ZIPF_S = 1.1
    #: Every tenth request of a client is a fresh spec, the two clients
    #: half a period apart.  Drawn at random, writes would come in
    #: bursts whose number and overlap change from seed to seed, and
    #: with them the throughput.
    FRESH_EVERY = 10
    MEMORY_ENTRIES = 256
    CLIENTS = 2
    WORKERS = 2
    RUNS = 5

    def generate(self) -> None:
        self.server = self.directory = None
        rng = _rng(self.name, self.seed)
        keys = self.KEYS if not self.smoke else 40
        base = rng.randrange(1 << 20)
        seeds = [base + index for index in range(keys)]
        rng.shuffle(seeds)                 # seeds[rank] is the rank-th hot
        self.specs = [_service_spec(seed, runs=self.RUNS) for seed in seeds]
        self.keys = [spec.content_key() for spec in self.specs]
        self.fresh_base = (1 << 24) + rng.randrange(1 << 20) * 64
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(keys)]
        self.cum_weights = list(itertools.accumulate(weights))
        WORK_ROOT.mkdir(exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="service-",
                                               dir=WORK_ROOT))
        expected_path = self.directory / "expected.json"
        cache_dir = self.directory / "cache"
        # A plain child interpreter: multiprocessing would also start a
        # resource-tracker process that outlives the run.
        subprocess.run(
            [sys.executable, "-c",
             "import json, sys; sys.path.insert(0, sys.argv[1]); "
             "from workloads import populate_service; "
             "populate_service(sys.argv[2], json.loads(sys.argv[3]), "
             "int(sys.argv[4]), sys.argv[5])",
             str(Path(__file__).resolve().parent), str(cache_dir),
             json.dumps(sorted(seeds)), str(self.RUNS), str(expected_path)],
            check=True, timeout=170)
        self.expected = json.loads(expected_path.read_text())
        self.cache_dir = cache_dir

    def prepare(self) -> None:
        """Restart: open the cache, start scheduler and HTTP server."""
        from repro.cache import FlowCache
        from repro.service import JobScheduler, ServiceClient, \
            serve_background
        # Room in memory for the keys and some fresh results: beyond it the
        # oldest results live on disk only, so memory stops growing with
        # the number of requests a run gets through.
        self.cache = FlowCache(self.cache_dir, max_entries=self.MEMORY_ENTRIES)
        self.scheduler = JobScheduler(workers=self.WORKERS, max_queue=256,
                                      cache=self.cache)
        self.server, self.thread = serve_background(
            port=0, scheduler=self.scheduler)
        self.port = self.server.server_address[1]
        ServiceClient(port=self.port).healthz()

    def release(self) -> None:
        if self.server is not None:
            from repro.service import shutdown_server
            shutdown_server(self.server, self.thread)
            self.server = None

    def measure(self, seconds: float) -> Measured:
        result = Measured()
        lock = threading.Lock()
        done: List[Tuple[float, float]] = []
        self.fresh: List[Tuple[Any, str]] = []
        op_ids = itertools.count(1)
        barrier = threading.Barrier(self.CLIENTS + 1)
        deadline = [0.0]

        def client(index: int) -> None:
            from repro.service import ServiceClient
            rng = _rng(self.name, self.seed, "client", index)
            tenant = f"tenant-{index}"
            connection = ServiceClient(port=self.port)
            fresh_seeds = itertools.count(self.fresh_base + index,
                                          self.CLIENTS)
            sent = itertools.count(index * self.FRESH_EVERY // self.CLIENTS)
            barrier.wait()
            while time.perf_counter() < deadline[0]:
                if next(sent) % self.FRESH_EVERY == 0:
                    spec = _service_spec(next(fresh_seeds), tenant,
                                         runs=self.RUNS)
                    key = expected = None
                else:
                    rank = rng.choices(range(len(self.specs)),
                                       cum_weights=self.cum_weights)[0]
                    base = self.specs[rank]
                    spec = _service_spec(base.seed, tenant, runs=self.RUNS)
                    key = self.keys[rank]
                    expected = self.expected[key]
                op = next(op_ids)
                self.recorder.link(("tenant", tenant), op)
                start = time.perf_counter()
                try:
                    with self.recorder.op(op, current=False):
                        job = connection.submit(spec)
                        status, body = connection.report(job["id"],
                                                         wait_s=60.0)
                except Exception as error:  # counted, the loop goes on
                    with lock:
                        result.attempted += 1
                        result.fail(f"{type(error).__name__}: {error}")
                    continue
                end = time.perf_counter()
                problem = None
                if status != 200:
                    problem = f"HTTP {status}: {body[:200]}"
                elif expected is not None and body != expected:
                    problem = f"warm body differs for {key[:12]}"
                with lock:
                    result.attempted += 1
                    if problem is not None:
                        result.fail(problem)
                        continue
                    done.append((start, end))
                    if expected is None:
                        self.fresh.append((spec, body))

        threads = [threading.Thread(target=client, args=(index,),
                                    name=f"bench-client-{index}")
                   for index in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        start = time.perf_counter()
        deadline[0] = start + seconds
        barrier.wait()
        for thread in threads:
            thread.join()
        # Clients run concurrently: throughput is over wall time.
        result.passes = [done]
        result.work = len(done)
        result.wall = (start, time.perf_counter())
        return result

    def verify(self) -> List[str]:
        """Fresh specs recomputed directly through the job facade must
        give the same campaign evidence the service returned."""
        from repro.api import submit
        from repro.core.report import parse_report
        problems = []
        for spec, body in self.fresh:
            served = parse_report(body).deterministic_json()
            direct = submit(spec).report.deterministic_json()
            if served != direct:
                problems.append(f"fresh spec seed {spec.seed}: served "
                                f"report differs from direct run")
        counts = self.scheduler.counts
        if counts["failed"] or counts["rejected"]:
            problems.append(f"scheduler counts {counts}")
        if counts["computed"] != len(self.fresh):
            problems.append(f"{counts['computed']} computations for "
                            f"{len(self.fresh)} fresh specs")
        return problems

    def counts(self) -> Dict[str, float]:
        counts = self.scheduler.counts
        stats = self.cache.stats.get("service")
        lookups = stats.hits + stats.misses if stats else 0
        return {"service.warm_hits": counts["warm_hits"],
                "service.computed": counts["computed"],
                "service.coalesced": counts["coalesced"],
                "service.rejected": counts["rejected"],
                "cache.hit_ratio.service": stats.hits / lookups
                if lookups else 0.0,
                "cache.index_bytes": _metadata_bytes(self.cache_dir)}

    def close(self) -> None:
        self.release()
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


# -- soc_boot -------------------------------------------------------------------


GUEST_TEMPLATE = """
    MOVI r10, #16
    MOVI r11, #16
    LSL  r10, r10, r11
    MOVI r11, #16384
    ADD  r10, r10, r11
    MOVI r2, #{c0}
    MOVI r9, #{c1}
    MOVI r7, #{outer}
outer:
    MOVI r0, #1
    SVC  #0
    MOV  r4, r0
    MOVI r1, #10
inner:
    ADD  r2, r2, r4
    EOR  r3, r2, r9
    ADD  r2, r2, r3
    ADDI r1, r1, #-1
    CMP  r1, r12
    BNE  inner
    STR  r2, [r10, #0]
    LDR  r5, [r10, #0]
    ADDI r7, r7, #-1
    CMP  r7, r12
    BNE  outer
    HALT
"""


class SocBoot(Workload):
    name = "soc_boot"
    why = ("software side: BL0-BL1-BL2 boot then an SVC-heavy 4-core "
           "guest under the hypervisor bridge on the DBT engine; touches "
           "no fabric, HLS, cache or exec code (control)")
    work_unit = "guest cycles/s"
    tail_q = 0.75
    modules = ("repro.soc", "repro.boot", "repro.hypervisor")

    #: Guest loop trips: an op of about 0.1 reference seconds, so even a
    #: slow host gets through the 38 ops a p75 with ten beyond needs.
    OUTER = 800

    def generate(self) -> None:
        rng = _rng(self.name, self.seed)
        self.source = GUEST_TEMPLATE.format(
            c0=rng.randrange(1 << 16), c1=rng.randrange(1 << 16),
            outer=self.OUTER if not self.smoke else 50)

    def prepare(self) -> None:
        from repro.boot import BootImage, ImageKind
        from repro.soc import DDR_BASE, assemble
        words = assemble(self.source, base_address=DDR_BASE)
        self.image = BootImage(kind=ImageKind.APPLICATION,
                               load_address=DDR_BASE, entry_point=DDR_BASE,
                               payload=words, name="guest")

    @staticmethod
    def _hypervisor():
        from repro.hypervisor import Compute, EndActivation, MemoryArea, \
            SvcBridge, SystemConfig, XtratumHypervisor
        config = SystemConfig(cores=4, context_switch_us=2.0)
        config.add_partition(0, "P0", [MemoryArea("p0ram", 0x1000, 0x1000)])
        config.add_partition(1, "P1", [MemoryArea("p1ram", 0x2000, 0x1000)])
        plan = config.add_plan(0, major_frame_us=1000.0)
        plan.add_window(0, core=0, start_us=0.0, duration_us=400.0)
        plan.add_window(1, core=0, start_us=400.0, duration_us=400.0)
        hypervisor = XtratumHypervisor(config)

        def workload():
            while True:
                yield Compute(100.0)
                yield EndActivation()

        hypervisor.load_partition(0, workload, period_us=1000.0)
        hypervisor.load_partition(1, workload, period_us=1000.0)
        hypervisor.run(frames=2)
        return hypervisor, SvcBridge(
            hypervisor.api, partition_of_core={0: 0, 1: 1, 2: 0, 3: 1})

    def warm_up(self) -> None:
        self._boot()

    def _boot(self, engine: str = "dbt"):
        from repro.boot import provision_flash, run_boot_chain
        from repro.soc import NgUltraSoc
        with self.recorder.span("hypervisor.setup"):
            hypervisor, bridge = self._hypervisor()
        with self.recorder.span("soc.init"):
            soc = NgUltraSoc(svc_handler=bridge, engine=engine)
        with self.recorder.span("boot.provision"):
            provision_flash(soc, [self.image])
        boot = run_boot_chain(soc, multicore=True, run_application=True)
        return soc, bridge, hypervisor, boot

    @staticmethod
    def _state(soc, bridge, hypervisor, boot,
               memory: bool = False) -> Dict[str, Any]:
        """Architectural state; the memory image only when asked (it is
        1 MB of words, too costly to digest after every repetition)."""
        from repro.soc import CoreState
        state = {
            "halted": all(core.state is CoreState.HALTED
                          for core in soc.cores),
            "boot_cycles": boot.total_cycles,
            "regs": [list(core.regs) for core in soc.cores],
            "flags": [(core.flag_z, core.flag_n, core.flag_v)
                      for core in soc.cores],
            "cycles": [core.cycles for core in soc.cores],
            "bus": (soc.bus.reads, soc.bus.writes),
            "traps": bridge.trap_count,
            "hypercalls": sorted(hypervisor.api.calls.items()),
        }
        if memory:
            state["memory"] = hashlib.sha256(repr(
                (soc.tcm.data, soc.ddr.data)).encode()).hexdigest()
        return state

    def measure(self, seconds: float) -> Measured:
        loop = OpLoop(self.recorder, seconds)
        self.state: Optional[Dict[str, Any]] = None
        self.dbt = {"compiled": 0, "hits": 0, "invalidations": 0}
        self.traps = 0
        while loop.time_left():
            booted = loop.run(self._boot)
            if booted is None:
                continue
            soc, bridge, hypervisor, boot = booted
            with self.recorder.paused():
                state = self._state(*booted, memory=self.state is None)
            problems = []
            if not state["halted"]:
                problems.append("a core did not halt")
            if self.state is None:
                self.state = state
            elif any(state[key] != self.state[key] for key in state):
                problems.append("architectural state differs between "
                                "repetitions")
            loop.accept(problems, sum(state["cycles"]))
            if not problems:
                for key in self.dbt:
                    self.dbt[key] += soc.dbt_cache.stats()[key]
                self.traps += bridge.trap_count
        return loop.finish()

    def verify(self) -> List[str]:
        """The reference interpreter must end in the same state."""
        if self.state is None:
            return ["no repetition completed"]
        if self._state(*self._boot("interp"), memory=True) != self.state:
            return ["DBT and interpreter architectural states differ"]
        return []

    def counts(self) -> Dict[str, float]:
        return {"soc.dbt.blocks_compiled": self.dbt["compiled"],
                "soc.dbt.block_hits": self.dbt["hits"],
                "soc.dbt.invalidations": self.dbt["invalidations"],
                "hypervisor.traps": self.traps}


WORKLOADS = {cls.name: cls for cls in (CompileCold, EcoEdits, HlsDse,
                                       SeuCampaign, ServiceRestart,
                                       SocBoot)}
