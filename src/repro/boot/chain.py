"""Complete boot chain orchestration and flash provisioning.

``provision_flash`` plays the ground-segment role: it writes the BL1
image, the load list and every deployable object into the boot flash
(with the requested redundancy layout).  ``run_boot_chain`` then executes
BL0 → BL1 → BL2 on a platform instance, reproducing the power-up sequence
of paper Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..soc.memory import TCM_BASE
from ..soc.soc import NgUltraSoc
from ..telemetry import Tracer
from .bl0 import BL1_FLASH_OFFSET, Bl0Result, run_bl0
from .bl1 import LOADLIST_FLASH_OFFSET, Bl1Config, Bl1Result, run_bl1
from .bl2 import Bl2Result, run_bl2
from .image import BootImage, ImageKind, LoadEntry, LoadList, LoadSource
from .report import BootReport

# Default flash layout (word offsets).
OBJECT_AREA_OFFSET = 0x9000
DEFAULT_COPY_STRIDE = 0x8000

# BL1 is "field loadable" firmware; in the model its flash image carries a
# small resident stub (the Python Bl1 class is the behavioural model).
_BL1_STUB_PAYLOAD = [0xB1000000 + i for i in range(32)]

# Boot cycle costs are quoted at the NG-Ultra reference clock; traces use
# microseconds so boot stages share a timeline with the hypervisor.
CYCLES_PER_US = 600.0


@dataclass
class ProvisionedObject:
    image: BootImage
    entry: LoadEntry


@dataclass
class BootChainResult:
    bl0: Bl0Result
    bl1: Bl1Result
    bl2: Optional[Bl2Result]

    @property
    def reports(self) -> List[BootReport]:
        reports = [self.bl0.report, self.bl1.report]
        if self.bl2 is not None:
            reports.append(self.bl2.report)
        return reports

    @property
    def total_cycles(self) -> int:
        return sum(report.total_cycles for report in self.reports)

    def render(self) -> str:
        return "\n\n".join(report.render() for report in self.reports)


def make_bl1_image() -> BootImage:
    return BootImage(kind=ImageKind.BL1, load_address=TCM_BASE + 0x8000,
                     entry_point=TCM_BASE + 0x8000,
                     payload=list(_BL1_STUB_PAYLOAD), name="bl1")


def provision_flash(soc: NgUltraSoc, objects: List[BootImage],
                    copies: int = 2,
                    stride: int = DEFAULT_COPY_STRIDE,
                    mirror_bank_b: bool = True) -> List[ProvisionedObject]:
    """Write BL1 + load list + objects into the boot flash.

    Each object is stored ``copies`` times at ``stride`` spacing (the
    sequential/TMR redundancy source material).  Bank B mirrors bank A
    when ``mirror_bank_b`` (BL0's fallback source).
    """
    flash = soc.flash_controller
    bl1_image = make_bl1_image()
    flash.program(0, BL1_FLASH_OFFSET, bl1_image.to_words())

    provisioned: List[ProvisionedObject] = []
    load_list = LoadList()
    cursor = OBJECT_AREA_OFFSET
    for image in objects:
        words = image.to_words()
        if len(words) > stride:
            raise ValueError(
                f"object {image.name or image.kind.name} larger than the "
                f"copy stride ({len(words)} > {stride})")
        end = cursor + (copies - 1) * stride + len(words)
        if end > len(flash.banks[0]):
            raise ValueError(
                f"flash overflow provisioning "
                f"{image.name or image.kind.name}: needs {end} words, "
                f"bank holds {len(flash.banks[0])}")
        for copy in range(copies):
            flash.program(0, cursor + copy * stride, words)
        entry = LoadEntry(kind=image.kind, source=LoadSource.FLASH,
                          locator=cursor, copies=copies, stride=stride)
        load_list.add(entry)
        provisioned.append(ProvisionedObject(image=image, entry=entry))
        cursor += copies * stride
    flash.program(0, LOADLIST_FLASH_OFFSET, load_list.to_words())
    if mirror_bank_b:
        # Bank A's words are already masked: a slice copy is exact.
        flash.banks[1].data[:] = flash.banks[0].data
    return provisioned


def run_boot_chain(soc: NgUltraSoc,
                   config: Optional[Bl1Config] = None,
                   multicore: bool = True,
                   run_application: bool = False,
                   tracer: Optional[Tracer] = None) -> BootChainResult:
    """Execute the full BL0 → BL1 → BL2 power-up sequence.

    ``tracer`` records one span per boot step on a cycle-derived
    microsecond timeline plus SpaceWire transfer counters (retries,
    NAKs, CRC errors) accumulated across the whole chain.
    """
    if tracer is not None:
        soc.spacewire.tracer = tracer
    spw_before = _spw_snapshot(soc)
    bl0_result = run_bl0(soc)
    bl1_result = run_bl1(soc, config)
    bl2_result = None
    if bl1_result.next_entry is not None:
        bl2_result = run_bl2(soc, bl1_result.next_entry,
                             multicore=multicore,
                             run_application=run_application)
    result = BootChainResult(bl0=bl0_result, bl1=bl1_result, bl2=bl2_result)
    if tracer is not None:
        _trace_boot_chain(tracer, soc, result, spw_before)
    return result


def _spw_snapshot(soc: NgUltraSoc) -> dict:
    link = soc.spacewire
    return {"spacewire.naks": link.nak_count,
            "spacewire.crc_errors": link.crc_error_count,
            "spacewire.timeouts": link.timeout_count}


def _trace_boot_chain(tracer: Tracer, soc: NgUltraSoc,
                      result: BootChainResult, spw_before: dict) -> None:
    """Emit per-step spans and chain-level SpaceWire/recovery counters."""
    t = 0.0
    for report in result.reports:
        t = _trace_report(tracer, report, t)
        tracer.counter("boot.recovered_objects", "boot").add(
            len(report.recovered_objects))
        tracer.counter("boot.failed_objects", "boot").add(
            len(report.failed_objects))
    after = _spw_snapshot(soc)
    for name, value in after.items():
        delta = value - spw_before[name]
        if delta:
            tracer.counter(name, "boot").add(delta)


def _trace_report(tracer: Tracer, report: BootReport,
                  start_us: float) -> float:
    """One span per boot step, tiled cumulatively from ``start_us``."""
    t = start_us
    for step in report.steps:
        duration_us = step.cycles / CYCLES_PER_US
        tracer.add_span(step.name, "boot", t, t + duration_us,
                        stage=report.stage, status=step.status.name,
                        cycles=step.cycles,
                        **({"detail": step.detail} if step.detail else {}))
        t += duration_us
    tracer.add_span(f"stage:{report.stage}", "boot", start_us, t,
                    source=report.boot_source or "n/a",
                    success=report.success,
                    recovered=len(report.recovered_objects),
                    failed=len(report.failed_objects),
                    cycles=report.total_cycles)
    return t
