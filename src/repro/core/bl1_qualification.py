"""The BL1 boot-loader qualification campaign (paper §IV).

A compact but genuine campaign at the three ECSS verification levels —
unit, integration and validation with fault injection — run on the
executable platform.  :func:`run_qualification` runs it, assesses the
reached TRL (the HERMES objective is TRL 6 / ECSS DAL-B) and generates
the datapack with its static (SAR), semantic (SVR) and measured (TEL)
evidence.  ``repro qualify`` and ``bench_qualification_datapack.py``
both run it.
"""

from __future__ import annotations

from ..boot import (
    Bl1Config,
    BootImage,
    ImageKind,
    RedundancyMode,
    provision_flash,
    run_boot_chain,
)
from ..boot.chain import DEFAULT_COPY_STRIDE, OBJECT_AREA_OFFSET
from ..soc import DDR_BASE, NgUltraSoc, assemble
from .datapack import generate_datapack
from .metrics import Table
from .qualification import Level, QualificationCampaign, assess_trl


def _fresh_soc(corrupt=0):
    soc = NgUltraSoc()
    program = assemble("MOVI r0, #7\nHALT", base_address=DDR_BASE)
    app = BootImage(kind=ImageKind.APPLICATION, load_address=DDR_BASE,
                    entry_point=DDR_BASE, payload=program, name="app")
    provision_flash(soc, [app], copies=3)
    for copy in range(corrupt):
        soc.flash_controller.corrupt_word(
            0, OBJECT_AREA_OFFSET + copy * DEFAULT_COPY_STRIDE
            + BootImage.HEADER_WORDS, 0xFFFF)
    return soc


def build_campaign(cache=None):
    campaign = QualificationCampaign("HERMES-BL1")
    campaign.add_requirement("BL1-010", "initialize PLL before DDR")
    campaign.add_requirement("BL1-020", "verify deployed image integrity")
    campaign.add_requirement("BL1-030", "configure the MPU before handoff")
    campaign.add_requirement("BL1-040", "produce a boot report")
    campaign.add_requirement("BL1-050", "recover from one corrupted copy",
                             category="safety")
    campaign.add_requirement("BL1-060", "fail safe when all copies are "
                             "corrupt", category="safety")
    campaign.add_requirement("BL1-070", "program the eFPGA bitstream")

    def t_order():
        report = run_boot_chain(_fresh_soc()).bl1.report
        names = [s.name for s in report.steps]
        return names.index("pll-lock") < names.index("ddr-training")

    def t_integrity():
        return run_boot_chain(_fresh_soc()).bl1.report.success

    def t_mpu():
        soc = _fresh_soc()
        run_boot_chain(soc)
        return soc.bus.mpu.enabled

    def t_report():
        from ..soc.peripherals import REG_BOOT_REPORT
        soc = _fresh_soc()
        run_boot_chain(soc)
        return soc.peripheral_file.mailbox[REG_BOOT_REPORT] > 0

    def t_chain():
        result = run_boot_chain(_fresh_soc(), run_application=True)
        return result.bl2 is not None

    def t_recover_seq():
        result = run_boot_chain(
            _fresh_soc(corrupt=1),
            config=Bl1Config(redundancy=RedundancyMode.SEQUENTIAL))
        return result.bl1.report.had_recovery

    def t_recover_tmr():
        result = run_boot_chain(
            _fresh_soc(corrupt=1),
            config=Bl1Config(redundancy=RedundancyMode.TMR))
        return result.bl1.report.success

    def t_fail_safe():
        from ..boot import Bl1Error
        try:
            run_boot_chain(_fresh_soc(corrupt=3))
        except Bl1Error:
            return True
        return False

    def t_efpga():
        from ..apps import image
        from .project import HermesProject
        project = HermesProject(cache=cache)
        accelerator = project.build_accelerator(image.MEDIAN3_C, "median3",
                                                effort=0.1)
        project.deploy_and_boot(accelerator, run_application=False)
        return project.last_soc.efpga.programmed

    campaign.add_test("UT-ORDER", Level.UNIT, ["BL1-010"], t_order,
                      "PLL precedes DDR training")
    campaign.add_test("UT-INTEGRITY", Level.UNIT, ["BL1-020"], t_integrity,
                      "nominal CRC verification")
    campaign.add_test("UT-MPU", Level.UNIT, ["BL1-030"], t_mpu,
                      "MPU active after BL1")
    campaign.add_test("UT-REPORT", Level.UNIT, ["BL1-040"], t_report,
                      "boot report in mailbox")
    campaign.add_test("IT-CHAIN", Level.INTEGRATION,
                      ["BL1-010", "BL1-020", "BL1-040"], t_chain,
                      "BL0->BL1->BL2 with application execution")
    campaign.add_test("VT-RECOVER-SEQ", Level.VALIDATION, ["BL1-050"],
                      t_recover_seq, "sequential redundancy under SEU")
    campaign.add_test("VT-RECOVER-TMR", Level.VALIDATION, ["BL1-050"],
                      t_recover_tmr, "TMR redundancy under SEU")
    campaign.add_test("VT-FAILSAFE", Level.VALIDATION, ["BL1-060"],
                      t_fail_safe, "triple corruption aborts safely")
    campaign.add_test("VT-EFPGA", Level.VALIDATION, ["BL1-070"], t_efpga,
                      "bitstream programming through the full chain")
    return campaign


def run_qualification(cache=None):
    """Run the campaign; return ``(table, report, trl, pack)``."""
    from ..analysis import Analyzer, example_targets
    from ..telemetry import Tracer

    campaign = build_campaign(cache=cache)
    report = campaign.run()
    trl = assess_trl(report, validated_in_relevant_environment=True)
    # Static-verification evidence rides in the datapack (SAR): lint the
    # example artifact of every layer with the full rule catalogue.
    lint_report = Analyzer().run(example_targets())
    # Semantic-verification evidence (SVR): the deep pass re-lints the
    # examples plus the cross-layer bundle under abstract interpretation.
    deep_report = Analyzer(deep=True).run(example_targets(deep=True))
    # Measured evidence rides in the datapack (TEL): trace a recovery
    # boot — the validation scenario with the richest step/counter mix.
    tracer = Tracer()
    run_boot_chain(_fresh_soc(corrupt=1),
                   config=Bl1Config(redundancy=RedundancyMode.SEQUENTIAL),
                   tracer=tracer)
    pack = generate_datapack("HERMES-BL1", campaign, report,
                             lint_report=lint_report, tracer=tracer,
                             deep_report=deep_report)
    table = Table("ECSS qualification summary — BL1 (paper §IV)",
                  ["level", "passed", "failed", "total"])
    for level in Level:
        table.add_row(level.value, report.passed(level),
                      report.failed(level), report.total(level))
    table.add_note(f"requirement coverage: "
                   f"{report.requirement_coverage():.0%}")
    table.add_note(f"TRL achieved: {trl.level} "
                   f"(project objective: TRL 6)")
    table.add_note(f"datapack: {', '.join(sorted(pack.documents))}")
    return table, report, trl, pack
