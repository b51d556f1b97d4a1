"""BL1 qualification: boot robustness, SEU campaigns, ECSS datapack.

Reproduces the qualification story of paper §IV: the boot chain is
exercised nominally and under flash corruption, SEU campaigns measure the
hardening of ECC/TMR-protected storage, and the evidence is compiled into
the mandatory ECSS document set (SRS, SUITP/SUITR, SVTS, SValP/SValR,
SUM) with a TRL assessment.

Run:  python examples/boot_and_qualify.py
"""


from repro.boot import (
    Bl1Config,
    BootImage,
    ImageKind,
    RedundancyMode,
    provision_flash,
    run_boot_chain,
)
from repro.boot.chain import OBJECT_AREA_OFFSET
from repro.core import (
    Level,
    QualificationCampaign,
    assess_trl,
    generate_datapack,
)
from repro.radhard import (
    Campaign,
    EccError,
    EccMemory,
    EccMemoryTarget,
    SeuInjector,
)
from repro.soc import DDR_BASE, NgUltraSoc, assemble


def fresh_soc(corrupt_first_copy=False):
    soc = NgUltraSoc()
    program = assemble("MOVI r0, #7\nHALT", base_address=DDR_BASE)
    app = BootImage(kind=ImageKind.APPLICATION, load_address=DDR_BASE,
                    entry_point=DDR_BASE, payload=program, name="app")
    provision_flash(soc, [app], copies=3)
    if corrupt_first_copy:
        soc.flash_controller.corrupt_word(
            0, OBJECT_AREA_OFFSET + BootImage.HEADER_WORDS, 0xFFFF)
    return soc


def main() -> None:
    print("HERMES BL1 qualification run (paper §IV)")
    print("=" * 64)

    # --- boot robustness evidence ---------------------------------------
    nominal = run_boot_chain(fresh_soc(), run_application=True)
    print(f"\nNominal boot: {nominal.total_cycles} cycles, "
          f"success={nominal.bl1.report.success}")

    recovered = run_boot_chain(fresh_soc(corrupt_first_copy=True),
                               config=Bl1Config(
                                   redundancy=RedundancyMode.SEQUENTIAL))
    print(f"Corrupted-copy boot: recovered="
          f"{recovered.bl1.report.had_recovery}, "
          f"{recovered.total_cycles} cycles "
          f"(+{recovered.total_cycles - nominal.total_cycles} recovery cost)")

    # --- SEU campaign on protected vs raw memory --------------------------
    def protected_setup():
        memory = EccMemory(64)
        for address in range(64):
            memory.write(address, address * 3)
        return memory

    def protected_inject(memory, rng):
        injector = SeuInjector(EccMemoryTarget(memory),
                               seed=rng.randrange(1 << 30))
        return injector.inject_random().description

    def protected_evaluate(memory):
        try:
            values = [memory.read(a) for a in range(64)]
        except EccError:
            return "detected"
        if values != [a * 3 for a in range(64)]:
            return "sdc"
        return "corrected" if memory.stats.corrected else "masked"

    campaign = Campaign("ecc-sram", protected_setup, protected_inject,
                        protected_evaluate)
    seu_report = campaign.run(runs=300, seed=9)
    print("\nSEU campaign (300 upsets into ECC-protected SRAM):")
    print(" ", seu_report.summary())

    # --- ECSS qualification campaign ---------------------------------------
    qual = QualificationCampaign("HERMES-BL1")
    qual.add_requirement("BL1-REQ-010", "BL1 shall initialize PLL, DDR, "
                         "flash, SpaceWire and TCM before loading software")
    qual.add_requirement("BL1-REQ-020", "BL1 shall verify the integrity of "
                         "every deployed object (CRC32)")
    qual.add_requirement("BL1-REQ-030", "BL1 shall recover from single "
                         "corrupted flash copies via redundancy",
                         category="safety")
    qual.add_requirement("BL1-REQ-040", "BL1 shall produce a boot report "
                         "for next-stage software")
    qual.add_requirement("BL1-REQ-050", "Protected memories shall correct "
                         "single-bit upsets", category="safety")

    qual.add_test("UT-PLL", Level.UNIT, ["BL1-REQ-010"],
                  lambda: run_boot_chain(fresh_soc()).bl1.report
                  .cycles_of("pll-lock") > 0,
                  "PLL lock step present and accounted")
    qual.add_test("UT-CRC", Level.UNIT, ["BL1-REQ-020"],
                  lambda: nominal.bl1.report.success,
                  "nominal integrity pass")
    qual.add_test("IT-BOOT", Level.INTEGRATION,
                  ["BL1-REQ-010", "BL1-REQ-020", "BL1-REQ-040"],
                  lambda: nominal.bl2 is not None,
                  "full BL0->BL1->BL2 chain")
    qual.add_test("VT-REDUNDANCY", Level.VALIDATION, ["BL1-REQ-030"],
                  lambda: recovered.bl1.report.had_recovery,
                  "boot with injected flash corruption")
    qual.add_test("VT-SEU", Level.VALIDATION, ["BL1-REQ-050"],
                  lambda: seu_report.counts.get("sdc", 0) == 0,
                  "SEU campaign: zero silent corruption")

    report = qual.run()
    trl = assess_trl(report, validated_in_relevant_environment=True)
    print(f"\nQualification: {report.passed()}/{report.total()} tests "
          f"passed, requirement coverage "
          f"{report.requirement_coverage():.0%}")
    print(f"TRL assessment: TRL {trl.level}")
    for line in trl.justification:
        print(f"  - {line}")

    # --- ECSS datapack ---------------------------------------------------
    pack = generate_datapack("HERMES-BL1", qual, report)
    print(f"\nDatapack complete: {pack.complete} "
          f"({', '.join(sorted(pack.documents))})")
    print("\nSValR excerpt:")
    for line in pack.documents["SValR"].splitlines()[:14]:
        print("   ", line)


if __name__ == "__main__":
    main()
