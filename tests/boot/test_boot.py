"""Tests for the BL0/BL1/BL2 boot chain."""

import pytest

from repro.boot import (
    Bl0Error,
    Bl1Config,
    Bl1Error,
    BootImage,
    ImageError,
    ImageKind,
    LoadEntry,
    LoadList,
    LoadSource,
    RedundancyMode,
    StepStatus,
    make_bl1_image,
    provision_flash,
    run_bl0,
    run_bl1,
    run_boot_chain,
)
from repro.boot.bl0 import BL1_FLASH_OFFSET, BL1_SPACEWIRE_OBJECT
from repro.hypervisor import (
    Compute,
    EndActivation,
    MemoryArea,
    SvcBridge,
    SystemConfig,
    XtratumHypervisor,
)
from repro.soc import CoreState, DDR_BASE, NgUltraSoc, assemble


def app_image(payload=None, load=DDR_BASE, entry=None):
    payload = payload or [0x11111111, 0x22222222, 0x33333333]
    return BootImage(kind=ImageKind.APPLICATION, load_address=load,
                     entry_point=entry if entry is not None else load,
                     payload=payload, name="app")


def bitstream_image():
    from repro.fabric import (NG_ULTRA, generate_bitstream, place,
                              scaled_device, synthesize_component)
    device = scaled_device(NG_ULTRA, "BOOT-T", 2048)
    netlist = synthesize_component("logic", 8)
    placement = place(netlist, device, seed=4)
    bitstream = generate_bitstream(netlist, placement.locations,
                                   placement.grid, "BOOT-T")
    raw = bitstream.to_bytes()
    words = [int.from_bytes(raw[i:i + 4].ljust(4, b"\0"), "little")
             for i in range(0, len(raw), 4)]
    return BootImage(kind=ImageKind.BITSTREAM, load_address=0,
                     entry_point=0, payload=words, name="matrix")


class TestImageFormat:
    def test_roundtrip(self):
        image = app_image()
        parsed = BootImage.parse(image.to_words())
        assert parsed.kind is ImageKind.APPLICATION
        assert parsed.payload == image.payload
        assert parsed.load_address == image.load_address

    def test_bad_magic(self):
        words = app_image().to_words()
        words[0] = 0x12345678
        with pytest.raises(ImageError, match="magic"):
            BootImage.parse(words)

    def test_payload_corruption_detected(self):
        words = app_image().to_words()
        words[BootImage.HEADER_WORDS] ^= 1
        with pytest.raises(ImageError, match="CRC"):
            BootImage.parse(words)

    def test_truncation_detected(self):
        words = app_image().to_words()
        with pytest.raises(ImageError):
            BootImage.parse(words[:-1])

    def test_loadlist_roundtrip(self):
        llist = LoadList()
        llist.add(LoadEntry(ImageKind.APPLICATION, LoadSource.FLASH,
                            0x100, copies=2, stride=0x80))
        llist.add(LoadEntry(ImageKind.BITSTREAM, LoadSource.SPACEWIRE, 7))
        parsed = LoadList.parse(llist.to_words())
        assert len(parsed.entries) == 2
        assert parsed.entries[0].copies == 2
        assert parsed.entries[1].source is LoadSource.SPACEEWIRE \
            if hasattr(LoadSource, "SPACEEWIRE") else \
            parsed.entries[1].source is LoadSource.SPACEWIRE

    def test_loadlist_crc(self):
        llist = LoadList()
        llist.add(LoadEntry(ImageKind.APPLICATION, LoadSource.FLASH, 5))
        words = llist.to_words()
        words[4] ^= 0xFF
        with pytest.raises(ImageError, match="CRC"):
            LoadList.parse(words)


class TestBl0:
    def test_boot_from_bank_a(self):
        soc = NgUltraSoc()
        provision_flash(soc, [app_image()])
        result = run_bl0(soc)
        assert result.report.boot_source == "flash-bank-A"
        assert result.entry_point == make_bl1_image().entry_point

    def test_fallback_to_bank_b(self):
        soc = NgUltraSoc()
        provision_flash(soc, [app_image()])
        # Corrupt BL1 in bank A.
        soc.flash_controller.corrupt_word(0, BL1_FLASH_OFFSET + 8, 0xFF)
        result = run_bl0(soc)
        assert result.report.boot_source == "flash-bank-B"
        assert result.report.had_recovery or result.report.recovered_objects

    def test_bank_b_mirrors_bank_a(self):
        soc = NgUltraSoc()
        provision_flash(soc, [app_image()])
        bank_a, bank_b = soc.flash_controller.banks
        assert bank_b.data == bank_a.data
        assert bank_b.data is not bank_a.data
        before = list(bank_b.data)
        soc.flash_controller.corrupt_word(0, BL1_FLASH_OFFSET + 8, 0xFF)
        assert bank_b.data == before != bank_a.data

    def test_fallback_to_spacewire(self):
        soc = NgUltraSoc()
        node = soc.attach_ground_node()
        provision_flash(soc, [app_image()], mirror_bank_b=False)
        soc.flash_controller.corrupt_word(0, BL1_FLASH_OFFSET + 8, 0xFF)
        node.host_object(BL1_SPACEWIRE_OBJECT, make_bl1_image().to_words())
        result = run_bl0(soc)
        assert result.report.boot_source == "spacewire"

    def test_total_failure(self):
        soc = NgUltraSoc()
        with pytest.raises(Bl0Error):
            run_bl0(soc)

    def test_bl1_loaded_to_tcm(self):
        soc = NgUltraSoc()
        provision_flash(soc, [app_image()])
        result = run_bl0(soc)
        image = result.image
        first = soc.bus.read_word(image.load_address)
        assert first == image.payload[0]


class TestBl1:
    def booted_soc(self, objects=None, **flash_kwargs):
        soc = NgUltraSoc()
        provision_flash(soc, objects if objects is not None
                        else [app_image()], **flash_kwargs)
        run_bl0(soc)
        return soc

    def test_hardware_init_sequence(self):
        soc = self.booted_soc()
        result = run_bl1(soc)
        names = [step.name for step in result.report.steps]
        assert names.index("pll-lock") < names.index("ddr-training")
        assert soc.pll.locked
        assert soc.ddr_controller.initialized
        assert soc.bus.mpu.enabled

    def test_application_deployed_to_ddr(self):
        soc = self.booted_soc()
        result = run_bl1(soc)
        assert soc.bus.read_word(DDR_BASE) == 0x11111111
        assert result.next_entry == DDR_BASE
        assert result.next_kind is ImageKind.APPLICATION

    def test_boot_report_in_mailbox(self):
        from repro.soc.peripherals import REG_BOOT_REPORT
        soc = self.booted_soc()
        run_bl1(soc)
        count = soc.peripheral_file.mailbox[REG_BOOT_REPORT]
        assert count > 5

    def test_corrupted_copy_recovered_sequentially(self):
        from repro.boot.chain import OBJECT_AREA_OFFSET
        soc = self.booted_soc()
        # Corrupt the first copy's payload.
        soc.flash_controller.corrupt_word(
            0, OBJECT_AREA_OFFSET + BootImage.HEADER_WORDS, 0xFFFF)
        result = run_bl1(soc)
        assert result.report.had_recovery
        assert soc.bus.read_word(DDR_BASE) == 0x11111111

    def test_all_copies_corrupted_fails(self):
        from repro.boot.chain import DEFAULT_COPY_STRIDE, OBJECT_AREA_OFFSET
        soc = self.booted_soc()
        for copy in range(2):
            soc.flash_controller.corrupt_word(
                0, OBJECT_AREA_OFFSET + copy * DEFAULT_COPY_STRIDE
                + BootImage.HEADER_WORDS, 0xFFFF)
        with pytest.raises(Bl1Error):
            run_bl1(soc)

    def test_tmr_redundancy_votes_out_corruption(self):
        from repro.boot.chain import DEFAULT_COPY_STRIDE, OBJECT_AREA_OFFSET
        soc = self.booted_soc(copies=3)
        # Corrupt a different word in two different copies: sequential
        # fallback would fail copy 0, but TMR voting repairs word-wise.
        soc.flash_controller.corrupt_word(
            0, OBJECT_AREA_OFFSET + BootImage.HEADER_WORDS, 0x0F0F)
        soc.flash_controller.corrupt_word(
            0, OBJECT_AREA_OFFSET + DEFAULT_COPY_STRIDE
            + BootImage.HEADER_WORDS + 1, 0xF0F0)
        config = Bl1Config(redundancy=RedundancyMode.TMR)
        result = run_bl1(soc, config)
        assert soc.bus.read_word(DDR_BASE) == 0x11111111
        assert result.report.had_recovery

    def test_bitstream_programmed_into_efpga(self):
        soc = self.booted_soc(objects=[bitstream_image(), app_image()])
        result = run_bl1(soc)
        assert soc.efpga.programmed
        assert soc.efpga.crc_ok
        kinds = [d.kind for d in result.deployed]
        assert ImageKind.BITSTREAM in kinds

    def test_loadlist_from_spacewire(self):
        soc = NgUltraSoc()
        node = soc.attach_ground_node()
        provision_flash(soc, [])  # BL1 present, flash loadlist empty-ish
        run_bl0(soc)
        image = app_image()
        llist = LoadList()
        llist.add(LoadEntry(ImageKind.APPLICATION, LoadSource.SPACEWIRE,
                            locator=40))
        node.host_object(2, llist.to_words())
        node.host_object(40, image.to_words())
        config = Bl1Config(loadlist_source=LoadSource.SPACEWIRE)
        result = run_bl1(soc, config)
        assert result.report.boot_source == "spacewire"
        assert soc.bus.read_word(DDR_BASE) == 0x11111111


class TestFullChain:
    def test_complete_boot_runs_application(self):
        soc = NgUltraSoc()
        program = assemble("""
            MOVI r0, #21
            ADD r0, r0, r0
            HALT
        """, base_address=DDR_BASE)
        provision_flash(soc, [app_image(payload=program)])
        result = run_boot_chain(soc, run_application=True)
        assert result.bl2 is not None
        assert all(core.regs[0] == 42 for core in soc.cores)
        assert result.total_cycles > 0

    def test_boot_timing_breakdown(self):
        soc = NgUltraSoc()
        provision_flash(soc, [app_image()])
        result = run_boot_chain(soc)
        bl1_report = result.bl1.report
        assert bl1_report.cycles_of("ddr-training") > \
            bl1_report.cycles_of("pll-lock")
        text = result.render()
        assert "BL0 boot report" in text
        assert "BL1 boot report" in text

    def test_multicore_release(self):
        soc = NgUltraSoc()
        program = assemble("MOVI r5, #9\nHALT", base_address=DDR_BASE)
        provision_flash(soc, [app_image(payload=program)])
        result = run_boot_chain(soc, multicore=True, run_application=True)
        assert result.bl2.released_cores == [0, 1, 2, 3]

    def test_singlecore_boot(self):
        soc = NgUltraSoc()
        program = assemble("HALT", base_address=DDR_BASE)
        provision_flash(soc, [app_image(payload=program)])
        result = run_boot_chain(soc, multicore=False, run_application=True)
        assert result.bl2.released_cores == [0]

    def test_faulting_application_reported(self):
        from repro.boot import Bl2Error
        soc = NgUltraSoc()
        # Application reads an unmapped address.
        program = assemble("""
            MOVI r1, #255
            MOVI r2, #24
            LSL r1, r1, r2
            LDR r0, [r1, #0]
            HALT
        """, base_address=DDR_BASE)
        provision_flash(soc, [app_image(payload=program)])
        with pytest.raises(Bl2Error, match="faulted"):
            run_boot_chain(soc, run_application=True)


class TestSpaceWireLinkDown:
    def test_bl1_skips_spacewire_when_link_down(self):
        soc = NgUltraSoc()
        soc.spacewire.connected = False
        provision_flash(soc, [app_image()])
        run_bl0(soc)
        result = run_bl1(soc)
        step = result.report.step("spacewire-link")
        assert step.status is StepStatus.SKIPPED
        assert result.report.success  # link-down is not a boot failure


#: An SVC-heavy guest: each outer trip traps XM_GET_TIME, grinds an ALU
#: loop and bounces a value through DDR.  Every core runs it, so the
#: final state does not depend on the interleave.
SMP_GUEST = """
    MOVI r10, #16
    MOVI r11, #16
    LSL  r10, r10, r11
    MOVI r11, #16384
    ADD  r10, r10, r11
    MOVI r7, #40
outer:
    MOVI r0, #1
    SVC  #0
    MOV  r4, r0
    MOVI r1, #10
inner:
    ADD  r2, r2, r4
    EOR  r3, r2, r1
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


def boot_smp_guest(engine):
    """Provision and boot the 4-core guest under the hypervisor's SVC
    bridge; returns the SoC's architectural state and its DBT stats."""
    config = SystemConfig(cores=4, context_switch_us=2.0)
    config.add_partition(0, "P0", [MemoryArea("p0ram", 0x1000, 0x1000)])
    config.add_partition(1, "P1", [MemoryArea("p1ram", 0x2000, 0x1000)])
    plan = config.add_plan(0, major_frame_us=1000.0)
    plan.add_window(0, core=0, start_us=0.0, duration_us=400.0)
    plan.add_window(1, core=0, start_us=400.0, duration_us=400.0)
    hv = XtratumHypervisor(config)

    def workload():
        while True:
            yield Compute(100.0)
            yield EndActivation()

    hv.load_partition(0, workload, period_us=1000.0)
    hv.load_partition(1, workload, period_us=1000.0)
    hv.run(frames=2)
    bridge = SvcBridge(hv.api, partition_of_core={0: 0, 1: 1, 2: 0, 3: 1})
    soc = NgUltraSoc(svc_handler=bridge, engine=engine)
    guest = assemble(SMP_GUEST, base_address=DDR_BASE)
    provision_flash(soc, [app_image(payload=guest)])
    boot = run_boot_chain(soc, multicore=True, run_application=True)
    state = {
        "halted": [core.state is CoreState.HALTED for core in soc.cores],
        "boot_cycles": boot.total_cycles,
        "regs": [list(core.regs) for core in soc.cores],
        "flags": [(core.flag_z, core.flag_n, core.flag_v)
                  for core in soc.cores],
        "cycles": [core.cycles for core in soc.cores],
        "bus": (soc.bus.reads, soc.bus.writes),
        "tcm": list(soc.tcm.data),
        "ddr": list(soc.ddr.data),
        "traps": bridge.trap_count,
        "hypercalls": dict(hv.api.calls),
    }
    return state, soc.dbt_cache.stats() if soc.dbt_cache else None


class TestSmpGuestIdentity:
    """The DBT engine's boot + SMP guest ends where the reference
    interpreter's does (a small copy of ``bench_sim_dbt.py``'s check)."""

    def test_dbt_matches_interpreter(self):
        dbt, stats = boot_smp_guest("dbt")
        ref, _ = boot_smp_guest("interp")
        assert dbt["halted"] == [True] * 4
        assert dbt["traps"] == 4 * 40
        assert dbt == ref
        # One compile per distinct block start of the guest.
        assert stats["compiled"] == 6

