"""Tests for the NG-ULTRA SoC model: CPU, memory map, MPU, peripherals,
SpaceWire."""

import pytest

from repro.soc import (
    CoreState,
    CpuError,
    DDR_BASE,
    MemoryFault,
    MpuRegion,
    NgUltraSoc,
    PERIPH_BASE,
    SRAM_BASE,
    SpaceWireError,
    TCM_BASE,
    WordArray,
    assemble,
    default_mpu_regions,
    disassemble,
)
from repro.soc.peripherals import (
    REG_DDR_CTRL,
    REG_DDR_STATUS,
    REG_EFPGA_STATUS,
    REG_FLASH_CTRL,
    REG_PLL_CTRL,
    REG_PLL_STATUS,
)
from repro.soc.memory import EccSram


def run_program(source, max_steps=10_000, setup=None):
    soc = NgUltraSoc()
    words = assemble(source, base_address=TCM_BASE)
    soc.tcm.load(words)
    if setup:
        setup(soc)
    core = soc.master_core()
    core.reset(entry_point=TCM_BASE)
    core.run(max_steps)
    return soc, core


class TestAssembler:
    def test_simple_encode_decode(self):
        words = assemble("MOVI r1, #42\nHALT")
        assert disassemble(words[0]) == "MOVI r1, #42"
        assert disassemble(words[1]) == "HALT"

    def test_labels_and_branches(self):
        source = """
        MOVI r0, #0
        loop:
        ADDI r0, r0, #1
        MOVI r1, #5
        CMP r0, r1
        BNE loop
        HALT
        """
        words = assemble(source)
        assert len(words) == 6

    def test_word_directive(self):
        words = assemble(".WORD 0xDEADBEEF 123")
        assert words == [0xDEADBEEF, 123]

    def test_bad_register(self):
        with pytest.raises(CpuError):
            assemble("MOV r99, r0")

    def test_unknown_mnemonic(self):
        with pytest.raises(CpuError):
            assemble("FROB r0, r1")

    def test_sp_lr_pc_aliases(self):
        words = assemble("MOV sp, lr")
        assert disassemble(words[0]) == "MOV r13, r14"


class TestCoreExecution:
    def test_arithmetic_loop(self):
        source = """
        MOVI r0, #0
        MOVI r2, #0
        MOVI r3, #10
        loop:
        ADD r2, r2, r0
        ADDI r0, r0, #1
        CMP r0, r3
        BLT loop
        HALT
        """
        _soc, core = run_program(source)
        assert core.state is CoreState.HALTED
        assert core.regs[2] == sum(range(10))

    def test_memory_load_store(self):
        source = f"""
        MOVI r1, #0x1000
        MOVI r2, #0x100
        LSL r1, r1, r2   ; nonsense? build address differently
        HALT
        """
        # Simpler: store/load within TCM using register arithmetic.
        source = """
        MOVI r1, #4096      ; scratch offset within TCM
        MOVI r4, #1048576   ; won't fit imm16 -> use shifts
        HALT
        """
        # The imm16 limit means addresses are built with LSL.
        source = """
        MOVI r1, #16        ; 0x10
        MOVI r2, #16
        LSL r1, r1, r2      ; r1 = 0x10 << 16 = 0x100000 (TCM base)
        MOVI r3, #77
        STR r3, [r1, #0x40]
        LDR r4, [r1, #0x40]
        HALT
        """
        _soc, core = run_program(source)
        assert core.regs[4] == 77

    def test_bl_and_bx_subroutine(self):
        source = """
        MOVI r0, #5
        BL double
        HALT
        double:
        ADD r0, r0, r0
        BX lr
        """
        _soc, core = run_program(source)
        assert core.regs[0] == 10
        assert core.state is CoreState.HALTED

    def test_unmapped_access_faults(self):
        source = """
        MOVI r1, #255
        MOVI r2, #24
        LSL r1, r1, r2     ; 0xFF000000 - unmapped
        LDR r0, [r1, #0]
        HALT
        """
        _soc, core = run_program(source)
        assert core.state is CoreState.FAULTED
        assert "unmapped" in core.fault_reason

    def test_undefined_instruction_faults(self):
        soc = NgUltraSoc()
        soc.tcm.load([0xFF000000])
        core = soc.master_core()
        core.reset(entry_point=TCM_BASE)
        core.run(10)
        assert core.state is CoreState.FAULTED

    def test_svc_traps_to_handler(self):
        calls = []

        def handler(core, imm):
            calls.append(imm)

        soc = NgUltraSoc(svc_handler=handler)
        soc.tcm.load(assemble("SVC #7\nHALT", base_address=TCM_BASE))
        core = soc.master_core()
        core.reset(entry_point=TCM_BASE)
        core.run(10)
        assert calls == [7]


class TestMemoryMap:
    def test_ddr_blocked_before_init(self):
        soc = NgUltraSoc()
        with pytest.raises(MemoryFault, match="DDR before init"):
            soc.bus.read_word(DDR_BASE)

    def test_ddr_after_training(self):
        soc = NgUltraSoc()
        soc.bus.write_word(PERIPH_BASE + REG_DDR_CTRL * 4, 1)
        for _ in range(20):
            if soc.bus.read_word(PERIPH_BASE + REG_DDR_STATUS * 4):
                break
        soc.bus.write_word(DDR_BASE + 8, 0xCAFE)
        assert soc.bus.read_word(DDR_BASE + 8) == 0xCAFE

    def test_sram_is_ecc_protected(self):
        soc = NgUltraSoc()
        soc.bus.write_word(SRAM_BASE, 1234)
        soc.sram.memory.inject_bit_flip(0, 5)
        assert soc.bus.read_word(SRAM_BASE) == 1234
        assert soc.sram.memory.stats.corrected == 1

    def test_erom_write_protected(self):
        soc = NgUltraSoc()
        soc.load_erom([1, 2, 3])
        with pytest.raises(MemoryFault):
            soc.bus.write_word(0, 9)
        assert soc.bus.read_word(0) == 1

    def test_flash_window_needs_controller(self):
        from repro.soc import FLASH_A_BASE
        soc = NgUltraSoc()
        soc.flash_controller.program(0, 0, [0xAB])
        with pytest.raises(MemoryFault):
            soc.bus.read_word(FLASH_A_BASE)
        soc.bus.write_word(PERIPH_BASE + REG_FLASH_CTRL * 4, 1)
        assert soc.bus.read_word(FLASH_A_BASE) == 0xAB


class TestWordArrayLoad:
    def test_load_masks_to_32_bits(self):
        array = WordArray(4)
        array.load([1 << 32 | 7, -1], 1)
        assert array.data == [0, 7, 0xFFFFFFFF, 0]

    @pytest.mark.parametrize("offset,count", [(3, 2), (-1, 1), (5, 0)])
    def test_out_of_range_load_writes_nothing(self, offset, count):
        array = WordArray(4)
        array.load([1, 2, 3, 4])
        with pytest.raises(IndexError):
            array.load([9] * count, offset)
        assert array.data == [1, 2, 3, 4]

    def test_flash_program_takes_any_iterable(self):
        soc = NgUltraSoc()
        soc.flash_controller.program(1, 2, (w for w in (5, 6)))
        assert soc.flash_controller.banks[1].data[:5] == [0, 0, 5, 6, 0]


class TestEccSramLoad:
    def test_load_masks_to_32_bits(self):
        sram = EccSram(4)
        sram.load((w for w in (1 << 32 | 7, -1)), 1)
        assert [sram.read(i) for i in range(4)] == [0, 7, 0xFFFFFFFF, 0]

    @pytest.mark.parametrize("offset,count", [(1, 6), (3, 2), (-1, 1),
                                              (5, 0)])
    def test_out_of_range_load_writes_nothing(self, offset, count):
        sram = EccSram(4)
        sram.load([1, 2, 3, 4])
        with pytest.raises(IndexError):
            sram.load(list(range(10, 10 + count)), offset)
        assert [sram.read(i) for i in range(4)] == [1, 2, 3, 4]


class TestMpu:
    def test_default_deny_unlisted(self):
        soc = NgUltraSoc()
        soc.bus.mpu.configure([MpuRegion("tcm_only", TCM_BASE, 0x1000)])
        soc.bus.read_word(TCM_BASE)  # allowed
        with pytest.raises(MemoryFault, match="MPU"):
            soc.bus.read_word(SRAM_BASE)

    def test_unprivileged_blocked_from_periph(self):
        soc = NgUltraSoc()
        soc.bus.mpu.configure(default_mpu_regions())
        core = soc.master_core()
        core.privileged = False
        with pytest.raises(MemoryFault, match="MPU"):
            soc.bus.read_word(PERIPH_BASE, core)
        core.privileged = True
        soc.bus.read_word(PERIPH_BASE, core)

    def test_write_protection(self):
        from repro.soc import FLASH_A_BASE
        soc = NgUltraSoc()
        soc.flash_controller.enabled = True
        soc.bus.mpu.configure(default_mpu_regions())
        with pytest.raises(MemoryFault):
            soc.bus.write_word(FLASH_A_BASE, 1)


class TestPeripherals:
    def test_pll_lock_sequence(self):
        soc = NgUltraSoc()
        status_addr = PERIPH_BASE + REG_PLL_STATUS * 4
        assert soc.bus.read_word(status_addr) == 0
        soc.bus.write_word(PERIPH_BASE + REG_PLL_CTRL * 4, 1)
        polls = 0
        while soc.bus.read_word(status_addr) == 0:
            polls += 1
            assert polls < 50
        assert soc.pll.locked

    def test_watchdog_expiry(self):
        soc = NgUltraSoc()
        soc.watchdog.enable(timeout=10)
        assert not soc.watchdog.tick(5)
        soc.watchdog.kick()
        assert not soc.watchdog.tick(9)
        assert soc.watchdog.tick(10)
        assert soc.watchdog.expired

    def test_efpga_accepts_valid_bitstream(self):
        from repro.fabric import (NG_ULTRA, generate_bitstream, place,
                                  scaled_device, synthesize_component)
        device = scaled_device(NG_ULTRA, "T", 2048)
        netlist = synthesize_component("logic", 8)
        placement = place(netlist, device, seed=1)
        bitstream = generate_bitstream(netlist, placement.locations,
                                       placement.grid, "T")
        soc = NgUltraSoc()
        soc.efpga.begin()
        soc.efpga.push_bytes(bitstream.to_bytes())
        assert soc.efpga.finish()
        status = soc.bus.read_word(PERIPH_BASE + REG_EFPGA_STATUS * 4)
        assert status & 1  # programmed
        assert status & 2  # crc ok

    def test_efpga_rejects_corrupted_bitstream(self):
        from repro.fabric import (NG_ULTRA, generate_bitstream, place,
                                  scaled_device, synthesize_component)
        device = scaled_device(NG_ULTRA, "T", 2048)
        netlist = synthesize_component("logic", 8)
        placement = place(netlist, device, seed=1)
        bitstream = generate_bitstream(netlist, placement.locations,
                                       placement.grid, "T")
        raw = bytearray(bitstream.to_bytes())
        raw[40] ^= 0xFF  # corrupt frame payload
        soc = NgUltraSoc()
        soc.efpga.begin()
        soc.efpga.push_bytes(bytes(raw))
        assert not soc.efpga.finish()
        assert "CRC" in soc.efpga.error

    def test_efpga_rejects_garbage(self):
        soc = NgUltraSoc()
        soc.efpga.begin()
        soc.efpga.push_bytes(b"not a bitstream at all")
        assert not soc.efpga.finish()


class TestSpaceWire:
    def test_request_response_roundtrip(self):
        soc = NgUltraSoc()
        node = soc.attach_ground_node()
        node.host_object(5, [10, 20, 30])
        soc.spacewire.send_request(5)
        payload = soc.spacewire.receive_object(5)
        assert payload == [10, 20, 30]
        assert node.requests_served == 1

    def test_nak_for_unknown_object(self):
        soc = NgUltraSoc()
        soc.attach_ground_node()
        soc.spacewire.send_request(99)
        with pytest.raises(SpaceWireError, match="NAK"):
            soc.spacewire.receive_object(99)

    def test_status_word(self):
        soc = NgUltraSoc()
        node = soc.attach_ground_node()
        assert soc.spacewire.status_word() == 1  # link up, no data
        node.host_object(1, [7])
        soc.spacewire.send_request(1)
        assert soc.spacewire.status_word() & 2  # rx ready

    def test_crc_protects_payload(self):
        soc = NgUltraSoc()
        node = soc.attach_ground_node()
        node.host_object(3, [1, 2, 3])
        soc.spacewire.send_request(3)
        # Corrupt a payload word in flight.
        fifo = list(soc.spacewire.rx_fifo)
        fifo[3] ^= 0xFF
        soc.spacewire.rx_fifo.clear()
        soc.spacewire.rx_fifo.extend(fifo)
        with pytest.raises(SpaceWireError, match="CRC"):
            soc.spacewire.receive_object(3)


class TestMulticore:
    def test_secondary_release(self):
        soc = NgUltraSoc()
        program = assemble("MOVI r0, #7\nHALT", base_address=TCM_BASE)
        soc.tcm.load(program)
        for core in soc.cores:
            assert core.state is CoreState.RESET
        soc.master_core().reset(TCM_BASE)
        soc.release_secondaries(TCM_BASE)
        soc.run_all()
        assert all(core.state is CoreState.HALTED for core in soc.cores)
        assert all(core.regs[0] == 7 for core in soc.cores)

    def test_four_cores(self):
        from repro.soc import NUM_CORES
        assert NUM_CORES == 4
        assert len(NgUltraSoc().cores) == 4
