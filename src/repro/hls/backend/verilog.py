"""Verilog 2001 emission of scheduled designs.

The generated RTL is a classic FSMD: a state register driven by the
controller FSM plus a datapath of registers, memory arrays and sub-module
instances.  Operation timing realism lives in the *schedule* (states and
stalls); inside a state the behaviour is emitted with blocking assignments
in scheduled order, which preserves the chaining semantics the scheduler
assumed.  Multi-cycle results are written with non-blocking assignments at
their issue state — consumers only read them at ``start + latency`` per
the verified schedule, so early availability in simulation is harmless.

Memory interfaces follow the paper's description: local arrays map onto
true-dual-port RAM templates compliant with the NXmap synthesis
guidelines, pointer parameters become either BRAM ports or AXI4 master
interfaces (see ``axi.py``).
"""

from __future__ import annotations

from typing import List, Optional

from ..ir import (
    Assign,
    BinOp,
    Branch,
    Call,
    Cast,
    Const,
    Function,
    Jump,
    Load,
    Module,
    Return,
    Select,
    Store,
    UnOp,
)
from ..ir.types import FloatType, IntType
from ..ir.values import MemObject, Temp, Value, Var
from .binding import Binding
from .fsm import DONE, FSM, IDLE, state_name
from .scheduling import FunctionSchedule

_BINOP_VERILOG = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "rem": "%",
    "and": "&", "or": "|", "xor": "^", "shl": "<<", "shr": ">>",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
}

_FLOAT_UNIT = {
    "add": "hermes_fadd", "sub": "hermes_fsub", "mul": "hermes_fmul",
    "div": "hermes_fdiv",
    "eq": "hermes_fcmp_eq", "ne": "hermes_fcmp_ne", "lt": "hermes_fcmp_lt",
    "le": "hermes_fcmp_le", "gt": "hermes_fcmp_gt", "ge": "hermes_fcmp_ge",
}


def _width(value: Value) -> int:
    ty = value.ty
    if isinstance(ty, (IntType, FloatType)):
        return ty.width
    return 32


def _signed(value: Value) -> bool:
    ty = value.ty
    return isinstance(ty, IntType) and ty.signed


def _mem_ident(mem: MemObject) -> str:
    """HDL-legal identifier for a memory array (dots from inlining)."""
    return "mem_" + mem.name.replace(".", "_")


class VerilogEmitter:
    """Emits one Verilog module per HLS function."""

    def __init__(self, func: Function, schedule: FunctionSchedule,
                 binding: Binding, fsm: FSM, module: Module) -> None:
        self.func = func
        self.schedule = schedule
        self.binding = binding
        self.fsm = fsm
        self.module = module
        self.lines: List[str] = []
        self._callee_instances: List[str] = []

    # -- small helpers -----------------------------------------------------

    def emit(self, text: str = "", indent: int = 0) -> None:
        self.lines.append("  " * indent + text)

    def reg_name(self, value: Value) -> str:
        name = self.binding.registers.assignment.get(value)
        if name is not None:
            return name
        if isinstance(value, Temp):
            return f"t{value.index}"
        if isinstance(value, Var):
            return f"reg_{value.name.replace('.', '_')}"
        raise ValueError(f"no register for {value}")

    def rvalue(self, value: Value) -> str:
        if isinstance(value, Const):
            width = _width(value)
            if isinstance(value.ty, FloatType):
                import struct
                bits = struct.unpack("<I", struct.pack("<f",
                                                       float(value.value)))[0]
                return f"32'h{bits:08x}"
            raw = int(value.value)
            if raw < 0:
                raw &= (1 << width) - 1
            return f"{width}'d{raw}" if raw < (1 << 31) else f"{width}'h{raw:x}"
        return self.reg_name(value)

    def _s(self, value: Value) -> str:
        text = self.rvalue(value)
        return f"$signed({text})" if _signed(value) else text

    # -- top level ---------------------------------------------------------

    def generate(self) -> str:
        self._emit_header()
        self._emit_declarations()
        self._emit_memories()
        self._emit_callee_instances()
        self._emit_fsm()
        self.emit("endmodule")
        return "\n".join(self.lines) + "\n"

    def _port_list(self) -> List[str]:
        ports = ["clk", "rst", "start", "done"]
        for param in self.func.scalar_params():
            ports.append(f"arg_{param.name}")
        if self.func.returns_value:
            ports.append("retval")
        for param in self.func.memory_params():
            mem = param.mem
            if mem.storage == "axi":
                bundle = f"m_axi_{mem.name}"
                ports.extend([
                    f"{bundle}_araddr", f"{bundle}_arvalid",
                    f"{bundle}_arready", f"{bundle}_rdata",
                    f"{bundle}_rvalid", f"{bundle}_rready",
                    f"{bundle}_awaddr", f"{bundle}_awvalid",
                    f"{bundle}_awready", f"{bundle}_wdata",
                    f"{bundle}_wvalid", f"{bundle}_wready",
                    f"{bundle}_bvalid", f"{bundle}_bready",
                ])
            else:
                ports.extend([f"{mem.name}_addr", f"{mem.name}_din",
                              f"{mem.name}_dout", f"{mem.name}_we",
                              f"{mem.name}_en"])
        return ports

    def _emit_header(self) -> None:
        func = self.func
        self.emit(f"// Generated by the HERMES HLS flow (Bambu-equivalent)")
        self.emit(f"// function: {func.name}  clock: "
                  f"{self.schedule.clock_ns} ns  states: "
                  f"{self.fsm.state_count}")
        self.emit(f"module {func.name} (")
        ports = self._port_list()
        self.emit(",\n".join("  " + p for p in ports))
        self.emit(");")
        self.emit("input wire clk;", 1)
        self.emit("input wire rst;", 1)
        self.emit("input wire start;", 1)
        self.emit("output reg done;", 1)
        for param in func.scalar_params():
            width = param.type.width
            self.emit(f"input wire [{width - 1}:0] arg_{param.name};", 1)
        if func.returns_value:
            width = func.return_type.width
            self.emit(f"output reg [{width - 1}:0] retval;", 1)
        for param in func.memory_params():
            mem = param.mem
            width = mem.element.width
            if mem.storage == "axi":
                bundle = f"m_axi_{mem.name}"
                self.emit(f"// AXI4 master interface for {mem.name}", 1)
                self.emit(f"output reg [31:0] {bundle}_araddr;", 1)
                self.emit(f"output reg {bundle}_arvalid;", 1)
                self.emit(f"input wire {bundle}_arready;", 1)
                self.emit(f"input wire [{width - 1}:0] {bundle}_rdata;", 1)
                self.emit(f"input wire {bundle}_rvalid;", 1)
                self.emit(f"output reg {bundle}_rready;", 1)
                self.emit(f"output reg [31:0] {bundle}_awaddr;", 1)
                self.emit(f"output reg {bundle}_awvalid;", 1)
                self.emit(f"input wire {bundle}_awready;", 1)
                self.emit(f"output reg [{width - 1}:0] {bundle}_wdata;", 1)
                self.emit(f"output reg {bundle}_wvalid;", 1)
                self.emit(f"input wire {bundle}_wready;", 1)
                self.emit(f"input wire {bundle}_bvalid;", 1)
                self.emit(f"output reg {bundle}_bready;", 1)
            else:
                addr_bits = max(1, (max(1, mem.size) - 1).bit_length())
                self.emit(f"// BRAM port for {mem.name}", 1)
                self.emit(f"output reg [{addr_bits - 1}:0] {mem.name}_addr;", 1)
                self.emit(f"output reg [{width - 1}:0] {mem.name}_din;", 1)
                self.emit(f"input wire [{width - 1}:0] {mem.name}_dout;", 1)
                self.emit(f"output reg {mem.name}_we;", 1)
                self.emit(f"output reg {mem.name}_en;", 1)
        self.emit()

    def _emit_declarations(self) -> None:
        bits = self.fsm.state_bits()
        self.emit(f"reg [{bits - 1}:0] state;", 1)
        for index, name in enumerate(self.fsm.order):
            self.emit(f"localparam {name} = {bits}'d{index};", 1)
        self.emit()
        declared = set()
        for register in self.binding.registers.registers:
            self.emit(f"reg [{register.width - 1}:0] {register.name};", 1)
            declared.add(register.name)
        # Unbound temps live as blocking-assigned scratch regs.
        for block in self.func.ordered_blocks():
            for op in block.all_ops():
                out = op.output()
                if isinstance(out, Temp):
                    name = self.reg_name(out)
                    if name not in declared:
                        self.emit(f"reg [{_width(out) - 1}:0] {name};", 1)
                        declared.add(name)
        self.emit()

    def _emit_memories(self) -> None:
        for mem in self.func.mems.values():
            if mem.is_param:
                continue
            width = mem.element.width
            self.emit(f"// {mem.storage} memory {mem.name} "
                      f"({mem.size} x {width})", 1)
            self.emit(f"reg [{width - 1}:0] "
                      f"{_mem_ident(mem)} [0:{max(1, mem.size) - 1}];", 1)
            if mem.initializer:
                self.emit("initial begin", 1)
                for index, value in enumerate(mem.initializer):
                    raw = int(value) & ((1 << width) - 1) \
                        if not isinstance(mem.element, FloatType) \
                        else _float_bits(float(value))
                    self.emit(f"{_mem_ident(mem)}[{index}] = "
                              f"{width}'h{raw:x};", 2)
                self.emit("end", 1)
        self.emit()

    def _emit_callee_instances(self) -> None:
        callees = sorted({op.callee for op in self.func.all_ops()
                          if isinstance(op, Call) and op.callee != "sqrtf"})
        for callee in callees:
            sub = self.module[callee]
            self.emit(f"// sub-module instance for {callee}", 1)
            self.emit(f"reg {callee}_start;", 1)
            self.emit(f"wire {callee}_done;", 1)
            for param in sub.scalar_params():
                self.emit(f"reg [{param.type.width - 1}:0] "
                          f"{callee}_arg_{param.name};", 1)
            if sub.returns_value:
                self.emit(f"wire [{sub.return_type.width - 1}:0] "
                          f"{callee}_retval;", 1)
            connections = [".clk(clk)", ".rst(rst)",
                           f".start({callee}_start)",
                           f".done({callee}_done)"]
            for param in sub.scalar_params():
                connections.append(
                    f".arg_{param.name}({callee}_arg_{param.name})")
            if sub.returns_value:
                connections.append(f".retval({callee}_retval)")
            for param in sub.memory_params():
                # Shared memories are connected through the caller arrays;
                # emitted as hierarchical wiring stubs.
                mem = param.mem
                for suffix in ("addr", "din", "dout", "we", "en"):
                    connections.append(
                        f".{mem.name}_{suffix}({callee}_{mem.name}_{suffix})")
                    self.emit(f"wire [31:0] {callee}_{mem.name}_{suffix};", 1)
            self.emit(f"{callee} u_{callee} (", 1)
            self.emit(",\n".join("    " + c for c in connections))
            self.emit(");", 1)
        self.emit()

    # -- FSM body ---------------------------------------------------------

    def _emit_fsm(self) -> None:
        self.emit("always @(posedge clk) begin", 1)
        self.emit("if (rst) begin", 2)
        self.emit(f"state <= {IDLE};", 3)
        self.emit("done <= 1'b0;", 3)
        self.emit("end else begin", 2)
        self.emit("case (state)", 3)
        for state_name in self.fsm.order:
            state = self.fsm.states[state_name]
            self.emit(f"{state_name}: begin", 4)
            if state_name == IDLE:
                self.emit("done <= 1'b0;", 5)
                self._emit_param_latch()
                self.emit(f"if (start) state <= "
                          f"{state.transitions[0].target};", 5)
            elif state_name == DONE:
                self.emit("done <= 1'b1;", 5)
                self.emit(f"if (!start) state <= {IDLE};", 5)
            else:
                self._emit_state_body(state)
            self.emit("end", 4)
        self.emit(f"default: state <= {IDLE};", 4)
        self.emit("endcase", 3)
        self.emit("end", 2)
        self.emit("end", 1)

    def _emit_param_latch(self) -> None:
        for param in self.func.scalar_params():
            var = Var(param.name, param.type)
            self.emit(f"{self.reg_name(var)} <= arg_{param.name};", 5)

    def _emit_state_body(self, state) -> None:
        block_sched = self.schedule.blocks[state.block]
        block = self.func.blocks[state.block]
        wait_condition = None
        for entry in block_sched.ops_starting_at(state.cycle):
            wait = self._emit_op(entry.op, state)
            if wait is not None:
                wait_condition = wait
        is_last = state.cycle == block_sched.length - 1
        if wait_condition is not None:
            self.emit(f"if ({wait_condition}) begin", 5)
            self._emit_transition(state, block, is_last, indent=6)
            self.emit("end", 5)
        else:
            self._emit_transition(state, block, is_last, indent=5)

    def _emit_transition(self, state, block, is_last: bool,
                         indent: int) -> None:
        if not is_last:
            self.emit(f"state <= {state_name(block.name, state.cycle + 1)};",
                      indent)
            return
        term = block.terminator
        if isinstance(term, Jump):
            self.emit(f"state <= {state_name(term.target, 0)};", indent)
        elif isinstance(term, Branch):
            cond = self.rvalue(term.cond)
            self.emit(f"state <= ({cond} != 0) ? "
                      f"{state_name(term.if_true, 0)} : "
                      f"{state_name(term.if_false, 0)};", indent)
        elif isinstance(term, Return):
            if term.value is not None:
                self.emit(f"retval <= {self.rvalue(term.value)};", indent)
            self.emit(f"state <= {DONE};", indent)

    def _emit_op(self, op, state) -> Optional[str]:
        """Emit one operation; returns a wait condition when stalling."""
        lvl = 5
        if isinstance(op, BinOp):
            if isinstance(op.lhs.ty, FloatType) and not op.is_comparison \
                    or (op.is_comparison and isinstance(op.lhs.ty, FloatType)):
                unit = _FLOAT_UNIT.get(op.op, "hermes_fop")
                self.emit(f"// float op via {unit} core", lvl)
                self.emit(f"{self.reg_name(op.dst)} <= "
                          f"{unit}({self.rvalue(op.lhs)}, "
                          f"{self.rvalue(op.rhs)});", lvl)
                return None
            text = f"{self._s(op.lhs)} {_BINOP_VERILOG[op.op]} {self._s(op.rhs)}"
            if op.op in ("shl", "shr"):
                shift = self.rvalue(op.rhs)
                base = self._s(op.lhs) if _signed(op.lhs) and op.op == "shr" \
                    else self.rvalue(op.lhs)
                operator = ">>>" if (op.op == "shr" and _signed(op.lhs)) \
                    else _BINOP_VERILOG[op.op]
                text = f"{base} {operator} {shift}"
            self.emit(f"{self.reg_name(op.dst)} = {text};", lvl)
            return None
        if isinstance(op, UnOp):
            operator = {"neg": "-", "not": "!", "bnot": "~"}[op.op]
            self.emit(f"{self.reg_name(op.dst)} = "
                      f"{operator}{self.rvalue(op.src)};", lvl)
            return None
        if isinstance(op, Assign):
            self.emit(f"{self.reg_name(op.dst)} = {self.rvalue(op.src)};", lvl)
            return None
        if isinstance(op, Cast):
            src_ty, dst_ty = op.src.ty, op.dst.ty
            if isinstance(src_ty, FloatType) != isinstance(dst_ty, FloatType):
                direction = "f2i" if isinstance(src_ty, FloatType) else "i2f"
                self.emit(f"{self.reg_name(op.dst)} <= hermes_{direction}"
                          f"({self.rvalue(op.src)});", lvl)
            elif _signed(op.src) and _width(op.dst) > _width(op.src):
                self.emit(f"{self.reg_name(op.dst)} = "
                          f"{{{{{_width(op.dst) - _width(op.src)}"
                          f"{{{self.rvalue(op.src)}[{_width(op.src) - 1}]}}}},"
                          f" {self.rvalue(op.src)}}};", lvl)
            else:
                self.emit(f"{self.reg_name(op.dst)} = "
                          f"{self.rvalue(op.src)};", lvl)
            return None
        if isinstance(op, Select):
            self.emit(f"{self.reg_name(op.dst)} = ({self.rvalue(op.cond)} != 0)"
                      f" ? {self.rvalue(op.if_true)} : "
                      f"{self.rvalue(op.if_false)};", lvl)
            return None
        if isinstance(op, Load):
            return self._emit_load(op, lvl)
        if isinstance(op, Store):
            return self._emit_store(op, lvl)
        if isinstance(op, Call):
            return self._emit_call(op, state, lvl)
        return None

    def _emit_load(self, op: Load, lvl: int) -> Optional[str]:
        mem = op.mem
        if mem.storage == "axi":
            bundle = f"m_axi_{mem.name}"
            self.emit(f"{bundle}_araddr <= {self.rvalue(op.index)} << 2;", lvl)
            self.emit(f"{bundle}_arvalid <= 1'b1;", lvl)
            self.emit(f"{bundle}_rready <= 1'b1;", lvl)
            self.emit(f"if ({bundle}_rvalid) "
                      f"{self.reg_name(op.dst)} <= {bundle}_rdata;", lvl)
            return f"{bundle}_rvalid"
        if mem.is_param:
            self.emit(f"{mem.name}_addr <= {self.rvalue(op.index)};", lvl)
            self.emit(f"{mem.name}_en <= 1'b1;", lvl)
            self.emit(f"{mem.name}_we <= 1'b0;", lvl)
            self.emit(f"{self.reg_name(op.dst)} <= {mem.name}_dout;", lvl)
            return None
        self.emit(f"{self.reg_name(op.dst)} <= "
                  f"{_mem_ident(mem)}[{self.rvalue(op.index)}];", lvl)
        return None

    def _emit_store(self, op: Store, lvl: int) -> Optional[str]:
        mem = op.mem
        if mem.storage == "axi":
            bundle = f"m_axi_{mem.name}"
            self.emit(f"{bundle}_awaddr <= {self.rvalue(op.index)} << 2;", lvl)
            self.emit(f"{bundle}_awvalid <= 1'b1;", lvl)
            self.emit(f"{bundle}_wdata <= {self.rvalue(op.src)};", lvl)
            self.emit(f"{bundle}_wvalid <= 1'b1;", lvl)
            self.emit(f"{bundle}_bready <= 1'b1;", lvl)
            return f"{bundle}_bvalid"
        if mem.is_param:
            self.emit(f"{mem.name}_addr <= {self.rvalue(op.index)};", lvl)
            self.emit(f"{mem.name}_din <= {self.rvalue(op.src)};", lvl)
            self.emit(f"{mem.name}_en <= 1'b1;", lvl)
            self.emit(f"{mem.name}_we <= 1'b1;", lvl)
            return None
        self.emit(f"{_mem_ident(mem)}[{self.rvalue(op.index)}] <= "
                  f"{self.rvalue(op.src)};", lvl)
        return None

    def _emit_call(self, op: Call, state, lvl: int) -> Optional[str]:
        if op.callee == "sqrtf":
            self.emit(f"{self.reg_name(op.dst)} <= "
                      f"hermes_fsqrt({self.rvalue(op.args[0])});", lvl)
            return None
        callee = self.module[op.callee]
        for param, arg in zip(callee.scalar_params(), op.args):
            self.emit(f"{op.callee}_arg_{param.name} <= "
                      f"{self.rvalue(arg)};", lvl)
        self.emit(f"{op.callee}_start <= 1'b1;", lvl)
        if op.dst is not None:
            self.emit(f"if ({op.callee}_done) {self.reg_name(op.dst)} <= "
                      f"{op.callee}_retval;", lvl)
        self.emit(f"if ({op.callee}_done) {op.callee}_start <= 1'b0;", lvl)
        return f"{op.callee}_done"


def _float_bits(value: float) -> int:
    import struct
    return struct.unpack("<I", struct.pack("<f", value))[0]


def generate_verilog(func: Function, schedule: FunctionSchedule,
                     binding: Binding, fsm: FSM, module: Module) -> str:
    """Emit the Verilog module for one scheduled function."""
    return VerilogEmitter(func, schedule, binding, fsm, module).generate()


def generate_fp_support_library() -> str:
    """Simulation-support models for the floating-point cores.

    The synthesizable versions of these units come from the NG-ULTRA
    characterized library; these behavioural functions keep the generated
    design self-contained for RTL simulation.
    """
    ops = [("hermes_fadd", "+"), ("hermes_fsub", "-"), ("hermes_fmul", "*"),
           ("hermes_fdiv", "/")]
    lines = ["// HERMES HLS floating-point simulation support library"]
    for name, operator in ops:
        lines += [
            f"function [31:0] {name};",
            "  input [31:0] a;",
            "  input [31:0] b;",
            "  real ra, rb;",
            "  begin",
            "    ra = $bitstoshortreal(a);",
            "    rb = $bitstoshortreal(b);",
            f"    {name} = $shortrealtobits(ra {operator} rb);",
            "  end",
            "endfunction",
            "",
        ]
    for name, operator in [("hermes_fcmp_eq", "=="), ("hermes_fcmp_ne", "!="),
                           ("hermes_fcmp_lt", "<"), ("hermes_fcmp_le", "<="),
                           ("hermes_fcmp_gt", ">"), ("hermes_fcmp_ge", ">=")]:
        lines += [
            f"function [0:0] {name};",
            "  input [31:0] a;",
            "  input [31:0] b;",
            "  begin",
            f"    {name} = $bitstoshortreal(a) {operator} "
            "$bitstoshortreal(b);",
            "  end",
            "endfunction",
            "",
        ]
    lines += [
        "function [31:0] hermes_fsqrt;",
        "  input [31:0] a;",
        "  begin",
        "    hermes_fsqrt = $shortrealtobits($sqrt($bitstoshortreal(a)));",
        "  end",
        "endfunction",
        "",
        "function [31:0] hermes_i2f;",
        "  input [31:0] a;",
        "  begin",
        "    hermes_i2f = $shortrealtobits(1.0 * $signed(a));",
        "  end",
        "endfunction",
        "",
        "function [31:0] hermes_f2i;",
        "  input [31:0] a;",
        "  begin",
        "    hermes_f2i = $rtoi($bitstoshortreal(a));",
        "  end",
        "endfunction",
    ]
    return "\n".join(lines) + "\n"
