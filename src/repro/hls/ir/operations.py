"""Operations of the HLS IR.

Each operation names the functional-unit *resource class* it occupies when
scheduled (``resource_class``); the Eucalyptus characterization library is
keyed by these class names plus operand bit widths.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import List, Optional

from .types import FloatType, IntType, Type
from .values import MemObject, Value

# Binary operator mnemonics understood by the IR.
BINARY_OPS = {
    "add", "sub", "mul", "div", "rem",
    "and", "or", "xor", "shl", "shr",
    "eq", "ne", "lt", "le", "gt", "ge",
}
UNARY_OPS = {"neg", "not", "bnot"}

# Map operator mnemonic -> functional unit resource class used during
# allocation/binding.  Adders and subtractors share hardware; comparisons
# use a dedicated comparator class; shifts use barrel shifters.
_RESOURCE_CLASS = {
    "add": "addsub", "sub": "addsub",
    "mul": "mult", "div": "divider", "rem": "divider",
    "and": "logic", "or": "logic", "xor": "logic",
    "shl": "shifter", "shr": "shifter",
    "eq": "comparator", "ne": "comparator",
    "lt": "comparator", "le": "comparator",
    "gt": "comparator", "ge": "comparator",
    "neg": "addsub", "not": "logic", "bnot": "logic",
    "fadd": "faddsub", "fsub": "faddsub", "fmul": "fmult",
    "fdiv": "fdivider",
    "fneg": "flogic",
    "feq": "fcomparator", "fne": "fcomparator",
    "flt": "fcomparator", "fle": "fcomparator",
    "fgt": "fcomparator", "fge": "fcomparator",
}


@dataclass
class Operation:
    """Base class for IR operations."""

    def inputs(self) -> List[Value]:
        return []

    def output(self) -> Optional[Value]:
        return None

    def replace_input(self, old: Value, new: Value) -> None:
        """Replace every occurrence of ``old`` among the inputs by ``new``."""
        raise NotImplementedError

    @property
    def resource_class(self) -> str:
        return "none"

    @property
    def has_side_effects(self) -> bool:
        return False


@dataclass
class BinOp(Operation):
    op: str
    dst: Value
    lhs: Value
    rhs: Value

    def __post_init__(self) -> None:
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")

    def inputs(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def output(self) -> Optional[Value]:
        return self.dst

    def replace_input(self, old: Value, new: Value) -> None:
        if self.lhs == old:
            self.lhs = new
        if self.rhs == old:
            self.rhs = new

    @property
    def is_float(self) -> bool:
        return isinstance(self.lhs.ty, FloatType)

    @property
    def mnemonic(self) -> str:
        return ("f" + self.op) if self.is_float else self.op

    @property
    def resource_class(self) -> str:
        return _RESOURCE_CLASS[self.mnemonic]

    @property
    def is_comparison(self) -> bool:
        return self.op in COMPARE

    def __str__(self) -> str:
        return f"{self.dst} = {self.mnemonic} {self.lhs}, {self.rhs}"


@dataclass
class UnOp(Operation):
    op: str
    dst: Value
    src: Value

    def __post_init__(self) -> None:
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")

    def inputs(self) -> List[Value]:
        return [self.src]

    def output(self) -> Optional[Value]:
        return self.dst

    def replace_input(self, old: Value, new: Value) -> None:
        if self.src == old:
            self.src = new

    @property
    def mnemonic(self) -> str:
        if isinstance(self.src.ty, FloatType) and self.op == "neg":
            return "fneg"
        return self.op

    @property
    def resource_class(self) -> str:
        return _RESOURCE_CLASS[self.mnemonic]

    def __str__(self) -> str:
        return f"{self.dst} = {self.mnemonic} {self.src}"


@dataclass
class Assign(Operation):
    """Register-to-register move (also used for constants)."""

    dst: Value
    src: Value

    def inputs(self) -> List[Value]:
        return [self.src]

    def output(self) -> Optional[Value]:
        return self.dst

    def replace_input(self, old: Value, new: Value) -> None:
        if self.src == old:
            self.src = new

    @property
    def resource_class(self) -> str:
        return "wire"

    def __str__(self) -> str:
        return f"{self.dst} = {self.src}"


@dataclass
class Cast(Operation):
    """Width/signedness/float conversion."""

    dst: Value
    src: Value

    def inputs(self) -> List[Value]:
        return [self.src]

    def output(self) -> Optional[Value]:
        return self.dst

    def replace_input(self, old: Value, new: Value) -> None:
        if self.src == old:
            self.src = new

    @property
    def resource_class(self) -> str:
        src, dst = self.src.ty, self.dst.ty
        if isinstance(src, FloatType) != isinstance(dst, FloatType):
            return "fconvert"
        return "wire"

    def __str__(self) -> str:
        return f"{self.dst} = cast {self.src} to {self.dst.ty}"


@dataclass
class Load(Operation):
    """``dst = mem[index]`` — read from a memory object."""

    dst: Value
    mem: MemObject
    index: Value

    def inputs(self) -> List[Value]:
        return [self.index]

    def output(self) -> Optional[Value]:
        return self.dst

    def replace_input(self, old: Value, new: Value) -> None:
        if self.index == old:
            self.index = new

    @property
    def resource_class(self) -> str:
        return "mem_axi" if self.mem.storage == "axi" else "mem_bram"

    @property
    def has_side_effects(self) -> bool:
        # Loads are idempotent but must stay ordered w.r.t. stores; the
        # dependence graph handles that, so no side effect flag.
        return False

    def __str__(self) -> str:
        return f"{self.dst} = load {self.mem}[{self.index}]"


@dataclass
class Store(Operation):
    """``mem[index] = src`` — write to a memory object."""

    mem: MemObject
    index: Value
    src: Value

    def inputs(self) -> List[Value]:
        return [self.index, self.src]

    def output(self) -> Optional[Value]:
        return None

    def replace_input(self, old: Value, new: Value) -> None:
        if self.index == old:
            self.index = new
        if self.src == old:
            self.src = new

    @property
    def resource_class(self) -> str:
        return "mem_axi" if self.mem.storage == "axi" else "mem_bram"

    @property
    def has_side_effects(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"store {self.mem}[{self.index}] = {self.src}"


@dataclass
class Call(Operation):
    """Call to another HLS function (instantiated as a sub-module)."""

    dst: Optional[Value]
    callee: str
    args: List[Value] = field(default_factory=list)
    # Memory objects passed by reference (arrays / pointers).
    mem_args: List[MemObject] = field(default_factory=list)

    def inputs(self) -> List[Value]:
        return list(self.args)

    def output(self) -> Optional[Value]:
        return self.dst

    def replace_input(self, old: Value, new: Value) -> None:
        self.args = [new if a == old else a for a in self.args]

    @property
    def resource_class(self) -> str:
        return f"call:{self.callee}"

    @property
    def has_side_effects(self) -> bool:
        return True

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args + self.mem_args)
        prefix = f"{self.dst} = " if self.dst is not None else ""
        return f"{prefix}call {self.callee}({args})"


@dataclass
class Select(Operation):
    """``dst = cond ? if_true : if_false`` — multiplexer."""

    dst: Value
    cond: Value
    if_true: Value
    if_false: Value

    def inputs(self) -> List[Value]:
        return [self.cond, self.if_true, self.if_false]

    def output(self) -> Optional[Value]:
        return self.dst

    def replace_input(self, old: Value, new: Value) -> None:
        if self.cond == old:
            self.cond = new
        if self.if_true == old:
            self.if_true = new
        if self.if_false == old:
            self.if_false = new

    @property
    def resource_class(self) -> str:
        return "mux"

    def __str__(self) -> str:
        return f"{self.dst} = select {self.cond}, {self.if_true}, {self.if_false}"


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


@dataclass
class Terminator(Operation):
    @property
    def has_side_effects(self) -> bool:
        return True


@dataclass
class Jump(Terminator):
    target: str

    def replace_input(self, old: Value, new: Value) -> None:
        pass

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass
class Branch(Terminator):
    cond: Value
    if_true: str
    if_false: str

    def inputs(self) -> List[Value]:
        return [self.cond]

    def replace_input(self, old: Value, new: Value) -> None:
        if self.cond == old:
            self.cond = new

    def __str__(self) -> str:
        return f"branch {self.cond} ? {self.if_true} : {self.if_false}"


@dataclass
class Return(Terminator):
    value: Optional[Value] = None

    def inputs(self) -> List[Value]:
        return [] if self.value is None else [self.value]

    def replace_input(self, old: Value, new: Value) -> None:
        if self.value == old:
            self.value = new

    def __str__(self) -> str:
        return f"return {self.value}" if self.value is not None else "return"


def operand_width(op: Operation) -> int:
    """Widest operand width, used as the characterization key."""
    widths = [8]
    for value in list(op.inputs()) + ([op.output()] if op.output() else []):
        ty = value.ty
        if isinstance(ty, (IntType, FloatType)):
            widths.append(ty.width)
    return max(widths)


def trunc_div(lhs: int, rhs: int) -> int:
    """C integer division: the quotient truncated toward zero, exact at
    any width (a zero divisor gives 0)."""
    if rhs == 0:
        return 0
    quotient = abs(lhs) // abs(rhs)
    return -quotient if (lhs < 0) != (rhs < 0) else quotient


def _trunc_rem(lhs: int, rhs: int) -> int:
    """C remainder: takes the dividend's sign (a zero divisor gives 0)."""
    return 0 if rhs == 0 else lhs - trunc_div(lhs, rhs) * rhs


def _float_div(lhs: float, rhs: float) -> float:
    return lhs / rhs if rhs != 0 else float("inf")


def _shl(lhs: int, rhs: int, ty: IntType) -> int:
    return lhs << (rhs & (ty.width - 1) if rhs >= ty.width else rhs)


def _shr(lhs: int, rhs: int, ty: IntType) -> int:
    shift = rhs if rhs < ty.width else ty.width - 1
    if ty.signed:
        return lhs >> shift
    return (lhs & ((1 << ty.width) - 1)) >> shift


#: Comparisons: 1/0 whatever the operand type.
COMPARE = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
           "le": operator.le, "gt": operator.gt, "ge": operator.ge}
#: Integer ops as ``fn(int(a), int(b))``, before wrapping to the result
#: type (the shifts, in ``_SHIFT``, also take the type).
INT_ARITH = {"add": operator.add, "sub": operator.sub,
             "mul": operator.mul, "div": trunc_div, "rem": _trunc_rem,
             "and": operator.and_, "or": operator.or_,
             "xor": operator.xor}
_SHIFT = {"shl": _shl, "shr": _shr}
_FLOAT_ARITH = {"add": operator.add, "sub": operator.sub,
                "mul": operator.mul, "div": _float_div}


def eval_binop(op: str, lhs, rhs, result_ty: Type):
    """Bit-accurate constant evaluation of a binary operation."""
    compare = COMPARE.get(op)
    if compare is not None:
        return 1 if compare(lhs, rhs) else 0
    if isinstance(result_ty, IntType):
        arith = INT_ARITH.get(op)
        if arith is not None:
            return result_ty.wrap(arith(int(lhs), int(rhs)))
        shift = _SHIFT.get(op)
        if shift is None:
            raise ValueError(op)
        return result_ty.wrap(shift(int(lhs), int(rhs), result_ty))
    if isinstance(result_ty, FloatType):
        arith = _FLOAT_ARITH.get(op)
        if arith is None:
            raise ValueError(f"float op {op} unsupported")
        return result_ty.round(arith(lhs, rhs))
    raise TypeError(f"{op} has no semantics for result type {result_ty}")


def eval_unop(op: str, src, result_ty: Type):
    """Bit-accurate constant evaluation of a unary operation."""
    if isinstance(result_ty, FloatType):
        if op == "neg":
            return result_ty.round(-src)
        raise ValueError(f"float unary op {op} unsupported")
    assert isinstance(result_ty, IntType)
    if op == "neg":
        return result_ty.wrap(-int(src))
    if op == "not":
        return 0 if src else 1
    if op == "bnot":
        return result_ty.wrap(~int(src))
    raise ValueError(op)
