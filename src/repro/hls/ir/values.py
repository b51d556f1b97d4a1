"""Value operands of the HLS IR.

Three kinds of values flow through operations:

* :class:`Const` — compile-time constant (integer or float).
* :class:`Var` — named storage declared in the source program (parameters
  and locals); a ``Var`` lives in a register between basic blocks.
* :class:`Temp` — compiler temporary produced by exactly one operation
  inside a basic block (single assignment within the block).

Arrays are represented by :class:`MemObject`, which loads and stores refer
to by name; they are mapped to BRAM or external (AXI) memory during
interface synthesis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .types import ArrayType, FloatType, IntType, PointerType, Type


@dataclass(frozen=True)
class Value:
    """Base class for IR operands."""

    @property
    def ty(self) -> Type:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Value):
    value: object
    type: Type

    @property
    def ty(self) -> Type:
        return self.type

    def __str__(self) -> str:
        return f"{self.value}:{self.type}"


@dataclass(frozen=True)
class Var(Value):
    name: str
    type: Type

    @property
    def ty(self) -> Type:
        return self.type

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Temp(Value):
    index: int
    type: Type

    @property
    def ty(self) -> Type:
        return self.type

    def __str__(self) -> str:
        return f"t{self.index}"


@dataclass
class MemObject:
    """An addressable memory object (local array or pointer parameter).

    ``storage`` selects where interface synthesis maps it:

    * ``"bram"``   — on-chip true-dual-port RAM (NG-ULTRA TDPRAM);
    * ``"axi"``    — external memory behind a generated AXI4 master;
    * ``"rom"``    — constant initialized array, mapped to ROM.
    """

    name: str
    element: Type
    size: int
    dims: tuple = ()
    storage: str = "bram"
    initializer: list = field(default_factory=list)
    is_param: bool = False
    is_global: bool = False
    # SEU protection scheme applied by ``#pragma HLS protect`` ("none",
    # "ecc", "secded" or "tmr"); the radhard package owns the vocabulary.
    protection: str = "none"

    @property
    def ty(self) -> Type:
        if self.dims:
            return ArrayType(self.element, self.dims)
        return PointerType(self.element)

    def __str__(self) -> str:
        return f"@{self.name}"


class TempFactory:
    """Allocates fresh :class:`Temp` values with unique indices."""

    def __init__(self) -> None:
        self._counter = itertools.count()

    def new(self, ty: Type) -> Temp:
        return Temp(next(self._counter), ty)


def const_int(value: int, ty: IntType) -> Const:
    return Const(ty.wrap(int(value)), ty)


def const_float(value: float, ty: FloatType) -> Const:
    return Const(ty.round(float(value)), ty)
