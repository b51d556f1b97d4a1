"""Concrete abstract domains over the HLS CDFG IR.

Four domains plug into the :mod:`.solver` worklist engine:

* :class:`ConstDomain`     — flow-sensitive constant propagation (flat
  lattice per value), sharing ``eval_binop``/``eval_unop`` with the
  reference interpreter and the middle-end ``constprop`` pass so all
  three agree bit-for-bit on folded values;
* :class:`IntervalDomain`  — width-aware signed/unsigned intervals with
  *wrap-on-overflow* semantics matching ``ir/interp.py``: a raw result
  interval that leaves the destination type's range is re-wrapped when
  its image stays contiguous, and widens to the full type range
  otherwise (sound over-approximation of two's-complement wrapping);
* :class:`LivenessDomain`  — backward may-liveness of ``Var``/``Temp``
  values;
* :class:`SeuTaintDomain`  — forward taint: which values derive from
  memories lacking ECC/TMR protection (seeded from the ``radhard``
  mitigation metadata on :class:`~repro.hls.ir.values.MemObject`).

:class:`MustDefDomain` (definite assignment, intersection join) also
lives here: the ``ir.use-before-def`` lint rule is an instance of the
generic solver rather than a hand-rolled worklist.

State representations are canonical (tops are *absent* from dict/set
states) so the solver's ``==`` convergence test is exact.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from ...hls.ir.cfg import Function, Module
from ...hls.ir.operations import (
    Assign,
    BinOp,
    Branch,
    Call,
    Cast,
    Load,
    Operation,
    Select,
    Store,
    Terminator,
    UnOp,
    eval_binop,
    eval_unop,
    trunc_div,
)
from ...hls.ir.types import FloatType, IntType
from ...hls.ir.values import Const, MemObject, Temp, Value, Var
from ...radhard.mitigation import mitigates_seu
from .lattice import BACKWARD, BOTTOM, Domain, FORWARD

Interval = Tuple[int, int]


def _trackable(value: Optional[Value]) -> bool:
    return isinstance(value, (Var, Temp))


# ---------------------------------------------------------------------------
# Constant domain
# ---------------------------------------------------------------------------


class ConstDomain(Domain):
    """Flow-sensitive constants: state maps values to known constants."""

    name = "const"
    direction = FORWARD

    def boundary(self, func: Function) -> Dict[Value, object]:
        return {}

    def join(self, a: Dict, b: Dict) -> Dict:
        if len(b) < len(a):
            a, b = b, a
        return {key: value for key, value in a.items()
                if key in b and b[key] == value}

    def _get(self, value: Value, state: Dict) -> Optional[object]:
        if isinstance(value, Const):
            return value.value
        return state.get(value)

    def transfer_op(self, op: Operation, state: Dict) -> Dict:
        out = op.output()
        if out is None or not _trackable(out):
            return state
        folded = self._fold(op, state)
        if folded is _UNKNOWN:
            if out in state:
                state = dict(state)
                del state[out]
            return state
        state = dict(state)
        state[out] = folded
        return state

    def _fold(self, op: Operation, state: Dict) -> object:
        if isinstance(op, BinOp):
            lhs = self._get(op.lhs, state)
            rhs = self._get(op.rhs, state)
            if lhs is None or rhs is None:
                return _UNKNOWN
            result_ty = op.lhs.ty if op.is_comparison else op.dst.ty
            try:
                return eval_binop(op.op, lhs, rhs, result_ty)
            except (ValueError, ZeroDivisionError, OverflowError):
                return _UNKNOWN
        if isinstance(op, UnOp):
            src = self._get(op.src, state)
            if src is None:
                return _UNKNOWN
            try:
                return eval_unop(op.op, src, op.dst.ty)
            except (ValueError, OverflowError):
                return _UNKNOWN
        if isinstance(op, (Assign, Cast)):
            src = self._get(op.src, state)
            if src is None:
                return _UNKNOWN
            return _coerce(src, op.src.ty, op.dst.ty,
                           cast=isinstance(op, Cast))
        if isinstance(op, Select):
            cond = self._get(op.cond, state)
            if cond is None:
                return _UNKNOWN
            chosen = op.if_true if cond else op.if_false
            value = self._get(chosen, state)
            if value is None:
                return _UNKNOWN
            return _coerce(value, chosen.ty, op.dst.ty, cast=False)
        return _UNKNOWN

    def truthiness(self, value: Value, state: Dict) -> Optional[bool]:
        known = self._get(value, state)
        if known is None:
            return None
        return bool(known)

    def transfer_edge(self, term: Terminator, target: str,
                      state: Dict) -> object:
        return _prune_edge(self.truthiness, term, target, state)


class _Unknown:
    """Sentinel distinguishing 'no constant' from the constant ``None``."""

    __slots__ = ()


_UNKNOWN = _Unknown()


def _coerce(value, src_ty, dst_ty, cast: bool):
    """Mirror of the interpreter's assignment/cast coercion."""
    if isinstance(dst_ty, IntType):
        return dst_ty.wrap(int(value))
    if isinstance(dst_ty, FloatType):
        return dst_ty.round(float(value))
    return value


def _prune_edge(truthiness, term: Terminator, target: str, state):
    """Drop branch edges a domain proves infeasible."""
    if not isinstance(term, Branch) or term.if_true == term.if_false:
        return state
    truth = truthiness(term.cond, state)
    if truth is True and target == term.if_false:
        return BOTTOM
    if truth is False and target == term.if_true:
        return BOTTOM
    return state


# ---------------------------------------------------------------------------
# Interval domain
# ---------------------------------------------------------------------------


def full_range(ty: IntType) -> Interval:
    return (ty.min_value, ty.max_value)


def wrap_interval(lo: int, hi: int, ty: IntType) -> Interval:
    """Sound abstraction of the wrapped image of raw ``[lo, hi]``.

    If the raw interval fits the type it is exact; if its wrapped image
    stays contiguous (span below ``2**width``) the endpoints are wrapped;
    otherwise the image may split into two segments and the full type
    range is returned.
    """
    if lo > hi:
        lo, hi = hi, lo
    if ty.min_value <= lo and hi <= ty.max_value:
        return (lo, hi)
    if hi - lo >= (1 << ty.width):
        return full_range(ty)
    wlo, whi = ty.wrap(lo), ty.wrap(hi)
    if wlo <= whi:
        return (wlo, whi)
    return full_range(ty)


def interval_hull(a: Interval, b: Interval) -> Interval:
    return (min(a[0], b[0]), max(a[1], b[1]))


def width_needed(interval: Interval, signed: bool) -> int:
    """Bits required to represent every value of ``interval``."""
    lo, hi = interval
    if signed or lo < 0:
        bits = 1
        while not (-(1 << (bits - 1)) <= lo and hi < (1 << (bits - 1))):
            bits += 1
        return bits
    return max(1, hi.bit_length())


class IntervalDomain(Domain):
    """Width-aware value intervals with wrap-on-overflow semantics.

    The state maps ``Var``/``Temp`` values of integer type to ``(lo,
    hi)`` pairs; values absent from the map are *top* and read as their
    full declared type range.  ROM memories whose contents are never
    stored to anywhere in the module contribute the range of their
    initializer to loads.
    """

    name = "interval"
    direction = FORWARD

    def __init__(self, func: Function,
                 module: Optional[Module] = None) -> None:
        self.func = func
        self.rom_ranges: Dict[str, Interval] = {}
        for mem in func.mems.values():
            if mem.storage != "rom" or not mem.initializer:
                continue
            if _mem_is_written(mem, func, module):
                continue
            if not isinstance(mem.element, IntType):
                continue
            values = [mem.element.wrap(int(v)) for v in mem.initializer]
            if len(values) < mem.size:
                values.append(0)  # tail defaults to zero fill
            self.rom_ranges[mem.name] = (min(values), max(values))
        # Branch terminator -> the comparison defining its condition,
        # when that comparison sits in the same block and neither operand
        # is reassigned before the branch (safe for edge refinement).
        self._branch_cmp: Dict[int, BinOp] = {}
        for block in func.ordered_blocks():
            term = block.terminator
            if not isinstance(term, Branch) or not _trackable(term.cond):
                continue
            defining: Optional[BinOp] = None
            clobbered = False
            for op in block.ops:
                out = op.output()
                if out == term.cond:
                    defining = op if isinstance(op, BinOp) \
                        and op.is_comparison else None
                    clobbered = False
                elif defining is not None and out is not None \
                        and out in (defining.lhs, defining.rhs):
                    clobbered = True
            if defining is not None and not clobbered:
                self._branch_cmp[id(term)] = defining

    # -- lattice --------------------------------------------------------

    def boundary(self, func: Function) -> Dict[Value, Interval]:
        return {}

    def _default(self, value: Value) -> Optional[Interval]:
        ty = value.ty
        if isinstance(ty, IntType):
            return full_range(ty)
        return None

    def join(self, a: Dict, b: Dict) -> Dict:
        out: Dict[Value, Interval] = {}
        for key in set(a) | set(b):
            default = self._default(key)
            if default is None:
                continue
            hull = interval_hull(a.get(key, default), b.get(key, default))
            if hull != default:
                out[key] = hull
        return out

    def widen(self, old: Dict, new: Dict) -> Dict:
        out: Dict[Value, Interval] = {}
        for key in set(old) | set(new):
            default = self._default(key)
            if default is None:
                continue
            olo, ohi = old.get(key, default)
            nlo, nhi = new.get(key, default)
            lo = olo if nlo >= olo else min(default[0], nlo)
            hi = ohi if nhi <= ohi else max(default[1], nhi)
            if (lo, hi) != default:
                out[key] = (lo, hi)
        return out

    # -- reads ----------------------------------------------------------

    def get(self, value: Value, state: Dict) -> Optional[Interval]:
        """Interval of one operand, or ``None`` for untracked (float)."""
        ty = value.ty
        if isinstance(value, Const):
            if isinstance(ty, IntType):
                wrapped = ty.wrap(int(value.value))
                return (wrapped, wrapped)
            return None
        if not isinstance(ty, IntType):
            return None
        return state.get(value, full_range(ty))

    def truthiness(self, value: Value, state: Dict) -> Optional[bool]:
        interval = self.get(value, state)
        if interval is None:
            return None
        lo, hi = interval
        if lo == 0 and hi == 0:
            return False
        if lo > 0 or hi < 0:
            return True
        return None

    # -- transfer -------------------------------------------------------

    def transfer_op(self, op: Operation, state: Dict) -> Dict:
        out = op.output()
        if out is None or not _trackable(out):
            return state
        interval = self._compute(op, state)
        default = self._default(out)
        state = dict(state)
        if interval is None or default is None or interval == default:
            state.pop(out, None)
        else:
            state[out] = interval
        return state

    def transfer_edge(self, term: Terminator, target: str,
                      state: Dict) -> object:
        pruned = _prune_edge(self.truthiness, term, target, state)
        if pruned is BOTTOM or not isinstance(term, Branch) \
                or term.if_true == term.if_false:
            return pruned
        cond = term.cond
        taken = target == term.if_true
        if _trackable(cond):
            interval = self.get(cond, pruned)
            if interval is not None:
                lo, hi = interval
                if not taken and lo <= 0 <= hi:
                    pruned = dict(pruned)
                    pruned[cond] = (0, 0)
                elif taken and lo == 0 and hi > 0:
                    pruned = dict(pruned)
                    pruned[cond] = (1, hi)
        compare = self._branch_cmp.get(id(term))
        if compare is None:
            return pruned
        return self._refine_edge(compare, taken, pruned)

    def _refine_edge(self, compare: BinOp, taken: bool,
                     state: Dict) -> object:
        """Narrow the operand intervals of a branch's comparison along
        the edge where its outcome is known (``BOTTOM`` when refuted)."""
        if not isinstance(compare.lhs.ty, IntType) \
                or not isinstance(compare.rhs.ty, IntType):
            return state
        lhs = self.get(compare.lhs, state)
        rhs = self.get(compare.rhs, state)
        if lhs is None or rhs is None:
            return state
        op_name = compare.op if taken else _NEGATED_COMPARE[compare.op]
        refined = _refine_compare(op_name, lhs, rhs)
        if refined is None:
            return BOTTOM
        new_lhs, new_rhs = refined
        out = state
        for value, interval in ((compare.lhs, new_lhs),
                                (compare.rhs, new_rhs)):
            if not _trackable(value):
                continue
            default = self._default(value)
            if out is state:
                out = dict(state)
            if default is None or interval == default:
                out.pop(value, None)
            else:
                out[value] = interval
        return out

    def _compute(self, op: Operation, state: Dict) -> Optional[Interval]:
        if isinstance(op, BinOp):
            return self._binop(op, state)
        if isinstance(op, UnOp):
            return self._unop(op, state)
        if isinstance(op, (Assign, Cast)):
            src = self.get(op.src, state)
            dst_ty = op.dst.ty
            if src is None or not isinstance(dst_ty, IntType):
                return None
            if isinstance(op.src.ty, FloatType):
                return None  # float-to-int: unknown
            return wrap_interval(src[0], src[1], dst_ty)
        if isinstance(op, Select):
            return self._select(op, state)
        if isinstance(op, Load):
            rom = self.rom_ranges.get(op.mem.name)
            if rom is not None and isinstance(op.dst.ty, IntType):
                return wrap_interval(rom[0], rom[1], op.dst.ty)
            return None
        return None  # calls and anything else: top

    def _select(self, op: Select, state: Dict) -> Optional[Interval]:
        dst_ty = op.dst.ty
        if not isinstance(dst_ty, IntType):
            return None
        truth = self.truthiness(op.cond, state)
        arms = []
        if truth is not False:
            arms.append(self.get(op.if_true, state))
        if truth is not True:
            arms.append(self.get(op.if_false, state))
        if any(arm is None for arm in arms) or not arms:
            return None
        hull = arms[0]
        for arm in arms[1:]:
            hull = interval_hull(hull, arm)
        return wrap_interval(hull[0], hull[1], dst_ty)

    def _unop(self, op: UnOp, state: Dict) -> Optional[Interval]:
        dst_ty = op.dst.ty
        if not isinstance(dst_ty, IntType):
            return None
        src = self.get(op.src, state)
        if op.op == "not":
            truth = self.truthiness(op.src, state)
            if truth is True:
                return (0, 0)
            if truth is False:
                return (1, 1)
            return (0, 1)
        if src is None:
            return None
        lo, hi = src
        if op.op == "neg":
            return wrap_interval(-hi, -lo, dst_ty)
        if op.op == "bnot":
            return wrap_interval(~hi, ~lo, dst_ty)
        return None

    def _binop(self, op: BinOp, state: Dict) -> Optional[Interval]:
        if op.is_comparison:
            return self._compare(op, state)
        dst_ty = op.dst.ty
        if not isinstance(dst_ty, IntType):
            return None
        lhs = self.get(op.lhs, state)
        rhs = self.get(op.rhs, state)
        if lhs is None or rhs is None:
            return None
        ll, lh = lhs
        rl, rh = rhs
        if op.op == "add":
            return wrap_interval(ll + rl, lh + rh, dst_ty)
        if op.op == "sub":
            return wrap_interval(ll - rh, lh - rl, dst_ty)
        if op.op == "mul":
            products = [ll * rl, ll * rh, lh * rl, lh * rh]
            return wrap_interval(min(products), max(products), dst_ty)
        if op.op == "div":
            return self._div(lhs, rhs, dst_ty)
        if op.op == "rem":
            return self._rem(lhs, rhs, dst_ty)
        if op.op == "and":
            # x & m with m >= 0 lands in [0, mh] for *any* x: the result's
            # set bits are a subset of m's, and m's sign bit is clear.
            if ll >= 0 and rl >= 0:
                return (0, min(lh, rh))
            if rl >= 0:
                return (0, rh)
            if ll >= 0:
                return (0, lh)
            return None
        if op.op in ("or", "xor"):
            if ll < 0 or rl < 0:
                return None
            span = (1 << max(lh.bit_length(), rh.bit_length())) - 1
            if op.op == "or":
                return wrap_interval(max(ll, rl), span, dst_ty)
            return wrap_interval(0, span, dst_ty)
        if op.op == "shl":
            return self._shift(lhs, rhs, dst_ty, left=True)
        if op.op == "shr":
            return self._shift(lhs, rhs, dst_ty, left=False)
        return None

    def _div(self, lhs: Interval, rhs: Interval,
             dst_ty: IntType) -> Optional[Interval]:
        rl, rh = rhs
        divisors = {d for d in (rl, rh, -1, 1)
                    if rl <= d <= rh and d != 0}
        candidates = [trunc_div(a, b)
                      for a in lhs for b in sorted(divisors)]
        if rl <= 0 <= rh:
            candidates.append(0)  # interp defines x / 0 == 0
        if not candidates:
            return (0, 0)
        return wrap_interval(min(candidates), max(candidates), dst_ty)

    def _rem(self, lhs: Interval, rhs: Interval,
             dst_ty: IntType) -> Optional[Interval]:
        ll, lh = lhs
        rl, rh = rhs
        magnitude = max(abs(rl), abs(rh))
        if magnitude == 0:
            return (0, 0)  # interp defines x % 0 == 0
        bound = magnitude - 1
        lo = max(-bound, ll) if ll < 0 else 0
        hi = min(bound, lh) if lh > 0 else 0
        return (lo, hi)

    def _shift(self, lhs: Interval, rhs: Interval, dst_ty: IntType,
               left: bool) -> Optional[Interval]:
        ll, lh = lhs
        rl, rh = rhs
        if rl < 0:
            return None  # negative shifts crash the interpreter
        width = dst_ty.width
        if rh >= width:
            # interp masks (shl) or clamps (shr) oversized shifts.
            slo, shi = 0, width - 1
        else:
            slo, shi = rl, rh
        if left:
            candidates = [ll << slo, ll << shi, lh << slo, lh << shi]
        else:
            candidates = [ll >> slo, ll >> shi, lh >> slo, lh >> shi]
        return wrap_interval(min(candidates), max(candidates), dst_ty)

    def _compare(self, op: BinOp, state: Dict) -> Interval:
        lhs = self.get(op.lhs, state)
        rhs = self.get(op.rhs, state)
        if lhs is None or rhs is None:
            return (0, 1)
        ll, lh = lhs
        rl, rh = rhs
        definite: Optional[bool] = None
        if op.op == "lt":
            definite = True if lh < rl else (False if ll >= rh else None)
        elif op.op == "le":
            definite = True if lh <= rl else (False if ll > rh else None)
        elif op.op == "gt":
            definite = True if ll > rh else (False if lh <= rl else None)
        elif op.op == "ge":
            definite = True if ll >= rh else (False if lh < rl else None)
        elif op.op == "eq":
            if ll == lh == rl == rh:
                definite = True
            elif lh < rl or rh < ll:
                definite = False
        elif op.op == "ne":
            if ll == lh == rl == rh:
                definite = False
            elif lh < rl or rh < ll:
                definite = True
        if definite is None:
            return (0, 1)
        return (1, 1) if definite else (0, 0)


_NEGATED_COMPARE = {
    "lt": "ge", "ge": "lt", "le": "gt", "gt": "le", "eq": "ne", "ne": "eq",
}


def _refine_compare(op_name: str, lhs: Interval,
                    rhs: Interval) -> Optional[Tuple[Interval, Interval]]:
    """Intervals of ``lhs``/``rhs`` under ``lhs <op> rhs``; ``None`` when
    the constraint is unsatisfiable within the incoming intervals."""
    ll, lh = lhs
    rl, rh = rhs
    if op_name == "lt":
        new_lhs, new_rhs = (ll, min(lh, rh - 1)), (max(rl, ll + 1), rh)
    elif op_name == "le":
        new_lhs, new_rhs = (ll, min(lh, rh)), (max(rl, ll), rh)
    elif op_name == "gt":
        new_lhs, new_rhs = (max(ll, rl + 1), lh), (rl, min(rh, lh - 1))
    elif op_name == "ge":
        new_lhs, new_rhs = (max(ll, rl), lh), (rl, min(rh, lh))
    elif op_name == "eq":
        meet = (max(ll, rl), min(lh, rh))
        new_lhs = new_rhs = meet
    else:  # ne — only singleton endpoints can be trimmed
        new_lhs, new_rhs = lhs, rhs
        if rl == rh:
            lo = ll + 1 if ll == rl else ll
            hi = lh - 1 if lh == rl else lh
            new_lhs = (lo, hi)
        if ll == lh:
            lo = rl + 1 if rl == ll else rl
            hi = rh - 1 if rh == ll else rh
            new_rhs = (lo, hi)
    if new_lhs[0] > new_lhs[1] or new_rhs[0] > new_rhs[1]:
        return None
    return new_lhs, new_rhs


def _mem_is_written(mem: MemObject, func: Function,
                    module: Optional[Module]) -> bool:
    """True when any Store in scope targets ``mem`` (by name)."""
    functions = [func]
    if module is not None and mem.is_global:
        functions = list(module.functions.values())
    for scope in functions:
        for op in scope.all_ops():
            if isinstance(op, Store) and op.mem.name == mem.name:
                return True
    return False


# ---------------------------------------------------------------------------
# Liveness domain (backward)
# ---------------------------------------------------------------------------


class LivenessDomain(Domain):
    """May-liveness of scalar values: state is the live-value set."""

    name = "liveness"
    direction = BACKWARD

    def boundary(self, func: Function) -> FrozenSet[Value]:
        return frozenset()

    def join(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        return a | b

    def transfer_op(self, op: Operation, state: FrozenSet) -> FrozenSet:
        out = op.output()
        if _trackable(out):
            state = state - {out}
        gen = {v for v in op.inputs() if _trackable(v)}
        return state | gen if gen else state


# ---------------------------------------------------------------------------
# Definite-assignment domain (forward, intersection join)
# ---------------------------------------------------------------------------


class MustDefDomain(Domain):
    """Values definitely assigned on *every* path from the entry."""

    name = "mustdef"
    direction = FORWARD

    def boundary(self, func: Function) -> FrozenSet[Value]:
        return frozenset(Var(p.name, p.type) for p in func.scalar_params())

    def join(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        return a & b

    def transfer_op(self, op: Operation, state: FrozenSet) -> FrozenSet:
        out = op.output()
        if _trackable(out):
            return state | {out}
        return state


# ---------------------------------------------------------------------------
# SEU-taint domain
# ---------------------------------------------------------------------------


class SeuTaintDomain(Domain):
    """Which values derive from memories lacking SEU mitigation.

    A load from a memory whose ``protection`` scheme the ``radhard``
    package does not recognise as mitigating (no ECC, no TMR) taints its
    destination; taint propagates through every data operation.  The
    companion lint rule flags stores that carry tainted data into a
    *protected* memory — the mitigation there is undermined by the
    unprotected upstream storage.
    """

    name = "seu-taint"
    direction = FORWARD

    def boundary(self, func: Function) -> FrozenSet[Value]:
        return frozenset()

    def join(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        return a | b

    @staticmethod
    def mem_protected(mem: MemObject) -> bool:
        return mitigates_seu(getattr(mem, "protection", "none"))

    def tainted(self, value: Value, state: FrozenSet) -> bool:
        return _trackable(value) and value in state

    def transfer_op(self, op: Operation, state: FrozenSet) -> FrozenSet:
        out = op.output()
        if not _trackable(out):
            return state
        if isinstance(op, Load):
            dirty = (not self.mem_protected(op.mem)
                     or self.tainted(op.index, state))
        elif isinstance(op, Call):
            dirty = (any(self.tainted(a, state) for a in op.args)
                     or any(not self.mem_protected(m)
                            for m in op.mem_args))
        else:
            dirty = any(self.tainted(v, state) for v in op.inputs())
        if dirty:
            return state | {out}
        if out in state:
            return state - {out}
        return state
