"""C integer and float semantics of ``eval_binop`` and the engines.

``eval_binop`` is the one definition of a binary op: constant folding,
the reference FSMD walk and every decoded op without a kernel of its own
(division, remainder, shifts, float arithmetic) go through it.  It is
checked here against a plain reference, written from the C rules, over
every op and the edge values of six types.  Division and remainder are
checked end to end as well, on the IR interpreter, both FSMD engines
and constant folding, at 64 bits where a float quotient loses digits.
Memory stimuli are checked to take their C element type on the way in.
"""

import struct
from fractions import Fraction

import pytest
from test_fsmd_identity import ENGINES, simulator

from repro.hls import compile_to_ir, synthesize
from repro.hls.ir import Const, Return, eval_binop
from repro.hls.ir.interp import run_function
from repro.hls.ir.operations import BINARY_OPS
from repro.hls.ir.types import F32, I8, I32, I64, U8, U32
from repro.hls.middleend import optimize

# -- the plain reference ------------------------------------------------------


def wrap(value, ty):
    """``value`` reduced into ``ty``'s range, two's complement."""
    span = 1 << ty.width
    return (value - ty.min_value) % span + ty.min_value


def c_quotient(lhs, rhs):
    """C division truncates toward zero (``int`` of a Fraction does)."""
    return int(Fraction(lhs, rhs))


def f32(value):
    return struct.unpack("<f", struct.pack("<f", value))[0]


def reference(op, lhs, rhs, ty):
    """What C computes for ``lhs op rhs`` in ``ty``: the result, or the
    exception type for an operation the IR leaves undefined."""
    compare = {"eq": lhs == rhs, "ne": lhs != rhs, "lt": lhs < rhs,
               "le": lhs <= rhs, "gt": lhs > rhs, "ge": lhs >= rhs}
    if op in compare:
        return int(compare[op])
    if ty is F32:
        if op == "div" and rhs == 0:
            return float("inf")
        exact = {"add": lambda: lhs + rhs, "sub": lambda: lhs - rhs,
                 "mul": lambda: lhs * rhs, "div": lambda: lhs / rhs}
        if op not in exact:
            return ValueError
        try:
            return f32(exact[op]())
        except OverflowError:
            return OverflowError
    if op in ("shl", "shr") and rhs < 0:
        return ValueError  # a negative shift count
    if op == "add":
        raw = lhs + rhs
    elif op == "sub":
        raw = lhs - rhs
    elif op == "mul":
        raw = lhs * rhs
    elif op == "div":
        raw = 0 if rhs == 0 else c_quotient(lhs, rhs)
    elif op == "rem":
        raw = 0 if rhs == 0 else lhs - rhs * c_quotient(lhs, rhs)
    elif op == "and":
        raw = lhs & rhs
    elif op == "or":
        raw = lhs | rhs
    elif op == "xor":
        raw = lhs ^ rhs
    elif op == "shl":
        # An amount past the width is taken modulo the width.
        raw = lhs << (rhs % ty.width if rhs >= ty.width else rhs)
    else:
        # An amount past the width shifts by width - 1; an unsigned
        # shift sees the operand's bits in the type.
        shift = min(rhs, ty.width - 1)
        raw = (lhs if ty.signed else wrap(lhs, ty)) >> shift
    return wrap(raw, ty)


def edge_values(ty):
    if ty is F32:
        return [0.0, -0.0, 1.0, -1.5, 3.25, 7.0, -7.0, 1e30, -3.0e38]
    values = {0, 1, 2, 3, 7, ty.width - 1, ty.width, ty.width + 1,
              ty.max_value, ty.max_value - 1, ty.max_value // 3,
              ty.min_value, ty.min_value + 1}
    if ty.signed:
        values |= {-1, -2, -7, ty.min_value // 3}
    return sorted(values)


def outcome(op, lhs, rhs, ty):
    try:
        return eval_binop(op, lhs, rhs, ty)
    except (ValueError, OverflowError) as exc:
        return type(exc)


TYPES = {"i8": I8, "u8": U8, "i32": I32, "u32": U32, "i64": I64,
         "f32": F32}


@pytest.mark.parametrize("op", sorted(BINARY_OPS))
@pytest.mark.parametrize("type_name", sorted(TYPES))
def test_eval_binop_matches_the_reference(op, type_name):
    ty = TYPES[type_name]
    values = edge_values(ty)
    for lhs in values:
        for rhs in values:
            expected = reference(op, lhs, rhs, ty)
            got = outcome(op, lhs, rhs, ty)
            assert got == expected and type(got) is type(expected), \
                (op, type_name, lhs, rhs)


def test_unknown_op_raises():
    with pytest.raises(ValueError):
        eval_binop("pow", 2, 3, I32)
    with pytest.raises(ValueError):
        eval_binop("rem", 2.0, 3.0, F32)


# -- division and remainder end to end -----------------------------------------

WIDE = (1 << 62) + 1

#: (dividend, divisor) -> (C quotient, C remainder), int64.
DIVISIONS = {
    (WIDE, 3): (1537228672809129301, 2),
    (-WIDE, 3): (-1537228672809129301, -2),
    (WIDE, -7): (-658812288346769700, 5),
    ((1 << 63) - 1, 10): (922337203685477580, 7),
    (-(1 << 63), -1): (-(1 << 63), 0),
    (-7, 2): (-3, -1),
    (7, -2): (-3, 1),
    (-7, -2): (3, -1),
    (5, 0): (0, 0),
}

DIVIDE_C = """
long long quotient(long long a, long long b) { return a / b; }
long long remainder(long long a, long long b) { return a % b; }
"""


def test_the_table_is_c():
    for (lhs, rhs), (quotient, remainder) in DIVISIONS.items():
        assert reference("div", lhs, rhs, I64) == quotient
        assert reference("rem", lhs, rhs, I64) == remainder


@pytest.mark.parametrize("lhs,rhs", sorted(DIVISIONS))
def test_interpreter_divides_exactly(lhs, rhs):
    module = compile_to_ir(DIVIDE_C)
    assert (run_function(module, "quotient", (lhs, rhs))[0],
            run_function(module, "remainder", (lhs, rhs))[0]) \
        == DIVISIONS[lhs, rhs]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("lhs,rhs", sorted(DIVISIONS))
def test_fsmd_divides_exactly(lhs, rhs, engine):
    results = []
    for top in ("quotient", "remainder"):
        project = synthesize(DIVIDE_C, top)
        result, _trace, _mems = simulator(engine, project).run(
            top, (lhs, rhs), {})
        results.append(result)
    assert tuple(results) == DIVISIONS[lhs, rhs]


@pytest.mark.parametrize("lhs,rhs", sorted(DIVISIONS))
def test_constant_folding_divides_exactly(lhs, rhs):
    source = (f"long long quotient(void) {{ long long a = {lhs}LL;"
              f" long long b = {rhs}LL; return a / b; }}\n"
              f"long long remainder(void) {{ long long a = {lhs}LL;"
              f" long long b = {rhs}LL; return a % b; }}")
    module = compile_to_ir(source)
    optimize(module, level=1)
    folded = []
    for name in ("quotient", "remainder"):
        func = module[name]
        assert [len(block.ops) for block in func.blocks.values()] == [0]
        (block,) = func.blocks.values()
        assert isinstance(block.terminator, Return)
        assert isinstance(block.terminator.value, Const)
        folded.append(block.terminator.value.value)
    assert tuple(folded) == DIVISIONS[lhs, rhs]


# -- stimuli take their C element type at the boundary --------------------------

STIMULUS_C = """
int narrow(unsigned char *p) { return p[0] + 1; }
int truncate(int *p) { return p[0] > 2; }
"""

#: (top, stimulus) -> (C result, memory contents): the stimulus is
#: stored in the parameter's element type, so 300 is 44 in an
#: ``unsigned char`` and 2.7 is 2 in an ``int``.
STIMULI = {
    ("narrow", (300,)): (45, [44]),
    ("truncate", (2.7,)): (0, [2]),
}


@pytest.mark.parametrize("top,data", sorted(STIMULI))
def test_interpreter_wraps_stimuli(top, data):
    result, memories = run_function(compile_to_ir(STIMULUS_C), top, (),
                                    {"p": list(data)})
    assert (result, memories["p"].data) == STIMULI[top, data]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("top,data", sorted(STIMULI))
def test_fsmd_wraps_stimuli(top, data, engine):
    project = synthesize(STIMULUS_C, top)
    result, _trace, memories = simulator(engine, project).run(
        top, (), {"p": list(data)})
    assert (result, memories["p"].data) == STIMULI[top, data]


@pytest.mark.parametrize("top,data", sorted(STIMULI))
def test_cosimulation_wraps_stimuli(top, data):
    result = synthesize(STIMULUS_C, top).cosimulate((), {"p": list(data)})
    assert result.match
    assert result.expected == result.actual == STIMULI[top, data][0]
