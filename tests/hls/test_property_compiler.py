"""Property-based compiler testing (hypothesis).

Random C expressions and small programs are generated together with a
bit-accurate Python evaluator; the compiled IR (and the optimized and
scheduled design) must agree with it on random inputs.  This is the
classic compiler-fuzzing harness, aimed at the front end, the middle-end
passes and the backend schedule simultaneously.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from test_fsmd_identity import ENGINES, simulator

from repro.hls import compile_to_ir, synthesize
from repro.hls.backend import allocate, schedule_function, verify_schedule
from repro.hls.ir.interp import run_function
from repro.hls.middleend import optimize


def wrap32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value


class Expr:
    """Random expression node with C rendering and Python evaluation."""

    def __init__(self, text, evaluate):
        self.text = text
        self.evaluate = evaluate


def _leaf_var(name):
    return Expr(name, lambda env, n=name: env[n])


def _leaf_const(value):
    return Expr(str(value), lambda env, v=value: v)


def _binop(op, lhs, rhs):
    if op == "+":
        fn = lambda a, b: wrap32(a + b)
    elif op == "-":
        fn = lambda a, b: wrap32(a - b)
    elif op == "*":
        fn = lambda a, b: wrap32(a * b)
    elif op == "&":
        fn = lambda a, b: wrap32(a & b)
    elif op == "|":
        fn = lambda a, b: wrap32(a | b)
    elif op == "^":
        fn = lambda a, b: wrap32(a ^ b)
    elif op == "<":
        fn = lambda a, b: 1 if a < b else 0
    elif op == ">":
        fn = lambda a, b: 1 if a > b else 0
    elif op == "==":
        fn = lambda a, b: 1 if a == b else 0
    else:
        raise ValueError(op)
    return Expr(f"({lhs.text} {op} {rhs.text})",
                lambda env: fn(lhs.evaluate(env), rhs.evaluate(env)))


def _division(lhs, rhs):
    # Denominator forced odd-positive to dodge div-by-zero and INT_MIN/-1.
    def fn(env):
        a = lhs.evaluate(env)
        b = (rhs.evaluate(env) & 0xFF) | 1
        quotient = abs(a) // abs(b)
        return wrap32(-quotient if (a < 0) != (b < 0) else quotient)
    return Expr(f"({lhs.text} / (({rhs.text} & 255) | 1))", fn)


def _modulo(lhs, rhs):
    def fn(env):
        a = lhs.evaluate(env)
        b = (rhs.evaluate(env) & 0xFF) | 1
        remainder = abs(a) % abs(b)
        return wrap32(-remainder if a < 0 else remainder)
    return Expr(f"({lhs.text} % (({rhs.text} & 255) | 1))", fn)


def _shift(op, lhs, rhs):
    def fn(env):
        a = lhs.evaluate(env)
        amount = rhs.evaluate(env) & 15
        if op == "<<":
            return wrap32(a << amount)
        return wrap32(a >> amount)   # arithmetic shift (Python semantics)
    return Expr(f"({lhs.text} {op} ({rhs.text} & 15))", fn)


def _ternary(cond, if_true, if_false):
    return Expr(f"({cond.text} ? {if_true.text} : {if_false.text})",
                lambda env: if_true.evaluate(env) if cond.evaluate(env)
                else if_false.evaluate(env))


def _negate(operand):
    # Note the space: "(- -93)" must not lex as a decrement token.
    return Expr(f"(- {operand.text})",
                lambda env: wrap32(-operand.evaluate(env)))


def _bitnot(operand):
    return Expr(f"(~{operand.text})",
                lambda env: wrap32(~operand.evaluate(env)))


_VARS = ("a", "b", "c")


@st.composite
def expressions(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return _leaf_var(draw(st.sampled_from(_VARS)))
        return _leaf_const(draw(st.integers(-100, 100)))
    kind = draw(st.sampled_from(
        ["+", "-", "*", "&", "|", "^", "<", ">", "==",
         "/", "%", "<<", ">>", "?:", "neg", "~"]))
    if kind == "?:":
        return _ternary(draw(expressions(depth=depth - 1)),
                        draw(expressions(depth=depth - 1)),
                        draw(expressions(depth=depth - 1)))
    if kind == "neg":
        return _negate(draw(expressions(depth=depth - 1)))
    if kind == "~":
        return _bitnot(draw(expressions(depth=depth - 1)))
    lhs = draw(expressions(depth=depth - 1))
    rhs = draw(expressions(depth=depth - 1))
    if kind == "/":
        return _division(lhs, rhs)
    if kind == "%":
        return _modulo(lhs, rhs)
    if kind in ("<<", ">>"):
        return _shift(kind, lhs, rhs)
    return _binop(kind, lhs, rhs)


inputs_strategy = st.tuples(
    st.integers(-(2**31), 2**31 - 1),
    st.integers(-(2**31), 2**31 - 1),
    st.integers(-(2**31), 2**31 - 1),
)


def _source_for(expr):
    return f"int f(int a, int b, int c) {{ return {expr.text}; }}"


class TestRandomExpressions:
    @given(expr=expressions(), args=inputs_strategy)
    @settings(max_examples=60, deadline=None)
    def test_frontend_matches_python_model(self, expr, args):
        module = compile_to_ir(_source_for(expr))
        expected = expr.evaluate(dict(zip(_VARS, args)))
        actual, _ = run_function(module, "f", args)
        assert actual == expected

    @given(expr=expressions(), args=inputs_strategy,
           level=st.sampled_from([1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_optimizer_preserves_semantics(self, expr, args, level):
        module = compile_to_ir(_source_for(expr))
        baseline, _ = run_function(module, "f", args)
        optimize(module, level=level)
        optimized, _ = run_function(module, "f", args)
        assert optimized == baseline

    @given(expr=expressions(depth=2),
           clock=st.sampled_from([2.0, 5.0, 12.0]))
    @settings(max_examples=25, deadline=None)
    def test_schedules_always_legal(self, expr, clock):
        module = compile_to_ir(_source_for(expr))
        optimize(module, level=2)
        func = module["f"]
        allocation = allocate(func, clock_ns=clock)
        schedule = schedule_function(func, allocation)
        assert verify_schedule(schedule, allocation) == []

    @given(expr=expressions(depth=2), args=inputs_strategy)
    @settings(max_examples=25, deadline=None)
    def test_fsmd_simulation_matches_model(self, expr, args):
        project = synthesize(_source_for(expr), "f", clock_ns=6.0)
        expected = expr.evaluate(dict(zip(_VARS, args)))
        result, _trace, _m = project.simulate(args)
        assert result == expected


#: Size of the output memory of a loop program (its longest trip).
MAX_TRIP = 12


@st.composite
def loop_programs(draw):
    """Accumulation loops with a random body expression over (a, i).

    Every iteration stores the running sum to ``out``; the result reads
    ``out`` back, so loads, stores and the return value all carry it.
    """
    trip = draw(st.integers(1, MAX_TRIP))
    body = draw(expressions(depth=2))
    source = (
        "int f(int a, int b, int c, int *out) {\n"
        "  int acc = 0;\n"
        f"  for (int i = 0; i < {trip}; i++) {{\n"
        f"    int c2 = c + i;\n"
        f"    acc += {body.text.replace('c', 'c2')};\n"
        "    out[i] = acc;\n"
        "  }\n"
        "  return acc ^ out[0];\n"
        "}"
    )

    def evaluate(args):
        """The model's (return value, final ``out``)."""
        a, b, c = args
        acc = 0
        out = [0] * MAX_TRIP
        for i in range(trip):
            env = {"a": a, "b": b, "c": wrap32(c + i)}
            acc = wrap32(acc + body.evaluate(env))
            out[i] = acc
        return acc ^ out[0], out

    return source, evaluate


def run_loop(module, args):
    result, memories = run_function(module, "f", args,
                                    {"out": [0] * MAX_TRIP})
    return result, memories["out"].data


class TestRandomLoops:
    @given(program=loop_programs(), args=inputs_strategy)
    @settings(max_examples=30, deadline=None)
    def test_loops_match_model(self, program, args):
        source, evaluate = program
        module = compile_to_ir(source)
        assert run_loop(module, args) == evaluate(args)

    @given(program=loop_programs(), args=inputs_strategy)
    @settings(max_examples=15, deadline=None)
    def test_optimized_loops_match_model(self, program, args):
        source, evaluate = program
        module = compile_to_ir(source)
        optimize(module, level=2)
        assert run_loop(module, args) == evaluate(args)

    @given(program=loop_programs(), args=inputs_strategy,
           opt_level=st.sampled_from([0, 1, 2]),
           clock=st.sampled_from([3.0, 8.0]))
    @settings(max_examples=20, deadline=None)
    def test_three_engines_agree(self, program, args, opt_level, clock):
        """IR interpreter, FSMD reference walker and FSMD DBT agree on
        the return value and every output memory (and both FSMD
        engines on the cycle count)."""
        source, evaluate = program
        project = synthesize(source, "f", clock_ns=clock,
                             opt_level=opt_level)
        expected = run_loop(project.module, args)
        assert expected == evaluate(args)
        cycles = set()
        for engine in sorted(ENGINES):
            result, trace, memories = simulator(engine, project).run(
                "f", args, {"out": [0] * MAX_TRIP})
            assert (result, memories["out"].data) == expected, engine
            cycles.add(trace.cycles)
        assert len(cycles) == 1
