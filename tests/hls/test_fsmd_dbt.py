"""Equivalence and regression tests for the block-compiled FSMD engine.

``DbtFsmdSimulator`` must reproduce the reference ``FsmdSimulator``
exactly — result, full trace (blocks, cycles, profile maps, counters,
call accounting) and output memories — on real synthesized kernels.
Two regression classes cover the latent simulator bugs fixed alongside:
zero-length self-looping blocks used to spin forever, and sub-call
cycles used to get a fresh budget instead of charging the global one.
Both engines must also fail alike: on bad arguments, and on malformed
code, which raises only when a run reaches it.
"""

import pytest
from test_fsmd_identity import ENGINES, simulator
from test_interp_identity import _Unsupported

from repro.hls import synthesize
from repro.hls.backend.allocation import Allocation
from repro.hls.backend.scheduling import BlockSchedule, FunctionSchedule
from repro.hls.backend.simulate import SimulationError
from repro.hls.ir import Assign, Branch, Jump
from repro.hls.ir.cfg import Function, Module
from repro.hls.ir.interp import InterpError
from repro.hls.ir.types import VOID

KERNELS = {
    "int_loop": (
        """
        int acc(const int *x, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                int t = x[i] * 3 - i;
                if (t > 50) t = t - 50;
                s = s + t;
            }
            return s;
        }
        """, "acc", (64,), {"x": list(range(64))}),
    "nested_call": (
        """
        int square(int v) { return v * v; }
        int sumsq(const int *x, int n) {
            int s = 0;
            for (int i = 0; i < n; i++)
                s = s + square(x[i]);
            return s;
        }
        """, "sumsq", (32,), {"x": list(range(32))}),
    "float_sqrt": (
        """
        float norm(const float *x, int n) {
            float s = 0.0f;
            for (int i = 0; i < n; i++)
                s = s + x[i] * x[i];
            return sqrtf(s);
        }
        """, "norm", (16,), {"x": [0.5 * i for i in range(16)]}),
    "store_kernel": (
        """
        void scale(const int *x, int *y, int n) {
            for (int i = 0; i < n; i++)
                y[i] = x[i] * 7 + 1;
        }
        """, "scale", (40,), {"x": list(range(40)), "y": [0] * 40}),
}


def run_both(source, top, args, mems):
    project = synthesize(source, top, clock_ns=8.0)
    results = []
    for engine in ("interp", "dbt"):
        run_mems = {k: list(v) for k, v in mems.items()}
        results.append(simulator(engine, project).run(top, args, run_mems))
    return results


class TestKernelEquivalence:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_bit_identical_run(self, name):
        source, top, args, mems = KERNELS[name]
        (r1, t1, m1), (r2, t2, m2) = run_both(source, top, args, mems)
        assert r1 == r2
        assert t1.cycles == t2.cycles
        assert t1.blocks == t2.blocks
        assert t1.calls == t2.calls
        assert t1.mem_reads == t2.mem_reads
        assert t1.mem_writes == t2.mem_writes
        assert t1.block_cycles == t2.block_cycles
        assert t1.block_visits == t2.block_visits
        assert {k: v.data for k, v in m1.items()} == \
               {k: v.data for k, v in m2.items()}

    def test_cosimulate_uses_dbt_and_matches_c(self):
        source, top, args, mems = KERNELS["nested_call"]
        project = synthesize(source, top, clock_ns=8.0)
        result = project.cosimulate(args, {k: list(v)
                                           for k, v in mems.items()})
        assert result.match


def _hanging_design():
    """A hand-built schedule with a zero-length self-looping block —
    unreachable from the scheduler (which clamps length >= 1) but the
    simulator must not spin forever on corrupt/hand-edited schedules."""
    module = Module("m")
    func = Function("hang", VOID)
    block = func.add_entry_block()
    block.append(Jump("entry"))
    module.add_function(func)
    schedule = FunctionSchedule(
        function=func, clock_ns=10.0, algorithm="list",
        blocks={"entry": BlockSchedule("entry", length=0,
                                       terminator_state=0)})
    allocation = Allocation(function=func, library=None, clock_ns=10.0)
    return module, {"hang": schedule}, {"hang": allocation}


class TestZeroLengthLoopRegression:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_zero_length_self_loop_raises(self, engine):
        module, schedules, allocations = _hanging_design()
        hanging = ENGINES[engine](module, schedules, allocations,
                                  max_cycles=10_000)
        with pytest.raises(SimulationError):
            hanging.run("hang")


class TestGlobalBudgetRegression:
    SOURCE = """
    int spin(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++)
            acc = acc + i;
        return acc;
    }
    int twice(int n) {
        return spin(n) + spin(n);
    }
    """

    def _cycles_of_one_spin(self):
        project = synthesize(self.SOURCE, "spin", clock_ns=8.0)
        _, trace, _ = project.simulate((200,))
        return project, trace.cycles

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_sub_calls_charge_global_budget(self, engine):
        """Two sequential sub-calls must not each get a fresh cycle
        allowance: a budget that fits one spin but not two aborts."""
        project = synthesize(self.SOURCE, "twice", clock_ns=8.0)
        _, spin_trace, _ = project.simulate((200,), func="spin")
        one_spin = spin_trace.cycles
        budget = int(one_spin * 1.5)
        with pytest.raises(SimulationError):
            simulator(engine, project, max_cycles=budget).run(
                "twice", (200,))

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_sufficient_budget_passes(self, engine):
        project = synthesize(self.SOURCE, "twice", clock_ns=8.0)
        _, spin_trace, _ = project.simulate((200,), func="spin")
        one_spin = spin_trace.cycles
        result, trace, _ = simulator(
            engine, project, max_cycles=one_spin * 4).run("twice", (200,))
        assert result == 2 * sum(range(200))
        assert trace.calls.get("spin") == 2


class TestArgumentErrors:
    """Both engines bind arguments as the IR interpreter does."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_wrong_argument_count(self, engine):
        source, top, _, mems = KERNELS["store_kernel"]
        project = synthesize(source, top, clock_ns=8.0)
        with pytest.raises(InterpError,
                           match=r"^scale expects 1 scalar args, got 2$"):
            simulator(engine, project).run(top, (40, 1), mems)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_missing_memory_argument(self, engine):
        source, top, args, mems = KERNELS["store_kernel"]
        project = synthesize(source, top, clock_ns=8.0)
        with pytest.raises(InterpError,
                           match=r"^missing memory argument 'y'$"):
            simulator(engine, project).run(top, args, {"x": mems["x"]})


def _unsupported_op(func):
    func.blocks["entry"].ops.insert(0, _Unsupported())


def _unbound_operand(func):
    entry = func.blocks["entry"]
    x = next(op.dst for op in entry.ops if isinstance(op, Assign))
    entry.ops.append(Assign(x, None))


def _no_terminator(func):
    func.blocks["entry"].terminator = None


def _unknown_target(func):
    for block in func.blocks.values():
        if isinstance(block.terminator, Branch):
            block.terminator.if_false = "missing"


#: Malformed ``f``, reached from ``f(0)``: the error both engines raise.
MALFORMED = {
    "unsupported_op": (_unsupported_op, InterpError,
                       "cannot interpret mystery-op"),
    "unbound_operand": (_unbound_operand, InterpError, "unbound value None"),
    "no_terminator": (_no_terminator, SimulationError,
                      "bad terminator in entry"),
    "unknown_target": (_unknown_target, KeyError, "'missing'"),
}

LAZY_C = "int f(int a) { int x = a + 1; if (a) return x; return 2 * x; }"


class TestLazyErrorParity:
    """Malformed code raises only when reached, the same on both engines
    (the reference walk is the oracle)."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_unreachable_malformed_block_is_harmless(self, engine):
        project = synthesize(LAZY_C, "f", clock_ns=8.0)
        func = project.module["f"]
        x = next(op.dst for op in func.blocks["entry"].ops
                 if isinstance(op, Assign))
        dead = func.new_block("dead")
        dead.ops.append(_Unsupported())
        dead.ops.append(Assign(x, None))
        dead.append(Jump("nowhere"))
        orphan = func.new_block("orphan")   # no terminator either
        orphan.ops.append(_Unsupported())
        result, trace, _ = simulator(engine, project).run("f", (4,))
        assert result == 5
        assert trace.blocks[0] == "entry"

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_block_raises_when_reached(self, case, engine):
        mutate, error, message = MALFORMED[case]
        project = synthesize(LAZY_C, "f", clock_ns=8.0)
        mutate(project.module["f"])
        with pytest.raises(error) as caught:
            simulator(engine, project).run("f", (0,))
        assert str(caught.value) == message
