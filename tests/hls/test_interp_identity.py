"""Interpreter identity golden: the C-semantics model, pinned by digest.

The IR interpreter is the golden model every co-simulation checks the
FSMD design against, so its observable results are pinned here: the
return value, every memory's contents, and the ``op_count`` /
``mem_reads`` / ``mem_writes`` counters.  Each digest is the sha256 of
that record as canonical JSON.  The digests were taken with the
op-by-op interpreter (``_exec_function`` stepping through ``_exec_op``);
``Interpreter.run`` executes a decoded form of each function and must
reproduce them bit for bit, and so must the stepping walk, which a
subclass that hooks ``_exec_op`` still runs.

The inputs are the seven §V kernels at opt levels 0, 1 and 2 on fixed
seeded stimuli, plus one program that makes real sub-function calls
(a callee with a local array, so it is never inlined), calls ``sqrtf``
and shares a global array between functions.

The error-path tests pin what a failed run leaves behind: the message,
the memories written before the failure and the counters.

A digest mismatch means the interpreter's results changed.  That is
never a refactoring detail: every co-simulation verdict depends on it.
"""

import hashlib
import json
import random

import pytest

from repro.apps import ai, image, sdr, vbn
from repro.hls import compile_to_ir, synthesize
from repro.hls.ir import Assign, Branch, Call, Jump, Return
from repro.hls.ir.interp import InterpError, Interpreter, Memory

CALLS_C = """
int hist[8];
int bucket(const int *v, int n, int shift) {
  int seen[8];
  int acc = 0;
  for (int i = 0; i < n; i++) {
    int b = (v[i] >> shift) & 7;
    if (seen[b] == 0) {
      hist[b] = hist[b] + 1;
    }
    seen[b] = seen[b] + 1;
    acc += v[i] * (b + 1);
  }
  return acc;
}
float spread(int *out, int n) {
  int sq = 0;
  for (int b = 0; b < 8; b++) {
    out[b] = hist[b];
    sq += hist[b] * hist[b];
  }
  return sqrtf((float)sq / n);
}
int calls(const int *src, int *out, int n) {
  int total = 0;
  for (int r = 0; r < 3; r++) {
    total += bucket(src, n, r + 1);
  }
  float s = spread(out, n);
  out[8] = (int)(s * 100.0f);
  return total;
}
"""

SOURCES = {
    "sobel": image.SOBEL_C,
    "conv2d": image.CONV2D_3X3_C,
    "harris16": vbn.HARRIS16_C,
    "dpcm_encode": image.DPCM_ENCODE_C,
    "fir8": sdr.FIR_C,
    "fft16": sdr.FFT16_C,
    "mlp": ai.mlp_monolithic_source(),
    "calls": CALLS_C,
}


def stimuli(kernel):
    """Scalar args and memory contents for ``kernel``, from a fixed seed."""
    rng = random.Random(f"interp-identity/{kernel}")
    pixels = [rng.randrange(256) for _ in range(256)]
    if kernel == "sobel":
        return (), {"src": pixels, "dst": [0] * 256}
    if kernel == "conv2d":
        return (3,), {"src": pixels, "dst": [0] * 256,
                      "kernel": [rng.randrange(-4, 5) for _ in range(9)]}
    if kernel == "harris16":
        return (), {"img": [p % 16 for p in pixels], "resp": [0] * 256}
    if kernel == "dpcm_encode":
        return (64,), {"src": pixels[:64], "dst": [0] * 64}
    if kernel == "fir8":
        return (64,), {"x": [rng.randrange(-512, 512) for _ in range(64)],
                       "y": [0] * 64}
    if kernel == "fft16":
        re, im = sdr.tone(frequency_bin=3, amplitude=1500)
        return (), {"re": re, "im": im}
    if kernel == "mlp":
        return (), {"x": [rng.randrange(-128, 128) for _ in range(ai.N_IN)]}
    if kernel == "calls":
        return (24,), {"src": pixels[:24], "out": [0] * 9}
    raise KeyError(kernel)


#: (kernel, opt level) -> sha256 of the run record (see ``record``).
DIGESTS = {
    ("sobel", 0):
        "1275439fc4ec2d85799493b5ca7b8446e2eb58017c4d940e26fabba9605933d6",
    ("sobel", 1):
        "3f85fb347829a607e5ab924552ed574d3e498c7bf3cfa1087b58f5d5172d2a5d",
    ("sobel", 2):
        "814d5b74f3c227718205b9ccf7ac21c55d4465e3109979f949634d8e74239fa2",
    ("conv2d", 0):
        "697fa98a62514869221e71fcba54dbd6cfe94aff9b0d11ddab6f3b84d6e35eb9",
    ("conv2d", 1):
        "c37b50dda60abf3b590294eb8b7e8851dafeefa03fc28c63ac3f8d0dd4a99ccf",
    ("conv2d", 2):
        "40c94dd14b0bc8e809a142ed31d33e355336234d9e6ec6790b561c16cd5a5624",
    ("harris16", 0):
        "1ce1652f5256fb4cdb85f137f543a4b2ba6665341e5af2100cf4bdbf9ea717ed",
    ("harris16", 1):
        "5d1f0a7dd19aec1616042b5ff694eee4b93e5d33727c763fbe8045feb8d783ad",
    ("harris16", 2):
        "03f72e44c648c9f5a6be1b74584212b20047fb90bd6bd30bf4848f1cd097b129",
    ("dpcm_encode", 0):
        "63d6d9c91b677b48e46ea5ff2f7701960a10e662ad0eaf7ed89d8cf93a80753c",
    ("dpcm_encode", 1):
        "6d496a130f4525465c3d9586301056e913136896ee953d8987f87a851254113f",
    ("dpcm_encode", 2):
        "b45d5a4dd57e4374561a1049d73fb6a3f943dcb1ac3c68ee6a05a06f7f0a6a75",
    ("fir8", 0):
        "9d63c57a8cfd3c8ac7bf2b3aba82008a054fcc67129f7471a7c8c58cb3ec37f2",
    ("fir8", 1):
        "9d63c57a8cfd3c8ac7bf2b3aba82008a054fcc67129f7471a7c8c58cb3ec37f2",
    ("fir8", 2):
        "ef0fefe73c3401a41e6938e5a159b8700848640e9a3318a73c82d1ee4147b5a4",
    ("fft16", 0):
        "104d2bc5100e86141cef88cb160cea8c0971c27223ee74fca1e6be270925f4b5",
    ("fft16", 1):
        "104d2bc5100e86141cef88cb160cea8c0971c27223ee74fca1e6be270925f4b5",
    ("fft16", 2):
        "1762195a03ddb719d37c31416ab23aa62ccb57e55a55217af2f8c7559f3d1347",
    ("mlp", 0):
        "9772e31539dd4689d13a1a75f2c0c33b7c89b67534b60156179b34dfb1f5dbd8",
    ("mlp", 1):
        "6b391336e968a76a33190b62146cbaefcdfe121e0aea5babd53d73edcffaa0cd",
    ("mlp", 2):
        "38ca4b9c31f8529e88e0c435f22513703df135a642f4cf1aa4ba475f21f98dbd",
    ("calls", 0):
        "52ec1ffd11c48c51032aa8b4cbeeecc0b76cee01040fb031af4b84e36c71e809",
    ("calls", 1):
        "52ec1ffd11c48c51032aa8b4cbeeecc0b76cee01040fb031af4b84e36c71e809",
    ("calls", 2):
        "849c275aaef950edf885080406af09544c1246ec248014ea97d9e0c5db52604a",
}


class SteppingInterpreter(Interpreter):
    """Hooks ``_exec_op``, so ``run`` steps through it op by op; counts
    the steps (ops, not terminators) it takes."""

    steps = 0

    def _exec_op(self, func, op, env, memories):
        self.steps += 1
        super()._exec_op(func, op, env, memories)


def record(interp, result, memories):
    return {
        "result": result,
        "memories": {name: mem.data for name, mem in memories.items()},
        "op_count": interp.op_count,
        "mem_reads": interp.mem_reads,
        "mem_writes": interp.mem_writes,
    }


def counters(interp):
    return interp.op_count, interp.mem_reads, interp.mem_writes


def digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_kernel(kernel, opt, interpreter=Interpreter):
    project = synthesize(SOURCES[kernel], kernel, clock_ns=8.0,
                         opt_level=opt)
    args, mems = stimuli(kernel)
    interp = interpreter(project.module)
    result, memories = interp.run(kernel, args, mems)
    return record(interp, result, memories)


@pytest.mark.parametrize("kernel,opt", sorted(DIGESTS))
def test_run_matches_golden(kernel, opt):
    assert digest(run_kernel(kernel, opt)) == DIGESTS[kernel, opt]


@pytest.mark.parametrize("kernel,opt", [("calls", 0), ("fft16", 2),
                                        ("mlp", 1)])
def test_stepping_walk_matches_golden(kernel, opt):
    payload = run_kernel(kernel, opt, SteppingInterpreter)
    assert digest(payload) == DIGESTS[kernel, opt]


def test_calls_program_exercises_calls_and_globals():
    payload = run_kernel("calls", 2)
    # Three calls of ``bucket`` each start from a fresh, zeroed ``seen``
    # array, while ``hist`` is one array shared by all three functions.
    assert payload["memories"]["hist"] == payload["memories"]["out"][:8]
    assert payload["memories"]["hist"] == [3, 2, 3, 3, 3, 3, 2, 3]
    assert payload["memories"]["out"][8] == 160


def test_interpreter_reused_across_runs_shares_globals():
    project = synthesize(CALLS_C, "calls", clock_ns=8.0, opt_level=1)
    interp = Interpreter(project.module)
    args, mems = stimuli("calls")
    first, _ = interp.run("calls", args, {k: list(v)
                                          for k, v in mems.items()})
    second, memories = interp.run("calls", args, mems)
    # ``hist`` survives the first run: the second run counts on top.
    assert second == first
    assert memories["hist"].data == [6, 4, 6, 6, 6, 6, 4, 6]
    assert memories["out"].data == [6, 4, 6, 6, 6, 6, 4, 6, 321]
    assert counters(interp) == (4562, 668, 206)


# -- error paths ----------------------------------------------------------

FILL_C = """
void fill(int *out, int n) {
  for (int i = 0; i < n; i++) {
    out[i] = i * 3;
  }
}
"""


class TestStepLimit:
    def test_limit_stops_mid_loop(self):
        module = compile_to_ir(FILL_C)
        out = Memory(module["fill"].mems["out"], data=[0] * 10, size=10)
        # One op on entry, six per iteration: step 29 is the fifth
        # iteration's store, so the limit stops that block after two ops.
        interp = Interpreter(module, max_steps=28)
        with pytest.raises(InterpError, match=r"^fill: step limit exceeded$"):
            interp.run("fill", (10,), {"out": out})
        assert out.data == [0, 3, 6, 9, 0, 0, 0, 0, 0, 0]
        # 28 ops and 14 terminators ran; the cut op is not counted.
        assert counters(interp) == (42, 0, 4)

    def test_exact_budget_completes(self):
        module = compile_to_ir(FILL_C)
        probe = SteppingInterpreter(module)
        probe.run("fill", (4,), {"out": [0] * 4})
        # Terminators do not count against the step limit.
        assert probe.steps < probe.op_count
        interp = Interpreter(module, max_steps=probe.steps)
        _, memories = interp.run("fill", (4,), {"out": [0] * 4})
        assert memories["out"].data == [0, 3, 6, 9]
        assert counters(interp) == counters(probe)
        with pytest.raises(InterpError, match="step limit"):
            Interpreter(module, max_steps=probe.steps - 1).run(
                "fill", (4,), {"out": [0] * 4})

    def test_limit_is_per_invocation(self):
        source = ("int leaf(int n) { int s = 0; int tmp[2];"
                  " for (int i = 0; i < n; i++) { tmp[i & 1] = i; s += i; }"
                  " return s + tmp[0]; }\n"
                  "int top(int n) { int a = leaf(n); int b = leaf(n);"
                  " return a + b; }")
        module = compile_to_ir(source)
        probe = SteppingInterpreter(module)
        assert probe.run("top", (6,))[0] == 38
        assert probe.steps == 111
        # Every invocation fits in 60 steps, the whole run does not.
        interp = Interpreter(module, max_steps=60)
        assert interp.run("top", (6,))[0] == 38
        assert counters(interp) == counters(probe) == (154, 2, 12)
        with pytest.raises(InterpError, match=r"^leaf: step limit exceeded$"):
            Interpreter(module, max_steps=40).run("top", (6,))


class TestMemoryBounds:
    def test_out_of_bounds_load(self):
        module = compile_to_ir("int f(int *p, int i) {"
                               " int a = p[0]; return a + p[i]; }")
        interp = Interpreter(module)
        with pytest.raises(InterpError,
                           match=r"^out-of-bounds read p\[4\] \(size 2\)$"):
            interp.run("f", (4,), {"p": [1, 2]})
        # The failing load counts as an op, not as a read.
        assert counters(interp) == (4, 1, 0)

    def test_out_of_bounds_store(self):
        module = compile_to_ir("void f(int *p, int i) {"
                               " p[0] = 7; p[i] = 9; p[1] = 8; }")
        p = Memory(module["f"].mems["p"], data=[0, 0], size=2)
        interp = Interpreter(module)
        with pytest.raises(InterpError,
                           match=r"^out-of-bounds write p\[5\] \(size 2\)$"):
            interp.run("f", (5,), {"p": p})
        assert p.data == [7, 0]
        assert counters(interp) == (3, 0, 1)


class TestUninitialisedReads:
    def test_int_reads_zero(self):
        module = compile_to_ir("int f(int a) { int x; return x + a; }")
        interp = Interpreter(module)
        result, _ = interp.run("f", (5,))
        assert result == 5 and type(result) is int
        assert counters(interp) == (2, 0, 0)

    def test_float_reads_zero_point_zero(self):
        module = compile_to_ir("float f(void) { float y; return y * 2.0f; }")
        interp = Interpreter(module)
        result, _ = interp.run("f")
        assert result == 0.0 and type(result) is float
        assert counters(interp) == (2, 0, 0)

    def test_float_returned_unset_is_a_float(self):
        # ``return %y`` reads the variable with no op to coerce it.
        module = compile_to_ir("float f(void) { float y; return y; }")
        interp = Interpreter(module)
        result, _ = interp.run("f")
        assert result == 0.0 and type(result) is float
        assert counters(interp) == (1, 0, 0)


class _Unsupported:
    """An op the interpreter has no semantics for."""

    def __str__(self):
        return "mystery-op"


class TestLazyErrors:
    """Malformed code raises only when execution reaches it."""

    def test_unsupported_op_in_unreachable_block(self):
        module = compile_to_ir("int f(int a) { return a + 1; }")
        func = module["f"]
        dead = func.new_block("dead")
        dead.ops.append(_Unsupported())
        dead.append(Jump("nowhere"))
        orphan = func.new_block("orphan")   # no terminator either
        orphan.ops.append(_Unsupported())
        interp = Interpreter(module)
        assert interp.run("f", (4,))[0] == 5
        assert counters(interp) == (2, 0, 0)

    def test_unsupported_op_raises_when_reached(self):
        module = compile_to_ir("int f(int *p) { p[0] = 1; return p[0]; }")
        entry = module["f"].blocks["entry"]
        entry.ops.insert(1, _Unsupported())
        p = Memory(module["f"].mems["p"], data=[0], size=1)
        interp = Interpreter(module)
        with pytest.raises(InterpError, match=r"^cannot interpret mystery-op$"):
            interp.run("f", (), {"p": p})
        assert p.data == [1]
        assert counters(interp) == (2, 0, 1)

    def test_unbound_operand_raises_when_reached(self):
        module = compile_to_ir("int f(int a) { int x = a + 1; return x; }")
        func = module["f"]
        entry = func.blocks["entry"]
        x = next(op.dst for op in entry.ops if isinstance(op, Assign))
        dead = func.new_block("dead")
        dead.ops.append(Assign(x, None))
        dead.append(Return(x))
        assert Interpreter(module).run("f", (1,))[0] == 2
        entry.ops.append(Assign(x, None))
        interp = Interpreter(module)
        with pytest.raises(InterpError, match=r"^unbound value None$"):
            interp.run("f", (1,))
        assert counters(interp) == (len(entry.ops), 0, 0)

    def test_block_without_terminator(self):
        module = compile_to_ir("int f(int a) { return a + 1; }")
        func = module["f"]
        tail = func.new_block("tail")
        entry = func.blocks["entry"]
        tail.ops.extend(entry.ops)
        entry.ops = []
        entry.terminator = Jump(tail.name)
        interp = Interpreter(module)
        with pytest.raises(InterpError,
                           match=rf"^f: fell off block {tail.name}$"):
            interp.run("f", (1,))
        assert counters(interp) == (3, 0, 0)

    def test_unknown_branch_target(self):
        module = compile_to_ir("int f(int a) { if (a) return 1;"
                               " return 2; }")
        func = module["f"]
        for block in func.blocks.values():
            if isinstance(block.terminator, Branch):
                block.terminator.if_false = "missing"
        assert Interpreter(module).run("f", (3,))[0] == 1
        interp = Interpreter(module)
        with pytest.raises(KeyError, match="missing"):
            interp.run("f", (0,))
        # The entry block ran, its branch included.
        assert counters(interp) == (2, 0, 0)


class TestCallArity:
    def test_memory_arity_mismatch(self):
        source = ("int total(const int *v, int n) { int s = 0; int t[2];"
                  " for (int i = 0; i < n; i++) { t[i & 1] = v[i];"
                  " s += t[i & 1]; } return s; }\n"
                  "int f(int *data, int n) { data[0] = 5;"
                  " return total(data, n); }")
        module = compile_to_ir(source)
        assert Interpreter(module).run("f", (3,), {"data": [1, 2, 3]})[0] \
            == 10
        for op in module["f"].all_ops():
            if isinstance(op, Call):
                op.mem_args = []
        data = Memory(module["f"].mems["data"], data=[1, 2, 3], size=3)
        interp = Interpreter(module)
        with pytest.raises(InterpError,
                           match=r"^call total: memory arity mismatch$"):
            interp.run("f", (3,), {"data": data})
        assert data.data == [5, 2, 3]
        assert counters(interp) == (2, 0, 1)
