"""FSMD identity golden: the cycle-accurate simulation, pinned by digest.

Every co-simulation verdict and every cycle count in the performance
reports comes from an FSMD run, so its observable results are pinned
here for both engines — the reference ``FsmdSimulator`` (op-by-op walk)
and ``DbtFsmdSimulator`` (decoded walk): the return value, every
memory's contents and the full ``SimulationTrace`` (``cycles``,
``blocks``, ``block_cycles``, ``block_visits``, ``calls``,
``mem_reads``, ``mem_writes``).  The three maps are recorded in
insertion order, which ``SimulationTrace.hot_blocks`` uses to rank
ties.  Each digest is the sha256 of that record as canonical JSON.

The inputs are the interpreter identity golden's: the seven §V kernels
at opt levels 0, 1 and 2 and the ``calls`` program (sub-function calls,
a callee-local array, ``sqrtf``, a global array shared between
functions), on the same seeded stimuli, at one clock.

A digest mismatch means the FSMD results changed — cycle counts
included.  That is never a refactoring detail.
"""

import hashlib
import json

import pytest
from test_interp_identity import SOURCES, stimuli

from repro.hls import synthesize
from repro.hls.backend.dbt import DbtFsmdSimulator
from repro.hls.backend.simulate import FsmdSimulator

CLOCK_NS = 8.0

#: Both FSMD engines, by the name their tests are parametrized with.
ENGINES = {"interp": FsmdSimulator, "dbt": DbtFsmdSimulator}


def simulator(engine, project, **kwargs):
    """The FSMD ``engine`` (a key of ``ENGINES``) for ``project``."""
    return ENGINES[engine](
        project.module,
        {name: design.schedule for name, design in project.designs.items()},
        {name: design.allocation
         for name, design in project.designs.items()},
        **kwargs)


#: (kernel, opt level) -> sha256 of the run record (see ``record``).
DIGESTS = {
    ("calls", 0):
        "9235a680369cb38f3c8d68ba61fbbb1498efba2e549f152ae12eaecc6179b39a",
    ("calls", 1):
        "9235a680369cb38f3c8d68ba61fbbb1498efba2e549f152ae12eaecc6179b39a",
    ("calls", 2):
        "e336a683bfb2013640f599fa6204fc0df0701328a990cb05d40fbf14e5c0efc2",
    ("conv2d", 0):
        "6b4ad7304608d0e16072376a8d775ca46375271a52ce8271b49bb32172e063b1",
    ("conv2d", 1):
        "6b4ad7304608d0e16072376a8d775ca46375271a52ce8271b49bb32172e063b1",
    ("conv2d", 2):
        "4fd06028a81f0831eaba9dd504fd262cdc458bf2b5fe6f9a1c634cb9fc033788",
    ("dpcm_encode", 0):
        "6a1b4ac38cbe891115cf8a22d4fd85d04f4d08593d4be92c99c698a3501397da",
    ("dpcm_encode", 1):
        "6a1b4ac38cbe891115cf8a22d4fd85d04f4d08593d4be92c99c698a3501397da",
    ("dpcm_encode", 2):
        "3da82bb7d5ae217cd856c4a5598fab0292ff63bd78a17cde4131603d668e0484",
    ("fft16", 0):
        "018dfd2d8c1cfb1ead2ac27060181d97a1aac9be208bd7258c62a2acca193cb9",
    ("fft16", 1):
        "018dfd2d8c1cfb1ead2ac27060181d97a1aac9be208bd7258c62a2acca193cb9",
    ("fft16", 2):
        "d13ab31cad7d6694704dd99fa1fdba85e23e2061ee4d84de22aa9ec7d56411e1",
    ("fir8", 0):
        "c46fd1bfb38b76c52029afe68cef3baa86145ad72fc94bd6009c9140e4ba7cc1",
    ("fir8", 1):
        "c46fd1bfb38b76c52029afe68cef3baa86145ad72fc94bd6009c9140e4ba7cc1",
    ("fir8", 2):
        "6b0789567662aafcb0d5b44d2c352246b5836a3f12ce8d8b88350982fde94749",
    ("harris16", 0):
        "c40de51833257b76a89cabd1f576604c844adf3e66b7d18ba7572325ec71e222",
    ("harris16", 1):
        "c40de51833257b76a89cabd1f576604c844adf3e66b7d18ba7572325ec71e222",
    ("harris16", 2):
        "d3a2bf1dd925b0e555434e2f5087c9fd1cb3f4d89210238735a50039d937b8fc",
    ("mlp", 0):
        "f4329c450bcdae3364c758c98ab2e0e0d10a7d8e08de89fcd7a27ccceda8e4a9",
    ("mlp", 1):
        "f4329c450bcdae3364c758c98ab2e0e0d10a7d8e08de89fcd7a27ccceda8e4a9",
    ("mlp", 2):
        "bfea89791eb5467ea4386d7fa0e7ce855d6ee96da371a14865cc81abc3cc870c",
    ("sobel", 0):
        "20765187cf65b2eff022797d6552bdb5f8d728bda04afd33c5ddf086817c7586",
    ("sobel", 1):
        "20765187cf65b2eff022797d6552bdb5f8d728bda04afd33c5ddf086817c7586",
    ("sobel", 2):
        "901c87c1ee0c65a62928bf5ae27824cdbaa2affe741e569aa319573d96bf7923",
}


def record(result, trace, memories):
    return {
        "result": result,
        "memories": {name: mem.data for name, mem in memories.items()},
        "cycles": trace.cycles,
        "blocks": trace.blocks,
        "block_cycles": [[list(key), cycles]
                         for key, cycles in trace.block_cycles.items()],
        "block_visits": [[list(key), visits]
                         for key, visits in trace.block_visits.items()],
        "calls": list(trace.calls.items()),
        "mem_reads": trace.mem_reads,
        "mem_writes": trace.mem_writes,
    }


def digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_kernel(kernel, opt, engine):
    project = synthesize(SOURCES[kernel], kernel, clock_ns=CLOCK_NS,
                         opt_level=opt)
    args, mems = stimuli(kernel)
    return record(*simulator(engine, project).run(kernel, args, mems))


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("kernel,opt", sorted(DIGESTS))
def test_run_matches_golden(kernel, opt, engine):
    assert digest(run_kernel(kernel, opt, engine)) == DIGESTS[kernel, opt]


def test_calls_program_exercises_calls():
    payload = run_kernel("calls", 2, "interp")
    assert dict(payload["calls"]) == {"bucket": 3, "spread": 1}
    assert {func for (func, _), _ in payload["block_cycles"]} == {
        "calls", "bucket", "spread"}
