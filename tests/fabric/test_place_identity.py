"""Placement identity golden: the placer's output, pinned by digest.

Each digest is the sha256 of ``PlacementResult.to_json()`` (canonical
JSON) without ``stats.rescans``.  The cold digests were taken with the
version-4 kernel (``PLACE_KERNEL_VERSION``), which anneals from the
legalized analytic start; its QoR against the version-3 random start is
argued in EXPERIMENTS.md with HPWL, W_min and Fmax, not by digest.

The designs are three ``compile_cold`` kernels (HLS at 8 ns, opt level
2) on the benchmark's evaluation device, at two P&R seeds each, plus
one ECO warm-start placement.  The ECO kernel did not change, so its
digest is still the one taken with the version-2 ECO kernel: it warm
starts from the version-3 cold placement of median3 at seed 1, which is
committed as ``median3_seed1_v3_placement.json`` (its digest is the old
cold pin, checked below).  The version-2 ECO kernel reported the
warm-start HPWL as the final one, so ``hpwl`` is left out of that
digest and checked against a from-scratch recompute instead.

A digest mismatch means the placer's results changed: if that is
intended, bump ``PLACE_KERNEL_VERSION`` (or ``ECO_KERNEL_VERSION``) and
re-pin the digests here, saying why in the change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps import ai, image, sdr
from repro.fabric import (
    NG_ULTRA,
    PlacementResult,
    eco_place,
    place,
    random_delta,
    scaled_device,
    synthesize_design,
)
from repro.fabric.placement import total_hpwl
from repro.hls import synthesize

SOURCES = {
    "median3": image.MEDIAN3_C,
    "fir8": sdr.FIR_C,
    "mlp": ai.mlp_monolithic_source(),
}

PLACE_DIGESTS = {
    ("median3", 1):
        "fcce3e5a07d235852c12163b44e98d2df97610b6f59adece967803ed72ec8f7f",
    ("median3", 2):
        "e2df19e2f13ddbee5961131abcf695d7560e5e78106d9ae12c448572a62e4e5a",
    ("fir8", 1):
        "1721be8a0ccf5a891fc1d11ee9406cd5f2c29f1e98c5325dddc51edcc24173d0",
    ("fir8", 2):
        "e95d5f29acac6c930f3c9a9ae1a8ccf7dd53e70c7e2a1d94db26a67c59249f97",
    ("mlp", 1):
        "070dbb4a03409d3c313b6f4ea31bc150c50fd44aa2d3fe47a45668b65cc4a4bf",
    ("mlp", 2):
        "a162154f2c91aa79e83c16472942de897e6b6b668e8ddcd3e2b1c76a02168ac4",
}

#: The version-3 cold placement of median3 at seed 1 (the ECO base).
V3_BASE = Path(__file__).with_name("median3_seed1_v3_placement.json")
V3_BASE_DIGEST = \
    "271f0376db22516d9f6ecfe358474b47df59e1ca55273b25e8252fbe52252381"

#: The ECO warm start from ``V3_BASE``: a 1% ``random_delta`` (seed 4),
#: warm start at seed 4; it adds one cell and moves five.
ECO_DIGEST = \
    "52a9f7e3e62f31a10e8e3882c40849f93f98c6aeaf0e7aef8c234ce5c96ce205"


def eval_device():
    return scaled_device(NG_ULTRA, "NG-ULTRA-EVAL", luts=8192)


@pytest.fixture(scope="module")
def netlists():
    designs = {}
    for top, source in SOURCES.items():
        hls = synthesize(source, top, clock_ns=8.0, opt_level=2)
        designs[top] = synthesize_design(hls[top], hls.module[top])
    return designs


def digest(result, drop=()):
    payload = result.to_json()
    del payload["stats"]["rescans"]
    for key in drop:
        del payload[key]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("kernel,seed", sorted(PLACE_DIGESTS))
def test_cold_placement_matches_golden(netlists, kernel, seed):
    result = place(netlists[kernel], eval_device(), seed=seed, effort=1.0)
    assert digest(result) == PLACE_DIGESTS[kernel, seed]


def test_eco_placement_matches_golden(netlists):
    netlist = netlists["median3"]
    device = eval_device()
    base = PlacementResult.from_json(json.loads(V3_BASE.read_text()))
    assert digest(base) == V3_BASE_DIGEST
    edited, impact = random_delta(netlist, 0.01, seed=4).apply(netlist)
    result = eco_place(edited, device, base, set(impact.changed_cells),
                       seed=4)
    assert digest(result, drop=("hpwl",)) == ECO_DIGEST
    # The accepted moves lower the HPWL below the warm start's; the
    # reported value is the final one, exactly.
    assert result.hpwl == total_hpwl(edited, result.locations)
    assert result.hpwl < result.initial_hpwl
