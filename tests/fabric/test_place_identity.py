"""Placement identity golden: the annealer's output, pinned by digest.

Each digest is the sha256 of ``PlacementResult.to_json()`` (canonical
JSON) without ``stats.rescans``, whose meaning changed with
``PLACE_KERNEL_VERSION`` 3 (it counts fallbacks over tracked nets only).
The digests were taken with the version-2 kernel, which tracked every
net and snapshotted bbox state per move; the current kernel must
reproduce its locations, HPWL, move and accept counts bit for bit.

The designs are three ``compile_cold`` kernels (HLS at 8 ns, opt level
2) on the benchmark's evaluation device, at two P&R seeds each, plus
one ECO warm-start placement.  The version-2 ECO kernel reported the
warm-start HPWL as the final one, so ``hpwl`` is left out of that
digest and checked against a from-scratch recompute instead.

A digest mismatch means the annealer's results changed: if that is
intended, bump ``PLACE_KERNEL_VERSION`` (or ``ECO_KERNEL_VERSION``) and
re-pin the digests here, saying why in the change.
"""

import hashlib
import json

import pytest

from repro.apps import ai, image, sdr
from repro.fabric import (
    NG_ULTRA,
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
        "271f0376db22516d9f6ecfe358474b47df59e1ca55273b25e8252fbe52252381",
    ("median3", 2):
        "64808d5b928b9fa3f1f0a00239587bc461d1b1a99301f73263e242c31da2fae2",
    ("fir8", 1):
        "b8c8d178abe14191a2e1519dde12c2d0eaff1c4b91dbe8cdf135b16bd334359c",
    ("fir8", 2):
        "be1ae64fb00a3a68b2774430ec44d0a8eab93144c62d658a3659022bfde1ae3a",
    ("mlp", 1):
        "f2fddb685d2afdc3eb845c844a8cafd8e87f9028ab52b3a9c78708692bae2180",
    ("mlp", 2):
        "597b14e3772fb28f6f35364e287a05d45ca9f1c2e02e6bbd9f5903adbd97d80c",
}

#: median3 placed at seed 1, a 1% ``random_delta`` (seed 4), warm start
#: at seed 4: it adds one cell and moves five.
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
    base = place(netlist, device, seed=1, effort=1.0)
    edited, impact = random_delta(netlist, 0.01, seed=4).apply(netlist)
    result = eco_place(edited, device, base, set(impact.changed_cells),
                       seed=4)
    assert digest(result, drop=("hpwl",)) == ECO_DIGEST
    # The accepted moves lower the HPWL below the warm start's; the
    # reported value is the final one, exactly.
    assert result.hpwl == total_hpwl(edited, result.locations)
    assert result.hpwl < result.initial_hpwl
