"""Route identity golden: the router's output, pinned by digest.

Each digest is the sha256 of ``RoutingResult.to_json()`` (canonical
JSON: routes, edge usage, wirelength, overflow, expansion and rip-up
counts).  The digests were taken with the tuple-keyed router that kept
channel usage in a dict and rebuilt each net tree's bbox per sink; the
integer-tile router must reproduce its results bit for bit.

The designs are four HLS kernels (8 ns, placed at seed 1, effort 0.2)
on the ``compile_cold`` evaluation device, routed cold at channel
widths 8, 16 and 32 (which covers overflowing and legal results), plus
the conv2d ECO base and four ``random_delta`` edits routed by delta
routing through ``EcoFlow.run`` at channel width 16.

A digest mismatch means the router's results changed: if that is
intended, bump ``ROUTE_KERNEL_VERSION`` and re-pin the digests here,
saying why in the change.
"""

import hashlib
import json

import pytest

from repro.apps import image, sdr
from repro.fabric import (
    NG_ULTRA,
    EcoFlow,
    NXmapProject,
    place,
    random_delta,
    route,
    scaled_device,
    synthesize_design,
)
from repro.hls import synthesize

SOURCES = {
    "median3": image.MEDIAN3_C,
    "fir8": sdr.FIR_C,
    "conv2d": image.CONV2D_3X3_C,
    "sobel": image.SOBEL_C,
}

COLD_DIGESTS = {
    ("median3", 8):
        "d8e2451c827fec2b27bb165ce5cab40ccac3e51d9d50967877ed5bf5b20dc1b6",
    ("median3", 16):
        "0c068e84434b68be610c61bb6d4032bfef9928a45a64992d75bf104762b7f645",
    ("median3", 32):
        "310b8726f1a9cf1a329d11550a2fba48281ec308549722d9d3b051faed93f9fd",
    ("fir8", 8):
        "3fc0838897eb7278b84663265c972131b1069ab7840ae88d75eaf55f8b12f313",
    ("fir8", 16):
        "5cca5d1492d4556ca750f060a38779b23b36d2f6c07f43677eff65d32611022b",
    ("fir8", 32):
        "ffd7100f28e85fcfcb29dbbfa2640b179748a206c9e52605629957854c58d49a",
    ("conv2d", 8):
        "3537abfa4ebdb3398299a6b6041c6de5e13b7b399f8954e5a7af9df711af11c8",
    ("conv2d", 16):
        "adf5ae75aab01d902594216583dda8b7af0d148756e94564f988fad28bcd0b82",
    ("conv2d", 32):
        "3e5705965a36bd4bd5d9ca3f5f68f737178260a561774dc125e5e26e289ee9cf",
    ("sobel", 8):
        "4ce409f7c6f82856675613d8a1e2fb4399dde5fc97ec668e4c8a32871b4e2c5c",
    ("sobel", 16):
        "4d1fb44ad844df835ed5b2afcfc8b2e6e4aeb81679a0c380ebb2a2d9403f4a34",
    ("sobel", 32):
        "be59237f46c7db46d8eb941133458f9dac9da921adf6f77e9d3184854d0d980d",
}

#: conv2d ECO base (cold route at channel width 16), then one digest
#: per edit: ``random_delta`` seeds 1-4 at 0.2%, 1%, 0.2%, 1%.
ECO_EDITS = ((0.002, 1), (0.01, 2), (0.002, 3), (0.01, 4))
ECO_DIGESTS = [
    "adf5ae75aab01d902594216583dda8b7af0d148756e94564f988fad28bcd0b82",
    "3a8fb395b7157fb368620f069e8f27c8f5a9eaa87b95601d664adcd12e2c0e5b",
    "222e2ee3307fadeeb6bbb08652a4e40d7bcd7ec1606ab5478e1c4eae59892e02",
    "e6d419eecaf12e0054908d92c6371a3dcee55927db32031d3603dc442879d58d",
    "6418f8ec164c7e3025e09aee61182574f09f2844a6841174bc1c767e4d5bfc8d",
]


def eval_device():
    return scaled_device(NG_ULTRA, "NG-ULTRA-EVAL", luts=8192)


def netlist_of(top):
    hls = synthesize(SOURCES[top], top, clock_ns=8.0)
    return synthesize_design(hls[top], hls.module[top])


@pytest.fixture(scope="module")
def placed():
    device = eval_device()
    designs = {}
    for top in SOURCES:
        netlist = netlist_of(top)
        designs[top] = (netlist,
                        place(netlist, device, seed=1, effort=0.2))
    return designs


def digest(result):
    return hashlib.sha256(json.dumps(
        result.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("kernel,channel_width", sorted(COLD_DIGESTS))
def test_cold_route_matches_golden(placed, kernel, channel_width):
    netlist, placement = placed[kernel]
    result = route(netlist, placement.locations, placement.grid,
                   channel_width=channel_width)
    assert digest(result) == COLD_DIGESTS[kernel, channel_width]


def test_eco_routes_match_golden():
    project = NXmapProject(netlist_of("conv2d"), eval_device(), seed=1)
    project.run_place(effort=0.2)
    project.run_route(channel_width=16)
    digests = [digest(project.routing)]
    for fraction, seed in ECO_EDITS:
        flow = EcoFlow(project, random_delta(project.netlist, fraction,
                                             seed=seed))
        flow.run(target_clock_ns=8.0, effort=0.2, channel_width=16)
        digests.append(digest(flow.routing))
    assert digests == ECO_DIGESTS
