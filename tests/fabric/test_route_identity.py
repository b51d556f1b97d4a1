"""Route identity golden: the router's output, pinned by digest.

Each digest is the sha256 of ``RoutingResult.to_json()`` (canonical
JSON: routes, edge usage, wirelength, overflow, expansion and rip-up
counts).  The digests were taken with the tuple-keyed router that kept
channel usage in a dict and rebuilt each net tree's bbox per sink; the
integer-tile router had to reproduce its results bit for bit.  They were
re-pinned when ``PLACE_KERNEL_VERSION`` 4 changed the placements they
route; ``routing.py`` did not change with it.

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
        "547b2be2c7afbcfa0e8f1a79e1c133923e027d368409eaa3655bde287d55fee7",
    ("median3", 16):
        "23c767e51cecacd399edda88b1fe5c1aa41bbc8db539942c50846b62d0b86313",
    ("median3", 32):
        "6b264081570a5cb0811c41251c1c3ddca238a6fdc557d0c203a1aad33d579ab2",
    ("fir8", 8):
        "932e7c339f9cd2c02b7dc6c1b0b443a346945520a9124fe2774cb510304333e0",
    ("fir8", 16):
        "8e5218502907c70ad02375b0e9bcc6cd4ce20ccb021ad3fecd6d2e2963181748",
    ("fir8", 32):
        "93b1b51e83e7126bc90564d053fe424b7bec860f439d4b42f94a025ec4dfd8b1",
    ("conv2d", 8):
        "af86f96ececb545fca872d04f5c80cccb10752c708edd31c5f55c157f129e812",
    ("conv2d", 16):
        "fa1c9e20ad66431f6c168fda1a52e4dc8d95552f8ba83b7ca896e6d0be1c79e2",
    ("conv2d", 32):
        "72b2833d07b0209f42825c77b921ca3634f60aa465e60c30a72c93caf6377808",
    ("sobel", 8):
        "608ef4ddb7e12e01842bd6a2fe1424384fc388e664230a787b5735c34533949a",
    ("sobel", 16):
        "4277c17a6284942d91451c3e48d01b22f7e00a07665598b3e1e48f0099782d9a",
    ("sobel", 32):
        "113d1da2273f2748f7b9fabb5a9bf40ccd66c6b0a7f204fa990d5cf19f94059b",
}

#: conv2d ECO base (cold route at channel width 16), then one digest
#: per edit: ``random_delta`` seeds 1-4 at 0.2%, 1%, 0.2%, 1%.
ECO_EDITS = ((0.002, 1), (0.01, 2), (0.002, 3), (0.01, 4))
ECO_DIGESTS = [
    "fa1c9e20ad66431f6c168fda1a52e4dc8d95552f8ba83b7ca896e6d0be1c79e2",
    "eed443dbca6471cbf8743bcb9adb73fbbb981ece2cb4aa7517bd179de80a2cf9",
    "e9a8396d8a94c2470f93e71fb78eb79b1ced4e9e9f61de42147391a056b3a2e3",
    "34e392b9a598c0e907c74f728b1e5ca4c1aa532f19032ed16eccda9765512afd",
    "3f7c537512cec55bee25a783d502e02855aa1bb7c2803d388f9f482f20d8d54e",
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
