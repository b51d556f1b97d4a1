"""Every fabric stage key of one cold run plus one ECO edit, pinned.

Stage keys address artifacts that outlive a process (``--cache`` disk
directories, the job service's cache), so a refactor of the stage
plumbing must leave every key byte-identical: a cache directory filled
by the previous code is then served warm.  The digests below were taken
from the code before the cold and ECO stages shared one stage helper,
and re-pinned when ``PLACE_KERNEL_VERSION`` went from 3 to 4: the place
key folds in that version, and every other stage chains below it.

When a key change is intended (a kernel version bump, a new option),
update the digest of that stage and of every stage chained below it.
"""

from repro.cache import FlowCache
from repro.fabric import (
    NG_ULTRA,
    EcoFlow,
    NXmapProject,
    random_delta,
    scaled_device,
    synthesize_component,
)

#: (stage, key) in the order the stages store their results.
PINNED = [
    ("place",
     "8e2b7fc67486f304ac1aa4f2b8da343d2d2bcfb544e8f4068f1c01b4b7ddffb1"),
    ("route",
     "8576bc048c567cb3ea9045a37fb4c7c64f6a2656df2ba18e5baf9bceb7a4b264"),
    ("sta",
     "006dd46b18539e2048dc5b3dec50018f419bc291562756a005d566b812972f05"),
    ("bitstream",
     "27de688ba2634f5808a51b56f0950b2b057b206401caf765372c1682616c0a53"),
    ("sta-state",
     "45de2e3bcc2337cbd09844a018659e300e1d1dca94cdef4ce4f3dbfc1a02c2d5"),
    ("eco-place",
     "a82c041760097b7b22ed4a292201609b4e7bc6fe9ef64a130f5fd0c683ec37ab"),
    ("eco-route",
     "79905af6d98373bbb7bc6cc2e15565d0f9a3bb807daf07ffd43421b53fdeeeb9"),
    ("eco-sta",
     "c27ee33e69f32b8b813a58ad55809604d914984d7a494f181e96674171c6a6c9"),
    ("eco-bitstream",
     "6bec593ed21ab130595d6340d7d043b4d965e4449056bde5d4dcf6aafd5b74fc"),
]


class RecordingCache(FlowCache):
    """A memory cache that records the key of every fabric store."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def put(self, layer, key, value, encoder=None):
        if layer == "fabric":
            self.stored.append(key)
        super().put(layer, key, value, encoder)


def test_every_stage_key_matches_its_pin():
    cache = RecordingCache()
    device = scaled_device(NG_ULTRA, "NG-ULTRA-TEST", luts=4096)
    project = NXmapProject(synthesize_component("addsub", 16, 2), device,
                           seed=1, cache=cache)
    project.run_all(target_clock_ns=10.0, effort=1.0, channel_width=8)
    delta = random_delta(project.netlist, 0.1, seed=3)
    EcoFlow(project, delta).run(target_clock_ns=10.0, effort=1.0,
                                channel_width=8)
    assert list(zip((stage for stage, _ in PINNED), cache.stored)) \
        == PINNED
    assert len(cache.stored) == len(PINNED)

