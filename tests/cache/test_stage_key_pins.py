"""Every fabric stage key of one cold run plus one ECO edit, pinned.

Stage keys address artifacts that outlive a process (``--cache`` disk
directories, the job service's cache), so a refactor of the stage
plumbing must leave every key byte-identical: a cache directory filled
by the previous code is then served warm.  The digests below were taken
from the code before the cold and ECO stages shared one stage helper.

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
     "042730872ea0435b38cb984dd5b48c32a4511fd57d0e43427bae24ff92c015f1"),
    ("route",
     "c1c5c673e8e110069514e948b3c6b7850f3a53341251c1602fa89e3b8a5e3ebb"),
    ("sta",
     "331d115068d7b2372d03d00ea1f1b066da1c6fd113a07768cba06e404ae95b3e"),
    ("bitstream",
     "119a88dc99b1f6fcf2e814a2d141b69bc671a92d93757e7abba3c7115d976bf8"),
    ("sta-state",
     "c2e36875071ef3b91517e6097d3b014918005084d3e775cf0cb7bdaa8551488c"),
    ("eco-place",
     "a12df02cc986bfa405e85242a6503fed04f0611604d5a7f7006d7236751d7e98"),
    ("eco-route",
     "fa8339a6ce1f96b00e364322a7edf472d40e77a4fd01b9736ce8edd7bbde5c66"),
    ("eco-sta",
     "27871dfdebede15e079ce1e67efc66d214a847cbb722f3524579028fb8b2ff0e"),
    ("eco-bitstream",
     "5aa4515727a61bd345cd2ccc051fceb5a7d4a6562da0a57bc65e9f3176a48363"),
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

