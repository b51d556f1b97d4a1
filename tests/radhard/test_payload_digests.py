"""Pinned campaign evidence for the TMR, raw-SRAM and two-upset ECC
scenarios.

``golden_mega_report.json`` pins the single-upset ECC payload only.
These sha256 digests of ``deterministic_json()`` pin the rest of the
§I mitigation matrix, so a change to how a scenario sets up, injects or
evaluates a run cannot shift a single outcome or description unnoticed.
Each digest is checked on the serial ``Campaign.run`` and on a sharded
``MegaCampaign`` at ``jobs=2``, which must produce the same bytes.
"""

import hashlib
import json

import pytest

from repro.radhard import MegaCampaign
from repro.radhard.scenarios import build_scenario

RUNS = 400

#: (scenario, params, seed) -> sha256 of the canonical payload bytes.
DIGESTS = {
    ("tmr", (("words", 64),), 13):
        "ded8d7571ac0d6a56bfd2c243420b4d195264bfcfe526dd04e4ec3e5bde318fb",
    ("tmr", (("words", 64),), 2024):
        "d6d10b628892cffde89171f5e689f177b8be7a9dd3e5663df2330a2657c62367",
    ("raw-sram", (("words", 64),), 13):
        "0698c38e9c0f2501c6d278bf9b8ffa55556f249ba9b7debef3772d2dd96db4a3",
    ("raw-sram", (("words", 64),), 2024):
        "e1ac4623d84ce49f2f790c690531788c2481beae76696a84ce3a164aab074525",
    ("ecc", (("words", 64), ("upsets", 2)), 13):
        "5fbd3b352519879cf45bbf6b073d042a864a8cb81d167209bea8246a7004c0a9",
    ("ecc", (("words", 64), ("upsets", 2)), 2024):
        "40ab4e6acb600b93ff7542a57bf715e26eede02a79b02375494fb493daafdb12",
}


def payload_digest(report) -> str:
    payload = json.dumps(report.deterministic_json(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(DIGESTS),
                         ids=lambda case: f"{case[0]}-{case[2]}")
class TestPayloadDigests:
    def test_serial_payload_matches_digest(self, case):
        name, params, seed = case
        report = build_scenario(name, **dict(params)).run(RUNS, seed=seed)
        assert payload_digest(report) == DIGESTS[case]

    def test_sharded_payload_matches_digest(self, case):
        name, params, seed = case
        mega = MegaCampaign(build_scenario(name, **dict(params))).run(
            RUNS, seed=seed, jobs=2, backend="thread", shard_size=50)
        assert payload_digest(mega.report) == DIGESTS[case]
