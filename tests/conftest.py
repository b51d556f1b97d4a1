"""Deterministic faults for the exit-code tables.

The ``repro`` job commands and the job API build their work from the
same tables and producers, so a fault patched in here reaches both
front doors the same way.
"""

import dataclasses

import pytest


@pytest.fixture
def crashing_sram(monkeypatch):
    """Every raw-SRAM run crashes: its evaluate raises."""
    from repro.radhard.campaign import Campaign
    from repro.radhard.scenarios import SCENARIO_FACTORIES, \
        raw_sram_campaign

    def crashing(words=64):
        base = raw_sram_campaign(words)

        def evaluate(memory):
            raise RuntimeError("injected evaluate fault")

        return Campaign(base.name, base.setup, base.inject, evaluate,
                        scenario_params=base.scenario_params)

    monkeypatch.setitem(SCENARIO_FACTORIES, "raw-sram", crashing)


@pytest.fixture
def failed_eco_routing(monkeypatch):
    """ECO delta routing reports one connection it could not route."""
    import repro.fabric.eco as eco
    route = eco.route

    def failing_route(*args, **kwargs):
        return dataclasses.replace(route(*args, **kwargs),
                                   failed_connections=1)

    monkeypatch.setattr(eco, "route", failing_route)


@pytest.fixture
def broken_characterization(monkeypatch):
    """Every Eucalyptus configuration fails to characterize."""
    from repro.hls.characterization.eucalyptus import Eucalyptus

    def broken(self, component, width, stages):
        raise RuntimeError("injected synthesis fault")

    monkeypatch.setattr(Eucalyptus, "_characterize", broken)
