"""Oracle test: the ECO flow's edit-only validation against the full lint.

``NXmapProject.for_edit`` checks an edited copy from its edit alone
(``edit_error_messages``).  The full ``Netlist.validate`` stays the
oracle: over generated edits — reconnects that may close combinational
loops, added cells on fresh undriven nets, removed drivers of sinks and
of primary outputs — the edited project is rejected exactly when the
full check finds an error, with the same messages, cycle paths
included, in the same order.
"""

import random

import pytest

from repro.analysis.passes.netlist import edit_error_messages
from repro.fabric import (
    NG_ULTRA,
    AddCell,
    EcoFlow,
    NetlistDelta,
    NXmapProject,
    ReconnectInput,
    RemoveCell,
    RetargetOutput,
    scaled_device,
    synthesize_component,
    synthesize_random,
)
from repro.fabric.netlist import LUT4, NetlistError
from repro.fabric.nxmap import FlowError


def device():
    return scaled_device(NG_ULTRA, "NG-ULTRA-T", luts=4096)


def designs():
    return [synthesize_random(200, seed=11),
            synthesize_component("addsub", 8, 2)]


def loop_closer(netlist):
    """Reconnect a combinational cell's input to the output of one of
    its combinational sinks: a two-cell loop."""
    for name, cell in sorted(netlist.cells.items()):
        if cell.is_sequential or cell.output is None or not cell.inputs:
            continue
        for sink in netlist.nets[cell.output].sinks:
            other = netlist.cells[sink]
            if not other.is_sequential and other.output is not None:
                return NetlistDelta(ops=(ReconnectInput(
                    cell=name, index=0, net=other.output),))
    raise AssertionError("no combinational pair")


def random_edit(netlist, rng):
    cells = sorted(netlist.cells)
    nets = sorted(netlist.nets)
    ops = []
    for index in range(rng.randrange(1, 5)):
        roll = rng.random()
        cell = netlist.cells[cells[rng.randrange(len(cells))]]
        if roll < 0.4 and cell.inputs:
            ops.append(ReconnectInput(
                cell=cell.name, index=rng.randrange(len(cell.inputs)),
                net=nets[rng.randrange(len(nets))]))
        elif roll < 0.6:
            inputs = tuple(nets[rng.randrange(len(nets))]
                           if rng.random() < 0.8 else f"undriven{index}"
                           for _ in range(2))
            ops.append(AddCell(name=f"add{index}", kind=LUT4,
                               inputs=inputs, output=f"out{index}",
                               primary_output=rng.random() < 0.5))
        elif roll < 0.8:
            ops.append(RemoveCell(name=cell.name))
        else:
            ops.append(RetargetOutput(cell=cell.name, net=f"moved{index}"))
    return NetlistDelta(ops=tuple(ops))


def cases():
    for design_index, netlist in enumerate(designs()):
        yield netlist, loop_closer(netlist)
        rng = random.Random(design_index)
        for _ in range(40):
            yield netlist, random_edit(netlist, rng)


def test_edit_validation_matches_the_full_lint():
    applied = rejected = 0
    rules = set()
    for netlist, delta in cases():
        try:
            edited, _impact = delta.apply(netlist)
        except NetlistError:
            continue
        full = edited.validate()
        assert edit_error_messages(edited) == full, delta
        applied += 1
        rejected += bool(full)
        rules.update(message.split(" ")[0] for message in full)
    # The generator reaches every rule, and clean edits too.
    assert rules == {"combinational", "net", "primary"}
    assert 0 < rejected < applied


def test_flow_rejects_exactly_what_the_full_check_rejects():
    netlist = designs()[0]
    base = NXmapProject(netlist, device(), seed=1)
    rng = random.Random(7)
    for delta in [loop_closer(netlist)] + [random_edit(netlist, rng)
                                           for _ in range(20)]:
        try:
            edited, _impact = delta.apply(netlist)
        except NetlistError:
            continue
        try:
            NXmapProject(edited, base.device, seed=1)
            expected = None
        except FlowError as error:
            expected = str(error)
        try:
            NXmapProject.for_edit(base, edited)
            found = None
        except FlowError as error:
            found = str(error)
        assert found == expected, delta


def test_edit_that_drives_a_net_twice_is_rejected():
    netlist = designs()[0]
    driven = next(name for name, net in sorted(netlist.nets.items())
                  if net.driver is not None)
    delta = NetlistDelta(ops=(AddCell(name="twice", kind=LUT4,
                                      inputs=(driven,), output=driven),))
    with pytest.raises(NetlistError, match="driven twice"):
        EcoFlow(NXmapProject(netlist, device(), seed=1), delta).run()


def test_undriven_input_is_rejected_by_the_flow():
    netlist = designs()[0]
    delta = NetlistDelta(ops=(AddCell(name="orphan", kind=LUT4,
                                      inputs=("nowhere",), output="o",
                                      primary_output=True),))
    with pytest.raises(FlowError, match="'nowhere' has sinks but no "
                                        "driver"):
        EcoFlow(NXmapProject(netlist, device(), seed=1), delta).run()
