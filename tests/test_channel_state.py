"""The simulator's channel state: layout, footprint and bad inputs.

* **Layout** -- channel ids, endpoints, the ``(src, dst) -> channel``
  map, per-switch input units and the terminal channels of a
  link-faulted RFC equal ``tests/data/golden_channel_layout.json``, recorded from the
  one-channel-at-a-time builder that preceded the bulk one.  Every
  engine's RNG stream walks these ids, so any drift here moves results.
* **Footprint** -- every FIFO is its own plain list, built on first
  read, and building a 2048-terminal simulator costs a fraction of
  what eager per-VC lists did.
* **Bad inputs** -- a removed link that is not a cable of the topology
  raises instead of being silently ignored.
"""

import json
import re
import tracemalloc
from pathlib import Path

import pytest

from repro.core.rfc import rfc_with_updown
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.traffic import UniformTraffic
from repro.topologies.base import Link
from repro.topologies.packed import packed_radix_regular_rfc

GOLDEN = Path(__file__).parent / "data" / "golden_channel_layout.json"


def _sim(topo, removed=None, params=None):
    return Simulator(
        topo, UniformTraffic(topo.num_terminals), 0.5,
        params or SimulationParams(), removed,
    )


def _golden_sims():
    params = SimulationParams(virtual_channels=2)
    topo, _ = rfc_with_updown(4, 8, 3, rng=3)
    return {"faulted_rfc": _sim(topo, topo.links()[1::5], params)}


@pytest.mark.parametrize("network", ["faulted_rfc"])
def test_channel_layout_matches_golden(network):
    expected = json.loads(GOLDEN.read_text())[network]
    sim = _golden_sims()[network]
    assert sim.ch_kind == expected["ch_kind"]
    assert sim.ch_src == expected["ch_src"]
    assert sim.ch_dst == expected["ch_dst"]
    assert sim.ch_peer == expected["ch_peer"]
    # Insertion order included: the map is built in channel order.
    assert [
        [a, b, c] for (a, b), c in sim.link_channel.items()
    ] == expected["link_channel"]
    assert [
        [list(unit) for unit in row] for row in sim.in_units
    ] == expected["in_units"]
    assert sim.inject_channel == expected["inject_channel"]
    assert sim.eject_channel == expected["eject_channel"]


def test_every_fifo_is_its_own_empty_list():
    topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    sim = _sim(topo)
    fifos = [q for queues in sim.ch_queues if queues is not None for q in queues]
    assert all(type(q) is list and not q for q in fifos)
    assert len({id(q) for q in fifos}) == len(fifos)
    slots = [s for s in sim.ch_slots if s is not None]
    assert len({id(s) for s in slots}) == len(slots)
    assert all(s == [sim.params.buffer_packets] * 4 for s in slots)
    # Inject channels hold one FIFO each, eject channels none.
    assert all(len(sim.ch_queues[c]) == 1 for c in sim.inject_channel)
    assert all(sim.ch_queues[c] is None for c in sim.eject_channel)


def test_construction_memory_below_a_third_of_eager_fifos():
    """``Simulator(...)`` on RFC(16, 256, 3) (2048 terminals, 4 VCs).

    With one ``collections.deque`` per (link channel, VC) and one
    channel appended at a time, construction peaked at 33,357,388
    traced bytes (Python 3.11); plain-list FIFOs built eagerly in bulk
    peaked at 9,610,629.  Building only the channel arrays, with the
    per-VC state left for its first read, peaks at 2,287,569; the cap
    is 1.25 times that, under a third of the eager lists.
    """
    topo, _ = rfc_with_updown(16, 256, 3, rng=1)
    traffic = UniformTraffic(topo.num_terminals)
    tracemalloc.start()
    try:
        sim = Simulator(topo, traffic, 0.7, SimulationParams())
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sim.ch_kind) == 2 * len(topo.links()) + 2 * topo.num_terminals
    assert not {"ch_queues", "ch_slots", "in_units", "link_channel"} & set(
        vars(sim)
    )
    assert peak < 2_860_000, peak


def _foreign_links(topo):
    """A link between two switches that are not connected, and one to
    a switch id past the end."""
    present = set(topo.links())
    n = topo.num_switches
    unconnected = next(
        Link(a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if Link(a, b) not in present
    )
    return [unconnected, Link(0, 10**6)]


@pytest.mark.parametrize("network", ["folded", "packed"])
def test_foreign_removed_link_raises(network):
    if network == "folded":
        topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    else:
        topo = packed_radix_regular_rfc(8, 16, 3, rng=7)
    valid = topo.links()[:2]
    for foreign in _foreign_links(topo):
        message = re.escape(f"holds {foreign!r}, not a link")
        with pytest.raises(ValueError, match=message):
            _sim(topo, [*valid, foreign])
    # The first foreign entry, in the caller's order, is the one named.
    first, second = _foreign_links(topo)
    with pytest.raises(ValueError, match=re.escape(f"holds {second!r}")):
        _sim(topo, [second, valid[0], first])


@pytest.mark.parametrize("network", ["folded", "packed"])
def test_valid_removed_links_prune_both_directions(network):
    if network == "folded":
        topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    else:
        topo = packed_radix_regular_rfc(8, 16, 3, rng=7)
    removed = topo.links()[::4]
    # Duplicates and reversed construction name the same cable.
    sim = _sim(topo, [*removed, Link(removed[0].hi, removed[0].lo)])
    for link in removed:
        assert (link.lo, link.hi) not in sim.link_channel
        assert (link.hi, link.lo) not in sim.link_channel
    survivors = len(topo.links()) - len(removed)
    assert len(sim.link_channel) == 2 * survivors
    assert sim.run().delivered_packets > 0
