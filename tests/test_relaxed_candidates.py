"""Layout, equivalence and memory guards for the relaxed engine's routes.

The relaxed engine reads the route state both engines share
(:class:`~repro.simulation.routes.RouteState`): its routability test is
one byte per leaf pair, and each head's candidate row is written once,
when the head is exposed, by filtering its switch's padded
candidate-channel matrix (:func:`build_padded_candidates`) with the
neighbors' min-ascents (:meth:`RouteState.candidate_matrix`).  These
tests pin that layout, check every (switch, leaf) row of both engines
against :meth:`Simulator._output_candidates`, and make sure no relaxed
run falls back to the per-key Python candidate lists
(:class:`CandidateRows`) that the exact engine reads.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.accel.relaxed import (
    build_padded_candidates,
    build_relaxed_candidates,
)
from repro.core.rfc import rfc_with_updown
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.fastpath import build_candidate_table
from repro.simulation.routes import CandidateRows
from repro.simulation.traffic import UniformTraffic

from oracle_engine import assert_routes_match_oracle


def _relaxed_sim(topo, removed=None, cycles=60, **overrides):
    params = SimulationParams(
        measure_cycles=cycles,
        warmup_cycles=cycles // 3,
        seed=2,
        rng_mode="relaxed",
        **overrides,
    )
    traffic = UniformTraffic(topo.num_terminals)
    return Simulator(topo, traffic, 0.5, params, removed)


@pytest.mark.parametrize("network", ["folded", "faulted"])
def test_relaxed_candidate_layout(network, rfc_small):
    """Row ``s`` of the padded up (down) matrix is the channels to the
    router's up- (down-) neighbors of switch ``s``, in its order,
    padded with the dummy channel."""
    removed = rfc_small.links()[:20] if network == "faulted" else None
    sim = _relaxed_sim(rfc_small, removed)
    routes = build_relaxed_candidates(sim)
    assert routes is build_candidate_table(sim)
    up, down = build_padded_candidates(sim)
    assert up is routes.up_channels and down is routes.down_channels
    dummy = len(sim.ch_kind)
    assert routes.dummy == dummy
    router = sim.router
    for matrix, step in ((up, 1), (down, -1)):
        assert matrix.dtype == np.int32
        assert len(matrix) == rfc_small.num_switches
        for switch in range(rfc_small.num_switches):
            level = sim.level_of[switch]
            index = sim.index_of[switch]
            nbrs = ()
            if step > 0 and level + 1 < len(router.level_sizes):
                nbrs = router._up[level][index]
            elif step < 0 and level:
                nbrs = router._down[level - 1][index]
            expected = np.full(matrix.shape[1], dummy, dtype=np.int32)
            if nbrs:
                first = sim.level_offsets[level + step]
                expected[: len(nbrs)] = [
                    sim.link_channel[(switch, first + t)] for t in nbrs
                ]
            assert np.array_equal(matrix[switch], expected), (switch, step)


def test_relaxed_candidates_cached_on_simulator(rfc_small):
    sim = _relaxed_sim(rfc_small)
    assert build_relaxed_candidates(sim) is build_relaxed_candidates(sim)


@pytest.mark.parametrize(
    "network", ["healthy", "faulted", "valiant", "nonminimal"]
)
def test_route_rows_match_oracle(network, rfc_small):
    """Every (switch, leaf) key: the exact engine's row and the relaxed
    engine's per-head row list the oracle's candidates in order, and
    both mark the same keys unroutable.  The faulted instance cuts 130
    leaf pairs."""
    removed = rfc_small.links()[:20] if network == "faulted" else None
    sim = _relaxed_sim(
        rfc_small,
        removed,
        valiant=network == "valiant",
        minimal_routing=network != "nonminimal",
    )
    if network == "faulted":
        assert int((~build_candidate_table(sim).routable).sum()) == 130
    assert_routes_match_oracle(sim)
    if network == "valiant":
        assert_routes_match_oracle(sim, via=True)


@pytest.fixture
def no_list_mirror(monkeypatch):
    def refuse(self, routes):
        raise AssertionError("relaxed engine built per-key candidate lists")

    monkeypatch.setattr(CandidateRows, "__init__", refuse)


def eager_list_mirror(routes) -> list:
    """Every key's candidate list, built up front: what the exact
    engine would hold if it listed every row instead of the rows it
    reads."""
    rows = CandidateRows(routes)
    return [rows[key] for key in range(routes.ascent[:, :-1].size)]


@pytest.mark.parametrize("network", ["folded", "valiant", "faulted"])
def test_relaxed_run_never_builds_list_mirror(
    network, rfc_small, no_list_mirror
):
    if network == "valiant":
        sim = _relaxed_sim(rfc_small, valiant=True)
    elif network == "faulted":
        sim = _relaxed_sim(rfc_small, rfc_small.links()[:40])
    else:
        sim = _relaxed_sim(rfc_small)
    result = sim.run()
    assert result.delivered_packets > 0


def test_relaxed_run_peak_memory_below_list_mirror():
    """The whole relaxed run of RFC(16, 256, 3) -- route state, per-head
    rows, traffic and state -- peaks below what the list mirror alone
    would retain.  Both sizes are traced here, so the bound follows
    the interpreter rather than a hard-coded byte count."""
    topo, _attempts = rfc_with_updown(16, 256, 3, rng=1)
    # A short horizon: set-up structures dominate the peak, and every
    # allocation is slow while tracing.
    sim = _relaxed_sim(topo, cycles=15)
    routes = build_candidate_table(sim)

    tracemalloc.start()
    try:
        lists = eager_list_mirror(routes)
        mirror_bytes, _peak = tracemalloc.get_traced_memory()
        del lists
        tracemalloc.reset_peak()
        tracemalloc.clear_traces()
        sim.run()
        _current, run_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run_peak < mirror_bytes, (run_peak, mirror_bytes)
