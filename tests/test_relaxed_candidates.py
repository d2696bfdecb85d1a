"""Layout and memory guards for the relaxed engine's route tables.

The relaxed engine reads the canonical :class:`CsrTable` arrays: its
routability test is one byte per key from ``flags``, and its candidates
come from a single int32 matrix (:func:`build_relaxed_candidates`) whose
CSR rows :func:`build_padded_candidates` fills in place.  These tests
pin that layout and make sure no run ever falls back to the per-key
Python candidate lists (:class:`CandidateRows`) that the exact engine
reads.
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
from repro.routing.table import CandidateRows, CsrTable
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.fastpath import build_candidate_table
from repro.simulation.traffic import UniformTraffic


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
    if network == "faulted":
        sim = _relaxed_sim(rfc_small, rfc_small.links()[:20])
    else:
        sim = _relaxed_sim(rfc_small)
    table = build_candidate_table(sim)
    n_keys = len(table.flags)
    pad = len(sim.ch_kind)
    num_terminals = sim.topo.num_terminals

    cand_ext, width = build_relaxed_candidates(sim)
    assert cand_ext.dtype == np.int32
    assert cand_ext.shape == (n_keys + 1 + num_terminals, width)
    for key in range(n_keys):
        lo, hi = table.offsets[key], table.offsets[key + 1]
        expected = np.full(width, pad, dtype=np.int32)
        expected[: hi - lo] = table.values[lo:hi]
        assert np.array_equal(cand_ext[key], expected), key
    assert (cand_ext[n_keys] == pad).all()
    for dst in range(num_terminals):
        row = cand_ext[n_keys + 1 + dst]
        assert row[0] == sim.eject_channel[dst]
        assert (row[1:] == pad).all()

    cand_pad, maxdeg = build_padded_candidates(sim)
    assert cand_pad.dtype == np.int32
    assert cand_pad.shape == (n_keys, maxdeg)
    assert width == max(maxdeg, 1)
    # The ``out=`` form overwrites every cell, stale contents included.
    out = np.full((n_keys, width), -7, dtype=np.int32)
    filled, filled_deg = build_padded_candidates(sim, out=out)
    assert filled is out and filled_deg == maxdeg
    assert np.array_equal(out[:, :maxdeg], cand_pad)
    assert np.array_equal(out, cand_ext[:n_keys])


def test_relaxed_candidates_cached_on_simulator(rfc_small):
    sim = _relaxed_sim(rfc_small)
    assert build_relaxed_candidates(sim) is build_relaxed_candidates(sim)


@pytest.fixture
def no_list_mirror(monkeypatch):
    def refuse(self, table):
        raise AssertionError("relaxed engine built per-key candidate lists")

    monkeypatch.setattr(CandidateRows, "__init__", refuse)


def eager_list_mirror(table: CsrTable) -> list:
    """Every key's candidate list, built up front: what the exact
    engine held before it built rows on first read."""
    offsets = table.offsets.tolist()
    values = table.values.tolist()
    return [
        None
        if flag == CsrTable.UNROUTABLE
        else values[offsets[key] : offsets[key + 1]]
        for key, flag in enumerate(table.flags.tolist())
    ]


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
    """The whole relaxed run of RFC(16, 256, 3) -- candidate matrix,
    key tables, traffic and state -- peaks below what the list mirror
    alone would retain.  Both sizes are traced here, so the bound
    follows the interpreter rather than a hard-coded byte count."""
    topo, _attempts = rfc_with_updown(16, 256, 3, rng=1)
    # A short horizon: set-up structures dominate the peak, and every
    # allocation is slow while tracing.
    sim = _relaxed_sim(topo, cycles=15)
    table = build_candidate_table(sim)

    tracemalloc.start()
    try:
        lists = eager_list_mirror(table)
        mirror_bytes, _peak = tracemalloc.get_traced_memory()
        del lists
        tracemalloc.reset_peak()
        tracemalloc.clear_traces()
        sim.run()
        _current, run_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run_peak < mirror_bytes, (run_peak, mirror_bytes)
