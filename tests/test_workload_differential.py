"""Three-way engine differential on the flow-workload layer.

The exact engines (reference, fast) must produce
**bit-for-bit identical** ``flow_complete`` trace streams for any
workload -- flow mode consumes no arrival/destination randomness, so
the only RNG draws (valiant vias, arbitration) happen in the same
order on every engine.  The relaxed engine is held to *statistical*
equivalence only, through the :mod:`statcheck` toolkit.

A golden trace snapshot (``tests/data/golden_flow_trace.json``) pins
one scenario's exact byte-level record stream across releases, and a
non-perturbation check proves attaching the tracker never changes the
simulation itself.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_engine import engine_context
from statcheck import bootstrap_ci, intervals_overlap, ks_2sample

from repro.obs.trace import TraceWriter
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.topologies.base import FoldedClos
from repro.workloads import (
    Flow,
    FlowSchedule,
    FlowTraffic,
    FlowTracker,
    make_workload,
    run_workload,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_flow_trace.json"

EXACT_ENGINES = ("reference", "fast")


def dumbbell(hosts_per_leaf=4):
    return FoldedClos(
        level_sizes=[2, 1],
        up_adjacency=[[[0], [0]]],
        hosts_per_leaf=hosts_per_leaf,
        radix=2 + hosts_per_leaf,
        name="dumbbell",
    )


def exact_params(cycles=1_000, seed=1, **overrides):
    return SimulationParams(
        measure_cycles=cycles, warmup_cycles=0, seed=seed, **overrides
    )


def traced_run(topo, workload, params, engine="fast"):
    writer = TraceWriter(None)
    with engine_context(engine):
        result = run_workload(topo, workload, params, trace_writer=writer)
    return result, writer.records()


class TestExactEngineParity:
    """reference == fast, record for record."""

    @pytest.mark.parametrize("pattern", ["incast", "poisson-mix", "rpc"])
    def test_flow_complete_streams_bit_for_bit(self, rfc_small, pattern):
        n = rfc_small.num_terminals
        workload = make_workload(
            pattern, n, seed=17, load=0.4, duration=600,
            fanin=8, rpc_size=4, events=3,
        )
        streams = {}
        stats = {}
        for engine in EXACT_ENGINES:
            result, records = traced_run(
                rfc_small, workload, exact_params(cycles=1_500), engine
            )
            streams[engine] = records
            stats[engine] = result.flow_stats
        assert streams["fast"] == streams["reference"]
        assert streams["reference"], "scenario produced no completions"
        assert stats["fast"] == stats["reference"]

    def test_valiant_stream_parity(self, rfc_small):
        """Valiant draws come from the shared RNG in serial order, so
        parity must survive misrouting too."""
        n = rfc_small.num_terminals
        workload = make_workload(
            "rpc", n, seed=5, load=0.3, duration=400, rpc_size=2
        )
        streams = []
        for engine in EXACT_ENGINES:
            _, records = traced_run(
                rfc_small,
                workload,
                exact_params(cycles=1_200, valiant=True),
                engine,
            )
            streams.append(records)
        assert streams[0] == streams[1]
        assert streams[0]


class TestGoldenTrace:
    """Byte-level pin of one scenario's flow_complete stream.

    Regenerate (only on an intentional semantic change) with the
    snippet in ``docs/WORKLOADS.md``.
    """

    SCENARIO = dict(seed=3, fanin=4, rpc_size=2, events=2, duration=200)

    def _stream(self, engine):
        topo = dumbbell(4)
        workload = make_workload(
            "incast", topo.num_terminals, **self.SCENARIO
        )
        _, records = traced_run(topo, workload, exact_params(), engine)
        return records

    @pytest.mark.parametrize("engine", EXACT_ENGINES)
    def test_matches_snapshot(self, engine):
        golden = json.loads(GOLDEN.read_text())
        assert self._stream(engine) == golden

    def test_snapshot_is_sane(self):
        golden = json.loads(GOLDEN.read_text())
        assert len(golden) == 8
        for record in golden:
            assert record["ev"] == "flow_complete"
            assert record["fct"] == record["end"] - record["start"]


class TestNonPerturbation:
    """The tracker observes; it must never steer.

    A run with the FlowTracker attached must yield the same core
    SimResult as a bare run of the same schedule -- on every exact
    engine (side channels are excluded from SimResult equality by
    design, so ``==`` is exactly the right comparison)."""

    @pytest.mark.parametrize("engine", EXACT_ENGINES)
    def test_tracker_does_not_change_results(self, engine):
        topo = dumbbell(4)
        workload = make_workload(
            "poisson-mix", topo.num_terminals, seed=11, load=0.5,
            duration=500,
        )
        params = exact_params()
        with engine_context(engine):
            tracked = run_workload(topo, workload, params)
            load = tracked.offered_load
            bare = Simulator(topo, workload, load, params).run()
        assert tracked == bare
        assert tracked.core_dict() == bare.core_dict()
        assert tracked.flow_stats is not None
        assert bare.flow_stats is None


class TestRelaxedEquivalence:
    """The relaxed engine: same physics, different randomness."""

    def _fct_samples(self, rng_mode, seeds):
        topo = dumbbell(8)
        means, pooled = [], []
        for seed in seeds:
            workload = make_workload(
                "poisson-mix", topo.num_terminals, seed=seed + 101,
                load=0.5, duration=800,
            )
            params = SimulationParams(
                measure_cycles=2_000, warmup_cycles=0, seed=seed,
                rng_mode=rng_mode,
            )
            schedule = workload.flow_schedule
            tracker = FlowTracker(schedule)
            Simulator(topo, workload, 0.5, params, observer=tracker).run()
            fcts = [fct for fct, _ in tracker.fct_records()]
            assert fcts, f"seed {seed}: no completions"
            means.append(sum(fcts) / len(fcts))
            pooled.extend(fcts)
        return means, pooled

    def test_relaxed_fct_smoke_band(self):
        """Deterministic single-seed sanity: the relaxed FCT mean sits
        within a generous band of the exact engines' (tier-1 safe)."""
        exact_means, _ = self._fct_samples("exact", [2])
        relaxed_means, _ = self._fct_samples("relaxed", [2])
        assert relaxed_means[0] == pytest.approx(
            exact_means[0], rel=0.25
        )

    @pytest.mark.slow
    @pytest.mark.statistical
    def test_relaxed_fct_statistically_equivalent(self):
        seeds = range(8)
        exact_means, exact_pool = self._fct_samples("exact", seeds)
        relaxed_means, relaxed_pool = self._fct_samples("relaxed", seeds)
        ci_exact = bootstrap_ci(exact_means, seed=0)
        ci_relaxed = bootstrap_ci(relaxed_means, seed=1)
        assert intervals_overlap(ci_exact, ci_relaxed), (
            ci_exact,
            ci_relaxed,
        )
        _, pvalue = ks_2sample(exact_pool, relaxed_pool)
        assert pvalue > 0.01, pvalue


# ---------------------------------------------------------------------------
# Hypothesis properties on generators, schedules and small engine runs.

sizes_st = st.integers(min_value=1, max_value=6)
start_st = st.integers(min_value=0, max_value=120)


@st.composite
def small_schedules(draw):
    """Random schedules on the 8-terminal dumbbell."""
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = [
        Flow(
            i,
            draw(st.integers(min_value=0, max_value=7)),
            draw(st.integers(min_value=0, max_value=7)),
            draw(sizes_st),
            draw(start_st),
        )
        for i in range(n_flows)
    ]
    flows = [f for f in flows if f.src != f.dst]
    if not flows:
        flows = [Flow(0, 0, 1, 1, 0)]
    return FlowSchedule(flows, 8)


@settings(max_examples=25, deadline=None)
@given(schedule=small_schedules())
def test_schedule_invariants(schedule):
    starts = [(f.start, f.flow_id) for f in schedule.flows]
    assert starts == sorted(starts)
    assert schedule.total_packets == sum(f.size for f in schedule.flows)
    # Serials are dense and releases carry exactly one entry per packet.
    assert sorted(schedule.flow_of_serial) == sorted(
        fid
        for f in schedule.flows
        for fid in [schedule.flows.index(f)] * f.size
    )
    assert sum(len(row) for row in schedule.releases) == (
        schedule.total_packets
    )
    columns = schedule.arrival_lists(10_000)
    assert all(c.dtype == np.int64 for c in columns)
    times, terms, dsts, serials = (c.tolist() for c in columns)
    assert len(times) == schedule.total_packets
    # Exactly the releases sorted by (time, terminal, serial).
    expected = sorted(
        (start, terminal, serial, dst)
        for terminal, row in enumerate(schedule.releases)
        for start, dst, serial in row
    )
    assert list(zip(times, terms, serials, dsts)) == expected


@settings(max_examples=15, deadline=None)
@given(schedule=small_schedules(), engine=st.sampled_from(EXACT_ENGINES))
def test_flow_conservation_and_fct_bounds(schedule, engine):
    """Every flow either completes or is dropped; completed flows
    respect the serialization lower bound fct >= size * P."""
    topo = dumbbell(4)
    params = exact_params(cycles=2_000)
    with engine_context(engine):
        result = run_workload(topo, FlowTraffic(schedule), params)
    fs = result.flow_stats
    assert fs["flows_total"] == len(schedule.flows)
    assert fs["flows_completed"] + fs["flows_dropped"] <= fs["flows_total"]
    tracker = FlowTracker(schedule)
    with engine_context(engine):
        Simulator(topo, FlowTraffic(schedule), 0.5, params,
                  observer=tracker).run()
    for fct, size in tracker.fct_records():
        assert fct >= size * params.packet_phits


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generators_reproducible(seed):
    a = make_workload("poisson-mix", 16, seed=seed, load=0.3, duration=300)
    b = make_workload("poisson-mix", 16, seed=seed, load=0.3, duration=300)
    assert a.flow_schedule.flows == b.flow_schedule.flows


def test_size_mix_proportions():
    """The lognormal elephant/mice mix honours its configured split to
    within sampling noise (fixed seed: deterministic assertion)."""
    workload = make_workload(
        "poisson-mix", 64, seed=0, load=0.6, duration=20_000
    )
    flows = workload.flow_schedule.flows
    assert len(flows) > 300
    big = sum(1 for f in flows if f.size >= 20)
    fraction = big / len(flows)
    assert 0.04 < fraction < 0.20, fraction
