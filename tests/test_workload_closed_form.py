"""Closed-form FCT fixtures: zero-tolerance pins on tiny topologies.

On a dumbbell (two leaves, one spine) every route is forced, so flow
completion times follow from the switch model alone -- ``P`` phits of
serialization per packet, ``L`` cycles per link hop:

* **cross-leaf** ``n``-packet flow: injection grants packet ``k`` at
  cycle ``kP`` (the NIC serializes); the grant chain adds one link
  latency at the spine and one at the far leaf, and the tail phit of
  the last packet lands ``P - 1`` cycles after its eject grant at
  ``(n-1)P + 2L``, so ``FCT = nP + 3L - 1``;
* **same-leaf** ``n``-packet flow: one eject hop instead of three
  stages, ``FCT = nP + L - 1``;
* **same-leaf K-way incast** of 1-packet flows released together: the
  aggregator's single ejection port serializes the responses, granting
  one every ``P`` cycles -- the *sorted* FCT multiset is exactly
  ``{kP + L + P - 1 : k = 0..K-1}`` (which flow lands k-th is
  arbitration RNG, the multiset is not), i.e. the k-th flow queues for
  exactly ``kP`` cycles.

These are exact integers: every assertion is ``==``, on all three
engines (the relaxed engine's RNG freedom only permutes *which* flow
takes each slot, never the slot times).
"""

import pytest

from oracle_engine import run_on

from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.topologies.base import FoldedClos
from repro.workloads import (
    Flow,
    FlowSchedule,
    FlowTraffic,
    FlowTracker,
    run_workload,
)

P = 16  # packet_phits (SimulationParams default)
L = 1   # link_latency (SimulationParams default)

ENGINES = ("reference", "fast", "relaxed")


def dumbbell(hosts_per_leaf):
    """Two leaves, one spine: leaf0=0, leaf1=1, spine=2; terminals
    0..H-1 on leaf0, H..2H-1 on leaf1."""
    return FoldedClos(
        level_sizes=[2, 1],
        up_adjacency=[[[0], [0]]],
        hosts_per_leaf=hosts_per_leaf,
        radix=2 + hosts_per_leaf,
        name="dumbbell",
    )


def params_for(engine):
    return SimulationParams(
        measure_cycles=3_000,
        warmup_cycles=0,
        rng_mode="relaxed" if engine == "relaxed" else "exact",
        seed=1,
    )


def run_flows(topo, flows, engine):
    """Run a hand-built schedule; returns (SimResult, sorted FCTs)."""
    schedule = FlowSchedule(flows, topo.num_terminals)
    tracker = FlowTracker(schedule)
    sim = Simulator(
        topo, FlowTraffic(schedule), 0.5, params_for(engine),
        observer=tracker,
    )
    result = run_on(sim, engine)
    return result, sorted(fct for fct, _ in tracker.fct_records())


class TestCrossLeafFlow:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_fct_is_nP_plus_3L_minus_1(self, engine, n):
        topo = dumbbell(2)
        _, fcts = run_flows(topo, [Flow(0, 0, 2, n, 0)], engine)
        assert fcts == [n * P + 3 * L - 1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_delayed_start_shifts_not_stretches(self, engine):
        topo = dumbbell(2)
        _, fcts = run_flows(topo, [Flow(0, 0, 2, 2, 37)], engine)
        assert fcts == [2 * P + 3 * L - 1]


class TestSameLeafFlow:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n", [1, 4])
    def test_fct_is_nP_plus_L_minus_1(self, engine, n):
        topo = dumbbell(2)
        _, fcts = run_flows(topo, [Flow(0, 0, 1, n, 0)], engine)
        assert fcts == [n * P + L - 1]


class TestLeafIncast:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("fanin", [2, 4, 7])
    def test_sorted_fct_multiset_exact(self, engine, fanin):
        topo = dumbbell(8)
        flows = [
            Flow(i, worker, 0, 1, 0)
            for i, worker in enumerate(range(1, fanin + 1))
        ]
        _, fcts = run_flows(topo, flows, engine)
        assert fcts == [k * P + L + P - 1 for k in range(fanin)]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_queueing_delay_is_kP(self, engine):
        """FCT minus the contention-free FCT is exactly k packets of
        head-of-line serialization at the shared ejection port."""
        fanin = 5
        topo = dumbbell(8)
        flows = [
            Flow(i, worker, 0, 1, 0)
            for i, worker in enumerate(range(1, fanin + 1))
        ]
        _, fcts = run_flows(topo, flows, engine)
        ideal = P + L - 1
        assert [fct - ideal for fct in fcts] == [
            k * P for k in range(fanin)
        ]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_spaced_events_do_not_interact(self, engine):
        """A second cast released after the first drains sees the same
        multiset -- interval math in the generators is honest."""
        fanin, gap = 3, 200
        topo = dumbbell(8)
        flows = [
            Flow(i, worker, 0, 1, 0)
            for i, worker in enumerate(range(1, fanin + 1))
        ] + [
            Flow(fanin + i, worker, 0, 1, gap)
            for i, worker in enumerate(range(1, fanin + 1))
        ]
        _, fcts = run_flows(topo, flows, engine)
        one_event = [k * P + L + P - 1 for k in range(fanin)]
        assert fcts == sorted(one_event * 2)


class TestSummarySurface:
    def test_flow_stats_round_numbers(self):
        """run_workload surfaces the same exact numbers through
        SimResult.flow_stats."""
        topo = dumbbell(2)
        schedule = FlowSchedule([Flow(0, 0, 2, 3, 0)], topo.num_terminals)
        result = run_workload(
            topo, FlowTraffic(schedule), params_for("fast")
        )
        fs = result.flow_stats
        expected = 3 * P + 3 * L - 1
        assert fs["flows_completed"] == 1
        assert fs["fct_mean"] == expected
        assert fs["fct_p50"] == expected
        assert fs["fct_max"] == expected
        assert fs["slowdown_mean"] == expected / (3 * P)
