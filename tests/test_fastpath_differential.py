"""Differential proof that the fast engine equals the reference engine.

The exact engine (:func:`repro.simulation.fastpath.run_fast`) is held
to the readable reference engine of ``oracle_engine.py`` (the
oracle).
Every test here runs the same (topology, traffic, load, params) point
through both and demands **bit-for-bit** agreement:

* :class:`SimResult` dataclass equality (accepted load, latency
  moments, percentiles, packet counters),
* per-channel busy-cycle arrays (the utilization side channel),
* packet traces, peak injection queue depth, unroutable drop counts,
* and, when instrumented, the full :class:`MetricsObserver` export.

Because both engines share one ``random.Random`` stream, any divergence
in RNG call *order* -- not just in results -- shows up as a mismatch,
which is what makes this a proof of equivalence rather than a
statistical comparison.  The quick matrix runs everywhere; the
exhaustive topology x traffic x load x seed sweep carries the ``slow``
marker and runs in the CI bench job.
"""

import json

import pytest

from repro.core.rfc import radix_regular_rfc, rfc_with_updown
from repro.faults.switches import links_of_switches
from repro.obs import MetricsObserver
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.traffic import TrafficPattern, make_traffic

from oracle_engine import run_on

BASE = SimulationParams(measure_cycles=300, warmup_cycles=100, seed=5)

#: The full exact-engine matrix, reference first.
ENGINE_RUNS = ("reference", "fast")


def run_engines(
    topo,
    traffic_name,
    load,
    params,
    removed_links=None,
    with_observer=False,
    trace_limit=0,
):
    """Run one point on every engine; returns the sims, reference
    first."""
    sims = []
    for engine in ENGINE_RUNS:
        traffic = make_traffic(
            traffic_name, topo.num_terminals, rng=params.seed + 1
        )
        sim = Simulator(
            topo,
            traffic,
            load,
            params,
            removed_links,
            trace_limit=trace_limit,
            observer=MetricsObserver() if with_observer else None,
        )
        sim.result = run_on(sim, engine)
        sims.append(sim)
    return sims


def assert_identical(ref, *others):
    """The full bit-for-bit contract between the engines."""
    ref_export = (
        json.dumps(ref.observer.export(), sort_keys=True)
        if ref.observer is not None
        else None
    )
    for other in others:
        assert ref.result == other.result
        assert ref.ch_busy_cycles == other.ch_busy_cycles
        assert ref.traces == other.traces
        assert ref.max_inject_queue == other.max_inject_queue
        assert ref.unroutable_packets == other.unroutable_packets
        # Shared post-run inspection must agree too (same channel
        # state).
        assert ref.link_utilization() == other.link_utilization()
        assert ref.batch_accepted_loads() == other.batch_accepted_loads()
        if ref_export is not None:
            other_export = json.dumps(
                other.observer.export(), sort_keys=True
            )
            assert ref_export == other_export


@pytest.fixture(scope="module")
def topologies(cft_4_3, oft_q2_l2):
    rfc, _ = rfc_with_updown(8, 16, 3, rng=7)
    return {"rfc": rfc, "cft": cft_4_3, "oft": oft_q2_l2}


class TestQuickMatrix:
    """Fast subset of the matrix -- runs in every dev invocation."""

    @pytest.mark.parametrize("name", ["rfc", "cft", "oft"])
    def test_uniform_mid_load(self, topologies, name):
        assert_identical(*run_engines(topologies[name], "uniform", 0.5, BASE))

    @pytest.mark.parametrize(
        "traffic", ["random-pairing", "fixed-random", "shuffle"]
    )
    def test_traffic_patterns(self, topologies, traffic):
        assert_identical(*run_engines(topologies["rfc"], traffic, 0.6, BASE))

    @pytest.mark.parametrize("load", [0.1, 0.9])
    def test_load_extremes(self, topologies, load):
        assert_identical(*run_engines(topologies["rfc"], "uniform", load, BASE))


class TestConfigVariants:
    """Engine knobs that exercise distinct non-reference branches."""

    def test_valiant(self, topologies):
        params = BASE.scaled(valiant=True)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.5, params))

    def test_valiant_two_vcs(self, topologies):
        params = BASE.scaled(valiant=True, virtual_channels=2)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.6, params))

    def test_adaptive_up_selection(self, topologies):
        params = BASE.scaled(up_selection="adaptive")
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.7, params))

    def test_rotating_arbiter(self, topologies):
        params = BASE.scaled(arbiter="rotating")
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.7, params))

    def test_multi_iteration_arbitration(self, topologies):
        params = BASE.scaled(arbitration_iterations=3)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.8, params))

    def test_nonminimal_routing(self, topologies):
        params = BASE.scaled(minimal_routing=False)
        assert_identical(
            *run_engines(topologies["rfc"], "random-pairing", 0.6, params)
        )

    def test_single_phit_saturating(self, topologies):
        params = BASE.scaled(packet_phits=1)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 1.0, params))

    def test_longer_links(self, topologies):
        params = BASE.scaled(link_latency=3)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.6, params))

    def test_single_vc(self, topologies):
        params = BASE.scaled(virtual_channels=1)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.3, params))


class TestFaults:
    """Pruned networks: CSR tables must mirror the pruned routers."""

    def test_removed_links_rfc(self, topologies):
        links = list(topologies["rfc"].links())
        removed = [links[3], links[17], links[40]]
        assert_identical(
            *run_engines(
                topologies["rfc"], "uniform", 0.6, BASE, removed_links=removed
            )
        )

    def test_switch_fault_rfc(self, topologies):
        """Whole-switch loss (all incident links removed) -- packets to
        unreachable leaves are dropped identically by every engine."""
        topo = topologies["rfc"]
        dead = {topo.switch_id(1, 0), topo.switch_id(2, 1)}
        removed = links_of_switches(topo, dead)
        assert_identical(
            *run_engines(topo, "uniform", 0.5, BASE, removed_links=removed)
        )

    def test_switch_fault_with_unroutable_pairs(self, topologies):
        """Killing every fabric switch over a leaf forces unroutable
        drops; the drop accounting must match."""
        topo = topologies["oft"]
        dead = {topo.switch_id(1, 0)}
        removed = links_of_switches(topo, dead)
        sims = run_engines(topo, "uniform", 0.4, BASE, removed_links=removed)
        assert_identical(*sims)
        assert sims[0].unroutable_packets == sims[1].unroutable_packets


class TestInstrumented:
    """Observer hooks must fire with identical payloads."""

    def test_metrics_observer_rfc(self, topologies):
        assert_identical(
            *run_engines(
                topologies["rfc"], "uniform", 0.6, BASE, with_observer=True
            )
        )

    def test_metrics_observer_valiant_with_traces(self, topologies):
        params = BASE.scaled(valiant=True)
        assert_identical(
            *run_engines(
                topologies["rfc"],
                "locality",
                0.5,
                params,
                with_observer=True,
                trace_limit=40,
            )
        )

    def test_traces_and_faults_together(self, topologies):
        links = list(topologies["rfc"].links())
        assert_identical(
            *run_engines(
                topologies["rfc"],
                "uniform",
                0.6,
                BASE,
                removed_links=[links[5]],
                with_observer=True,
                trace_limit=60,
            )
        )


class TestHorizonSweep:
    """Short horizons hit the warmup/measure boundary cases."""

    @pytest.mark.parametrize("measure,warmup", [(1, 0), (5, 0), (40, 40)])
    def test_short_horizons(self, topologies, measure, warmup):
        params = BASE.scaled(measure_cycles=measure, warmup_cycles=warmup)
        assert_identical(*run_engines(topologies["rfc"], "uniform", 0.7, params))


class _AllSilentTraffic(TrafficPattern):
    """No terminal ever injects -- the zero-load degenerate case."""

    name = "all-silent"

    def destination(self, source, rng):  # pragma: no cover - never called
        raise LookupError("silent")

    def is_silent(self, source):
        return True


class TestEdgeCases:
    """Degenerate configurations every engine must agree on."""

    def test_zero_injections(self, topologies):
        """A run with no traffic at all: zero packets, NaN latency
        moments, and still bit-for-bit agreement (including the NaN
        fields, which compare equal by SimResult's contract)."""
        topo = topologies["rfc"]
        sims = []
        for engine in ENGINE_RUNS:
            traffic = _AllSilentTraffic(topo.num_terminals)
            sim = Simulator(topo, traffic, 0.5, BASE)
            sim.result = run_on(sim, engine)
            sims.append(sim)
        assert_identical(*sims)
        assert sims[0].result.generated_packets == 0
        assert sims[0].result.delivered_packets == 0

    def test_minimal_folded_topology(self):
        """The smallest constructible RFC (8 terminals)."""
        topo = radix_regular_rfc(4, 4, 2, rng=3)
        assert_identical(*run_engines(topo, "uniform", 0.6, BASE))

    def test_single_terminal_traffic_rejected(self):
        """One terminal cannot form a traffic pattern; the rejection
        happens before any engine is selected and is identical."""
        with pytest.raises(ValueError) as exc_info:
            make_traffic("uniform", 1, rng=0)
        assert "two terminals" in str(exc_info.value)

    def test_saturated_injection_queues(self, topologies):
        """Hot-spot overload: injection queues back up and the peak
        depth (a pure side-channel) must match across engines."""
        params = BASE.scaled(buffer_packets=1)
        sims = run_engines(topologies["rfc"], "fixed-random", 1.0, params)
        assert_identical(*sims)
        assert sims[0].max_inject_queue >= 3


@pytest.mark.slow
class TestFullMatrix:
    """The exhaustive sweep (CI bench job): topology x traffic x load
    x seed, plus faulted and instrumented axes."""

    @pytest.mark.parametrize("name", ["rfc", "cft", "oft"])
    @pytest.mark.parametrize(
        "traffic", ["uniform", "random-pairing", "fixed-random"]
    )
    @pytest.mark.parametrize("load", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_matrix_point(self, topologies, name, traffic, load, seed):
        params = BASE.scaled(seed=seed)
        assert_identical(*run_engines(topologies[name], traffic, load, params))

    @pytest.mark.parametrize("name", ["rfc"])
    @pytest.mark.parametrize("seed", [2, 7])
    def test_matrix_faulted_instrumented(self, topologies, name, seed):
        topo = topologies[name]
        links = list(topo.links())
        removed = [links[seed], links[seed + 4]]
        params = BASE.scaled(seed=seed)
        assert_identical(
            *run_engines(
                topo,
                "uniform",
                0.6,
                params,
                removed_links=removed,
                with_observer=True,
                trace_limit=30,
            )
        )
