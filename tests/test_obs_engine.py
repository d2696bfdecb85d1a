"""Engine + observer integration: hooks fire at the right places, the
exported metrics reconcile with the SimResult, and instrumentation is
invisible to the simulation itself (bit-for-bit determinism)."""

import dataclasses

import pytest

from repro.obs import (
    MetricsObserver,
    MultiObserver,
    SimObserver,
    TraceWriter,
    TracingObserver,
)
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator, simulate
from repro.simulation.traffic import make_traffic

FAST = SimulationParams(measure_cycles=400, warmup_cycles=100, seed=3)


#: Every engine an observer can be attached to: the two exact engines
#: and the relaxed one.
ENGINE_PARAMS = {
    "reference": dataclasses.replace(FAST, engine="reference"),
    "fast": FAST,
    "relaxed": dataclasses.replace(FAST, rng_mode="relaxed"),
}


def run_instrumented(topo, observer, load=0.5, seed=1, params=FAST):
    traffic = make_traffic("uniform", topo.num_terminals, rng=seed)
    return simulate(topo, traffic, load, params, observer=observer)


@pytest.mark.parametrize("mode", sorted(ENGINE_PARAMS))
class TestDeterminism:
    """Observers never perturb the run they watch, on every engine."""

    def test_instrumented_equals_bare(self, rfc_small, mode):
        params = ENGINE_PARAMS[mode]
        bare = run_instrumented(rfc_small, None, params=params)
        observer = MetricsObserver()
        inst = run_instrumented(rfc_small, observer, params=params)
        assert bare == inst
        assert bare.core_dict() == inst.core_dict()
        # The hooks really fired on this engine.
        ejected = observer.export()["counters"]["eject.packets"]
        assert ejected == inst.delivered_packets > 0

    def test_tracing_does_not_perturb(self, rfc_small, mode):
        params = ENGINE_PARAMS[mode]
        bare = run_instrumented(rfc_small, None, params=params)
        with TraceWriter(None) as writer:
            traced = run_instrumented(
                rfc_small, TracingObserver(writer), params=params
            )
        assert bare == traced


class TestMetricsReconcile:
    @pytest.fixture(scope="class")
    def run(self, rfc_small):
        observer = MetricsObserver()
        result = run_instrumented(rfc_small, observer)
        return result, observer.export()

    def test_eject_count_is_delivered(self, run):
        result, export = run
        assert export["counters"]["eject.packets"] == result.delivered_packets

    def test_inject_plus_drops_is_generated(self, run):
        result, export = run
        injected = export["counters"]["inject.packets"]
        dropped = export["counters"].get("drop.unroutable", 0)
        assert injected + dropped == result.generated_packets

    def test_latency_histogram_counts_deliveries(self, run):
        result, export = run
        hist = export["histograms"]["latency.packet"]
        assert hist["count"] == result.delivered_packets

    def test_delivered_phits_timeseries_total(self, run):
        result, export = run
        series = export["timeseries"]["ts.delivered_phits"]
        total = sum(series["buckets"].values())
        assert total == result.delivered_packets * FAST.packet_phits

    def test_link_counters_account_every_hop(self, run):
        _, export = run
        hops = export["counters"]["hop.count"]
        link_phits = sum(
            value
            for name, value in export["counters"].items()
            if name.startswith("link.")
        )
        assert link_phits == hops * FAST.packet_phits

    def test_arbitration_grants_bounded_by_requests(self, run):
        _, export = run
        counters = export["counters"]
        assert 0 < counters["arb.grants"] <= counters["arb.requests"]
        assert counters["arb.passes"] > 0

    def test_stage_timeseries_only_adjacent_levels(self, run):
        _, export = run
        stages = [
            name
            for name in export["timeseries"]
            if name.startswith("ts.stage.")
        ]
        assert stages
        for name in stages:
            lo, hi = name.removeprefix("ts.stage.").split("->")
            assert abs(int(lo) - int(hi)) == 1


class TestTracing:
    def test_trace_reconciles_with_result(self, rfc_small):
        with TraceWriter(None) as writer:
            result = run_instrumented(rfc_small, TracingObserver(writer))
        records = writer.records()
        kinds = [r["ev"] for r in records]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert kinds.count("eject") == result.delivered_packets
        assert (
            kinds.count("inject")
            == result.generated_packets - result.unroutable_packets
        )
        end = records[-1]
        assert end["generated"] == result.generated_packets
        assert end["delivered"] == result.delivered_packets
        assert end["accepted_load"] == result.accepted_load

    def test_arb_records_opt_in(self, rfc_small):
        with TraceWriter(None) as quiet, TraceWriter(None) as chatty:
            run_instrumented(rfc_small, TracingObserver(quiet))
            run_instrumented(
                rfc_small, TracingObserver(chatty, include_arb=True)
            )
        assert not any(r["ev"] == "arb" for r in quiet.records())
        assert any(r["ev"] == "arb" for r in chatty.records())

    def test_trace_file_round_trips(self, rfc_small, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            result = run_instrumented(rfc_small, TracingObserver(writer))
        import json

        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(records) == writer.written
        assert records[-1]["delivered"] == result.delivered_packets


class TestMultiObserver:
    def test_fans_out_to_all(self, rfc_small):
        metrics = MetricsObserver()
        with TraceWriter(None) as writer:
            combined = MultiObserver([metrics, TracingObserver(writer)])
            result = run_instrumented(rfc_small, combined)
        export = metrics.export()
        assert export["counters"]["eject.packets"] == result.delivered_packets
        assert any(r["ev"] == "eject" for r in writer.records())

    def test_noop_base_observer_is_harmless(self, rfc_small):
        bare = run_instrumented(rfc_small, None)
        noop = run_instrumented(rfc_small, SimObserver())
        assert bare == noop


class TestSortedInspectionKeys:
    """Regression: post-run inspection dicts iterate in sorted order,
    never in channel-construction order (repro.lint RPR003)."""

    @pytest.fixture(scope="class")
    def sim(self, rfc_small):
        traffic = make_traffic("uniform", rfc_small.num_terminals, rng=1)
        sim = Simulator(rfc_small, traffic, 0.5, FAST)
        sim.run()
        return sim

    def test_stage_utilization_keys_sorted(self, sim):
        keys = list(sim.stage_utilization())
        assert keys == sorted(keys)
        assert keys  # non-degenerate

    def test_link_loads_keys_sorted(self, sim):
        loads = sim.link_loads()
        keys = list(loads)
        assert keys == sorted(keys)
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in loads.values())

    def test_link_loads_mean_matches_summary(self, sim):
        loads = sim.link_loads()
        summary = sim.link_utilization()
        mean = sum(loads.values()) / len(loads)
        assert mean == pytest.approx(summary["mean"])
