"""Engine + observer integration: hooks fire at the right places, the
exported metrics reconcile with the SimResult, and instrumentation is
invisible to the simulation itself (bit-for-bit determinism)."""

import dataclasses

import pytest

from oracle_engine import engine_context, run_on

from repro.obs import (
    MetricsObserver,
    MultiObserver,
    SimObserver,
    TraceWriter,
    TracingObserver,
)
from repro.obs.hooks import EVENT_HOOKS
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator, simulate
from repro.simulation.traffic import make_traffic

FAST = SimulationParams(measure_cycles=400, warmup_cycles=100, seed=3)


#: Every engine an observer can be attached to: the exact engine, the
#: reference engine it is proven equal to, and the relaxed one.
ENGINE_PARAMS = {
    "reference": FAST,
    "fast": FAST,
    "relaxed": dataclasses.replace(FAST, rng_mode="relaxed"),
}


def run_instrumented(topo, observer, load=0.5, seed=1, mode="fast"):
    traffic = make_traffic("uniform", topo.num_terminals, rng=seed)
    with engine_context(mode):
        return simulate(
            topo, traffic, load, ENGINE_PARAMS[mode], observer=observer
        )


@pytest.mark.parametrize("mode", sorted(ENGINE_PARAMS))
class TestDeterminism:
    """Observers never perturb the run they watch, on every engine."""

    def test_instrumented_equals_bare(self, rfc_small, mode):
        bare = run_instrumented(rfc_small, None, mode=mode)
        observer = MetricsObserver()
        inst = run_instrumented(rfc_small, observer, mode=mode)
        assert bare == inst
        assert bare.core_dict() == inst.core_dict()
        # The hooks really fired on this engine.
        ejected = observer.export()["counters"]["eject.packets"]
        assert ejected == inst.delivered_packets > 0

    def test_tracing_does_not_perturb(self, rfc_small, mode):
        bare = run_instrumented(rfc_small, None, mode=mode)
        with TraceWriter(None) as writer:
            traced = run_instrumented(
                rfc_small, TracingObserver(writer), mode=mode
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


class _Logger(SimObserver):
    """Appends ``(name, hook)`` to a shared log on every hook it owns."""

    def __init__(self, name: str, log: list) -> None:
        self.name = name
        self.log = log


class _EjectLogger(_Logger):
    def on_eject(self, time, packet, latency, phits):
        self.log.append((self.name, "on_eject"))


class _HopEjectLogger(_EjectLogger):
    def on_hop(self, time, packet, src, dst, vc, credits_left, queue_len):
        self.log.append((self.name, "on_hop"))


@pytest.fixture
def noop_calls(monkeypatch):
    """Replaces every per-event no-op of :class:`SimObserver` by a spy;
    the returned list names each hook a spy received."""
    calls: list[str] = []
    for name in EVENT_HOOKS:

        def spy(self, *args, name=name):
            calls.append(name)

        monkeypatch.setattr(SimObserver, name, spy)
    return calls


class TestHookRouting:
    """Engines call only the hooks some observer overrides."""

    def test_multi_fans_out_only_to_overriders_in_order(self):
        log: list = []
        a = _EjectLogger("a", log)
        b = _HopEjectLogger("b", log)
        c = _EjectLogger("c", log)
        multi = MultiObserver([a, SimObserver(), b, MetricsObserver(), c])
        multi.hook("on_eject")(0, None, 1, 16)
        assert log == [("a", "on_eject"), ("b", "on_eject"), ("c", "on_eject")]
        # A single overrider is handed out directly, no fan-out wrapper.
        assert multi.hook("on_hop") == b.on_hop
        for name in ("on_inject", "on_drop", "on_arbitrate"):
            assert multi.hook(name) is None
        log.clear()
        multi.hook("on_hop")(0, None, 1, 2, 0, 3, 1)
        multi.hook("on_eject")(0, None, 1, 16)
        assert log == [
            ("b", "on_hop"),
            ("a", "on_eject"),
            ("b", "on_eject"),
            ("c", "on_eject"),
        ]

    def test_nested_multi_resolves_through(self):
        log: list = []
        inner = MultiObserver([_EjectLogger("x", log), SimObserver()])
        outer = MultiObserver([inner, _EjectLogger("y", log)])
        outer.hook("on_eject")(0, None, 1, 16)
        assert log == [("x", "on_eject"), ("y", "on_eject")]
        assert outer.hook("on_hop") is None

    def test_metrics_observer_keeps_every_noop(self):
        for name in EVENT_HOOKS:
            assert getattr(MetricsObserver, name) is getattr(SimObserver, name)
            assert MetricsObserver().hook(name) is None
        assert MetricsObserver.wants_counters
        assert MultiObserver([SimObserver(), MetricsObserver()]).wants_counters
        assert not MultiObserver([SimObserver()]).wants_counters

    def test_quiet_tracer_skips_arbitration(self):
        writer = TraceWriter(None)
        assert TracingObserver(writer).hook("on_arbitrate") is None
        assert TracingObserver(writer, include_arb=True).hook("on_arbitrate")

    @pytest.mark.parametrize("mode", sorted(ENGINE_PARAMS))
    def test_eject_only_observer_gets_only_ejects(
        self, rfc_small, mode, noop_calls
    ):
        log: list = []
        result = run_instrumented(
            rfc_small, _EjectLogger("e", log), mode=mode
        )
        assert len(log) == result.delivered_packets > 0
        assert noop_calls == []

    @pytest.mark.parametrize("mode", sorted(ENGINE_PARAMS))
    def test_metrics_adds_no_per_event_call(self, rfc_small, mode, noop_calls):
        observer = MetricsObserver()
        result = run_instrumented(
            rfc_small, observer, mode=mode
        )
        assert noop_calls == []
        export = observer.export()
        assert export["counters"]["eject.packets"] == result.delivered_packets

    @pytest.mark.parametrize("mode", sorted(ENGINE_PARAMS))
    def test_counters_only_when_wanted(self, rfc_small, mode):
        params = ENGINE_PARAMS[mode]
        traffic = make_traffic("uniform", rfc_small.num_terminals, rng=1)
        quiet = Simulator(rfc_small, traffic, 0.5, params, observer=SimObserver())
        run_on(quiet, mode)
        assert quiet.run_counters is None
        counted = Simulator(
            rfc_small, traffic, 0.5, params, observer=MetricsObserver()
        )
        result = run_on(counted, mode)
        assert counted.run_counters is not None
        assert sum(counted.run_counters.latency) == result.delivered_packets

    def test_export_is_empty_until_run_end(self, rfc_small):
        metrics = MetricsObserver()
        seen: list[dict] = []

        class Peek(SimObserver):
            def on_eject(self, time, packet, latency, phits):
                if not seen:
                    seen.append(metrics.export())

        run_instrumented(rfc_small, MultiObserver([metrics, Peek()]))
        assert seen and seen[0]["counters"] == {}
        assert metrics.export()["counters"]["eject.packets"] > 0


class TestTsBuckets:
    @pytest.mark.parametrize("bad", [0, -3, 2.5, True])
    def test_non_positive_or_non_int_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match="ts_buckets"):
            MetricsObserver(ts_buckets=bad)

    def test_bucket_width_follows_ts_buckets(self, rfc_small):
        observer = MetricsObserver(ts_buckets=10)
        run_instrumented(rfc_small, observer)
        series = observer.export()["timeseries"]["ts.delivered_phits"]
        assert series["width"] == FAST.horizon // 10


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
