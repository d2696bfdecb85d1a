"""Unit tests for the ``repro.workloads`` layer.

Generators, schedules, FCT math, the tracker, the executor/cache
integration, the pooled-percentile merge, and the CLI subcommand.
"""

import math

import numpy as np
import pytest

from repro.exec.cache import ResultCache, cache_key, topology_digest
from repro.exec.executor import Executor, SimTask
from repro.simulation.config import SimulationParams
from repro.simulation.replication import aggregate_replications
from repro.simulation.stats import SimResult, pooled_latency_percentile
from repro.topologies.base import FoldedClos
from repro.workloads import (
    WORKLOAD_NAMES,
    FixedRpcSizes,
    Flow,
    FlowSchedule,
    FlowTraffic,
    FlowTracker,
    LognormalMixSizes,
    ShuffleSizes,
    fct_percentile,
    fct_summary,
    ideal_fct,
    incast_flows,
    make_workload,
    poisson_flows,
    run_workload,
    shuffle_flows,
    workload_from_spec,
    workload_spec,
)

PARAMS = SimulationParams(measure_cycles=400, warmup_cycles=0, seed=1)


def dumbbell(hosts_per_leaf=4):
    return FoldedClos(
        level_sizes=[2, 1],
        up_adjacency=[[[0], [0]]],
        hosts_per_leaf=hosts_per_leaf,
        radix=2 + hosts_per_leaf,
        name="dumbbell",
    )


class TestFlowSchedule:
    def test_sorts_and_indexes(self):
        sched = FlowSchedule(
            [Flow(1, 0, 1, 2, 50), Flow(0, 2, 3, 1, 0)], 4
        )
        assert [f.flow_id for f in sched.flows] == [0, 1]
        assert sched.total_packets == 3
        # Serial -> owning flow index, packets in (start, flow_id) order.
        assert list(sched.flow_of_serial) == [0, 1, 1]

    def test_releases_one_entry_per_packet(self):
        sched = FlowSchedule([Flow(0, 1, 0, 3, 7)], 4)
        assert [len(row) for row in sched.releases] == [0, 3, 0, 0]
        assert [entry[0] for entry in sched.releases[1]] == [7, 7, 7]

    @pytest.mark.parametrize(
        "flow, message",
        [
            (Flow(0, 9, 1, 1, 0), "bad src"),
            (Flow(0, 0, 9, 1, 0), "bad dst"),
            (Flow(0, 2, 2, 1, 0), "src == dst"),
            (Flow(0, 0, 1, 0, 0), "empty flow"),
            (Flow(0, 0, 1, 1, -5), "negative start"),
        ],
    )
    def test_validation(self, flow, message):
        with pytest.raises(ValueError, match=message):
            FlowSchedule([flow], 4)

    def test_duplicate_flow_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate flow id"):
            FlowSchedule([Flow(0, 0, 1, 1, 0), Flow(0, 1, 2, 1, 3)], 4)

    def test_arrival_lists_clip_to_horizon(self):
        sched = FlowSchedule(
            [Flow(0, 0, 1, 1, 0), Flow(1, 0, 1, 1, 500)], 4
        )
        columns = sched.arrival_lists(100)
        assert all(c.dtype == np.int64 for c in columns)
        assert [c.tolist() for c in columns] == [[0], [0], [1], [0]]

    def test_arrival_lists_order_time_terminal_serial(self):
        # Flow order is (start, flow_id); arrivals interleave terminals
        # within a cycle and keep each terminal's serials ascending.
        sched = FlowSchedule(
            [
                Flow(0, 2, 0, 2, 5),
                Flow(1, 1, 3, 1, 5),
                Flow(2, 2, 1, 1, 0),
                Flow(3, 0, 1, 3, 5),
                Flow(4, 1, 2, 1, 101),
            ],
            4,
        )
        times, terms, dsts, serials = sched.arrival_lists(100)
        assert times.tolist() == [0, 5, 5, 5, 5, 5, 5]
        assert terms.tolist() == [2, 0, 0, 0, 1, 2, 2]
        assert dsts.tolist() == [1, 1, 1, 1, 3, 0, 0]
        assert serials.tolist() == [0, 4, 5, 6, 3, 1, 2]

    def test_flow_traffic_destination_is_off_limits(self):
        import random

        sched = FlowSchedule([Flow(0, 0, 1, 1, 0)], 4)
        traffic = FlowTraffic(sched)
        with pytest.raises(LookupError):
            traffic.destination(0, random.Random(0))


class TestGenerators:
    def test_make_workload_every_name(self):
        for name in WORKLOAD_NAMES:
            traffic = make_workload(name, 16, seed=3)
            assert traffic.name == f"flows:{name}"
            assert traffic.flow_schedule.flows

    def test_make_workload_unknown_name(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_workload("bursty", 16)

    def test_poisson_calibration(self):
        sched = poisson_flows(
            32, sizes=FixedRpcSizes(4), duration=5_000, load=0.5, seed=1
        )
        assert sched.offered_load == 0.5
        implied = sched.estimated_load(16, 5_000)
        assert implied == pytest.approx(0.5, rel=0.15)

    def test_incast_pinned_workers(self):
        sched = incast_flows(
            16, fanin=3, size=2, events=1, aggregator=5,
            workers=[1, 2, 3], seed=0,
        )
        assert len(sched.flows) == 3
        assert {f.dst for f in sched.flows} == {5}
        assert {f.src for f in sched.flows} == {1, 2, 3}
        assert all(f.size == 2 for f in sched.flows)

    def test_incast_events_spaced_by_interval(self):
        sched = incast_flows(16, fanin=4, events=3, interval=100, seed=2)
        assert sorted({f.start for f in sched.flows}) == [0, 100, 200]

    def test_shuffle_partner_count(self):
        sched = shuffle_flows(8, partners=2, duration=100, seed=0)
        per_src = {}
        for f in sched.flows:
            per_src.setdefault(f.src, set()).add(f.dst)
        assert all(len(dsts) == 2 for dsts in per_src.values())

    def test_size_distributions_bounded(self):
        mix = LognormalMixSizes(max_size=64)
        rpc = FixedRpcSizes(4)
        shuffle = ShuffleSizes(32, 96)
        import random

        rng = random.Random(0)
        for _ in range(500):
            assert 1 <= mix.sample(rng) <= 64
            assert rpc.sample(rng) == 4
            assert 32 <= shuffle.sample(rng) <= 96

    def test_spec_roundtrip(self):
        spec = workload_spec("incast", fanin=4, rpc_size=2)
        assert spec == ("incast", (("fanin", 4), ("rpc_size", 2)))
        traffic = workload_from_spec(spec, 16, seed=9)
        direct = make_workload("incast", 16, seed=9, fanin=4, rpc_size=2)
        assert traffic.flow_schedule.flows == direct.flow_schedule.flows

    def test_spec_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown workload"):
            workload_spec("bursty")


class TestFctMath:
    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        assert fct_percentile(values, 0.50) == 50.0
        assert fct_percentile(values, 0.99) == 99.0
        assert fct_percentile(values, 1.0) == 100.0
        assert math.isnan(fct_percentile([], 0.5))

    def test_percentile_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            fct_percentile([1], 1.5)

    def test_ideal_fct(self):
        assert ideal_fct(3, 16) == 48

    def test_summary_values(self):
        summary = fct_summary(
            [(32, 2), (64, 2)], packet_phits=16, flows_total=3,
            flows_dropped=1,
        )
        assert summary["flows_total"] == 3
        assert summary["flows_completed"] == 2
        assert summary["flows_dropped"] == 1
        assert summary["packets"] == 4
        assert summary["fct_mean"] == 48.0
        assert summary["fct_max"] == 64.0
        assert summary["slowdown_mean"] == (1.0 + 2.0) / 2

    def test_summary_empty(self):
        summary = fct_summary([], packet_phits=16, flows_total=0)
        assert math.isnan(summary["fct_mean"])
        assert math.isnan(summary["fct_p99"])


class TestFlowTracker:
    def test_reset_between_runs(self):
        from repro.simulation.engine import Simulator

        topo = dumbbell(2)
        sched = FlowSchedule([Flow(0, 0, 2, 2, 0)], topo.num_terminals)
        tracker = FlowTracker(sched)
        for _ in range(2):
            Simulator(
                topo, FlowTraffic(sched), 0.5, PARAMS, observer=tracker
            ).run()
            records = tracker.fct_records()
            assert len(records) == 1

    def test_run_workload_surfaces_flow_stats(self):
        topo = dumbbell(2)
        workload = make_workload("rpc", topo.num_terminals, seed=1,
                                 load=0.3, duration=200, rpc_size=2)
        result = run_workload(topo, workload, PARAMS)
        assert result.flow_stats is not None
        assert result.flow_stats["flows_total"] == len(
            workload.flow_schedule.flows
        )


class TestCacheKeyPolicy:
    def _key(self, topo, **kwargs):
        return cache_key(
            topology_digest(topo), "uniform", 0.5, PARAMS, 3, **kwargs
        )

    def test_legacy_key_unchanged_without_workload(self, cft_4_3):
        assert self._key(cft_4_3) == self._key(cft_4_3, workload=None)

    def test_workload_enters_key(self, cft_4_3):
        spec = workload_spec("incast", fanin=4)
        assert self._key(cft_4_3, workload=spec) != self._key(cft_4_3)

    def test_spec_options_distinguish_keys(self, cft_4_3):
        a = self._key(cft_4_3, workload=workload_spec("incast", fanin=4))
        b = self._key(cft_4_3, workload=workload_spec("incast", fanin=8))
        c = self._key(cft_4_3, workload=workload_spec("incast", fanin=4))
        assert a != b
        assert a == c


class TestExecutorWorkloadTasks:
    def _task(self, topo, **overrides):
        spec = workload_spec("incast", fanin=4, rpc_size=2, events=2,
                             duration=100)
        base = dict(
            topo=topo, traffic_name="flows:incast", load=0.5,
            params=PARAMS, traffic_seed=7, workload=spec,
        )
        base.update(overrides)
        return SimTask(**base)

    def test_workload_task_matches_direct_run(self, cft_4_3):
        task = self._task(cft_4_3)
        results, report = Executor(workers=1).run_sim_tasks([task])
        assert report.computed == 1
        direct = run_workload(
            cft_4_3,
            workload_from_spec(task.workload, cft_4_3.num_terminals,
                               seed=task.traffic_seed),
            PARAMS,
        )
        assert results[0] == direct
        assert results[0].flow_stats == direct.flow_stats

    def test_workload_tasks_skip_cache_read_but_warm_it(
        self, cft_4_3, tmp_path
    ):
        cache = ResultCache(tmp_path)
        exe = Executor(workers=1, cache=cache)
        task = self._task(cft_4_3)

        first, report1 = exe.run_sim_tasks([task])
        assert report1.computed == 1 and report1.cache_hits == 0
        assert len(cache) == 1  # warmed

        second, report2 = exe.run_sim_tasks([task])
        # Flow stats are a cache-stripped side channel, so the task
        # recomputes (like collect_metrics) instead of replaying a
        # stats-less entry ...
        assert report2.computed == 1 and report2.cache_hits == 0
        assert second[0].flow_stats == first[0].flow_stats
        # ... and the core result is deterministic across runs.
        assert second[0] == first[0]

    def test_workload_entry_never_replayed_by_pattern_task(
        self, cft_4_3, tmp_path
    ):
        """A workload entry is keyed by its spec, so no pattern task
        (whose key has no ``workload`` payload) can ever replay it."""
        cache = ResultCache(tmp_path)
        exe = Executor(workers=1, cache=cache)
        exe.run_sim_tasks([self._task(cft_4_3)])
        assert len(cache) == 1
        pattern_task = SimTask(
            topo=cft_4_3, traffic_name="uniform", load=0.5,
            params=PARAMS, traffic_seed=7,
        )
        _, report = exe.run_sim_tasks([pattern_task])
        assert report.cache_hits == 0 and report.computed == 1


def _result_with_hist(hist, **overrides):
    base = dict(
        offered_load=0.5, accepted_load=0.4, avg_latency=20.0,
        avg_hops=4.0, generated_packets=100, delivered_packets=90,
        measured_packets=80, max_latency=77, p50_latency=30.0,
        p99_latency=60.0, traffic="uniform", topology="net",
        unroutable_packets=0, latency_hist=hist,
    )
    base.update(overrides)
    return SimResult(**base)


class TestPercentileMerge:
    """Satellite regression: percentile merging must pool, not average.

    Replication A saw 100 packets at latency 10; replication B saw 90
    at 10 plus a 10-packet tail at 1000.  Per-replication p99s are 10
    and 1000 -- their mean, 505, is a latency *no packet ever had*.
    The pooled sample (200 packets, 5% tail) has p99 = 1000.
    """

    HIST_A = ((10, 100),)
    HIST_B = ((10, 90), (1000, 10))

    def test_mean_of_p99s_is_not_pooled_p99(self):
        per_rep_p99 = [
            pooled_latency_percentile([h], 0.99)
            for h in (self.HIST_A, self.HIST_B)
        ]
        assert per_rep_p99 == [10.0, 1000.0]
        mean_of_p99s = sum(per_rep_p99) / 2
        pooled = pooled_latency_percentile(
            [self.HIST_A, self.HIST_B], 0.99
        )
        assert pooled == 1000.0
        assert mean_of_p99s == 505.0
        assert pooled != mean_of_p99s

    def test_aggregate_uses_pooled_percentiles(self):
        results = [
            _result_with_hist(self.HIST_A),
            _result_with_hist(self.HIST_B),
        ]
        agg = aggregate_replications(results, 0.5, "uniform", "net")
        assert agg.latency_p50 == 10.0
        assert agg.latency_p99 == 1000.0
        assert agg.latency_p999 == 1000.0

    def test_cached_histless_results_pool_to_nan(self):
        results = [_result_with_hist(None), _result_with_hist(None)]
        agg = aggregate_replications(results, 0.5, "uniform", "net")
        assert math.isnan(agg.latency_p99)

    def test_percentiles_excluded_from_equality(self):
        """Warm (cache-replayed, hist-less) and cold aggregates of the
        same point must still compare equal."""
        cold = aggregate_replications(
            [_result_with_hist(self.HIST_A)], 0.5, "uniform", "net"
        )
        warm = aggregate_replications(
            [_result_with_hist(None)], 0.5, "uniform", "net"
        )
        assert cold == warm
        assert cold.latency_p99 == 10.0
        assert math.isnan(warm.latency_p99)

    def test_mixed_none_hists_pool_available(self):
        pooled = pooled_latency_percentile([None, self.HIST_A], 0.5)
        assert pooled == 10.0

    def test_pooled_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            pooled_latency_percentile([self.HIST_A], 2.0)


class TestWorkloadCli:
    def test_incast_smoke(self, capsys):
        from repro.cli import main

        code = main([
            "workload", "--pattern", "incast", "--topology", "cft",
            "--radix", "4", "--levels", "3", "--cycles", "600",
            "--fanin", "4", "--rpc-size", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FCT" in out
        assert "completed" in out

    def test_relaxed_mode_smoke(self, capsys):
        from repro.cli import main

        code = main([
            "workload", "--pattern", "rpc", "--topology", "cft",
            "--radix", "4", "--levels", "3", "--cycles", "600",
            "--rng-mode", "relaxed", "--load", "0.3",
        ])
        assert code == 0
        assert "FCT" in capsys.readouterr().out

    def test_trace_file_written(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        code = main([
            "workload", "--pattern", "incast", "--topology", "cft",
            "--radix", "4", "--levels", "3", "--cycles", "600",
            "--fanin", "4", "--rpc-size", "2", "--trace", str(trace),
        ])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines
        import json

        assert all(
            json.loads(line)["ev"] == "flow_complete" for line in lines
        )
