"""Tests of the benchmark itself, on small topologies.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from repro.core.rfc import rfc_with_updown
from repro.obs.hooks import MetricsObserver
from repro.simulation.engine import Simulator, simulate
from repro.simulation.traffic import UniformTraffic
from repro.topologies.packed import packed_radix_regular_rfc
from repro.workloads.flows import make_workload
from repro.workloads.runner import run_workload
from spans import SpanRecorder, Tracer, Wrap
from workloads import (
    WORKLOADS,
    Checks,
    FaultAnalysis,
    RpcRelaxed,
    UniformExact,
    repetition,
)

SEED = 3
SMALL_UNIFORM = UniformExact(radix=8, n1=32, warmup_cycles=20, measure_cycles=40)
SMALL_RPC = RpcRelaxed(radix=8, n1=32, warmup_cycles=20, measure_cycles=40)
SMALL_FAULTS = FaultAnalysis(radix=8, n1=32)


def test_exact_run_with_prebuilt_table_equals_simulate():
    result = SMALL_UNIFORM.run(SMALL_UNIFORM.setup(SEED))
    topo, _ = rfc_with_updown(8, 32, 3, rng=SEED)
    expected = simulate(
        topo,
        UniformTraffic(topo.num_terminals),
        SMALL_UNIFORM.load,
        SMALL_UNIFORM.params(SEED),
    )
    assert result == expected


def test_composed_relaxed_run_equals_run_workload():
    result = SMALL_RPC.run(SMALL_RPC.setup(SEED))
    params = SMALL_RPC.params(SEED)
    topo = packed_radix_regular_rfc(8, 32, 3, rng=SEED)
    workload = make_workload(
        "rpc",
        topo.num_terminals,
        seed=SEED,
        load=SMALL_RPC.load,
        rpc_size=SMALL_RPC.rpc_size,
        duration=params.horizon,
    )
    expected = run_workload(topo, workload, params, observer=MetricsObserver())
    assert result == expected
    assert json.dumps(result.flow_stats, sort_keys=True) == json.dumps(
        expected.flow_stats, sort_keys=True
    )


@pytest.mark.parametrize(
    "workload, spans",
    [
        (
            SMALL_UNIFORM,
            {"core.rfc.generate", "simulation.engine.init",
             "simulation.fastpath.table", "simulation.fastpath.loop"},
        ),
        (
            SMALL_RPC,
            {"topologies.packed.generate", "workloads.flows.schedule",
             "accel.relaxed.candidates", "accel.relaxed.loop",
             "workloads.tracker.summary", "obs.hooks.export"},
        ),
        (
            SMALL_FAULTS,
            {"faults.removal.shuffle", "core.ancestors.sweeper",
             "accel.sweeps.coverage", "faults.updown_survival.threshold",
             "accel.sweeps.probe"},
        ),
    ],
    ids=["uniform", "rpc", "faults"],
)
def test_traced_run_equals_untraced_run(workload, spans):
    original_run = Simulator.run
    *_, untraced = repetition(workload, SEED, Checks())
    tracer = Tracer()
    with tracer.installed():
        rec = tracer.start("traced")
        *_, traced = repetition(workload, SEED, Checks(), rec.span)
    assert traced == untraced
    assert tracer.absent == []
    assert spans <= {name for name, *_ in rec.spans}
    assert Simulator.run is original_run


def test_rpc_counts_are_recorded():
    tracer = Tracer()
    with tracer.installed():
        rec = tracer.start("traced")
        repetition(SMALL_RPC, SEED, Checks(), rec.span)
    counts = rec.counts
    assert counts["obs.hooks.on_arbitrate_calls"] > 0
    assert counts["obs.hooks.on_hop_calls"] > 0
    assert 0 < counts["arb.grants"] <= counts["arb.requests"]
    assert counts["workloads.flows.flows"] > 0
    assert counts["simulation.delivered_packets"] > 0


def test_fault_workload_checks_pass():
    checks = Checks()
    repetition(SMALL_FAULTS, SEED, checks)
    assert checks.failures == []
    assert checks.attempted == 3


def test_missing_wrap_target_is_reported_absent():
    tracer = Tracer(
        (
            Wrap("repro.no_such_module:function", "gone.module"),
            Wrap("repro.core.rfc:no_such_function", "gone.function"),
            Wrap("repro.simulation.engine:Simulator.no_such_method", "gone.method"),
        )
    )
    with tracer.installed():
        pass
    assert tracer.absent == [
        "repro.no_such_module:function",
        "repro.core.rfc:no_such_function",
        "repro.simulation.engine:Simulator.no_such_method",
    ]


def test_self_time_subtracts_children():
    rec = SpanRecorder("test")
    rec.spans = [
        ["outer", 0.0, 10.0, None],
        ["inner", 1.0, 4.0, 0],
        ["inner", 5.0, 6.0, 0],
        ["leaf", 2.0, 3.0, 1],
    ]
    assert rec.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert rec.top_level_seconds() == 10.0


def test_benchmark_json_matches_the_code():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: entry.why for name, entry in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS
