"""The benchmark's three workloads: inputs, the measured call, and checks.

Each workload is a frozen dataclass whose fields fix its size; the
benchmark uses the defaults and the tests build small instances.

* :meth:`setup` builds every input from the seed -- topology, traffic or
  flow schedule, failure order -- and, for the simulators, the
  ``Simulator`` and its candidate tables.  It is timed as ``setup_s``.
* :meth:`measure` makes the measured calls and checks their outputs.  It
  is timed as ``wall_s`` and returns a fingerprint of the outputs, which
  must be identical across repetitions of one seed.

Public ``repro`` callables are looked up through their modules at call
time (``fastpath.build_candidate_table``, not a name bound at import),
so the traced run's wrappers (:mod:`spans`) see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, ContextManager

from repro.accel import relaxed
from repro.core import ancestors, rfc
from repro.faults import removal, updown_survival
from repro.obs.hooks import MetricsObserver, MultiObserver
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation import fastpath
from repro.simulation.traffic import UniformTraffic
from repro.topologies import packed
from repro.workloads import flows
from repro.workloads.runner import nominal_load
from repro.workloads.tracker import FlowTracker

#: Opens a named span (traced run) or does nothing (untraced run).
SpanFn = Callable[[str], ContextManager[None]]


def no_span(name: str) -> ContextManager[None]:
    return contextlib.nullcontext()


class Checks:
    """Output checks of one run; each failed check is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def _check_sim(checks: Checks, result, offered: float) -> None:
    """Seed-independent checks on one :class:`SimResult`."""
    checks.expect(
        "conservation",
        result.delivered_packets + result.unroutable_packets
        <= result.generated_packets
        and result.measured_packets <= result.delivered_packets,
    )
    checks.expect("delivered", result.delivered_packets > 0)
    # Short horizons end with the network still filling, so accepted
    # load sits below offered; far below or above it means lost or
    # invented packets.
    checks.expect(
        "accepted-load-band",
        0.4 * offered <= result.accepted_load <= 1.05 * offered,
    )


def repetition(workload, seed: int, checks: Checks, span: SpanFn = no_span):
    """One set-up plus measured phase: ``(setup_s, wall_s, fingerprint)``."""
    gc.collect()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    t1 = time.perf_counter()
    fingerprint = workload.measure(state, checks, span)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, fingerprint


@dataclass(frozen=True)
class UniformExact:
    """Paper §6 method on the exact engine: uniform Bernoulli traffic."""

    radix: int = 16
    n1: int = 256
    levels: int = 3
    load: float = 0.7
    warmup_cycles: int = 100
    measure_cycles: int = 100

    #: Default-seed result of the benchmark-sized run, recorded from the
    #: exact engine; any change to it is a behaviour change.
    PINNED_SEED = 1
    PINNED = {
        "accepted_load": 0.590234375,
        "avg_latency": 55.68590337524818,
        "p99_latency": 127.0,
        "delivered_packets": 13290,
    }

    def params(self, seed: int) -> SimulationParams:
        return SimulationParams(
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            seed=seed,
        )

    def setup(self, seed: int) -> dict:
        topo, _attempts = rfc.rfc_with_updown(
            self.radix, self.n1, self.levels, rng=seed
        )
        traffic = UniformTraffic(topo.num_terminals)
        sim = Simulator(topo, traffic, self.load, self.params(seed))
        fastpath.build_candidate_table(sim)
        return {"sim": sim, "seed": seed}

    def run(self, state: dict):
        return state["sim"].run()

    def measure(self, state: dict, checks: Checks, span: SpanFn = no_span):
        result = self.run(state)
        with span("bench.check"):
            _check_sim(checks, result, self.load)
            if state["seed"] == self.PINNED_SEED and self == UniformExact():
                for field, value in self.PINNED.items():
                    checks.expect(
                        f"pinned-{field}", getattr(result, field) == value
                    )
        return result


@dataclass(frozen=True)
class RpcRelaxed:
    """RPC flows on the relaxed engine with the tracker and metrics on.

    The observers are composed exactly as
    ``run_workload(observer=MetricsObserver())`` composes them;
    ``metrics=False`` leaves the tracker alone, the baseline for the
    metrics layer's overhead.
    """

    radix: int = 32
    n1: int = 512
    levels: int = 3
    load: float = 0.5
    rpc_size: int = 4
    warmup_cycles: int = 50
    measure_cycles: int = 100
    metrics: bool = True

    def params(self, seed: int) -> SimulationParams:
        return SimulationParams(
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            seed=seed,
            rng_mode="relaxed",
        )

    def setup(self, seed: int) -> dict:
        params = self.params(seed)
        topo = packed.packed_radix_regular_rfc(
            self.radix, self.n1, self.levels, rng=seed
        )
        # Flows start across the simulated horizon, not the generator's
        # default 2000 cycles, so the offered load reaches the network.
        workload = flows.make_workload(
            "rpc",
            topo.num_terminals,
            seed=seed,
            load=self.load,
            rpc_size=self.rpc_size,
            duration=params.horizon,
        )
        tracker = FlowTracker(workload.flow_schedule)
        observer = MetricsObserver() if self.metrics else None
        composed = tracker if observer is None else MultiObserver(
            [observer, tracker]
        )
        offered = nominal_load(workload, params)
        sim = Simulator(topo, workload, offered, params, observer=composed)
        fastpath.build_candidate_table(sim)
        relaxed.build_relaxed_candidates(sim)
        return {
            "sim": sim,
            "tracker": tracker,
            "observer": observer,
            "offered": offered,
        }

    def run(self, state: dict):
        sim = state["sim"]
        result = sim.run()
        summary = state["tracker"].summary(sim.params.packet_phits)
        return dataclasses.replace(result, flow_stats=summary)

    def measure(self, state: dict, checks: Checks, span: SpanFn = no_span):
        result = self.run(state)
        observer = state["observer"]
        export = observer.export() if observer is not None else None
        with span("bench.check"):
            _check_sim(checks, result, state["offered"])
            stats = result.flow_stats
            checks.expect(
                "flows-completed-le-flows",
                0 < stats["flows_completed"] <= stats["flows_total"],
            )
            checks.expect(
                "flow-packets-le-delivered",
                stats["packets"] <= result.delivered_packets,
            )
            if export is not None:
                counters = export["counters"]
                checks.expect(
                    "metrics-inject-count",
                    counters.get("inject.packets") == result.generated_packets,
                )
                checks.expect(
                    "metrics-eject-count",
                    counters.get("eject.packets") == result.delivered_packets,
                )
        # NaN-safe, order-stable fingerprint of the side channels too.
        return result, json.dumps(stats, sort_keys=True)


@dataclass(frozen=True)
class FaultAnalysis:
    """Theorem 4.2 coverage and one Fig. 11 failure order, no simulator."""

    radix: int = 64
    n1: int = 4096
    levels: int = 3

    def setup(self, seed: int) -> dict:
        topo = packed.packed_radix_regular_rfc(
            self.radix, self.n1, self.levels, rng=seed
        )
        order = removal.shuffled_links(topo, rng=seed)
        return {"topo": topo, "order": order}

    def run(self, state: dict, span: SpanFn = no_span) -> tuple:
        topo = state["topo"]
        sweeper = ancestors.sweeper_of(topo)
        with span("accel.sweeps.coverage"):
            fraction = sweeper.reachable_fraction()
            routable = sweeper.has_updown()
        threshold = updown_survival.order_threshold(topo, state["order"])
        return fraction, routable, threshold

    def measure(self, state: dict, checks: Checks, span: SpanFn = no_span):
        fraction, routable, threshold = self.run(state, span)
        with span("bench.check"):
            checks.expect("coverage-fraction-1", fraction == 1.0)
            checks.expect("updown-routable", routable is True)
            checks.expect(
                "threshold-in-range", 0 < threshold < len(state["order"])
            )
        return fraction, routable, threshold


@dataclass(frozen=True)
class Spec:
    """A named workload: its sizes, why it exists, what it exercises."""

    workload: Any
    why: str
    #: Workload measured for the metrics layer's overhead, or ``None``.
    baseline: Any = None


WORKLOADS: dict[str, Spec] = {
    "uniform_2k_exact": Spec(
        UniformExact(),
        "Paper section 6 uniform traffic at load 0.7 on the bit-for-bit "
        "exact engine, 2048 terminals; bypasses relaxed, workloads, obs "
        "and analysis",
    ),
    "rpc_8k_relaxed": Spec(
        RpcRelaxed(),
        "RPC flows on the relaxed engine with tracker and metrics, 8192 "
        "terminals; table build dominates set-up; only workload with the "
        "workloads and obs layers",
        baseline=RpcRelaxed(metrics=False),
    ),
    "rfc_131k_faults": Spec(
        FaultAnalysis(),
        "Up/down coverage and one Fig. 11 failure-order threshold on a "
        "131072-terminal packed RFC; analysis stack only, no simulator",
    ),
}
