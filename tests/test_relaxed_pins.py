"""Bit-for-bit pins of the relaxed counter-RNG engine.

The statistical suite (``test_relaxed_rng_equivalence.py``) and the
bench consistency checks only hold the relaxed engine to bands.  These
pins hold it to its own history: every case below must reproduce the
recorded :meth:`SimResult.core_dict` exactly, so a change to how the
engine lays out its tables or state cannot move a single draw unnoticed.

Each case covers one branch of the engine: the uniform-class
exposure, Valiant's via phase, pruned routing tables that drop packets
as unroutable, keyed traffic destinations, multi-round arbitration,
and a flow workload with the tracker and metrics observers attached.  ``rpc_8k`` is the benchmark's
``rpc_8k_relaxed`` run at full size (8192 terminals), with its metrics
export pinned by digest as well.  Every case also pins a digest of the
simulator's post-run channel state (:func:`channel_state_digest`): the
queued packets, the credits, the busy and blocked times and the deepest
injection queue.

Regenerate only on an intentional change to the relaxed engine's
semantics, and say so in the change log::

    for name, build in CASES.items():
        print(name, run_case(build))
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.rfc import rfc_with_updown
from repro.obs.hooks import MetricsObserver, MultiObserver, SimObserver
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.traffic import make_traffic
from repro.topologies.packed import packed_radix_regular_rfc
from repro.workloads.flows import make_workload
from repro.workloads.runner import nominal_load
from repro.workloads.tracker import FlowTracker


def _params(**overrides) -> SimulationParams:
    return SimulationParams(
        measure_cycles=300,
        warmup_cycles=100,
        seed=3,
        rng_mode="relaxed",
        **overrides,
    )


def _rfc():
    topo, _attempts = rfc_with_updown(8, 16, 3, rng=7)
    return topo


def _faulted_links(topo):
    """40 of the RFC's 128 links: enough to make some leaf pairs
    unroutable, so generated packets are dropped at injection."""
    return random.Random(1).sample(topo.links(), 40)


def uniform_rfc():
    topo = _rfc()
    traffic = make_traffic("uniform", topo.num_terminals)
    return Simulator(topo, traffic, 0.6, _params()), None


def valiant_rfc():
    topo = _rfc()
    traffic = make_traffic("uniform", topo.num_terminals)
    return Simulator(topo, traffic, 0.5, _params(valiant=True)), None


def faulted_rfc():
    topo = _rfc()
    traffic = make_traffic("uniform", topo.num_terminals)
    sim = Simulator(topo, traffic, 0.6, _params(), _faulted_links(topo))
    return sim, None


def faulted_valiant_rfc():
    topo = _rfc()
    traffic = make_traffic("uniform", topo.num_terminals)
    params = _params(valiant=True)
    return Simulator(topo, traffic, 0.5, params, _faulted_links(topo)), None


def fixed_random_two_rounds():
    topo = _rfc()
    traffic = make_traffic("fixed-random", topo.num_terminals, rng=11)
    params = _params(arbitration_iterations=2)
    return Simulator(topo, traffic, 0.7, params), None


def rpc_flows_tracked():
    topo = _rfc()
    params = _params()
    workload = make_workload(
        "rpc",
        topo.num_terminals,
        seed=3,
        load=0.5,
        rpc_size=4,
        duration=params.horizon,
    )
    tracker = FlowTracker(workload.flow_schedule)
    observer = MultiObserver([MetricsObserver(), tracker])
    offered = nominal_load(workload, params)
    sim = Simulator(topo, workload, offered, params, observer=observer)
    return sim, tracker


def rpc_8k():
    """The ``rpc_8k_relaxed`` benchmark run: packed RFC(32,512,3), 8192
    terminals, RPC flows at load 0.5 over 50 + 100 cycles, seed 1, with
    the metrics observer and the tracker composed as ``run_workload``
    composes them.  The only case whose per-key tables exceed the small
    RFC's sizes; its metrics export is pinned by digest."""
    params = SimulationParams(
        measure_cycles=100, warmup_cycles=50, seed=1, rng_mode="relaxed"
    )
    topo = packed_radix_regular_rfc(32, 512, 3, rng=1)
    workload = make_workload(
        "rpc",
        topo.num_terminals,
        seed=1,
        load=0.5,
        rpc_size=4,
        duration=params.horizon,
    )
    tracker = FlowTracker(workload.flow_schedule)
    metrics = MetricsObserver()
    observer = MultiObserver([metrics, tracker])
    offered = nominal_load(workload, params)
    sim = Simulator(topo, workload, offered, params, observer=observer)
    return sim, tracker, metrics


CASES = {
    "uniform_rfc": uniform_rfc,
    "valiant_rfc": valiant_rfc,
    "faulted_rfc": faulted_rfc,
    "faulted_valiant_rfc": faulted_valiant_rfc,
    "fixed_random_two_rounds": fixed_random_two_rounds,
    "rpc_flows_tracked": rpc_flows_tracked,
    "rpc_8k": rpc_8k,
}


def channel_state_digest(sim) -> str:
    """sha256 of ``sim``'s post-run channel state: every queued
    ``(ready, Packet)`` entry as ``(ready, serial, hops, via,
    injected)`` in its channel and VC, the credit rows, the busy,
    busy-cycle and blocked times, and ``max_inject_queue``."""
    queues = [
        None
        if fifos is None
        else [
            [
                [ready, p.serial, p.hops, p.via, p.injected]
                for ready, p in fifo
            ]
            for fifo in fifos
        ]
        for fifos in sim.ch_queues
    ]
    state = {
        "queues": queues,
        "slots": sim.ch_slots,
        "busy": sim.ch_busy,
        "busy_cycles": sim.ch_busy_cycles,
        "blocked": sim.ch_blocked,
        "max_inject_queue": sim.max_inject_queue,
    }
    return hashlib.sha256(json.dumps(state).encode()).hexdigest()


def run_case(build) -> dict:
    """``core_dict()`` of one run, plus the flow summary when tracked,
    the sha256 of the metrics export when a builder returns its
    :class:`MetricsObserver` third, and the channel-state digest."""
    sim, tracker, *metrics = build()
    pin = sim.run().core_dict()
    pin["channel_state_sha256"] = channel_state_digest(sim)
    if tracker is not None:
        pin["flow_stats"] = tracker.summary(sim.params.packet_phits)
    if metrics:
        export = json.dumps(metrics[0].export(), sort_keys=True)
        pin["metrics_sha256"] = hashlib.sha256(export.encode()).hexdigest()
    return pin


#: Recorded from the relaxed engine before its route tables moved to
#: the CSR arrays (no per-key list mirror, one int32 candidate matrix).
#: ``channel_state_sha256`` was recorded before the per-VC channel
#: state became lazy (queued packets written back at run end).
PINS: dict[str, dict] = {
    "faulted_rfc": {
        "accepted_load": 0.4125,
        "avg_hops": 2.8646464646464644,
        "avg_latency": 65.51515151515152,
        "channel_state_sha256": (
            "b7f8d62110a5f840488f912e1ddb50dadb4785e6677df00069cb9918f6ebdd34"
        ),
        "delivered_packets": 634,
        "generated_packets": 958,
        "max_latency": 317,
        "measured_packets": 495,
        "offered_load": 0.6,
        "p50_latency": 53.0,
        "p99_latency": 255.0,
        "topology": "RFC(R=8, N1=16, l=3)",
        "traffic": "uniform",
        "unroutable_packets": 131
    },
    "faulted_valiant_rfc": {
        "accepted_load": 0.22,
        "avg_hops": 5.681818181818182,
        "avg_latency": 114.50378787878788,
        "channel_state_sha256": (
            "5194d89f070ae5eb573e0920826b981b8c32e03a7f906f3e0733ed1da28ecd66"
        ),
        "delivered_packets": 335,
        "generated_packets": 788,
        "max_latency": 370,
        "measured_packets": 264,
        "offered_load": 0.5,
        "p50_latency": 100.0,
        "p99_latency": 293.0,
        "topology": "RFC(R=8, N1=16, l=3)",
        "traffic": "uniform",
        "unroutable_packets": 111
    },
    "fixed_random_two_rounds": {
        "accepted_load": 0.42916666666666664,
        "avg_hops": 2.675728155339806,
        "avg_latency": 78.11456310679611,
        "channel_state_sha256": (
            "40544884472d94e8aa662db70bf1744bc1ffef6b9d2be937ecc78bd90ac9892b"
        ),
        "delivered_packets": 679,
        "generated_packets": 1099,
        "max_latency": 352,
        "measured_packets": 515,
        "offered_load": 0.7,
        "p50_latency": 57.0,
        "p99_latency": 267.0,
        "topology": "RFC(R=8, N1=16, l=3)",
        "traffic": "fixed-random",
        "unroutable_packets": 0
    },
    # Recorded before the engine's packets and VC buffers moved to
    # arrays.
    "rpc_8k": {
        "accepted_load": 0.30095703125,
        "avg_hops": 3.262249334804335,
        "avg_latency": 56.25900447790252,
        "channel_state_sha256": (
            "6d6ef0e6be505761ea31772e3406f402d48809861cbdb2a939af8373eccac7cf"
        ),
        "delivered_packets": 20562,
        "flow_stats": {
            "fct_max": 164.0,
            "fct_mean": 86.97100535770564,
            "fct_p50": 82.0,
            "fct_p99": 146.0,
            "fct_p999": 154.0,
            "flows_completed": 3173,
            "flows_dropped": 0,
            "flows_total": 9575,
            "packets": 12692,
            "slowdown_mean": 1.3589219587141506,
            "slowdown_p50": 1.28125,
            "slowdown_p99": 2.28125
        },
        "generated_packets": 38300,
        "max_latency": 148,
        "measured_packets": 15409,
        "metrics_sha256": (
            "b4e22cc61eb90471dfb894ca44852a2252d3c1247def42c33ff021b0deb01aec"
        ),
        "offered_load": 0.5,
        "p50_latency": 52.0,
        "p99_latency": 125.0,
        "topology": "packed-RFC(R=32, N1=512, l=3)",
        "traffic": "flows:rpc",
        "unroutable_packets": 0
    },
    "rpc_flows_tracked": {
        "accepted_load": 0.4008333333333333,
        "avg_hops": 2.8523908523908523,
        "avg_latency": 80.29521829521829,
        "channel_state_sha256": (
            "ae803c0caa64c307e2bfaf07c4c68e46ea895f4db3cbb9455a36b83485eaac3d"
        ),
        "delivered_packets": 585,
        "flow_stats": {
            "fct_max": 304.0,
            "fct_mean": 110.904,
            "fct_p50": 99.0,
            "fct_p99": 230.0,
            "fct_p999": 240.0,
            "flows_completed": 125,
            "flows_dropped": 0,
            "flows_total": 196,
            "packets": 500,
            "slowdown_mean": 1.732875,
            "slowdown_p50": 1.546875,
            "slowdown_p99": 3.59375
        },
        "generated_packets": 784,
        "max_latency": 256,
        "measured_packets": 481,
        "offered_load": 0.5,
        "p50_latency": 69.0,
        "p99_latency": 214.0,
        "topology": "RFC(R=8, N1=16, l=3)",
        "traffic": "flows:rpc",
        "unroutable_packets": 0
    },
    "uniform_rfc": {
        "accepted_load": 0.56,
        "avg_hops": 2.607142857142857,
        "avg_latency": 51.27529761904762,
        "channel_state_sha256": (
            "91828b69577c0cddbd31c27b1cfe30fabb38992b2ef84d4fc8d93cc0a5a6de33"
        ),
        "delivered_packets": 864,
        "generated_packets": 958,
        "max_latency": 241,
        "measured_packets": 672,
        "offered_load": 0.6,
        "p50_latency": 46.0,
        "p99_latency": 134.0,
        "topology": "RFC(R=8, N1=16, l=3)",
        "traffic": "uniform",
        "unroutable_packets": 0
    },
    "valiant_rfc": {
        "accepted_load": 0.37666666666666665,
        "avg_hops": 5.185840707964601,
        "avg_latency": 92.39823008849558,
        "channel_state_sha256": (
            "b68d7921c34119ec018e69a5f5c5c2810df2c088849ff404fbfaede7390a7edd"
        ),
        "delivered_packets": 566,
        "generated_packets": 788,
        "max_latency": 324,
        "measured_packets": 452,
        "offered_load": 0.5,
        "p50_latency": 79.0,
        "p99_latency": 273.0,
        "topology": "RFC(R=8, N1=16, l=3)",
        "traffic": "uniform",
        "unroutable_packets": 0
    }
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_relaxed_run_matches_pin(name):
    assert run_case(CASES[name]) == PINS[name]


class _InjectRecorder(SimObserver):
    """Keeps every packet ``on_inject`` hands out, by serial."""

    def __init__(self) -> None:
        self.packets: dict = {}

    def on_inject(self, time, packet, queue_len) -> None:
        self.packets[packet.serial] = packet


def test_queued_packets_wait_for_a_read_and_reuse_hook_packets():
    """The run leaves its queued packets for the first read of the
    per-VC lists, and that read hands back the packets the hooks saw."""
    sim, _ = uniform_rfc()
    recorder = sim.observer = _InjectRecorder()
    sim.run()
    assert not {"ch_queues", "ch_slots"} & set(vars(sim))
    queued = [
        packet
        for fifos in sim.ch_queues
        if fifos is not None
        for fifo in fifos
        for _ready, packet in fifo
    ]
    assert queued
    assert all(recorder.packets[p.serial] is p for p in queued)
    assert channel_state_digest(sim) == PINS["uniform_rfc"][
        "channel_state_sha256"
    ]


@pytest.mark.parametrize("name", ["valiant_rfc", "rpc_flows_tracked"])
def test_lists_built_before_the_run_take_the_same_end_state(name):
    """Credit lists a reader built before the run seed its credits, and
    the run writes its end state into them at once."""
    sim, *_ = CASES[name]()
    assert all(
        slots == [sim.params.buffer_packets] * sim.params.virtual_channels
        for slots in sim.ch_slots[: sim.n_link_channels]
    )
    sim.run()
    assert sim._buffer_fill is None
    assert channel_state_digest(sim) == PINS[name]["channel_state_sha256"]


def test_faulted_pins_drop_unroutable_packets():
    """The faulted cases really exercise the UNROUTABLE branch."""
    assert PINS["faulted_rfc"]["unroutable_packets"] > 0
    assert PINS["faulted_valiant_rfc"]["unroutable_packets"] > 0
    assert all(
        PINS[name]["unroutable_packets"] == 0
        for name in CASES
        if not name.startswith("faulted")
    )
