"""Hypothesis property tests on the simulation engines.

Small random configurations checked for the invariants that must hold
regardless of parameters: packet conservation, capacity bounds, and
routing legality.  The second half holds every engine to the same
contracts:

* **Packet conservation, callback by callback** -- an observer tallies
  inject/eject/drop callbacks as they fire and demands the in-flight
  count never goes negative and callback times never run backwards;
  at run end the full balance must close: every generated packet is
  delivered, still queued somewhere in the network, or dropped as
  unroutable.  Checked on the fast and relaxed engines, on small
  random configurations and once each at the benchmark sizes.
* **Credit and buffer bounds** -- in the same runs, every hop leaves
  its downstream VC with ``0 <= slots_left`` and at most
  ``buffer_packets`` queued packets, and after the run every link VC
  holds ``len(queue) + slots <= buffer_packets`` (credits in flight
  make up the difference).  This is the bound that lets a plain list
  serve as a VC buffer.
* **Up/down turns** -- on folded Clos runs, every hop moves exactly
  one level and no packet ascends after it has descended.  The check
  keys each packet's last step by the packet object, so it also counts
  the hops whose previous step was on record: at least one per
  delivered multi-hop packet, which fails loudly if an engine ever
  handed hooks a fresh object per hop.
* **Arbitration stability under input-unit permutation** -- permuting
  the per-switch input-unit order changes which packets the shared
  RNG stream favors, so it changes results; but it must change them
  *identically* in both exact engines.
* **Blocked-head skips** -- on credit-bound configurations (one-packet
  buffers, one or two VCs), where the fast engine skips blocked heads
  until their wake cycle, both exact engines produce the same results,
  busy-cycle counters and traced event stream.
* **Exception parity** -- malformed configurations raise the same
  validation errors whatever ``rng_mode`` (engine) they select, and a
  traffic pattern that blows up mid-run propagates the same exception
  at the same generation point through both exact engines.

"Both exact engines" are the shipped fast engine and the reference
engine of ``oracle_engine.py``.
"""

import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_engine import run_on

from repro.core.rfc import radix_regular_rfc, rfc_with_updown
from repro.core.ancestors import has_updown_routing_of
from repro.obs import TraceWriter, TracingObserver
from repro.obs.hooks import SimObserver
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.traffic import TrafficPattern, make_traffic
from repro.topologies.packed import packed_radix_regular_rfc
from repro.workloads import make_workload
from repro.workloads.runner import nominal_load

engine_configs = st.fixed_dictionaries(
    {
        "radix": st.sampled_from([4, 6, 8]),
        "n1": st.sampled_from([8, 12, 16]),
        "load": st.floats(min_value=0.1, max_value=1.0),
        "vcs": st.integers(min_value=1, max_value=4),
        "buffers": st.integers(min_value=1, max_value=4),
        "phits": st.sampled_from([1, 4, 16]),
        "latency": st.integers(min_value=1, max_value=3),
        "traffic": st.sampled_from(
            ["uniform", "random-pairing", "fixed-random"]
        ),
        "seed": st.integers(min_value=0, max_value=1_000),
    }
)


def build(config, engine="fast", observer=None):
    """``engine`` is ``"reference"``, ``"fast"`` or ``"relaxed"``."""
    topo = radix_regular_rfc(
        config["radix"], config["n1"], 2, rng=config["seed"]
    )
    params = SimulationParams(
        measure_cycles=200,
        warmup_cycles=50,
        virtual_channels=config["vcs"],
        buffer_packets=config["buffers"],
        packet_phits=config["phits"],
        link_latency=config["latency"],
        seed=config["seed"],
        rng_mode="relaxed" if engine == "relaxed" else "exact",
    )
    traffic = make_traffic(
        config["traffic"], topo.num_terminals, rng=config["seed"] + 1
    )
    sim = Simulator(topo, traffic, config["load"], params, observer=observer)
    return topo, sim


@settings(max_examples=25, deadline=None)
@given(config=engine_configs)
def test_packet_conservation(config):
    topo, sim = build(config)
    result = sim.run()
    assert result.delivered_packets + sim.unroutable_packets <= (
        result.generated_packets
    )
    assert result.measured_packets <= result.delivered_packets


@settings(max_examples=25, deadline=None)
@given(config=engine_configs)
def test_capacity_bounds(config):
    topo, sim = build(config)
    result = sim.run()
    assert 0.0 <= result.accepted_load <= 1.0 + 1e-9
    util = sim.link_utilization()
    assert util["max"] <= 1.0 + 1e-9


@settings(max_examples=15, deadline=None)
@given(config=engine_configs)
def test_no_unroutable_when_routable(config):
    topo, sim = build(config)
    if not has_updown_routing_of(topo):
        return
    sim.run()
    assert sim.unroutable_packets == 0


@settings(max_examples=10, deadline=None)
@given(config=engine_configs)
def test_latency_at_least_serialization(config):
    """No delivered packet can beat pure serialization latency."""
    topo, sim = build(config)
    result = sim.run()
    if result.measured_packets == 0:
        return
    min_latency = config["latency"] + config["phits"] - 1
    assert result.p50_latency >= min_latency


class ConservationObserver(SimObserver):
    """Asserts the in-flight balance and the credit bounds at every
    callback.

    With ``level_offsets`` set (a folded Clos simulator's first switch
    id per level), every hop must also move exactly one level, and no
    packet may ascend after it has descended: the up/down routes are
    acyclic.  ``known_steps`` counts the hops whose previous step was
    on record and ``multi_hop_ejects`` the delivered packets that took
    more than one hop (:func:`assert_steps_tracked`).
    """

    def __init__(self, buffer_packets):
        self.buffer_packets = buffer_packets
        self.level_offsets = None
        self.last_step = {}
        self.known_steps = 0
        self.multi_hop_ejects = 0
        self.hops = 0
        self.injected = 0
        self.ejected = 0
        self.dropped = 0
        self.last_time = 0

    def _tick(self, time):
        assert time >= self.last_time, "callback time ran backwards"
        self.last_time = time
        in_flight = self.injected - self.ejected
        assert in_flight >= 0, "more ejections than injections"

    def on_inject(self, time, packet, queue_len):
        self.injected += 1
        self._tick(time)

    def on_eject(self, time, packet, latency, phits):
        self.ejected += 1
        if packet.hops > 1:
            self.multi_hop_ejects += 1
        self.last_step.pop(packet, None)
        self._tick(time)

    def on_hop(self, time, packet, switch, downstream, vc, slots_left,
               queue_len):
        self.hops += 1
        self._tick(time)
        assert 0 <= slots_left, "granted a VC without credit"
        assert 1 <= queue_len <= self.buffer_packets, "VC buffer overflow"
        assert queue_len + slots_left <= self.buffer_packets
        if self.level_offsets is not None:
            step = (bisect_right(self.level_offsets, downstream)
                    - bisect_right(self.level_offsets, switch))
            assert step in (1, -1), "hop does not move exactly one level"
            previous = self.last_step.get(packet)
            if previous is not None:
                self.known_steps += 1
            assert not (step == 1 and previous == -1), (
                "packet ascended after descending"
            )
            self.last_step[packet] = step

    def on_drop(self, time, terminal, packet):
        self.dropped += 1
        self.last_step.pop(packet, None)
        self._tick(time)


def queued_packets(sim):
    """Packets still sitting in any (channel, vc) queue post-run."""
    return sum(
        len(queue)
        for queues in sim.ch_queues
        if queues is not None  # eject channels keep no queue
        for queue in queues
    )


def assert_credit_bounds(sim):
    """Every link VC's queued packets plus its credits fit the buffer."""
    bound = sim.params.buffer_packets
    for queues, slots in zip(sim.ch_queues, sim.ch_slots):
        if slots is None:
            continue  # inject/eject channels carry no credits
        for queue, free in zip(queues, slots, strict=True):
            assert 0 <= free and len(queue) + free <= bound


def assert_steps_tracked(obs):
    """The up/down check compared real step sequences: every delivered
    packet that took more than one hop had a previous step on record
    at least once, so a fresh packet object per hop (which would make
    the "ascended after descending" assertion vacuous) fails here."""
    assert obs.known_steps > 0
    assert obs.known_steps >= obs.multi_hop_ejects


def assert_conserved(sim, obs, result):
    assert_credit_bounds(sim)
    # Callback tallies agree with the aggregate counters...
    assert obs.ejected == result.delivered_packets
    assert obs.dropped == sim.unroutable_packets
    # ...and the end-of-run balance closes exactly: generated packets
    # are delivered, still in the network, or dropped.
    assert result.generated_packets == (
        result.delivered_packets + queued_packets(sim) + sim.unroutable_packets
    )


@pytest.mark.parametrize("engine", ["fast", "relaxed"])
@settings(max_examples=25, deadline=None)
@given(config=engine_configs)
def test_packet_conservation_every_cycle(engine, config):
    obs = ConservationObserver(config["buffers"])
    _, sim = build(config, engine, observer=obs)
    obs.level_offsets = sim.level_offsets
    assert_conserved(sim, obs, sim.run())
    assert_steps_tracked(obs)


def test_packet_conservation_at_uniform_bench_size():
    """RFC(16,256,3), 2048 terminals, uniform load 0.7 on the fast
    engine -- the ``uniform_2k_exact`` benchmark run."""
    topo, _ = rfc_with_updown(16, 256, 3, rng=1)
    params = SimulationParams(measure_cycles=100, warmup_cycles=100, seed=1)
    obs = ConservationObserver(params.buffer_packets)
    sim = Simulator(
        topo, make_traffic("uniform", topo.num_terminals, rng=1), 0.7,
        params, observer=obs,
    )
    obs.level_offsets = sim.level_offsets
    result = sim.run()
    assert result.delivered_packets > 10_000
    assert obs.hops > result.delivered_packets
    assert_conserved(sim, obs, result)
    assert obs.multi_hop_ejects > 0
    assert_steps_tracked(obs)


def test_packet_conservation_at_rpc_bench_size():
    """Packed RFC(32,512,3), 8192 terminals, RPC flows on the relaxed
    engine -- the ``rpc_8k_relaxed`` benchmark run."""
    params = SimulationParams(
        measure_cycles=100, warmup_cycles=50, seed=1, rng_mode="relaxed"
    )
    topo = packed_radix_regular_rfc(32, 512, 3, rng=1)
    workload = make_workload(
        "rpc", topo.num_terminals, seed=1, load=0.5, rpc_size=4,
        duration=params.horizon,
    )
    obs = ConservationObserver(params.buffer_packets)
    sim = Simulator(
        topo, workload, nominal_load(workload, params), params, observer=obs
    )
    obs.level_offsets = sim.level_offsets
    result = sim.run()
    assert result.delivered_packets > 10_000
    assert obs.hops > result.delivered_packets
    assert_conserved(sim, obs, result)
    assert obs.multi_hop_ejects > 0
    assert_steps_tracked(obs)


@pytest.mark.parametrize("arbiter", ["random", "rotating"])
@settings(max_examples=15, deadline=None)
@given(
    config=engine_configs,
    perm_seed=st.integers(min_value=0, max_value=1_000),
)
def test_arbitration_stable_under_unit_permutation(config, perm_seed, arbiter):
    results = []
    for engine in ("reference", "fast"):
        _, sim = build(config, engine)
        sim.params = sim.params.scaled(arbiter=arbiter)
        # Shuffle each switch's input-unit scan order the same way in
        # both engines; results may differ from the unshuffled run but
        # must stay identical across engines.
        shuffler = random.Random(perm_seed)
        for row in sim.in_units:
            shuffler.shuffle(row)
        results.append((run_on(sim, engine), sim.ch_busy_cycles))
    assert results[0] == results[1]


credit_bound_configs = st.fixed_dictionaries(
    {
        "radix": st.sampled_from([4, 6, 8]),
        "n1": st.sampled_from([8, 12, 16]),
        "levels": st.sampled_from([2, 3]),
        "load": st.floats(min_value=0.3, max_value=1.0),
        "vcs": st.integers(min_value=1, max_value=2),
        "phits": st.sampled_from([1, 4]),
        "latency": st.integers(min_value=1, max_value=3),
        "iterations": st.integers(min_value=1, max_value=3),
        "arbiter": st.sampled_from(["random", "rotating"]),
        "up_selection": st.sampled_from(["random", "adaptive"]),
        "valiant": st.booleans(),
        "traffic": st.sampled_from(["uniform", "fixed-random"]),
        "seed": st.integers(min_value=0, max_value=1_000),
        "perm_seed": st.integers(min_value=0, max_value=1_000),
    }
)


@settings(max_examples=30, deadline=None)
@given(config=credit_bound_configs)
def test_blocked_head_skips_match_reference(config):
    """One-packet buffers keep heads blocked on busy outputs and on
    missing credits at once, which is where the fast engine skips a
    head until its wake cycle (a credit-starved head must never be
    skipped).  Results, busy-cycle counters and the full event stream,
    arbitration records included, must match the reference, on
    shuffled input units."""
    topo = radix_regular_rfc(
        config["radix"], config["n1"], config["levels"], rng=config["seed"]
    )
    params = SimulationParams(
        measure_cycles=200,
        warmup_cycles=50,
        virtual_channels=config["vcs"],
        buffer_packets=1,
        packet_phits=config["phits"],
        link_latency=config["latency"],
        arbitration_iterations=config["iterations"],
        arbiter=config["arbiter"],
        up_selection=config["up_selection"],
        valiant=config["valiant"] and config["vcs"] >= 2,
        seed=config["seed"],
    )
    outcomes = []
    for engine in ("reference", "fast"):
        writer = TraceWriter(None)
        traffic = make_traffic(
            config["traffic"], topo.num_terminals, rng=config["seed"] + 1
        )
        sim = Simulator(
            topo, traffic, config["load"], params,
            observer=TracingObserver(writer, include_arb=True),
        )
        shuffler = random.Random(config["perm_seed"])
        for row in sim.in_units:
            shuffler.shuffle(row)
        result = run_on(sim, engine)
        outcomes.append((result, sim.ch_busy_cycles, writer.records()))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=25, deadline=None)
@given(
    mode=st.sampled_from(["exact", "relaxed"]),
    field=st.sampled_from(
        [
            {"measure_cycles": 0},
            {"warmup_cycles": -1},
            {"virtual_channels": 0},
            {"buffer_packets": 0},
            {"packet_phits": 0},
            {"link_latency": 0},
            {"arbitration_iterations": 0},
            {"up_selection": "greedy"},
            {"arbiter": "fifo"},
            {"valiant": True, "virtual_channels": 1},
            {"rng_mode": "turbo"},
        ]
    ),
)
def test_malformed_config_parity(mode, field):
    """Validation failures are engine-independent: same exception
    type and message whatever ``rng_mode`` the config also selects."""
    with pytest.raises(ValueError) as exc_info:
        SimulationParams(**{"rng_mode": mode, **field})
    if "rng_mode" in field:
        return  # the engine string itself was the malformed field
    with pytest.raises(ValueError) as exc_info2:
        SimulationParams(**field)
    assert str(exc_info2.value) == str(exc_info.value)


class ExplodingTraffic(TrafficPattern):
    """Uniform-ish traffic that raises after a fixed number of draws."""

    name = "exploding"

    def __init__(self, num_terminals, fuse):
        super().__init__(num_terminals)
        self.fuse = fuse
        self.calls = 0

    def destination(self, source, rng):
        self.calls += 1
        if self.calls > self.fuse:
            raise RuntimeError(f"traffic exploded after {self.fuse} draws")
        dest = rng.randrange(self.num_terminals - 1)
        return dest if dest < source else dest + 1


@settings(max_examples=15, deadline=None)
@given(
    fuse=st.integers(min_value=0, max_value=120),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_midrun_exception_parity(fuse, seed):
    """A traffic pattern that blows up mid-run must surface the same
    exception from both exact engines, at the same generation point."""
    outcomes = []
    for engine in ("reference", "fast"):
        topo = radix_regular_rfc(4, 8, 2, rng=seed)
        params = SimulationParams(
            measure_cycles=150, warmup_cycles=0, seed=seed
        )
        traffic = ExplodingTraffic(topo.num_terminals, fuse)
        sim = Simulator(topo, traffic, 0.5, params)
        try:
            run_on(sim, engine)
            outcomes.append(("completed", traffic.calls))
        except RuntimeError as exc:
            outcomes.append(
                (str(exc), traffic.calls, sim._stats.generated_packets)
            )
    assert outcomes[0] == outcomes[1]
