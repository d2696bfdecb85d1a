"""Open-loop flow/RPC workload generation.

The paper evaluates topologies under per-packet synthetic patterns
(:mod:`repro.simulation.traffic`); datacenter services are judged on
**flow completion time** under realistic arrival processes -- the
methodology Jellyfish used to make random topologies credible and the
one incast/elephant-mice studies stress for flat fabrics.  This module
provides that layer:

* a :class:`Flow` is ``size`` packets from one source terminal to one
  destination, all released into the source's (unbounded) injection
  queue at the flow's ``start`` cycle -- the classic open-loop model
  where the NIC serializes at ``packet_phits`` cycles per packet;
* a :class:`FlowSchedule` pins the complete workload before the run:
  packet serials are pre-assigned in a canonical engine-independent
  order, so every engine releases the *same* packets and a serial
  identifies its flow without any engine cooperation;
* generators (:func:`poisson_flows`, :func:`incast_flows`,
  :func:`shuffle_flows`) build schedules from a single integer seed
  via a private ``random.Random`` -- workload randomness never touches
  the engine RNG stream;
* :class:`FlowTraffic` adapts a schedule to the simulator's traffic
  interface.  Engines detect the ``flow_schedule`` attribute and
  switch from Bernoulli generation to scheduled release; in the exact
  engines flow mode consumes **no** RNG for arrivals or destinations,
  so reference and fast stay bit-for-bit identical
  (``tests/test_workload_differential.py``).

Size distributions are small objects with ``sample(rng)`` and an
(approximate) ``mean`` used only to calibrate arrival rates to a
target offered load.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass

import numpy as np

from ..simulation.traffic import TrafficPattern

__all__ = [
    "Flow",
    "FlowSchedule",
    "FlowTraffic",
    "FixedRpcSizes",
    "LognormalMixSizes",
    "ShuffleSizes",
    "WORKLOAD_NAMES",
    "incast_flows",
    "make_workload",
    "poisson_flows",
    "shuffle_flows",
    "workload_from_spec",
    "workload_spec",
]

WORKLOAD_NAMES = ("poisson-mix", "rpc", "shuffle", "incast")


@dataclass(frozen=True)
class Flow:
    """One open-loop flow: ``size`` packets ``src -> dst`` at ``start``."""

    flow_id: int
    src: int
    dst: int
    size: int
    start: int


class FlowSchedule:
    """A fixed, fully materialized workload for one simulation run.

    Serial assignment is the schedule's one engine-facing contract:
    flows are ordered by ``(start, flow_id)`` and each flow's packets
    get consecutive serials in that order.  Every engine creates
    packets with these pre-assigned serials, so
    :attr:`flow_of_serial` maps a delivered packet back to its flow
    regardless of which engine ran (and of arbitration order).
    """

    def __init__(
        self,
        flows,
        num_terminals: int,
        offered_load: float | None = None,
    ) -> None:
        ordered = sorted(flows, key=lambda f: (f.start, f.flow_id))
        seen: set[int] = set()
        for flow in ordered:
            if not 0 <= flow.src < num_terminals:
                raise ValueError(f"flow {flow.flow_id}: bad src {flow.src}")
            if not 0 <= flow.dst < num_terminals:
                raise ValueError(f"flow {flow.flow_id}: bad dst {flow.dst}")
            if flow.src == flow.dst:
                raise ValueError(
                    f"flow {flow.flow_id}: src == dst == {flow.src}"
                )
            if flow.size < 1:
                raise ValueError(f"flow {flow.flow_id}: empty flow")
            if flow.start < 0:
                raise ValueError(f"flow {flow.flow_id}: negative start")
            if flow.flow_id in seen:
                raise ValueError(f"duplicate flow id {flow.flow_id}")
            seen.add(flow.flow_id)
        self.flows: tuple[Flow, ...] = tuple(ordered)
        self.num_terminals = num_terminals
        self.offered_load = offered_load
        self.total_packets = sum(f.size for f in ordered)
        #: serial -> index into :attr:`flows`.
        flow_of_serial = array("q", bytes(8 * self.total_packets))
        #: Per-terminal release entries ``(start, dst, serial)``, sorted
        #: by (start, serial) -- the exact engines walk these.
        self.releases: list[list[tuple[int, int, int]]] = [
            [] for _ in range(num_terminals)
        ]
        serial = 0
        for index, flow in enumerate(ordered):
            row = self.releases[flow.src]
            for _ in range(flow.size):
                flow_of_serial[serial] = index
                row.append((flow.start, flow.dst, serial))
                serial += 1
        self.flow_of_serial = flow_of_serial

    def __len__(self) -> int:
        return len(self.flows)

    def flow_of(self, serial: int) -> Flow:
        """The flow a packet serial belongs to."""
        return self.flows[self.flow_of_serial[serial]]

    def arrival_lists(
        self, horizon: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat per-packet arrival arrays for the relaxed engine.

        Returns ``(times, terminals, dsts, serials)``, four int64 arrays
        sorted by ``(time, terminal, serial)`` -- the relaxed engine's
        arrival ordering (time-major, then terminal, mirroring its
        Bernoulli ``lexsort``), truncated at ``horizon``.
        """
        columns = np.array(
            [(f.start, f.src, f.dst, f.size) for f in self.flows],
            dtype=np.int64,
        ).reshape(-1, 4)
        sizes = columns[:, 3]
        # Each flow's packets hold consecutive serials in flow order.
        time, terminal, dst = (np.repeat(columns[:, k], sizes) for k in range(3))
        serial = np.arange(len(time), dtype=np.int64)
        kept = np.flatnonzero(time <= horizon)
        order = kept[np.lexsort((serial[kept], terminal[kept], time[kept]))]
        return time[order], terminal[order], dst[order], serial[order]

    def estimated_load(self, packet_phits: int, horizon: int) -> float:
        """Offered phits per terminal per cycle implied by the schedule."""
        if horizon <= 0 or self.num_terminals <= 0:
            return 0.0
        return (
            self.total_packets
            * packet_phits
            / (self.num_terminals * horizon)
        )


class FlowTraffic(TrafficPattern):
    """Adapter presenting a :class:`FlowSchedule` as a traffic pattern.

    Engines duck-type on the :attr:`flow_schedule` attribute and
    bypass :meth:`destination` entirely; calling it is a contract
    violation surfaced as ``LookupError`` (the "terminal stops
    generating" signal), so a schedule accidentally driven through the
    Bernoulli path generates nothing instead of garbage.
    """

    name = "flows"

    def __init__(self, schedule: FlowSchedule, name: str = "flows") -> None:
        super().__init__(schedule.num_terminals)
        self.flow_schedule = schedule
        self.name = name

    def destination(self, source: int, rng: random.Random) -> int:
        raise LookupError(
            "flow workloads release scheduled packets; destination() "
            "is never drawn"
        )


# ---------------------------------------------------------------------------
# Size distributions
# ---------------------------------------------------------------------------
class FixedRpcSizes:
    """Constant-size request/response RPCs."""

    def __init__(self, size: int = 4) -> None:
        if size < 1:
            raise ValueError("RPC size must be at least one packet")
        self.size = size
        self.mean = float(size)
        self.name = f"rpc{size}"

    def sample(self, rng: random.Random) -> int:
        return self.size


class LognormalMixSizes:
    """Elephant/mice mix: two lognormal modes, heavy tail capped.

    ``elephant_fraction`` of flows draw from the elephant mode.  The
    ``mean`` attribute is the analytic lognormal mixture mean (before
    the clamp) -- accurate enough for load calibration, which is its
    only consumer.
    """

    def __init__(
        self,
        mice_mu: float = 1.0,
        elephant_mu: float = 4.0,
        sigma: float = 0.6,
        elephant_fraction: float = 0.1,
        max_size: int = 512,
    ) -> None:
        if not 0.0 <= elephant_fraction <= 1.0:
            raise ValueError("elephant_fraction must be in [0, 1]")
        self.mice_mu = mice_mu
        self.elephant_mu = elephant_mu
        self.sigma = sigma
        self.elephant_fraction = elephant_fraction
        self.max_size = max_size
        moment = math.exp(sigma * sigma / 2.0)
        self.mean = (
            elephant_fraction * math.exp(elephant_mu) * moment
            + (1.0 - elephant_fraction) * math.exp(mice_mu) * moment
        )
        self.name = "lognormal-mix"

    def sample(self, rng: random.Random) -> int:
        mu = (
            self.elephant_mu
            if rng.random() < self.elephant_fraction
            else self.mice_mu
        )
        size = int(round(rng.lognormvariate(mu, self.sigma)))
        return max(1, min(self.max_size, size))


class ShuffleSizes:
    """Storage/shuffle transfers: uniformly sized bulk flows."""

    def __init__(self, min_size: int = 32, max_size: int = 96) -> None:
        if not 1 <= min_size <= max_size:
            raise ValueError("need 1 <= min_size <= max_size")
        self.min_size = min_size
        self.max_size = max_size
        self.mean = (min_size + max_size) / 2.0
        self.name = f"shuffle{min_size}-{max_size}"

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.min_size, self.max_size)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------
def _uniform_other(rng: random.Random, num_terminals: int, src: int) -> int:
    dst = rng.randrange(num_terminals - 1)
    return dst if dst < src else dst + 1


def poisson_flows(
    num_terminals: int,
    *,
    sizes,
    duration: int,
    load: float,
    packet_phits: int = 16,
    seed: int = 0,
) -> FlowSchedule:
    """Poisson flow arrivals per terminal, uniform random destinations.

    The per-terminal flow arrival rate is calibrated so the *offered*
    packet rate matches ``load`` phits/terminal/cycle:
    ``rate = load / packet_phits / sizes.mean`` flows per cycle.  All
    randomness comes from one ``random.Random(seed)``; schedules are
    bit-for-bit reproducible and engine-independent.
    """
    if duration < 1:
        raise ValueError("duration must be positive")
    if not 0.0 < load <= 1.0:
        raise ValueError(f"load must be in (0, 1], got {load}")
    rng = random.Random(seed)
    rate = load / packet_phits / sizes.mean
    flows: list[Flow] = []
    flow_id = 0
    for src in range(num_terminals):
        t = 0.0
        while True:
            t += rng.expovariate(rate)
            start = int(t)
            if start > duration:
                break
            dst = _uniform_other(rng, num_terminals, src)
            flows.append(Flow(flow_id, src, dst, sizes.sample(rng), start))
            flow_id += 1
    return FlowSchedule(flows, num_terminals, offered_load=load)


def incast_flows(
    num_terminals: int,
    *,
    fanin: int,
    size: int = 1,
    events: int = 1,
    interval: int | None = None,
    aggregator: int | None = None,
    workers=None,
    seed: int = 0,
) -> FlowSchedule:
    """Request fan-in: ``fanin`` workers answer one aggregator at once.

    Each event releases ``fanin`` synchronized ``size``-packet flows
    into the aggregator's leaf -- the discriminating workload for flat
    datacenter fabrics (all responses collide on one ejection port).
    ``workers``/``aggregator`` pin the cast explicitly (closed-form
    tests do); by default each event draws a fresh aggregator and
    worker set.  Events are spaced ``interval`` cycles apart (default:
    enough for the previous cast to drain).
    """
    if not 1 <= fanin < num_terminals:
        raise ValueError("need 1 <= fanin < num_terminals")
    if events < 1:
        raise ValueError("need at least one incast event")
    if interval is None:
        interval = 4 * fanin * size * 16
    rng = random.Random(seed)
    flows: list[Flow] = []
    flow_id = 0
    for event in range(events):
        start = event * interval
        agg = (
            aggregator
            if aggregator is not None
            else rng.randrange(num_terminals)
        )
        if workers is not None:
            cast = list(workers)
        else:
            cast = rng.sample(
                [t for t in range(num_terminals) if t != agg], fanin
            )
        for worker in cast:
            flows.append(Flow(flow_id, worker, agg, size, start))
            flow_id += 1
    return FlowSchedule(flows, num_terminals)


def shuffle_flows(
    num_terminals: int,
    *,
    partners: int = 2,
    sizes=None,
    duration: int = 1_000,
    seed: int = 0,
) -> FlowSchedule:
    """Storage-shuffle: every terminal bulk-transfers to ``partners``
    random distinct peers, with starts staggered uniformly over
    ``duration`` (the all-to-all tail of a map/reduce stage)."""
    if not 1 <= partners < num_terminals:
        raise ValueError("need 1 <= partners < num_terminals")
    if sizes is None:
        sizes = ShuffleSizes()
    rng = random.Random(seed)
    flows: list[Flow] = []
    flow_id = 0
    for src in range(num_terminals):
        peers = rng.sample(
            [t for t in range(num_terminals) if t != src], partners
        )
        for dst in peers:
            start = rng.randrange(duration)
            flows.append(Flow(flow_id, src, dst, sizes.sample(rng), start))
            flow_id += 1
    return FlowSchedule(flows, num_terminals)


# ---------------------------------------------------------------------------
# Named catalog
# ---------------------------------------------------------------------------
def make_workload(
    name: str,
    num_terminals: int,
    *,
    seed: int = 0,
    load: float = 0.5,
    duration: int = 2_000,
    packet_phits: int = 16,
    fanin: int = 8,
    rpc_size: int = 4,
    partners: int = 2,
    events: int = 4,
) -> FlowTraffic:
    """Build a named workload (see :data:`WORKLOAD_NAMES`).

    The returned :class:`FlowTraffic` carries its schedule; pass it to
    :class:`~repro.simulation.engine.Simulator` like any traffic
    pattern.  Unused knobs for a given workload are ignored so one
    uniform signature serves the CLI, the executor and the sweeps.
    """
    if name == "poisson-mix":
        schedule = poisson_flows(
            num_terminals,
            sizes=LognormalMixSizes(),
            duration=duration,
            load=load,
            packet_phits=packet_phits,
            seed=seed,
        )
    elif name == "rpc":
        schedule = poisson_flows(
            num_terminals,
            sizes=FixedRpcSizes(rpc_size),
            duration=duration,
            load=load,
            packet_phits=packet_phits,
            seed=seed,
        )
    elif name == "shuffle":
        schedule = shuffle_flows(
            num_terminals,
            partners=partners,
            duration=duration,
            seed=seed,
        )
    elif name == "incast":
        schedule = incast_flows(
            num_terminals,
            fanin=min(fanin, num_terminals - 1),
            size=rpc_size,
            events=events,
            interval=max(1, duration // events),
            seed=seed,
        )
    else:
        raise ValueError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}"
        )
    return FlowTraffic(schedule, name=f"flows:{name}")


def workload_spec(name: str, **options) -> tuple:
    """Canonical hashable workload description for task/cache keys.

    ``(name, ((key, value), ...))`` with options sorted by key -- the
    form :class:`repro.exec.executor.SimTask` carries and
    :func:`repro.exec.cache.cache_key` serializes.
    """
    if name not in WORKLOAD_NAMES:
        raise ValueError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}"
        )
    return (name, tuple(sorted(options.items())))


def workload_from_spec(
    spec: tuple, num_terminals: int, seed: int = 0
) -> FlowTraffic:
    """Rebuild the workload a :func:`workload_spec` describes.

    ``seed`` comes from the task's ``traffic_seed`` so executor seed
    derivation (``repro.exec``) drives workload randomness the same
    way it drives traffic patterns.
    """
    name, options = spec
    return make_workload(name, num_terminals, seed=seed, **dict(options))
