"""The reference exact engine: the readable oracle of the test suite.

:func:`run_reference` executes a :class:`~repro.simulation.engine
.Simulator` through a heap-driven event loop whose helpers each do one
thing -- generate a packet, admit it, arbitrate one switch-cycle,
grant one output.  It is the plain statement of the simulator's
semantics (paper Section 6, Table 2): the fast engine
(:func:`repro.simulation.fastpath.run_fast`) inlines these helpers
into one loop over precomputed tables, and the differential suite
(``test_fastpath_differential.py`` and friends) holds the two
bit-for-bit equal -- same RNG call order, same
:class:`~repro.simulation.stats.SimResult`, same observer callbacks,
same post-run channel state.

Nothing in ``src/`` selects this engine.  Tests reach it two ways:

* :func:`run_reference` (``run_reference(sim)`` in place of
  ``sim.run()``);
* :func:`reference_engine`, a context manager that makes
  :meth:`Simulator.run` run it, for tests that reach the engine
  through ``simulate``, ``load_sweep``, ``run_workload`` or a
  ``workers=1`` executor.

:func:`engine_context` and :func:`run_on` pick between the reference
and the shipped engines by name, for tests parametrized over
``"reference"``, ``"fast"`` and ``"relaxed"``.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import random
from typing import Iterator

from repro.obs.hooks import begin_run
from repro.routing.updown import RoutingError
from repro.simulation.engine import (
    _EJECT,
    _EV_ARB,
    _EV_CREDIT,
    _EV_GEN,
    _INJECT,
    _LINK,
    Simulator,
)
from repro.simulation.fastpath import build_candidate_table
from repro.simulation.packet import Packet
from repro.simulation.routes import CandidateRows
from repro.simulation.stats import SimResult

__all__ = [
    "assert_routes_match_oracle",
    "engine_context",
    "oracle_rows",
    "reference_engine",
    "run_on",
    "run_reference",
]


def run_reference(sim: Simulator) -> SimResult:
    """Execute ``sim`` through the reference event loop."""
    params = sim.params
    sim._start_stats()
    rng = sim.rng
    horizon = params.horizon
    packet_phits = params.packet_phits
    rate = sim.load / packet_phits  # packets / terminal / cycle

    sim._heap = []
    sim._seq = 0
    sim._arb_marks = set()
    (
        sim._counters,
        sim._on_inject,
        sim._on_drop,
        sim._on_arbitrate,
        sim._on_hop,
        sim._on_eject,
    ) = begin_run(sim)
    if sim._counters is not None:
        sim._counters.grant_lists()

    # Seed generation events.  Flow workloads (duck-typed on the
    # traffic's ``flow_schedule``) release pre-scheduled packets
    # and consume no RNG here, keeping the exact engines
    # bit-for-bit identical in flow mode too.
    log1m = math.log1p(-rate) if rate < 1.0 else None
    schedule = getattr(sim.traffic, "flow_schedule", None)
    sim._flow_schedule = schedule
    if schedule is not None:
        sim._flow_cursor = [0] * sim.topo.num_terminals
        for terminal, row in enumerate(schedule.releases):
            if row and row[0][0] <= horizon:
                _push(sim, row[0][0], _EV_GEN, terminal, 0)
    else:
        for terminal in range(sim.topo.num_terminals):
            silent = getattr(sim.traffic, "is_silent", None)
            if silent is not None and silent(terminal):
                continue
            first = _next_gap(rng, rate, log1m) - 1
            if first <= horizon:
                _push(sim, first, _EV_GEN, terminal, 0)

    heap = sim._heap
    while heap:
        time, _, kind, a, b = heapq.heappop(heap)
        if time > horizon:
            break
        if kind == _EV_ARB:
            sim._arb_marks.discard((a, time))
            _arbitrate(sim, a, time)
        elif kind == _EV_CREDIT:
            slots = sim.ch_slots[a]
            assert slots is not None
            slots[b] += 1
            src = sim.ch_src[a]
            if src >= 0:
                _schedule_arb(sim, src, time)
        else:  # _EV_GEN
            if sim._flow_schedule is not None:
                _release_flows(sim, a, time, horizon)
            else:
                _generate(sim, a, time, rate, log1m, horizon)

    return sim._finish_run()


@contextlib.contextmanager
def reference_engine() -> Iterator[None]:
    """Make :meth:`Simulator.run` run :func:`run_reference` inside the
    block (in this process only)."""
    original = Simulator.run
    Simulator.run = run_reference
    try:
        yield
    finally:
        Simulator.run = original


def engine_context(engine: str) -> contextlib.AbstractContextManager:
    """:func:`reference_engine` for ``"reference"``, else a no-op (the
    params' ``rng_mode`` selects the fast or the relaxed engine)."""
    return reference_engine() if engine == "reference" else contextlib.nullcontext()


def run_on(sim: Simulator, engine: str) -> SimResult:
    """Run ``sim`` on the named engine: :func:`run_reference` for
    ``"reference"``, else :meth:`Simulator.run`."""
    return run_reference(sim) if engine == "reference" else sim.run()


# ----------------------------------------------------------------------
# Virtual-channel classes
# ----------------------------------------------------------------------
def oracle_rows(sim: Simulator, via: bool = False) -> dict[int, list | None]:
    """Every ``switch * leaves + leaf`` key's candidate channels as
    :meth:`Simulator._output_candidates` lists them: ``None`` where it
    raises :class:`RoutingError`, ``[]`` where it delivers.

    With ``via`` the leaf is a Valiant intermediate leaf instead of the
    destination; the via leaf itself, where the reference clears the
    via and routes to the destination, is left out.
    """
    topo = sim.topo
    hosts = topo.hosts_per_leaf
    n_leaves = topo.num_leaves
    rows: dict[int, list | None] = {}
    for switch in range(topo.num_switches):
        for leaf in range(n_leaves):
            if via and switch == leaf:
                continue
            if via:
                packet = Packet(src=0, dst=0, created=0, via=leaf * hosts)
            else:
                packet = Packet(src=0, dst=leaf * hosts, created=0)
            try:
                cands = sim._output_candidates(switch, packet)
            except RoutingError:
                rows[switch * n_leaves + leaf] = None
                continue
            assert packet.via is None or via
            if cands and sim.ch_kind[cands[0]] == _EJECT:
                cands = []
            rows[switch * n_leaves + leaf] = cands
    return rows


def assert_routes_match_oracle(sim: Simulator, via: bool = False) -> None:
    """Both engines' rows from ``sim``'s route state equal
    :func:`oracle_rows` for every key, in order: the exact engine's
    :class:`CandidateRows` (read in scrambled order) and the non-dummy
    cells of the relaxed engine's per-head rows.  Unroutable keys
    agree: ``None`` for the exact engine, an all-dummy row for the
    relaxed one."""
    routes = build_candidate_table(sim)
    expected = oracle_rows(sim, via)
    keys = list(expected)
    random.Random(len(keys)).shuffle(keys)
    exact = CandidateRows(routes)
    for key in keys:
        assert exact[key] == expected[key], key
    keys.sort()
    n_leaves = routes.num_leaves
    switches = [key // n_leaves for key in keys]
    leaves = [key % n_leaves for key in keys]
    matrix = routes.candidate_matrix(switches, leaves)
    for key, row in zip(keys, matrix.tolist()):
        listed = [c for c in row if c != routes.dummy]
        assert listed == (expected[key] or []), key


def _vc_class(sim: Simulator, packet: Packet) -> tuple[int, int]:
    """Half-open VC index range the packet may occupy downstream.

    * Valiant: lower half during the randomization phase, upper
      half afterwards (each phase's up/down sub-route is acyclic;
      the class jump orders the phases);
    * otherwise all VCs (up/down needs none).
    """
    vcs = sim.params.virtual_channels
    if sim.params.valiant:
        half = vcs // 2
        return (0, half) if packet.via is not None else (half, vcs)
    return 0, vcs


# ----------------------------------------------------------------------
# Event helpers
# ----------------------------------------------------------------------
def _push(sim: Simulator, time: int, kind: int, a: int, b: int) -> None:
    sim._seq += 1
    heapq.heappush(sim._heap, (time, sim._seq, kind, a, b))


def _schedule_arb(sim: Simulator, switch: int, time: int) -> None:
    mark = (switch, time)
    if mark in sim._arb_marks:
        return
    sim._arb_marks.add(mark)
    _push(sim, time, _EV_ARB, switch, 0)


def _next_gap(rng: random.Random, rate: float, log1m: float | None) -> int:
    if log1m is None:
        return 1
    u = rng.random()
    return int(math.log(u) / log1m) + 1 if u > 0.0 else 1


def _generate(
    sim: Simulator,
    terminal: int,
    time: int,
    rate: float,
    log1m: float | None,
    horizon: int,
) -> None:
    try:
        dst = sim.traffic.destination(terminal, sim.rng)
    except LookupError:
        return
    packet = Packet(terminal, dst, time, serial=sim._next_serial)
    sim._next_serial += 1
    _admit(sim, packet, time)
    nxt = time + _next_gap(sim.rng, rate, log1m)
    if nxt <= horizon:
        _push(sim, nxt, _EV_GEN, terminal, 0)


def _release_flows(sim: Simulator, terminal: int, time: int, horizon: int) -> None:
    """Release every scheduled packet of ``terminal`` due now.

    Flow mode replaces Bernoulli generation with per-terminal GEN
    chains walking :attr:`FlowSchedule.releases`: each GEN event
    releases all packets whose start equals ``time`` (serials are
    pre-assigned by the schedule, so the serial->flow mapping is
    engine-independent) and re-arms at the next distinct release
    time.  No RNG is consumed for arrivals or destinations.
    """
    row = sim._flow_schedule.releases[terminal]
    i = sim._flow_cursor[terminal]
    while i < len(row) and row[i][0] == time:
        _, dst, serial = row[i]
        if serial >= sim._next_serial:
            sim._next_serial = serial + 1
        _admit(sim, Packet(terminal, dst, time, serial=serial), time)
        i += 1
    sim._flow_cursor[terminal] = i
    if i < len(row) and row[i][0] <= horizon:
        _push(sim, row[i][0], _EV_GEN, terminal, 0)


def _admit(sim: Simulator, packet: Packet, time: int) -> None:
    """Count, (maybe) detour, and inject-or-drop one new packet."""
    terminal = packet.src
    dst = packet.dst
    if packet.serial < sim.trace_limit:
        sim.traces[packet.serial] = [(time, "generate", terminal)]
    sim._stats.on_generated(time)
    if sim.params.valiant:
        _assign_valiant_via(sim, packet)
    hosts = sim.topo.hosts_per_leaf
    if sim.router.min_ascent(0, terminal // hosts, dst // hosts) < 0:
        sim.unroutable_packets += 1
        if sim._counters is not None:
            sim._counters.drops += 1
        if sim._on_drop is not None:
            sim._on_drop(time, terminal, packet)
    else:
        cid = sim.inject_channel[terminal]
        queue = sim.ch_queues[cid][0]
        queue.append((time, packet))
        if len(queue) > sim.max_inject_queue:
            sim.max_inject_queue = len(queue)
        if sim._counters is not None:
            sim._counters.inject(time, len(queue))
        if sim._on_inject is not None:
            sim._on_inject(time, packet, len(queue))
        if len(queue) == 1:
            _schedule_arb(sim, sim.ch_dst[cid], max(time, sim.ch_blocked[cid]))


def _assign_valiant_via(sim: Simulator, packet: Packet) -> None:
    """Pick a random intermediate with both phases routable."""
    hosts = sim.topo.hosts_per_leaf
    src_leaf = packet.src // hosts
    dst_leaf = packet.dst // hosts
    for _ in range(8):
        via = sim.rng.randrange(sim.topo.num_terminals)
        via_leaf = via // hosts
        if (
            sim.router.min_ascent(0, src_leaf, via_leaf) >= 0
            and sim.router.min_ascent(0, via_leaf, dst_leaf) >= 0
        ):
            packet.via = via
            return
    # No routable intermediate found; fall back to direct routing
    # (the injection-time reachability check still applies).
    packet.via = None


# ----------------------------------------------------------------------
# Arbitration
# ----------------------------------------------------------------------
def _arbitrate(sim: Simulator, switch: int, time: int) -> None:
    """Separable request/grant allocation for one switch-cycle.

    Runs ``arbitration_iterations`` rounds (Table 2 uses 1): each
    round, every eligible head packet requests one viable output
    (random or adaptive per config) and each output grants one
    random requester.  An input *channel* moves at most one packet
    per cycle regardless of how many VCs it holds (crossbar input
    bandwidth), and granted outputs turn busy, so later rounds only
    match the leftovers.
    """
    rng = sim.rng
    ch_busy = sim.ch_busy
    ch_slots = sim.ch_slots
    counters = sim._counters
    counting = counters is not None or sim._on_arbitrate is not None
    total_requests = 0
    granted_inputs: set[int] = set()
    any_grant = False
    for _ in range(sim.params.arbitration_iterations):
        requests: dict[int, list[tuple[int, int, Packet]]] = {}
        for cid, vc in sim.in_units[switch]:
            if cid in granted_inputs:
                continue
            if sim.ch_kind[cid] == _INJECT and sim.ch_blocked[cid] > time:
                continue
            queue = sim.ch_queues[cid][vc]
            if not queue:
                continue
            ready, packet = queue[0]
            if ready > time:
                continue
            candidates = sim._output_candidates(switch, packet)
            viable = []
            vc_lo, vc_hi = _vc_class(sim, packet)
            for out in candidates:
                if ch_busy[out] > time:
                    continue
                slots = ch_slots[out]
                if slots is not None and not any(
                    slots[w] > 0 for w in range(vc_lo, vc_hi)
                ):
                    continue
                viable.append(out)
            if not viable:
                continue
            if len(viable) == 1:
                out = viable[0]
            elif sim.params.up_selection == "adaptive":
                out = sim._most_credited(viable, vc_lo, vc_hi, rng)
            else:
                out = rng.choice(viable)
            requests.setdefault(out, []).append((cid, vc, packet))

        if not requests:
            break
        if counting:
            total_requests += sum(len(c) for c in requests.values())
        rotating = sim.params.arbiter == "rotating"
        for out, contenders in requests.items():
            if len(contenders) == 1:
                cid, vc, packet = contenders[0]
            elif rotating:
                cid, vc, packet = _rotate_pick(sim, out, contenders)
            else:
                cid, vc, packet = rng.choice(contenders)
            _grant(sim, switch, cid, vc, packet, out, time)
            granted_inputs.add(cid)
            any_grant = True
    if total_requests:
        # Each granted input cid is unique within a pass, so the
        # set size is the grant count -- no per-grant accounting on
        # the disabled path.
        if counters is not None:
            counters.arbitration(total_requests, len(granted_inputs))
        if sim._on_arbitrate is not None:
            sim._on_arbitrate(
                time, switch, total_requests, len(granted_inputs)
            )
    if any_grant:
        _schedule_arb(sim, switch, time + 1)


def _rotate_pick(
    sim: Simulator, out: int, contenders: list[tuple[int, int, Packet]]
) -> tuple[int, int, Packet]:
    """Round-robin grant: lowest contender above the output's pointer."""
    pointers = getattr(sim, "_arb_pointers", None)
    if pointers is None:
        pointers = sim._arb_pointers = {}
    pointer = pointers.get(out, -1)
    ordered = sorted(contenders, key=lambda c: (c[0], c[1]))
    chosen = next(
        (c for c in ordered if c[0] > pointer), ordered[0]
    )
    pointers[out] = chosen[0]
    return chosen


def _grant(
    sim: Simulator,
    switch: int,
    in_cid: int,
    in_vc: int,
    packet: Packet,
    out: int,
    time: int,
) -> None:
    params = sim.params
    phits = params.packet_phits
    latency = params.link_latency
    rng = sim.rng

    del sim.ch_queues[in_cid][in_vc][0]
    sim.ch_busy[out] = time + phits
    # Utilization accounting: busy cycles within the measurement
    # window (clipped at both ends).
    lo = max(time, params.warmup_cycles)
    hi = min(time + phits, params.horizon)
    if hi > lo:
        sim.ch_busy_cycles[out] += hi - lo
    # Wake this switch when the output port frees again.
    _schedule_arb(sim, switch, time + phits)

    if packet.serial < sim.trace_limit and packet.serial >= 0:
        trace = sim.traces.get(packet.serial)
        if trace is not None:
            peer = sim.ch_peer[out]
            kind_name = (
                "eject" if sim.ch_kind[out] == _EJECT else "forward"
            )
            trace.append((time, kind_name, peer))

    counters = sim._counters
    if counters is not None:
        counters.grant(time, out)
    kind = sim.ch_kind[out]
    if kind == _EJECT:
        delivered = time + latency + phits - 1
        sim._stats.on_delivered(packet, delivered, phits)
        if counters is not None:
            counters.eject(delivered - packet.created, packet.hops)
        if sim._on_eject is not None:
            sim._on_eject(
                time, packet, delivered - packet.created, phits
            )
    else:
        slots = sim.ch_slots[out]
        assert slots is not None
        vc_lo, vc_hi = _vc_class(sim, packet)
        free_vcs = [
            wi for wi in range(vc_lo, vc_hi) if slots[wi] > 0
        ]
        w = free_vcs[0] if len(free_vcs) == 1 else rng.choice(free_vcs)
        slots[w] -= 1
        packet.hops += 1
        queue = sim.ch_queues[out][w]
        queue.append((time + latency, packet))
        if counters is not None:
            counters.hop(slots[w], len(queue))
        if sim._on_hop is not None:
            sim._on_hop(
                time,
                packet,
                switch,
                sim.ch_dst[out],
                w,
                slots[w],
                len(queue),
            )
        _schedule_arb(sim, sim.ch_dst[out], time + latency)

    if sim.ch_kind[in_cid] == _LINK:
        _push(sim, time + phits, _EV_CREDIT, in_cid, in_vc)
    else:  # injection link is busy until the tail leaves the host
        sim.ch_blocked[in_cid] = time + phits
        if packet.injected is None:
            packet.injected = time
        sim._stats.on_injected(time)
        if sim.ch_queues[in_cid][0]:
            _schedule_arb(sim, switch, time + phits)
