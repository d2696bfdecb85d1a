"""Precomputed-route fast path for the cycle-level engine.

:meth:`~repro.simulation.engine.Simulator.run` historically re-derived
every hop decision from router objects (bitmask scans, dict lookups,
per-hop list building) and drove the schedule through a Python
``heapq``.  Profiling shows those two costs dominate a run.  This
module removes both while staying **bit-for-bit identical** to the
reference engine the test suite keeps as its oracle
(``tests/oracle_engine.py``):

* **Route state, rows on first read** -- routing reads one
  :class:`~repro.simulation.routes.RouteState` per run: the router's
  ``min_ascent`` for every (switch, leaf) as an ``int8`` matrix, read
  off its packed ``U_j`` reach masks, plus each switch's padded up and
  down neighbors and the channel to each.  The hot loop finds a head
  packet's candidates with one multiply and one dict lookup keyed
  ``switch * leaves + leaf`` (the Valiant via phase uses the same keys,
  by the intermediate leaf).
  :class:`~repro.simulation.routes.CandidateRows` builds a key's list
  the first time it is read, by testing the neighbors' ascents, instead
  of a router call per hop -- and, crucially, per *blocked* hop
  re-evaluation, which the arbitration loop performs every cycle a
  packet waits.
* **Calendar-queue event wheel** -- the fixed-horizon schedule is kept
  in :class:`EventWheel`, one FIFO bucket per cycle.  The reference
  heap orders events by ``(time, seq)`` with ``seq`` increasing on
  every push; because the engine never schedules into the past,
  per-bucket FIFO order *is* ``seq`` order, so the wheel dequeues in
  exactly the heap's order without the log-n tuple churn (proven for
  arbitrary interleavings by ``tests/test_eventwheel_properties.py``).
* **Occupied, wakeable units only** -- the reference scans every input
  unit of a switch at every arbitration, and re-derives the candidates
  of a blocked head every time it looks.  The fast path keeps one int
  bitmask per switch over the positions of ``sim.in_units``: a bit is
  set when that unit's queue goes from empty to non-empty (a forward
  or an injection) and cleared when a grant empties it.  Visiting the
  set bits lowest first is the reference's unit order minus its empty
  queues, so requests, ``rng.choice`` calls and arbitration counts are
  unchanged.  A head that finds no viable output records a wake
  cycle: its eject channel's ``ch_busy`` when delivering, else the
  least ``ch_busy`` over its candidates -- at or before ``t``, so no
  skip, if a non-busy candidate only lacked a credit (credits return
  at any cycle).  The head is skipped while its wake lies after ``t``
  and its wake resets at the grant that pops it.  This is exact: a
  blocked head draws no RNG, makes no request and has no side effect
  (its Valiant ``via`` reset happened at its first look), and
  ``ch_busy`` only grows (a grant needs ``ch_busy <= t`` and writes
  ``t + phits``), so no candidate frees before the recorded cycle.
  Both are run state built inside :func:`run_fast`.

Equivalence contract (enforced by ``tests/test_fastpath_differential
.py``): same RNG call order and arguments, same
:class:`~repro.simulation.stats.SimResult`, same per-link busy-cycle
counters, same packet traces and the same observer callback stream as
the reference engine.  The per-candidate order feeds
``rng.choice``, so the rows must list candidates exactly as the
reference's :meth:`UpDownRouter.next_hops` does.  They test the same
reach-mask bits over each switch's neighbors in the router's own
up/down neighbor order, which is that order.
``tests/test_eventwheel_properties.py`` compares every (switch, leaf)
row with :meth:`Simulator._output_candidates`.

The run loop itself is one large function with aggressively
locals-bound state and the reference's helper calls inlined; that is
deliberate (CPython attribute lookups and function calls are the
remaining cost once routing and the heap are precomputed).  Any
behavioural change here must be mirrored from/to the reference engine
and will be caught by the differential suite.
"""

from __future__ import annotations

import math
from array import array

from ..obs.counters import RunCounters
from ..obs.hooks import begin_run
from .engine import _EJECT, _EV_ARB, _EV_CREDIT, _EV_GEN, _INJECT, _LINK
from .packet import Packet
from .routes import CandidateRows, build_candidate_table
from .stats import SimResult

__all__ = ["EventWheel", "build_candidate_table", "run_fast"]


class EventWheel:
    """Calendar queue over a fixed horizon: one FIFO bucket per cycle.

    Replaces the reference engine's ``heapq`` for the run schedule.
    The heap's order is ``(time, seq)`` with a globally increasing
    sequence number; since the engine only ever schedules at or after
    the cycle currently being drained, appending to ``buckets[time]``
    preserves sequence order exactly, and events past the horizon --
    which the reference loop would never pop -- are dropped at push
    time (:meth:`push` returns ``False``).

    The engine's run loop drives :attr:`buckets` inline (a method call
    per event is measurable on the hottest path); :meth:`push` /
    :meth:`pop` implement the identical discipline for tests and
    non-critical callers.
    """

    __slots__ = ("horizon", "buckets", "time", "index", "pending")

    def __init__(self, horizon: int) -> None:
        if horizon < 0:
            raise ValueError("horizon cannot be negative")
        self.horizon = horizon
        self.buckets: list[list] = [[] for _ in range(horizon + 1)]
        self.time = 0
        self.index = 0
        self.pending = 0

    def push(self, time: int, item) -> bool:
        """Schedule ``item`` at ``time``; False when past the horizon."""
        if time > self.horizon:
            return False
        if time < self.time:
            raise ValueError(
                f"cannot schedule into the past (t={time} < {self.time})"
            )
        self.buckets[time].append(item)
        self.pending += 1
        return True

    def pop(self):
        """Next ``(time, item)`` in (time, push-order), or ``None``."""
        while self.time <= self.horizon:
            bucket = self.buckets[self.time]
            if self.index < len(bucket):
                item = bucket[self.index]
                self.index += 1
                self.pending -= 1
                return self.time, item
            bucket.clear()  # drained cycles can never be scheduled again
            self.time += 1
            self.index = 0
        return None

    def __len__(self) -> int:
        return self.pending


def run_fast(sim) -> SimResult:
    """Execute ``sim`` through the precomputed-route engine.

    Bit-for-bit mirror of the reference engine in
    ``tests/oracle_engine.py``; every block below is annotated with the
    reference helper it inlines.  Shares
    the simulator's channel state lists, so post-run inspection
    (``link_utilization`` etc.) works identically.
    """
    params = sim.params
    stats = sim._start_stats()
    rng = sim.rng
    horizon = params.horizon
    phits = params.packet_phits
    latency = params.link_latency
    warmup = params.warmup_cycles
    vcs = params.virtual_channels
    rate = sim.load / phits  # packets / terminal / cycle
    topo = sim.topo
    traffic = sim.traffic
    valiant = params.valiant
    iterations = params.arbitration_iterations
    adaptive = params.up_selection == "adaptive"
    rotating = params.arbiter == "rotating"
    trace_limit = sim.trace_limit
    traces = sim.traces
    num_terminals = topo.num_terminals

    # ---- precomputation pass -------------------------------------------
    routes = build_candidate_table(sim)
    # Rows are listed on first read; a run touches a fraction of keys.
    cand_lists = CandidateRows(routes)
    n_dests = routes.num_leaves
    # A (source leaf, dest leaf) pair is routable unless the leaf has no
    # ascent to it; replaces the reference's per-packet min_ascent
    # injection checks with one byte index.
    routable = routes.routable.tobytes()

    ch_src = sim.ch_src
    ch_dst = sim.ch_dst
    ch_kind = sim.ch_kind
    ch_peer = sim.ch_peer
    ch_busy = sim.ch_busy
    ch_slots = sim.ch_slots
    ch_queues = sim.ch_queues
    ch_blocked = sim.ch_blocked
    ch_busy_cycles = sim.ch_busy_cycles
    eject_channel = sim.eject_channel
    inject_channel = sim.inject_channel

    # Per-switch input units with queue objects and kinds prebound:
    # (cid, vc, queue, is_inject).
    units: list[list[tuple]] = [
        [
            (cid, vc, ch_queues[cid][vc], ch_kind[cid] == _INJECT)
            for cid, vc in row
        ]
        for row in sim.in_units
    ]

    # Occupancy (module docstring): bit ``pos`` of ``occupied[switch]``
    # is set while the queue of ``units[switch][pos]`` holds a packet.
    # ``unit_pos`` maps a queue ``cid * vcs + vc`` to its position at
    # its switch, taken from ``sim.in_units`` as given (any unit order);
    # an unsigned-int array takes half a list's bytes.
    # ``wakes[switch][pos]`` is the cycle before which that unit's head
    # cannot move.
    unit_pos = array("I", [0]) * (len(ch_kind) * vcs)
    occupied = [0] * len(units)
    wakes = []
    for switch, row in enumerate(units):
        mask = 0
        for pos, (cid, vc, queue, _) in enumerate(row):
            unit_pos[cid * vcs + vc] = pos
            if queue:
                mask |= 1 << pos
        occupied[switch] = mask
        wakes.append([0] * len(row))

    # Leaf ``i`` is flat switch ``i`` (leaves come first in switch-id
    # order), so a leaf index doubles as its switch id below.
    hosts = topo.hosts_per_leaf
    leaf_of = [t // hosts for t in range(num_terminals)]
    half = vcs // 2
    # VC-class ranges, built once (the reference builds a range object
    # per candidate per scan): full for plain folded Clos, halves for
    # the two Valiant phases.
    full_range = range(vcs)
    lo_range = range(0, half)
    hi_range = range(half, vcs)

    wheel = EventWheel(horizon)
    buckets = wheel.buckets
    # Pending-arbitration dedup, keyed ``time * num_switches + switch``
    # (ints hash much faster than the reference's (switch, time)
    # tuples; the encoding is injective so the dedup set is the same).
    n_sw = len(units)
    arb_marks: set[int] = set()
    arb_pointers: dict[int, int] | None = None
    choice = rng.choice
    next_serial = sim._next_serial

    counters, on_inject, on_drop, on_arbitrate, on_hop, on_eject = begin_run(
        sim
    )
    # Run counters bump plain list cells (RunCounters' methods, inlined);
    # the arbitration totals accumulate in locals and the drops are the
    # run's unroutable packets.  Each event site tests ``observing``
    # once, so the bare loop (no observer) pays one test per event.
    counting = counters is not None
    observing = counting or any(
        hook is not None
        for hook in (on_inject, on_drop, on_arbitrate, on_hop, on_eject)
    )
    count_arb = counting or on_arbitrate is not None
    arb_passes = arb_requests = arb_grants = 0
    unroutable_before = sim.unroutable_packets
    if counters is not None:
        c_grants, c_cycle = counters.grant_lists()
        c_class = counters.ch_class
        n_cls = counters.n_classes
        c_injects = counters.injects
        c_inject_depth = counters.inject_depth
        c_vc_depth = counters.vc_depth
        c_credits = counters.credits
        c_latency = counters.latency
        c_hops = counters.hops
    else:
        c_grants = c_cycle = c_class = c_injects = c_inject_depth = []
        c_vc_depth = c_credits = c_latency = c_hops = []
        n_cls = 0

    # ---- seed generation events (mirrors the reference loop) -----------
    # Flow workloads (duck-typed on ``flow_schedule``) seed one GEN
    # chain per terminal at its first release time and consume no RNG
    # for arrivals or destinations -- bit-for-bit with the reference.
    log1m = math.log1p(-rate) if rate < 1.0 else None
    log = math.log
    flow_schedule = getattr(traffic, "flow_schedule", None)
    if flow_schedule is not None:
        flow_rows = flow_schedule.releases
        flow_cursor = [0] * num_terminals
        for terminal, row in enumerate(flow_rows):
            if row and row[0][0] <= horizon:
                buckets[row[0][0]].append((_EV_GEN, terminal, 0))
    else:
        flow_rows = None
        flow_cursor = None
        silent = getattr(traffic, "is_silent", None)
        for terminal in range(num_terminals):
            if silent is not None and silent(terminal):
                continue
            if log1m is None:
                first = 0
            else:
                u = rng.random()
                first = (int(log(u) / log1m) + 1 if u > 0.0 else 1) - 1
            if first <= horizon:
                buckets[first].append((_EV_GEN, terminal, 0))

    destination = traffic.destination

    # ---- event wheel loop ----------------------------------------------
    t = 0
    while t <= horizon:
        bucket = buckets[t]
        i = 0
        while i < len(bucket):
            kind, a, b = bucket[i]
            i += 1

            if kind == _EV_ARB:
                # ==== mirrors the reference _arbitrate ====================
                switch = a
                arb_marks.discard(t * n_sw + switch)
                total_requests = 0
                granted: set[int] = set()
                any_grant = False
                switch_units = units[switch]
                switch_wakes = wakes[switch]
                for _ in range(iterations):
                    requests: dict[int, list] = {}
                    # Occupied units in ascending position: the
                    # reference's unit order minus its empty queues.
                    m = occupied[switch]
                    while m:
                        low = m & -m
                        m ^= low
                        pos = low.bit_length() - 1
                        if switch_wakes[pos] > t:
                            continue
                        unit = switch_units[pos]
                        cid = unit[0]
                        if granted and cid in granted:
                            continue
                        if unit[3] and ch_blocked[cid] > t:
                            continue
                        queue = unit[2]
                        ready, packet = queue[0]
                        if ready > t:
                            continue
                        # ---- mirrors _output_candidates ----
                        deliver = False
                        cands = None
                        via = packet.via
                        if via is not None:
                            via_leaf = via // hosts
                            if switch == via_leaf:
                                packet.via = None
                                via = None
                            else:
                                cands = cand_lists[
                                    switch * n_dests + via_leaf
                                ]
                        if via is None:
                            dleaf = leaf_of[packet.dst]
                            if switch == dleaf:
                                deliver = True
                            else:
                                cands = cand_lists[switch * n_dests + dleaf]
                        if deliver:
                            # Single eject candidate: busy test only
                            # (eject channels have no VC slots), no
                            # RNG draw -- as in the reference.
                            out = eject_channel[packet.dst]
                            if ch_busy[out] > t:
                                switch_wakes[pos] = ch_busy[out]
                                continue
                        else:
                            if cands is None:
                                # Unroutable pair: replay the
                                # reference router so it raises the
                                # identical RoutingError.
                                cands = sim._output_candidates(
                                    switch, packet
                                )
                            # ---- mirrors _vc_class (prebuilt VC
                            # ranges) ----
                            if valiant:
                                vc_range = (
                                    lo_range if via is not None else hi_range
                                )
                            else:
                                vc_range = full_range
                            viable = []
                            for out in cands:
                                if ch_busy[out] > t:
                                    continue
                                slots = ch_slots[out]
                                for w in vc_range:
                                    if slots[w] > 0:
                                        viable.append(out)
                                        break
                            if not viable:
                                # ``ch_busy`` only grows, so no
                                # candidate frees before the earliest
                                # busy one; a non-busy candidate (out of
                                # credit) puts the minimum at or before
                                # ``t``, which never skips.
                                switch_wakes[pos] = min(
                                    [ch_busy[out] for out in cands], default=0
                                )
                                continue
                            if len(viable) == 1:
                                out = viable[0]
                            elif adaptive:
                                out = sim._most_credited(
                                    viable, vc_range.start, vc_range.stop, rng
                                )
                            else:
                                out = choice(viable)
                        lst = requests.get(out)
                        if lst is None:
                            requests[out] = [
                                (cid, unit[1], packet, queue, pos)
                            ]
                        else:
                            lst.append((cid, unit[1], packet, queue, pos))

                    if not requests:
                        break
                    if count_arb:
                        for contenders in requests.values():
                            total_requests += len(contenders)
                    for out, contenders in requests.items():
                        if len(contenders) == 1:
                            cid, vc, packet, queue, pos = contenders[0]
                        elif rotating:
                            # ---- mirrors _rotate_pick ----
                            if arb_pointers is None:
                                arb_pointers = getattr(
                                    sim, "_arb_pointers", None
                                )
                                if arb_pointers is None:
                                    arb_pointers = {}
                                    sim._arb_pointers = arb_pointers
                            pointer = arb_pointers.get(out, -1)
                            ordered = sorted(
                                contenders, key=lambda c: (c[0], c[1])
                            )
                            chosen = next(
                                (c for c in ordered if c[0] > pointer),
                                ordered[0],
                            )
                            arb_pointers[out] = chosen[0]
                            cid, vc, packet, queue, pos = chosen
                        else:
                            cid, vc, packet, queue, pos = choice(contenders)

                        # ==== mirrors the reference _grant ===============
                        del queue[0]
                        if not queue:
                            occupied[switch] ^= 1 << pos
                        switch_wakes[pos] = 0
                        busy_until = t + phits
                        ch_busy[out] = busy_until
                        lo = t if t > warmup else warmup
                        hi = busy_until if busy_until < horizon else horizon
                        if hi > lo:
                            ch_busy_cycles[out] += hi - lo
                        # Wake this switch when the output frees.
                        if busy_until <= horizon:
                            mark = busy_until * n_sw + switch
                            if mark not in arb_marks:
                                arb_marks.add(mark)
                                buckets[busy_until].append(
                                    (_EV_ARB, switch, 0)
                                )
                        if trace_limit and -1 < packet.serial < trace_limit:
                            trace = traces.get(packet.serial)
                            if trace is not None:
                                trace.append(
                                    (
                                        t,
                                        "eject"
                                        if ch_kind[out] == _EJECT
                                        else "forward",
                                        ch_peer[out],
                                    )
                                )
                        if ch_kind[out] == _EJECT:
                            delivered = t + latency + phits - 1
                            stats.on_delivered(packet, delivered, phits)
                            if observing:
                                if counting:
                                    c_grants[out] += 1
                                    c_cycle[t * n_cls + c_class[out]] += 1
                                    c_latency[delivered - packet.created] += 1
                                    c_hops[packet.hops] += 1
                                if on_eject is not None:
                                    on_eject(
                                        t,
                                        packet,
                                        delivered - packet.created,
                                        phits,
                                    )
                        else:
                            slots = ch_slots[out]
                            # ---- mirrors _vc_class (again, as the
                            # reference _grant recomputes it) ----
                            if valiant:
                                vcr = (
                                    lo_range
                                    if packet.via is not None
                                    else hi_range
                                )
                                free_vcs = [
                                    wi for wi in vcr if slots[wi] > 0
                                ]
                            else:
                                free_vcs = [
                                    wi
                                    for wi in full_range
                                    if slots[wi] > 0
                                ]
                            w = (
                                free_vcs[0]
                                if len(free_vcs) == 1
                                else choice(free_vcs)
                            )
                            slots[w] -= 1
                            packet.hops += 1
                            down_queue = ch_queues[out][w]
                            down_queue.append((t + latency, packet))
                            downstream = ch_dst[out]
                            if len(down_queue) == 1:
                                occupied[downstream] |= (
                                    1 << unit_pos[out * vcs + w]
                                )
                            if observing:
                                if counting:
                                    c_grants[out] += 1
                                    c_cycle[t * n_cls + c_class[out]] += 1
                                    c_credits[slots[w]] += 1
                                    c_vc_depth[len(down_queue)] += 1
                                if on_hop is not None:
                                    on_hop(
                                        t,
                                        packet,
                                        switch,
                                        downstream,
                                        w,
                                        slots[w],
                                        len(down_queue),
                                    )
                            arrive = t + latency
                            if arrive <= horizon:
                                mark = arrive * n_sw + downstream
                                if mark not in arb_marks:
                                    arb_marks.add(mark)
                                    buckets[arrive].append(
                                        (_EV_ARB, downstream, 0)
                                    )
                        if ch_kind[cid] == _LINK:
                            if busy_until <= horizon:
                                buckets[busy_until].append(
                                    (_EV_CREDIT, cid, vc)
                                )
                        else:
                            # Injection link busy until the tail
                            # leaves the host.
                            ch_blocked[cid] = busy_until
                            if packet.injected is None:
                                packet.injected = t
                            stats.injected_packets += 1
                            if queue and busy_until <= horizon:
                                mark = busy_until * n_sw + switch
                                if mark not in arb_marks:
                                    arb_marks.add(mark)
                                    buckets[busy_until].append(
                                        (_EV_ARB, switch, 0)
                                    )
                        granted.add(cid)
                        any_grant = True
                if count_arb and total_requests:
                    if counting:
                        arb_passes += 1
                        arb_requests += total_requests
                        arb_grants += len(granted)
                    if on_arbitrate is not None:
                        on_arbitrate(
                            t, switch, total_requests, len(granted)
                        )
                if any_grant:
                    nxt = t + 1
                    if nxt <= horizon:
                        mark = nxt * n_sw + switch
                        if mark not in arb_marks:
                            arb_marks.add(mark)
                            buckets[nxt].append((_EV_ARB, switch, 0))

            elif kind == _EV_CREDIT:
                slots = ch_slots[a]
                slots[b] += 1
                src = ch_src[a]
                if src >= 0:
                    mark = t * n_sw + src
                    if mark not in arb_marks:
                        arb_marks.add(mark)
                        bucket.append((_EV_ARB, src, 0))

            else:  # _EV_GEN -- mirrors the reference _generate
                terminal = a
                if flow_rows is not None:
                    # ---- mirrors the reference _release_flows ----
                    row = flow_rows[terminal]
                    j = flow_cursor[terminal]
                    while j < len(row) and row[j][0] == t:
                        _, dst, serial = row[j]
                        j += 1
                        if serial >= next_serial:
                            next_serial = serial + 1
                        packet = Packet(terminal, dst, t, serial=serial)
                        stats.generated_packets += 1
                        if serial < trace_limit:
                            traces[serial] = [(t, "generate", terminal)]
                        src_leaf = leaf_of[terminal]
                        if valiant:
                            for _ in range(8):
                                via = rng.randrange(num_terminals)
                                via_leaf = via // hosts
                                if (
                                    routable[src_leaf * n_dests + via_leaf]
                                    and routable[
                                        via_leaf * n_dests + leaf_of[dst]
                                    ]
                                ):
                                    packet.via = via
                                    break
                            else:
                                packet.via = None
                        if not routable[src_leaf * n_dests + leaf_of[dst]]:
                            sim.unroutable_packets += 1
                            if on_drop is not None:
                                on_drop(t, terminal, packet)
                        else:
                            cid = inject_channel[terminal]
                            queue = ch_queues[cid][0]
                            queue.append((t, packet))
                            qlen = len(queue)
                            if qlen > sim.max_inject_queue:
                                sim.max_inject_queue = qlen
                            if observing:
                                if counting:
                                    c_injects[t] += 1
                                    try:
                                        c_inject_depth[qlen] += 1
                                    except IndexError:
                                        RunCounters.grow(c_inject_depth, qlen)
                                if on_inject is not None:
                                    on_inject(t, packet, qlen)
                            if qlen == 1:
                                leaf = ch_dst[cid]
                                occupied[leaf] |= 1 << unit_pos[cid * vcs]
                                blocked = ch_blocked[cid]
                                when = blocked if blocked > t else t
                                if when <= horizon:
                                    mark = when * n_sw + leaf
                                    if mark not in arb_marks:
                                        arb_marks.add(mark)
                                        buckets[when].append(
                                            (_EV_ARB, leaf, 0)
                                        )
                    flow_cursor[terminal] = j
                    if j < len(row) and row[j][0] <= horizon:
                        buckets[row[j][0]].append((_EV_GEN, terminal, 0))
                    continue
                try:
                    dst = destination(terminal, rng)
                except LookupError:
                    continue
                packet = Packet(terminal, dst, t, serial=next_serial)
                next_serial += 1
                stats.generated_packets += 1
                if packet.serial < trace_limit:
                    traces[packet.serial] = [(t, "generate", terminal)]
                src_leaf = leaf_of[terminal]
                if valiant:
                    # ---- mirrors _assign_valiant_via ----
                    for _ in range(8):
                        via = rng.randrange(num_terminals)
                        via_leaf = via // hosts
                        if (
                            routable[src_leaf * n_dests + via_leaf]
                            and routable[via_leaf * n_dests + leaf_of[dst]]
                        ):
                            packet.via = via
                            break
                    else:
                        packet.via = None
                if not routable[src_leaf * n_dests + leaf_of[dst]]:
                    sim.unroutable_packets += 1
                    if on_drop is not None:
                        on_drop(t, terminal, packet)
                else:
                    cid = inject_channel[terminal]
                    queue = ch_queues[cid][0]
                    queue.append((t, packet))
                    qlen = len(queue)
                    if qlen > sim.max_inject_queue:
                        sim.max_inject_queue = qlen
                    if observing:
                        if counting:
                            c_injects[t] += 1
                            try:
                                c_inject_depth[qlen] += 1
                            except IndexError:
                                RunCounters.grow(c_inject_depth, qlen)
                        if on_inject is not None:
                            on_inject(t, packet, qlen)
                    if qlen == 1:
                        leaf = ch_dst[cid]
                        occupied[leaf] |= 1 << unit_pos[cid * vcs]
                        blocked = ch_blocked[cid]
                        when = blocked if blocked > t else t
                        if when <= horizon:
                            mark = when * n_sw + leaf
                            if mark not in arb_marks:
                                arb_marks.add(mark)
                                buckets[when].append((_EV_ARB, leaf, 0))
                if log1m is None:
                    nxt = t + 1
                else:
                    u = rng.random()
                    nxt = t + (int(log(u) / log1m) + 1 if u > 0.0 else 1)
                if nxt <= horizon:
                    buckets[nxt].append((_EV_GEN, terminal, 0))

        bucket.clear()
        t += 1

    sim._next_serial = next_serial
    if counters is not None:
        counters.drops += sim.unroutable_packets - unroutable_before
        counters.arb_passes += arb_passes
        counters.arb_requests += arb_requests
        counters.arb_grants += arb_grants
    return sim._finish_run()
