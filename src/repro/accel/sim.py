"""Vectorized cycle engine: struct-of-arrays state + batched gathering.

Third engine of the simulator (``engine="vectorized"``), alongside the
reference engine (:meth:`~repro.simulation.engine.Simulator
.run_reference`) and the precomputed-route fast path
(:mod:`repro.simulation.fastpath`).  Like the fast path it is
**bit-for-bit identical** to the reference -- same RNG call order and
arguments, same :class:`~repro.simulation.stats.SimResult`, same
observer callback stream, same post-run channel state -- which the
three-way conformance matrix in ``tests/test_fastpath_differential.py``
enforces.  What it changes is *how the per-cycle work is found*.

The reference (and the fast path) rediscover eligible packet heads by
scanning every input unit of a switch on every arbitration event, and
then re-derive each head's output viability; at moderate load ~90% of
those unit scans hit empty or not-yet-ready queues, and over half of
all arbitration events find *no viable head at all* -- they consume no
randomness and emit no observable effect, yet the reference pays a
full scan to discover that.  This engine precomputes both facts:

* **Struct-of-arrays head state** -- every input unit (a ``(channel,
  virtual channel)`` input queue) mirrors its head packet, at the
  moment the head changes, into flat per-unit state: ``ready`` (the
  head's effective eligibility time, folding the injection-link
  blocked-until time in; a sentinel when empty), ``key`` (the CSR
  candidate-table key of the head's routing decision, ``-1`` for
  local delivery) and ``cls`` (its virtual-channel class row).  On
  batched runs the same state lives in ``array('q')`` buffers shared
  zero-copy with ``int64`` numpy views, so the sequential grant loop
  writes scalars at list speed while the batched phase reads vectors.
* **Incremental eligibility masks** -- each switch keeps a bitmask of
  its currently-eligible units, updated at head-exposure and grant
  time (a head becoming ready at a future cycle parks in a per-cycle
  activation list).  An arbitration event iterates set bits -- in
  exactly the reference's unit scan order -- instead of scanning the
  switch's whole input array.
* **Batched per-cycle candidate gathering** -- once per cycle, one
  vectorized pass gathers every eligible head's candidate row (the
  CSR rows padded into a rectangular ``int64`` matrix, padding
  pointing at a permanently-blocked dummy channel), tests viability
  against a fused per-(class, channel) **gate** vector -- the
  channel's busy-until time while the class has downstream credits,
  a never-passes sentinel while it does not, so ``gate <= t`` answers
  the reference's two-part test in one comparison -- and reduces the
  result to a per-switch bitmask of units-with-a-viable-output
  (``vmask``).  Arbitration
  events then AND their eligibility mask with the vmask: an event
  whose intersection is empty is skipped outright (it is exactly the
  reference's invisible no-op), and within granting events,
  provably-blocked heads are never visited.  Delivery and unroutable
  heads are mapped to an always-viable dummy row so they can never be
  suppressed (local ejection tests the eject channel live; unroutable
  heads must replay the reference router to reproduce its
  :class:`RoutingError` exactly).
* **Stable grant resolution** -- per-switch input units are
  constructed in strictly increasing ``(channel, vc)`` order, so the
  request lists the mask iteration produces are *already* in the
  order the reference arbiter's ``sorted()`` would yield; the
  rotating arbiter therefore skips the sort (checked once at setup,
  falling back to sorting if a topology ever breaks the invariant),
  and the random arbiter sees contender sequences in the identical
  order the reference built them.

RNG parity is the load-bearing constraint.  The engine cannot batch
*random* decisions across switches -- the reference consumes one
shared ``random.Random`` stream in event order -- so every draw stays
scalar and in order, but the two Python-level frames per draw
(``choice`` -> ``_randbelow``) are inlined to direct ``getrandbits``
calls, which consume the exact same underlying bits
(``random.Random._randbelow_with_getrandbits`` draws
``getrandbits(n.bit_length())`` until the value is below ``n``).  The
inlining is only applied when the simulator's RNG is a plain
``random.Random``; subclasses fall back to the genuine methods.

Why the suppression is exact.  The eligibility masks are maintained
*live*, so they are correct at any point of the cycle.  The vmask is
a snapshot taken at the cycle's first arbitration; for a switch it
can only go stale in the *conservative* direction -- a candidate
channel becoming busy or a buffer filling (the switch's own grants)
never turns a no-viable-output head viable -- with three exceptions,
each of which patches the snapshot in place (a spuriously-set bit is
harmless: it merely re-admits a unit to the scan the reference would
have performed anyway):

* a credit return frees a buffer slot on the crediting switch's
  output, possibly unblocking heads the snapshot wrote off -- the
  switch's vmask word is set to all-ones (unfiltered) for the rest of
  the cycle;
* a generation event exposes a new injection head the snapshot never
  saw -- its unit bit is OR-ed in;
* a grant exposes a successor head -- its unit bit is OR-ed in
  (relevant to multi-iteration arbitration within the same event).

Arrivals from other switches land ``link_latency >= 1`` cycles later
and cannot affect the current cycle; a switch's busy/credit state is
touched by no one else.  Below ``_BATCH_MIN_UNITS`` units the fixed
numpy call overhead of the per-cycle pass exceeds the scan work it
saves, so small runs keep the incremental masks only -- the
conformance tests pin the threshold to 0 to prove both regimes on
every topology.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import TYPE_CHECKING

import numpy as np

from ..simulation.packet import Packet
from ..simulation.stats import SimResult, SimStats

if TYPE_CHECKING:
    from ..routing.table import CsrTable

__all__ = ["run_vectorized", "build_padded_candidates", "EMPTY_READY"]

# Channel/event tags, kept in sync with repro.simulation.engine.
_LINK, _INJECT, _EJECT = 0, 1, 2
_EV_ARB, _EV_CREDIT, _EV_GEN = 0, 1, 2

#: Sentinel "effective ready time" for a unit with no head packet.
EMPTY_READY = 1 << 60

#: Minimum unit count before the batched numpy viability phase pays
#: for its per-cycle call overhead (measured crossover: the per-cycle
#: pass costs ~30-60us regardless of size, and only the visits it
#: saves scale with the network).  Tests pin this to 0 to force the
#: batched regime on small topologies.
_BATCH_MIN_UNITS = 4096

#: The per-switch viability bitmasks are int64; switches with a wider
#: fan-in fall back to the unbatched regime (still exact).
_MAX_FANIN = 63


def padded_width(table: CsrTable) -> int:
    """Widest candidate row of CSR ``table`` (0 for degenerate tables)."""
    if not len(table.values):
        return 0
    return int(np.diff(table.offsets).max())


def build_padded_candidates(sim, out=None):
    """Rectangular candidate matrix for ``sim``'s CSR route table.

    Returns ``(cand_pad, maxdeg)``:

    * ``cand_pad`` -- ``(num_keys, maxdeg) int32`` (CSR values are
      int32 channel ids); row ``k`` holds the output-channel candidates
      of CSR key ``k``, padded with the dummy channel id
      ``len(sim.ch_kind)`` (whose ``busy`` mirror is pinned past any
      horizon, so padding can never look viable);
    * ``maxdeg`` -- the widest row (:func:`padded_width`).

    With ``out`` -- a ``(num_keys, width)`` array, ``width >= maxdeg``,
    typically a row slice of a larger matrix -- the rows are written
    into it in place (padding included) and ``out`` is returned as
    ``cand_pad``, so a caller that needs extra rows or columns holds a
    single matrix.  Not cached: each engine builds it once per run.
    """
    from ..simulation.fastpath import build_candidate_table

    table = build_candidate_table(sim)
    lens = np.diff(table.offsets)
    n_keys = len(table.flags)
    maxdeg = padded_width(table)
    dummy = len(sim.ch_kind)
    if out is None:
        out = np.full((n_keys, maxdeg), dummy, dtype=np.int32)
    else:
        out[...] = dummy
    if maxdeg:
        # Row-major order of the mask's True cells is the CSR order.
        out[np.arange(out.shape[1]) < lens[:, None]] = table.values
    return out, maxdeg


def run_vectorized(sim) -> SimResult:
    """Execute ``sim`` through the vectorized cycle engine.

    Bit-for-bit mirror of :meth:`Simulator.run_reference` (see the
    module docstring for the argument).  Shares the simulator's channel
    state lists, so post-run inspection (``link_utilization`` etc.)
    works identically.
    """
    params = sim.params
    stats = SimStats(warmup=params.warmup_cycles, horizon=params.horizon)
    sim._stats = stats
    rng = sim.rng
    horizon = params.horizon
    phits = params.packet_phits
    latency = params.link_latency
    warmup = params.warmup_cycles
    vcs = params.virtual_channels
    rate = sim.load / phits  # packets / terminal / cycle
    topo = sim.topo
    traffic = sim.traffic
    obs = sim.observer
    direct = sim._direct
    valiant = params.valiant and not direct
    iterations = params.arbitration_iterations
    adaptive = params.up_selection == "adaptive"
    rotating = params.arbiter == "rotating"
    trace_limit = sim.trace_limit
    traces = sim.traces
    num_terminals = topo.num_terminals
    on_delivered = stats.on_delivered

    # ---- routing tables (shared with the fast path) --------------------
    from ..simulation.fastpath import build_candidate_table

    table = build_candidate_table(sim)
    cand_lists = table.to_lists()
    n_dests = table.num_dests
    n_keys = len(cand_lists)
    routable = (table.flags != table.UNROUTABLE).tolist()

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
    n_ch = len(ch_kind)
    n_sw = len(sim.in_units)

    # ---- destination decomposition (mirrors the fast path) -------------
    if direct:
        dest_switch = [topo.terminal_switch(t) for t in range(num_terminals)]
        hosts = 0
        leaf_switch: list[int] = []
        dest_leaf: list[int] = []
        vcs_cap = vcs - 1
        n_classes = vcs
    else:
        hosts = topo.hosts_per_leaf
        leaf_switch = [topo.switch_id(0, i) for i in range(topo.num_leaves)]
        dest_leaf = [t // hosts for t in range(num_terminals)]
        dest_switch = []
        vcs_cap = 0
        n_classes = 3  # rows: 0 = all VCs, 1 = Valiant lower, 2 = upper
    half = vcs // 2
    # Class row -> half-open VC index range (reference _vc_class).
    if direct:
        class_range = [(w, w + 1) for w in range(vcs)]
    else:
        class_range = [(0, vcs), (0, half), (half, vcs)]

    # ---- struct-of-arrays unit state -----------------------------------
    # One "unit" per (channel, vc) input queue, grouped contiguously by
    # switch in exactly the reference scan order.
    u_off = [0] * (n_sw + 1)
    unit_cid: list[int] = []
    unit_vc: list[int] = []
    unit_queue: list = []
    unit_inject: list[bool] = []
    unit_switch: list[int] = []
    unit_bit: list[int] = []
    units_sorted = True
    for s, row in enumerate(sim.in_units):
        prev = (-1, -1)
        for cid, vc in row:
            if (cid, vc) <= prev:
                units_sorted = False
            prev = (cid, vc)
            unit_bit.append(1 << (len(unit_cid) - u_off[s]))
            unit_cid.append(cid)
            unit_vc.append(vc)
            unit_queue.append(ch_queues[cid][vc])
            unit_inject.append(ch_kind[cid] == _INJECT)
            unit_switch.append(s)
        u_off[s + 1] = len(unit_cid)
    n_units = len(unit_cid)
    # (channel, vc) -> unit index, for head exposure on downstream
    # push.  Indexed by the vc itself, not construction order: scan
    # order is a topology/caller choice the mapping must not assume.
    unit_of: list[list[int] | None] = [None] * n_ch
    for u in range(n_units):
        row_ids = unit_of[unit_cid[u]]
        if row_ids is None:
            row_ids = unit_of[unit_cid[u]] = [-1] * vcs
        row_ids[unit_vc[u]] = u
    inject_unit = [unit_of[inject_channel[t]][0] for t in range(num_terminals)]

    # Per-unit head mirrors (plain lists: the scalar paths read them at
    # list-index speed) and per-switch eligibility masks.
    ready_l = [EMPTY_READY] * n_units
    key_l = [-1] * n_units
    cls_l = [0] * n_units
    elig_mask = [0] * n_sw
    ready_buckets: list[list[int]] = [[] for _ in range(horizon + 1)]
    # Fused viability gates: ``gate[cls * stride + c]`` is the cycle
    # from which class ``cls`` may take channel ``c`` -- the channel's
    # busy-until time while the class has free downstream slots, the
    # EMPTY_READY sentinel while it does not.  One lookup answers the
    # reference's two-part test (``busy <= t and slots free``).  Two
    # dummy channels close the table: ``n_ch`` is permanently blocked
    # (candidate-row padding), ``n_ch + 1`` is permanently viable
    # (delivery / unroutable heads, which must never be suppressed).
    stride = n_ch + 2
    gate_l = [EMPTY_READY] * (n_classes * stride)

    # Batched phase, engaged only when the run is large enough to
    # amortize the per-cycle numpy overhead (see module docstring).
    cand_pad, maxdeg = build_padded_candidates(sim)
    max_fanin = max((u_off[s + 1] - u_off[s] for s in range(n_sw)), default=0)
    batching = _BATCH_MIN_UNITS <= n_units and max_fanin <= _MAX_FANIN
    if batching:
        # Candidate matrix with the extra always-viable row (index
        # ``n_keys``) that delivery and unroutable heads key to.
        cand_pad_x = np.full(
            (n_keys + 1, max(maxdeg, 1)), n_ch, dtype=np.int64
        )
        if maxdeg:
            cand_pad_x[:n_keys, :maxdeg] = cand_pad
        cand_pad_x[n_keys, 0] = n_ch + 1
        # Typed mirrors of the plain-list state, shared zero-copy with
        # numpy views.
        ready_a = array("q", ready_l)
        vkey_a = array("q", [n_keys] * n_units)
        cls_a = array("q", cls_l)
        ready_np = np.frombuffer(ready_a, dtype=np.int64)
        vkey_np = np.frombuffer(vkey_a, dtype=np.int64)
        cls_np = np.frombuffer(cls_a, dtype=np.int64)
        sw_np = np.array(unit_switch, dtype=np.int64)
        base_np = np.array(
            [u_off[s] for s in unit_switch], dtype=np.int64
        )
        one64 = np.int64(1)
        vmask_buf = np.zeros(n_sw, dtype=np.int64)
        # Folded Clos without Valiant uses a single class row for
        # every head, so the batched pass can skip the class gather.
        uniform_cls = not direct and not valiant
    else:
        ready_a = vkey_a = cls_a = None
        uniform_cls = False

    # Initial gates: every link channel starts idle (busy 0) and fully
    # credited, and the always-viable dummy column is open in every
    # class row.
    for cid in range(n_ch):
        if ch_kind[cid] != _LINK:
            continue
        slots = ch_slots[cid]
        if direct:
            for w in range(vcs):
                if slots[w] > 0:
                    gate_l[w * stride + cid] = 0
        else:
            gate_l[cid] = 0
            if any(slots[:half]):
                gate_l[stride + cid] = 0
            if any(slots[half:]):
                gate_l[2 * stride + cid] = 0
    for c in range(n_classes):
        gate_l[c * stride + n_ch + 1] = -1
    if batching:
        gate_a = array("q", gate_l)
        gate_np = np.frombuffer(gate_a, dtype=np.int64)
    else:
        gate_a = None

    # ---- RNG inlining ---------------------------------------------------
    inline_rng = type(rng) is random.Random
    grb = rng.getrandbits
    choice = rng.choice
    bitlen = [0] + [
        i.bit_length() for i in range(1, max(maxdeg, max_fanin, vcs) + 2)
    ]
    kt = num_terminals.bit_length()
    # Uniform traffic is one randrange(n - 1) + shift per packet;
    # inline it on the exact class (subclasses keep their own logic).
    from ..simulation.traffic import UniformTraffic

    uniform_dst = inline_rng and type(traffic) is UniformTraffic
    nt1 = num_terminals - 1
    ku = nt1.bit_length()

    # ---- head exposure --------------------------------------------------
    def expose(u: int, switch: int, now: int) -> None:
        """Mirror a unit's new head packet into the SoA state.

        Also performs the Valiant phase switch the reference does
        lazily at scan time (clearing ``via`` once the packet sits at
        its intermediate leaf) -- hoisting it to exposure time is
        observationally identical because nothing reads ``via``
        between arrival and the next scan.
        """
        queue = unit_queue[u]
        ready, packet = queue[0]
        if unit_inject[u]:
            blocked = ch_blocked[unit_cid[u]]
            if blocked > ready:
                ready = blocked
        ready_l[u] = ready
        if ready <= now:
            elig_mask[switch] |= unit_bit[u]
        elif ready <= horizon:
            ready_buckets[ready].append(u)
        if direct:
            dsw = dest_switch[packet.dst]
            key = -1 if switch == dsw else switch * n_dests + dsw
            h = packet.hops
            cls = h if h < vcs_cap else vcs_cap
        else:
            via = packet.via
            key = None
            if via is not None:
                via_leaf = via // hosts
                if switch == leaf_switch[via_leaf]:
                    packet.via = None  # randomization phase complete
                else:
                    key = switch * n_dests + via_leaf
                    cls = 1 if valiant else 0
            if key is None:
                dleaf = dest_leaf[packet.dst]
                key = (
                    -1
                    if switch == leaf_switch[dleaf]
                    else switch * n_dests + dleaf
                )
                cls = 2 if valiant else 0
        key_l[u] = key
        cls_l[u] = cls
        if batching:
            ready_a[u] = ready
            cls_a[u] = cls
            # Delivery and unroutable heads key to the always-viable
            # row so the vmask can never suppress them.
            vkey_a[u] = (
                key
                if key >= 0 and cand_lists[key] is not None
                else n_keys
            )

    # ---- schedule -------------------------------------------------------
    # Events are single ints: (payload << 2) | kind, with payload a
    # switch (ARB), channel * vcs + vc (CREDIT) or terminal (GEN) --
    # one append per schedule instead of a tuple allocation.
    buckets: list[list[int]] = [[] for _ in range(horizon + 1)]
    # Arbitration-mark dedup (at most one pending arb event per
    # (cycle, switch)): every mark targets a cycle within
    # ``max(phits, latency)`` of now, so a ring of per-cycle byte rows
    # replaces the reference's set.  Rows self-clean -- each marked
    # event zeroes its flag when it fires.
    n_ring = max(phits, latency) + 1
    mark_ring = [bytearray(n_sw) for _ in range(n_ring)]
    # Reference-loop state mirrors (kept for debugging parity).
    sim._heap = []
    sim._seq = 0
    sim._arb_marks = set()
    arb_pointers: dict[int, int] | None = None
    next_serial = sim._next_serial

    if obs is not None:
        obs.on_run_start(sim)

    # ---- seed generation events (mirrors Simulator.run) ----------------
    # Flow workloads (duck-typed on ``flow_schedule``) seed one GEN
    # chain per terminal at its first release time; no RNG is consumed
    # for arrivals or destinations, so flow mode stays bit-for-bit
    # with the reference and fast engines.
    log1m = math.log1p(-rate) if rate < 1.0 else None
    log = math.log
    flow_schedule = getattr(traffic, "flow_schedule", None)
    if flow_schedule is not None:
        flow_rows = flow_schedule.releases
        flow_cursor = [0] * num_terminals
        for terminal, row in enumerate(flow_rows):
            if row and row[0][0] <= horizon:
                buckets[row[0][0]].append((terminal << 2) | _EV_GEN)
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
                buckets[first].append((terminal << 2) | _EV_GEN)

    destination = traffic.destination

    # ---- cycle loop -----------------------------------------------------
    t = 0
    while t <= horizon:
        acts = ready_buckets[t]
        if acts:
            # Heads parked for this cycle become eligible before any
            # event fires (eligibility is ``ready <= t``, constant
            # within the cycle).
            for u in acts:
                elig_mask[unit_switch[u]] |= unit_bit[u]
            acts.clear()
        bucket = buckets[t]
        if not bucket:
            t += 1
            continue
        vmask = None
        mrow = mark_ring[t % n_ring]
        i = 0
        while i < len(bucket):
            ev = bucket[i]
            i += 1
            kind = ev & 3

            if kind == _EV_ARB:
                switch = ev >> 2
                mrow[switch] = 0
                mask = elig_mask[switch]
                if not mask:
                    # Nothing queued and ready: the reference would
                    # scan every input unit to conclude the same.
                    continue
                if batching:
                    if vmask is None:
                        # One vectorized pass serves the whole cycle:
                        # gather every eligible head's candidate rows
                        # and reduce gate viability to per-switch unit
                        # masks.  Later intra-cycle state changes
                        # patch the masks in place (conservatively)
                        # instead of invalidating them.
                        elig_idx = np.flatnonzero(ready_np <= t)
                        if elig_idx.size:
                            cand = cand_pad_x[vkey_np[elig_idx]]
                            if not uniform_cls:
                                cand = (
                                    cand
                                    + cls_np[elig_idx][:, None] * stride
                                )
                            viable_any = (gate_np[cand] <= t).any(axis=1)
                            vu = elig_idx[viable_any]
                            vmask_buf[:] = 0
                            if vu.size:
                                contrib = np.left_shift(
                                    one64, vu - base_np[vu]
                                )
                                sw = sw_np[vu]
                                seg = np.flatnonzero(
                                    np.diff(sw, prepend=-1)
                                )
                                np.add.reduceat(
                                    contrib, seg, out=contrib[: len(seg)]
                                )
                                vmask_buf[sw[seg]] = contrib[: len(seg)]
                            vmask = vmask_buf.tolist()
                        else:
                            vmask = [0] * n_sw
                    mask &= vmask[switch]
                    if not mask:
                        # Every eligible head is provably blocked for
                        # now: the event is the reference's invisible
                        # no-op (no request, no RNG, no observable).
                        continue
                ustart = u_off[switch]

                total_requests = 0
                granted: set[int] = set()
                any_grant = False
                for it in range(iterations):
                    requests: dict[int, list] = {}
                    m = elig_mask[switch]
                    if vmask is not None:
                        m &= vmask[switch]
                    while m:
                        lsb = m & -m
                        m ^= lsb
                        u = ustart + lsb.bit_length() - 1
                        cid = unit_cid[u]
                        if granted and cid in granted:
                            continue
                        queue = unit_queue[u]
                        packet = queue[0][1]
                        key = key_l[u]
                        if key < 0:
                            # Local delivery: single eject candidate,
                            # busy test only, no RNG.
                            out = eject_channel[packet.dst]
                            if ch_busy[out] > t:
                                continue
                        else:
                            cands = cand_lists[key]
                            if cands is None:
                                # Unroutable pair: replay the
                                # reference router (raises the
                                # identical RoutingError on folded
                                # Clos; empty list on direct).
                                cands = sim._output_candidates(
                                    switch, packet
                                )
                            base = cls_l[u] * stride
                            viable = []
                            for out in cands:
                                if gate_l[base + out] <= t:
                                    viable.append(out)
                            n = len(viable)
                            if n == 0:
                                continue
                            if n == 1:
                                out = viable[0]
                            elif adaptive:
                                lo_hi = class_range[cls_l[u]]
                                out = sim._most_credited(
                                    viable, lo_hi[0], lo_hi[1], rng
                                )
                            elif inline_rng:
                                k = bitlen[n]
                                r = grb(k)
                                while r >= n:
                                    r = grb(k)
                                out = viable[r]
                            else:
                                out = choice(viable)
                        entry = (u, cid, unit_vc[u], packet, queue)
                        lst = requests.get(out)
                        if lst is None:
                            requests[out] = [entry]
                        else:
                            lst.append(entry)

                    if not requests:
                        break
                    if obs is not None:
                        for contenders in requests.values():
                            total_requests += len(contenders)
                    for out, contenders in requests.items():
                        if len(contenders) == 1:
                            u, cid, vc, packet, queue = contenders[0]
                        elif rotating:
                            # Scan order is (cid, vc)-sorted by unit
                            # construction, so the reference arbiter's
                            # sorted() is the identity here.
                            if not units_sorted:
                                contenders = sorted(
                                    contenders, key=lambda c: (c[1], c[2])
                                )
                            if arb_pointers is None:
                                arb_pointers = getattr(
                                    sim, "_arb_pointers", None
                                )
                                if arb_pointers is None:
                                    arb_pointers = {}
                                    sim._arb_pointers = arb_pointers
                            pointer = arb_pointers.get(out, -1)
                            chosen = None
                            for c in contenders:
                                if c[1] > pointer:
                                    chosen = c
                                    break
                            if chosen is None:
                                chosen = contenders[0]
                            arb_pointers[out] = chosen[1]
                            u, cid, vc, packet, queue = chosen
                        elif inline_rng:
                            n = len(contenders)
                            k = bitlen[n]
                            r = grb(k)
                            while r >= n:
                                r = grb(k)
                            u, cid, vc, packet, queue = contenders[r]
                        else:
                            u, cid, vc, packet, queue = choice(contenders)

                        # ==== grant (mirrors Simulator._grant) ==========
                        queue.popleft()
                        elig_mask[switch] &= ~unit_bit[u]
                        busy_until = t + phits
                        ch_busy[out] = busy_until
                        # Propagate the busy time through every class
                        # gate that is currently credited (exhausted
                        # rows stay at the sentinel until a credit
                        # reopens them).
                        gi = out
                        for _ in range(n_classes):
                            if gate_l[gi] != EMPTY_READY:
                                gate_l[gi] = busy_until
                                if batching:
                                    gate_a[gi] = busy_until
                            gi += stride
                        lo_c = t if t > warmup else warmup
                        hi_c = busy_until if busy_until < horizon else horizon
                        if hi_c > lo_c:
                            ch_busy_cycles[out] += hi_c - lo_c
                        if busy_until <= horizon:
                            row = mark_ring[busy_until % n_ring]
                            if not row[switch]:
                                row[switch] = 1
                                buckets[busy_until].append(switch << 2)
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
                            on_delivered(packet, delivered, phits)
                            if obs is not None:
                                obs.on_eject(
                                    t,
                                    packet,
                                    delivered - packet.created,
                                    phits,
                                )
                        else:
                            slots = ch_slots[out]
                            lo_w, hi_w = class_range[cls_l[u]]
                            free_vcs = []
                            for wi in range(lo_w, hi_w):
                                if slots[wi] > 0:
                                    free_vcs.append(wi)
                            n = len(free_vcs)
                            if n == 1:
                                w = free_vcs[0]
                            elif inline_rng:
                                k = bitlen[n]
                                r = grb(k)
                                while r >= n:
                                    r = grb(k)
                                w = free_vcs[r]
                            else:
                                w = choice(free_vcs)
                            slots[w] -= 1
                            if slots[w] == 0:
                                # Close the class gates this drain may
                                # have exhausted.
                                if direct:
                                    gi = w * stride + out
                                    gate_l[gi] = EMPTY_READY
                                    if batching:
                                        gate_a[gi] = EMPTY_READY
                                else:
                                    if not any(slots):
                                        gate_l[out] = EMPTY_READY
                                        if batching:
                                            gate_a[out] = EMPTY_READY
                                    if w < half:
                                        if not any(slots[:half]):
                                            gi = stride + out
                                            gate_l[gi] = EMPTY_READY
                                            if batching:
                                                gate_a[gi] = EMPTY_READY
                                    elif not any(slots[half:]):
                                        gi = 2 * stride + out
                                        gate_l[gi] = EMPTY_READY
                                        if batching:
                                            gate_a[gi] = EMPTY_READY
                            packet.hops += 1
                            down_queue = ch_queues[out][w]
                            down_queue.append((t + latency, packet))
                            if obs is not None:
                                obs.on_hop(
                                    t,
                                    packet,
                                    switch,
                                    ch_dst[out],
                                    w,
                                    slots[w],
                                    len(down_queue),
                                )
                            downstream = ch_dst[out]
                            if len(down_queue) == 1:
                                expose(unit_of[out][w], downstream, t)
                            arrive = t + latency
                            if arrive <= horizon:
                                row = mark_ring[arrive % n_ring]
                                if not row[downstream]:
                                    row[downstream] = 1
                                    buckets[arrive].append(downstream << 2)
                        if ch_kind[cid] == _LINK:
                            if busy_until <= horizon:
                                buckets[busy_until].append(
                                    ((cid * vcs + vc) << 2) | _EV_CREDIT
                                )
                        else:
                            # Injection link busy until the tail
                            # leaves the host.
                            ch_blocked[cid] = busy_until
                            if packet.injected is None:
                                packet.injected = t
                            stats.injected_packets += 1
                            if queue and busy_until <= horizon:
                                row = mark_ring[busy_until % n_ring]
                                if not row[switch]:
                                    row[switch] = 1
                                    buckets[busy_until].append(switch << 2)
                        # Mirror the granted unit's new head (after
                        # the injection blocked-until update).  The
                        # viability snapshot never saw a successor
                        # head, so patch its bit in (a stale set bit
                        # merely re-admits the reference's scan).
                        if queue:
                            expose(u, switch, t)
                            if vmask is not None:
                                vmask[switch] |= unit_bit[u]
                        else:
                            ready_l[u] = EMPTY_READY
                            if batching:
                                ready_a[u] = EMPTY_READY
                        granted.add(cid)
                        any_grant = True
                if obs is not None and total_requests:
                    obs.on_arbitrate(
                        t, switch, total_requests, len(granted)
                    )
                if any_grant:
                    nxt = t + 1
                    if nxt <= horizon:
                        row = mark_ring[nxt % n_ring]
                        if not row[switch]:
                            row[switch] = 1
                            buckets[nxt].append(switch << 2)

            elif kind == _EV_CREDIT:
                p = ev >> 2
                a = p // vcs
                b = p - a * vcs
                slots = ch_slots[a]
                was = slots[b]
                slots[b] = was + 1
                if was == 0:
                    # A zero slot coming back can only open gates; an
                    # opening gate adopts the channel's current busy
                    # time (already-open gates hold it by invariant).
                    busy = ch_busy[a]
                    if direct:
                        gi = b * stride + a
                        if gate_l[gi] == EMPTY_READY:
                            gate_l[gi] = busy
                            if batching:
                                gate_a[gi] = busy
                    else:
                        if gate_l[a] == EMPTY_READY:
                            gate_l[a] = busy
                            if batching:
                                gate_a[a] = busy
                        gi = (stride if b < half else 2 * stride) + a
                        if gate_l[gi] == EMPTY_READY:
                            gate_l[gi] = busy
                            if batching:
                                gate_a[gi] = busy
                src = ch_src[a]
                if src >= 0:
                    if vmask is not None:
                        # The freed slot may unblock heads the
                        # viability snapshot wrote off: unfilter the
                        # switch for the rest of the cycle.
                        vmask[src] = -1
                    if not mrow[src]:
                        mrow[src] = 1
                        bucket.append(src << 2)

            else:  # _EV_GEN -- mirrors Simulator._generate
                terminal = ev >> 2
                if flow_rows is not None:
                    # ---- mirrors Simulator._release_flows ----
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
                        if valiant:
                            src_leaf_switch = leaf_switch[terminal // hosts]
                            for _ in range(8):
                                if inline_rng:
                                    via = grb(kt)
                                    while via >= num_terminals:
                                        via = grb(kt)
                                else:
                                    via = rng.randrange(num_terminals)
                                via_leaf = via // hosts
                                if (
                                    routable[
                                        src_leaf_switch * n_dests + via_leaf
                                    ]
                                    and routable[
                                        leaf_switch[via_leaf] * n_dests
                                        + dest_leaf[dst]
                                    ]
                                ):
                                    packet.via = via
                                    break
                            else:
                                packet.via = None
                        if direct:
                            ok = routable[
                                dest_switch[terminal] * n_dests
                                + dest_switch[dst]
                            ]
                        else:
                            ok = routable[
                                leaf_switch[terminal // hosts] * n_dests
                                + dest_leaf[dst]
                            ]
                        if not ok:
                            sim.unroutable_packets += 1
                            if obs is not None:
                                obs.on_drop(t, terminal, packet)
                        else:
                            cid = inject_channel[terminal]
                            queue = ch_queues[cid][0]
                            queue.append((t, packet))
                            qlen = len(queue)
                            if qlen > sim.max_inject_queue:
                                sim.max_inject_queue = qlen
                            if obs is not None:
                                obs.on_inject(t, packet, qlen)
                            if qlen == 1:
                                leaf = ch_dst[cid]
                                iu = inject_unit[terminal]
                                expose(iu, leaf, t)
                                if vmask is not None:
                                    # The snapshot never saw this head.
                                    vmask[leaf] |= unit_bit[iu]
                                blocked = ch_blocked[cid]
                                when = blocked if blocked > t else t
                                if when <= horizon:
                                    row_m = mark_ring[when % n_ring]
                                    if not row_m[leaf]:
                                        row_m[leaf] = 1
                                        buckets[when].append(leaf << 2)
                    flow_cursor[terminal] = j
                    if j < len(row) and row[j][0] <= horizon:
                        buckets[row[j][0]].append(
                            (terminal << 2) | _EV_GEN
                        )
                    continue
                if uniform_dst:
                    r = grb(ku)
                    while r >= nt1:
                        r = grb(ku)
                    dst = r if r < terminal else r + 1
                else:
                    try:
                        dst = destination(terminal, rng)
                    except LookupError:
                        continue
                packet = Packet(terminal, dst, t, serial=next_serial)
                next_serial += 1
                stats.generated_packets += 1
                if packet.serial < trace_limit:
                    traces[packet.serial] = [(t, "generate", terminal)]
                if valiant:
                    # ---- mirrors _assign_valiant_via ----
                    src_leaf_switch = leaf_switch[terminal // hosts]
                    for _ in range(8):
                        if inline_rng:
                            via = grb(kt)
                            while via >= num_terminals:
                                via = grb(kt)
                        else:
                            via = rng.randrange(num_terminals)
                        via_leaf = via // hosts
                        if (
                            routable[src_leaf_switch * n_dests + via_leaf]
                            and routable[
                                leaf_switch[via_leaf] * n_dests
                                + dest_leaf[dst]
                            ]
                        ):
                            packet.via = via
                            break
                    else:
                        packet.via = None
                if direct:
                    ok = routable[
                        dest_switch[terminal] * n_dests + dest_switch[dst]
                    ]
                else:
                    ok = routable[
                        leaf_switch[terminal // hosts] * n_dests
                        + dest_leaf[dst]
                    ]
                if not ok:
                    sim.unroutable_packets += 1
                    if obs is not None:
                        obs.on_drop(t, terminal, packet)
                else:
                    cid = inject_channel[terminal]
                    queue = ch_queues[cid][0]
                    queue.append((t, packet))
                    qlen = len(queue)
                    if qlen > sim.max_inject_queue:
                        sim.max_inject_queue = qlen
                    if obs is not None:
                        obs.on_inject(t, packet, qlen)
                    if qlen == 1:
                        leaf = ch_dst[cid]
                        iu = inject_unit[terminal]
                        expose(iu, leaf, t)
                        if vmask is not None:
                            # The snapshot never saw this head.
                            vmask[leaf] |= unit_bit[iu]
                        blocked = ch_blocked[cid]
                        when = blocked if blocked > t else t
                        if when <= horizon:
                            row = mark_ring[when % n_ring]
                            if not row[leaf]:
                                row[leaf] = 1
                                buckets[when].append(leaf << 2)
                if log1m is None:
                    nxt = t + 1
                else:
                    u = rng.random()
                    nxt = t + (int(log(u) / log1m) + 1 if u > 0.0 else 1)
                if nxt <= horizon:
                    buckets[nxt].append((terminal << 2) | _EV_GEN)

        bucket.clear()
        t += 1

    sim._next_serial = next_serial
    result = SimResult.from_stats(
        stats,
        offered_load=sim.load,
        num_terminals=num_terminals,
        traffic=traffic.name,
        topology=topo.name,
        unroutable_packets=sim.unroutable_packets,
    )
    if obs is not None:
        obs.on_run_end(sim, result)
    return result
