"""Relaxed-RNG cycle engine: fully batched arbitration.

Third engine of the simulator, selected by
``SimulationParams(rng_mode="relaxed")``.  The two exact engines
(reference and fast) are bit-for-bit identical to each other because
they consume one shared sequential ``random.Random`` stream in event
order -- which is also why they cap near fast-path parity: every
arbitration draw depends on every draw before it, so random decisions
cannot batch (docs/PERFORMANCE.md).  This engine drops stream
equality.  Every random decision becomes a pure function of ``(seed,
packet_id, cycle, draw_site)`` through the counter-based generator in
:mod:`repro.accel.rng`, draws decouple, and the whole per-cycle
request/grant phase collapses into a handful of numpy passes:

* **request** -- one gather of every ready head's candidate row
  against the fused ``(class, channel)`` gate vector (the channel's
  busy-until time while the class has downstream credit,
  ``EMPTY_READY`` while it does not), then one keyed draw per
  head picks among its viable outputs (``randbelow`` by modulo);
* **grant** -- contenders for the same output race by keyed 64-bit
  priority: a single ``lexsort`` over ``(output, priority)`` and a
  segment-boundary scan yield the per-output winners, which is exactly
  a uniform pick among each output's contenders;
* **traffic** -- Bernoulli inter-arrival gaps and uniform destinations
  are pregenerated for the whole horizon as one ``(terminals, draws)``
  keyed matrix (stateful patterns keep a per-arrival
  :class:`~repro.accel.rng.KeyedStream`).

Only the grant *bookkeeping* (queue pops, credit scheduling, head
exposure) stays scalar, and it is proportional to actual grants, not
to scans.

What "relaxed" changes observably
---------------------------------

Results are still **deterministic for a given seed** -- same topology,
params and seed always produce the same :class:`SimResult` -- but they
are *not* bit-for-bit comparable to exact-mode results, for two
reasons beyond the generator itself:

* the reference interleaves arbitration events of different switches
  through one event heap and its RNG stream threads through that
  order; here every switch arbitrates simultaneously each cycle.  The
  per-cycle outcome distribution is unchanged -- each output channel
  is owned by exactly one switch, so grants never conflict across
  switches -- but individual coin flips differ;
* the reference re-fires an arbitration event inside a cycle when a
  credit returns mid-cycle; here credits are applied at the top of the
  cycle (the dominant reference ordering, since credits carry smaller
  heap sequence numbers than same-cycle arbitration marks) and each
  cycle runs its arbitration rounds once.

The equivalence that *is* guaranteed -- matching saturation
throughput, accepted-load curves and latency distributions within
confidence intervals -- is enforced statistically by
``tests/statcheck.py`` / ``tests/test_relaxed_rng_equivalence.py``
against paired exact-mode replication sweeps.  Because results differ
bit-for-bit, ``rng_mode`` **participates in the result cache key**
(see ``CACHE_KEY_EXCLUDED_FIELDS`` policy in
:mod:`repro.simulation.config`; lint pass RPR105 guards it).

Restrictions: ``arbiter="random"`` and ``up_selection="random"`` only
(the paper's Table 2 configuration; rotating pointers and adaptive
credit comparisons are inherently sequential), enforced at
:class:`SimulationParams` construction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..obs.counters import RunCounters
from ..obs.hooks import begin_run
from ..simulation.packet import Packet
from ..simulation.stats import SimResult, SimStats
from array import array

from .rng import (
    SITE_BITS,
    SITE_DEST,
    SITE_GAP,
    SITE_REQUEST,
    SITE_TRAFFIC,
    SITE_VIA,
    KeyedStream,
    draw64,
    draw64_array,
    key_seed,
    mix64_array,
    uniform01_array,
)

if TYPE_CHECKING:
    from ..routing.table import CsrTable

__all__ = ["run_relaxed", "build_relaxed_candidates", "build_padded_candidates"]

# Channel tags, kept in sync with repro.simulation.engine.
_LINK, _INJECT, _EJECT = 0, 1, 2

#: Sentinel "effective ready time" for a unit with no head packet (and
#: the never-passes gate of a class with no downstream credit).
EMPTY_READY = 1 << 60

#: Salts deriving the grant-priority and VC-pick lanes from the
#: request draw (one extra finalizer application each instead of a
#: second full keyed draw; sites stay distinct through the salt).
_GRANT_SALT = np.uint64(0xD1B54A32D192ED03)
_VC_SALT = np.uint64(0x8CB92BA72F3D8DD7)

_U64 = np.uint64


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
      ``len(sim.ch_kind)`` (whose gate is pinned past any horizon, so
      padding can never look viable);
    * ``maxdeg`` -- the widest row (:func:`padded_width`).

    With ``out`` -- a ``(num_keys, width)`` array, ``width >= maxdeg``,
    typically a row slice of a larger matrix -- the rows are written
    into it in place (padding included) and ``out`` is returned as
    ``cand_pad``, so a caller that needs extra rows or columns holds a
    single matrix.  Not cached.
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


def build_relaxed_candidates(sim):
    """Extended candidate matrix covering delivery heads.

    Returns ``(cand_ext, width)`` where ``cand_ext`` is ``(n_keys + 1 +
    num_terminals, width) int32``: rows ``0..n_keys-1`` are the CSR
    candidate rows (padded with the permanently-blocked dummy channel
    ``n_ch``), row ``n_keys`` is fully blocked (empty units and
    unroutable heads key here so the batched pass can never grant
    them), and row ``n_keys + 1 + dst`` holds destination ``dst``'s
    single eject channel.  The engine grants straight from the batch,
    so eject channels get real viability gates and a real candidate
    row.

    The matrix is allocated once and :func:`build_padded_candidates`
    fills its CSR rows in place, so no second padded copy exists.
    Cached on the simulator.
    """
    cached = getattr(sim, "_relaxed_pad", None)
    if cached is not None:
        return cached
    from ..simulation.fastpath import build_candidate_table

    table = build_candidate_table(sim)
    n_keys = len(table.flags)
    n_ch = len(sim.ch_kind)
    num_terminals = sim.topo.num_terminals
    width = max(padded_width(table), 1)
    cand_ext = np.empty((n_keys + 1 + num_terminals, width), dtype=np.int32)
    build_padded_candidates(sim, out=cand_ext[:n_keys])
    cand_ext[n_keys:] = n_ch
    cand_ext[n_keys + 1 :, 0] = sim.eject_channel
    sim._relaxed_pad = (cand_ext, width)
    return sim._relaxed_pad


def run_relaxed(sim) -> SimResult:
    """Execute ``sim`` through the relaxed counter-RNG engine.

    Deterministic per ``(topology, params, seed)``; statistically --
    not bit-for-bit -- equivalent to the exact engines (module
    docstring).  Shares the simulator's channel state lists, so
    post-run inspection (``link_utilization`` etc.) works identically.
    """
    params = sim.params
    stats = SimStats(warmup=params.warmup_cycles, horizon=params.horizon)
    sim._stats = stats
    horizon = params.horizon
    phits = params.packet_phits
    latency = params.link_latency
    warmup = params.warmup_cycles
    vcs = params.virtual_channels
    rate = sim.load / phits  # packets / terminal / cycle
    topo = sim.topo
    traffic = sim.traffic
    direct = sim._direct
    valiant = params.valiant and not direct
    iterations = params.arbitration_iterations
    trace_limit = sim.trace_limit
    traces = sim.traces
    num_terminals = topo.num_terminals
    hseed = key_seed(params.seed)

    # Delivery statistics accumulate in locals (flushed into ``stats``
    # at run end): the eject branch is hot enough that the
    # ``SimStats.on_delivered`` method call shows up in profiles.
    nb = stats.num_batches
    window = horizon - warmup
    delivered_total = 0
    m_packets = 0
    m_latsum = 0
    m_hopsum = 0
    m_maxlat = 0
    batch_local = [0] * nb
    lat_append = stats.latencies.append
    generated_local = 0
    injected_local = 0
    unroutable_local = 0
    max_injectq = sim.max_inject_queue

    # ---- routing tables (shared with the fast engine) ------------------
    from ..simulation.fastpath import build_candidate_table

    table = build_candidate_table(sim)
    n_dests = table.num_dests
    n_keys = len(table.flags)
    # One byte per key (indexing gives 0/1): the engine reads only
    # routability from the table, the candidates come from ``cand_ext``.
    routable = (table.flags != table.UNROUTABLE).tobytes()

    ch_src = sim.ch_src
    ch_dst = sim.ch_dst
    ch_kind = sim.ch_kind
    ch_peer = sim.ch_peer
    ch_slots = sim.ch_slots
    ch_queues = sim.ch_queues
    ch_blocked = sim.ch_blocked
    eject_channel = sim.eject_channel
    inject_channel = sim.inject_channel
    n_ch = len(ch_kind)
    n_sw = len(sim.in_units)
    # Byte flags beat list-index-plus-compare in the per-grant loop.
    is_eject = bytearray(1 if k == _EJECT else 0 for k in ch_kind)
    is_link = bytearray(1 if k == _LINK else 0 for k in ch_kind)
    # Busy times and busy-cycle accounting move to numpy mirrors so a
    # round's winners update in one fancy-indexed write; the
    # simulator's lists are refreshed at run end (post-run inspection
    # like ``link_utilization`` reads them).
    busy_np = np.array(sim.ch_busy, dtype=np.int64)
    busycyc_np = np.array(sim.ch_busy_cycles, dtype=np.int64)

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
    if direct:
        class_range = [(w, w + 1) for w in range(vcs)]
    else:
        class_range = [(0, vcs), (0, half), (half, vcs)]

    # ---- struct-of-arrays unit state -----------------------------------
    # One unit per (channel, vc) input queue, in ``sim.in_units`` order
    # (grant-apply order follows output-channel ids, so unit order only
    # has to be deterministic, which it is).
    unit_cid: list[int] = []
    unit_vc: list[int] = []
    unit_queue: list = []
    unit_inject: list[bool] = []
    unit_switch: list[int] = []
    for s, row in enumerate(sim.in_units):
        for cid, vc in row:
            unit_cid.append(cid)
            unit_vc.append(vc)
            unit_queue.append(ch_queues[cid][vc])
            unit_inject.append(ch_kind[cid] == _INJECT)
            unit_switch.append(s)
    n_units = len(unit_cid)
    unit_of: list[list[int] | None] = [None] * n_ch
    for u in range(n_units):
        row_ids = unit_of[unit_cid[u]]
        if row_ids is None:
            row_ids = unit_of[unit_cid[u]] = [-1] * vcs
        row_ids[unit_vc[u]] = u
    inject_unit = [unit_of[inject_channel[t]][0] for t in range(num_terminals)]

    # Typed head mirrors, shared zero-copy with numpy views: the scalar
    # grant loop writes single slots, the batched request phase reads
    # whole vectors.  ``serial`` feeds the keyed draws (uint64 lanes).
    ready_a = array("q", [EMPTY_READY] * n_units)
    vkey_a = array("q", [n_keys] * n_units)
    cls_a = array("q", [0] * n_units)
    serial_a = array("Q", [0] * n_units)
    ready_np = np.frombuffer(ready_a, dtype=np.int64)
    vkey_np = np.frombuffer(vkey_a, dtype=np.int64)
    cls_np = np.frombuffer(cls_a, dtype=np.int64)
    serial_np = np.frombuffer(serial_a, dtype=np.uint64)
    sw_np = np.array(unit_switch, dtype=np.int64)
    cid_np = np.array(unit_cid, dtype=np.int64)

    cand_ext, width = build_relaxed_candidates(sim)
    blocked_row = n_keys
    deliver_base = n_keys + 1

    # Fused viability gates, one dummy column: ``gate[cls * stride + c]``
    # is the cycle from which class ``cls`` may take channel ``c``
    # (EMPTY_READY while the class has no downstream credit); column
    # ``n_ch`` is the permanently-blocked candidate padding.  Eject
    # channels carry real gates (busy time only -- delivery consumes no
    # buffer credit), open in every class row.
    stride = n_ch + 1
    gate_a = array("q", [EMPTY_READY] * (n_classes * stride))
    gate_np = np.frombuffer(gate_a, dtype=np.int64)
    for cid in range(n_ch):
        kind = ch_kind[cid]
        if kind == _EJECT:
            for c in range(n_classes):
                gate_a[c * stride + cid] = 0
            continue
        if kind != _LINK:
            continue
        slots = ch_slots[cid]
        if direct:
            for w in range(vcs):
                if slots[w] > 0:
                    gate_a[w * stride + cid] = 0
        else:
            gate_a[cid] = 0
            if any(slots[:half]):
                gate_a[stride + cid] = 0
            if any(slots[half:]):
                gate_a[2 * stride + cid] = 0
    uniform_cls = not direct and not valiant

    # Per-channel bitmask of virtual channels with free downstream
    # slots: the grant loop picks the k-th set bit through a
    # precomputed table instead of re-scanning the slot list.  Falls
    # back to the scan for implausibly wide VC counts.
    use_mask = vcs <= 12
    if use_mask:
        free_mask = [0] * n_ch
        for cid in range(n_ch):
            if ch_kind[cid] == _LINK:
                slots = ch_slots[cid]
                free_mask[cid] = sum(
                    1 << w for w in range(vcs) if slots[w] > 0
                )
        bit_table = [
            [w for w in range(vcs) if (m >> w) & 1] for m in range(1 << vcs)
        ]
        full_vc_mask = (1 << vcs) - 1
    else:
        free_mask = []
        bit_table = []
        full_vc_mask = 0

    # ---- head exposure --------------------------------------------------
    def expose_general(u: int, switch: int, now: int) -> None:
        """Mirror a unit's new head packet into the typed state."""
        queue = unit_queue[u]
        ready, packet = queue[0]
        if unit_inject[u]:
            blocked = ch_blocked[unit_cid[u]]
            if blocked > ready:
                ready = blocked
        ready_a[u] = ready
        serial_a[u] = packet.serial
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
        cls_a[u] = cls
        if key < 0:
            vkey_a[u] = deliver_base + packet.dst
        elif routable[key]:
            vkey_a[u] = key
        else:
            if not direct:
                # Unroutable head on folded Clos: replay the reference
                # router so the identical RoutingError surfaces (cannot
                # happen for generated traffic -- injection filters by
                # the routability table -- but keeps the engines'
                # failure behavior aligned).
                sim._output_candidates(switch, packet)
            vkey_a[u] = blocked_row

    # The dominant configuration (folded Clos, no Valiant: single class
    # row, no ``via`` phase, ``cls`` stays 0) gets its exposure logic
    # inlined at the three hot call sites below, resolved through a
    # per-(switch, destination) key table; every other configuration
    # -- and any topology too large for the table -- goes through the
    # general closure.  -1 marks an unroutable pair whose reference
    # RoutingError replay must stay lazy.
    expose = expose_general
    uniform_tab = uniform_cls and n_sw * num_terminals <= 2_000_000
    vkey_of: list[list[int]] = []
    if uniform_tab:
        # Every host of a leaf keys alike, so a row spreads one
        # per-leaf list over the destinations: the row entries share
        # one int object per (switch, leaf) instead of allocating one
        # per (switch, destination).
        leaf_at = {sw: leaf for leaf, sw in enumerate(leaf_switch)}
        for s in range(n_sw):
            base = s * n_dests
            per_leaf = [
                k if routable[k] else -1 for k in range(base, base + n_dests)
            ]
            row = list(map(per_leaf.__getitem__, dest_leaf))
            leaf = leaf_at.get(s)
            if leaf is not None:
                lo = leaf * hosts
                row[lo : lo + hosts] = range(
                    deliver_base + lo, deliver_base + lo + hosts
                )
            vkey_of.append(row)

    # ---- pregenerated traffic ------------------------------------------
    # One keyed (terminal, draw-index) matrix of Bernoulli gaps covers
    # the whole horizon; chunks extend until every active terminal's
    # schedule passes it.  Mirrors the reference's per-terminal walk
    # ``next = t + floor(log(u)/log1p(-rate)) + 1`` with the first
    # arrival at ``gap - 1``.
    silent = getattr(traffic, "is_silent", None)
    active = [
        term
        for term in range(num_terminals)
        if silent is None or not silent(term)
    ]
    log1m = math.log1p(-rate) if rate < 1.0 else None
    # Flow workloads (duck-typed on ``flow_schedule``) replace the
    # Bernoulli pregeneration entirely: the schedule's flattened
    # per-packet arrival arrays come pre-sorted by (time, terminal,
    # serial) -- the same time-major order the lexsort below produces
    # -- with destinations and serials pinned by the schedule, so no
    # counter-RNG is consumed for arrivals or destinations.
    flow_schedule = getattr(traffic, "flow_schedule", None)
    flow_mode = flow_schedule is not None
    if flow_mode:
        arr_time_l, arr_term_l, arr_dst_l, arr_serial_l = (
            flow_schedule.arrival_lists(horizon)
        )
        arr_k_l: list[int] = []
    elif active:
        act_np = np.array(active, dtype=np.int64)
        act_u64 = act_np.astype(np.uint64)[:, None]
        chunks: list[np.ndarray] = []
        offs = np.zeros(len(active), dtype=np.int64)
        k0 = 0
        kchunk = (
            horizon + 1
            if log1m is None
            else int(horizon * rate + 6.0 * math.sqrt(horizon * rate) + 16.0)
        )
        while True:
            ks = np.arange(k0, k0 + kchunk, dtype=np.uint64)[None, :]
            if log1m is None:
                gaps = np.ones((len(active), kchunk), dtype=np.int64)
            else:
                u = uniform01_array(
                    hseed, act_u64, (ks << _U64(SITE_BITS)) | _U64(SITE_GAP)
                )
                safe = np.where(u > 0.0, u, 0.5)
                gaps = (np.log(safe) / log1m).astype(np.int64) + 1
                gaps[u == 0.0] = 1
            csum = np.cumsum(gaps, axis=1)
            csum += offs[:, None]
            chunks.append(csum)
            offs = csum[:, -1].copy()
            k0 += kchunk
            if int(offs.min()) > horizon:
                break
            kchunk = max(64, kchunk // 4)
        times = np.concatenate(chunks, axis=1) - 1
        rows, cols = np.nonzero(times <= horizon)
        arr_time = times[rows, cols]
        arr_term = act_np[rows]
        arr_k = cols.astype(np.int64)
        order = np.lexsort((arr_term, arr_time))
        arr_time_l = arr_time[order].tolist()
        arr_term_l = arr_term[order].tolist()
        arr_k_l = arr_k[order].tolist()
    else:
        arr_time_l = []
        arr_term_l = []
        arr_k_l = []
    n_arr = len(arr_time_l)

    from ..simulation.traffic import UniformTraffic

    uniform_dst = (
        not flow_mode
        and type(traffic) is UniformTraffic
        and num_terminals > 1
    )
    if uniform_dst and n_arr:
        term_u = np.array(arr_term_l, dtype=np.uint64)
        k_u = np.array(arr_k_l, dtype=np.uint64)
        r = draw64_array(
            hseed, term_u, (k_u << _U64(SITE_BITS)) | _U64(SITE_DEST)
        ) % _U64(num_terminals - 1)
        arr_dst_l = (
            r.astype(np.int64) + (r >= term_u).astype(np.int64)
        ).tolist()
    elif not flow_mode:
        arr_dst_l = []
    destination = traffic.destination
    dead = bytearray(num_terminals)

    # ---- credit calendar ------------------------------------------------
    credit_buckets: list[list[int]] = [[] for _ in range(horizon + 1)]

    multi_iter = iterations > 1
    granted_ch = bytearray(n_ch) if multi_iter else None

    counters, on_inject, on_drop, on_arbitrate, on_hop, on_eject = begin_run(
        sim
    )
    # Run counters: grants per channel and per (cycle, class) and the
    # switches that saw a request take one numpy pass per round; the
    # histogram bins are bumped in the scalar grant loop.
    counting = counters is not None
    arb_passes = arb_requests = arb_grants = 0
    if counters is not None:
        c_grants = np.zeros(n_ch, dtype=np.int64)
        c_class = np.asarray(counters.ch_class, dtype=np.int64)
        n_cls = counters.n_classes
        c_cycle = np.zeros((horizon + 1, n_cls), dtype=np.int64)
        arb_seen = np.zeros(n_sw, dtype=bool)
        c_injects = counters.injects
        c_inject_depth = counters.inject_depth
        c_vc_depth = counters.vc_depth
        c_credits = counters.credits
        c_latency = counters.latency
        c_hops = counters.hops
    if on_arbitrate is not None:
        req_acc = np.zeros(n_sw, dtype=np.int64)
        gr_acc = np.zeros(n_sw, dtype=np.int64)

    next_serial = sim._next_serial
    gp = 0
    tracing = trace_limit > 0
    #: Per-class gate-row offsets for the batched busy propagation.
    #: The uniform-class configuration only ever *reads* row 0, so the
    #: other rows need no maintenance at all.
    n_rows = 1 if uniform_cls else n_classes
    goff = (np.arange(n_rows, dtype=np.int64) * stride)[:, None]
    #: Reusable row-index buffer for the request-phase fancy pick.
    ar_buf = np.arange(n_units, dtype=np.int64)
    #: Reusable segment-boundary buffer for the grant phase.
    last_buf = np.empty(n_units, dtype=bool)
    #: Fused (output, priority) grant key: output ids take the top
    #: bits, the rest tie-break on truncated priority.
    out_shift = _U64(64 - n_ch.bit_length())
    pr_shift = _U64(n_ch.bit_length())

    # ---- cycle loop -----------------------------------------------------
    t = 0
    while t <= horizon:
        # -- credits (top of cycle: the dominant reference ordering) ----
        bucket = credit_buckets[t]
        if bucket:
            for cu in bucket:
                a = unit_cid[cu]
                b = unit_vc[cu]
                slots = ch_slots[a]
                was = slots[b]
                slots[b] = was + 1
                if was == 0:
                    if use_mask:
                        free_mask[a] |= 1 << b
                    if uniform_cls:
                        if gate_a[a] == EMPTY_READY:
                            gate_a[a] = int(busy_np[a])
                    elif direct:
                        gi = b * stride + a
                        if gate_a[gi] == EMPTY_READY:
                            gate_a[gi] = int(busy_np[a])
                    else:
                        busy = int(busy_np[a])
                        if gate_a[a] == EMPTY_READY:
                            gate_a[a] = busy
                        gi = (stride if b < half else 2 * stride) + a
                        if gate_a[gi] == EMPTY_READY:
                            gate_a[gi] = busy
            bucket.clear()

        # -- arrivals ---------------------------------------------------
        while gp < n_arr and arr_time_l[gp] == t:
            terminal = arr_term_l[gp]
            if flow_mode:
                # Scheduled release: destination and serial are pinned
                # by the schedule (serials identify flows across
                # engines); valiant detours below stay keyed by serial.
                dst = arr_dst_l[gp]
                serial = arr_serial_l[gp]
                gp += 1
                if serial >= next_serial:
                    next_serial = serial + 1
                packet = Packet(terminal, dst, t, serial=serial)
            else:
                if dead[terminal]:
                    gp += 1
                    continue
                if uniform_dst:
                    dst = arr_dst_l[gp]
                else:
                    try:
                        dst = destination(
                            terminal,
                            KeyedStream(
                                hseed,
                                terminal,
                                (arr_k_l[gp] << SITE_BITS) | SITE_TRAFFIC,
                            ),
                        )
                    except LookupError:
                        # The reference stops generating for this
                        # terminal on the first failed lookup; mirror
                        # that.
                        dead[terminal] = 1
                        gp += 1
                        continue
                gp += 1
                packet = Packet(terminal, dst, t, serial=next_serial)
                next_serial += 1
            generated_local += 1
            if packet.serial < trace_limit:
                traces[packet.serial] = [(t, "generate", terminal)]
            if valiant:
                src_leaf_switch = leaf_switch[terminal // hosts]
                for attempt in range(8):
                    via = (
                        draw64(
                            hseed,
                            packet.serial,
                            (attempt << SITE_BITS) | SITE_VIA,
                        )
                        % num_terminals
                    )
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
                unroutable_local += 1
                if on_drop is not None:
                    on_drop(t, terminal, packet)
            else:
                cid = inject_channel[terminal]
                queue = ch_queues[cid][0]
                queue.append((t, packet))
                qlen = len(queue)
                if qlen > max_injectq:
                    max_injectq = qlen
                if counting:
                    c_injects[t] += 1
                    try:
                        c_inject_depth[qlen] += 1
                    except IndexError:
                        RunCounters.grow(c_inject_depth, qlen)
                if on_inject is not None:
                    on_inject(t, packet, qlen)
                if qlen == 1:
                    if uniform_tab:
                        # Inlined injection-head exposure.
                        iu = inject_unit[terminal]
                        blocked = ch_blocked[cid]
                        ready_a[iu] = blocked if blocked > t else t
                        serial_a[iu] = packet.serial
                        vk = vkey_of[ch_dst[cid]][dst]
                        if vk >= 0:
                            vkey_a[iu] = vk
                        else:
                            sim._output_candidates(ch_dst[cid], packet)
                            vkey_a[iu] = blocked_row
                    else:
                        expose(inject_unit[terminal], ch_dst[cid], t)

        # -- arbitration rounds -----------------------------------------
        busy_until = t + phits
        lo_c = t if t > warmup else warmup
        hi_c = busy_until if busy_until < horizon else horizon
        span = hi_c - lo_c
        arrive = t + latency
        cb = credit_buckets[busy_until] if busy_until <= horizon else None
        # Every delivery granted this cycle completes at the same time,
        # so its measurement-window bucket is a per-cycle constant
        # (-1 = outside the window).
        delivered = arrive + phits - 1
        if warmup <= delivered <= horizon:
            d_bucket = (delivered - warmup) * nb // window
            if d_bucket >= nb:
                d_bucket = nb - 1
        else:
            d_bucket = -1
        for _round in range(iterations):
            elig = (ready_np <= t).nonzero()[0]
            if not elig.size:
                break
            if multi_iter and _round:
                keep = np.frombuffer(granted_ch, dtype=np.uint8)[
                    cid_np[elig]
                ] == 0
                elig = elig[keep]
                if not elig.size:
                    break
            cand = cand_ext[vkey_np[elig]]
            if uniform_cls:
                open_ = gate_np[cand] <= t
            else:
                open_ = gate_np[cand + cls_np[elig][:, None] * stride] <= t
            nv = open_.sum(axis=1, dtype=np.uint64)
            has = nv > 0
            if has.all():
                # Every eligible head has a viable output: skip the
                # three fancy-indexed copies (the common steady-state
                # shape at moderate load).
                ru = elig
                nv_r = nv
                ropen = open_
                rcand = cand
            elif has.any():
                ru = elig[has]
                nv_r = nv[has]
                ropen = open_[has]
                rcand = cand[has]
            else:
                break
            # Request phase: each head keys one draw on (serial, cycle,
            # round) and picks uniformly among its viable outputs.
            ck_req = _U64(
                ((t * iterations + _round) << SITE_BITS) | SITE_REQUEST
            )
            rh = draw64_array(hseed, serial_np[ru], ck_req)
            pick = (rh % nv_r).astype(np.int64)
            col = (ropen.cumsum(axis=1) <= pick[:, None]).sum(axis=1)
            outs = rcand[ar_buf[: ru.size], col]
            # Grant phase: max keyed priority per output wins -- a
            # uniform pick among that output's contenders.
            prio = mix64_array(rh ^ _GRANT_SALT)
            # A single fused (output, priority) sort key replaces
            # lexsort; the truncated priority keeps >= 44 tie-break
            # bits, so the chance truncation ever changes which
            # contender holds the per-output maximum is ~2**-44 per
            # contended output -- far below the statistical bar.
            fkey = (outs.astype(np.uint64) << out_shift) | (prio >> pr_shift)
            order = np.argsort(fkey)
            so = fkey[order] >> out_shift
            n_k = so.size
            last = last_buf[:n_k]
            np.not_equal(so[1:], so[:-1], out=last[: n_k - 1])
            last[n_k - 1] = True
            win = order[last.nonzero()[0]]
            wouts = outs[win]
            if counting:
                c_grants[wouts] += 1
                c_cycle[t] += np.bincount(c_class[wouts], minlength=n_cls)
                arb_seen[sw_np[ru]] = True
                arb_requests += ru.size
                arb_grants += win.size
            if on_arbitrate is not None:
                req_acc += np.bincount(sw_np[ru], minlength=n_sw)
                gr_acc += np.bincount(sw_np[ru[win]], minlength=n_sw)

            # Winner bookkeeping that needs no per-packet state updates
            # in one batch: busy times, busy-cycle accounting and the
            # credited-gate busy propagation (winners hold distinct
            # outputs, so the fancy-indexed writes never collide).
            busy_np[wouts] = busy_until
            if span > 0:
                busycyc_np[wouts] += span
            if uniform_cls:
                gv = gate_np[wouts]
                gate_np[wouts[gv != EMPTY_READY]] = busy_until
            else:
                gidx_all = (wouts[None, :] + goff).ravel()
                gv = gate_np[gidx_all]
                gate_np[gidx_all[gv != EMPTY_READY]] = busy_until
            # Downstream VC picks ride the request draw through a
            # second salted lane (batched here; the scalar loop only
            # reduces modulo the free-VC count).
            wu_l = ru[win].tolist()
            wout_l = wouts.tolist()
            vcr_l = mix64_array(rh[win] ^ _VC_SALT).tolist()

            # -- apply grants (scalar bookkeeping, mirrors _grant) ------
            for u, out, vcr in zip(wu_l, wout_l, vcr_l):
                queue = unit_queue[u]
                packet = queue[0][1]
                del queue[0]
                cid = unit_cid[u]
                if tracing and -1 < packet.serial < trace_limit:
                    trace = traces.get(packet.serial)
                    if trace is not None:
                        trace.append(
                            (
                                t,
                                "eject" if is_eject[out] else "forward",
                                ch_peer[out],
                            )
                        )
                if is_eject[out]:
                    delivered_total += 1
                    if d_bucket >= 0:
                        batch_local[d_bucket] += phits
                        lat = delivered - packet.created
                        m_packets += 1
                        m_latsum += lat
                        m_hopsum += packet.hops
                        lat_append(lat)
                        if lat > m_maxlat:
                            m_maxlat = lat
                    if counting:
                        c_latency[delivered - packet.created] += 1
                        c_hops[packet.hops] += 1
                    if on_eject is not None:
                        on_eject(
                            t, packet, delivered - packet.created, phits
                        )
                else:
                    slots = ch_slots[out]
                    if use_mask:
                        if uniform_cls:
                            bits = bit_table[free_mask[out]]
                            n = len(bits)
                            w = bits[0] if n == 1 else bits[vcr % n]
                        else:
                            lo_w, hi_w = class_range[cls_a[u]]
                            bits = bit_table[
                                (free_mask[out] >> lo_w)
                                & ((1 << (hi_w - lo_w)) - 1)
                            ]
                            n = len(bits)
                            w = lo_w + (
                                bits[0] if n == 1 else bits[vcr % n]
                            )
                    else:
                        lo_w, hi_w = class_range[cls_a[u]]
                        free_vcs = [
                            wi for wi in range(lo_w, hi_w) if slots[wi] > 0
                        ]
                        n = len(free_vcs)
                        w = free_vcs[0] if n == 1 else free_vcs[vcr % n]
                    slots[w] -= 1
                    if slots[w] == 0:
                        if use_mask:
                            m = free_mask[out] & ~(1 << w)
                            free_mask[out] = m
                            if uniform_cls:
                                if not m:
                                    gate_a[out] = EMPTY_READY
                            elif direct:
                                gate_a[w * stride + out] = EMPTY_READY
                            else:
                                if not m:
                                    gate_a[out] = EMPTY_READY
                                if w < half:
                                    if not m & ((1 << half) - 1):
                                        gate_a[stride + out] = EMPTY_READY
                                elif not m >> half:
                                    gate_a[2 * stride + out] = EMPTY_READY
                        elif direct:
                            gate_a[w * stride + out] = EMPTY_READY
                        else:
                            if not any(slots):
                                gate_a[out] = EMPTY_READY
                            if w < half:
                                if not any(slots[:half]):
                                    gate_a[stride + out] = EMPTY_READY
                            elif not any(slots[half:]):
                                gate_a[2 * stride + out] = EMPTY_READY
                    packet.hops += 1
                    down_queue = ch_queues[out][w]
                    down_queue.append((arrive, packet))
                    if counting:
                        c_credits[slots[w]] += 1
                        c_vc_depth[len(down_queue)] += 1
                    if on_hop is not None:
                        on_hop(
                            t,
                            packet,
                            unit_switch[u],
                            ch_dst[out],
                            w,
                            slots[w],
                            len(down_queue),
                        )
                    if len(down_queue) == 1:
                        if uniform_tab:
                            # Inlined hot-path exposure: a freshly
                            # forwarded head is never an inject unit
                            # and becomes ready exactly at ``arrive``.
                            du = unit_of[out][w]
                            ready_a[du] = arrive
                            serial_a[du] = packet.serial
                            vk = vkey_of[ch_dst[out]][packet.dst]
                            if vk >= 0:
                                vkey_a[du] = vk
                            else:
                                sim._output_candidates(
                                    ch_dst[out], packet
                                )
                                vkey_a[du] = blocked_row
                        else:
                            expose(unit_of[out][w], ch_dst[out], t)
                if is_link[cid]:
                    if cb is not None:
                        cb.append(u)
                else:
                    ch_blocked[cid] = busy_until
                    if packet.injected is None:
                        packet.injected = t
                    injected_local += 1
                if queue:
                    if uniform_tab:
                        # Inlined successor exposure (same body as the
                        # general closure, minus the call overhead).
                        ready, pkt2 = queue[0]
                        if unit_inject[u]:
                            blocked = ch_blocked[cid]
                            if blocked > ready:
                                ready = blocked
                        ready_a[u] = ready
                        serial_a[u] = pkt2.serial
                        vk = vkey_of[unit_switch[u]][pkt2.dst]
                        if vk >= 0:
                            vkey_a[u] = vk
                        else:
                            sim._output_candidates(unit_switch[u], pkt2)
                            vkey_a[u] = blocked_row
                    else:
                        expose(u, unit_switch[u], t)
                else:
                    ready_a[u] = EMPTY_READY
                if multi_iter:
                    granted_ch[cid] = 1
        if multi_iter:
            # Reset the per-cycle granted-channel filter.
            granted_ch = bytearray(n_ch)
        if counting:
            arb_passes += int(np.count_nonzero(arb_seen))
            arb_seen[:] = False
        if on_arbitrate is not None:
            for s in np.flatnonzero(req_acc):
                on_arbitrate(t, int(s), int(req_acc[s]), int(gr_acc[s]))
            req_acc[:] = 0
            gr_acc[:] = 0
        t += 1

    # Flush the local delivery-stat accumulators (mirrors the effect of
    # per-delivery ``SimStats.on_delivered`` calls, including the lazy
    # ``batch_phits`` init on the first in-window delivery).
    stats.delivered_packets += delivered_total
    stats.generated_packets += generated_local
    stats.injected_packets += injected_local
    sim.unroutable_packets += unroutable_local
    if counters is not None:
        counters.grants = c_grants
        counters.cycle_grants = c_cycle
        counters.drops += unroutable_local
        counters.arb_passes += arb_passes
        counters.arb_requests += int(arb_requests)
        counters.arb_grants += int(arb_grants)
    if max_injectq > sim.max_inject_queue:
        sim.max_inject_queue = max_injectq
    if m_packets:
        if not stats.batch_phits:
            stats.batch_phits = [0] * nb
        for bi in range(nb):
            stats.batch_phits[bi] += batch_local[bi]
        stats.measured_packets += m_packets
        stats.measured_phits += m_packets * phits
        stats.measured_latency_sum += m_latsum
        stats.measured_hops_sum += m_hopsum
        if m_maxlat > stats.max_latency:
            stats.max_latency = m_maxlat

    # Flush the numpy channel mirrors back into the simulator's lists
    # (post-run inspection reads them; identity is preserved).
    sim.ch_busy[:] = busy_np.tolist()
    sim.ch_busy_cycles[:] = busycyc_np.tolist()
    # Reference-loop state mirrors (kept for debugging parity).
    sim._heap = []
    sim._seq = 0
    sim._arb_marks = set()
    sim._next_serial = next_serial
    result = SimResult.from_stats(
        stats,
        offered_load=sim.load,
        num_terminals=num_terminals,
        traffic=traffic.name,
        topology=topo.name,
        unroutable_packets=sim.unroutable_packets,
    )
    if sim.observer is not None:
        sim.observer.on_run_end(sim, result)
    return result
