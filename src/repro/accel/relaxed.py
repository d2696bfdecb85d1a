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

* **request** -- each head's candidate row is written once, when it
  becomes the head of its queue (routing is static while it waits):
  its switch's up or down neighbors from the shared
  :class:`~repro.simulation.routes.RouteState`, kept where their
  min-ascent to the target leaf allows the hop, in router order.  Each
  round gathers every ready head's row against the ``(class,
  channel)`` gate matrix (the channel's busy-until time while one of
  the class's VCs has a downstream credit, ``EMPTY_READY`` while none
  has), then one keyed draw per head picks among its viable outputs
  (``randbelow`` by modulo);
* **grant** -- contenders for the same output race by keyed 64-bit
  priority: one ``argsort`` of a fused ``(output, priority)`` key and
  a segment-boundary scan yield the per-output winners, which is
  exactly a uniform pick among each output's contenders;
* **apply** -- the round's winners hold distinct outputs and distinct
  input units, so their bookkeeping is one batch of fancy-indexed
  writes: pop, downstream VC pick among the class's free VCs, push,
  credit scheduling, gate updates and head exposure;
* **traffic** -- Bernoulli inter-arrival gaps and uniform destinations
  are pregenerated for the whole horizon as one ``(terminals, draws)``
  keyed matrix (stateful patterns keep a per-arrival
  :class:`~repro.accel.rng.KeyedStream`).

State lives in arrays.  Packets are rows of arrival-ordered arrays
(destination, creation cycle, hops, serial, Valiant via); each link VC
buffer is a ``buffer_packets``-slot ring of rows, and an injection
queue is its terminal's rows in arrival order, whose head becomes
ready when it has arrived and the injection link is free.  A hook-free
round makes no per-packet Python call; deliveries and the queue-depth
histograms are reduced once, at run end.  Per-event hooks and traces
still see every event, in the order the scalar engine raised them,
through one :class:`~repro.simulation.packet.Packet` per packet, made
only for packets a hook or trace sees.  The engine never builds the
simulator's per-VC lists: at run end it leaves a deferred fill, and the
first later read of ``sim.ch_queues`` or ``sim.ch_slots`` builds them
with the packets still queued as ``(ready, Packet)`` entries and the
credits left.

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
(:func:`repro.exec.cache.cache_key`; lint pass RPR105 guards it).

Restrictions: ``arbiter="random"`` and ``up_selection="random"`` only
(the paper's Table 2 configuration; rotating pointers and adaptive
credit comparisons are inherently sequential), enforced at
:class:`SimulationParams` construction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..obs.hooks import begin_run
from ..simulation.engine import _EJECT
from ..simulation.packet import Packet
from ..simulation.stats import SimResult
from ..simulation.traffic import UniformTraffic
from .rng import (
    SITE_BITS,
    SITE_DEST,
    SITE_GAP,
    SITE_REQUEST,
    SITE_TRAFFIC,
    SITE_VIA,
    KeyedStream,
    draw64_array,
    key_seed,
    mix64_array,
    uniform01_array,
)

if TYPE_CHECKING:
    from ..simulation.routes import RouteState

__all__ = ["run_relaxed", "build_relaxed_candidates", "build_padded_candidates"]

#: Sentinel "effective ready time" for a unit with no head packet (and
#: the never-passing gate of a class with no downstream credit).
EMPTY_READY = 1 << 60

#: Salts deriving the grant-priority and VC-pick lanes from the
#: request draw (one extra finalizer application each instead of a
#: second full keyed draw; sites stay distinct through the salt).
_GRANT_SALT = np.uint64(0xD1B54A32D192ED03)
_VC_SALT = np.uint64(0x8CB92BA72F3D8DD7)
#: Both salts as a column, so one XOR makes the two lanes.
_SALTS = np.array([[_GRANT_SALT], [_VC_SALT]], dtype=np.uint64)

_U64 = np.uint64


def build_padded_candidates(sim) -> tuple[np.ndarray, np.ndarray]:
    """Per-switch padded candidate-channel matrices the mask step filters.

    Returns ``(up, down)``: the ``(switches, width) int32`` channel to
    each up-neighbor (down-neighbor) of every switch, in router order,
    padded with the dummy channel ``len(sim.ch_kind)`` (whose gate never
    opens), from ``sim``'s :class:`~repro.simulation.routes.RouteState`.
    :meth:`RouteState.candidate_matrix` keeps the cells whose neighbor
    routes to a head's leaf and writes the rest as the dummy.
    """
    from ..simulation.fastpath import build_candidate_table

    routes = build_candidate_table(sim)
    return routes.up_channels, routes.down_channels


def build_relaxed_candidates(sim) -> RouteState:
    """Route set-up of the relaxed engine: ``sim``'s cached route state.

    The :class:`~repro.simulation.routes.RouteState` is the one the
    exact engine reads too; its padded candidate-channel matrix
    (:func:`build_padded_candidates`) is what each head's row is
    filtered from.
    """
    from ..simulation.fastpath import build_candidate_table

    routes = build_candidate_table(sim)
    build_padded_candidates(sim)
    return routes


def _arrivals(sim, hseed: int) -> tuple:
    """Every packet the run generates, in arrival order.

    Returns ``(time, terminal, dst, serial, next_serial)``: four int64
    arrays sorted by ``(time, terminal)`` and the simulator's next free
    serial after them.  Bernoulli inter-arrival gaps and uniform
    destinations are pregenerated for the whole horizon as one keyed
    ``(terminal, draw)`` matrix; other patterns draw each destination
    through a :class:`~repro.accel.rng.KeyedStream`, in arrival order,
    and a terminal whose lookup fails generates nothing from then on
    (as in the reference).  Flow workloads (duck-typed on
    ``flow_schedule``) replace all of it with the schedule's
    pre-sorted releases, whose serials identify flows across engines.
    """
    params = sim.params
    horizon = params.horizon
    traffic = sim.traffic
    num_terminals = sim.topo.num_terminals
    next_serial = sim._next_serial
    flow_schedule = getattr(traffic, "flow_schedule", None)
    if flow_schedule is not None:
        time, terminal, dst, serial = flow_schedule.arrival_lists(horizon)
        if serial.size:
            next_serial = max(next_serial, int(serial.max()) + 1)
        return time, terminal, dst, serial, next_serial

    rate = sim.load / params.packet_phits  # packets / terminal / cycle
    silent = getattr(traffic, "is_silent", None)
    active = np.array(
        [
            term
            for term in range(num_terminals)
            if silent is None or not silent(term)
        ],
        dtype=np.int64,
    )
    empty = np.zeros(0, dtype=np.int64)
    if not active.size:
        return empty, empty, empty, empty, next_serial
    # Mirrors the reference's per-terminal walk ``next = t +
    # floor(log(u)/log1p(-rate)) + 1`` with the first arrival at
    # ``gap - 1``; chunks extend until every schedule passes the horizon.
    log1m = math.log1p(-rate) if rate < 1.0 else None
    act_u64 = active.astype(np.uint64)[:, None]
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
    order = np.lexsort((active[rows], times[rows, cols]))
    time = times[rows, cols][order]
    terminal = active[rows][order]
    draw = cols[order].astype(np.int64)

    if type(traffic) is UniformTraffic and num_terminals > 1:
        term_u = terminal.astype(np.uint64)
        r = draw64_array(
            hseed,
            term_u,
            (draw.astype(np.uint64) << _U64(SITE_BITS)) | _U64(SITE_DEST),
        ) % _U64(num_terminals - 1)
        dst = r.astype(np.int64) + (r >= term_u)
    else:
        destination = traffic.destination
        dead = bytearray(num_terminals)
        kept: list[int] = []
        dsts: list[int] = []
        for i, (term, k) in enumerate(zip(terminal.tolist(), draw.tolist())):
            if dead[term]:
                continue
            try:
                dsts.append(
                    destination(
                        term,
                        KeyedStream(hseed, term, (k << SITE_BITS) | SITE_TRAFFIC),
                    )
                )
            except LookupError:
                dead[term] = 1
                continue
            kept.append(i)
        time = time[kept]
        terminal = terminal[kept]
        dst = np.array(dsts, dtype=np.int64)
    serial = np.arange(next_serial, next_serial + len(time), dtype=np.int64)
    return time, terminal, dst, serial, next_serial + len(time)


def _valiant_vias(
    hseed, serial, src_col, dst_col, routable, n_dests, hosts, num_terminals,
) -> np.ndarray:
    """Valiant intermediate terminal per packet, ``-1`` for none.

    Up to eight keyed draws per packet; the first whose leaf both the
    source leaf and the destination reach is kept.
    """
    via = np.full(len(serial), -1, dtype=np.int64)
    pending = np.arange(len(serial))
    for attempt in range(8):
        if not pending.size:
            break
        v = (
            draw64_array(
                hseed,
                serial[pending].astype(np.uint64),
                (attempt << SITE_BITS) | SITE_VIA,
            )
            % _U64(num_terminals)
        ).astype(np.int64)
        v_leaf = v // hosts
        ok = (
            routable[src_col[pending] * n_dests + v_leaf]
            & routable[v_leaf * n_dests + dst_col[pending]]
        )
        via[pending[ok]] = v[ok]
        pending = pending[~ok]
    return via


def _add_counts(bins: list[int], values: list[np.ndarray]) -> None:
    """Count every value of ``values`` into the value-indexed ``bins``,
    extending them to reach the largest."""
    if not values:
        return
    counts = np.bincount(np.concatenate(values), minlength=len(bins))
    bins.extend([0] * (len(counts) - len(bins)))
    bins[:] = (np.asarray(bins, dtype=np.int64) + counts).tolist()


def _true_cells(mask: np.ndarray) -> tuple:
    """``(cells, counts, first)`` of a 2-D boolean ``mask``: the flat
    indices of its True cells in row-major order, the count per row,
    and the position in ``cells`` of each row's first one.  The
    ``k``-th True cell of row ``i`` is ``cells[first[i] + k]``."""
    cells = mask.reshape(-1).nonzero()[0]
    counts = np.bincount(cells // mask.shape[1], minlength=len(mask))
    return cells, counts, counts.cumsum() - counts


def _arrival_depths(by_term, a_term, a_time, p_inj, q_pos, q_start, horizon):
    """Injection-queue depth right after each routable arrival, in
    ``by_term`` order: the packet's place in its terminal's queue minus
    the packets that left before its arrival cycle (pops come after
    arrivals within a cycle).  Packets leave in queue order, so the
    ``(terminal, injection cycle)`` keys are sorted along ``by_term``;
    a packet still queued at run end leaves after the horizon."""
    keys = horizon + 2
    term = a_term[by_term]
    left = p_inj[by_term]
    left[left < 0] = horizon + 1
    left_before = np.searchsorted(
        term * keys + left, term * keys + a_time[by_term]
    )
    return q_pos[by_term] + 1 - (left_before - q_start[term])


def _record_deliveries(stats, rows, at, a_time, p_hops, phits) -> tuple:
    """Fold the run's deliveries -- arrays of rows delivered at cycles
    ``at`` -- into ``stats`` as per-delivery ``SimStats.on_delivered``
    calls would, in the same order (including the lazy ``batch_phits``
    init on the first delivery inside the measurement window).
    Returns every delivery's latency and hop count."""
    time = np.repeat(np.asarray(at, dtype=np.int64), [r.size for r in rows])
    rows = np.concatenate(rows or [np.zeros(0, dtype=np.int64)])
    latency = time - a_time[rows]
    hops = p_hops[rows]
    stats.delivered_packets += rows.size
    measured = (time >= stats.warmup) & (time <= stats.horizon)
    m_lat = latency[measured]
    if m_lat.size:
        nb = stats.num_batches
        if not stats.batch_phits:
            stats.batch_phits = [0] * nb
        buckets = np.minimum(
            (time[measured] - stats.warmup)
            * nb
            // (stats.horizon - stats.warmup),
            nb - 1,
        )
        for bi, count in enumerate(np.bincount(buckets, minlength=nb)):
            stats.batch_phits[bi] += int(count) * phits
        stats.measured_packets += m_lat.size
        stats.measured_phits += m_lat.size * phits
        stats.measured_latency_sum += int(m_lat.sum())
        stats.measured_hops_sum += int(hops[measured].sum())
        stats.max_latency = max(stats.max_latency, int(m_lat.max()))
        stats.latencies.extend(m_lat.tolist())
    return latency, hops


def _views(views: list, rows: np.ndarray, columns: list) -> list[Packet]:
    """The packets of ``rows``: ``views[row]``, made on first use from
    ``columns`` -- the rows' ``(src, dst, created, serial, hops, via,
    injected)`` arrays, ``-1`` for a missing via or injection -- and
    brought up to date with them."""
    packets = []
    # Chunks bound the transient per-field lists of a large fill.
    for lo in range(0, rows.size, 8192):
        hi = lo + 8192
        for row, src, dst, created, serial, hops, via, injected in zip(
            rows[lo:hi].tolist(), *(c[lo:hi].tolist() for c in columns)
        ):
            packet = views[row]
            if packet is None:
                packet = views[row] = Packet(src, dst, created, serial=serial)
            packet.hops = hops
            packet.via = via if via >= 0 else None
            packet.injected = injected if injected >= 0 else None
            packets.append(packet)
    return packets


def _queue_fill(moved, moved_slots, cids, vcs, lens, ready, rows, columns, views):
    """A run's end state as a fill of the simulator's per-VC lists.

    ``moved`` link channels take the credit rows ``moved_slots``; the
    queued packet ``rows`` -- ``lens`` of them per ``(cids, vcs)``
    FIFO, in queue order, with their ``ready`` cycles and
    :func:`_views` ``columns`` -- become ``(ready, Packet)`` entries,
    reusing the packets the hooks saw (``views``).
    """

    def fill(ch_queues: list, ch_slots: list) -> None:
        for cid, row in zip(moved.tolist(), moved_slots.tolist()):
            ch_slots[cid][:] = row
        entries = list(zip(ready.tolist(), _views(views, rows, columns)))
        start = 0
        for cid, vc, n in zip(cids.tolist(), vcs.tolist(), lens.tolist()):
            ch_queues[cid][vc][:] = entries[start : start + n]
            start += n

    return fill


def _spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``starts[i], starts[i] + 1, ..., starts[i] + lens[i] - 1`` for
    every ``i``, concatenated."""
    return np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(
        lens.sum()
    )


def run_relaxed(sim) -> SimResult:
    """Execute ``sim`` through the relaxed counter-RNG engine.

    Deterministic per ``(topology, params, seed)``; statistically --
    not bit-for-bit -- equivalent to the exact engines (module
    docstring).  The run keeps its state in arrays.  At the end it
    writes the busy and blocked times into the simulator's lists and
    leaves the queued packets and credits as a deferred fill of
    ``ch_queues`` and ``ch_slots``, so post-run inspection
    (``link_utilization``, ``ch_queues`` etc.) works as on the exact
    engines.  Credits start full unless the credit lists were already
    built, by a reader or an earlier run.
    """
    params = sim.params
    stats = sim._start_stats()
    horizon = params.horizon
    phits = params.packet_phits
    latency = params.link_latency
    warmup = params.warmup_cycles
    vcs = params.virtual_channels
    buffers = params.buffer_packets
    topo = sim.topo
    valiant = params.valiant
    iterations = params.arbitration_iterations
    multi_iter = iterations > 1
    trace_limit = sim.trace_limit
    traces = sim.traces
    tracing = trace_limit > 0
    num_terminals = topo.num_terminals
    hseed = key_seed(params.seed)

    # ---- route state (shared with the fast engine) ---------------------
    routes = build_relaxed_candidates(sim)
    n_dests = routes.num_leaves
    routable = routes.routable.reshape(-1)

    # ---- channels and input units --------------------------------------
    # Links come first in the channel arrays.  Unit ``c * vcs + w`` is
    # VC ``w`` of link ``c``; unit ``n_lu + t`` is terminal ``t``'s
    # injection queue.  Grants apply in output order, so unit order
    # only has to be deterministic.
    n_ch = len(sim.ch_kind)
    n_link = sim.n_link_channels
    n_sw = topo.num_switches
    ch_dst = np.asarray(sim.ch_dst, dtype=np.int64)
    is_eject = np.asarray(sim.ch_kind) == _EJECT
    inject_cid = np.asarray(sim.inject_channel, dtype=np.int64)
    term_switch = ch_dst[inject_cid]
    n_lu = n_link * vcs
    unit_sw = np.concatenate((np.repeat(ch_dst[:n_link], vcs), term_switch))
    n_units = len(unit_sw)
    busy = np.array(sim.ch_busy, dtype=np.int64)
    busy_cycles = np.array(sim.ch_busy_cycles, dtype=np.int64)
    blocked = np.asarray(sim.ch_blocked, dtype=np.int64)[inject_cid]
    if sim._buffers_built():
        slots = np.array(sim.ch_slots[:n_link], dtype=np.int64).reshape(
            n_link, vcs
        )
        slots_at_start = slots.copy()
    else:
        slots = np.full((n_link, vcs), buffers, dtype=np.int64)
        slots_at_start = buffers
    unit_slots = slots.reshape(-1)  # credits of link unit ``c * vcs + w``

    # ---- VC classes and viability gates --------------------------------
    # A packet's class is the VC range it may take downstream: all VCs,
    # or the lower / upper half for Valiant's two phases.  ``gate[k, c]``
    # is the cycle from which class ``k`` may take channel ``c``: the
    # channel's busy-until time while one of the class's VCs has a
    # downstream credit, EMPTY_READY while none has.  Eject channels
    # are always open at their busy time; injection channels and the
    # padding column ``n_ch`` never open.
    if valiant:
        ranges = [(0, vcs // 2), (vcs // 2, vcs)]
    else:
        ranges = [(0, vcs)]
    uniform = len(ranges) == 1
    vc_ids = np.arange(vcs)
    class_vcs = np.array([(vc_ids >= lo) & (vc_ids < hi) for lo, hi in ranges])
    stride = n_ch + 1
    gate = np.full((len(ranges), stride), EMPTY_READY, dtype=np.int64)
    gate_flat = gate.reshape(-1)
    gate[:, :n_ch][:, is_eject] = busy[is_eject]

    def regate(cids: np.ndarray, when) -> None:
        """Reopen or close the class gates of link channels ``cids``."""
        free = slots[cids] > 0
        if uniform:
            gate[0, cids] = np.where(free.any(axis=1), when, EMPTY_READY)
        else:
            gate[:, cids] = np.where((free @ class_vcs.T).T, when, EMPTY_READY)

    regate(np.arange(n_link), busy[:n_link])

    # ---- packets as rows -----------------------------------------------
    # Row ``i`` is the ``i``-th generated packet.  Routability is static
    # during a run, so unroutable packets are known here; they never
    # enter a queue.  ``p_col`` is the destination leaf: its key column
    # and, since leaf ``i`` is flat switch ``i``, the switch that
    # delivers it.
    a_time, a_term, a_dst, a_serial, next_serial = _arrivals(sim, hseed)
    n_pk = len(a_time)
    hosts = topo.hosts_per_leaf
    p_col = a_dst // hosts
    src_col = a_term // hosts
    p_ok = routable[src_col * n_dests + p_col]
    p_eject = np.asarray(sim.eject_channel, dtype=np.int32)[a_dst]
    a_via = (
        _valiant_vias(
            hseed, a_serial, src_col, p_col, routable, n_dests, hosts,
            num_terminals,
        )
        if valiant
        else np.full(n_pk, -1, dtype=np.int64)
    )
    p_via = a_via.copy()  # -1 once the randomization phase is over
    p_serial = a_serial.astype(np.uint64)
    p_hops = np.zeros(n_pk, dtype=np.int64)
    p_ready = a_time.copy()  # when the packet heads its current queue
    p_inj = np.full(n_pk, -1, dtype=np.int64)  # injection cycle

    # ---- input queues --------------------------------------------------
    # Every unit's FIFO is a window into one row store.  Link unit ``u``
    # owns the ring ``store[u * buffers : (u + 1) * buffers]`` (credits
    # bound it to ``buffers`` packets); terminal ``t``'s injection unit
    # holds all its routable packets of the run, in arrival order, in
    # the terminal-sorted rows after the rings (no wrap), and a packet
    # that has not arrived yet simply is not ready.  ``q_head`` is the
    # offset of a unit's head in its window (an injection unit's count
    # of sent packets), ``q_len`` its packets left, and ``q_pos`` a
    # routable packet's place in its terminal's queue.
    q_rows = np.flatnonzero(p_ok)
    by_term = q_rows[np.argsort(a_term[q_rows], kind="stable")]
    q_count = np.bincount(a_term[q_rows], minlength=num_terminals)
    q_start = np.cumsum(q_count) - q_count
    q_pos = np.zeros(n_pk, dtype=np.int64)
    q_pos[by_term] = np.arange(len(by_term)) - q_start[a_term[by_term]]
    store = np.concatenate(
        (np.zeros(n_lu * buffers, dtype=np.int32), by_term.astype(np.int32))
    )
    q_base = np.concatenate(
        (np.arange(n_lu, dtype=np.int64) * buffers, n_lu * buffers + q_start)
    )
    q_head = np.zeros(n_units, dtype=np.int64)
    q_len = np.zeros(n_units, dtype=np.int64)
    q_len[n_lu:] = q_count

    # ---- unit heads -----------------------------------------------------
    # ``ready`` is the cycle from which a unit's head may request
    # (EMPTY_READY: no head), ``cands`` the head's candidate channels
    # (then the dummy channel ``n_ch``, whose gate never opens) and
    # ``cls`` its VC class.  Routing is static while a head waits, so
    # each head is routed once, when it is exposed; ``cands`` widens
    # when a head has more candidates than it has columns.
    ready = np.full(n_units, EMPTY_READY, dtype=np.int64)
    head = np.full(n_units, -1, dtype=np.int64)
    cands = np.full((n_units, 1), n_ch, dtype=np.int32)
    cls = None if uniform else np.zeros(n_units, dtype=np.int64)

    counters, on_inject, on_drop, on_arbitrate, on_hop, on_eject = begin_run(
        sim
    )
    views: list[Packet | None] = [None] * n_pk
    packet_columns = (a_term, a_dst, a_time, a_serial, p_hops, p_via, p_inj)

    def views_of(rows: np.ndarray) -> list[Packet]:
        """The packets of ``rows``: one :class:`Packet` per packet and
        run, made on its first event and brought up to date at each."""
        return _views(views, rows, [c[rows] for c in packet_columns])

    def expose(units: np.ndarray, rows: np.ndarray, when) -> None:
        """Make ``rows`` the heads of ``units``, ready from ``when``,
        and write each head's candidate row."""
        nonlocal cands
        sw = unit_sw[units]
        col = p_col[rows]
        deliver = sw == col
        if valiant:
            via = p_via[rows]
            phase = via >= 0
            if phase.any():
                v_col = via // hosts
                done = phase & (sw == v_col)
                p_via[rows[done]] = -1  # randomization phase complete
                phase &= ~done
                col = np.where(phase, v_col, col)
                deliver &= ~phase
            cls[units] = ~phase
        routed = routes.candidate_matrix(sw, col, cands.shape[1])
        if routed.shape[1] > cands.shape[1]:
            wider = np.full((n_units, routed.shape[1]), n_ch, dtype=np.int32)
            wider[:, : cands.shape[1]] = cands
            cands = wider
        # A routable pair has a candidate, so an empty row that does not
        # deliver is an unroutable head.
        stuck = ~deliver & (routed == n_ch).all(axis=1)
        if stuck.any():
            # Cannot happen for generated traffic (injection filters by
            # the routability map); replay the reference router so the
            # same RoutingError surfaces.
            for s, packet in zip(sw[stuck].tolist(), views_of(rows[stuck])):
                sim._output_candidates(s, packet)
        routed[deliver, 0] = p_eject[rows[deliver]]
        cands[units] = routed
        head[units] = rows
        ready[units] = when

    # ---- hooks and run counters ----------------------------------------
    arrival_events = tracing or on_inject is not None or on_drop is not None
    grant_events = tracing or on_hop is not None or on_eject is not None
    if arrival_events:
        # Only the arrivals some hook or trace sees are visited.
        a_event = a_serial < trace_limit
        if on_inject is not None:
            a_event |= p_ok
        if on_drop is not None:
            a_event |= ~p_ok
        ev_rows = a_event.nonzero()[0]
        ev_bounds = np.searchsorted(
            a_time[ev_rows], np.arange(horizon + 2)
        ).tolist()
    if grant_events:
        ch_peer = sim.ch_peer
        ch_dst_l = sim.ch_dst
    counting = counters is not None
    #: The per-hop readings (credits left, queue depth) have a reader.
    hop_readings = counting or on_hop is not None
    if hop_readings:
        #: Winner position of each unit within the current round
        #: (``n_units`` when it did not win), for in-order depths.
        rank = np.full(n_units, n_units, dtype=np.int32)
    arb_passes = arb_requests = arb_grants = 0
    if counting:
        c_grants = np.zeros(n_ch, dtype=np.int64)
        c_class = np.asarray(counters.ch_class, dtype=np.int64)
        n_cls = counters.n_classes
        c_cycle = np.zeros((horizon + 1, n_cls), dtype=np.int64)
        arb_seen = np.zeros(n_sw, dtype=bool)
        vc_depths: list[np.ndarray] = []
        credits_left: list[np.ndarray] = []
    if on_arbitrate is not None:
        req_acc = np.zeros(n_sw, dtype=np.int64)
        gr_acc = np.zeros(n_sw, dtype=np.int64)

    #: Delivered rows per round and their delivery cycles, reduced into
    #: ``stats`` at run end.
    delivered_rows: list[np.ndarray] = []
    delivered_at: list[int] = []
    #: Link units granted at cycle ``t``, whose credits return at the
    #: top of cycle ``t + phits``.
    credit_due: list[np.ndarray | None] = [None] * (horizon + 1)
    if multi_iter:
        #: Input channels granted this cycle, and each unit's channel.
        granted = np.zeros(n_ch, dtype=bool)
        unit_cid = np.concatenate(
            (np.repeat(np.arange(n_link, dtype=np.int64), vcs), inject_cid)
        )
    #: Reusable segment-boundary buffer for the grant phase.
    last_buf = np.empty(n_units, dtype=bool)
    #: Fused (output, priority) grant key: output ids take the top
    #: bits, the rest tie-break on truncated priority.
    out_shift = _U64(64 - n_ch.bit_length())
    pr_shift = _U64(n_ch.bit_length())

    # Each injection queue's first packet heads it from the start.
    firsts = (q_count > 0).nonzero()[0]
    first_rows = by_term[q_start[firsts]]
    expose(
        n_lu + firsts,
        first_rows,
        np.maximum(a_time[first_rows], blocked[firsts]),
    )

    # ---- cycle loop -----------------------------------------------------
    for t in range(horizon + 1):
        # -- credits (top of cycle: the dominant reference ordering) ----
        due = credit_due[t]
        if due is not None:
            unit_slots[due] += 1
            cids = due // vcs
            regate(cids, busy[cids])

        # -- arrival events (the queues hold their packets already) ------
        if arrival_events and ev_bounds[t + 1] > ev_bounds[t]:
            ev = ev_rows[ev_bounds[t] : ev_bounds[t + 1]]
            ev_terms = a_term[ev]
            for packet, terminal, ok, via, qlen in zip(
                views_of(ev),
                ev_terms.tolist(),
                p_ok[ev].tolist(),
                a_via[ev].tolist(),
                (q_pos[ev] - q_head[n_lu + ev_terms] + 1).tolist(),
            ):
                # The packet is not routed before it arrives.
                packet.via = via if via >= 0 else None
                if packet.serial < trace_limit:
                    traces[packet.serial] = [(t, "generate", terminal)]
                if not ok:
                    if on_drop is not None:
                        on_drop(t, terminal, packet)
                elif on_inject is not None:
                    on_inject(t, packet, qlen)

        # -- arbitration rounds -----------------------------------------
        busy_until = t + phits
        lo_c = t if t > warmup else warmup
        hi_c = busy_until if busy_until < horizon else horizon
        span = hi_c - lo_c
        arrive = t + latency
        granted_links: list[np.ndarray] = []
        # Every delivery granted this cycle completes (its tail arrives)
        # at the same cycle.
        delivered = arrive + phits - 1
        for _round in range(iterations):
            elig = (ready <= t).nonzero()[0]
            if not elig.size:
                break
            if multi_iter and _round:
                elig = elig[~granted[unit_cid[elig]]]
                if not elig.size:
                    break
            cand = cands.take(elig, axis=0)
            gate_open = gate_flat <= t
            if uniform:
                open_ = gate_open.take(cand)
            else:
                open_ = gate_open.take(cand + cls[elig][:, None] * stride)
            viable, nv, first = _true_cells(open_)
            has = nv > 0
            if has.all():
                # Every eligible head has a viable output (the common
                # steady-state shape at moderate load).
                ru = elig
            elif has.any():
                ru = elig[has]
                nv = nv[has]
                first = first[has]
            else:
                break
            # Request phase: each head keys one draw on (serial, cycle,
            # round) and picks uniformly among its viable outputs.
            ck_req = _U64(
                ((t * iterations + _round) << SITE_BITS) | SITE_REQUEST
            )
            rh = draw64_array(hseed, p_serial[head[ru]], ck_req)
            pick = (rh % nv.astype(np.uint64)).astype(np.int64)
            outs = cand.reshape(-1)[viable[first + pick]]
            # Grant phase: max keyed priority per output wins -- a
            # uniform pick among that output's contenders.  The VC lane
            # (used by the winners below) is mixed in the same call.
            prio, vc_lane = mix64_array(rh ^ _SALTS)
            # One argsort of a fused (output, priority) key; the
            # truncated priority keeps >= 44 tie-break bits, so the
            # chance truncation ever changes which contender holds the
            # per-output maximum is ~2**-44 per contended output --
            # far below the statistical bar.
            fkey = (outs.astype(np.uint64) << out_shift) | (prio >> pr_shift)
            order = fkey.argsort()
            so = fkey[order] >> out_shift
            n_k = so.size
            last = last_buf[:n_k]
            np.not_equal(so[1:], so[:-1], out=last[: n_k - 1])
            last[n_k - 1] = True
            win = order[last.nonzero()[0]]
            # Winners, in ascending output order: they hold distinct
            # outputs and distinct input units, so no fancy-indexed
            # write below collides.
            wu = ru[win]
            wout = outs[win].astype(np.int64)
            if counting:
                c_grants[wout] += 1
                c_cycle[t] += np.bincount(c_class[wout], minlength=n_cls)
                arb_seen[unit_sw[ru]] = True
                arb_requests += ru.size
                arb_grants += win.size
            if on_arbitrate is not None:
                req_acc += np.bincount(unit_sw[ru], minlength=n_sw)
                gr_acc += np.bincount(unit_sw[wu], minlength=n_sw)
            if multi_iter:
                granted[unit_cid[wu]] = True

            rows = head[wu]
            busy[wout] = busy_until
            if span > 0:
                busy_cycles[wout] += span
            # Deliveries are recorded here and reduced at run end.
            ej = is_eject[wout]
            if ej.any():
                gate[:, wout[ej]] = busy_until
                delivered_rows.append(rows[ej])
                delivered_at.append(delivered)

            # Hops: pick a downstream VC with a credit inside the head's
            # class (the k-th free one, k from a second salted lane of
            # the request draw), take the credit, and push the packet
            # onto that VC's ring.
            hi = (~ej).nonzero()[0]
            hout = wout[hi]
            hrows = rows[hi]
            free = slots[hout] > 0
            if not uniform:
                free &= class_vcs[cls[wu[hi]]]
            vcr = vc_lane[win[hi]]
            free_vcs, n_free, vc_first = _true_cells(free)
            nth = (vcr % n_free.astype(np.uint64)).astype(np.int64)
            du = hout * vcs + free_vcs[vc_first + nth] % vcs
            unit_slots[du] -= 1
            regate(hout, busy_until)
            p_hops[hrows] += 1
            p_ready[hrows] = arrive
            pre = q_len[du]
            store[du * buffers + (q_head[du] + pre) % buffers] = hrows
            if hop_readings:
                # Credits left, and the queue depth after the push as
                # in output order: a pop of the same unit by an earlier
                # winner comes first.
                left = unit_slots[du]
                rank[wu] = np.arange(wu.size)
                depth = pre + 1 - (rank[du] < hi)
                rank[wu] = n_units
                if counting:
                    credits_left.append(left)
                    vc_depths.append(depth)

            # Pops: link units return a credit upstream at the tail.
            q_head[wu] += 1
            q_len[wu] -= 1
            q_len[du] += 1
            from_inject = wu >= n_lu
            lu = wu[~from_inject]
            q_head[lu] %= buffers
            granted_links.append(lu)

            if grant_events:
                # Per-event hooks and traces, in output order.
                want = np.zeros(wu.size, dtype=bool)
                if on_eject is not None:
                    want |= ej
                if on_hop is not None:
                    want[hi] = True
                if tracing:
                    want |= a_serial[rows] < trace_limit
                sel = want.nonzero()[0]
            if grant_events and sel.size:
                hop_at = np.full(wu.size, -1, dtype=np.int64)
                hop_at[hi] = np.arange(hi.size)
                if on_hop is not None:
                    w_l = (du % vcs).tolist()
                    left_l = left.tolist()
                    depth_l = depth.tolist()
                srows = rows[sel]
                for row, packet, out, sw, h in zip(
                    srows.tolist(),
                    views_of(srows),
                    wout[sel].tolist(),
                    unit_sw[wu[sel]].tolist(),
                    hop_at[sel].tolist(),
                ):
                    if packet.serial < trace_limit:
                        trace = traces.get(packet.serial)
                        if trace is not None:
                            trace.append(
                                (t, "forward" if h >= 0 else "eject",
                                 ch_peer[out])
                            )
                    if h < 0:
                        if on_eject is not None:
                            on_eject(
                                t, packet, delivered - packet.created, phits
                            )
                        views[row] = None  # no later event
                    elif on_hop is not None:
                        on_hop(
                            t, packet, sw, ch_dst_l[out],
                            w_l[h], left_l[h], depth_l[h],
                        )
            p_inj[rows[from_inject]] = t

            # Head exposure: the next packet of every popped unit, and
            # the pushed packet of every VC that was empty.
            ready[wu] = EMPTY_READY
            nxt = wu[q_len[wu] > 0]
            fresh = pre == 0
            new_units = np.concatenate((nxt, du[fresh]))
            new_rows = np.concatenate(
                (store[q_base[nxt] + q_head[nxt]], hrows[fresh])
            )
            # A packet on an injection queue also waits for its link,
            # busy until ``busy_until``.
            expose(
                new_units,
                new_rows,
                np.maximum(
                    p_ready[new_rows], (new_units >= n_lu) * busy_until
                ),
            )
        if granted_links and busy_until <= horizon:
            credit_due[busy_until] = np.concatenate(granted_links)
        if multi_iter:
            granted[:] = False
        if counting:
            arb_passes += int(np.count_nonzero(arb_seen))
            arb_seen[:] = False
        if on_arbitrate is not None:
            for s in np.flatnonzero(req_acc).tolist():
                on_arbitrate(t, s, int(req_acc[s]), int(gr_acc[s]))
            req_acc[:] = 0
            gr_acc[:] = 0

    # ---- flush ----------------------------------------------------------
    unroutable = n_pk - q_rows.size
    depth = _arrival_depths(
        by_term, a_term, a_time, p_inj, q_pos, q_start, horizon
    )
    d_lat, d_hops = _record_deliveries(
        stats, delivered_rows, delivered_at, a_time, p_hops, phits
    )
    stats.generated_packets += n_pk
    stats.injected_packets += int(np.count_nonzero(p_inj >= 0))
    sim.unroutable_packets += unroutable
    if counting:
        counters.grants = c_grants
        counters.cycle_grants = c_cycle
        counters.drops += unroutable
        counters.arb_passes += arb_passes
        counters.arb_requests += int(arb_requests)
        counters.arb_grants += int(arb_grants)
        counters.injects[:] = (
            np.asarray(counters.injects, dtype=np.int64)
            + np.bincount(a_time[q_rows], minlength=horizon + 1)
        ).tolist()
        _add_counts(counters.inject_depth, [depth])
        _add_counts(counters.vc_depth, vc_depths)
        _add_counts(counters.credits, credits_left)
        _add_counts(counters.latency, [d_lat])
        _add_counts(counters.hops, [d_hops])
    if depth.size:
        sim.max_inject_queue = max(sim.max_inject_queue, int(depth.max()))

    # Channel state back into the simulator's lists (identity kept);
    # the queued packets and credits wait for a read of the per-VC lists.
    sim.ch_busy[:] = busy.tolist()
    sim.ch_busy_cycles[:] = busy_cycles.tolist()
    # An injection link is busy until its last packet's tail.
    sent = q_head[n_lu:]
    last = (sent > 0).nonzero()[0]
    blocked[last] = p_inj[by_term[q_start[last] + sent[last] - 1]] + phits
    ch_blocked = sim.ch_blocked
    for cid, until in zip(inject_cid.tolist(), blocked.tolist()):
        ch_blocked[cid] = until
    moved = (slots != slots_at_start).any(axis=1).nonzero()[0]
    units = q_len.nonzero()[0]
    lens = q_len[units]
    link = units < n_lu
    slot = _spans(q_head[units], lens)
    slot[np.repeat(link, lens)] %= buffers
    queued = store[np.repeat(q_base[units], lens) + slot]
    cids = units // vcs
    cids[~link] = inject_cid[units[~link] - n_lu]
    fill = _queue_fill(
        moved,
        slots[moved],
        cids,
        np.where(link, units % vcs, 0),
        lens,
        p_ready[queued],
        queued,
        [c[queued] for c in packet_columns],
        views,
    )
    sim._leave_buffer_fill(fill)
    sim._next_serial = next_serial
    return sim._finish_run()
