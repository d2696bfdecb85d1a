"""Event-driven virtual cut-through network simulator.

An INSEE-like interconnection simulator (paper Section 6, Table 2)
implemented at packet granularity:

* **virtual cut-through** flow control: a packet advances as soon as
  its head can be routed, but only into a virtual channel with buffer
  space for the whole packet; a 16-phit packet occupies each traversed
  link for 16 cycles and its tail frees the upstream buffer slot 16
  cycles after the grant;
* **input-buffered switches** with ``virtual_channels`` VCs per input
  link (``buffer_packets`` packets each) to reduce head-of-line
  blocking -- up/down routing needs no VCs for deadlock freedom;
* **single-iteration random arbitration** (Table 2: random arbiter,
  1 arbitration iteration): each head packet requests one random
  viable output (random up/down request mode), each free output grants
  one random requester;
* **credit-based backpressure**: grants require a free downstream VC
  slot, credits return when tails drain.

The simulation is event-driven rather than cycle-stepped -- switches
only do work when an arrival, credit return or port release can change
their state -- which is what makes pure-Python runs of thousands of
terminals tractable while preserving cycle-exact VCT timing.

Terminals inject Bernoulli traffic at a configured *normalized load*
(1.0 = one phit per terminal per cycle) into unbounded source queues,
drained through a 1 phit/cycle injection link; ejection links model
the symmetric sink.  Statistics follow
:class:`~repro.simulation.stats.SimStats`.

This module holds the state every engine shares: the
:class:`Simulator` (channels, routing, run start and end) and the
convenience wrappers.  The run loops live in
:mod:`repro.simulation.fastpath` (exact) and :mod:`repro.accel.relaxed`
(relaxed); ``tests/oracle_engine.py`` keeps the readable reference
event loop the exact engine is proven bit-for-bit equal to.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

import numpy as np

from ..obs.counters import RunCounters
from ..obs.hooks import SimObserver
from ..routing.updown import UpDownRouter
from ..topologies.base import FoldedClos, Link
from ..topologies.packed import PackedFoldedClos
from .config import SimulationParams
from .packet import Packet
from .stats import SimResult, SimStats
from .traffic import TrafficPattern

__all__ = ["Simulator", "simulate", "load_sweep", "saturation_throughput"]

#: Channel kinds and event-wheel tags; the fast and relaxed engines
#: import them from here.
_LINK, _INJECT, _EJECT = 0, 1, 2
_EV_ARB, _EV_CREDIT, _EV_GEN = 0, 1, 2


class Simulator:
    """One simulation instance: topology + traffic + parameters.

    Build once, call :meth:`run` once.  ``topo`` must be a
    :class:`~repro.topologies.base.FoldedClos` or a
    :class:`~repro.topologies.packed.PackedFoldedClos`; any other
    topology raises :class:`ValueError`.  ``removed_links`` prunes cables
    (both directions) before the run; routing tables are computed on
    the pruned network, and packets whose pair has lost every up/down
    route are dropped and counted in :attr:`unroutable_packets`.  A
    removed link that is not a cable of ``topo`` raises
    :class:`ValueError`.

    ``observer`` attaches a :class:`~repro.obs.hooks.SimObserver`.  Of
    its inject/hop/arbitration/eject/drop hooks only the overridden ones
    fire, and an observer that ``wants_counters`` has the engine keep a
    :class:`~repro.obs.counters.RunCounters` record, exposed as
    :attr:`run_counters`, instead.  Observers are pure read-only
    listeners (no RNG, no engine mutation), so an instrumented run
    produces the exact same :class:`SimResult` as a bare one; when
    ``observer`` is None each event costs a pointer test or two.

    Construction builds the channel arrays every engine reads.  The
    per-VC state -- :attr:`ch_queues`, :attr:`ch_slots`,
    :attr:`in_units` and :attr:`link_channel` -- is built on its first
    read (:meth:`__getattr__`): the exact engines read it at run start,
    the relaxed engine keeps its own arrays and never does.
    """

    #: Per channel: one FIFO of ``(ready, Packet)`` entries per VC on a
    #: link, one on an injection channel, ``None`` on an ejection one.
    ch_queues: list[list | None]
    #: Free downstream slots per VC of each link channel, else ``None``.
    ch_slots: list[list[int] | None]
    #: Per switch: its input units ``(channel, vc)``, link VCs first.
    in_units: list[list[tuple[int, int]]]
    #: ``(src, dst)`` switch pair -> link channel id.
    link_channel: dict[tuple[int, int], int]

    #: Lazily built attributes and the builder that sets each.
    _LAZY_STATE = {
        "ch_queues": "_build_buffers",
        "ch_slots": "_build_buffers",
        "in_units": "_build_in_units",
        "link_channel": "_build_link_channel",
    }

    def __init__(
        self,
        topo: FoldedClos | PackedFoldedClos,
        traffic: TrafficPattern,
        load: float,
        params: SimulationParams | None = None,
        removed_links: Iterable[Link] | None = None,
        trace_limit: int = 0,
        observer: SimObserver | None = None,
    ) -> None:
        if not isinstance(topo, (FoldedClos, PackedFoldedClos)):
            raise ValueError(
                "the simulator runs folded Clos networks only (FoldedClos "
                f"or PackedFoldedClos), got {type(topo).__name__}"
            )
        if traffic.num_terminals != topo.num_terminals:
            raise ValueError(
                f"traffic has {traffic.num_terminals} terminals, topology "
                f"has {topo.num_terminals}"
            )
        if not 0.0 < load <= 1.0:
            raise ValueError(f"load must be in (0, 1], got {load}")
        self.topo = topo
        self.traffic = traffic
        self.load = load
        self.params = params or SimulationParams()
        self.rng = random.Random(self.params.seed)
        self.unroutable_packets = 0
        self.observer = observer
        self.run_counters: RunCounters | None = None
        # Packet tracing: hop logs for the first `trace_limit` packets.
        self.trace_limit = trace_limit
        self.traces: dict[int, list[tuple[int, str, int]]] = {}
        self._next_serial = 0

        removed_order = list(removed_links or ())
        pairs = self._surviving_links(removed_order)
        self._build_router(set(removed_order))
        self._build_channels(pairs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_router(self, removed: set[Link]) -> None:
        topo = self.topo
        stages: list[list[list[int]]] = []
        for level in range(topo.num_levels - 1):
            rows = []
            for s in range(topo.level_sizes[level]):
                ups = topo.up_neighbors(level, s)
                if removed:
                    lo = topo.switch_id(level, s)
                    ups = [
                        t
                        for t in ups
                        if Link(lo, topo.switch_id(level + 1, t)) not in removed
                    ]
                rows.append(list(ups))
            stages.append(rows)
        self.router = UpDownRouter(topo.level_sizes, stages)

    def _surviving_links(self, removed: list[Link]) -> np.ndarray:
        """``(L, 2) int64`` (lo, hi) pairs of the cables left after
        ``removed``, in :meth:`links` order.

        Raises :class:`ValueError` naming the first entry of ``removed``
        that is not a cable of the topology, rather than simulating the
        unpruned network under a fault list that names a missing link.
        """
        pairs = np.asarray(self.topo.links_array(), dtype=np.int64)
        if not removed:
            return pairs
        n_sw = self.topo.num_switches
        keys = pairs[:, 0] * n_sw + pairs[:, 1]
        gone = np.array(
            [
                link.lo * n_sw + link.hi if 0 <= link.lo and link.hi < n_sw
                else -1
                for link in removed
            ],
            dtype=np.int64,
        )
        known = np.isin(gone, keys)
        if not known.all():
            link = removed[int(np.argmin(known))]
            raise ValueError(
                f"removed_links holds {link}, not a link of the topology"
            )
        return pairs[~np.isin(keys, gone)]

    def _build_channels(self, pairs: np.ndarray) -> None:
        """Channel endpoint arrays for the surviving cables ``pairs``.

        Channel ids follow the cable order: cable ``i`` owns ``2i``
        (lo -> hi) and ``2i + 1`` (hi -> lo), then terminal ``t`` owns
        ``2L + 2t`` (inject) and ``2L + 2t + 1`` (eject).  Only the
        per-channel kind, endpoint and busy lists are built here; the
        per-VC state waits for its first read (:meth:`__getattr__`).
        """
        topo = self.topo
        n_link = 2 * len(pairs)
        n_term = topo.num_terminals
        leaves = np.arange(n_term) // topo.hosts_per_leaf

        src = np.empty(n_link + 2 * n_term, dtype=np.int64)
        dst = np.empty_like(src)
        src[0:n_link:2] = dst[1:n_link:2] = pairs[:, 0]
        src[1:n_link:2] = dst[0:n_link:2] = pairs[:, 1]
        src[n_link::2] = dst[n_link + 1 :: 2] = -1
        src[n_link + 1 :: 2] = dst[n_link::2] = leaves
        peer = dst.copy()
        peer[n_link:] = np.repeat(np.arange(n_term), 2)
        n_ch = len(src)

        #: Channels ``0 .. n_link_channels - 1`` are the links (both
        #: directions); terminal inject/eject pairs follow.
        self.n_link_channels = n_link
        self.ch_kind: list[int] = [_LINK] * n_link + [_INJECT, _EJECT] * n_term
        self.ch_src: list[int] = src.tolist()
        self.ch_dst: list[int] = dst.tolist()
        self.ch_peer: list[int] = peer.tolist()
        self.ch_busy: list[int] = [0] * n_ch
        self.ch_blocked: list[int] = [0] * n_ch
        self.ch_busy_cycles: list[int] = [0] * n_ch
        self.max_inject_queue = 0
        self.inject_channel: list[int] = list(range(n_link, n_ch, 2))
        self.eject_channel: list[int] = list(range(n_link + 1, n_ch, 2))
        #: A finished relaxed run's queued packets and credits, written
        #: into :attr:`ch_queues` / :attr:`ch_slots` when they are built.
        self._buffer_fill: Callable[[list, list], None] | None = None

        # Flat-id decomposition caches for up/down routing.
        self.level_offsets = [
            topo.switch_id(level, 0) for level in range(topo.num_levels)
        ]
        n_sw = topo.num_switches
        self.level_of = [0] * n_sw
        self.index_of = [0] * n_sw
        for level, (first, size) in enumerate(
            zip(self.level_offsets, topo.level_sizes)
        ):
            self.level_of[first : first + size] = [level] * size
            self.index_of[first : first + size] = range(size)

    def __getattr__(self, name: str):
        """Build a lazily held attribute (:attr:`_LAZY_STATE`) on its
        first read; reached only while ``name`` is not yet set."""
        builder = self._LAZY_STATE.get(name)
        if builder is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        getattr(self, builder)()
        return self.__dict__[name]

    def _build_buffers(self) -> None:
        """:attr:`ch_queues` and :attr:`ch_slots`: an empty plain-list
        FIFO per link VC and per injection channel, and a full credit
        row per link channel -- then the state a relaxed run left.

        Credits bound a link VC's FIFO to ``buffer_packets`` entries,
        so popping the head with ``del queue[0]`` moves at most a few
        pointers, and an empty list takes 56 bytes where a
        double-ended queue takes 760.
        """
        params = self.params
        vcs = params.virtual_channels
        n_link = self.n_link_channels
        n_term = len(self.inject_channel)
        terminal_queues: list[list | None] = [None] * (2 * n_term)
        terminal_queues[::2] = [[[]] for _ in range(n_term)]
        self.ch_queues = [
            [[] for _ in range(vcs)] for _ in range(n_link)
        ] + terminal_queues
        self.ch_slots = [
            [params.buffer_packets] * vcs for _ in range(n_link)
        ] + [None] * (2 * n_term)
        fill, self._buffer_fill = self._buffer_fill, None
        if fill is not None:
            fill(self.ch_queues, self.ch_slots)

    def _buffers_built(self) -> bool:
        """Whether :attr:`ch_slots` exists, or a run left a fill that
        builds it."""
        return "ch_slots" in self.__dict__ or self._buffer_fill is not None

    def _leave_buffer_fill(self, fill: Callable[[list, list], None]) -> None:
        """Have ``fill(ch_queues, ch_slots)`` write a run's end state:
        now if the per-VC lists exist, else on their first read."""
        if "ch_queues" in self.__dict__:
            fill(self.ch_queues, self.ch_slots)
        else:
            self._buffer_fill = fill

    def _build_in_units(self) -> None:
        """:attr:`in_units`: every link VC at its downstream switch, in
        channel order, then each injection channel at its leaf."""
        n_link = self.n_link_channels
        ch_dst = self.ch_dst
        units: list[list[tuple[int, int]]] = [
            [] for _ in range(self.topo.num_switches)
        ]
        vc_range = range(self.params.virtual_channels)
        for cid, b in enumerate(ch_dst[:n_link]):
            units[b].extend([(cid, vc) for vc in vc_range])
        for cid in self.inject_channel:
            units[ch_dst[cid]].append((cid, 0))
        self.in_units = units

    def _build_link_channel(self) -> None:
        """:attr:`link_channel`, in channel order: a pair listed twice
        maps to its last channel."""
        n_link = self.n_link_channels
        self.link_channel = dict(
            zip(zip(self.ch_src[:n_link], self.ch_dst[:n_link]), range(n_link))
        )

    # ------------------------------------------------------------------
    # Routing helper
    # ------------------------------------------------------------------
    def _output_candidates(self, switch: int, packet: Packet) -> list[int]:
        """Viable output channel ids for ``packet`` at ``switch``.

        Empty list means the packet must wait (all candidate ports busy
        or out of credit).
        """
        level = self.level_of[switch]
        index = self.index_of[switch]
        if packet.via is not None:
            via_leaf = packet.via // self.topo.hosts_per_leaf
            if level == 0 and index == via_leaf:
                packet.via = None  # randomization phase complete
            else:
                direction, nbrs = self.router.next_hops(
                    level, index, via_leaf,
                    minimal=self.params.minimal_routing,
                )
                offset = self.level_offsets[
                    level + 1 if direction == "up" else level - 1
                ]
                return [
                    self.link_channel[(switch, offset + t)] for t in nbrs
                ]
        dst_leaf = packet.dst // self.topo.hosts_per_leaf
        direction, nbrs = self.router.next_hops(
            level, index, dst_leaf, minimal=self.params.minimal_routing
        )
        if direction == "deliver":
            return [self.eject_channel[packet.dst]]
        offset = self.level_offsets[level + 1 if direction == "up" else level - 1]
        return [self.link_channel[(switch, offset + t)] for t in nbrs]

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        """Execute the run through the engine ``params.rng_mode`` selects.

        * ``"exact"`` (the default) -- :func:`repro.simulation.fastpath
          .run_fast`: precomputed CSR candidate tables driving a
          calendar-queue event wheel, bit-for-bit equal to the readable
          reference engine the differential tests keep as their oracle
          (``tests/oracle_engine.py``);
        * ``"relaxed"`` -- :func:`repro.accel.relaxed.run_relaxed`:
          counter-based per-packet RNG and fully batched arbitration,
          deterministic per seed but only *statistically* equivalent to
          the exact engine (``tests/test_relaxed_rng_equivalence.py``).
        """
        if self.params.rng_mode == "relaxed":
            from ..accel.relaxed import run_relaxed

            return run_relaxed(self)
        from .fastpath import run_fast

        return run_fast(self)

    def _start_stats(self) -> SimStats:
        """A fresh :class:`SimStats` for a run, kept as ``_stats``."""
        params = self.params
        stats = SimStats(warmup=params.warmup_cycles, horizon=params.horizon)
        self._stats = stats
        return stats

    def _finish_run(self) -> SimResult:
        """The run's :class:`SimResult`, shown to the observer's
        ``on_run_end`` before it is returned."""
        result = SimResult.from_stats(
            self._stats,
            offered_load=self.load,
            num_terminals=self.topo.num_terminals,
            traffic=self.traffic.name,
            topology=self.topo.name,
            unroutable_packets=self.unroutable_packets,
        )
        if self.observer is not None:
            self.observer.on_run_end(self, result)
        return result

    # ------------------------------------------------------------------
    # Post-run inspection
    # ------------------------------------------------------------------
    def link_utilization(self) -> dict[str, float]:
        """Switch-link utilization summary over the measurement window.

        Returns ``{"mean": ..., "max": ..., "p95": ...}`` as fractions
        of a link's phit capacity.  Call after :meth:`run`.  A
        degenerate window (``measure_cycles <= 0``) reports zeros
        rather than dividing by it.
        """
        window = self.params.measure_cycles
        if window <= 0:
            return {"mean": 0.0, "max": 0.0, "p95": 0.0}
        fractions = sorted(
            self.ch_busy_cycles[cid] / window
            for cid in range(len(self.ch_kind))
            if self.ch_kind[cid] == _LINK
        )
        if not fractions:
            return {"mean": 0.0, "max": 0.0, "p95": 0.0}
        return {
            "mean": sum(fractions) / len(fractions),
            "max": fractions[-1],
            "p95": fractions[int(0.95 * (len(fractions) - 1))],
        }

    def stage_utilization(self) -> dict[str, float]:
        """Mean link utilization per inter-level stage and direction.

        Keys look like ``"0->1 up"`` / ``"1->0 down"``; useful for
        spotting which stage saturates first (on an RFC under uniform
        traffic the stages should load evenly).
        """
        window = self.params.measure_cycles
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for cid in range(len(self.ch_kind)):
            if self.ch_kind[cid] != _LINK:
                continue
            src_level = self.level_of[self.ch_src[cid]]
            dst_level = self.level_of[self.ch_dst[cid]]
            direction = "up" if dst_level > src_level else "down"
            key = f"{src_level}->{dst_level} {direction}"
            used = self.ch_busy_cycles[cid] / window if window > 0 else 0.0
            sums[key] = sums.get(key, 0.0) + used
            counts[key] = counts.get(key, 0) + 1
        # Sorted keys: exported metrics must not depend on dict
        # insertion order (repro.lint RPR003 discipline).
        return {key: sums[key] / counts[key] for key in sorted(sums)}

    def link_loads(self) -> dict[str, float]:
        """Per-directed-link utilization, keyed ``"src->dst"``.

        Keys are sorted, so serializing the dict is deterministic.
        This is the link-load distribution Jellyfish-style analyses
        attribute throughput with; call after :meth:`run`.
        """
        window = self.params.measure_cycles
        loads = {
            f"{self.ch_src[cid]}->{self.ch_dst[cid]}":
                self.ch_busy_cycles[cid] / window if window > 0 else 0.0
            for cid in range(len(self.ch_kind))
            if self.ch_kind[cid] == _LINK
        }
        return {key: loads[key] for key in sorted(loads)}

    def batch_accepted_loads(self) -> list[float]:
        """Per-batch accepted loads (batch-means steady-state check)."""
        return self._stats.batch_accepted_loads(self.topo.num_terminals)

    def ejection_utilization(self) -> list[float]:
        """Per-terminal sink occupancy -- 1.0 marks a saturated hot spot.

        Zeros when the measurement window is degenerate
        (``measure_cycles <= 0``).
        """
        window = self.params.measure_cycles
        if window <= 0:
            return [0.0] * len(self.eject_channel)
        return [
            self.ch_busy_cycles[cid] / window for cid in self.eject_channel
        ]

    def _most_credited(
        self,
        viable: list[int],
        vc_lo: int,
        vc_hi: int,
        rng: random.Random,
    ) -> int:
        """Adaptive selection: candidate with most free downstream slots."""
        best: list[int] = []
        best_credit = -1
        for out in viable:
            slots = self.ch_slots[out]
            credit = (
                sum(slots[vc_lo:vc_hi])
                if slots is not None
                else self.params.buffer_packets * (vc_hi - vc_lo)
            )
            if credit > best_credit:
                best_credit = credit
                best = [out]
            elif credit == best_credit:
                best.append(out)
        return best[0] if len(best) == 1 else rng.choice(best)


def simulate(
    topo: FoldedClos | PackedFoldedClos,
    traffic: TrafficPattern,
    load: float,
    params: SimulationParams | None = None,
    removed_links: Iterable[Link] | None = None,
    observer: SimObserver | None = None,
) -> SimResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    return Simulator(
        topo, traffic, load, params, removed_links, observer=observer
    ).run()


def load_sweep(
    topo: FoldedClos,
    traffic_name: str,
    loads: Iterable[float],
    params: SimulationParams | None = None,
    removed_links: Iterable[Link] | None = None,
) -> list[SimResult]:
    """Simulate a list of offered loads with a shared traffic pattern.

    The pattern is re-instantiated per run with a seed derived from the
    simulation seed, so random-pairing/fixed-random keep identical
    pairings across the sweep (the paper averages over several seeds;
    callers can loop over ``params.scaled(seed=...)``).
    """
    from .traffic import make_traffic

    params = params or SimulationParams()
    results = []
    for load in loads:
        traffic = make_traffic(
            traffic_name, topo.num_terminals, rng=params.seed + 7_919
        )
        results.append(simulate(topo, traffic, load, params, removed_links))
    return results


def saturation_throughput(
    topo: FoldedClos,
    traffic_name: str,
    params: SimulationParams | None = None,
    removed_links: Iterable[Link] | None = None,
) -> float:
    """Accepted load at offered load 1.0 (the paper's max throughput)."""
    from .traffic import make_traffic

    params = params or SimulationParams()
    traffic = make_traffic(
        traffic_name, topo.num_terminals, rng=params.seed + 7_919
    )
    return simulate(topo, traffic, 1.0, params, removed_links).accepted_load
