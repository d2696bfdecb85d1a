"""Event-hook protocol between the simulator and observers.

:class:`~repro.simulation.engine.Simulator` accepts one observer and
can invoke these hooks at the five places where simulated state
changes:

==================  ====================================================
``on_inject``       a generated packet entered its source queue
``on_drop``         a generated packet had no route (counted, discarded)
``on_arbitrate``    one switch finished an arbitration pass
``on_hop``          a packet was granted a switch-to-switch link
``on_eject``        a packet was delivered to its destination terminal
==================  ====================================================

plus ``on_run_start`` / ``on_run_end`` bracketing the run.  Hooks are
pure observation: they receive engine state but must not mutate it and
must not consume randomness, which is what keeps an instrumented run
bit-for-bit identical to a bare one (enforced by tests).

Only overridden hooks fire.  Each engine resolves the five per-event
hooks once per run through :func:`begin_run`: a hook an observer leaves
as the :class:`SimObserver` no-op (at class level) is never called, and
:class:`MultiObserver` fans each hook out only to the children that
override it, in list order.  An observer whose ``wants_counters`` is
true instead has the engine keep a
:class:`~repro.obs.counters.RunCounters` record for the run.

:class:`SimObserver` is the no-op base; :class:`MetricsObserver` fills
a :class:`~repro.obs.metrics.MetricsRegistry` from the run counters at
run end, overriding no per-event hook; :class:`TracingObserver` streams
JSONL events through a :class:`~repro.obs.trace.TraceWriter`;
:class:`MultiObserver` fans one engine out to several observers.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .counters import RunCounters
from .metrics import MetricsRegistry, TimeSeries
from .trace import TraceWriter

__all__ = [
    "EVENT_HOOKS",
    "SimObserver",
    "MetricsObserver",
    "TracingObserver",
    "MultiObserver",
    "begin_run",
]

#: The per-event hooks, in the order :func:`begin_run` returns them.
EVENT_HOOKS = ("on_inject", "on_drop", "on_arbitrate", "on_hop", "on_eject")


class SimObserver:
    """No-op base class; override the hooks you need."""

    #: Whether the engine should keep :class:`RunCounters` for the run
    #: (read back from ``sim.run_counters`` in :meth:`on_run_end`).
    wants_counters = False

    def hook(self, name: str) -> Callable | None:
        """The bound per-event hook ``name``, or ``None`` when this
        observer's class keeps the :class:`SimObserver` no-op."""
        if getattr(type(self), name) is getattr(SimObserver, name):
            return None
        return getattr(self, name)

    def on_run_start(self, sim) -> None:
        """Called once before the event loop; ``sim`` is the engine."""

    def on_inject(self, time: int, packet, queue_len: int) -> None:
        """Packet appended to its source queue (depth ``queue_len``)."""

    def on_drop(self, time: int, terminal: int, packet) -> None:
        """Packet discarded as unroutable at generation time."""

    def on_arbitrate(
        self, time: int, switch: int, requests: int, grants: int
    ) -> None:
        """One arbitration pass at ``switch`` matched
        ``grants`` of ``requests`` requests."""

    def on_hop(
        self,
        time: int,
        packet,
        src: int,
        dst: int,
        vc: int,
        credits_left: int,
        queue_len: int,
    ) -> None:
        """Packet granted the ``src -> dst`` link into VC ``vc``
        (``credits_left`` buffer slots remain; the downstream VC queue
        now holds ``queue_len`` packets)."""

    def on_eject(self, time: int, packet, latency: int, phits: int) -> None:
        """Packet delivered; ``latency`` is generation-to-tail cycles."""

    def on_run_end(self, sim, result) -> None:
        """Called once after the event loop with the final result."""


def begin_run(sim) -> tuple:
    """Open one run of ``sim`` for its observer.

    Returns ``(counters, on_inject, on_drop, on_arbitrate, on_hop,
    on_eject)``: the run's :class:`RunCounters` when the observer wants
    them (also stored as ``sim.run_counters``), then each per-event
    hook bound, or ``None`` where no observer overrides it.  Calls
    ``on_run_start`` once the counters exist.
    """
    observer = sim.observer
    sim.run_counters = None
    if observer is None:
        return (None,) * (1 + len(EVENT_HOOKS))
    if observer.wants_counters:
        sim.run_counters = RunCounters(sim)
    observer.on_run_start(sim)
    return (sim.run_counters, *map(observer.hook, EVENT_HOOKS))


def _observe_bins(histogram, bins) -> None:
    """Fold value-indexed ``bins`` counts into ``histogram``."""
    for value, count in enumerate(bins):
        if count:
            histogram.observe(value, count)


def _add_per_cycle(
    registry: MetricsRegistry, name: str, width: int, per_cycle, scale: int
) -> None:
    """Add ``per_cycle`` event counts, times ``scale``, to the time
    series ``name``; buckets (and the series) exist only where an event
    happened, as if each event had been added on its own."""
    per_cycle = np.asarray(per_cycle, dtype=np.int64)
    if not per_cycle.any():
        return
    series: TimeSeries = registry.timeseries(name, width)
    w = series.width
    padded = np.zeros(-(-len(per_cycle) // w) * w, dtype=np.int64)
    padded[: len(per_cycle)] = per_cycle
    sums = padded.reshape(-1, w).sum(axis=1).tolist()
    for bucket, total in enumerate(sums):
        if total:
            series.add(bucket * w, float(total * scale))


class MetricsObserver(SimObserver):
    """Populates a metrics registry from the engine's run counters.

    It overrides no per-event hook, so attaching it adds no Python call
    per event: the engine fills a :class:`RunCounters` record and
    :meth:`on_run_end` reduces it into the registry once.  Until then
    :meth:`export` holds nothing from the run.

    Captured metrics (names are stable API, see docs/OBSERVABILITY.md):

    * counters: packet/event counts, arbitration totals, and per-link
      delivered phits (``link.<src>-><dst>``, the Jellyfish-style
      link-load distribution);
    * histograms: source-queue and VC-queue occupancy, VC credits at
      grant time, packet latency and hop counts;
    * time series: injected packets, delivered phits, link phits
      per cycle bucket, and per-stage utilization for folded Clos
      (``ts.stage.<lo>-><hi>``), over ``ts_buckets`` buckets of the
      horizon (at least one cycle wide).
    """

    wants_counters = True

    def __init__(
        self, registry: MetricsRegistry | None = None, ts_buckets: int = 100
    ) -> None:
        if (
            isinstance(ts_buckets, bool)
            or not isinstance(ts_buckets, int)
            or ts_buckets < 1
        ):
            raise ValueError(
                f"ts_buckets must be a positive integer, got {ts_buckets!r}"
            )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ts_buckets = ts_buckets

    def on_run_end(self, sim, result) -> None:
        counters = sim.run_counters
        reg = self.registry
        params = sim.params
        phits = params.packet_phits
        width = max(1, params.horizon // self.ts_buckets)

        injected = sum(counters.injects)
        if injected:
            reg.counter("inject.packets").inc(injected)
            _observe_bins(
                reg.histogram("queue.inject_occupancy"), counters.inject_depth
            )
            _add_per_cycle(
                reg, "ts.injected_packets", width, counters.injects, 1
            )
        if counters.drops:
            reg.counter("drop.unroutable").inc(counters.drops)
        if counters.arb_passes:
            reg.counter("arb.passes").inc(counters.arb_passes)
            reg.counter("arb.requests").inc(counters.arb_requests)
            reg.counter("arb.grants").inc(counters.arb_grants)

        per_cycle = np.asarray(counters.cycle_grants, dtype=np.int64).reshape(
            -1, counters.n_classes
        )
        stages = per_cycle[:, : counters.eject_class]
        hops = stages.sum(axis=1)
        delivered = per_cycle[:, counters.eject_class]
        if delivered.any():
            # Before the per-link block below: reading a named counter
            # after it expands the block into one object per link.
            reg.counter("eject.packets").inc(int(delivered.sum()))
        if hops.any():
            reg.counter("hop.count").inc(int(hops.sum()))
            grants = np.asarray(counters.grants, dtype=np.int64)
            used = np.flatnonzero(
                (np.asarray(counters.ch_class) != counters.eject_class)
                & (grants > 0)
            )
            reg.counter_block(
                "link.{}->{}",
                (
                    np.asarray(sim.ch_src)[used].tolist(),
                    np.asarray(sim.ch_dst)[used].tolist(),
                ),
                (grants[used] * phits).tolist(),
            )
            _observe_bins(
                reg.histogram("vc.credits_at_grant"), counters.credits
            )
            _observe_bins(reg.histogram("queue.vc_occupancy"), counters.vc_depth)
            _add_per_cycle(reg, "ts.link_phits", width, hops, phits)
            for k, (lo, hi) in enumerate(counters.stage_pairs):
                _add_per_cycle(
                    reg, f"ts.stage.{lo}->{hi}", width, stages[:, k], phits
                )

        if delivered.any():
            _observe_bins(reg.histogram("latency.packet"), counters.latency)
            _observe_bins(reg.histogram("hops.packet"), counters.hops)
            _add_per_cycle(reg, "ts.delivered_phits", width, delivered, phits)

    def export(self) -> dict:
        """The registry snapshot (sorted, JSON-ready)."""
        return self.registry.export()


class TracingObserver(SimObserver):
    """Streams one JSONL record per event through a trace writer.

    ``include_arb`` adds per-pass arbitration records (high volume; off
    by default).  The writer is owned by the caller, who is responsible
    for closing it -- or use :meth:`close` for convenience.
    """

    def __init__(self, writer: TraceWriter, include_arb: bool = False) -> None:
        self.writer = writer
        self.include_arb = include_arb

    def hook(self, name: str) -> Callable | None:
        if name == "on_arbitrate" and not self.include_arb:
            return None
        return super().hook(name)

    def on_run_start(self, sim) -> None:
        self.writer.emit(
            {
                "ev": "run_start",
                "t": 0,
                "topology": sim.topo.name,
                "traffic": sim.traffic.name,
                "load": sim.load,
                "seed": sim.params.seed,
                "horizon": sim.params.horizon,
            }
        )

    def on_inject(self, time: int, packet, queue_len: int) -> None:
        self.writer.emit(
            {
                "ev": "inject",
                "t": time,
                "p": packet.serial,
                "src": packet.src,
                "dst": packet.dst,
                "q": queue_len,
            }
        )

    def on_drop(self, time: int, terminal: int, packet) -> None:
        self.writer.emit(
            {
                "ev": "drop",
                "t": time,
                "p": packet.serial,
                "src": packet.src,
                "dst": packet.dst,
            }
        )

    def on_arbitrate(
        self, time: int, switch: int, requests: int, grants: int
    ) -> None:
        if self.include_arb:
            self.writer.emit(
                {
                    "ev": "arb",
                    "t": time,
                    "sw": switch,
                    "req": requests,
                    "grant": grants,
                }
            )

    def on_hop(
        self,
        time: int,
        packet,
        src: int,
        dst: int,
        vc: int,
        credits_left: int,
        queue_len: int,
    ) -> None:
        self.writer.emit(
            {
                "ev": "hop",
                "t": time,
                "p": packet.serial,
                "src": src,
                "dst": dst,
                "vc": vc,
            }
        )

    def on_eject(self, time: int, packet, latency: int, phits: int) -> None:
        self.writer.emit(
            {
                "ev": "eject",
                "t": time,
                "p": packet.serial,
                "dst": packet.dst,
                "lat": latency,
                "hops": packet.hops,
            }
        )

    def on_run_end(self, sim, result) -> None:
        self.writer.emit(
            {
                "ev": "run_end",
                "t": sim.params.horizon,
                "generated": result.generated_packets,
                "delivered": result.delivered_packets,
                "accepted_load": result.accepted_load,
                "unroutable": result.unroutable_packets,
            }
        )

    def close(self) -> None:
        self.writer.close()


class MultiObserver(SimObserver):
    """Fans each hook out to an ordered list of observers.

    A per-event hook reaches only the children that override it, in
    list order; the run counters are kept when any child wants them.
    """

    def __init__(self, observers: list[SimObserver]) -> None:
        self.observers = list(observers)

    @property
    def wants_counters(self) -> bool:  # type: ignore[override]
        """True when any child wants the run counters."""
        return any(obs.wants_counters for obs in self.observers)

    def hook(self, name: str) -> Callable | None:
        hooks = [
            hook
            for hook in (obs.hook(name) for obs in self.observers)
            if hook is not None
        ]
        if not hooks:
            return None
        if len(hooks) == 1:
            return hooks[0]

        def fan_out(*args) -> None:
            for hook in hooks:
                hook(*args)

        return fan_out

    def on_run_start(self, sim) -> None:
        for obs in self.observers:
            obs.on_run_start(sim)

    def on_run_end(self, sim, result) -> None:
        for obs in self.observers:
            obs.on_run_end(sim, result)
