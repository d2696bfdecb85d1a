"""Run counters: the tallies an engine keeps for a counting observer.

An observer whose ``wants_counters`` is true (``MetricsObserver``) gets
no per-event calls.  Instead the engine allocates one
:class:`RunCounters` per run, stores it as ``sim.run_counters`` and
bumps a few plain list cells where it would otherwise have called a
hook; the observer reduces the record once, in ``on_run_end``.

What is counted, and where:

* ``grants[c]`` -- packets granted output channel ``c`` (link hops and
  deliveries alike);
* ``cycle_grants[t * n_classes + k]`` -- grants at cycle ``t`` into
  channels of class ``k``.  A link's class is its stage, its ``(lo,
  hi)`` levels, and every eject channel shares the last class, so one
  row holds the per-stage link hops and the deliveries of a cycle;
* ``injects[t]`` -- packets that entered a source queue at cycle ``t``;
* ``drops`` -- packets discarded as unroutable;
* ``arb_passes`` / ``arb_requests`` / ``arb_grants`` -- arbitration
  passes that saw a request, with their request and grant totals;
* histogram bins indexed by value: ``inject_depth`` (source-queue depth
  after the append), ``vc_depth`` (downstream VC queue depth after a
  hop), ``credits`` (credits left on the granted VC), ``latency``
  (generation-to-tail cycles of a delivery) and ``hops`` (link hops of
  a delivered packet).

The reference engine bumps the record through the methods below; the
fast and relaxed engines inline the same increments.  ``grants`` and
``cycle_grants`` start as ``None``: the exact engines allocate them as
plain lists through :meth:`grant_lists`, while the relaxed engine
stores numpy arrays it fills with one pass per round (``cycle_grants``
then has shape ``(horizon + 1, n_classes)``).
``tests/test_metrics_export_pins.py`` holds all three to the exports of
the per-event observer this record replaced.

Every bin list except ``inject_depth`` is sized by a bound the engines
guarantee: a VC queue holds at most ``buffer_packets`` packets, a hop
takes at least one cycle (``link_latency >= 1``), and a delivery
completes at most ``link_latency + packet_phits - 1`` cycles after the
horizon.  Source queues are unbounded, so ``inject_depth`` grows
through :meth:`grow`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RunCounters"]


class RunCounters:
    """Per-run tallies of one engine; see the module docstring."""

    __slots__ = (
        "horizon",
        "stage_pairs",
        "ch_class",
        "n_classes",
        "eject_class",
        "grants",
        "cycle_grants",
        "injects",
        "drops",
        "arb_passes",
        "arb_requests",
        "arb_grants",
        "inject_depth",
        "vc_depth",
        "credits",
        "latency",
        "hops",
    )

    def __init__(self, sim) -> None:
        params = sim.params
        horizon = params.horizon
        self.horizon = horizon
        n_ch = len(sim.ch_kind)
        n_link = sim.n_link_channels
        levels = np.asarray(sim.level_of, dtype=np.int64)
        n_levels = int(levels.max()) + 1
        pair = (
            levels[np.asarray(sim.ch_src[:n_link])] * n_levels
            + levels[np.asarray(sim.ch_dst[:n_link])]
        )
        codes, link_class = np.unique(pair, return_inverse=True)
        #: ``(lo, hi)`` levels of each link class.
        self.stage_pairs: list[tuple[int, int]] = [
            divmod(int(c), n_levels) for c in codes
        ]
        self.eject_class = len(codes)
        self.n_classes = len(codes) + 1
        ch_class = np.full(n_ch, self.eject_class, dtype=np.int64)
        ch_class[:n_link] = link_class
        self.ch_class: list[int] = ch_class.tolist()

        self.grants: list[int] | np.ndarray | None = None
        self.cycle_grants: list[int] | np.ndarray | None = None
        self.injects = [0] * (horizon + 1)
        self.drops = 0
        self.arb_passes = 0
        self.arb_requests = 0
        self.arb_grants = 0
        buffers = params.buffer_packets
        self.inject_depth = [0] * 2
        self.vc_depth = [0] * (buffers + 1)
        self.credits = [0] * buffers
        self.latency = [0] * (
            horizon + params.link_latency + params.packet_phits
        )
        self.hops = [0] * (horizon + 2)

    def grant_lists(self) -> tuple[list[int], list[int]]:
        """Allocate ``grants`` and ``cycle_grants`` as zeroed lists (for
        scalar increments) and return them."""
        self.grants = [0] * len(self.ch_class)
        self.cycle_grants = [0] * ((self.horizon + 1) * self.n_classes)
        return self.grants, self.cycle_grants

    @staticmethod
    def grow(bins: list[int], value: int) -> None:
        """Count ``value`` in ``bins``, extending them to reach it."""
        if value >= len(bins):
            bins.extend([0] * (value + 1 - len(bins)))
        bins[value] += 1

    # -- the increments, one method per engine event ---------------------
    def inject(self, time: int, depth: int) -> None:
        self.injects[time] += 1
        self.grow(self.inject_depth, depth)

    def arbitration(self, requests: int, grants: int) -> None:
        self.arb_passes += 1
        self.arb_requests += requests
        self.arb_grants += grants

    def grant(self, time: int, out: int) -> None:
        self.grants[out] += 1
        self.cycle_grants[time * self.n_classes + self.ch_class[out]] += 1

    def hop(self, credits_left: int, depth: int) -> None:
        self.credits[credits_left] += 1
        self.vc_depth[depth] += 1

    def eject(self, latency: int, hops: int) -> None:
        self.latency[latency] += 1
        self.hops[hops] += 1
