"""Simulation parameters (paper Table 2).

The defaults reproduce the INSEE configuration the paper simulates
with: virtual cut-through flow control, 4 virtual channels, 4-packet
buffers, 16-phit packets, 1-cycle links, random output arbitration and
random up/down request mode, 10,000 measured cycles after a warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimulationParams"]


@dataclass(frozen=True)
class SimulationParams:
    """Knobs of the cycle-driven simulator.

    Attributes
    ----------
    measure_cycles:
        Cycles of the statistics window (paper: 10,000).
    warmup_cycles:
        Cycles simulated before statistics start.
    virtual_channels:
        Input virtual channels per physical link (paper: 4) -- used
        against head-of-line blocking; up/down routing needs none for
        deadlock freedom.
    buffer_packets:
        Capacity of each virtual-channel buffer, in packets (paper: 4).
    packet_phits:
        Packet length in phits (paper: 16); links move 1 phit/cycle so
        one packet occupies a link for ``packet_phits`` cycles.
    link_latency:
        Head phit flight time in cycles (paper: 1).
    arbitration_iterations:
        Request/grant rounds per arbitration pass (paper: 1).  Extra
        iterations let inputs that lost (or requested a busy port)
        retry against the outputs still free in the same cycle,
        recovering some of the matching loss of single-iteration
        separable allocators.
    minimal_routing:
        When True (paper behaviour) up-hops are restricted to ports on
        a shortest up/down route; False permits any up-port that keeps
        the destination reachable (ablation knob).
    arbiter:
        How an output port picks among its requesters: ``"random"``
        (paper Table 2) or ``"rotating"`` -- an iSLIP-style
        round-robin pointer per output, which trades the random
        arbiter's statistical fairness for deterministic fairness.
    up_selection:
        How a head packet picks one output among its viable ECMP
        candidates when requesting arbitration: ``"random"`` (paper
        Table 2's up/down random request mode) or ``"adaptive"``
        (prefer the candidate with the most free downstream buffer
        slots -- a congestion-aware ablation).
    valiant:
        Route every packet through a uniformly random intermediate
        leaf before its destination (Valiant randomization, the
        mechanism dragonflies need for adversarial traffic -- paper
        Section 3 argues RFCs beat its 50% ceiling *without* it; this
        knob exists to demonstrate that).  The two phases use disjoint
        halves of the virtual channels for deadlock freedom, so it
        needs ``virtual_channels >= 2``.  Folded Clos only.
    rng_mode:
        The engine selector.  ``"exact"`` (default) runs the exact
        engine (:func:`repro.simulation.fastpath.run_fast`), which
        consumes one shared sequential ``random.Random`` stream and is
        bit-for-bit reproducible -- publishable numbers use this.
        ``"relaxed"`` switches to the counter-based per-packet RNG
        (:mod:`repro.accel.rng`) and the fully batched relaxed engine
        (:mod:`repro.accel.relaxed`): results are deterministic for a
        given seed but **not** bit-for-bit comparable to exact-mode
        runs -- only statistically equivalent, which
        ``tests/test_relaxed_rng_equivalence.py`` enforces.  Like every
        field, it is part of the result-cache key
        (:func:`repro.exec.cache.cache_key`), so relaxed results never
        alias exact ones; the RPR105 lint pass guards that.  Relaxed
        mode supports only the paper's Table 2 arbitration defaults
        (``arbiter="random"``, ``up_selection="random"``).
    seed:
        Master RNG seed (traffic, ECMP choices, arbitration).
    """

    measure_cycles: int = 10_000
    warmup_cycles: int = 2_000
    virtual_channels: int = 4
    buffer_packets: int = 4
    packet_phits: int = 16
    link_latency: int = 1
    minimal_routing: bool = True
    arbitration_iterations: int = 1
    arbiter: str = "random"
    up_selection: str = "random"
    valiant: bool = False
    rng_mode: str = "exact"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.measure_cycles < 1:
            raise ValueError("measure_cycles must be positive")
        if self.warmup_cycles < 0:
            raise ValueError("warmup_cycles cannot be negative")
        if self.virtual_channels < 1:
            raise ValueError("need at least one virtual channel")
        if self.buffer_packets < 1:
            raise ValueError("buffers must hold at least one packet")
        if self.packet_phits < 1:
            raise ValueError("packets must have at least one phit")
        if self.link_latency < 1:
            raise ValueError("link latency must be at least one cycle")
        if self.arbitration_iterations < 1:
            raise ValueError("need at least one arbitration iteration")
        if self.up_selection not in ("random", "adaptive"):
            raise ValueError(
                f"up_selection must be 'random' or 'adaptive', "
                f"got {self.up_selection!r}"
            )
        if self.arbiter not in ("random", "rotating"):
            raise ValueError(
                f"arbiter must be 'random' or 'rotating', "
                f"got {self.arbiter!r}"
            )
        if self.valiant and self.virtual_channels < 2:
            raise ValueError(
                "Valiant routing needs at least 2 virtual channels "
                "(one class per phase)"
            )
        if self.rng_mode not in ("exact", "relaxed"):
            raise ValueError(
                f"rng_mode must be 'exact' or 'relaxed', "
                f"got {self.rng_mode!r}"
            )
        if self.rng_mode == "relaxed" and (
            self.arbiter != "random" or self.up_selection != "random"
        ):
            raise ValueError(
                "rng_mode='relaxed' supports only the paper's random "
                "arbitration and random up-selection "
                f"(got arbiter={self.arbiter!r}, "
                f"up_selection={self.up_selection!r})"
            )

    @property
    def horizon(self) -> int:
        """Last simulated cycle."""
        return self.warmup_cycles + self.measure_cycles

    def scaled(self, **overrides) -> "SimulationParams":
        """Copy with selected fields replaced (convenience)."""
        from dataclasses import replace

        return replace(self, **overrides)
