"""Flow tracker: maps delivered packets back to flows.

A :class:`FlowTracker` is a :class:`~repro.obs.hooks.SimObserver` --
it rides the engine's existing hook points, writes only its own state
(the observer discipline: no engine mutation, no RNG, enforced for
every engine by ``tests/test_obs_engine.py::TestDeterminism``), and so
cannot perturb the run.  Enabled-vs-disabled runs stay bit-for-bit
identical on the exact engines, which
``tests/test_workload_differential.py`` pins against a golden trace.

``flow_complete`` records flow through the :mod:`repro.obs` trace
pipeline: pass a :class:`~repro.obs.trace.TraceWriter` (file-backed or
in-memory) and each completion emits one sorted-key JSONL record::

    {"dst": 3, "end": 78, "ev": "flow_complete", "fct": 78,
     "flow": 2, "size": 4, "src": 1, "start": 0}

The completion order is the engines' ejection order, so the record
stream itself is part of the exact engines' bit-for-bit contract.
"""

from __future__ import annotations

from array import array

from ..obs.hooks import SimObserver
from ..obs.trace import TraceWriter
from .fct import fct_summary
from .flows import FlowSchedule

__all__ = ["FlowTracker"]


class FlowTracker(SimObserver):
    """Per-flow start/completion bookkeeping over ``on_eject``."""

    def __init__(
        self, schedule: FlowSchedule, writer: TraceWriter | None = None
    ) -> None:
        self.schedule = schedule
        self.writer = writer
        self._remaining = array("q", (f.size for f in schedule.flows))
        self._last_delivery = array("q", bytes(8 * len(schedule.flows)))
        self._dropped: set[int] = set()
        #: ``(flow_index, completion_cycle)`` in completion order.
        self.completions: list[tuple[int, int]] = []

    def on_run_start(self, sim) -> None:
        self._remaining = array(
            "q", (f.size for f in self.schedule.flows)
        )
        self._last_delivery = array(
            "q", bytes(8 * len(self.schedule.flows))
        )
        self._dropped = set()
        self.completions = []

    def on_drop(self, time: int, terminal: int, packet) -> None:
        serial = packet.serial
        if 0 <= serial < len(self.schedule.flow_of_serial):
            self._dropped.add(self.schedule.flow_of_serial[serial])

    def on_eject(self, time: int, packet, latency: int, phits: int) -> None:
        serial = packet.serial
        if not 0 <= serial < len(self.schedule.flow_of_serial):
            return
        index = self.schedule.flow_of_serial[serial]
        delivered = packet.created + latency
        if delivered > self._last_delivery[index]:
            self._last_delivery[index] = delivered
        remaining = self._remaining[index] - 1
        self._remaining[index] = remaining
        if remaining == 0 and index not in self._dropped:
            end = self._last_delivery[index]
            self.completions.append((index, end))
            if self.writer is not None:
                flow = self.schedule.flows[index]
                self.writer.emit(
                    {
                        "ev": "flow_complete",
                        "flow": flow.flow_id,
                        "src": flow.src,
                        "dst": flow.dst,
                        "size": flow.size,
                        "start": flow.start,
                        "end": end,
                        "fct": end - flow.start,
                    }
                )

    # ------------------------------------------------------------------
    # Post-run reporting
    # ------------------------------------------------------------------
    def fct_records(self) -> list[tuple[int, int]]:
        """``(fct, size)`` per completed flow, in completion order."""
        flows = self.schedule.flows
        return [
            (end - flows[index].start, flows[index].size)
            for index, end in self.completions
        ]

    def summary(self, packet_phits: int) -> dict:
        """The ``SimResult.flow_stats`` payload for this run."""
        return fct_summary(
            self.fct_records(),
            packet_phits,
            flows_total=len(self.schedule.flows),
            flows_dropped=len(self._dropped),
        )
