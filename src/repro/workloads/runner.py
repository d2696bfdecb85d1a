"""One-call workload runs: simulator + tracker + FCT surface.

:func:`run_workload` wires a :class:`~repro.workloads.flows.FlowTraffic`
into any of the three engines, attaches a
:class:`~repro.workloads.tracker.FlowTracker`, and returns the usual
:class:`~repro.simulation.stats.SimResult` with ``flow_stats``
populated -- the same side-channel pattern ``metrics`` uses (excluded
from equality, stripped before caching).
"""

from __future__ import annotations

import dataclasses

from ..obs.hooks import MultiObserver, SimObserver
from ..obs.trace import TraceWriter
from ..simulation.config import SimulationParams
from ..simulation.engine import Simulator
from ..simulation.stats import SimResult
from .flows import FlowTraffic
from .tracker import FlowTracker

__all__ = ["nominal_load", "run_workload"]


def nominal_load(workload: FlowTraffic, params: SimulationParams) -> float:
    """Offered load to report for a scheduled workload.

    The schedule's calibrated target when the generator recorded one,
    otherwise the load its packet volume implies over the horizon --
    clamped into the simulator's ``(0, 1]`` validation range (an
    overdriven incast can imply > 1.0 offered; accepted load is
    measured, not assumed).
    """
    schedule = workload.flow_schedule
    load = schedule.offered_load
    if load is None:
        load = schedule.estimated_load(
            params.packet_phits, params.horizon
        )
    return min(1.0, max(1e-9, load))


def run_workload(
    topo,
    workload: FlowTraffic,
    params: SimulationParams | None = None,
    *,
    observer: SimObserver | None = None,
    trace_path=None,
    trace_writer: TraceWriter | None = None,
) -> SimResult:
    """Run one workload; returns a result with ``flow_stats`` set.

    ``trace_path`` (or an explicit ``trace_writer``, e.g. in-memory
    ``TraceWriter(None)``) streams ``flow_complete`` records through
    the :mod:`repro.obs` trace pipeline; ``observer`` composes any
    additional observer alongside the tracker.
    """
    params = params or SimulationParams()
    owns_writer = False
    writer = trace_writer
    if writer is None and trace_path is not None:
        writer = TraceWriter(trace_path)
        owns_writer = True
    tracker = FlowTracker(workload.flow_schedule, writer=writer)
    composed: SimObserver = tracker
    if observer is not None:
        composed = MultiObserver([observer, tracker])
    sim = Simulator(
        topo,
        workload,
        nominal_load(workload, params),
        params,
        observer=composed,
    )
    result = sim.run()
    if owns_writer:
        writer.close()
    return dataclasses.replace(
        result, flow_stats=tracker.summary(params.packet_phits)
    )
