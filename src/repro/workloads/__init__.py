"""Open-loop flow/RPC workloads with FCT reporting.

The packet simulator evaluates topologies under Bernoulli per-packet
patterns; this package layers datacenter-style **flow** workloads on
top of the same engines:

* :mod:`repro.workloads.flows` -- generators (Poisson arrivals with
  elephant/mice, fixed-RPC or shuffle sizes; leaf incast fan-in), the
  pre-serialized :class:`FlowSchedule`, and the :class:`FlowTraffic`
  adapter the engines duck-type on;
* :mod:`repro.workloads.tracker` -- the :class:`FlowTracker` observer
  emitting ``flow_complete`` records through :mod:`repro.obs`;
* :mod:`repro.workloads.fct` -- FCT/slowdown statistics;
* :mod:`repro.workloads.runner` -- :func:`run_workload`, returning a
  :class:`~repro.simulation.stats.SimResult` with ``flow_stats``.

Flow mode consumes no engine RNG for arrivals or destinations, so the
two exact engines remain bit-for-bit identical (including the
``flow_complete`` stream); the relaxed engine stays statistically
equivalent.  See ``docs/WORKLOADS.md``.
"""

from .fct import fct_percentile, fct_summary, ideal_fct
from .flows import (
    FixedRpcSizes,
    Flow,
    FlowSchedule,
    FlowTraffic,
    LognormalMixSizes,
    ShuffleSizes,
    WORKLOAD_NAMES,
    incast_flows,
    make_workload,
    poisson_flows,
    shuffle_flows,
    workload_from_spec,
    workload_spec,
)
from .runner import nominal_load, run_workload
from .tracker import FlowTracker

__all__ = [
    "Flow",
    "FlowSchedule",
    "FlowTraffic",
    "FlowTracker",
    "FixedRpcSizes",
    "LognormalMixSizes",
    "ShuffleSizes",
    "WORKLOAD_NAMES",
    "fct_percentile",
    "fct_summary",
    "ideal_fct",
    "incast_flows",
    "make_workload",
    "nominal_load",
    "poisson_flows",
    "run_workload",
    "shuffle_flows",
    "workload_from_spec",
    "workload_spec",
]
