"""Replicated simulation runs (the paper averages >= 5 per point).

Each replication re-seeds the engine (and the traffic pattern's random
pairing/targets) deterministically from a base seed, so an aggregate is
itself reproducible.  The derivation is the repo-wide contract

* engine seed of replication ``i``:  ``base_seed + 1_000_003 * i``
* traffic seed of replication ``i``: engine seed ``+ 1``

and is preserved bit-for-bit whether the replications run serially,
across a process pool, or are replayed from the on-disk result cache
(see :mod:`repro.exec`): every replication is a self-contained task,
so worker scheduling order cannot leak into any result.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence

from ..topologies.base import FoldedClos
from ..topologies.packed import PackedFoldedClos
from .config import SimulationParams
from .stats import SimResult, pooled_latency_percentile

__all__ = [
    "AggregateResult",
    "aggregate_replications",
    "replication_seed",
    "replicated_point",
]

#: Stride between consecutive replication seeds (a prime far larger
#: than any replication count, so derived seeds never collide).
SEED_STRIDE = 1_000_003


def replication_seed(base_seed: int, i: int) -> int:
    """Engine seed of replication ``i`` (the determinism contract)."""
    return base_seed + SEED_STRIDE * i


@dataclass(frozen=True)
class AggregateResult:
    """Mean and spread of a replicated simulation point."""

    offered_load: float
    replications: int
    accepted_mean: float
    accepted_stdev: float
    latency_mean: float
    latency_stdev: float
    traffic: str
    topology: str
    results: tuple[SimResult, ...]
    #: Pooled latency percentiles over the *combined* measured sample
    #: of every replication.  ``latency_hist`` is a cache-stripped
    #: side channel, so results replayed from the cache pool to NaN;
    #: like their source the percentiles are excluded from equality
    #: (warm and cold aggregates of the same point compare equal).
    latency_p50: float = field(default=float("nan"), compare=False)
    latency_p99: float = field(default=float("nan"), compare=False)
    latency_p999: float = field(default=float("nan"), compare=False)

    def row(self) -> str:
        return (
            f"{self.topology:<28} {self.traffic:<15} "
            f"load={self.offered_load:5.2f} "
            f"accepted={self.accepted_mean:6.3f}+-{self.accepted_stdev:5.3f} "
            f"latency={self.latency_mean:8.1f}+-{self.latency_stdev:6.1f}"
        )


def aggregate_replications(
    results: Sequence[SimResult],
    offered_load: float,
    traffic_name: str,
    topology_name: str,
) -> AggregateResult:
    """Fold per-replication results into one :class:`AggregateResult`.

    Replications that delivered no measured packet report NaN latency
    and are excluded from the latency moments; when *no* replication
    has a valid latency both latency moments are NaN (a saturated or
    degenerate point must not masquerade as zero-variance), and a
    single valid latency yields stdev 0.0, mirroring
    ``accepted_stdev``'s single-sample guard.

    Latency percentiles are **pooled**, not averaged: the exact
    per-replication histograms are merged and the percentile taken
    over the combined sample via
    :func:`~repro.simulation.stats.pooled_latency_percentile`.  A mean
    of per-replication p99s is *not* the p99 of the pooled sample (the
    regression test in ``tests/test_workloads.py`` demonstrates the
    difference), so no such shortcut is taken here.
    """
    if not results:
        raise ValueError("need at least one replication result")
    hists = [r.latency_hist for r in results]
    accepted = [r.accepted_load for r in results]
    latencies = [r.avg_latency for r in results if not math.isnan(r.avg_latency)]
    if latencies:
        latency_mean = statistics.fmean(latencies)
        latency_stdev = (
            statistics.stdev(latencies) if len(latencies) > 1 else 0.0
        )
    else:
        latency_mean = float("nan")
        latency_stdev = float("nan")
    return AggregateResult(
        offered_load=offered_load,
        replications=len(results),
        accepted_mean=statistics.fmean(accepted),
        accepted_stdev=statistics.stdev(accepted) if len(accepted) > 1 else 0.0,
        latency_mean=latency_mean,
        latency_stdev=latency_stdev,
        traffic=traffic_name,
        topology=topology_name,
        results=tuple(results),
        latency_p50=pooled_latency_percentile(hists, 0.50),
        latency_p99=pooled_latency_percentile(hists, 0.99),
        latency_p999=pooled_latency_percentile(hists, 0.999),
    )


def replicated_point(
    topo: FoldedClos | PackedFoldedClos,
    traffic_name: str,
    load: float,
    params: SimulationParams | None = None,
    replications: int = 5,
    executor=None,
) -> AggregateResult:
    """Average ``replications`` independent runs of one load point.

    ``executor`` is a :class:`repro.exec.Executor`; when None the
    ambient executor is used (serial and cacheless unless the caller
    or CLI configured otherwise).
    """
    from .. import obs
    from ..exec import get_executor
    from ..exec.executor import SimTask

    if replications < 1:
        raise ValueError("need at least one replication")
    params = params or SimulationParams()
    collect = obs.metrics_enabled()
    tasks = []
    for i in range(replications):
        seed = replication_seed(params.seed, i)
        tasks.append(
            SimTask(
                topo=topo,
                traffic_name=traffic_name,
                load=load,
                params=params.scaled(seed=seed),
                traffic_seed=seed + 1,
                collect_metrics=collect,
            )
        )
    runner = executor if executor is not None else get_executor()
    results, _ = runner.run_sim_tasks(tasks)
    topology_name = getattr(topo, "name", "network")
    if collect:
        from ..exec import merged_metrics

        obs.record(
            f"point:{topology_name}:{traffic_name}",
            merged_metrics(results),
        )
    return aggregate_replications(
        results,
        offered_load=load,
        traffic_name=traffic_name,
        topology_name=topology_name,
    )
