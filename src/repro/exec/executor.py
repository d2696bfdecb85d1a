"""Parallel execution of independent simulation points.

The paper's simulated figures average >= 5 replications per load point
across three traffics and several networks -- an embarrassingly
parallel bag of tasks.  This module fans those tasks out over a
:class:`concurrent.futures.ProcessPoolExecutor` while preserving the
serial results **bit-for-bit**:

* every task is self-contained -- it carries the topology, the traffic
  *name* plus the integer seed to rebuild the pattern from, the load
  and the full :class:`SimulationParams` (whose ``seed`` field is
  already derived by the caller, e.g. ``base + 1_000_003 * i`` for
  replication ``i``).  No RNG state crosses task boundaries, so
  worker scheduling order cannot influence any result;
* results are returned in task order regardless of completion order.

An optional :class:`~repro.exec.cache.ResultCache` is consulted before
any work is scheduled, so warm re-runs of a sweep skip the simulator
entirely.  If a process pool cannot be created (restricted sandboxes,
missing semaphores), execution silently degrades to in-process serial
with identical results.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..simulation.config import SimulationParams
from ..simulation.engine import simulate
from ..simulation.stats import SimResult
from ..simulation.traffic import make_traffic
from ..topologies.base import FoldedClos, Link
from ..topologies.packed import PackedFoldedClos
from .cache import ResultCache, cache_key, topology_digest

__all__ = ["SimTask", "ExecReport", "Executor", "merged_metrics"]


def merged_metrics(results: Iterable[SimResult]) -> dict:
    """Aggregate the per-worker metrics of a batch's results.

    Results without metrics (bare tasks, cache hits) are skipped; see
    :func:`repro.obs.merge_metrics` for the merge semantics.
    """
    from ..obs import merge_metrics

    return merge_metrics(r.metrics for r in results if r.metrics)


@dataclass(frozen=True)
class SimTask:
    """One self-contained simulation point.

    ``params.seed`` drives the engine; ``traffic_seed`` rebuilds the
    traffic pattern inside the worker (stateful patterns must never be
    shared across points -- rebuilding from the integer seed is what
    makes execution order irrelevant).

    ``collect_metrics`` attaches a per-worker
    :class:`~repro.obs.hooks.MetricsObserver` and ships its export back
    inside ``SimResult.metrics``.  It deliberately does NOT enter the
    cache key -- observation cannot change the simulated numbers -- but
    collecting tasks skip the cache *read* so their metrics are always
    present (they still warm the cache for later bare runs).

    ``workload`` switches the task from a named per-packet pattern to
    an open-loop flow workload: a canonical
    :func:`repro.workloads.workload_spec` tuple rebuilt inside the
    worker with ``traffic_seed`` (the same rebuild-from-integers
    discipline as traffic patterns).  Workload tasks carry their FCT
    summary in ``SimResult.flow_stats`` -- a side channel the cache
    strips -- so, like metrics collectors, they skip the cache read
    but still warm it (the core result *is* keyed by the spec).
    """

    topo: FoldedClos | PackedFoldedClos
    traffic_name: str
    load: float
    params: SimulationParams
    traffic_seed: int
    removed_links: tuple[Link, ...] | None = None
    collect_metrics: bool = False
    workload: tuple | None = None


def _execute(task: SimTask) -> tuple[SimResult, float]:
    """Run one task; returns (result, wall seconds).  Top-level so it
    pickles into pool workers."""
    start = time.perf_counter()
    observer = None
    if task.collect_metrics:
        from ..obs import MetricsObserver

        observer = MetricsObserver()
    if task.workload is not None:
        from ..workloads import run_workload, workload_from_spec

        traffic = workload_from_spec(
            task.workload, task.topo.num_terminals, seed=task.traffic_seed
        )
        result = run_workload(
            task.topo, traffic, task.params, observer=observer
        )
    else:
        traffic = make_traffic(
            task.traffic_name, task.topo.num_terminals, rng=task.traffic_seed
        )
        result = simulate(
            task.topo, traffic, task.load, task.params, task.removed_links,
            observer=observer,
        )
    if observer is not None:
        result = dataclasses.replace(result, metrics=observer.export())
    return result, time.perf_counter() - start


def _apply(fn_args: tuple) -> object:
    """Generic pool trampoline for :meth:`Executor.map`."""
    fn, args = fn_args
    return fn(*args)


@dataclass
class ExecReport:
    """What one batch cost: size, cache traffic, time split."""

    points: int
    cache_hits: int
    computed: int
    wall_seconds: float
    sim_seconds: float
    workers: int

    def note(self) -> str:
        """One-line summary for ``Table.notes``."""
        return (
            f"exec: {self.points} points ({self.cache_hits} cached, "
            f"{self.computed} simulated) in {self.wall_seconds:.2f}s wall / "
            f"{self.sim_seconds:.2f}s sim, workers={self.workers}"
        )


class Executor:
    """Runs bags of independent tasks, serially or across processes.

    ``workers <= 1`` executes in-process (and is the reference
    behaviour the parallel path must reproduce exactly); ``workers > 1``
    uses a process pool.  ``cache`` short-circuits tasks whose key is
    already stored.
    """

    def __init__(
        self, workers: int = 1, cache: ResultCache | None = None
    ) -> None:
        self.workers = max(1, int(workers))
        self.cache = cache

    # ------------------------------------------------------------------
    # Simulation batches
    # ------------------------------------------------------------------
    def run_sim_tasks(
        self, tasks: Sequence[SimTask]
    ) -> tuple[list[SimResult], ExecReport]:
        """Execute ``tasks``; results come back in task order."""
        start = time.perf_counter()
        results: list[SimResult | None] = [None] * len(tasks)
        keys: list[str | None] = [None] * len(tasks)
        hits = 0
        if self.cache is not None:
            digests: dict[int, str] = {}
            for i, task in enumerate(tasks):
                # id() is only an intra-process memo key so each shared
                # topology object is serialized once per batch; the
                # content digest, never the id, enters the cache key.
                digest = digests.get(id(task.topo))
                if digest is None:
                    digest = topology_digest(task.topo)
                    digests[id(task.topo)] = digest
                keys[i] = cache_key(
                    digest,
                    task.traffic_name,
                    task.load,
                    task.params,
                    task.traffic_seed,
                    task.removed_links,
                    workload=task.workload,
                )
                if task.collect_metrics or task.workload is not None:
                    # Cached entries carry no metrics (and no
                    # flow_stats); recompute so the side channel is
                    # present (the put below still warms the cache for
                    # later bare runs).
                    continue
                cached = self.cache.get(keys[i])
                if cached is not None:
                    results[i] = cached
                    hits += 1
        pending = [i for i, r in enumerate(results) if r is None]
        sim_seconds = 0.0
        for index, (result, elapsed) in zip(
            pending, self._map(_execute, [tasks[i] for i in pending])
        ):
            results[index] = result
            sim_seconds += elapsed
            if self.cache is not None and keys[index] is not None:
                self.cache.put(keys[index], result)
        report = ExecReport(
            points=len(tasks),
            cache_hits=hits,
            computed=len(pending),
            wall_seconds=time.perf_counter() - start,
            sim_seconds=sim_seconds,
            workers=self.workers,
        )
        return [r for r in results if r is not None], report

    # ------------------------------------------------------------------
    # Generic ordered map (fault trials and other non-sim bags)
    # ------------------------------------------------------------------
    def map(self, fn: Callable, argtuples: Iterable[tuple]) -> list:
        """Ordered ``[fn(*args) for args in argtuples]``, possibly
        fanned out over the pool.  ``fn`` must be a top-level callable
        (picklable) when ``workers > 1``."""
        return self._map(_apply, [(fn, tuple(args)) for args in argtuples])

    def _map(self, fn: Callable, items: Sequence) -> list:
        if self.workers <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        try:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                return list(pool.map(fn, items))
        except (OSError, PermissionError, ImportError, BrokenProcessPool):
            # Restricted environments (no semaphores, no fork): fall
            # back to serial -- identical results, just slower.
            return [fn(item) for item in items]
