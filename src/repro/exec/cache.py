"""Content-addressed on-disk cache for simulation results.

A cache entry is one :class:`~repro.simulation.stats.SimResult`, keyed
by everything that can influence it:

* the **topology wiring** (SHA-256 of its canonical JSON serialization
  from :mod:`repro.topologies.io` -- two RFC samples with different
  wirings never share an entry, while the same instance loaded from
  disk hits);
* the **traffic pattern name** and the integer seed the pattern is
  (re)built from;
* the **offered load**;
* every field of :class:`~repro.simulation.config.SimulationParams`,
  the engine seed and ``rng_mode`` included: relaxed-mode results are
  only statistically equivalent to exact ones, so a relaxed run must
  never be served from (or overwrite) an exact entry -- lint pass
  RPR105 guards this;
* the sorted set of **removed links** (fault experiments);
* a **code version** tag (:data:`CODE_VERSION`) bumped whenever the
  simulator's semantics change, so stale results from an older engine
  can never be replayed.

Layout on disk: ``<cache_dir>/<digest[:2]>/<digest>.json`` -- a
two-level fan-out keeps directories small for large sweeps.  Entries
are written atomically (temp file + :func:`os.replace`), so concurrent
workers racing on the same key simply last-write-wins with identical
content.  Any unreadable, truncated or format-mismatched entry is
treated as a miss and recomputed; corruption can cost time, never
correctness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from ..simulation.config import SimulationParams
from ..simulation.stats import SimResult
from ..topologies.base import DirectNetwork, FoldedClos, Link
from ..topologies.io import to_json

__all__ = [
    "CODE_VERSION",
    "CACHE_FORMAT",
    "ResultCache",
    "cache_key",
    "topology_digest",
]

#: Bump when the simulator's observable behaviour changes (routing,
#: arbitration, statistics); invalidates every existing cache entry.
CODE_VERSION = "sim-1"

#: On-disk entry schema version; bump on layout changes.
CACHE_FORMAT = 1


def topology_digest(topo: FoldedClos | DirectNetwork) -> str:
    """SHA-256 over the topology's canonical JSON wiring."""
    return hashlib.sha256(to_json(topo).encode("utf-8")).hexdigest()


def cache_key(
    topo_digest: str,
    traffic_name: str,
    load: float,
    params: SimulationParams,
    traffic_seed: int,
    removed_links: tuple[Link, ...] | None = None,
    workload: tuple | None = None,
) -> str:
    """Hex digest addressing one simulation point.

    The payload is canonical JSON (sorted keys, fixed separators) so
    the digest is stable across processes and Python versions.

    ``workload`` is the optional canonical
    :func:`repro.workloads.workload_spec` tuple a flow-workload task
    carries; it only enters the payload when present, so every legacy
    (pattern-traffic) key stays byte-identical to pre-workload
    releases and existing caches keep hitting.
    """
    payload = {
        "code": CODE_VERSION,
        "format": CACHE_FORMAT,
        "topology": topo_digest,
        "traffic": traffic_name,
        "traffic_seed": traffic_seed,
        "load": load,
        "params": dataclasses.asdict(params),
        "removed": sorted([link.lo, link.hi] for link in removed_links or ()),
    }
    if workload is not None:
        name, options = workload
        payload["workload"] = [name, [list(kv) for kv in options]]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed store of :class:`SimResult` entries.

    All read failures degrade to a miss; all write failures are
    swallowed (a cache must never break the computation it fronts).
    Hit/miss counters accumulate over the cache's lifetime for the
    executor's timing notes.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> SimResult | None:
        """The cached result for ``key``, or None on any failure."""
        try:
            payload = json.loads(self._path(key).read_text())
            if payload.get("format") != CACHE_FORMAT:
                raise ValueError("cache format mismatch")
            if payload.get("code") != CODE_VERSION:
                raise ValueError("code version mismatch")
            result = SimResult(**payload["result"])
        except (OSError, ValueError, TypeError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        """Atomically persist ``result`` under ``key`` (best-effort)."""
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            # Observability metrics are a side channel, not part of the
            # simulated result: strip them so entries keep the pre-obs
            # byte layout and instrumented runs share entries with bare
            # ones.
            payload = {
                "format": CACHE_FORMAT,
                "code": CODE_VERSION,
                "result": result.core_dict(),
            }
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, path)
        except OSError:  # pragma: no cover - disk-full etc.
            pass

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))
