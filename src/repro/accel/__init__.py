"""Vectorized graph-analysis kernels (numpy).

This package accelerates the *analysis* layer -- distance metrics,
connectivity, ancestor/coverage sweeps and up/down routing tables --
with the same philosophy as the simulator's precomputed-route fast
path (:mod:`repro.simulation.fastpath`): every accelerated entry point
keeps its pure-Python implementation as the reference oracle, defaults
to the numpy kernel (``accel=True``), silently falls back where the
kernels do not apply (empty graphs, numpy unavailable), and is proven
**bit-for-bit equal** to the reference by the differential harness in
``tests/test_accel_differential.py`` plus the Hypothesis suites in
``tests/test_accel_properties.py``.

Three kernel families:

* :class:`CsrAdjacency` -- int32 ``offsets``/``indices`` built once
  from adjacency lists; the per-vertex neighbor reduction then runs as
  a single ``np.bitwise_or.reduceat`` (:func:`gather_or`).
* Batched level-synchronous BFS (:func:`bfs_distances_batch`) -- up to
  64 sources advance per frontier word, backing
  :mod:`repro.graphs.metrics` and :mod:`repro.graphs.connectivity`.
* Packed ``uint64[switches, ceil(N1/64)]`` bitset sweeps
  (:class:`StageSweeper`) -- descendant/coverage sweeps for
  :mod:`repro.core.ancestors`, ``U_j`` reach tables for
  :class:`repro.routing.updown.UpDownRouter`, and masked (pruned)
  sweeps and max-min failure-position sweeps for the Fig. 11
  threshold search.

See ``docs/PERFORMANCE.md`` ("Analysis kernels") for design notes and
measured speedups (``scripts/bench_regression.py`` ->
``BENCH_graphs.json``).
"""

from __future__ import annotations

__all__ = [
    "AVAILABLE",
    "is_available",
    "CsrAdjacency",
    "gather_or",
    "gather_min",
    "bfs_distances",
    "bfs_distances_batch",
    "iter_distance_batches",
    "DEFAULT_BATCH",
    "StageSweeper",
    "IncrementalSweeper",
    "random_bipartite_csr",
    "random_regular_csr",
    "csr_rows_sorted",
    "words_for",
    "pack_singletons",
    "full_row",
    "masks_to_ints",
    "ints_to_masks",
    "popcount",
    "build_padded_candidates",
    "run_relaxed",
    "shuffled_range",
    "stable_order",
    "build_relaxed_candidates",
    "KeyedStream",
    "counter_key",
    "draw64",
    "draw64_array",
    "key_seed",
    "mix64",
    "mix64_array",
    "randbelow",
    "uniform01",
    "uniform01_array",
]

try:  # pragma: no cover - numpy is a hard dependency, but stay import-safe
    import numpy  # noqa: F401

    AVAILABLE = True
except ImportError:  # pragma: no cover
    AVAILABLE = False

if AVAILABLE:
    from .bfs import (
        DEFAULT_BATCH,
        bfs_distances,
        bfs_distances_batch,
        iter_distance_batches,
    )
    from .bitset import (
        full_row,
        ints_to_masks,
        masks_to_ints,
        pack_singletons,
        popcount,
        words_for,
    )
    from .csr import CsrAdjacency, gather_min, gather_or
    from .order import shuffled_range, stable_order
    from .relaxed import (
        build_padded_candidates,
        build_relaxed_candidates,
        run_relaxed,
    )
    from .rng import (
        KeyedStream,
        counter_key,
        draw64,
        draw64_array,
        key_seed,
        mix64,
        mix64_array,
        randbelow,
        uniform01,
        uniform01_array,
    )
    from .generate import (
        csr_rows_sorted,
        random_bipartite_csr,
        random_regular_csr,
    )
    from .sweeps import IncrementalSweeper, StageSweeper


def is_available() -> bool:
    """Whether the numpy kernel layer can be used in this process."""
    return AVAILABLE
