"""Vectorized Steger--Wormald pairing-model generators (numpy).

Array-native twins of the paper's Appendix Listings 1 and 2
(:mod:`repro.topologies.random_graphs`, kept as the oracle).  The
reference generators draw one random point-pair per iteration and
reject unsuitable pairs (self-loops, parallels) in a Python loop --
fine at thousands of switches, minutes at the 10^5--10^6-terminal
sizes the extreme-scale path targets.  These kernels run the same
pairing model in batched rounds:

1. shuffle the unmatched *points* of both sides and pair them
   elementwise -- one round proposes a full random matching at once;
2. reject unsuitable pairs with array ops -- self-loops by an
   elementwise compare, parallels by first-occurrence deduplication of
   the flattened ``u * n + v`` edge keys within the batch plus a
   binary-search membership test against the (sorted) already-accepted
   keys;
3. return the rejected points to the pool and repeat; a round that
   accepts nothing triggers the same suitability check as the
   reference (restart when wedged).

The output is **not** seed-compatible with the reference -- the
reference commits pairs one at a time from ``random.Random`` while
these kernels commit a maximal batch per round from
``numpy.random.Generator`` -- so equivalence is established
*differentially*: both engines sample the same simple (bi)regular
pairing model, and ``tests/test_packed_topology.py`` pins per-edge
inclusion frequencies of both engines to the closed-form expectation
over hundreds of seeds, calibrated against a reference-vs-reference
null.  Structural invariants (exact degrees, no self-loops, no
parallels, sorted CSR rows) are asserted exactly, per seed.

Edge keys are built in ``int64`` throughout: ``u * n2 + v`` crosses
``2**31`` long before the million-terminal scale (see lint RPR102).
The in-batch deduplication sorts each key with its batch position
packed underneath (:func:`repro.accel.order.stable_order`), so keys
plus positions must fit 63 bits: at degree 32 that allows up to 2**19
switches per side, and the million-terminal RFC needs 51 bits.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from ..topologies.random_graphs import GenerationError
from .order import stable_order

__all__ = [
    "random_bipartite_csr",
    "random_regular_csr",
    "csr_rows_sorted",
]

#: Zero-progress rounds tolerated before a restart is declared.
#: Stalls only ever happen near the tail, where a round shuffles a
#: handful of leftover points -- cheap -- while a restart redoes the
#: whole stage, so the escape hatch is deliberately patient (the
#: suitability probe, not this counter, catches genuine wedges).
_MAX_STALLED_ROUNDS = 64

#: Above this remaining-pair cross-product size the exhaustive
#: suitable-pair check is skipped (statistically unreachable: stalls
#: only ever happen when a handful of points remain).
_SUITABILITY_LIMIT = 1 << 22


def _as_generator(rng: np.random.Generator | int) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _check_key_bits(max_key: int, pairs: int) -> None:
    """Each round dedupes its edge keys by one :func:`stable_order`,
    which packs a pair's position under its key into 63 bits."""
    if max_key.bit_length() + pairs.bit_length() > 63:
        raise GenerationError(
            f"edge keys up to {max_key} over {pairs} pairs do not pack "
            "into 63 bits; the batched generators stop short of this size"
        )


def csr_rows_sorted(
    offsets: NDArray[np.int64], indices: NDArray[np.int32]
) -> bool:
    """Whether every CSR row is strictly increasing (sorted, no dups)."""
    if indices.size == 0:
        return True
    ascending = np.ones(indices.size, dtype=bool)
    ascending[1:] = indices[1:] > indices[:-1]
    # Row starts may legitimately descend; only intra-row order counts.
    ascending[offsets[1:-1]] = True
    return bool(np.all(ascending))


def _member_sorted(
    haystack: NDArray[np.int64], values: NDArray[np.int64]
) -> NDArray[np.bool_]:
    """Membership of ``values`` in sorted ``haystack``.

    Binary search beats ``np.isin`` here: the accepted-key array is
    maintained sorted across rounds, so each probe is O(m log n) with
    no hash table built per call.
    """
    if haystack.size == 0:
        return np.zeros(values.size, dtype=bool)
    pos = np.searchsorted(haystack, values)
    # Out-of-range probes compare against slot 0; they exceed the max
    # key, so the equality below is always False for them.
    pos[pos == haystack.size] = 0
    return haystack[pos] == values


def _merge_sorted(
    haystack: NDArray[np.int64], fresh: NDArray[np.int64]
) -> NDArray[np.int64]:
    """Sorted union of a sorted array and sorted, disjoint new keys."""
    if haystack.size == 0:
        return fresh
    return np.insert(haystack, np.searchsorted(haystack, fresh), fresh)


def _suitable_bipartite_pair_exists(
    left: NDArray[np.int64],
    right: NDArray[np.int64],
    keys: NDArray[np.int64],
    n2: int,
) -> bool:
    """Vectorized twin of the oracle's ``_has_suitable_bipartite_pair``.

    ``left``/``right`` are the vertices that still own unmatched
    points; a suitable pair is any (u, v) not already an edge.
    ``keys`` must be sorted.
    """
    lu = np.unique(left)
    ru = np.unique(right)
    if lu.size * ru.size > _SUITABILITY_LIMIT:
        # Statistically unreachable: treated as feasible so the stall
        # counter (not this probe) bounds the attempt.
        return True
    cross = (lu[:, None] * np.int64(n2) + ru[None, :]).ravel()
    return bool(np.any(~_member_sorted(keys, cross)))


def random_bipartite_csr(
    n1: int,
    d1: int,
    n2: int,
    d2: int,
    rng: np.random.Generator | int,
    max_restarts: int = 1000,
) -> tuple[NDArray[np.int64], NDArray[np.int32]]:
    """Batched Listing 2: a random simple biregular bipartite graph.

    Returns the left-side adjacency as a sorted-row CSR pair
    ``(offsets, indices)`` -- ``indices[offsets[u]:offsets[u + 1]]``
    are the right-side neighbors of left vertex ``u`` in increasing
    order.  Parameter validation and the restart budget mirror
    :func:`repro.topologies.random_graphs.random_bipartite_graph`
    exactly; the RNG is a :class:`numpy.random.Generator` (or a seed
    for one) instead of :class:`random.Random`.
    """
    if n1 <= 0 or n2 <= 0:
        raise GenerationError(f"need vertices on both sides, got {n1}, {n2}")
    if d1 < 0 or d2 < 0:
        raise GenerationError(f"negative degree ({d1}, {d2})")
    if n1 * d1 != n2 * d2:
        raise GenerationError(
            f"degree sums differ: {n1}*{d1} != {n2}*{d2}; "
            "no biregular bipartite graph exists"
        )
    if d1 > n2 or d2 > n1:
        raise GenerationError(
            f"degrees ({d1}, {d2}) exceed opposite side sizes ({n2}, {n1})"
        )
    if d1 == 0:
        return (
            np.zeros(n1 + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
        )
    _check_key_bits(n1 * n2 - 1, n1 * d1)
    gen = _as_generator(rng)
    for _ in range(max_restarts):
        keys = _try_bipartite_batched(n1, d1, n2, d2, gen)
        if keys is not None:
            return _bipartite_keys_to_csr(keys, n1, d1, n2)
    raise GenerationError(
        f"no ({d1},{d2})-biregular bipartite graph on ({n1},{n2}) vertices "
        f"after {max_restarts} restarts"
    )


def _try_bipartite_batched(
    n1: int, d1: int, n2: int, d2: int, gen: np.random.Generator
) -> NDArray[np.int64] | None:
    """One restart attempt; accepted ``u * n2 + v`` keys or ``None``."""
    pts1 = np.repeat(np.arange(n1, dtype=np.int64), d1)
    pts2 = np.repeat(np.arange(n2, dtype=np.int64), d2)
    accepted = np.zeros(0, dtype=np.int64)  # kept sorted across rounds
    stalls = 0
    while pts1.size:
        gen.shuffle(pts1)
        gen.shuffle(pts2)
        key = pts1 * np.int64(n2) + pts2
        # First in-batch occurrence of every distinct key: later
        # duplicates would be parallel edges.  ``cand`` walks ``order``
        # so ``key[cand]`` comes out sorted -- the merge below relies
        # on it.
        order, sorted_keys = stable_order(key)
        is_first = np.ones(sorted_keys.size, dtype=bool)
        is_first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        cand = order[is_first]
        # ... and none may duplicate an already-accepted edge.
        cand = cand[~_member_sorted(accepted, key[cand])]
        if cand.size == 0:
            if not _suitable_bipartite_pair_exists(
                pts1, pts2, accepted, n2
            ):
                return None
            stalls += 1
            if stalls >= _MAX_STALLED_ROUNDS:
                return None
            continue
        stalls = 0
        accepted = _merge_sorted(accepted, key[cand])
        keep = np.ones(pts1.size, dtype=bool)
        keep[cand] = False
        pts1 = pts1[keep]
        pts2 = pts2[keep]
    return accepted


def _bipartite_keys_to_csr(
    keys: NDArray[np.int64], n1: int, d1: int, n2: int
) -> tuple[NDArray[np.int64], NDArray[np.int32]]:
    keys = np.sort(keys)
    offsets = np.arange(0, n1 * d1 + 1, d1, dtype=np.int64)
    indices = (keys % np.int64(n2)).astype(np.int32)
    return offsets, indices


def random_regular_csr(
    n: int,
    degree: int,
    rng: np.random.Generator | int,
    max_restarts: int = 1000,
) -> tuple[NDArray[np.int64], NDArray[np.int32]]:
    """Batched Listing 1: a random ``degree``-regular simple graph.

    Returns symmetric adjacency as a sorted-row CSR pair (both
    directions of every undirected edge listed).  Validation mirrors
    :func:`repro.topologies.random_graphs.random_regular_graph`.
    """
    if n <= 0:
        raise GenerationError(f"need at least one vertex, got n={n}")
    if degree < 0:
        raise GenerationError(f"negative degree {degree}")
    if degree == 0:
        return np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int32)
    if degree >= n:
        raise GenerationError(
            f"degree {degree} impossible on {n} vertices (needs degree < n)"
        )
    if (n * degree) % 2 != 0:
        raise GenerationError(
            f"n * degree = {n * degree} is odd; no regular graph exists"
        )
    _check_key_bits(n * n - 1, n * degree // 2)
    gen = _as_generator(rng)
    for _ in range(max_restarts):
        keys = _try_regular_batched(n, degree, gen)
        if keys is not None:
            return _regular_keys_to_csr(keys, n, degree)
    raise GenerationError(
        f"no {degree}-regular graph on {n} vertices after "
        f"{max_restarts} restarts"
    )


def _try_regular_batched(
    n: int, degree: int, gen: np.random.Generator
) -> NDArray[np.int64] | None:
    """One restart attempt; accepted ``lo * n + hi`` keys or ``None``."""
    pts = np.repeat(np.arange(n, dtype=np.int64), degree)
    accepted = np.zeros(0, dtype=np.int64)  # kept sorted across rounds
    stalls = 0
    while pts.size:
        gen.shuffle(pts)
        u = pts[0::2]
        v = pts[1::2]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        key = lo * np.int64(n) + hi
        simple = lo != hi
        order, sorted_keys = stable_order(key)
        is_first = np.ones(sorted_keys.size, dtype=bool)
        is_first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        first = np.zeros(key.size, dtype=bool)
        first[order[is_first]] = True
        good = np.nonzero(simple & first)[0]
        good = good[~_member_sorted(accepted, key[good])]
        if good.size == 0:
            if not _suitable_regular_pair_exists(pts, accepted, n):
                return None
            stalls += 1
            if stalls >= _MAX_STALLED_ROUNDS:
                return None
            continue
        stalls = 0
        # ``good`` is in positional (not key) order here, so sort the
        # fresh keys before the sorted merge.
        accepted = _merge_sorted(accepted, np.sort(key[good]))
        keep = np.ones(pts.size, dtype=bool)
        keep[2 * good] = False
        keep[2 * good + 1] = False
        # An odd leftover point (pts.size odd is impossible: n * degree
        # is even and pairs consume two points) never occurs.
        pts = pts[keep]
    return accepted


def _suitable_regular_pair_exists(
    pts: NDArray[np.int64], keys: NDArray[np.int64], n: int
) -> bool:
    """Vectorized twin of the oracle's ``_has_suitable_pair``.

    ``keys`` must be sorted.
    """
    avail = np.unique(pts)
    if avail.size * avail.size > _SUITABILITY_LIMIT:
        return True
    a = np.minimum(avail[:, None], avail[None, :])
    b = np.maximum(avail[:, None], avail[None, :])
    cross = (a * np.int64(n) + b)[a != b]
    return bool(np.any(~_member_sorted(keys, cross)))


def _regular_keys_to_csr(
    keys: NDArray[np.int64], n: int, degree: int
) -> tuple[NDArray[np.int64], NDArray[np.int32]]:
    lo = keys // np.int64(n)
    hi = keys % np.int64(n)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    offsets = np.arange(0, n * degree + 1, degree, dtype=np.int64)
    indices = dst[order].astype(np.int32)
    return offsets, indices
