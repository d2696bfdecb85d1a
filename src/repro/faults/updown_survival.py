"""Up/down-routing survival under link failures (paper Figure 11).

A folded Clos keeps its deadlock-free up/down routing only while every
leaf pair retains a common ancestor.  This module measures, for random
failure orders, the largest fraction of links that can fail before
that property breaks.  Per the paper:

* RFCs trade radix slack for tolerance: at the Theorem 4.2 threshold
  tolerance is small, while radix above the threshold (positive ``x``)
  buys a sizeable failure budget;
* CFTs have a fixed (lower) tolerance and OFTs lose up/down routing at
  the very first failures (unique paths).

The property is monotone in the failure prefix.  Each leaf pair
survives exactly up to a failure count ``d(a, b)`` that one max-min
sweep per leaf computes for a whole row of pairs, so a threshold is the
smallest ``d``: :func:`order_threshold` finds it by following
witnesses -- a row minimum bounds it, a probe at the bound confirms it
or names a pair whose row lowers it (see
:meth:`repro.accel.StageSweeper.row_minimum`).  The pure-Python
reference path binary-searches the prefix instead (see
:mod:`repro.faults.removal`).
"""

from __future__ import annotations

import random
import statistics
from collections.abc import Sequence
from dataclasses import dataclass

from .. import accel as _accel
from ..core.ancestors import has_updown_routing, sweeper_of
from ..topologies.base import FoldedClos, Link
from .removal import FailureOrder, failure_threshold, shuffled_links

__all__ = [
    "UpdownSurvival",
    "updown_fault_tolerance",
    "updown_trial",
    "order_threshold",
    "pruned_stages",
]


@dataclass(frozen=True)
class UpdownSurvival:
    """Tolerated-failure statistics over several random orders."""

    mean_fraction: float
    stdev_fraction: float
    trials: int
    total_links: int

    @property
    def mean_percent(self) -> float:
        return 100.0 * self.mean_fraction


def pruned_stages(
    topo: FoldedClos, removed: set[Link]
) -> list[list[list[int]]]:
    """Stage adjacency with ``removed`` links deleted."""
    stages: list[list[list[int]]] = []
    for level in range(topo.num_levels - 1):
        rows = []
        for s in range(topo.level_sizes[level]):
            lo = topo.switch_id(level, s)
            rows.append(
                [
                    t
                    for t in topo.up_neighbors(level, s)
                    if Link(lo, topo.switch_id(level + 1, t)) not in removed
                ]
            )
        stages.append(rows)
    return stages


def _foreign_link(link: Link) -> ValueError:
    return ValueError(f"failure order holds {link}, not a link of the topology")


def _order_pairs(order):
    """``(lo, hi)`` integer columns of a failure order.

    A :class:`FailureOrder` hands over views of its int32 pair array;
    any other sequence of :class:`Link` is read link by link (int64).
    """
    import numpy as np

    if isinstance(order, FailureOrder):
        return order.pairs[:, 0], order.pairs[:, 1]
    count = len(order)
    lo = np.fromiter((link.lo for link in order), dtype=np.int64, count=count)
    hi = np.fromiter((link.hi for link in order), dtype=np.int64, count=count)
    return lo, hi


def _stage_failure_positions(
    topo: FoldedClos,
    sweeper: "_accel.StageSweeper",
    order: Sequence[Link],
):
    """Failure-order index of every stage edge (``len(order)`` = never).

    Maps the flat failure order onto the sweeper's per-stage edge
    arrays once; each threshold probe afterwards is a single vectorized
    position comparison, and each row minimum a max-min sweep over the
    positions.  A link listed twice fails at its first position.
    Raises :class:`ValueError` naming the first link of ``order`` that
    is not a link of ``topo``.
    """
    import numpy as np

    never = len(order)
    n = topo.num_switches
    lo, hi = _order_pairs(order)
    # Out-of-range ids get key -1, which no stage edge has.  A sentinel
    # above every edge key, at position ``never``, ends the array, so
    # searchsorted always lands in range.
    link_keys = np.empty(never + 1, dtype=np.int64)
    np.multiply(lo, n, out=link_keys[:-1], dtype=np.int64)
    link_keys[:-1] += hi
    link_keys[:-1][(lo < 0) | (hi >= n)] = -1
    link_keys[-1] = n * n
    del lo, hi
    # Stable order, so ``first`` is each key's first position.
    perm, sorted_keys = _accel.stable_order(link_keys)
    del link_keys
    is_first = np.ones(sorted_keys.size, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=is_first[1:])
    # int32 positions (orders are shorter than 2**31 links) halve what
    # the probes keep alive.
    keys = sorted_keys[is_first]
    first = perm[is_first].astype(np.int32 if never < 2**31 else np.int64)
    del perm, sorted_keys, is_first
    matched = np.zeros(keys.size, dtype=bool)
    positions = []
    for stage, (src, dst) in enumerate(sweeper.edge_keys()):
        edge_keys = (src + topo.switch_id(stage, 0)) * n + (
            dst + topo.switch_id(stage + 1, 0)
        )
        at = np.searchsorted(keys, edge_keys)
        found = keys[at] == edge_keys
        matched[at[found]] = True
        positions.append(np.where(found, first[at], never))
    foreign = first[:-1][~matched[:-1]]
    if foreign.size:
        raise _foreign_link(order[int(foreign.min())])
    return positions


def order_threshold(
    topo: FoldedClos, order: Sequence[Link], accel: bool = True
) -> int:
    """Failures tolerated along one fixed failure order.

    The largest ``k`` such that the network is still up/down routable
    after the first ``k`` failures of ``order``.  Pure function of its
    arguments (no RNG), so trials over pre-drawn orders can run in any
    scheduling order -- including across a process pool -- without
    perturbing results.

    With ``accel=True`` (the default) the stage edges are packed once
    into a :class:`repro.accel.StageSweeper` together with each edge's
    position in ``order``, and the threshold is found by following
    witnesses (:func:`_witness_threshold`): a handful of row minima and
    masked probes, where a binary search needs about ``log2(len(order))``
    probes.  Thresholds are identical to the reference path
    (``accel=False``), which binary-searches the prefix on pruned
    Python stage lists.

    ``order`` is a :class:`~repro.faults.removal.FailureOrder`, whose
    pair array the accelerated path reads directly, or any sequence of
    :class:`Link`.  It may be a prefix of a full failure order; a link
    of ``order`` that is not a link of ``topo`` raises
    :class:`ValueError` on both paths.
    """
    sizes = topo.level_sizes

    if accel and sizes[0] > 0 and _accel.is_available():
        # sweeper_of consumes packed CSR stage arrays directly when the
        # topology carries them; flat edge order (and therefore every
        # keep mask and threshold) is identical either way.
        sweeper = sweeper_of(topo)
        positions = _stage_failure_positions(topo, sweeper, order)
        return _witness_threshold(sweeper, positions, len(order))

    known = set(topo.links())
    for link in order:
        if link not in known:
            raise _foreign_link(link)

    def still_ok(k: int) -> bool:
        removed = set(order[:k])
        return has_updown_routing(
            sizes, pruned_stages(topo, removed), accel=accel
        )

    return failure_threshold(len(order), still_ok) - 1


def _witness_threshold(
    sweeper: "_accel.StageSweeper", positions: list, never: int
) -> int:
    """``min d(a, b)`` over leaf pairs, capped at ``never``.

    A pair survives the first ``k`` failures iff ``d(a, b) >= k`` (see
    :meth:`~repro.accel.StageSweeper.row_minimum`), so the threshold is
    the smallest ``d``.  ``bound`` starts as leaf 0's row minimum and
    stays an upper bound; a probe at ``k = bound`` either passes, which
    makes it exact, or names a pair with ``d < bound``, whose row
    minimum is a strictly smaller bound.  The next probe starts at the
    block of mask words where the last one failed.
    """
    bound = min(sweeper.row_minimum(positions, 0), never)
    near = 0
    while bound >= 0:
        pair = sweeper.missing_pair(
            sweeper.keep_masks_for_positions(positions, bound), near
        )
        if pair is None:
            return bound
        leaf, near = pair
        row = sweeper.row_minimum(positions, leaf)
        if row >= bound:
            # The pair's own d is below ``bound``; a row that is not
            # means the sweeps disagree, and looping would not end.
            raise RuntimeError(
                f"leaf {leaf} misses a pair at {bound} failures, but its "
                f"row minimum is {row}"
            )
        bound = row
    return -1


def updown_trial(
    topo: FoldedClos,
    rng: random.Random | int | None = None,
    accel: bool = True,
) -> int:
    """Failures tolerated before up/down routing breaks (one order).

    Returns the largest ``k`` such that the network is still up/down
    routable after the first ``k`` failures.
    """
    return order_threshold(topo, shuffled_links(topo, rng=rng), accel=accel)


def updown_fault_tolerance(
    topo: FoldedClos,
    trials: int = 20,
    rng: random.Random | int | None = None,
    executor=None,
    accel: bool = True,
) -> UpdownSurvival:
    """Mean fraction of links tolerable while keeping up/down routing.

    All ``trials`` random failure orders are drawn from ``rng`` up
    front -- consuming exactly the same RNG stream as the historical
    serial trial loop -- and the per-order threshold searches (the
    expensive part) then run through ``executor`` (the ambient
    :mod:`repro.exec` executor when None), which may fan them across
    worker processes.  Each order ships to a worker as its int32 pair
    array.
    """
    from ..exec import get_executor

    if trials < 1:
        raise ValueError("need at least one trial")
    rand = rng if isinstance(rng, random.Random) else random.Random(rng)
    total = topo.num_links
    orders = [shuffled_links(topo, rng=rand) for _ in range(trials)]
    runner = executor if executor is not None else get_executor()
    thresholds = runner.map(
        order_threshold, [(topo, order, accel) for order in orders]
    )
    fractions = [t / total for t in thresholds]
    return UpdownSurvival(
        mean_fraction=statistics.fmean(fractions),
        stdev_fraction=statistics.stdev(fractions) if trials > 1 else 0.0,
        trials=trials,
        total_links=total,
    )
