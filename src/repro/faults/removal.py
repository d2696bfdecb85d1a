"""Random link-failure processes.

The paper's resiliency methodology (Section 7, after Slim Fly): links
fail one by one in uniformly random order; a property of interest
(connectivity, up/down routability, throughput) is tracked along the
failure sequence.  Every property studied is *monotone* -- once lost
it cannot come back as more links fail -- so each failure order has one
threshold.  :func:`failure_threshold` locates it by binary search for
the switch-failure and pure-Python reference searches; the accelerated
Fig. 11 search
(:func:`repro.faults.updown_survival.order_threshold`) needs only a few
probes, because a per-leaf max-min sweep bounds the threshold and each
failed probe names a pair that tightens the bound.

A failure order is a :class:`FailureOrder`: a row permutation of the
topology's ``links_array()``, read as a sequence of :class:`Link`.
:func:`shuffled_links` draws the permutation with
:func:`repro.accel.order.shuffled_range`, a numpy replay of
``random.shuffle(list(range(L)))``: it reads the same Mersenne Twister
words from the caller's ``random.Random``, makes the same rejection
decisions and swaps, and writes the advanced state back.
``random.shuffle``'s swaps depend only on the list length, so the order
and the RNG stream left behind are bit for bit those of shuffling
``network.links()`` in place.  Array consumers (the Fig. 11 threshold
search, the Table 3 union-find pass) read :attr:`FailureOrder.pairs`
directly and never build a ``Link`` per cable.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from typing import Callable, Iterator, overload

import numpy as np

from ..accel.order import shuffled_range
from ..topologies.base import DirectNetwork, FoldedClos, Link

__all__ = [
    "FailureOrder",
    "shuffled_links",
    "failure_threshold",
    "UnionFind",
]


class FailureOrder(Sequence[Link]):
    """A read-only link failure order backed by an int32 pair array.

    ``pairs`` is an ``(L, 2)`` array of flat switch ids with ``lo`` in
    column 0 and ``hi`` in column 1 (``lo < hi``).  Indexing,
    iteration and slices yield :class:`Link` objects built from Python
    ints, so the order can stand wherever a ``list[Link]`` is read; a
    slice is a plain ``list`` of ``Link``.  An order equals any
    sequence of the same links in the same order.  Pickles as the
    pair array (about 8 bytes per link).
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs) -> None:
        view = np.asarray(pairs, dtype=np.int32).reshape(-1, 2).view()
        if not (view[:, 0] < view[:, 1]).all():
            raise ValueError("failure order pairs must satisfy lo < hi")
        view.setflags(write=False)
        self.pairs = view

    def __len__(self) -> int:
        return len(self.pairs)

    @overload
    def __getitem__(self, index: int) -> Link: ...

    @overload
    def __getitem__(self, index: slice) -> list[Link]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [Link(lo, hi) for lo, hi in self.pairs[index].tolist()]
        lo, hi = self.pairs[index].tolist()
        return Link(lo, hi)

    def __iter__(self) -> Iterator[Link]:
        return (Link(lo, hi) for lo, hi in self.pairs.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FailureOrder):
            return bool(np.array_equal(self.pairs, other.pairs))
        if isinstance(other, Sequence):
            return len(other) == len(self) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __reduce__(self):
        return (FailureOrder, (self.pairs,))


def shuffled_links(
    network: FoldedClos | DirectNetwork,
    rng: random.Random | int | None = None,
) -> FailureOrder:
    """The network's links in a uniformly random failure order.

    Same order, and same ``rng`` state afterwards, as
    ``rng.shuffle(network.links())``.  ``rng`` is a
    :class:`random.Random` or a seed for one; any other generator,
    a ``random.Random`` subclass included, raises :class:`TypeError`.
    """
    pairs = network.links_array()
    return FailureOrder(pairs[shuffled_range(rng, len(pairs))])


def failure_threshold(
    num_links: int,
    still_ok: Callable[[int], bool],
) -> int:
    """Smallest failure count that breaks a monotone property.

    ``still_ok(k)`` must report whether the property holds after the
    first ``k`` links of the failure order are removed, and must be
    monotone (non-increasing in ``k``).  Returns the minimal breaking
    ``k`` in ``1..num_links``, or ``num_links + 1`` when the property
    survives every removal.
    """
    if not still_ok(0):
        return 0
    lo, hi = 0, num_links  # ok at lo; test if ever broken
    if still_ok(num_links):
        return num_links + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if still_ok(mid):
            lo = mid
        else:
            hi = mid
    return hi


class UnionFind:
    """Classic disjoint-set forest with path halving + union by size."""

    __slots__ = ("parent", "size", "components")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def all_connected(self, vertices: Sequence[int]) -> bool:
        if not vertices:
            return True
        root = self.find(vertices[0])
        return all(self.find(v) == root for v in vertices[1:])
