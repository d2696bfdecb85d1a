"""Route state shared by the exact and relaxed engines.

Every up/down routing decision of the simulator follows from one
number per (switch, destination leaf): the router's ``min_ascent``, the
fewest up-hops before the packet can descend to the leaf.  The
:class:`RouteState` keeps that number as one ``int8`` matrix, next to
each switch's padded up and down neighbors and the channel to each, and
answers a (switch, leaf) query by testing the neighbors' ascents:

* level 0 and ``s == leaf``: deliver (no candidate);
* ascent 0: down, to every down-neighbor ``t`` whose ascent to the
  leaf is 0 (``U_0[t]`` holds the leaf);
* no budget holds the leaf: unroutable;
* otherwise up.  The router keeps up-neighbor ``t`` when
  ``U_{a-1}[t]`` holds the leaf, ``a`` the switch's ascent.  Since
  ``U_j[s]`` is the OR of ``U_{j-1}`` over the up-neighbors and ``a``
  is minimal, no up-neighbor reaches the leaf with fewer than ``a - 1``
  up-hops, so that test is ``ascent[t, leaf] == a - 1``.  Non-minimal
  routing keeps every ``t`` with any budget.

The neighbors are tested in ``router._up`` / ``router._down`` order,
the order :meth:`UpDownRouter.next_hops` filters, so a query lists the
candidates exactly as :meth:`Simulator._output_candidates` does and the
engines' RNG streams do not change.  The state grows with switches x
leaves bytes, not with the candidate lists of every (switch, leaf) key.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter

import numpy as np

from ..accel.order import stable_order
from .engine import _LINK

__all__ = ["CandidateRows", "RouteState", "build_candidate_table"]


class RouteState:
    """Min-ascent matrix plus padded neighbor and channel matrices.

    * ``ascent`` -- ``(leaves, switches + 1) int8``: ``ascent[leaf, s]``
      is flat switch ``s``'s ascent to the leaf, ``no_route`` when
      none; the extra last column is all ``no_route``, the padding
      target of the neighbor matrices.  Leaf-major, so the ascents one
      head tests lie in one row;
    * ``up_neighbors`` / ``down_neighbors`` -- ``(switches, width)
      int32`` flat switch ids: each switch's up- or down-neighbors in
      router order, padded with ``switches``;
    * ``up_channels`` / ``down_channels`` -- the link channel to each
      of those neighbors, padded with the dummy channel
      ``len(sim.ch_kind)`` (down rows with one dummy column more);
    * ``routable`` -- ``(leaves, leaves) bool``: whether a route leaves
      leaf ``a`` for leaf ``b``.

    Leaf ``i`` is flat switch ``i``.
    """

    __slots__ = (
        "num_leaves", "no_route", "minimal", "dummy", "ascent",
        "up_neighbors", "up_channels", "down_neighbors", "down_channels",
        "routable",
    )

    def __init__(
        self,
        ascent: np.ndarray,
        up: tuple[np.ndarray, np.ndarray],
        down: tuple[np.ndarray, np.ndarray],
        no_route: int,
        minimal: bool,
        dummy: int,
    ) -> None:
        self.num_leaves = n_leaves = ascent.shape[0]
        self.no_route = no_route
        self.minimal = minimal
        self.dummy = dummy
        self.ascent = ascent
        self.up_neighbors, self.up_channels = up
        self.down_neighbors, self.down_channels = down
        self.routable = np.ascontiguousarray(
            ascent[:, :n_leaves].T != no_route
        )

    @property
    def values(self) -> np.ndarray:
        """Every padded channel entry, up then down, flat."""
        return np.concatenate(
            (self.up_channels.reshape(-1), self.down_channels.reshape(-1))
        )

    @property
    def nbytes(self) -> int:
        """Bytes held by the state's arrays."""
        return sum(
            a.nbytes
            for a in (
                self.ascent, self.up_neighbors, self.up_channels,
                self.down_neighbors, self.down_channels, self.routable,
            )
        )

    def candidate_matrix(
        self, switches: np.ndarray, leaves: np.ndarray, width: int = 1
    ) -> np.ndarray:
        """Candidate channels of every ``(switches[i], leaves[i])``.

        Row ``i`` holds the pair's candidates in router order among
        dummy channels; deliver and unroutable pairs get dummy rows.
        The matrix is as wide as an up row or the longest down row, and
        at least ``width``.  Batches are often small, so the step makes
        few numpy calls: every pair tests its switch's up-neighbors (a
        pair at ascent 0 wants ``a - 1 == -1`` and keeps none, and no
        neighbor of an unroutable switch has a route), and only pairs
        going down test their down-neighbors.
        """
        switches = np.asarray(switches, dtype=np.int64)
        leaves = np.asarray(leaves, dtype=np.int64)
        flat = self.ascent.reshape(-1)
        row_of_leaf = leaves * self.ascent.shape[1]
        a = flat[row_of_leaf + switches]
        near = flat.take(
            self.up_neighbors.take(switches, axis=0) + row_of_leaf[:, None]
        )
        if self.minimal:
            ok = near == (a - 1)[:, None]
        else:
            ok = (near != self.no_route) & (a > 0)[:, None]
        out = np.where(ok, self.up_channels.take(switches, axis=0), self.dummy)
        down = ((a == 0) & (switches >= self.num_leaves)).nonzero()[0]
        picked = None
        if down.size:
            at_switch = switches[down]
            ok = (
                flat.take(
                    self.down_neighbors.take(at_switch, axis=0)
                    + row_of_leaf[down, None]
                )
                == 0
            )
            # The few passing columns first, in router order; the
            # channel matrix's extra last column is the dummy.
            n_cols = ok.shape[1]
            cols = np.sort(np.where(ok, np.arange(n_cols), n_cols), axis=1)
            cols = cols[:, : int(ok.sum(axis=1).max())]
            picked = self.down_channels.reshape(-1)[
                at_switch[:, None] * (n_cols + 1) + cols
            ]
            width = max(width, picked.shape[1])
        if width > out.shape[1]:
            out = np.hstack(
                (
                    out,
                    np.full(
                        (len(out), width - out.shape[1]), self.dummy,
                        dtype=np.int32,
                    ),
                )
            )
        if picked is not None:
            out[down, : picked.shape[1]] = picked
        return out


def build_candidate_table(sim) -> RouteState:
    """``sim``'s :class:`RouteState`, the run set-up both engines share,
    built once and cached on the simulator.

    The ascents are read off the router's packed ``U_j`` reach masks
    and ``(src, dst)`` switch pairs resolve to channel ids through
    :func:`_channel_lookup`.
    """
    state = getattr(sim, "_route_state", None)
    if state is not None:
        return state
    router = sim.router
    sizes = router.level_sizes
    n_levels = len(sizes)
    n_leaves = sizes[0]
    n_sw = sum(sizes)
    first = sim.level_offsets
    no_route = n_levels  # past every ascent budget
    ascent = np.full((n_leaves, n_sw + 1), no_route, dtype=np.int8)
    for level, tables in enumerate(router.packed_reach()):
        rows = slice(first[level], first[level] + sizes[level])
        _min_ascent(tables, n_leaves, ascent[:, rows].T)

    lookup = _channel_lookup(sim)
    dummy = len(sim.ch_kind)
    directions = []  # up, then down: per level (first switch, neighbors, channels)
    for step, stages in ((1, router._up), (-1, router._down)):
        parts = []
        for level in range(n_levels):
            other = level + step
            if 0 <= other < n_levels:
                rows = stages[level] if step > 0 else stages[other]
                parts.append(
                    (
                        first[level],
                        *_neighbor_channels(
                            rows, lookup, first[level], first[other],
                            n_sw, dummy,
                        ),
                    )
                )
        width = max([0] + [nbrs.shape[1] for _, nbrs, _ in parts])
        neighbors = np.full((n_sw, width), n_sw, dtype=np.int32)
        # Down rows end with one more dummy column, the target of
        # ``candidate_matrix``'s unused picks.
        channels = np.full((n_sw, width + (step < 0)), dummy, dtype=np.int32)
        for row, nbrs, chans in parts:
            neighbors[row : row + len(nbrs), : nbrs.shape[1]] = nbrs
            channels[row : row + len(nbrs), : nbrs.shape[1]] = chans
        directions.append((neighbors, channels))
    state = RouteState(
        ascent, *directions, no_route, sim.params.minimal_routing, dummy
    )
    sim._route_state = state
    return state


def _channel_lookup(sim):
    """Vectorized ``sim.link_channel``: ``lookup(src, dst) -> ids``.

    LINK channels are keyed ``src * num_switches + dst`` in one sorted
    array that every query searches.  The stable sort plus
    ``side="right"`` resolves a pair listed twice to its highest
    channel id -- the entry the dict's last write kept.  A pair with no
    channel raises :class:`KeyError`, as the dict would.
    """
    n_sw = sim.topo.num_switches
    cids = np.flatnonzero(np.asarray(sim.ch_kind) == _LINK)
    keys = (
        np.asarray(sim.ch_src, dtype=np.int64)[cids] * n_sw
        + np.asarray(sim.ch_dst, dtype=np.int64)[cids]
    )
    order, keys = stable_order(keys)
    ids = cids[order].astype(np.int32)

    def lookup(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        query = np.asarray(src, dtype=np.int64) * n_sw + dst
        pos = np.searchsorted(keys, query, side="right") - 1
        if query.size and (pos.min() < 0 or (keys[pos] != query).any()):
            raise KeyError("switch pair without a link channel")
        return ids[pos]

    return lookup


#: Rows of ``U_j`` bits unpacked at once by :func:`_min_ascent`; bounds
#: its transient memory to about this many bytes per million leaves.
_CHUNK_ROWS_BYTES = 1 << 22


def _min_ascent(tables: list, n_leaves: int, out: np.ndarray) -> None:
    """Write into ``out`` (``(switches, leaves) int8``, prefilled with
    ``no_route``; a transposed view is fine) the first budget ``j``
    whose packed ``U_j`` row holds each leaf -- the router's
    ``min_ascent``."""
    step = max(1, _CHUNK_ROWS_BYTES // max(1, n_leaves))
    for lo in range(0, len(out), step):
        hi = min(len(out), lo + step)
        for j in reversed(range(len(tables))):
            as_bytes = np.ascontiguousarray(
                tables[j][lo:hi], dtype="<u8"
            ).view(np.uint8)
            bits = np.unpackbits(
                as_bytes, axis=1, count=n_leaves, bitorder="little"
            ).view(bool)
            out[lo:hi][bits] = j


def _neighbor_channels(
    rows, lookup, src_first: int, dst_first: int, pad: int, dummy: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pad level-local neighbor ``rows`` into ``(len(rows), width)``
    matrices, in row order: flat neighbor ids (``pad`` past a row's
    end) and the channel id from each switch to each neighbor
    (``dummy`` past a row's end)."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    width = int(lens.max()) if len(rows) else 0
    flat = np.fromiter(
        (t for row in rows for t in row), dtype=np.int64, count=int(lens.sum())
    )
    row_of = np.repeat(np.arange(len(rows), dtype=np.int64), lens)
    col_of = np.arange(flat.size) - np.repeat(np.cumsum(lens) - lens, lens)
    nbrs = np.full((len(rows), width), pad, dtype=np.int64)
    nbrs[row_of, col_of] = dst_first + flat
    channels = np.full((len(rows), width), dummy, dtype=np.int32)
    channels[row_of, col_of] = lookup(src_first + row_of, dst_first + flat)
    return nbrs, channels


class CandidateRows(dict):
    """Per-key candidate lists of a :class:`RouteState`, built on first read.

    ``rows[switch * leaves + leaf]`` is the Python list of the pair's
    candidate channels in router order, empty at the destination leaf
    and ``None`` when the pair is unroutable (the exact engine replays
    the reference router on a ``None`` hit, so a routing failure raises
    the same :class:`~repro.routing.updown.RoutingError` the reference
    engine would).  A run reads a fraction of the keys (about a fifth
    of a 2048-terminal RFC's under uniform traffic), so a row is built
    the first time its key is read and kept.  A miss stays in C calls:
    the leaf's ascent row is one ``bytes`` object, each switch's
    neighbors are read from it by one ``itemgetter``, and
    ``compress`` keeps the channels whose neighbor has the wanted
    ascent.
    """

    __slots__ = ("_by_leaf", "_up", "_down", "_leaves", "_no_route", "_keep")

    def __init__(self, routes: RouteState) -> None:
        super().__init__()
        self._by_leaf = [row.tobytes() for row in routes.ascent]
        self._leaves = routes.num_leaves
        self._no_route = no_route = routes.no_route
        #: ``_keep[a](ascent)``: whether a neighbor at ``ascent`` is a
        #: candidate of a switch at ascent ``a``.
        self._keep = [(0).__eq__] + [
            (a - 1).__eq__ if routes.minimal else no_route.__ne__
            for a in range(1, no_route)
        ]
        pad = routes.ascent.shape[1] - 1
        #: Per switch: an ``itemgetter`` of its up- (down-) neighbors'
        #: entries in an ascent row, and the channels to them.
        self._up = _getters(routes.up_neighbors, routes.up_channels, pad)
        self._down = _getters(routes.down_neighbors, routes.down_channels, pad)

    def __missing__(self, key: int) -> list[int] | None:
        switch, leaf = divmod(key, self._leaves)
        column = self._by_leaf[leaf]
        a = column[switch]
        if a == self._no_route:
            row = None
        else:
            get, chans = (self._up if a else self._down)[switch]
            # Down: neighbors at ascent 0; up: at ``a - 1`` (minimal) or
            # at any budget.
            keep = self._keep[a]
            row = list(compress(chans, map(keep, get(column))))
        self[key] = row
        return row


def _getters(neighbors: np.ndarray, channels: np.ndarray, pad: int) -> list:
    """``(itemgetter of the neighbor ids, channels)`` of every row of
    the padded ``neighbors`` / ``channels`` matrices."""
    out = []
    for nbrs, chans in zip(neighbors.tolist(), channels.tolist()):
        ids = [t for t in nbrs if t != pad]
        # A one-index itemgetter returns a bare value; doubling the index
        # keeps a tuple, and ``compress`` stops at the one channel.
        out.append(
            (
                itemgetter(*(ids * 2 if len(ids) == 1 else ids or [0, 0])),
                tuple(chans[: len(ids)]),
            )
        )
    return out
