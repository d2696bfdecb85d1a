"""ECMP table routing for direct networks (the Jellyfish side).

Direct networks have no up/down structure, so the simulator routes
them with per-destination ECMP tables: for destination switch ``d``,
``next_hops(s, d)`` lists every neighbor of ``s`` that is one hop
closer to ``d`` on some shortest path.  Tables are built lazily (one
BFS per destination actually used) and cached.

Deadlock: minimal routing on a cyclic direct network can deadlock
under virtual cut-through.  The simulator therefore pairs this router
with *distance-class* virtual channels -- a packet on its ``h``-th hop
uses VC ``h`` -- which breaks every channel-dependency cycle as long
as the VC count covers the longest route (true for the paper's
diameter-3/4 RRNs with 4 VCs).  This is exactly the complexity tax the
paper notes that Jellyfish pays and folded Clos topologies avoid.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ..topologies.base import DirectNetwork
from .shortest import all_shortest_next_hops, shortest_path_lengths

__all__ = ["CandidateRows", "CsrTable", "EcmpTableRouter"]


class CsrTable:
    """CSR-flattened per-(source, destination) candidate lists.

    The hop-by-hop routers answer ``next_hops(source, dest)`` with a
    freshly built Python list on every call; the simulator's fast path
    (:mod:`repro.simulation.fastpath`) instead precomputes every answer
    once into two flat arrays:

    * ``offsets`` -- shape ``(num_sources * num_dests + 1,)``,
      ``int64``: the candidates of key ``k = source * num_dests +
      dest`` live in ``values[offsets[k]:offsets[k + 1]]``.  Offsets
      index the *concatenation* of every candidate list, a count that
      grows past ``2**31`` near a million terminals, so they must be
      wide even while the values stay ``int32``;
    * ``values`` -- the concatenated candidate ids (next-hop switches
      or output channel ids, depending on the builder);

    plus a ``uint8`` ``flags`` array (one entry per key) classifying
    each pair: :data:`ROUTE` (use the candidate slice), :data:`DELIVER`
    (source *is* the destination -- eject locally, slice empty) or
    :data:`UNROUTABLE` (no route survives -- slice empty).
    """

    ROUTE = 0
    DELIVER = 1
    UNROUTABLE = 2

    def __init__(
        self,
        num_sources: int,
        num_dests: int,
        offsets: np.ndarray,
        values: np.ndarray,
        flags: np.ndarray,
    ) -> None:
        if offsets.shape != (num_sources * num_dests + 1,):
            raise ValueError("offsets must have one entry per key plus one")
        if flags.shape != (num_sources * num_dests,):
            raise ValueError("flags must have one entry per key")
        self.num_sources = num_sources
        self.num_dests = num_dests
        self.offsets = offsets
        self.values = values
        self.flags = flags

    @classmethod
    def build(
        cls,
        num_sources: int,
        num_dests: int,
        entry: Callable[[int, int], tuple[int, Iterable[int]]],
    ) -> "CsrTable":
        """Materialize ``entry(source, dest) -> (flag, candidates)``
        for every key, in row-major (source-major) order."""
        offsets = np.zeros(num_sources * num_dests + 1, dtype=np.int64)
        flags = np.zeros(num_sources * num_dests, dtype=np.uint8)
        values: list[int] = []
        key = 0
        for source in range(num_sources):
            for dest in range(num_dests):
                flag, candidates = entry(source, dest)
                flags[key] = flag
                values.extend(candidates)
                key += 1
                offsets[key] = len(values)
        return cls(
            num_sources,
            num_dests,
            offsets,
            np.asarray(values, dtype=np.int32),
            flags,
        )

    def key(self, source: int, dest: int) -> int:
        return source * self.num_dests + dest

    def flag(self, source: int, dest: int) -> int:
        return int(self.flags[self.key(source, dest)])

    def candidates(self, source: int, dest: int) -> np.ndarray:
        """Candidate slice for one pair (empty for DELIVER/UNROUTABLE)."""
        key = self.key(source, dest)
        return self.values[self.offsets[key]:self.offsets[key + 1]]

    def source_of_value(self) -> np.ndarray:
        """Source id of every ``values`` entry (CSR row expansion)."""
        counts = np.diff(self.offsets)
        keys = np.repeat(np.arange(len(self.flags)), counts)
        return keys // self.num_dests


class CandidateRows(dict):
    """Per-key candidate lists of a :class:`CsrTable`, built on first read.

    ``rows[key]`` is the Python list of the key's candidates for ROUTE
    and DELIVER keys and ``None`` for UNROUTABLE ones (the exact engine
    replays the reference router on a ``None`` hit, so a routing failure
    raises the same :class:`~repro.routing.updown.RoutingError` the
    reference engine would).  Scalar-indexing numpy arrays from Python
    is slower than a dict hit, so the exact run loop reads rows from
    here while the arrays stay the canonical representation.  A row is
    sliced out of the arrays the first time its key is read and kept:
    a run reads a fraction of the keys (about a fifth of a 2048-terminal
    RFC's under uniform traffic), so eagerly listing every key would
    mostly build lists nobody reads.
    """

    __slots__ = ("_table",)

    def __init__(self, table: CsrTable) -> None:
        super().__init__()
        self._table = table

    def __missing__(self, key: int) -> list[int] | None:
        table = self._table
        if table.flags[key] == CsrTable.UNROUTABLE:
            row = None
        else:
            row = table.values[
                table.offsets[key] : table.offsets[key + 1]
            ].tolist()
        self[key] = row
        return row


class EcmpTableRouter:
    """Per-destination shortest-path ECMP tables over a direct network."""

    def __init__(self, adjacency: list[list[int]]) -> None:
        self._adj = adjacency
        self._tables: dict[int, list[list[int]]] = {}
        self._dist: dict[int, list[int]] = {}

    @classmethod
    def for_network(cls, network: DirectNetwork) -> "EcmpTableRouter":
        return cls(network.adjacency())

    def _table(self, dest: int) -> list[list[int]]:
        table = self._tables.get(dest)
        if table is None:
            table = all_shortest_next_hops(self._adj, dest)
            self._tables[dest] = table
            self._dist[dest] = shortest_path_lengths(self._adj, dest)
        return table

    def next_hops(self, switch: int, dest: int) -> list[int]:
        """Neighbors of ``switch`` on a shortest path toward ``dest``.

        Empty when ``switch == dest`` (deliver locally) or when the
        destination is unreachable.
        """
        if switch == dest:
            return []
        return self._table(dest)[switch]

    def reachable(self, switch: int, dest: int) -> bool:
        if switch == dest:
            return True
        self._table(dest)
        return self._dist[dest][switch] >= 0

    def distance(self, switch: int, dest: int) -> int:
        """Shortest hop count (-1 when unreachable)."""
        if switch == dest:
            return 0
        self._table(dest)
        return self._dist[dest][switch]

    def csr_table(self) -> CsrTable:
        """All ECMP tables flattened into one :class:`CsrTable`.

        Values are next-hop *switch ids*; the simulator's fast path
        maps them onto output channel ids.  Building this forces every
        per-destination BFS the lazy tables would otherwise spread
        over the run.
        """
        n = len(self._adj)

        def entry(source: int, dest: int) -> tuple[int, list[int]]:
            if source == dest:
                return CsrTable.DELIVER, []
            hops = self._table(dest)[source]
            if self._dist[dest][source] < 0:
                return CsrTable.UNROUTABLE, []
            return CsrTable.ROUTE, list(hops)

        return CsrTable.build(n, n, entry)

    def max_route_length(self, dests: list[int] | None = None) -> int:
        """Longest shortest-path over the cached (or given) tables.

        Used by the simulator to check the distance-class VC budget.
        """
        dests = dests if dests is not None else list(self._tables)
        worst = 0
        for dest in dests:
            self._table(dest)
            worst = max(worst, max(self._dist[dest], default=0))
        return worst
