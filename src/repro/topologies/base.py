"""Network data model shared by every topology in this package.

Two families of topologies appear in the paper:

* **Indirect (multi-stage) networks** -- folded Clos networks, fat-trees,
  orthogonal fat-trees and random folded Clos networks.  These are
  represented by :class:`FoldedClos`: switches arranged in levels with
  links only between consecutive levels, and compute nodes (terminals)
  attached to the level-1 (leaf) switches.

* **Direct networks** -- random regular networks (the Jellyfish
  baseline).  These are represented by :class:`DirectNetwork`: a flat
  set of switches, each hosting a fixed number of terminals.

Both expose a common link/switch numbering so that the routing,
fault-injection and analysis layers can treat them uniformly:

* switches carry *flat ids* ``0 .. num_switches - 1``;
* links are undirected pairs of flat switch ids, enumerated in a stable
  order by :meth:`links`, so a *link index* identifies a physical cable;
* terminals carry ids ``0 .. num_terminals - 1`` and each is attached to
  exactly one switch (:meth:`terminal_switch`).

The model deliberately stores plain ``list``/``set`` adjacency instead
of a :mod:`networkx` graph: the generators and analyses in this package
are hot loops over hundreds of thousands of links, and attribute-laden
graph objects are an order of magnitude slower.  A :mod:`networkx` view
is available through :meth:`to_networkx` for interoperability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Link",
    "NetworkError",
    "FoldedClos",
    "DirectNetwork",
    "levels_are_consistent",
]


class NetworkError(ValueError):
    """Raised when a topology violates its structural invariants."""


@dataclass(frozen=True, order=True)
class Link:
    """An undirected link between two switches, by flat switch id.

    The pair is stored in normalized order (``lo <= hi``) so that a link
    compares and hashes identically regardless of construction order.
    """

    lo: int
    hi: int

    def __init__(self, a: int, b: int) -> None:
        if a == b:
            raise NetworkError(f"self-link on switch {a}")
        lo, hi = (a, b) if a < b else (b, a)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def other(self, switch: int) -> int:
        """Return the endpoint that is not ``switch``."""
        if switch == self.lo:
            return self.hi
        if switch == self.hi:
            return self.lo
        raise NetworkError(f"switch {switch} is not an endpoint of {self}")

    def __iter__(self) -> Iterator[int]:
        yield self.lo
        yield self.hi


def levels_are_consistent(level_sizes: Sequence[int]) -> bool:
    """Return whether a level-size vector describes a plausible folded Clos."""
    return len(level_sizes) >= 1 and all(n > 0 for n in level_sizes)


class FoldedClos:
    """An indirect multi-stage network per Definition 3.1 of the paper.

    Switches are divided into ``l`` levels.  Level-1 (leaf) switches
    connect down to compute nodes and up to level 2; intermediate levels
    connect down and up; level-``l`` (root) switches only connect down.

    Parameters
    ----------
    level_sizes:
        ``[N_1, ..., N_l]`` -- number of switches per level.
    up_adjacency:
        ``up_adjacency[i][s]`` is the list of level-``i+2`` switch
        *indices within their level* that level-``i+1`` switch ``s``
        connects to (0-based levels in code, 1-based in the paper).
        There are ``l - 1`` inter-level stages.  Parallel links between
        the same pair of switches are not allowed (the paper's
        generators reject them as unsuitable pairs).
    hosts_per_leaf:
        Number of compute nodes attached to every leaf switch.
    radix:
        The nominal switch radix ``R``.  For radix-regular networks this
        equals down-links + up-links of every switch; it is recorded for
        cost accounting even when the network is not radix-regular.
    name:
        Human-readable topology name used in reports.
    """

    def __init__(
        self,
        level_sizes: Sequence[int],
        up_adjacency: Sequence[Sequence[Iterable[int]]],
        hosts_per_leaf: int,
        radix: int,
        name: str = "folded-clos",
    ) -> None:
        if not levels_are_consistent(level_sizes):
            raise NetworkError(f"bad level sizes {level_sizes!r}")
        if len(up_adjacency) != len(level_sizes) - 1:
            raise NetworkError(
                f"{len(level_sizes)} levels need {len(level_sizes) - 1} "
                f"inter-level stages, got {len(up_adjacency)}"
            )
        if hosts_per_leaf < 0:
            raise NetworkError("hosts_per_leaf must be non-negative")

        self.level_sizes: list[int] = list(level_sizes)
        self.hosts_per_leaf = hosts_per_leaf
        self.radix = radix
        self.name = name

        # Normalized copy: tuple-of-tuples, validated against level sizes.
        self._up: list[list[tuple[int, ...]]] = []
        for stage, stage_adj in enumerate(up_adjacency):
            n_lo, n_hi = level_sizes[stage], level_sizes[stage + 1]
            if len(stage_adj) != n_lo:
                raise NetworkError(
                    f"stage {stage}: expected {n_lo} adjacency rows, "
                    f"got {len(stage_adj)}"
                )
            rows: list[tuple[int, ...]] = []
            for s, nbrs in enumerate(stage_adj):
                row = tuple(sorted(nbrs))
                if len(set(row)) != len(row):
                    raise NetworkError(
                        f"stage {stage} switch {s}: parallel links {row}"
                    )
                for t in row:
                    if not 0 <= t < n_hi:
                        raise NetworkError(
                            f"stage {stage} switch {s}: neighbor {t} out of "
                            f"range for level of size {n_hi}"
                        )
                rows.append(row)
            self._up.append(rows)

        # Down adjacency derived once; kept as sorted tuples as well.
        self._down: list[list[tuple[int, ...]]] = []
        for stage, rows in enumerate(self._up):
            n_hi = level_sizes[stage + 1]
            down: list[list[int]] = [[] for _ in range(n_hi)]
            for s, row in enumerate(rows):
                for t in row:
                    down[t].append(s)
            self._down.append([tuple(d) for d in down])

        # Flat-id offsets per level.
        self._offsets: list[int] = [0]
        for n in self.level_sizes:
            self._offsets.append(self._offsets[-1] + n)

        # links()/links_array() memos -- safe because instances are
        # construction-immutable (no mutating API exists).
        self._links_cache: tuple[Link, ...] | None = None
        self._links_array_cache = None

    # ------------------------------------------------------------------
    # Identity / sizes
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        """Number of switch levels ``l``."""
        return len(self.level_sizes)

    @property
    def num_switches(self) -> int:
        """Total switches across all levels."""
        return self._offsets[-1]

    @property
    def num_leaves(self) -> int:
        """Level-1 (leaf) switch count ``N_1``."""
        return self.level_sizes[0]

    @property
    def num_terminals(self) -> int:
        """Compute nodes ``T = N_1 * hosts_per_leaf``."""
        return self.num_leaves * self.hosts_per_leaf

    @property
    def num_links(self) -> int:
        """Number of switch-to-switch cables (terminal links excluded)."""
        return sum(len(row) for rows in self._up for row in rows)

    @property
    def num_ports(self) -> int:
        """Total switch ports in use, counting terminal ports.

        This is the coarse-grain cost measure used by Figure 7 of the
        paper: each switch-to-switch wire uses two ports and each
        terminal uses one switch port.
        """
        return 2 * self.num_links + self.num_terminals

    # ------------------------------------------------------------------
    # Level-local adjacency
    # ------------------------------------------------------------------
    def up_neighbors(self, level: int, index: int) -> tuple[int, ...]:
        """Level-local indices of the up-neighbors of switch ``index``.

        ``level`` is 0-based (0 = leaves).  Root switches return ``()``.
        """
        if level == self.num_levels - 1:
            return ()
        return self._up[level][index]

    def down_neighbors(self, level: int, index: int) -> tuple[int, ...]:
        """Level-local indices of the down-neighbors of switch ``index``."""
        if level == 0:
            return ()
        return self._down[level - 1][index]

    def up_degree(self, level: int, index: int) -> int:
        """Up-link count of a switch (0 for roots)."""
        return len(self.up_neighbors(level, index))

    def down_degree(self, level: int, index: int) -> int:
        """Down-link count (terminals count as leaf down-links)."""
        if level == 0:
            return self.hosts_per_leaf
        return len(self.down_neighbors(level, index))

    # ------------------------------------------------------------------
    # Flat-id view
    # ------------------------------------------------------------------
    def switch_id(self, level: int, index: int) -> int:
        """Flat switch id of a (level, index) pair."""
        if not 0 <= level < self.num_levels:
            raise NetworkError(f"level {level} out of range")
        if not 0 <= index < self.level_sizes[level]:
            raise NetworkError(f"index {index} out of range at level {level}")
        return self._offsets[level] + index

    def switch_level(self, switch: int) -> tuple[int, int]:
        """Inverse of :meth:`switch_id`: ``(level, index)`` of a flat id."""
        if not 0 <= switch < self.num_switches:
            raise NetworkError(f"switch {switch} out of range")
        for level in range(self.num_levels):
            if switch < self._offsets[level + 1]:
                return level, switch - self._offsets[level]
        raise AssertionError("unreachable")

    def links(self) -> list[Link]:
        """All switch-to-switch links in a stable order.

        The order is: stage 0 (leaf to level 2) links sorted by (lower
        switch index, upper switch index), then stage 1, and so on.
        Fault injection identifies cables by position in this list.

        The enumeration is memoized (the topology is immutable after
        construction) but each call returns a **fresh list** that
        callers may mutate.  Failure orders are drawn from
        :meth:`links_array` instead (see
        :func:`repro.faults.removal.shuffled_links`).
        """
        if self._links_cache is None:
            out: list[Link] = []
            for stage, rows in enumerate(self._up):
                lo_off = self._offsets[stage]
                hi_off = self._offsets[stage + 1]
                for s, row in enumerate(rows):
                    for t in row:
                        out.append(Link(lo_off + s, hi_off + t))
            self._links_cache = tuple(out)
        return list(self._links_cache)

    def links_array(self):
        """Links as an int32 ``(L, 2)`` array of flat switch-id pairs.

        Rows follow the exact :meth:`links` order with ``lo`` in column
        0 -- ``links_array()[i]`` names the same cable as
        ``links()[i]``.  Built without materializing :class:`Link`
        objects; the array is memoized and returned as a read-only
        view.
        """
        if self._links_array_cache is None:
            import numpy as np

            parts = []
            for stage, rows in enumerate(self._up):
                lo_off = self._offsets[stage]
                hi_off = self._offsets[stage + 1]
                counts = np.fromiter(
                    (len(row) for row in rows),
                    dtype=np.int64,
                    count=len(rows),
                )
                stage_links = np.empty((int(counts.sum()), 2), dtype=np.int32)
                stage_links[:, 0] = np.repeat(
                    np.arange(lo_off, lo_off + len(rows), dtype=np.int32),
                    counts,
                )
                stage_links[:, 1] = np.fromiter(
                    (t for row in rows for t in row),
                    dtype=np.int32,
                    count=stage_links.shape[0],
                )
                stage_links[:, 1] += np.int32(hi_off)
                parts.append(stage_links)
            joined = (
                np.concatenate(parts)
                if parts
                else np.empty((0, 2), dtype=np.int32)
            )
            joined.setflags(write=False)
            self._links_array_cache = joined
        return self._links_array_cache

    def adjacency(self) -> list[list[int]]:
        """Flat-id adjacency lists over switches (terminals excluded)."""
        adj: list[list[int]] = [[] for _ in range(self.num_switches)]
        for stage, rows in enumerate(self._up):
            lo_off = self._offsets[stage]
            hi_off = self._offsets[stage + 1]
            for s, row in enumerate(rows):
                for t in row:
                    adj[lo_off + s].append(hi_off + t)
                    adj[hi_off + t].append(lo_off + s)
        return adj

    # ------------------------------------------------------------------
    # Terminals
    # ------------------------------------------------------------------
    def terminal_switch(self, terminal: int) -> int:
        """Flat id of the leaf switch hosting ``terminal``."""
        if not 0 <= terminal < self.num_terminals:
            raise NetworkError(f"terminal {terminal} out of range")
        return terminal // self.hosts_per_leaf

    def leaf_terminals(self, leaf_index: int) -> range:
        """Terminal ids attached to leaf ``leaf_index`` (level-local)."""
        if not 0 <= leaf_index < self.num_leaves:
            raise NetworkError(f"leaf {leaf_index} out of range")
        h = self.hosts_per_leaf
        return range(leaf_index * h, (leaf_index + 1) * h)

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------
    def is_radix_regular(self) -> bool:
        """Whether every switch honours the radix-regular port budget.

        Per the paper: every non-root switch has ``R/2`` up-links and
        ``R/2`` down-links (terminals count as down-links of leaves) and
        every root has ``R`` down-links.
        """
        half = self.radix // 2
        if self.radix % 2 != 0:
            return False
        if self.hosts_per_leaf != half:
            return False
        last = self.num_levels - 1
        for level in range(self.num_levels):
            for index in range(self.level_sizes[level]):
                up = self.up_degree(level, index)
                down = (
                    self.hosts_per_leaf
                    if level == 0
                    else len(self.down_neighbors(level, index))
                )
                if level == last:
                    if down != self.radix:
                        return False
                elif up != half or down != half:
                    return False
        return True

    def validate(self) -> None:
        """Raise :class:`NetworkError` on any port-budget violation.

        Unlike :meth:`is_radix_regular` this tolerates non-regular
        networks; it only checks that no switch exceeds the radix.
        """
        last = self.num_levels - 1
        for level in range(self.num_levels):
            for index in range(self.level_sizes[level]):
                ports = self.up_degree(level, index)
                ports += (
                    self.hosts_per_leaf
                    if level == 0
                    else len(self.down_neighbors(level, index))
                )
                if ports > self.radix:
                    raise NetworkError(
                        f"switch (level={level}, index={index}) uses {ports} "
                        f"ports, exceeding radix {self.radix}"
                    )
                if level != last and self.up_degree(level, index) == 0:
                    raise NetworkError(
                        f"switch (level={level}, index={index}) has no "
                        "up-links; network is not a folded Clos"
                    )

    # ------------------------------------------------------------------
    # Interoperability
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Return the switch graph as a :class:`networkx.Graph`.

        Nodes carry ``level`` attributes; terminals are not included.
        """
        import networkx as nx

        graph = nx.Graph(name=self.name)
        for level in range(self.num_levels):
            for index in range(self.level_sizes[level]):
                graph.add_node(self.switch_id(level, index), level=level)
        graph.add_edges_from((link.lo, link.hi) for link in self.links())
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} R={self.radix} "
            f"levels={self.level_sizes} T={self.num_terminals}>"
        )


class DirectNetwork:
    """A direct network: switches host terminals and link to each other.

    This models the paper's random regular networks (RRN, the Jellyfish
    baseline): ``N`` switches of network degree ``delta`` with ``hosts``
    terminals per switch, so the radix is ``delta + hosts``.
    """

    def __init__(
        self,
        adjacency: Sequence[Iterable[int]],
        hosts_per_switch: int,
        name: str = "direct",
    ) -> None:
        if hosts_per_switch < 0:
            raise NetworkError("hosts_per_switch must be non-negative")
        self.hosts_per_switch = hosts_per_switch
        self.name = name
        self._adj: list[tuple[int, ...]] = []
        n = len(adjacency)
        for s, nbrs in enumerate(adjacency):
            row = tuple(sorted(nbrs))
            if len(set(row)) != len(row):
                raise NetworkError(f"switch {s}: parallel links {row}")
            if s in row:
                raise NetworkError(f"switch {s}: self-link")
            for t in row:
                if not 0 <= t < n:
                    raise NetworkError(f"switch {s}: neighbor {t} out of range")
            self._adj.append(row)
        # Symmetry check.
        for s, row in enumerate(self._adj):
            for t in row:
                if s not in self._adj[t]:
                    raise NetworkError(f"asymmetric link {s} -> {t}")
        # links()/links_array() memos (construction-immutable).
        self._links_cache: tuple[Link, ...] | None = None
        self._links_array_cache = None

    @property
    def num_switches(self) -> int:
        """Switch count ``N``."""
        return len(self._adj)

    @property
    def num_terminals(self) -> int:
        """Compute nodes ``T = N * hosts_per_switch``."""
        return self.num_switches * self.hosts_per_switch

    @property
    def num_links(self) -> int:
        """Undirected switch-to-switch cables."""
        return sum(len(row) for row in self._adj) // 2

    @property
    def num_ports(self) -> int:
        """Total ports in use (two per cable, one per terminal)."""
        return 2 * self.num_links + self.num_terminals

    @property
    def radix(self) -> int:
        """Worst-case port count over all switches (degree + hosts)."""
        if not self._adj:
            return self.hosts_per_switch
        return max(len(row) for row in self._adj) + self.hosts_per_switch

    def degree(self, switch: int) -> int:
        return len(self._adj[switch])

    def neighbors(self, switch: int) -> tuple[int, ...]:
        return self._adj[switch]

    def adjacency(self) -> list[list[int]]:
        return [list(row) for row in self._adj]

    def links(self) -> list[Link]:
        """Cables ``(s, t)`` with ``s < t``; memoized, fresh list per call."""
        if self._links_cache is None:
            out: list[Link] = []
            for s, row in enumerate(self._adj):
                for t in row:
                    if s < t:
                        out.append(Link(s, t))
            self._links_cache = tuple(out)
        return list(self._links_cache)

    def links_array(self):
        """Links as an int32 ``(L, 2)`` array in :meth:`links` order."""
        if self._links_array_cache is None:
            import numpy as np

            pairs = [
                (s, t) for s, row in enumerate(self._adj) for t in row if s < t
            ]
            joined = (
                np.array(pairs, dtype=np.int32)
                if pairs
                else np.empty((0, 2), dtype=np.int32)
            )
            joined.setflags(write=False)
            self._links_array_cache = joined
        return self._links_array_cache

    def terminal_switch(self, terminal: int) -> int:
        if not 0 <= terminal < self.num_terminals:
            raise NetworkError(f"terminal {terminal} out of range")
        return terminal // self.hosts_per_switch

    def is_regular(self) -> bool:
        """Whether every switch has the same network degree."""
        degrees = {len(row) for row in self._adj}
        return len(degrees) <= 1

    def to_networkx(self):
        import networkx as nx

        graph = nx.Graph(name=self.name)
        graph.add_nodes_from(range(self.num_switches))
        graph.add_edges_from((link.lo, link.hi) for link in self.links())
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DirectNetwork {self.name!r} N={self.num_switches} "
            f"T={self.num_terminals}>"
        )
