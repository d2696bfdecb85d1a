"""Up/down (least-common-ancestor) routing for folded Clos networks.

The deadlock-free routing the paper relies on: a packet from leaf ``a``
to leaf ``b`` takes some number of up-hops to a common ancestor and
then down-hops to ``b``.  Because it never turns up after going down,
the channel dependency graph is acyclic and no virtual channels are
needed for deadlock freedom (Section 4.1).

In a CFT any up-port works; in an RFC it does not -- an up-neighbor
may have no ancestor above it that covers the destination.  The router
therefore precomputes, per switch ``s`` and ascent budget ``j``,

    ``U_j[s]`` = bitmask of leaves reachable from ``s`` with exactly
    ``j`` up-hops followed by only down-hops,

so a hop decision is two bit-tests.  ``U_0`` is the descendant set and
``U_j[s] = union of U_{j-1} over up-neighbors``.

The router exposes **minimal** next hops (equal-cost multi-path: all
ports on some shortest up/down route) and optionally *any-valid* hops
(every port that keeps an up/down route available, possibly longer) --
an ablation knob for the simulator.

Instances are built either from a :class:`FoldedClos` or from raw
``(level_sizes, up_stages)`` so fault experiments can route on pruned
networks without rebuilding topology objects.
"""

from __future__ import annotations

import random
from typing import Sequence

from .. import accel as _accel
from ..topologies.base import FoldedClos

__all__ = ["UpDownRouter", "RoutingError"]


class RoutingError(RuntimeError):
    """Raised when no up/down route exists for a requested pair."""


class UpDownRouter:
    """Hop-by-hop up/down ECMP router over a folded Clos structure."""

    def __init__(
        self,
        level_sizes: Sequence[int],
        up_stages: Sequence[Sequence[Sequence[int]]],
        accel: bool = True,
        stage_arrays=None,
    ) -> None:
        if len(up_stages) != len(level_sizes) - 1:
            raise ValueError("need one up-stage per level boundary")
        self.level_sizes = list(level_sizes)
        self.num_levels = len(level_sizes)
        self._packed: list[list] | None = None
        self._up: list[list[tuple[int, ...]]] = [
            [tuple(row) for row in stage] for stage in up_stages
        ]
        self._down: list[list[tuple[int, ...]]] = []
        for stage, rows in enumerate(self._up):
            down: list[list[int]] = [[] for _ in range(level_sizes[stage + 1])]
            for s, ups in enumerate(rows):
                for t in ups:
                    down[t].append(s)
            self._down.append([tuple(d) for d in down])
        if accel and self.level_sizes[0] > 0 and _accel.is_available():
            self._build_tables_accel(stage_arrays)
        else:
            self._build_tables()

    @classmethod
    def for_topology(
        cls, topo: FoldedClos, accel: bool = True
    ) -> "UpDownRouter":
        stages = [
            [topo.up_neighbors(level, s) for s in range(topo.level_sizes[level])]
            for level in range(topo.num_levels - 1)
        ]
        # Packed topologies hand their CSR stage arrays to the sweeper
        # so the reach-table recurrence never re-flattens Python rows.
        arrays = getattr(topo, "up_stage_arrays", None)
        return cls(
            topo.level_sizes,
            stages,
            accel=accel,
            stage_arrays=arrays() if arrays is not None else None,
        )

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _build_tables_accel(self, stage_arrays=None) -> None:
        """Packed-bitset twin of :meth:`_build_tables`.

        The :class:`repro.accel.StageSweeper` runs the same
        ``U_j = union of U_{j-1} over up-neighbors`` recurrence on
        ``uint64`` word arrays; converting each row back to a Python
        big-int reproduces the reference ``_reach`` tables bit for bit
        (asserted by ``tests/test_accel_differential.py``).  When the
        caller already holds CSR ``stage_arrays`` (packed topologies)
        the sweeper indexes those directly -- identical edge order,
        identical tables.  The packed tables are kept for
        :meth:`packed_reach`.
        """
        if stage_arrays is not None:
            sweeper = _accel.StageSweeper.from_arrays(
                self.level_sizes, stage_arrays
            )
        else:
            sweeper = _accel.StageSweeper(self.level_sizes, self._up)
        packed = sweeper.reach_tables()
        self._packed = packed
        self._reach = []
        for level in range(self.num_levels):
            per_budget = [_accel.masks_to_ints(t) for t in packed[level]]
            self._reach.append(
                [
                    [per_budget[j][s] for j in range(len(per_budget))]
                    for s in range(self.level_sizes[level])
                ]
            )

    def _build_tables(self) -> None:
        levels = self.num_levels
        n1 = self.level_sizes[0]
        # reach[level][s][j]: leaves reachable with exactly j up-hops.
        # U_0 per level (descendants):
        descend: list[list[int]] = [[1 << leaf for leaf in range(n1)]]
        for stage, rows in enumerate(self._up):
            upper = [0] * self.level_sizes[stage + 1]
            lower = descend[stage]
            for s, ups in enumerate(rows):
                mask = lower[s]
                for t in ups:
                    upper[t] |= mask
            descend.append(upper)
        self._reach: list[list[list[int]]] = []
        for level in range(levels):
            max_up = levels - 1 - level
            tables = [[descend[level][s]] for s in range(self.level_sizes[level])]
            self._reach.append(tables)
        for j in range(1, levels):
            for level in range(levels - j):
                rows = self._up[level]
                upper_tables = self._reach[level + 1]
                for s, ups in enumerate(rows):
                    acc = 0
                    for t in ups:
                        acc |= upper_tables[t][j - 1]
                    self._reach[level][s].append(acc)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def packed_reach(self) -> list[list]:
        """Packed ``uint64`` ``U_j`` masks, ``tables[level][j]``.

        One row per switch, as :meth:`StageSweeper.reach_tables` lays
        them out.  Kept from the accelerated table build; a router
        built on the pure-Python path packs its big-int tables on
        first use.
        """
        if self._packed is None:
            self._packed = [
                [
                    _accel.ints_to_masks(
                        [row[j] for row in per_switch], self.level_sizes[0]
                    )
                    for j in range(self.num_levels - level)
                ]
                for level, per_switch in enumerate(self._reach)
            ]
        return self._packed

    def descendants(self, level: int, index: int) -> int:
        """Bitmask of leaves below switch ``(level, index)``."""
        return self._reach[level][index][0]

    def min_ascent(self, level: int, index: int, dest_leaf: int) -> int:
        """Fewest up-hops before descending to ``dest_leaf``; -1 if none."""
        bit = 1 << dest_leaf
        for j, mask in enumerate(self._reach[level][index]):
            if mask & bit:
                return j
        return -1

    def reachable(self, leaf_a: int, dest_leaf: int) -> bool:
        """Whether an up/down route exists from leaf ``leaf_a``."""
        return self.min_ascent(0, leaf_a, dest_leaf) >= 0

    def next_hops(
        self,
        level: int,
        index: int,
        dest_leaf: int,
        minimal: bool = True,
    ) -> tuple[str, list[int]]:
        """ECMP next-hop candidates for a packet at ``(level, index)``.

        Returns ``(direction, level-local neighbor indices)`` where
        direction is ``"deliver"`` (the packet is at the destination
        leaf -- neighbor list empty), ``"down"`` or ``"up"``.  With
        ``minimal=False`` the up candidates include every up-neighbor
        that preserves *some* up/down route, not just shortest ones.

        Raises :class:`RoutingError` when the pair is not up/down
        connected from this switch.
        """
        bit = 1 << dest_leaf
        tables = self._reach[level][index]
        if level == 0 and index == dest_leaf:
            return "deliver", []
        if tables[0] & bit:
            candidates = [
                t
                for t in self._down[level - 1][index]
                if self._reach[level - 1][t][0] & bit
            ]
            return "down", candidates
        ascent = self.min_ascent(level, index, dest_leaf)
        if ascent < 0:
            raise RoutingError(
                f"no up/down route from (level={level}, index={index}) "
                f"to leaf {dest_leaf}"
            )
        ups = self._up[level][index]
        if minimal:
            candidates = [
                t
                for t in ups
                if self._reach[level + 1][t][ascent - 1] & bit
            ]
        else:
            candidates = [
                t
                for t in ups
                if any(mask & bit for mask in self._reach[level + 1][t])
            ]
        return "up", candidates

    def path(
        self,
        leaf_a: int,
        leaf_b: int,
        rng: random.Random | int | None = None,
        minimal: bool = True,
    ) -> list[tuple[int, int]]:
        """One random up/down route as ``(level, index)`` switch hops.

        Includes both endpoint leaves.  ECMP choices are made uniformly
        at random (reproducible through ``rng``).
        """
        rand = rng if isinstance(rng, random.Random) else random.Random(rng)
        level, index = 0, leaf_a
        hops = [(level, index)]
        guard = 4 * self.num_levels + 4
        while not (level == 0 and index == leaf_b):
            direction, candidates = self.next_hops(
                level, index, leaf_b, minimal=minimal
            )
            if direction == "deliver":
                break
            if not candidates:
                raise RoutingError(
                    f"dead end at (level={level}, index={index}) "
                    f"routing to leaf {leaf_b}"
                )
            choice = rand.choice(candidates)
            level = level + 1 if direction == "up" else level - 1
            index = choice
            hops.append((level, index))
            if len(hops) > guard:
                raise RoutingError("runaway route; routing tables corrupt")
        return hops

    def path_length(self, leaf_a: int, leaf_b: int) -> int:
        """Minimal up/down hop count between two leaves (0 if equal)."""
        if leaf_a == leaf_b:
            return 0
        ascent = self.min_ascent(0, leaf_a, leaf_b)
        if ascent < 0:
            raise RoutingError(f"leaves {leaf_a}, {leaf_b} not connected")
        return 2 * ascent

    def ecmp_width(self, leaf_a: int, leaf_b: int) -> int:
        """Number of distinct minimal up/down routes between two leaves.

        Counted by dynamic programming over the minimal-route DAG.
        """
        if leaf_a == leaf_b:
            return 1
        ascent = self.min_ascent(0, leaf_a, leaf_b)
        if ascent < 0:
            raise RoutingError(f"leaves {leaf_a}, {leaf_b} not connected")
        bit = 1 << leaf_b
        # Count ascending paths into each common ancestor at the apex
        # level, then descending paths from it.
        up_counts: dict[int, int] = {leaf_a: 1}
        for j in range(ascent):
            nxt: dict[int, int] = {}
            for s, count in up_counts.items():
                for t in self._up[j][s]:
                    if self._reach[j + 1][t][ascent - 1 - j] & bit:
                        nxt[t] = nxt.get(t, 0) + count
            up_counts = nxt
        total = 0
        for apex, count in up_counts.items():
            total += count * self._down_route_count(ascent, apex, leaf_b)
        return total

    def _down_route_count(self, level: int, index: int, dest_leaf: int) -> int:
        if level == 0:
            return 1 if index == dest_leaf else 0
        bit = 1 << dest_leaf
        total = 0
        for t in self._down[level - 1][index]:
            if self._reach[level - 1][t][0] & bit:
                total += self._down_route_count(level - 1, t, dest_leaf)
        return total
