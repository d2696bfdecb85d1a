"""Shortest-path routing utilities (the Jellyfish baseline's needs).

Random regular networks have no up/down structure; the Jellyfish paper
routes them over k-shortest paths, recomputed whenever the network is
expanded or a link fails -- a cost the RFC avoids (paper Section 6).
This module provides:

* :func:`shortest_path` / :func:`shortest_path_lengths` -- BFS-based
  minimal routes and hop counts;
* :func:`k_shortest_paths` -- Yen's algorithm over unit-weight graphs,
  returning simple paths in non-decreasing length order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Sequence

__all__ = [
    "shortest_path",
    "shortest_path_lengths",
    "k_shortest_paths",
]


def shortest_path_lengths(
    adjacency: Sequence[Sequence[int]], source: int
) -> list[int]:
    """BFS hop counts from ``source`` (-1 where unreachable)."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def shortest_path(
    adjacency: Sequence[Sequence[int]], source: int, target: int
) -> list[int] | None:
    """One shortest path as a vertex list, or ``None`` if disconnected."""
    if source == target:
        return [source]
    prev = [-1] * len(adjacency)
    prev[source] = source
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if prev[v] < 0:
                prev[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(prev[path[-1]])
                    return path[::-1]
                queue.append(v)
    return None


def k_shortest_paths(
    adjacency: Sequence[Sequence[int]],
    source: int,
    target: int,
    k: int,
) -> list[list[int]]:
    """Yen's algorithm: up to ``k`` loopless shortest paths.

    Unit edge weights; ties broken deterministically by vertex order so
    results are reproducible.
    """
    if k < 1:
        return []
    first = shortest_path(adjacency, source, target)
    if first is None:
        return []
    paths: list[list[int]] = [first]
    candidates: list[tuple[int, list[int]]] = []
    seen: set[tuple[int, ...]] = {tuple(first)}

    while len(paths) < k:
        prev_path = paths[-1]
        for i in range(len(prev_path) - 1):
            spur = prev_path[i]
            root = prev_path[: i + 1]
            banned_edges: set[tuple[int, int]] = set()
            for path in paths:
                if path[: i + 1] == root and len(path) > i + 1:
                    banned_edges.add((path[i], path[i + 1]))
                    banned_edges.add((path[i + 1], path[i]))
            banned_nodes = set(root[:-1])
            spur_path = _bfs_restricted(
                adjacency, spur, target, banned_nodes, banned_edges
            )
            if spur_path is None:
                continue
            total = root[:-1] + spur_path
            key = tuple(total)
            if key not in seen:
                seen.add(key)
                heapq.heappush(candidates, (len(total), total))
        if not candidates:
            break
        _, best = heapq.heappop(candidates)
        paths.append(best)
    return paths


def _bfs_restricted(
    adjacency: Sequence[Sequence[int]],
    source: int,
    target: int,
    banned_nodes: set[int],
    banned_edges: set[tuple[int, int]],
) -> list[int] | None:
    if source == target:
        return [source]
    prev = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v in banned_nodes or v in prev or (u, v) in banned_edges:
                continue
            prev[v] = u
            if v == target:
                path = [v]
                while path[-1] != source:
                    path.append(prev[path[-1]])
                return path[::-1]
            queue.append(v)
    return None
