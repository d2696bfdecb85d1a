"""Channel-dependency-graph (CDG) deadlock analysis.

The paper's central routing claim -- up/down routing is deadlock-free
without virtual channels, while direct random networks are "deadlock
prone" -- is a statement about the *channel dependency graph* (Dally &
Towles): vertices are directed channels, and there is an edge
``c1 -> c2`` whenever the routing function can hold a packet in ``c1``
while it waits for ``c2``.  Routing is deadlock-free iff the CDG is
acyclic.  This module builds CDGs for the routing functions in this
library so the claims can be *checked*, not assumed:

* :func:`updown_dependency_graph` -- folded Clos up/down routing.
  Ascending channels feed ascending/descending ones; descending
  channels only feed descending ones; acyclicity follows (and is
  asserted by the tests on CFT/RFC/OFT instances).
* :func:`minimal_ecmp_dependency_graph` -- shortest-path ECMP on a
  direct network, per-destination dependencies unioned.  On cyclic
  graphs this CDG generally has cycles (Jellyfish's problem).
* :func:`distance_class_dependency_graph` -- the same routing with
  distance-class virtual channels (VC = hop index): every dependency
  strictly increases the VC class, so the CDG is provably acyclic when
  enough classes exist -- the machinery a simulator of cyclic direct
  networks would need (ours runs folded Clos networks only).
"""

from __future__ import annotations

from ..topologies.base import DirectNetwork, FoldedClos
from .shortest import shortest_path_lengths

__all__ = [
    "has_cycle",
    "updown_dependency_graph",
    "minimal_ecmp_dependency_graph",
    "distance_class_dependency_graph",
]

Node = tuple
Graph = dict[Node, set[Node]]


def has_cycle(graph: Graph) -> bool:
    """Iterative three-color DFS cycle detection on a dict-of-sets."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Node, int] = {node: WHITE for node in graph}
    for start in graph:
        if color[start] != WHITE:
            continue
        stack: list[tuple[Node, iter]] = [(start, iter(graph[start]))]
        color[start] = GRAY
        while stack:
            node, neighbors = stack[-1]
            advanced = False
            for nxt in neighbors:
                state = color.get(nxt, WHITE)
                if state == GRAY:
                    return True
                if state == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(graph.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


def updown_dependency_graph(topo: FoldedClos) -> Graph:
    """CDG of up/down routing on a folded Clos.

    Channels are ``("up"|"down", level, lower_index, upper_index)``
    where the level pair is (level, level+1).  A packet ascending into
    a switch may continue up or turn down; a descending packet only
    continues down.  No other dependencies exist under up/down
    routing.
    """
    graph: Graph = {}

    def node(kind: str, level: int, lo: int, hi: int) -> Node:
        key = (kind, level, lo, hi)
        graph.setdefault(key, set())
        return key

    for level in range(topo.num_levels - 1):
        for s in range(topo.level_sizes[level]):
            for t in topo.up_neighbors(level, s):
                node("up", level, s, t)
                node("down", level, s, t)

    for level in range(1, topo.num_levels):
        for mid in range(topo.level_sizes[level]):
            downs = topo.down_neighbors(level, mid)
            ups = topo.up_neighbors(level, mid)
            # Ascending into `mid` via (below -> mid):
            for below in downs:
                src = ("up", level - 1, below, mid)
                # ... continue ascending,
                for above in ups:
                    graph[src].add(node("up", level, mid, above))
                # ... or turn down anywhere below.
                for other in downs:
                    graph[src].add(node("down", level - 1, other, mid))
            # Descending into `mid` via (above -> mid): only further down.
            if level < topo.num_levels - 1:
                for above in ups:
                    src = ("down", level, mid, above)
                    for below in downs:
                        graph[src].add(node("down", level - 1, below, mid))
    return graph


def minimal_ecmp_dependency_graph(network: DirectNetwork) -> Graph:
    """CDG of shortest-path ECMP on a direct network (no VCs).

    Channels are directed switch pairs ``(a, b)``; for every
    destination ``d``, a channel on a shortest path toward ``d`` may
    wait on every next channel on a shortest path.
    """
    adjacency = network.adjacency()
    n = network.num_switches
    graph: Graph = {}
    for a, nbrs in enumerate(adjacency):
        for b in nbrs:
            graph.setdefault((a, b), set())
    for dest in range(n):
        dist = shortest_path_lengths(adjacency, dest)
        for a, nbrs in enumerate(adjacency):
            for b in nbrs:
                if dist[a] != dist[b] + 1 or b == dest:
                    continue
                for c in adjacency[b]:
                    if dist[c] == dist[b] - 1:
                        graph[(a, b)].add((b, c))
    return graph


def distance_class_dependency_graph(
    network: DirectNetwork, num_classes: int
) -> Graph:
    """Minimal ECMP with distance-class VCs: channel nodes carry a class.

    A packet on hop ``h`` occupies class ``min(h, num_classes - 1)``;
    the dependency goes to class ``min(h + 1, num_classes - 1)``.  With
    ``num_classes`` >= the longest route the class strictly increases
    until the cap, and the capped class only appears on final hops, so
    the CDG is acyclic; with too few classes cycles reappear at the
    cap (observable with ``num_classes = 1``, which degenerates to
    :func:`minimal_ecmp_dependency_graph`).
    """
    if num_classes < 1:
        raise ValueError("need at least one virtual-channel class")
    adjacency = network.adjacency()
    n = network.num_switches
    graph: Graph = {}

    def node(a: int, b: int, cls: int) -> Node:
        key = (a, b, cls)
        graph.setdefault(key, set())
        return key

    for dest in range(n):
        dist = shortest_path_lengths(adjacency, dest)
        if dist[dest] != 0:
            continue
        total = max(d for d in dist if d >= 0)
        for a, nbrs in enumerate(adjacency):
            if dist[a] < 0:
                continue
            for b in nbrs:
                if dist[a] != dist[b] + 1 or b == dest:
                    continue
                # A packet reaching channel (a, b) toward dest has made
                # h = route_len - dist[a] hops so far; route_len varies
                # by source, so include every feasible hop index.
                for h in range(0, total - dist[b]):
                    cls = min(h, num_classes - 1)
                    nxt_cls = min(h + 1, num_classes - 1)
                    src = node(a, b, cls)
                    for c in adjacency[b]:
                        if dist[c] == dist[b] - 1:
                            src_set = graph[src]
                            src_set.add(node(b, c, nxt_cls))
    return graph
