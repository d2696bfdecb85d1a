"""Shortest-path and k-shortest-path routing tests."""

import networkx as nx

from repro.routing.shortest import (
    k_shortest_paths,
    shortest_path,
    shortest_path_lengths,
)


def ladder():
    """0-1-2-3 path plus chord 0-3 (two routes between 0 and 3)."""
    return [[1, 3], [0, 2], [1, 3], [2, 0]]


class TestShortestPath:
    def test_direct(self):
        assert shortest_path(ladder(), 0, 3) == [0, 3]

    def test_self(self):
        assert shortest_path(ladder(), 2, 2) == [2]

    def test_disconnected(self):
        assert shortest_path([[1], [0], []], 0, 2) is None

    def test_lengths(self):
        assert shortest_path_lengths(ladder(), 0) == [0, 1, 2, 1]

    def test_cross_check_networkx(self, rrn_16):
        adj = rrn_16.adjacency()
        graph = rrn_16.to_networkx()
        for src in range(0, 16, 3):
            ours = shortest_path_lengths(adj, src)
            theirs = nx.single_source_shortest_path_length(graph, src)
            for v in range(16):
                assert ours[v] == theirs[v]


class TestKShortest:
    def test_orders_by_length(self):
        paths = k_shortest_paths(ladder(), 0, 2, 4)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)
        assert paths[0] in ([0, 1, 2], [0, 3, 2])

    def test_paths_distinct_and_simple(self, rrn_16):
        adj = rrn_16.adjacency()
        paths = k_shortest_paths(adj, 0, 9, 6)
        assert len({tuple(p) for p in paths}) == len(paths)
        for path in paths:
            assert len(set(path)) == len(path)  # loopless
            assert path[0] == 0 and path[-1] == 9
            for a, b in zip(path, path[1:]):
                assert b in adj[a]

    def test_k1_is_shortest(self, rrn_16):
        adj = rrn_16.adjacency()
        [only] = k_shortest_paths(adj, 0, 5, 1)
        assert len(only) == len(shortest_path(adj, 0, 5))

    def test_disconnected_empty(self):
        assert k_shortest_paths([[1], [0], []], 0, 2, 3) == []

    def test_k_zero(self):
        assert k_shortest_paths(ladder(), 0, 2, 0) == []

    def test_exhausts_small_graph(self):
        # Triangle: exactly two simple paths 0->2.
        tri = [[1, 2], [0, 2], [0, 1]]
        paths = k_shortest_paths(tri, 0, 2, 10)
        assert sorted(paths) == [[0, 1, 2], [0, 2]]

    def test_cross_check_networkx(self, rrn_16):
        graph = rrn_16.to_networkx()
        ours = k_shortest_paths(rrn_16.adjacency(), 2, 11, 5)
        theirs = []
        for i, path in enumerate(
            nx.shortest_simple_paths(graph, 2, 11)
        ):
            if i == 5:
                break
            theirs.append(path)
        assert [len(p) for p in ours] == [len(p) for p in theirs]
