"""Channel-dependency-graph deadlock analysis tests.

These verify the paper's routing claims formally (Section 1/4.1):
up/down routing on any folded Clos is deadlock-free without virtual
channels; minimal routing on cyclic direct networks is not; distance-
class VCs restore acyclicity.
"""

import pytest

from repro.routing.deadlock import (
    distance_class_dependency_graph,
    has_cycle,
    minimal_ecmp_dependency_graph,
    updown_dependency_graph,
)
from repro.routing.shortest import shortest_path_lengths
from repro.topologies.base import DirectNetwork


def ring(n=8):
    return DirectNetwork(
        [[(i - 1) % n, (i + 1) % n] for i in range(n)],
        hosts_per_switch=1,
        name="ring",
    )


class TestHasCycle:
    def test_dag(self):
        graph = {1: {2, 3}, 2: {3}, 3: set()}
        assert not has_cycle(graph)

    def test_self_loop(self):
        assert has_cycle({1: {1}})

    def test_long_cycle(self):
        graph = {i: {(i + 1) % 5} for i in range(5)}
        assert has_cycle(graph)

    def test_empty(self):
        assert not has_cycle({})


class TestUpDownAcyclic:
    def test_cft(self, cft_8_3):
        assert not has_cycle(updown_dependency_graph(cft_8_3))

    def test_rfc(self, rfc_medium):
        assert not has_cycle(updown_dependency_graph(rfc_medium))

    def test_oft(self, oft_q3_l3):
        assert not has_cycle(updown_dependency_graph(oft_q3_l3))

    def test_two_level(self, oft_q2_l2):
        assert not has_cycle(updown_dependency_graph(oft_q2_l2))

    def test_channel_count(self, cft_4_3):
        graph = updown_dependency_graph(cft_4_3)
        # Two directed dependency nodes per physical cable.
        assert len(graph) == 2 * cft_4_3.num_links

    def test_turns_exist(self, cft_4_3):
        """Ascent -> descent turns must be present (routes do turn)."""
        graph = updown_dependency_graph(cft_4_3)
        turns = sum(
            1
            for src, dsts in graph.items()
            if src[0] == "up" and any(d[0] == "down" for d in dsts)
        )
        assert turns > 0


class TestDirectNetworksCyclic:
    def test_ring_minimal_routing_deadlock_prone(self):
        """The textbook case: minimal routing on a ring has CDG cycles."""
        assert has_cycle(minimal_ecmp_dependency_graph(ring()))

    def test_rrn_deadlock_prone(self, rrn_16):
        """Paper Section 1: direct random networks embed cycles."""
        assert has_cycle(minimal_ecmp_dependency_graph(rrn_16))

    def test_tree_is_fine(self):
        # A direct network that happens to be a tree cannot cycle.
        star = DirectNetwork(
            [[1, 2, 3], [0], [0], [0]], hosts_per_switch=1
        )
        assert not has_cycle(minimal_ecmp_dependency_graph(star))


class TestDistanceClassVCs:
    def test_enough_classes_break_cycles(self, rrn_16):
        adj = rrn_16.adjacency()
        n = rrn_16.num_switches
        longest = max(max(shortest_path_lengths(adj, d)) for d in range(n))
        graph = distance_class_dependency_graph(rrn_16, longest + 1)
        assert not has_cycle(graph)

    def test_single_class_still_cyclic(self, rrn_16):
        assert has_cycle(distance_class_dependency_graph(rrn_16, 1))

    def test_ring_with_classes(self):
        net = ring(6)  # diameter 3
        assert not has_cycle(distance_class_dependency_graph(net, 4))

    def test_rejects_zero_classes(self, rrn_16):
        with pytest.raises(ValueError):
            distance_class_dependency_graph(rrn_16, 0)
