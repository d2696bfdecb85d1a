"""Fault-injection machinery and resiliency metric tests."""

import random
import re

import numpy as np
import pytest

from repro.core.ancestors import sweeper_of
from repro.core.rfc import radix_regular_rfc
from repro.faults.disconnection import (
    disconnection_fraction,
    disconnection_trial,
)
from repro.faults.removal import UnionFind, failure_threshold, shuffled_links
from repro.faults.updown_survival import (
    _stage_failure_positions,
    order_threshold,
    pruned_stages,
    updown_fault_tolerance,
    updown_trial,
)
from repro.topologies.base import DirectNetwork, FoldedClos, Link
from repro.topologies.fattree import commodity_fat_tree
from repro.topologies.packed import PackedFoldedClos
from repro.topologies.rrn import random_regular_network


class TestUnionFind:
    def test_components_count(self):
        uf = UnionFind(5)
        assert uf.components == 5
        assert uf.union(0, 1)
        assert uf.union(1, 2)
        assert not uf.union(0, 2)  # already joined
        assert uf.components == 3
        assert uf.same(0, 2)
        assert not uf.same(0, 3)

    def test_all_connected(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(2, 3)
        assert uf.all_connected([0, 1])
        assert not uf.all_connected([0, 2])
        assert uf.all_connected([])


class TestFailureThreshold:
    def test_finds_exact_break(self):
        # Property survives the first 6 removals, breaks at the 7th.
        assert failure_threshold(20, lambda k: k <= 6) == 7

    def test_immediately_broken(self):
        assert failure_threshold(10, lambda k: False) == 0

    def test_never_broken(self):
        assert failure_threshold(10, lambda k: True) == 11

    def test_binary_search_probes_monotone(self):
        calls = []

        def still_ok(k):
            calls.append(k)
            return k < 50

        assert failure_threshold(1000, still_ok) == 50
        assert len(calls) < 25  # logarithmic


class TestShuffledLinks:
    def test_permutation_of_links(self, cft_4_3):
        order = shuffled_links(cft_4_3, rng=1)
        assert sorted(order) == sorted(cft_4_3.links())

    def test_seeded(self, cft_4_3):
        assert shuffled_links(cft_4_3, rng=2) == shuffled_links(cft_4_3, rng=2)


def ring_network(n=8):
    adj = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    return DirectNetwork(adj, hosts_per_switch=1, name="ring")


class TestDisconnection:
    def test_ring_needs_two_failures(self):
        # A cycle stays connected after any single removal and breaks
        # at the second (unless adjacent pair... no: any 2 removals cut
        # a cycle into two arcs unless they are the same link).
        ring = ring_network()
        for seed in range(5):
            assert disconnection_trial(ring, rng=seed) == 2

    def test_fraction_aggregates(self):
        result = disconnection_fraction(ring_network(), trials=10, rng=1)
        assert result.mean_fraction == pytest.approx(2 / 8)
        assert result.stdev_fraction == 0.0
        assert result.trials == 10

    def test_leaves_scope_tolerates_stranded_roots(self, cft_4_3):
        rng = random.Random(3)
        switch_scope = disconnection_fraction(
            cft_4_3, trials=10, rng=rng, scope="switches"
        )
        rng = random.Random(3)
        leaf_scope = disconnection_fraction(
            cft_4_3, trials=10, rng=rng, scope="leaves"
        )
        assert leaf_scope.mean_fraction >= switch_scope.mean_fraction

    def test_rejects_unknown_scope(self, cft_4_3):
        with pytest.raises(ValueError):
            disconnection_trial(cft_4_3, rng=0, scope="pods")

    def test_paper_ordering_small_scale(self, cft_8_3, rfc_medium):
        """RFC (smaller effective redundancy per wire at equal radix
        and size here) still within sane band of the CFT."""
        cft = disconnection_fraction(cft_8_3, trials=8, rng=4)
        rfc = disconnection_fraction(rfc_medium, trials=8, rng=4)
        assert 0.1 < cft.mean_fraction < 0.8
        assert 0.1 < rfc.mean_fraction < 0.8


def _binary_search_trial(network, rng, scope):
    """Table 3 by binary search: a fresh union-find per probe."""
    pairs = shuffled_links(network, rng=rng).pairs.tolist()
    n = network.num_switches
    if scope == "switches":
        watched = None
    elif isinstance(network, FoldedClos):
        watched = list(range(network.num_leaves))
    else:
        watched = list(range(n))

    def still_ok(k):
        uf = UnionFind(n)
        for lo, hi in pairs[k:]:
            uf.union(lo, hi)
        if watched is None:
            return uf.components == 1
        return uf.all_connected(watched)

    return failure_threshold(len(pairs), still_ok)


class TestDisconnectionSinglePass:
    """One reverse union-find pass against the binary-search oracle."""

    @pytest.fixture(scope="class")
    def pin_networks(self):
        return {
            "rfc": radix_regular_rfc(8, 16, 3, rng=5),
            "cft": commodity_fat_tree(4, 3),
            "rrn": random_regular_network(20, 4, 2, rng=3),
        }

    @pytest.mark.parametrize("scope", ["switches", "leaves"])
    @pytest.mark.parametrize("name", ["rfc", "cft", "rrn"])
    def test_matches_binary_search(self, pin_networks, name, scope):
        network = pin_networks[name]
        for seed in range(8):
            expected = _binary_search_trial(network, seed, scope)
            assert disconnection_trial(network, rng=seed, scope=scope) == expected

    @pytest.mark.parametrize("scope", ["switches", "leaves"])
    def test_rng_stream_matches_binary_search(self, pin_networks, scope):
        rand, oracle_rand = random.Random(6), random.Random(6)
        for _ in range(4):
            assert disconnection_trial(
                pin_networks["rfc"], rng=rand, scope=scope
            ) == _binary_search_trial(pin_networks["rfc"], oracle_rand, scope)
        assert rand.getstate() == oracle_rand.getstate()

    @pytest.mark.parametrize(
        "network, scope, expected",
        [
            # Never connected: two separate cables.
            (DirectNetwork([[1], [0], [3], [2]], 1), "switches", 0),
            (DirectNetwork([[1], [0], [3], [2]], 1), "leaves", 0),
            # Connected with no links: one switch, one watched leaf.
            (DirectNetwork([[]], 1), "switches", 1),
            (FoldedClos([1, 2], [[[0, 1]]], 2, 4), "leaves", 3),
            (FoldedClos([1, 2], [[[0, 1]]], 2, 4), "switches", None),
            # No switches: never one component, but no leaf to lose.
            (DirectNetwork([], 1), "switches", 0),
            (DirectNetwork([], 1), "leaves", 1),
        ],
    )
    def test_edge_cases(self, network, scope, expected):
        for seed in range(3):
            oracle = _binary_search_trial(network, seed, scope)
            if expected is not None:
                assert oracle == expected
            assert disconnection_trial(network, rng=seed, scope=scope) == oracle


class TestUpdownSurvival:
    def test_oft2_zero_tolerance(self, oft_q2_l2):
        """Any single failure kills a unique-path pair (paper §7)."""
        for seed in range(4):
            assert updown_trial(oft_q2_l2, rng=seed) == 0

    def test_rfc_positive_tolerance(self, rfc_medium):
        result = updown_fault_tolerance(rfc_medium, trials=5, rng=2)
        assert result.mean_fraction > 0.0
        assert result.total_links == rfc_medium.num_links

    def test_pruned_stages_removes_both_views(self, rfc_small):
        link = rfc_small.links()[0]
        stages = pruned_stages(rfc_small, {link})
        level, index = rfc_small.switch_level(link.lo)
        _, upper = rfc_small.switch_level(link.hi)
        assert upper not in stages[level][index]

    def test_tolerance_decreases_near_capacity(self):
        """Radix slack buys fault tolerance (Figure 11's message)."""
        from repro.core.rfc import rfc_with_updown

        small, _ = rfc_with_updown(8, 16, 3, rng=1)   # far below cap 52
        large, _ = rfc_with_updown(8, 48, 3, rng=1)   # near cap
        tol_small = updown_fault_tolerance(small, trials=5, rng=3)
        tol_large = updown_fault_tolerance(large, trials=5, rng=3)
        assert tol_small.mean_fraction > tol_large.mean_fraction


def _dict_positions(topo, sweeper, order):
    """Per-link dict mapping of failure positions (the loop reference)."""
    first_position = {}
    for position, link in enumerate(order):
        first_position.setdefault((link.lo, link.hi), position)
    never = len(order)
    positions = []
    for stage, (src, dst) in enumerate(sweeper.edge_keys()):
        lo = (src + topo.switch_id(stage, 0)).tolist()
        hi = (dst + topo.switch_id(stage + 1, 0)).tolist()
        positions.append(
            np.array(
                [first_position.get(pair, never) for pair in zip(lo, hi)],
                dtype=np.int64,
            )
        )
    return positions


@pytest.fixture(scope="module")
def diff_rfc():
    """The ``BENCH_graphs.json`` differential topology."""
    return radix_regular_rfc(16, 512, 3, rng=11)


class TestFailurePositions:
    @pytest.fixture(params=["list", "packed"])
    def topo(self, request, rfc_medium):
        if request.param == "packed":
            return PackedFoldedClos.from_folded(rfc_medium)
        return rfc_medium

    def _orders(self, topo):
        order = shuffled_links(topo, rng=4)
        rand = random.Random(9)
        doubled = order[:40] + rand.sample(order, 60) + order[40:]
        return {
            "full": order,
            "duplicates": doubled,
            "truncated": order[: len(order) // 3],
            "empty": [],
        }

    def test_matches_dict_mapping(self, topo):
        sweeper = sweeper_of(topo)
        for name, order in self._orders(topo).items():
            fast = _stage_failure_positions(topo, sweeper, order)
            slow = _dict_positions(topo, sweeper, order)
            assert len(fast) == len(slow), name
            for got, want in zip(fast, slow):
                np.testing.assert_array_equal(got, want, err_msg=name)

    def test_duplicates_and_truncation_agree_with_reference(self, topo):
        for name, order in self._orders(topo).items():
            assert order_threshold(topo, order) == order_threshold(
                topo, order, accel=False
            ), name


class TestOrderThreshold:
    def test_bench_differential_threshold(self, diff_rfc):
        order = shuffled_links(diff_rfc, rng=7)
        packed = PackedFoldedClos.from_folded(diff_rfc)
        assert order_threshold(diff_rfc, order) == 105
        assert order_threshold(packed, order) == 105
        assert order_threshold(diff_rfc, order, accel=False) == 105

    @pytest.mark.parametrize("accel", [True, False])
    @pytest.mark.parametrize("kind", ["same-level", "skips-level", "out-of-range"])
    def test_foreign_link_raises(self, rfc_small, accel, kind):
        topo = rfc_small
        foreign = {
            "same-level": Link(topo.switch_id(0, 0), topo.switch_id(0, 1)),
            "skips-level": Link(topo.switch_id(0, 0), topo.switch_id(2, 0)),
            "out-of-range": Link(0, topo.num_switches + 3),
        }[kind]
        order = list(shuffled_links(topo, rng=1))
        order.insert(7, foreign)
        order.insert(11, Link(topo.num_switches + 9, topo.num_switches + 10))
        with pytest.raises(ValueError, match=re.escape(str(foreign))):
            order_threshold(topo, order, accel=accel)

    @pytest.mark.parametrize("accel", [True, False])
    def test_truncated_order_still_works(self, rfc_small, accel):
        order = shuffled_links(rfc_small, rng=2)
        full = order_threshold(rfc_small, order, accel=accel)
        assert order_threshold(rfc_small, order[:full], accel=accel) == full
        assert order_threshold(rfc_small, order[: full + 1], accel=accel) == full
