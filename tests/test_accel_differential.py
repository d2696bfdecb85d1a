"""Differential harness: numpy kernels vs pure-Python reference.

The contract of :mod:`repro.accel` is *bit-for-bit* equality with the
reference implementations it replaces -- same distances, same packed
masks after conversion, same router tables, same fault thresholds,
same exceptions.  This suite enforces the contract on a randomized
matrix of RFC, CFT and RRN instances: any divergence is a kernel bug
by definition, never a tolerance question.

The relaxed engine (``rng_mode="relaxed"``) is the one deliberate
exception -- it is *not* held to bit-for-bit equality (see
``test_relaxed_rng_equivalence.py``), but it must not *perturb* the
engines that are: ``TestRelaxedNoPerturbation`` runs a relaxed
simulation first and then re-checks the exact engines against the
golden pins in the same process.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.ancestors import (
    descendant_leaf_sets,
    has_updown_routing,
    root_ancestor_sets,
    stages_of,
    updown_coverage,
    updown_reachable_fraction,
)
from repro.core.rfc import radix_regular_rfc
from repro.faults.removal import shuffled_links
from repro.faults.updown_survival import order_threshold
from repro.graphs.connectivity import (
    adjacency_without_links,
    connected_components,
    connects_all,
    is_connected,
)
from repro.graphs.metrics import (
    average_distance,
    bfs_distances,
    diameter,
    distance_histogram,
    leaf_diameter,
)
from repro.routing.updown import UpDownRouter
from repro.topologies.fattree import commodity_fat_tree
from repro.topologies.rrn import random_regular_network


def _instances():
    """The randomized topology matrix, as (label, network) pairs."""
    pairs = [
        ("cft_4_3", commodity_fat_tree(4, 3)),
        ("cft_6_2", commodity_fat_tree(6, 2)),
        ("rrn_24", random_regular_network(24, 4, 2, rng=5)),
        ("rrn_40", random_regular_network(40, 5, 2, rng=9)),
    ]
    for seed in (1, 2, 3):
        pairs.append(
            (f"rfc_s{seed}", radix_regular_rfc(8, 24, 3, rng=seed))
        )
    pairs.append(("rfc_l2", radix_regular_rfc(10, 30, 2, rng=4)))
    return pairs


INSTANCES = _instances()
IDS = [label for label, _ in INSTANCES]
NETWORKS = [net for _, net in INSTANCES]


@pytest.fixture(params=NETWORKS, ids=IDS)
def network(request):
    return request.param


@pytest.fixture(params=NETWORKS, ids=IDS)
def adjacency(request):
    return request.param.adjacency()


class TestDistanceEquality:
    def test_bfs_distances(self, adjacency):
        for source in range(0, len(adjacency), 7):
            assert bfs_distances(adjacency, source, accel=True) == \
                bfs_distances(adjacency, source, accel=False)

    def test_diameter_full(self, adjacency):
        assert diameter(adjacency, accel=True) == \
            diameter(adjacency, accel=False)

    def test_diameter_sampled_same_sources(self, adjacency):
        # Identical rng seeds draw identical source samples, so the
        # sampled lower bounds must agree exactly too.
        sample = max(2, len(adjacency) // 3)
        assert diameter(adjacency, sample=sample, rng=13, accel=True) == \
            diameter(adjacency, sample=sample, rng=13, accel=False)

    def test_average_distance(self, adjacency):
        assert average_distance(adjacency, accel=True) == \
            average_distance(adjacency, accel=False)

    def test_distance_histogram(self, adjacency):
        assert distance_histogram(adjacency, accel=True) == \
            distance_histogram(adjacency, accel=False)

    def test_leaf_diameter(self, network):
        adjacency = network.adjacency()
        leaves = [
            network.terminal_switch(t) for t in range(network.num_terminals)
        ]
        assert leaf_diameter(adjacency, leaves, accel=True) == \
            leaf_diameter(adjacency, leaves, accel=False)


class TestConnectivityEquality:
    def test_components_intact(self, adjacency):
        assert connected_components(adjacency, accel=True) == \
            connected_components(adjacency, accel=False)

    def test_components_after_removal(self, network):
        rand = random.Random(17)
        links = list(network.links())
        removed = [
            tuple(link) for link in rand.sample(links, len(links) // 2)
        ]
        pruned = adjacency_without_links(network.adjacency(), removed)
        assert connected_components(pruned, accel=True) == \
            connected_components(pruned, accel=False)
        assert is_connected(pruned, accel=True) == \
            is_connected(pruned, accel=False)
        leaves = [
            network.terminal_switch(t) for t in range(network.num_terminals)
        ]
        assert connects_all(pruned, leaves, accel=True) == \
            connects_all(pruned, leaves, accel=False)


def _folded_clos_instances():
    return [
        (label, net) for label, net in INSTANCES if hasattr(net, "up_neighbors")
    ]


FC_INSTANCES = _folded_clos_instances()


@pytest.fixture(
    params=[net for _, net in FC_INSTANCES],
    ids=[label for label, _ in FC_INSTANCES],
)
def folded(request):
    return request.param


class TestSweepEquality:
    def test_descendant_sets(self, folded):
        sizes, stages = folded.level_sizes, stages_of(folded)
        assert descendant_leaf_sets(sizes, stages, accel=True) == \
            descendant_leaf_sets(sizes, stages, accel=False)

    def test_coverage(self, folded):
        sizes, stages = folded.level_sizes, stages_of(folded)
        assert updown_coverage(sizes, stages, accel=True) == \
            updown_coverage(sizes, stages, accel=False)

    def test_has_updown_and_fraction(self, folded):
        sizes, stages = folded.level_sizes, stages_of(folded)
        assert has_updown_routing(sizes, stages, accel=True) == \
            has_updown_routing(sizes, stages, accel=False)
        assert updown_reachable_fraction(sizes, stages, accel=True) == \
            updown_reachable_fraction(sizes, stages, accel=False)

    def test_root_ancestors(self, folded):
        sizes, stages = folded.level_sizes, stages_of(folded)
        assert root_ancestor_sets(sizes, stages, accel=True) == \
            root_ancestor_sets(sizes, stages, accel=False)

    def test_pruned_stage_equality(self, folded):
        # Delete a deterministic third of each stage's edges from the
        # Python lists; the masked accel sweep must match the reference
        # sweep over the pruned lists exactly.
        sizes, stages = folded.level_sizes, stages_of(folded)
        rand = random.Random(23)
        pruned = []
        for rows in stages:
            pruned.append(
                [
                    [t for t in row if rand.random() > 1 / 3]
                    for row in rows
                ]
            )
        assert updown_coverage(sizes, pruned, accel=True) == \
            updown_coverage(sizes, pruned, accel=False)
        assert has_updown_routing(sizes, pruned, accel=True) == \
            has_updown_routing(sizes, pruned, accel=False)


class TestRouterTableEquality:
    def test_reach_tables(self, folded):
        fast = UpDownRouter.for_topology(folded, accel=True)
        slow = UpDownRouter.for_topology(folded, accel=False)
        assert fast._reach == slow._reach


class TestFaultThresholdEquality:
    def test_order_thresholds(self, folded):
        for seed in (0, 1, 2):
            order = shuffled_links(folded, rng=seed)
            assert order_threshold(folded, order, accel=True) == \
                order_threshold(folded, order, accel=False)


class TestRelaxedNoPerturbation:
    """Exact engines stay bit-for-bit pinned after a relaxed run.

    The relaxed engine shares the simulator's state and cached route
    tables with the exact engines.  Running it must leave no trace: a
    relaxed simulation executed *first* in the same process may not
    change a single bit of any exact engine's subsequent output vs the
    golden snapshot ``tests/data/golden_load_sweep.json``.
    """

    GOLDEN = Path(__file__).parent / "data" / "golden_load_sweep.json"

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(self.GOLDEN.read_text())

    @pytest.fixture(scope="class")
    def golden_topo(self):
        from repro.core.rfc import rfc_with_updown

        topo, _ = rfc_with_updown(8, 16, 3, rng=7)
        return topo

    @pytest.fixture(scope="class", autouse=True)
    def relaxed_run_first(self, golden_topo):
        """Exercise the relaxed code paths before any exact check."""
        from repro.simulation.config import SimulationParams
        from repro.simulation.engine import simulate
        from repro.simulation.traffic import make_traffic

        params = SimulationParams(
            measure_cycles=400,
            warmup_cycles=100,
            seed=3,
            rng_mode="relaxed",
        )
        traffic = make_traffic(
            "uniform", golden_topo.num_terminals, rng=params.seed + 7_919
        )
        result = simulate(golden_topo, traffic, 0.5, params)
        assert result.delivered_packets > 0
        return result

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_exact_engines_unperturbed(self, golden_topo, golden, engine):
        from oracle_engine import engine_context
        from repro.simulation.config import SimulationParams
        from repro.simulation.engine import load_sweep

        params = SimulationParams(measure_cycles=400, warmup_cycles=100, seed=3)
        with engine_context(engine):
            results = load_sweep(
                golden_topo, "uniform", [0.2, 0.5, 0.8], params
            )
        assert [r.core_dict() for r in results] == golden

    def test_relaxed_differs_from_exact_pins(self, relaxed_run_first, golden):
        """Sanity guard on the guard: the relaxed result really does
        come from a different draw sequence, so a silent fall-through
        to an exact engine would be caught here."""
        exact_mid = golden[1]  # load 0.5 entry of the sweep
        assert relaxed_run_first.core_dict() != exact_mid


class TestFallbacks:
    def test_empty_graph(self):
        # n == 0 falls back to the reference path automatically.
        assert connected_components([], accel=True) == []
        assert is_connected([], accel=True) is True

    def test_empty_leaf_level(self):
        # n1 == 0 falls back to the reference sweep automatically.
        assert has_updown_routing([0, 0], [[]], accel=True) is True

    def test_identical_exceptions(self, folded):
        # Disconnect one switch completely; both engines must raise the
        # same message.
        adjacency = [list(r) for r in folded.adjacency()]
        victim = adjacency[0][0]
        for nbr in adjacency[victim]:
            adjacency[nbr] = [v for v in adjacency[nbr] if v != victim]
        adjacency[victim] = []
        for accel in (True, False):
            with pytest.raises(ValueError, match="graph is disconnected"):
                diameter(adjacency, accel=accel)
