"""Failure orders as pair arrays: bit-identical to shuffled ``Link`` lists.

The digests, RNG draws and cache keys below were recorded when
``shuffled_links`` still shuffled ``network.links()`` in place; the
index-permutation order must reproduce them exactly.
"""

import hashlib
import json
import pickle
import random

import numpy as np
import pytest

from repro.core.rfc import radix_regular_rfc
from repro.exec.cache import cache_key, topology_digest
from repro.experiments.fig12_faulty_throughput import saturation_tasks
from repro.faults import FailureOrder
from repro.faults.disconnection import disconnection_fraction
from repro.faults.removal import shuffled_links
from repro.faults.updown_survival import order_threshold, updown_fault_tolerance
from repro.simulation import SimulationParams
from repro.topologies.base import Link
from repro.topologies.fattree import commodity_fat_tree
from repro.topologies.packed import PackedFoldedClos
from repro.topologies.rrn import random_regular_network


@pytest.fixture(scope="module")
def pin_rfc():
    return radix_regular_rfc(8, 16, 3, rng=5)


@pytest.fixture(scope="module")
def pin_rrn():
    return random_regular_network(20, 4, 2, rng=3)


@pytest.fixture(scope="module")
def pin_topos(pin_rfc, pin_rrn):
    return {
        "rfc": pin_rfc,
        "packed": PackedFoldedClos.from_folded(pin_rfc),
        "cft": commodity_fat_tree(4, 3),
        "rrn": pin_rrn,
    }


ORDER_DIGESTS = {
    ("rfc", 0): "0332d76dcd3aad07c619f9aa8fcb818f71ae21063ad58fc20c63fd540c4c4139",
    ("rfc", 7): "d6795da61665a173e3a272b09e17741931f6fe9eb36e0e86dcffbb811fe6e0ba",
    ("packed", 0): "0332d76dcd3aad07c619f9aa8fcb818f71ae21063ad58fc20c63fd540c4c4139",
    ("packed", 7): "d6795da61665a173e3a272b09e17741931f6fe9eb36e0e86dcffbb811fe6e0ba",
    ("cft", 0): "b8144f922c200daeb3fdfd572262634470c8277afe0cc9c08d63a7fb40465400",
    ("cft", 7): "65438ca1506b0a3acf86eed0ef2bde0c4f393c378d4d821d126c0470acf4cae7",
    ("rrn", 0): "c8181fc63d671380223b5dcc432fb0867c878bafdfda6e096b45ca32d8297f25",
    ("rrn", 7): "1ad4b7dae509ca27b80ee6f191fe8c6e46b5707793220ad362c7f1915203ac9e",
}

SATURATION_KEYS = {
    0: "3f420af79a2fcd85b72f96edde35dc027fd74178d94721349bc2d96dff635ade",
    5: "61c40115bd61f7013993912e94460127995ba2c42f22df53265418cd50710da6",
    12: "c4b794a2d3fffdbb1ae28f41a862ccbefbe0fb0c704778e7df2a2b447d979fdb",
}


class TestOrderPins:
    @pytest.mark.parametrize("name, seed", sorted(ORDER_DIGESTS))
    def test_order_digest(self, pin_topos, name, seed):
        order = shuffled_links(pin_topos[name], rng=seed)
        # repr() of numpy ints differs from Python ints, so the digest
        # also pins that the Links carry plain ints.
        text = repr([(link.lo, link.hi) for link in order])
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == ORDER_DIGESTS[name, seed]

    def test_rng_stream_after_updown_fault_tolerance(self):
        rand = random.Random(3)
        result = updown_fault_tolerance(commodity_fat_tree(4, 3), trials=3, rng=rand)
        assert result.mean_fraction == 0.08333333333333333
        assert rand.random() == 0.4271417615472666

    def test_rng_stream_after_disconnection_fraction(self, pin_rrn):
        rand = random.Random(3)
        result = disconnection_fraction(pin_rrn, trials=3, rng=rand)
        assert result.mean_fraction == 0.39999999999999997
        assert rand.random() == 0.9798862775249707

    def test_saturation_task_cache_keys(self, pin_rfc):
        params = SimulationParams(measure_cycles=100, warmup_cycles=10)
        tasks = saturation_tasks(pin_rfc, "uniform", [0, 5, 12], params, seed=2)
        digest = topology_digest(pin_rfc)
        for task in tasks:
            assert isinstance(task.removed_links, tuple)
            assert all(type(link) is Link for link in task.removed_links)
            key = cache_key(
                digest,
                task.traffic_name,
                task.load,
                task.params,
                task.traffic_seed,
                task.removed_links,
                workload=task.workload,
            )
            assert key == SATURATION_KEYS[len(task.removed_links)]


class TestFailureOrder:
    def test_reads_as_link_sequence(self, pin_rfc):
        order = shuffled_links(pin_rfc, rng=1)
        links = list(order)
        assert isinstance(order, FailureOrder)
        assert len(order) == len(links) == pin_rfc.num_links
        assert order == links and links == order
        assert order == tuple(links)
        assert order != links[::-1]
        assert order[3] == links[3] and order[-1] == links[-1]
        assert order[2:9] == links[2:9]
        assert type(order[2:9]) is list
        assert all(type(link.lo) is int and type(link.hi) is int for link in order)
        json.dumps([[link.lo, link.hi] for link in order[:5]])

    def test_pairs_are_the_permuted_link_array(self, pin_rfc):
        order = shuffled_links(pin_rfc, rng=1)
        assert order.pairs.dtype == np.int32
        assert order.pairs.shape == (pin_rfc.num_links, 2)
        assert not order.pairs.flags.writeable
        assert sorted(map(tuple, order.pairs.tolist())) == sorted(
            map(tuple, pin_rfc.links_array().tolist())
        )

    def test_rejects_unnormalized_pairs(self):
        with pytest.raises(ValueError, match="lo < hi"):
            FailureOrder([[3, 1]])

    def test_pickles_as_pair_array(self):
        topo = PackedFoldedClos.from_folded(radix_regular_rfc(16, 256, 3, rng=1))
        order = shuffled_links(topo, rng=2)
        blob = pickle.dumps(order)
        assert len(blob) <= 9 * len(order) + 4096
        clone = pickle.loads(blob)
        assert clone == order
        assert not clone.pairs.flags.writeable

    @pytest.mark.parametrize("accel", [True, False])
    def test_threshold_matches_link_list(self, pin_rfc, accel):
        for seed in range(4):
            order = shuffled_links(pin_rfc, rng=seed)
            assert order_threshold(pin_rfc, order, accel=accel) == order_threshold(
                pin_rfc, list(order), accel=accel
            )
