"""Extended traffic patterns and per-stage utilization tests."""

import random
from collections import Counter

import pytest

from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator
from repro.simulation.traffic import (
    EXTENDED_TRAFFIC_NAMES,
    LocalityTraffic,
    ShuffleTraffic,
    make_traffic,
)

FAST = SimulationParams(measure_cycles=500, warmup_cycles=150, seed=2)


class TestLocalityTraffic:
    def test_stays_local_mostly(self):
        traffic = LocalityTraffic(32, group_size=4, locality=0.9)
        rng = random.Random(1)
        local = 0
        for _ in range(1_000):
            dest = traffic.destination(5, rng)
            assert dest != 5
            if dest // 4 == 1:
                local += 1
        assert local > 700

    def test_zero_locality_is_uniform(self):
        traffic = LocalityTraffic(16, group_size=4, locality=0.0)
        rng = random.Random(2)
        groups = Counter(
            traffic.destination(0, rng) // 4 for _ in range(2_000)
        )
        assert len(groups) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalityTraffic(8, group_size=0)
        with pytest.raises(ValueError):
            LocalityTraffic(8, locality=1.5)

    def test_local_traffic_cheaper_on_clos(self, cft_8_3):
        """Rack-local traffic takes fewer hops than uniform."""
        from repro.simulation.engine import simulate

        local = LocalityTraffic(
            cft_8_3.num_terminals,
            group_size=cft_8_3.hosts_per_leaf,
            locality=0.8,
        )
        uniform = make_traffic("uniform", cft_8_3.num_terminals, rng=3)
        r_local = simulate(cft_8_3, local, 0.4, FAST)
        r_uniform = simulate(cft_8_3, uniform, 0.4, FAST)
        assert r_local.avg_hops < r_uniform.avg_hops


class TestShuffleTraffic:
    def test_instantaneous_permutation(self):
        traffic = ShuffleTraffic(8)
        rng = random.Random(4)
        first_round = [traffic.destination(s, rng) for s in range(8)]
        assert sorted(first_round) == sorted((s + 1) % 8 for s in range(8))

    def test_covers_all_destinations_over_time(self):
        traffic = ShuffleTraffic(6)
        rng = random.Random(5)
        seen = {traffic.destination(2, rng) for _ in range(10)}
        assert seen == {0, 1, 3, 4, 5}

    def test_never_self(self):
        traffic = ShuffleTraffic(5)
        rng = random.Random(6)
        for _ in range(25):
            for s in range(5):
                assert traffic.destination(s, rng) != s

    def test_simulates(self, cft_8_3):
        from repro.simulation.engine import simulate

        traffic = make_traffic("shuffle", cft_8_3.num_terminals)
        result = simulate(cft_8_3, traffic, 0.5, FAST)
        assert result.accepted_load == pytest.approx(0.5, abs=0.1)


class TestFactoryExtended:
    def test_all_names(self):
        for name in EXTENDED_TRAFFIC_NAMES:
            assert make_traffic(name, 16, rng=0).name == name


class TestStageUtilization:
    def test_keys_and_bounds(self, rfc_medium):
        traffic = make_traffic("uniform", rfc_medium.num_terminals, rng=7)
        sim = Simulator(rfc_medium, traffic, 0.7, FAST)
        sim.run()
        stages = sim.stage_utilization()
        assert set(stages) == {"0->1 up", "1->0 down", "1->2 up", "2->1 down"}
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in stages.values())

    def test_rfc_loads_stages_evenly_under_uniform(self, rfc_medium):
        traffic = make_traffic("uniform", rfc_medium.num_terminals, rng=8)
        sim = Simulator(rfc_medium, traffic, 0.6, FAST)
        sim.run()
        stages = sim.stage_utilization()
        values = list(stages.values())
        assert max(values) < 2.5 * min(values)
