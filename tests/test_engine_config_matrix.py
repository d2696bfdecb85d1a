"""Engine option-interaction coverage (folded Clos only, Valiant,
iterations, arbiter x adaptive)."""

import pytest

from repro.core.rfc import rfc_with_updown
from repro.simulation.config import SimulationParams
from repro.simulation.engine import Simulator, simulate
from repro.simulation.traffic import make_traffic

FAST = SimulationParams(measure_cycles=400, warmup_cycles=120, seed=5)


class TestFoldedClosOnly:
    @pytest.mark.parametrize("rng_mode", ["exact", "relaxed"])
    def test_direct_network_rejected(self, rrn_16, rng_mode):
        """The simulator runs what the paper simulates: folded Clos
        networks.  A direct network is refused before any set-up."""
        params = FAST.scaled(rng_mode=rng_mode)
        traffic = make_traffic("uniform", rrn_16.num_terminals, rng=1)
        for run in (Simulator, simulate):
            with pytest.raises(ValueError) as excinfo:
                run(rrn_16, traffic, 0.3, params)
            message = str(excinfo.value)
            assert "FoldedClos" in message
            assert "PackedFoldedClos" in message


VALIANT = SimulationParams(measure_cycles=600, warmup_cycles=200, seed=2)


class TestValiant:
    def test_validation_needs_two_vcs(self):
        with pytest.raises(ValueError):
            SimulationParams(valiant=True, virtual_channels=1)

    def test_valiant_doubles_hops(self):
        topo, _ = rfc_with_updown(8, 24, 3, rng=6)
        traffic = make_traffic("random-pairing", topo.num_terminals, rng=7)
        minimal = simulate(topo, traffic, 0.3, VALIANT)
        traffic = make_traffic("random-pairing", topo.num_terminals, rng=7)
        valiant = simulate(topo, traffic, 0.3, VALIANT.scaled(valiant=True))
        assert valiant.avg_hops > 1.5 * minimal.avg_hops

    def test_paper_claim_minimal_beats_valiant_on_pairing(self):
        """Section 3: RFCs route adversarial traffic well above the 50%
        Valiant ceiling *without* randomization."""
        topo, _ = rfc_with_updown(8, 32, 3, rng=8)
        traffic = make_traffic("random-pairing", topo.num_terminals, rng=9)
        minimal = simulate(topo, traffic, 1.0, VALIANT)
        traffic = make_traffic("random-pairing", topo.num_terminals, rng=9)
        valiant = simulate(topo, traffic, 1.0, VALIANT.scaled(valiant=True))
        assert minimal.accepted_load > 0.5
        assert minimal.accepted_load > valiant.accepted_load

    def test_valiant_still_delivers_everything_routable(self):
        topo, _ = rfc_with_updown(8, 24, 3, rng=10)
        traffic = make_traffic("uniform", topo.num_terminals, rng=11)
        sim = Simulator(topo, traffic, 0.2, VALIANT.scaled(valiant=True))
        result = sim.run()
        assert sim.unroutable_packets == 0
        assert result.accepted_load == pytest.approx(0.2, abs=0.06)


class TestIterationInteractions:
    def test_iterations_with_adaptive(self, cft_8_3):
        params = FAST.scaled(arbitration_iterations=2,
                             up_selection="adaptive")
        traffic = make_traffic("uniform", cft_8_3.num_terminals, rng=2)
        result = simulate(cft_8_3, traffic, 0.8, params)
        assert 0.5 <= result.accepted_load <= 0.95

    def test_iterations_with_rotating_arbiter(self, cft_8_3):
        params = FAST.scaled(arbitration_iterations=3, arbiter="rotating")
        traffic = make_traffic("uniform", cft_8_3.num_terminals, rng=3)
        result = simulate(cft_8_3, traffic, 0.5, params)
        assert result.accepted_load == pytest.approx(0.5, abs=0.08)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            SimulationParams(arbitration_iterations=0)


class TestValiantWithOptions:
    def test_valiant_plus_adaptive(self, rfc_medium):
        params = FAST.scaled(valiant=True, up_selection="adaptive")
        traffic = make_traffic(
            "random-pairing", rfc_medium.num_terminals, rng=4
        )
        sim = Simulator(rfc_medium, traffic, 0.2, params)
        result = sim.run()
        assert sim.unroutable_packets == 0
        assert result.accepted_load == pytest.approx(0.2, abs=0.06)

    def test_valiant_with_two_vcs_only(self, rfc_medium):
        params = FAST.scaled(valiant=True, virtual_channels=2)
        traffic = make_traffic("uniform", rfc_medium.num_terminals, rng=5)
        result = simulate(rfc_medium, traffic, 0.2, params)
        assert result.measured_packets > 0


class TestUtilizationAcrossModes:
    @pytest.mark.parametrize("valiant", [False, True])
    def test_capacity_respected(self, rfc_medium, valiant):
        traffic = make_traffic("uniform", rfc_medium.num_terminals, rng=6)
        sim = Simulator(
            rfc_medium, traffic, 0.9, FAST.scaled(valiant=valiant)
        )
        sim.run()
        assert sim.link_utilization()["max"] <= 1.0 + 1e-9

    def test_valiant_raises_link_load(self, rfc_medium):
        means = {}
        for valiant in (False, True):
            traffic = make_traffic(
                "uniform", rfc_medium.num_terminals, rng=7
            )
            sim = Simulator(
                rfc_medium, traffic, 0.3, FAST.scaled(valiant=valiant)
            )
            sim.run()
            means[valiant] = sim.link_utilization()["mean"]
        # Doubling path lengths roughly doubles link occupancy.
        assert means[True] > 1.4 * means[False]
