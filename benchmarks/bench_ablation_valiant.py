"""Ablation benchmark: minimal up/down vs Valiant randomization.

Paper Section 3: dragonflies need Valiant routing (50% peak) for
adversarial traffic, while RFCs route it "with much more than 50%
performance, even without using any randomization mechanism".  This
ablation measures both policies on the same RFC under random-pairing.
"""

from repro.core.rfc import rfc_with_updown
from repro.simulation.config import SimulationParams
from repro.simulation.engine import simulate
from repro.simulation.traffic import make_traffic

_PARAMS = SimulationParams(measure_cycles=800, warmup_cycles=250, seed=0)


def _pairing_saturation(topo, valiant: bool) -> float:
    traffic = make_traffic("random-pairing", topo.num_terminals, rng=5)
    params = _PARAMS.scaled(valiant=valiant)
    return simulate(topo, traffic, 1.0, params).accepted_load


def test_minimal_updown(benchmark):
    topo, _ = rfc_with_updown(8, 32, 3, rng=4)
    accepted = benchmark.pedantic(
        lambda: _pairing_saturation(topo, False), rounds=2, iterations=1
    )
    print(f"\nminimal up/down pairing saturation: {accepted:.3f}")
    assert accepted > 0.5  # the paper's >50%-without-Valiant claim


def test_valiant_randomized(benchmark):
    topo, _ = rfc_with_updown(8, 32, 3, rng=4)
    accepted = benchmark.pedantic(
        lambda: _pairing_saturation(topo, True), rounds=2, iterations=1
    )
    print(f"\nValiant pairing saturation: {accepted:.3f}")
    assert accepted < 0.6  # pays the randomization tax

