"""Golden-snapshot determinism gate for the cycle-level simulator.

``tests/data/golden_load_sweep.json`` was captured from the engine
*before* the observability layer landed.  Reproducing it bit-for-bit
proves two things at once: the engine is still deterministic across
runs, and threading observer hooks through the hot loops changed no
simulated number.  If an intentional engine change breaks this,
regenerate the snapshot with the recipe below and say so in the
commit message.

Recipe::

    topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    params = SimulationParams(measure_cycles=400, warmup_cycles=100, seed=3)
    results = load_sweep(topo, "uniform", [0.2, 0.5, 0.8], params)
    json.dump([r.core_dict() for r in results], fh, indent=1, sort_keys=True)
"""

import json
from pathlib import Path

import pytest

from repro.core.rfc import rfc_with_updown
from repro.obs import MetricsObserver
from repro.simulation.config import SimulationParams
from repro.simulation.engine import load_sweep, simulate
from repro.simulation.traffic import make_traffic

from oracle_engine import engine_context

GOLDEN = Path(__file__).parent / "data" / "golden_load_sweep.json"
GOLDEN_BENCH = Path(__file__).parent / "data" / "golden_vectorized_bench.json"
PARAMS = SimulationParams(measure_cycles=400, warmup_cycles=100, seed=3)
LOADS = [0.2, 0.5, 0.8]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def topo():
    topo, _ = rfc_with_updown(8, 16, 3, rng=7)
    return topo


def test_load_sweep_matches_golden(topo, golden):
    results = load_sweep(topo, "uniform", LOADS, PARAMS)
    assert [r.core_dict() for r in results] == golden


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_every_engine_matches_golden(topo, golden, engine):
    """Each engine reproduces the pre-fast-path snapshot -- pinning
    *all* engines to the same bit-for-bit history, not just to each
    other."""
    with engine_context(engine):
        results = load_sweep(topo, "uniform", LOADS, PARAMS)
    assert [r.core_dict() for r in results] == golden


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_every_engine_matches_bench_golden(engine):
    """Golden-signature pin on (a scaled-down cut of) the
    ``BENCH_engine.json`` workload.  The snapshot was captured from the
    *reference* engine, so on ``fast`` this is also a cross-engine pin.

    Recipe::

        topo, _ = rfc_with_updown(8, 32, 3, rng=11)
        params = SimulationParams(measure_cycles=400, warmup_cycles=100,
                                  seed=5)
        traffic = make_traffic("uniform", topo.num_terminals,
                               rng=params.seed + 7_919)
        result = simulate(topo, traffic, 0.7, params)
        json.dump(result.core_dict(), fh, indent=1, sort_keys=True)
    """
    golden_bench = json.loads(GOLDEN_BENCH.read_text())
    topo, _ = rfc_with_updown(8, 32, 3, rng=11)
    params = SimulationParams(measure_cycles=400, warmup_cycles=100, seed=5)
    traffic = make_traffic(
        "uniform", topo.num_terminals, rng=params.seed + 7_919
    )
    with engine_context(engine):
        result = simulate(topo, traffic, 0.7, params)
    assert result.core_dict() == golden_bench


def test_instrumented_sweep_matches_golden(topo, golden):
    """The pre-observability snapshot is reproduced even while a
    metrics observer watches every event."""
    for load, expected in zip(LOADS, golden):
        # Same traffic seed derivation load_sweep uses internally.
        traffic = make_traffic(
            "uniform", topo.num_terminals, rng=PARAMS.seed + 7_919
        )
        result = simulate(
            topo, traffic, load, PARAMS, observer=MetricsObserver()
        )
        assert result.core_dict() == expected


def test_golden_bytes_are_canonical(golden):
    """The checked-in file itself is sorted-key JSON (so regenerating
    it with the recipe gives a clean diff)."""
    canonical = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    assert GOLDEN.read_text() == canonical
