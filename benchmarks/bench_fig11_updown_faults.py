"""Figure 11 benchmark: up/down-preserving fault tolerance."""

from repro.core.rfc import rfc_with_updown
from repro.experiments.fig11_updown_faults import run
from repro.faults.updown_survival import updown_trial


def test_fig11_table(benchmark):
    table = benchmark.pedantic(
        lambda: run(quick=True, seed=0), rounds=1, iterations=1
    )
    print()
    print(table.render())
    rows = [dict(zip(table.headers, r)) for r in table.rows]
    assert any(r["topology"] == "OFT" and r["tolerated %"] == 0 for r in rows)


def test_updown_trial_kernel(benchmark):
    """One failure-order threshold search on a mid-size RFC."""
    topo, _ = rfc_with_updown(12, 120, 3, rng=6)
    benchmark.pedantic(
        lambda: updown_trial(topo, rng=7), rounds=3, iterations=1
    )
