#!/usr/bin/env python3
"""RFC vs Jellyfish (RRN): why the paper keeps the Clos structure.

The paper argues the Jellyfish's raw efficiency comes with operational
costs an RFC avoids: cyclic routes need deadlock machinery, minimal
paths underuse the network (the Jellyfish paper routes over k shortest
paths, recomputed on every change), and there is exactly one expansion
point where the host/network port split is right.  This example makes
the routing and expansion trade-offs concrete:

1. build an RFC and an RRN with the same terminal count and radix,
2. compare path diversity (up/down ECMP width vs k-shortest paths),
3. expand both and report the rewiring + recomputation bill.

The packet simulator runs folded Clos networks only, as the paper's
simulations do; the RRN side here is analysis.

Run: ``python examples/jellyfish_comparison.py``  (a few seconds)
"""

import random
import statistics

from repro import expand_rrn, rfc_with_updown
from repro.core.expansion import expand_rfc
from repro.routing import k_shortest_paths, path_diversity_census
from repro.topologies.rrn import random_regular_network


def main() -> None:
    # Equal budget: 128 terminals, radix-8 switches.
    rfc, _ = rfc_with_updown(8, 32, 3, rng=1)       # 80 switches
    rrn = random_regular_network(64, 6, 2, rng=1)   # 64 switches, radix 8
    print(f"RFC: {rfc.num_switches} switches, {rfc.num_links} links, "
          f"T={rfc.num_terminals}")
    print(f"RRN: {rrn.num_switches} switches, {rrn.num_links} links, "
          f"T={rrn.num_terminals}")

    # Path diversity.
    census = path_diversity_census(rfc, sample_pairs=200, rng=2)
    print(f"\nRFC minimal up/down routes -- {census.describe()}")
    rng = random.Random(3)
    adj = rrn.adjacency()
    ks = [
        len(k_shortest_paths(adj, rng.randrange(64), rng.randrange(64), 8))
        for _ in range(50)
    ]
    print(f"RRN k-shortest (k=8) available paths: mean "
          f"{statistics.fmean(ks):.1f} -- needs Yen recomputation on "
          "every expansion or fault")

    # Expansion bill.
    _, rfc_report = expand_rfc(rfc, steps=2, rng=9)
    _, rrn_report = expand_rrn(rrn, new_switches=5, rng=9)
    print(f"\nexpansion: RFC +{rfc_report.terminals_added} nodes rewired "
          f"{rfc_report.links_removed} links; RRN "
          f"+{rrn_report.terminals_added} nodes rewired "
          f"{rrn_report.links_removed} links -- similar cable work, but "
          "the RRN must also rebuild its k-shortest-path tables while "
          "the RFC's up/down tables follow from the wiring")


if __name__ == "__main__":
    main()
