"""Link removals until disconnection (paper Table 3).

For each trial, links fail in a uniformly random order and the trial
records the smallest number of failures that disconnects the switch
graph.  The paper reports the mean over 100 trials as a percentage of
the total links, for CFT / RRN / RFC / OFT instances of diameter 4
(3 levels) and matched terminal counts.

Two flavours of "disconnected" are provided:

* ``scope="switches"`` (default, matching the paper/Slim Fly): any
  switch separated from the rest counts;
* ``scope="leaves"``: only loss of leaf-to-leaf connectivity counts --
  terminals do not care about stranded root switches.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from ..topologies.base import DirectNetwork, FoldedClos
from .removal import UnionFind, shuffled_links

__all__ = ["DisconnectionResult", "disconnection_fraction", "disconnection_trial"]


@dataclass(frozen=True)
class DisconnectionResult:
    """Aggregated disconnection statistics over several trials."""

    mean_fraction: float
    stdev_fraction: float
    trials: int
    total_links: int

    @property
    def mean_percent(self) -> float:
        return 100.0 * self.mean_fraction


def disconnection_trial(
    network: FoldedClos | DirectNetwork,
    rng: random.Random | int | None = None,
    scope: str = "switches",
) -> int:
    """Failures needed to disconnect under one random failure order.

    Connectivity is monotone along the order, so one union-find pass
    adds the links back in reverse failure order until the watched
    switches are connected: if that takes links ``k..L-1``, the
    ``(k + 1)``-th failure disconnects.  Returns ``L + 1`` when the
    network is connected with no links and 0 when it never is -- the
    answer of :func:`~repro.faults.removal.failure_threshold`.
    """
    pairs = shuffled_links(network, rng=rng).pairs.tolist()
    num_switches = network.num_switches
    if scope == "switches":
        watched = num_switches
        # One component: a lone switch is, an empty network is not.
        linkless = num_switches == 1
    elif scope == "leaves":
        if isinstance(network, FoldedClos):
            watched = network.num_leaves
        else:
            watched = num_switches
        linkless = watched <= 1
    else:
        raise ValueError(f"unknown scope {scope!r}")
    if linkless:
        return len(pairs) + 1
    uf = UnionFind(num_switches)
    # Watched switches per component, read at the roots; the watched
    # switches are the first ``watched`` flat ids.
    weight = [1] * watched + [0] * (num_switches - watched)
    for k in range(len(pairs) - 1, -1, -1):
        lo, hi = pairs[k]
        ra, rb = uf.find(lo), uf.find(hi)
        if ra != rb:
            uf.union(ra, rb)
            merged = weight[ra] + weight[rb]
            weight[ra] = weight[rb] = merged
            if merged == watched:
                return k + 1
    return 0


def disconnection_fraction(
    network: FoldedClos | DirectNetwork,
    trials: int = 100,
    rng: random.Random | int | None = None,
    scope: str = "switches",
) -> DisconnectionResult:
    """Mean fraction of links whose removal disconnects the network.

    Matches the paper's Table 3 methodology (they use 100 trials).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rand = rng if isinstance(rng, random.Random) else random.Random(rng)
    total = network.num_links
    counts = [
        min(disconnection_trial(network, rng=rand, scope=scope), total)
        for _ in range(trials)
    ]
    fractions = [c / total for c in counts]
    return DisconnectionResult(
        mean_fraction=statistics.fmean(fractions),
        stdev_fraction=statistics.stdev(fractions) if trials > 1 else 0.0,
        trials=trials,
        total_links=total,
    )
