"""Word-blocked coverage sweeps against the big-int reference.

:class:`repro.accel.StageSweeper` runs ``has_updown``,
``reachable_fraction`` and ``coverage_masks`` one block of mask words at
a time.  These tests shrink the private gather budget so small RFCs
split into many blocks -- including a partial last word -- and require
the blocked answers to equal the ``accel=False`` reference bit for bit,
that ``has_updown`` stops at the first broken block, and that the
largest transient stays below one full ``(words x edges)`` gather.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro import accel
from repro.accel import sweeps
from repro.core.ancestors import (
    has_updown_routing,
    sweeper_of,
    updown_coverage,
    updown_reachable_fraction,
)
from repro.core.rfc import random_folded_clos
from repro.topologies.packed import packed_radix_regular_rfc

pytestmark = pytest.mark.skipif(
    not accel.is_available(), reason="numpy accel unavailable"
)

#: (level sizes, per-stage up-degrees): n1 = 65, 130 and 513 leave
#: 1, 2 and 1 bits in the last mask word.
SHAPES = [
    ([65, 65, 13], [4, 2]),
    ([130, 130, 65], [4, 4]),
    ([513, 513, 171], [4, 2]),
]


def _budget(monkeypatch, sweeper, words):
    """Shrink the gather budget to ``words`` mask words per block."""
    edges = max(stage.dst.size for stage in sweeper.stages)
    monkeypatch.setattr(sweeps, "_BLOCK_BYTES", words * 8 * edges)


def _pruned(stages, keep_masks):
    """Stage lists with the edges whose keep flag is False removed."""
    out = []
    for rows, keep in zip(stages, keep_masks):
        flags = iter(keep.tolist())
        out.append([[t for t in row if next(flags)] for row in rows])
    return out


@pytest.mark.parametrize("words", [1, 2, 3])
@pytest.mark.parametrize(
    "sizes,degrees", SHAPES, ids=[str(s[0][0]) for s in SHAPES]
)
def test_blocked_equals_reference(monkeypatch, sizes, degrees, words):
    topo = random_folded_clos(sizes, degrees, hosts_per_leaf=4, rng=5)
    stages = [
        [list(topo.up_neighbors(level, s)) for s in range(n)]
        for level, n in enumerate(sizes[:-1])
    ]
    sweeper = accel.StageSweeper(sizes, stages)
    _budget(monkeypatch, sweeper, words)
    gen = np.random.default_rng(sum(sizes) + words)
    for drop in (0.0, 0.05, 0.3):
        keep = [gen.random(s.dst.size) >= drop for s in sweeper.stages]
        pruned = _pruned(stages, keep)
        assert sweeper.has_updown(keep) == has_updown_routing(
            sizes, pruned, accel=False
        )
        assert sweeper.reachable_fraction(keep) == updown_reachable_fraction(
            sizes, pruned, accel=False
        )
        assert accel.masks_to_ints(sweeper.coverage_masks(keep)) == \
            updown_coverage(sizes, pruned, accel=False)


def _split_pair(n1, a, b):
    """Two roots; leaves ``a`` and ``b`` keep one different root each."""
    rows = [[0, 1] for _ in range(n1)]
    rows[a], rows[b] = [0], [1]
    return accel.StageSweeper([n1, 2], [rows])


@pytest.mark.parametrize(
    "pair,blocks_seen", [((0, 1), [0]), ((128, 129), [0, 1, 2])],
    ids=["first-block", "last-block"],
)
def test_has_updown_stops_at_first_broken_block(
    monkeypatch, pair, blocks_seen
):
    sweeper = _split_pair(130, *pair)
    _budget(monkeypatch, sweeper, 1)
    seen = []
    blocks = accel.StageSweeper._cover_blocks

    def counting(self, *args):
        for lo, cover in blocks(self, *args):
            seen.append(lo)
            yield lo, cover

    monkeypatch.setattr(accel.StageSweeper, "_cover_blocks", counting)
    assert sweeper.has_updown() is False
    assert seen == blocks_seen
    assert sweeper.reachable_fraction() == 1 - 2 / (130 * 129)


def test_unbroken_network_visits_every_block(monkeypatch):
    sweeper = accel.StageSweeper([130, 2], [[[0, 1]] * 130])
    _budget(monkeypatch, sweeper, 1)
    assert sweeper.has_updown() is True
    assert sweeper.reachable_fraction() == 1.0


def test_peak_memory_below_one_full_gather():
    topo = packed_radix_regular_rfc(32, 4096, 3, rng=3)
    edges = max(int(off[-1]) for off, _ in topo.up_stage_arrays())
    full_gather = accel.words_for(topo.level_sizes[0]) * edges * 8
    tracemalloc.start()
    try:
        fraction = sweeper_of(topo).reachable_fraction()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < fraction <= 1.0
    assert peak < full_gather, (peak, full_gather)
