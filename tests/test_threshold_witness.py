"""Witness-guided Fig. 11 thresholds against the binary-search oracle.

``order_threshold`` finds the largest tolerated failure prefix by
following witnesses: the row minimum of ``d(a, .)`` bounds it, and a
masked probe at the bound either confirms it or names an uncovered
pair whose row lowers it.  The accelerated binary search it replaced
survives here only as the oracle: every threshold must equal it.  The
property tests check the two building blocks on their own --
:meth:`StageSweeper.row_minimum` against a pure-Python enumeration of
root paths, and :meth:`StageSweeper.missing_pair` against the
``accel=False`` coverage reference.
"""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import accel
from repro.accel import sweeps
from repro.core.ancestors import sweeper_of, updown_coverage
from repro.core.rfc import radix_regular_rfc, random_folded_clos
from repro.faults.removal import failure_threshold, shuffled_links
from repro.faults.updown_survival import (
    _stage_failure_positions,
    order_threshold,
    pruned_stages,
)
from repro.topologies.base import FoldedClos
from repro.topologies.fattree import commodity_fat_tree
from repro.topologies.oft import orthogonal_fat_tree
from repro.topologies.packed import PackedFoldedClos

pytestmark = pytest.mark.skipif(
    not accel.is_available(), reason="numpy accel unavailable"
)


def binary_search_threshold(topo, order):
    """The accelerated binary search ``order_threshold`` used to run."""
    sweeper = sweeper_of(topo)
    positions = _stage_failure_positions(topo, sweeper, order)
    return failure_threshold(
        len(order),
        lambda k: sweeper.has_updown(
            sweeper.keep_masks_for_positions(positions, k)
        ),
    ) - 1


def _faulted(topo, fraction, seed):
    """``topo`` with a random ``fraction`` of its links removed."""
    links = topo.links()
    removed = set(random.Random(seed).sample(links, int(fraction * len(links))))
    return FoldedClos(
        topo.level_sizes,
        pruned_stages(topo, removed),
        topo.hosts_per_leaf,
        topo.radix,
    )


def _budget(monkeypatch, sweeper, words):
    """Shrink the gather budget to ``words`` mask words per block."""
    edges = max(stage.dst.size for stage in sweeper.stages)
    monkeypatch.setattr(sweeps, "_BLOCK_BYTES", words * 8 * edges)


def _assert_matches_oracle(topo, order):
    got = order_threshold(topo, order)
    assert got == binary_search_threshold(topo, order)
    return got


PIN_RFC = radix_regular_rfc(8, 16, 3, rng=5)

#: The failure-order pin topologies of ``tests/test_failure_order.py``
#: that are folded Clos networks, with their pinned seeds.
PIN_TOPOLOGIES = {
    "rfc": PIN_RFC,
    "packed": PackedFoldedClos.from_folded(PIN_RFC),
    "cft": commodity_fat_tree(4, 3),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(PIN_TOPOLOGIES))
def test_pin_topologies(name, seed):
    topo = PIN_TOPOLOGIES[name]
    _assert_matches_oracle(topo, shuffled_links(topo, rng=seed))


RANDOM_TOPOLOGIES = {
    "rfc-r8-l3": lambda s: radix_regular_rfc(8, 16, 3, rng=s),
    "rfc-r12-l2": lambda s: radix_regular_rfc(12, 12, 2, rng=s),
    "rfc-r16-l3": lambda s: radix_regular_rfc(16, 64, 3, rng=s),
    "cft-6-3": lambda s: commodity_fat_tree(6, 3),
    "oft-2-2": lambda s: orthogonal_fat_tree(2, 2),
    "faulted-rfc": lambda s: _faulted(radix_regular_rfc(16, 64, 3, rng=s), 0.2, s),
    "faulted-cft": lambda s: _faulted(commodity_fat_tree(6, 3), 0.1, s),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(RANDOM_TOPOLOGIES))
def test_random_instances(name, seed):
    topo = RANDOM_TOPOLOGIES[name](seed)
    _assert_matches_oracle(topo, shuffled_links(topo, rng=seed + 100))


@pytest.mark.parametrize("seed", range(3))
def test_prefixes_and_repeated_links(seed):
    topo = radix_regular_rfc(16, 64, 3, rng=seed)
    order = list(shuffled_links(topo, rng=seed))
    full = _assert_matches_oracle(topo, order)
    lengths = {0, 1, full - 1, full, full + 1, len(order) - 1, len(order)}
    for length in sorted(n for n in lengths if 0 <= n <= len(order)):
        _assert_matches_oracle(topo, order[:length])
    # A link listed twice fails at its first position.
    assert _assert_matches_oracle(topo, order[: full + 1] * 2) == full
    _assert_matches_oracle(topo, order[:5] + [order[full]] + order[5:])


def test_order_that_never_breaks_routing():
    order = shuffled_links(PIN_RFC, rng=3)
    assert _assert_matches_oracle(PIN_RFC, order[:1]) == 1
    assert _assert_matches_oracle(PIN_RFC, []) == 0


def test_already_unroutable_network():
    # Leaf 0 has no up-link, so it shares no root with anyone.
    stages = [[[] if s == 0 else [0, 1] for s in range(4)], [[0], [0]]]
    topo = FoldedClos([4, 2, 1], stages, hosts_per_leaf=2, radix=4)
    order = shuffled_links(topo, rng=1)
    assert _assert_matches_oracle(topo, order) == -1
    assert order_threshold(topo, order, accel=False) == -1


#: ``n1`` = 1, 2, 65 and 130: a single leaf, a single word, and one or
#: two bits spilling into a further mask word.
N1_SHAPES = {
    1: ([1, 2], [2]),
    2: ([2, 2, 2], [2, 2]),
    65: ([65, 65, 13], [4, 2]),
    130: ([130, 130, 65], [4, 4]),
}


@pytest.mark.parametrize("words", [1, 2])
@pytest.mark.parametrize("n1", sorted(N1_SHAPES))
def test_word_and_block_boundaries(monkeypatch, n1, words):
    sizes, degrees = N1_SHAPES[n1]
    for seed in range(4):
        topo = random_folded_clos(sizes, degrees, hosts_per_leaf=2, rng=seed)
        _budget(monkeypatch, sweeper_of(topo), words)
        order = shuffled_links(topo, rng=seed)
        threshold = _assert_matches_oracle(topo, order)
        assert threshold == order_threshold(topo, order, accel=False)
        if n1 == 1:
            assert threshold == len(order)


def test_missing_pair_starts_at_the_block_of_near(monkeypatch):
    # Two roots; leaves 0 and 1 keep one different root each.
    rows = [[0, 1] for _ in range(130)]
    rows[0], rows[1] = [0], [1]
    sweeper = accel.StageSweeper([130, 2], [rows])
    _budget(monkeypatch, sweeper, 1)
    seen = []
    blocks = accel.StageSweeper._cover_blocks

    def counting(self, *args):
        for lo, cover in blocks(self, *args):
            seen.append(lo)
            yield lo, cover

    monkeypatch.setattr(accel.StageSweeper, "_cover_blocks", counting)
    assert sweeper.missing_pair(near=129) in {(0, 1), (1, 0)}
    assert seen == [2, 0]


# ----------------------------------------------------------------------
# Building blocks against brute force
# ----------------------------------------------------------------------

@st.composite
def positioned_networks(draw):
    """Small ``(level_sizes, up_stages)`` with per-edge failure positions.

    Stages may be ragged or empty.  Positions are a random permutation
    of the edges cut at a random order length ``never``: edges past it
    never fail, as under a prefix of a failure order.
    """
    levels = draw(st.integers(min_value=1, max_value=4))
    sizes = [draw(st.integers(min_value=1, max_value=7)) for _ in range(levels)]
    stages = []
    for stage in range(levels - 1):
        n_hi = sizes[stage + 1]
        ups = st.lists(
            st.integers(min_value=0, max_value=n_hi - 1),
            max_size=min(n_hi, 3),
            unique=True,
        )
        stages.append([sorted(draw(ups)) for _ in range(sizes[stage])])
    edges = sum(len(row) for rows in stages for row in rows)
    perm = draw(st.permutations(range(edges)))
    never = draw(st.integers(min_value=0, max_value=edges))
    flat = np.minimum(np.array(perm, dtype=np.int32), never)
    positions, at = [], 0
    for rows in stages:
        count = sum(len(row) for row in rows)
        positions.append(flat[at : at + count])
        at += count
    return sizes, stages, positions, never


def _bottlenecks(sizes, stages, positions, leaf, top):
    """``{root: best min position over up-paths from leaf}``, by DFS."""
    best = {}
    offsets = [np.cumsum([0] + [len(r) for r in rows]) for rows in stages]

    def walk(level, switch, bottleneck):
        if level == len(sizes) - 1:
            best[switch] = max(best.get(switch, -1), bottleneck)
            return
        for i, up in enumerate(stages[level][switch]):
            pos = int(positions[level][offsets[level][switch] + i])
            walk(level + 1, up, min(bottleneck, pos))

    walk(0, leaf, top)
    return best


def _pair_survival(sizes, stages, positions, top):
    """``d[a][b]``: largest ``k`` for which ``a`` and ``b`` share a root."""
    roots = [_bottlenecks(sizes, stages, positions, a, top) for a in range(sizes[0])]
    return [
        [
            max(
                (min(ra[r], rb[r]) for r in ra.keys() & rb.keys()),
                default=-1,
            )
            for rb in roots
        ]
        for ra in roots
    ]


@given(positioned_networks())
def test_row_minimum_matches_root_path_enumeration(net):
    sizes, stages, positions, _ = net
    sweeper = accel.StageSweeper(sizes, stages)
    top = int(np.iinfo(positions[0].dtype if positions else np.int64).max)
    d = _pair_survival(sizes, stages, positions, top)
    for a in range(sizes[0]):
        want = min((d[a][x] for x in range(sizes[0]) if x != a), default=top)
        assert sweeper.row_minimum(positions, a) == want


@given(positioned_networks(), st.data())
def test_missing_pair_is_uncovered_and_d_decides_survival(net, data):
    sizes, stages, positions, never = net
    sweeper = accel.StageSweeper(sizes, stages)
    top = int(np.iinfo(positions[0].dtype if positions else np.int64).max)
    d = _pair_survival(sizes, stages, positions, top)
    k = data.draw(st.integers(min_value=0, max_value=never))
    near = data.draw(st.integers(min_value=0, max_value=sizes[0] + 64))
    keep = sweeper.keep_masks_for_positions(positions, k)
    flags = [iter(mask.tolist()) for mask in keep]
    pruned = [
        [[t for t in row if next(it)] for row in rows]
        for rows, it in zip(stages, flags)
    ]
    cover = updown_coverage(sizes, pruned, accel=False)
    for a in range(sizes[0]):
        for b in range(sizes[0]):
            if a != b:
                assert bool(cover[a] >> b & 1) == (d[a][b] >= k)
    pair = sweeper.missing_pair(keep, near)
    assert (pair is None) == sweeper.has_updown(keep)
    if pair is not None:
        a, b = pair
        assert not cover[a] >> b & 1
    else:
        assert all(c == (1 << sizes[0]) - 1 for c in cover)

