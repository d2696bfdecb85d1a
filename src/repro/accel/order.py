"""Array orders: stable sorts by packed keys, replayed shuffles (numpy).

Two kernels that move an ordering step off Python speed without
changing a single output bit.

:func:`stable_order` is ``np.argsort(key, kind="stable")`` done as one
``np.sort`` of ``(key << b) | position``.  The position in the low
``b`` bits makes every packed key unique, so any sort yields the
stable order, and both the order and the sorted keys are read off the
one sorted array -- about 10x cheaper than numpy's stable (timsort)
argsort of ``int64`` keys.

:func:`shuffled_range` is ``random.Random.shuffle(list(range(n)))``
replayed in numpy: the same permutation, and the generator left in the
same state.  CPython's shuffle walks ``i = n - 1 .. 1`` and swaps
``x[i]`` with ``x[j]``, ``j = _randbelow(i + 1)``; ``_randbelow(m)``
draws ``r = getrandbits(32) >> (32 - k)``, ``k = m.bit_length()``,
until ``r < m``, and ``getrandbits(32)`` is one Mersenne Twister
output word.  The replay

1. hands the 624-word state and its position to
   ``numpy.random.MT19937``, whose ``random_raw`` yields the same
   words;
2. decides the rejections a batch of ``B`` words at a time: the bound
   drops by one per accepted draw, so word ``t`` of a batch is
   accepted for certain when ``r < m - t``, rejected for certain when
   ``r >= m``, and only the rare words in between need a short
   sequential pass.  A batch never spans a change of ``k`` and never
   holds more words than there are draws left at that ``k``, so every
   word drawn is consumed and the twister's position is exact;
3. applies the swaps without a loop.  Position ``i >= 1`` is final
   after step ``i``; it holds what position ``j_i`` held just before,
   which is what the latest earlier step writing ``j_i`` carried out
   of its own ``i``.  Grouping the steps by ``j`` (one packed-key
   sort) names each position's writers in time order, and the
   resulting "content on entry" chains resolve by pointer jumping.

The state goes back with ``setstate``, ``gauss_next`` untouched.
``tests/test_shuffle_equivalence.py`` pins both kernels to their
Python twins.
"""

from __future__ import annotations

import random
from typing import Any

import numpy as np
from numpy.typing import NDArray

__all__ = ["shuffled_range", "stable_order"]

#: Sizes must fit an int32 index (and a 32-bit ``getrandbits`` draw).
_MAX_SIZE = 1 << 31


def stable_order(
    key: NDArray[np.integer[Any]],
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """``(order, key[order])`` with ``order = argsort(key, kind="stable")``.

    ``key`` is a 1-D integer array.  Raises :class:`ValueError` when the
    key range plus the position bits need more than 63 bits.
    """
    size = key.size
    if size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    low = int(key.min())
    span = int(key.max()) - low
    b = size.bit_length()
    if span.bit_length() + b > 63:
        raise ValueError(
            f"stable_order: a key range of {span.bit_length()} bits and "
            f"{size} positions do not pack into 63 bits"
        )
    packed = key.astype(np.int64)
    packed -= low
    packed <<= b
    order = np.arange(size, dtype=np.int64)
    packed |= order
    packed.sort()
    np.bitwise_and(packed, (1 << b) - 1, out=order)
    packed >>= b
    packed += low
    return order, packed


def shuffled_range(
    rng: random.Random | int | None, n: int
) -> NDArray[np.int32]:
    """``rng.shuffle(list(range(n)))`` as an int32 array, same bits.

    Returns the permutation that call returns and leaves ``rng`` in the
    state it leaves.  ``rng`` is a :class:`random.Random` (not a
    subclass, whose draws may differ) or a seed for one.
    """
    if type(rng) is random.Random:
        rand = rng
    elif rng is None or isinstance(rng, int):
        rand = random.Random(rng)
    else:
        raise TypeError(
            f"shuffled_range needs a random.Random or an int seed, "
            f"got {type(rng).__name__}"
        )
    if not 0 <= n < _MAX_SIZE:
        raise ValueError(f"shuffled_range size {n} outside [0, 2**31)")
    if n < 2:
        return np.arange(n, dtype=np.int32)
    version, internal, gauss_next = rand.getstate()
    twister = np.random.MT19937()
    twister.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.array(internal[:-1], dtype=np.uint32),
            "pos": internal[-1],
        },
    }
    picks = _swap_targets(twister, n)
    state = twister.state["state"]
    rand.setstate(
        (version, (*state["key"].tolist(), int(state["pos"])), gauss_next)
    )
    return _apply_swaps(picks)


def _swap_targets(twister: np.random.MT19937, n: int) -> NDArray[np.int32]:
    """``picks[i]`` = the ``j`` of shuffle step ``i`` (``picks[0]`` = 0).

    Consumes exactly the words ``random.shuffle`` would.
    """
    picks = np.zeros(n, dtype=np.int32)
    i = n - 1
    while i:
        m = i + 1
        k = m.bit_length()
        # Draws left before the bound drops below 2**(k - 1).
        batch = min(m - (1 << (k - 1)) + 1, max(m >> 5, 64))
        r = (twister.random_raw(batch) >> (32 - k)).astype(np.int64)
        taken = r < m - np.arange(batch)
        unsure = np.flatnonzero(~taken & (r < m))
        if unsure.size:
            before = np.cumsum(taken)[unsure]
            extra = 0
            for t, value, sure in zip(
                unsure.tolist(), r[unsure].tolist(), before.tolist()
            ):
                if value < m - sure - extra:
                    taken[t] = True
                    extra += 1
        got = r[taken]
        picks[i - got.size + 1 : i + 1] = got[::-1]
        i -= got.size
    return picks


def _apply_swaps(picks: NDArray[np.int32]) -> NDArray[np.int32]:
    """The permutation that swapping ``x[i]`` with ``x[picks[i]]`` for
    ``i = n - 1 .. 1`` makes of ``x = range(n)``; reuses ``picks``.

    A step ``i`` runs before every step ``i' < i``.  Grouped by ``j``
    with ``i`` ascending, a group lists the steps writing position
    ``j`` latest first.
    """
    n = picks.size
    order, by_j = stable_order(picks[1:])
    steps = (order + 1).astype(np.int32)
    del order
    group_j = by_j.astype(np.int32)
    del by_j
    # ``same[k]``: sorted steps k and k + 1 write the same position.
    same = np.zeros(n - 1, dtype=bool)
    np.equal(group_j[1:], group_j[:-1], out=same[:-1])
    # ``ptr[q]``: the latest step to write position q; it carried in
    # what position ``ptr[q]`` held on entry to it.  ``ptr[q] == q``
    # is a root: q held its start value on entry to step q.  That is
    # wrong when the latest write is q's own self-swap, but then no
    # other position's chain passes through q, and q's final value is
    # read from the group below.
    heads = np.ones(n - 1, dtype=bool)
    heads[1:] = ~same[:-1]
    heads = np.flatnonzero(heads)
    active = group_j[heads]
    ptr = np.arange(n, dtype=np.int32)
    ptr[active] = steps[heads]
    del heads, group_j
    # Pointer jumping over the chains that are still moving; a root
    # points at itself and carries its start value.
    while active.size:
        hop = ptr[active]
        jumped = ptr[hop]
        ptr[active] = jumped
        active = active[jumped != hop]
    # Position i gets what position picks[i] held on entry to step i:
    # the carry of its previous writer, or its own start value.
    chained = np.flatnonzero(same)
    picks[steps[chained]] = ptr[steps[chained + 1]]
    picks[0] = ptr[0]
    return picks
