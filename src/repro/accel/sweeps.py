"""Packed-bitset ancestor sweeps over ``(level_sizes, up_stages)``.

Vectorized twins of the big-int sweeps in :mod:`repro.core.ancestors`
and of the ``U_j`` table construction in
:class:`repro.routing.updown.UpDownRouter`:

* the **descendant sweep** walks stages upward, OR-ing each upper
  switch's down-neighbor leaf sets (grouped by upper endpoint);
* the **coverage sweep** walks stages downward, OR-ing each lower
  switch's up-neighbor root-coverage sets (grouped by lower endpoint);
* the **reach tables** iterate the coverage recurrence once per ascent
  budget ``j``, exactly like the router's reference construction.

Each stage's edges are laid out flat once (:class:`StageSweeper`), with
both groupings precomputed, so a sweep is one gather plus one
``reduceat`` per stage.  Three layout decisions carry the performance:

* mask arrays are held **transposed** -- ``(W, N)`` words-by-switches
  -- because ``np.bitwise_or.reduceat`` along the last (contiguous)
  axis is an order of magnitude faster than reducing axis 0 of the
  natural ``(N, W)`` layout (the reduction then strides across rows);
* every internal array carries one trailing always-zero **null
  column**, and pruned edges are redirected there by index instead of
  zeroing their gathered rows -- zero is the OR identity, so a masked
  edge contributes nothing, and the mask costs one ``np.where`` over
  edge indices rather than a scatter write into the gather buffer;
* the coverage queries run **one block of mask words at a time** --
  word ``w`` of every mask depends only on leaves ``64w .. 64w + 63``,
  so the whole up-then-down sweep splits by words.  Blocks are sized so
  that one ``(words x edges)`` gather stays under a fixed byte budget
  (the full gather is 64 MiB per stage at 131k terminals, 4 GiB at 1M),
  the masked edge indices are built once per query and shared by every
  block, and :meth:`StageSweeper.missing_pair` stops at the first block
  that misses a leaf pair and names one such pair.

Fault analyses pass per-stage boolean *keep* masks instead of
rebuilding pruned stage lists (one mask comparison per probe, no
Python list rebuilds).  Beside the bitset sweeps,
:meth:`StageSweeper.row_minimum` runs one **max-min sweep** over int
edge failure positions: from a single leaf it yields, for every other
leaf, the longest failure prefix the pair survives.
:func:`repro.faults.updown_survival.order_threshold` alternates the two
-- a row minimum bounds the threshold from above, a masked probe at
that bound either confirms it or names a pair whose row lowers it.
Public methods return masks in the natural ``(N, W)`` layout expected
by :mod:`repro.accel.bitset`.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .bitset import full_row, popcount, words_for

__all__ = ["StageSweeper", "IncrementalSweeper"]

StageAdjacency = Sequence[Sequence[Sequence[int]]]

#: Upper bound, in bytes, on one ``(block words x stage edges)`` gather
#: of a blocked coverage sweep.
_BLOCK_BYTES = 8 << 20


def _singletons_t(
    n: int, lo: int = 0, hi: int | None = None
) -> NDArray[np.uint64]:
    """Transposed singleton masks, words ``lo:hi``: ``(hi - lo, n + 1)``.

    The trailing column is the null column; leaves outside the words'
    bit range have all-zero columns.
    """
    hi = words_for(n) if hi is None else hi
    out = np.zeros((hi - lo, n + 1), dtype=np.uint64)
    idx = np.arange(lo * 64, min(n, hi * 64), dtype=np.intp)
    out[(idx >> 6) - lo, idx] = np.uint64(1) << (idx & 63).astype(np.uint64)
    return out


def _natural(masks_t: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """Back to the natural ``(N, W)`` layout, null column stripped."""
    return np.ascontiguousarray(masks_t[:, :-1].T)


class _StageEdges:
    """One inter-level stage flattened for both reduction directions."""

    __slots__ = (
        "n_lo", "n_hi", "src", "dst", "down_src", "down_offsets",
        "up_starts", "up_rows", "down_perm", "down_starts", "down_rows",
    )

    def __init__(self, n_lo: int, n_hi: int, rows: Sequence[Sequence[int]]):
        counts = np.fromiter(
            (len(row) for row in rows), dtype=np.intp, count=n_lo
        )
        offsets = np.zeros(n_lo + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        edges = int(offsets[-1])
        dst = np.fromiter(
            (t for row in rows for t in row), dtype=np.intp, count=edges
        )
        self._index(n_lo, n_hi, counts, offsets, dst)

    @classmethod
    def from_csr(
        cls,
        n_lo: int,
        n_hi: int,
        offsets: NDArray[np.int64],
        indices: NDArray[np.int32],
    ) -> "_StageEdges":
        """Array-native constructor: no Python row iteration.

        ``offsets``/``indices`` are a per-row-sorted CSR as built by
        :class:`repro.topologies.packed.PackedFoldedClos`; sorted rows
        make the flat edge order identical to the list-of-rows
        constructor's, so ``keep`` masks are interchangeable between
        the two build paths.
        """
        self = cls.__new__(cls)
        off = offsets.astype(np.intp, copy=False)
        self._index(
            n_lo, n_hi, np.diff(off), off, indices.astype(np.intp, copy=False)
        )
        return self

    def _index(
        self,
        n_lo: int,
        n_hi: int,
        counts: NDArray[np.intp],
        offsets: NDArray[np.intp],
        dst: NDArray[np.intp],
    ) -> None:
        self.n_lo = n_lo
        self.n_hi = n_hi
        self.src = np.repeat(np.arange(n_lo, dtype=np.intp), counts)
        self.dst = dst
        # Group by lower endpoint: edges are already in row order.
        self.up_rows = np.nonzero(counts)[0]
        self.up_starts = offsets[self.up_rows]
        # Group by upper endpoint: stable sort keeps per-switch edge
        # order deterministic.  On the smallest unsigned dtype that
        # holds ``n_hi`` (16 bits or fewer), numpy's stable sort is a
        # radix sort.
        self.down_perm = np.argsort(
            self.dst.astype(np.min_scalar_type(n_hi)), kind="stable"
        )
        self.down_src = self.src[self.down_perm]
        dst_counts = np.bincount(self.dst, minlength=n_hi).astype(np.intp)
        self.down_offsets = np.zeros(n_hi + 1, dtype=np.intp)
        np.cumsum(dst_counts, out=self.down_offsets[1:])
        self.down_rows = np.nonzero(dst_counts)[0]
        self.down_starts = self.down_offsets[self.down_rows]

    def up_index(self, keep: NDArray[np.bool_] | None) -> NDArray[np.intp]:
        """Gather index of :meth:`or_up`; pruned edges hit the null column."""
        if keep is None:
            return self.down_src
        return np.where(keep[self.down_perm], self.down_src, self.n_lo)

    def down_index(self, keep: NDArray[np.bool_] | None) -> NDArray[np.intp]:
        """Gather index of :meth:`or_down`; pruned edges hit the null column."""
        if keep is None:
            return self.dst
        return np.where(keep, self.dst, self.n_hi)

    def _reduce(
        self,
        masks_t: NDArray[np.uint64],
        idx: NDArray[np.intp],
        starts: NDArray[np.intp],
        rows: NDArray[np.intp],
        n_out: int,
    ) -> NDArray[np.uint64]:
        out = np.zeros((masks_t.shape[0], n_out + 1), dtype=np.uint64)
        if rows.size == 0:
            return out
        gathered = np.take(masks_t, idx, axis=1)
        out[:, rows] = np.bitwise_or.reduceat(gathered, starts, axis=1)
        return out

    def or_up(
        self,
        lower_t: NDArray[np.uint64],
        idx: NDArray[np.intp] | None = None,
    ) -> NDArray[np.uint64]:
        """``out[t] = OR lower[s]`` over edges ``s -> t``.

        ``idx`` comes from :meth:`up_index`; ``None`` keeps every edge.
        """
        return self._reduce(
            lower_t,
            self.down_src if idx is None else idx,
            self.down_starts,
            self.down_rows,
            self.n_hi,
        )

    def or_down(
        self,
        upper_t: NDArray[np.uint64],
        idx: NDArray[np.intp] | None = None,
    ) -> NDArray[np.uint64]:
        """``out[s] = OR upper[t]`` over edges ``s -> t``.

        ``idx`` comes from :meth:`down_index`; ``None`` keeps every edge.
        """
        return self._reduce(
            upper_t,
            self.dst if idx is None else idx,
            self.up_starts,
            self.up_rows,
            self.n_lo,
        )

    def or_up_rows(
        self,
        lower_t: NDArray[np.uint64],
        out_t: NDArray[np.uint64],
        rows: NDArray[np.intp],
    ) -> None:
        """Recompute only ``rows`` of the up-reduction, in place.

        ``out_t`` is a transposed ``(W, n_hi + 1)`` mask array whose
        other columns are assumed current; the selected rows are fully
        re-reduced from ``lower_t`` (rows with no down-neighbors become
        zero).  This is the incremental-sweep workhorse: cost scales
        with the edges *of the dirty rows*, not the stage.
        """
        if rows.size == 0:
            return
        out_t[:, rows] = 0
        starts = self.down_offsets[rows]
        lens = self.down_offsets[rows + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return
        # Concatenated [start, start + len) ranges for every dirty row.
        ends = np.cumsum(lens)
        pos = np.arange(total, dtype=np.intp)
        pos += np.repeat(starts - (ends - lens), lens)
        gathered = np.take(lower_t, self.down_src[pos], axis=1)
        nonempty = lens > 0
        reduced = np.bitwise_or.reduceat(
            gathered, (ends - lens)[nonempty], axis=1
        )
        out_t[:, rows[nonempty]] = reduced

    def _max_min(
        self,
        values: NDArray[np.integer[Any]],
        pos: NDArray[np.integer[Any]],
        idx: NDArray[np.intp],
        starts: NDArray[np.intp],
        rows: NDArray[np.intp],
        n_out: int,
    ) -> NDArray[np.integer[Any]]:
        out = np.full(n_out, -1, dtype=values.dtype)
        if rows.size:
            gathered = values[idx]
            np.minimum(gathered, pos, out=gathered)
            out[rows] = np.maximum.reduceat(gathered, starts)
        return out

    def max_min_up(
        self, lower: NDArray[np.integer[Any]], pos: NDArray[np.integer[Any]]
    ) -> NDArray[np.integer[Any]]:
        """``out[t] = max min(lower[s], pos[e])`` over edges ``e = s -> t``.

        ``pos`` is in flat edge order; rows with no edge read -1.
        """
        return self._max_min(
            lower,
            pos[self.down_perm],
            self.down_src,
            self.down_starts,
            self.down_rows,
            self.n_hi,
        )

    def max_min_down(
        self, upper: NDArray[np.integer[Any]], pos: NDArray[np.integer[Any]]
    ) -> NDArray[np.integer[Any]]:
        """``out[s] = max min(upper[t], pos[e])`` over edges ``e = s -> t``."""
        return self._max_min(
            upper, pos, self.dst, self.up_starts, self.up_rows, self.n_lo
        )


class StageSweeper:
    """Reusable packed-sweep engine for one ``(level_sizes, up_stages)``.

    Construction cost is one pass over the stage lists; every sweep
    afterwards is pure numpy.  ``keep_masks`` arguments, when given,
    hold one boolean array per stage aligned with that stage's flat
    edge order (row-major over ``up_stages[stage]``) -- ``False``
    removes the edge from the sweep.
    """

    def __init__(
        self, level_sizes: Sequence[int], up_stages: StageAdjacency
    ) -> None:
        if len(up_stages) != len(level_sizes) - 1:
            raise ValueError("up_stages must have one entry per stage")
        self.level_sizes = [int(n) for n in level_sizes]
        self.n1 = self.level_sizes[0]
        self.stages = [
            _StageEdges(self.level_sizes[i], self.level_sizes[i + 1], rows)
            for i, rows in enumerate(up_stages)
        ]

    @classmethod
    def from_arrays(
        cls,
        level_sizes: Sequence[int],
        stage_arrays: Sequence[
            tuple[NDArray[np.int64], NDArray[np.int32]]
        ],
    ) -> "StageSweeper":
        """Build from per-stage sorted-row CSR ``(offsets, indices)`` pairs.

        The array-native twin of ``__init__`` for
        :class:`repro.topologies.packed.PackedFoldedClos` stage arrays
        (see :meth:`~repro.topologies.packed.PackedFoldedClos.up_stage_arrays`):
        no Python row lists are materialized, and the flat edge order
        matches the list constructor's exactly, so sweeps and ``keep``
        masks agree bit for bit across both build paths.
        """
        if len(stage_arrays) != len(level_sizes) - 1:
            raise ValueError("stage_arrays must have one entry per stage")
        self = cls.__new__(cls)
        self.level_sizes = [int(n) for n in level_sizes]
        self.n1 = self.level_sizes[0]
        self.stages = [
            _StageEdges.from_csr(
                self.level_sizes[i], self.level_sizes[i + 1], off, idx
            )
            for i, (off, idx) in enumerate(stage_arrays)
        ]
        return self

    # ------------------------------------------------------------------
    # Core sweeps (internal: transposed layout with null column)
    # ------------------------------------------------------------------
    def _descend_t(
        self, keep_masks: Sequence[NDArray[np.bool_]] | None
    ) -> list[NDArray[np.uint64]]:
        masks = [_singletons_t(self.n1)]
        for i, stage in enumerate(self.stages):
            keep = keep_masks[i] if keep_masks is not None else None
            masks.append(stage.or_up(masks[i], stage.up_index(keep)))
        return masks

    def _cover_blocks(
        self,
        keep_masks: Sequence[NDArray[np.bool_]] | None,
        start_word: int = 0,
    ) -> Iterator[tuple[int, NDArray[np.uint64]]]:
        """``(first_word, cover_t)`` per block of mask words.

        ``cover_t`` holds words ``first_word : first_word + len(cover_t)``
        of every leaf's coverage (own bit included), transposed, with the
        null column.  Each block runs the full up-then-down sweep over
        only its leaves' bits, so the largest transient is one gather of
        at most :data:`_BLOCK_BYTES`.  Blocks run in word order, starting
        from the one holding ``start_word`` and wrapping around.
        """
        keeps: Sequence[NDArray[np.bool_] | None] = (
            keep_masks if keep_masks is not None else [None] * len(self.stages)
        )
        up = [stage.up_index(k) for stage, k in zip(self.stages, keeps)]
        down = [stage.down_index(k) for stage, k in zip(self.stages, keeps)]
        width = words_for(self.n1)
        edges = max((stage.dst.size for stage in self.stages), default=0)
        step = max(1, _BLOCK_BYTES // (8 * max(edges, 1)))
        starts = range(0, width, step)
        first = start_word // step
        for lo in [*starts[first:], *starts[:first]]:
            leaves = _singletons_t(self.n1, lo, min(width, lo + step))
            masks = leaves
            for stage, idx in zip(self.stages, up):
                masks = stage.or_up(masks, idx)
            for stage, idx in zip(reversed(self.stages), reversed(down)):
                masks = stage.or_down(masks, idx)
            yield lo, masks | leaves

    # ------------------------------------------------------------------
    # Public sweeps (natural ``(N, W)`` layout)
    # ------------------------------------------------------------------
    def descendant_masks(
        self, keep_masks: Sequence[NDArray[np.bool_]] | None = None
    ) -> list[NDArray[np.uint64]]:
        """Per-level ``(N_level, W)`` packed descendant-leaf sets."""
        return [_natural(m) for m in self._descend_t(keep_masks)]

    def coverage_masks(
        self, keep_masks: Sequence[NDArray[np.bool_]] | None = None
    ) -> NDArray[np.uint64]:
        """Per-leaf packed up*/down* coverage (own bit included)."""
        out = np.empty((self.n1, words_for(self.n1)), dtype=np.uint64)
        for lo, cover in self._cover_blocks(keep_masks):
            out[:, lo : lo + len(cover)] = cover[:, :-1].T
        return out

    def missing_pair(
        self,
        keep_masks: Sequence[NDArray[np.bool_]] | None = None,
        near: int = 0,
    ) -> tuple[int, int] | None:
        """One leaf pair ``(a, b)`` with no common root, or ``None``.

        Sweeps the block of mask words holding leaf ``near`` first and
        stops at the first block that misses a pair.  ``a`` is the leaf
        that misses the most leaves of that block and ``b`` the lowest
        of them.
        """
        full = full_row(self.n1)[:, None]
        for lo, cover in self._cover_blocks(keep_masks, near // 64):
            # Coverage never exceeds the full row, so XOR leaves exactly
            # the missing bits; in place, a passing block allocates
            # nothing.
            gaps = cover[:, :-1]
            gaps ^= full[lo : lo + len(cover)]
            if gaps.any():
                a = int(np.argmax(popcount(gaps.T)))
                word = int(np.flatnonzero(gaps[:, a])[0])
                bits = int(gaps[word, a])
                return a, 64 * (lo + word) + (bits & -bits).bit_length() - 1
        return None

    def has_updown(
        self, keep_masks: Sequence[NDArray[np.bool_]] | None = None
    ) -> bool:
        """Whether every leaf pair keeps a common ancestor."""
        return self.missing_pair(keep_masks) is None

    def row_minimum(
        self, positions: Sequence[NDArray[np.integer[Any]]], leaf: int
    ) -> int:
        """``min d(leaf, x)`` over the other leaves ``x``.

        ``positions`` are per-stage edge failure positions as for
        :meth:`keep_masks_for_positions`.  ``d(a, b)`` is the largest
        ``k`` for which ``a`` and ``b`` keep a common root once every
        edge with position below ``k`` fails: the max over roots ``r``
        of ``min(B_a(r), B_b(r))``, where ``B_a(r)`` is the best
        bottleneck (largest minimum position) over up-paths from ``a``
        to ``r``, and -1 with no path.  One max-min sweep up from
        ``leaf`` gives ``B_leaf``; one down gives ``d(leaf, .)``.  With
        no other leaf the result is the dtype's maximum.
        """
        dtype = positions[0].dtype if positions else np.dtype(np.int64)
        top = np.iinfo(dtype).max
        values = np.full(self.n1, -1, dtype=dtype)
        values[leaf] = top
        for stage, pos in zip(self.stages, positions):
            values = stage.max_min_up(values, pos)
        for stage, pos in zip(reversed(self.stages), reversed(positions)):
            values = stage.max_min_down(values, pos)
        values[leaf] = top
        return int(values.min())

    def reachable_fraction(
        self, keep_masks: Sequence[NDArray[np.bool_]] | None = None
    ) -> float:
        """Fraction of ordered leaf pairs joined by an up*/down* path."""
        if self.n1 < 2:
            return 1.0
        covered = sum(
            int(popcount(cover).sum())
            for _, cover in self._cover_blocks(keep_masks)
        )
        return (covered - self.n1) / (self.n1 * (self.n1 - 1))

    def root_ancestor_masks(self) -> NDArray[np.uint64]:
        """Per-leaf packed set of reachable root switches."""
        masks = _singletons_t(self.level_sizes[-1])
        for stage in reversed(self.stages):
            masks = stage.or_down(masks)
        return _natural(masks)

    # ------------------------------------------------------------------
    # Router tables
    # ------------------------------------------------------------------
    def reach_tables(self) -> list[list[NDArray[np.uint64]]]:
        """``tables[level][j]`` = packed ``U_j`` masks, one row per switch.

        ``U_0`` is the descendant sweep; ``U_j`` at a level is the OR of
        ``U_{j-1}`` over up-neighbors -- the exact recurrence of
        :meth:`UpDownRouter._build_tables`, so converting these rows to
        big-ints reproduces the reference ``_reach`` bit for bit.
        Level ``L`` has entries for ``j = 0 .. levels - 1 - L``.
        """
        levels = len(self.level_sizes)
        descend = self._descend_t(None)
        tables_t: list[list[NDArray[np.uint64]]] = [
            [descend[level]] for level in range(levels)
        ]
        for j in range(1, levels):
            for level in range(levels - j):
                tables_t[level].append(
                    self.stages[level].or_down(tables_t[level + 1][j - 1])
                )
        return [[_natural(t) for t in per_level] for per_level in tables_t]

    # ------------------------------------------------------------------
    # Incremental pruning
    # ------------------------------------------------------------------
    def keep_masks_for_positions(
        self,
        positions: Sequence[NDArray[np.int64]],
        threshold: int,
    ) -> list[NDArray[np.bool_]]:
        """Keep masks for "first ``threshold`` failures applied".

        ``positions[stage][e]`` is the failure-order index of stage
        edge ``e`` (``len(order)`` and beyond = never fails); an edge
        survives while its position is ``>= threshold``.  Threshold
        probes re-derive the masks with one comparison per edge -- no
        stage lists are rebuilt.
        """
        return [pos >= threshold for pos in positions]

    def edge_keys(self) -> list[tuple[NDArray[np.intp], NDArray[np.intp]]]:
        """Per-stage ``(src, dst)`` level-local endpoint arrays.

        Aligned with the flat edge order used by ``keep`` masks; used
        to map failure orders (flat :class:`Link` ids) onto stage
        edges.
        """
        return [(stage.src, stage.dst) for stage in self.stages]


class IncrementalSweeper:
    """Descendant sweeps that survive topology growth.

    Strong-expansion analysis (paper Section 4.4 / Figure 7) evaluates
    the *same* RFC at a ladder of sizes: each step adds a few switches
    per level and rewires O(R) links, leaving the vast majority of
    stage edges -- and therefore of descendant-leaf masks -- untouched.
    This sweeper keeps the transposed descendant masks of the previous
    size and, on :meth:`update`, recomputes only the **dirty** rows:

    * upper endpoints of stage edges added or removed since the last
      size (diffed as sorted int64 ``src * n_hi + dst`` keys);
    * up-neighbors of rows already dirty one level below (a changed
      descendant set propagates along every surviving up-link);
    * switches that did not exist at the previous size.

    Dirtiness only ever propagates *upward*; the downward coverage
    sweep is re-run in full from the cached root masks (a single dirty
    root would dirty nearly every leaf, so there is nothing to save in
    that direction -- and the upward half is where the stage-edge
    indexing cost lives).  Levels may only grow: sizes must be
    monotonically non-decreasing with an unchanged level count.

    Equality with a from-scratch :class:`StageSweeper` at every step is
    asserted by ``tests/test_incremental_ancestors.py``.
    """

    def __init__(
        self,
        level_sizes: Sequence[int],
        stage_arrays: Sequence[
            tuple[NDArray[np.int64], NDArray[np.int32]]
        ],
    ) -> None:
        self._sweeper = StageSweeper.from_arrays(level_sizes, stage_arrays)
        self._descend_t = self._sweeper._descend_t(None)
        self._cover_cache: NDArray[np.uint64] | None = None
        self.last_update_stats: dict[str, int] = {
            "dirty_rows": sum(self.level_sizes[1:]),
            "total_rows": sum(self.level_sizes[1:]),
        }

    @property
    def level_sizes(self) -> list[int]:
        return self._sweeper.level_sizes

    @property
    def n1(self) -> int:
        return self._sweeper.n1

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def update(
        self,
        level_sizes: Sequence[int],
        stage_arrays: Sequence[
            tuple[NDArray[np.int64], NDArray[np.int32]]
        ],
    ) -> dict[str, int]:
        """Adopt a grown topology, recomputing only dirty mask rows.

        Returns (and stores as :attr:`last_update_stats`) the dirty /
        total row counts above level 0 -- the incremental saving is
        ``1 - dirty / total`` of the upward sweep.
        """
        old_sizes = self.level_sizes
        new_sizes = [int(n) for n in level_sizes]
        if len(new_sizes) != len(old_sizes):
            raise ValueError(
                f"level count changed ({len(old_sizes)} -> {len(new_sizes)}); "
                "incremental update needs a fixed level structure"
            )
        if any(n < o for n, o in zip(new_sizes, old_sizes)):
            raise ValueError("levels may only grow under incremental update")
        new_sweeper = StageSweeper.from_arrays(new_sizes, stage_arrays)
        masks = [_singletons_t(new_sizes[0])]
        dirty = np.arange(old_sizes[0], new_sizes[0], dtype=np.intp)
        dirty_rows = 0
        for i, stage in enumerate(new_sweeper.stages):
            old_stage = self._sweeper.stages[i]
            n_hi_new = np.int64(new_sizes[i + 1])
            new_keys = stage.src * n_hi_new + stage.dst
            old_keys = old_stage.src * n_hi_new + old_stage.dst
            changed = np.concatenate(
                [
                    np.setdiff1d(new_keys, old_keys, assume_unique=True),
                    np.setdiff1d(old_keys, new_keys, assume_unique=True),
                ]
            )
            parts = [
                (changed % n_hi_new).astype(np.intp),
                np.arange(old_sizes[i + 1], new_sizes[i + 1], dtype=np.intp),
            ]
            if dirty.size:
                below = np.zeros(new_sizes[i], dtype=bool)
                below[dirty] = True
                parts.append(stage.dst[below[stage.src]])
            dirty = np.unique(np.concatenate(parts))
            upper = np.zeros(
                (words_for(new_sizes[0]), new_sizes[i + 1] + 1),
                dtype=np.uint64,
            )
            old_upper = self._descend_t[i + 1]
            upper[: old_upper.shape[0], : old_sizes[i + 1]] = old_upper[:, :-1]
            stage.or_up_rows(masks[i], upper, dirty)
            masks.append(upper)
            dirty_rows += int(dirty.size)
        self._sweeper = new_sweeper
        self._descend_t = masks
        self._cover_cache = None
        self.last_update_stats = {
            "dirty_rows": dirty_rows,
            "total_rows": sum(new_sizes[1:]),
        }
        return self.last_update_stats

    # ------------------------------------------------------------------
    # Queries (natural layout, matching StageSweeper semantics)
    # ------------------------------------------------------------------
    def _cover_t(self) -> NDArray[np.uint64]:
        if self._cover_cache is None:
            cover = self._descend_t[-1]
            for stage in reversed(self._sweeper.stages):
                cover = stage.or_down(cover)
            self._cover_cache = cover | _singletons_t(self.n1)
        return self._cover_cache

    def descendant_masks(self) -> list[NDArray[np.uint64]]:
        """Per-level ``(N_level, W)`` packed descendant-leaf sets."""
        return [_natural(m) for m in self._descend_t]

    def coverage_masks(self) -> NDArray[np.uint64]:
        """Per-leaf packed up*/down* coverage (own bit included)."""
        return _natural(self._cover_t())

    def has_updown(self) -> bool:
        """Whether every leaf pair has a common ancestor."""
        if self.n1 == 0:
            return True
        cover = self._cover_t()
        return bool(np.all(cover[:, :-1] == full_row(self.n1)[:, None]))

    def reachable_fraction(self) -> float:
        """Fraction of ordered leaf pairs joined by an up*/down* path."""
        if self.n1 < 2:
            return 1.0
        covered = int(popcount(self._cover_t()).sum()) - self.n1
        return covered / (self.n1 * (self.n1 - 1))
