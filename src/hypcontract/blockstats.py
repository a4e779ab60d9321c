"""Margin statistics reduced block by block, with the bits of numpy's full-array ``min`` and ``mean``.

This module owns one decision: how per-block results rebuild ``np.min`` and
``np.mean`` of a stream's margins, so that a pass that never holds the
full-length margins reports the same bits as one that does.

``np.mean`` of a contiguous float64 array is numpy's add reduction, ``0.0 +
P(x)``, divided by the count, where ``P`` is its pairwise sum (N. J. Higham,
"The accuracy of floating point summation", SIAM J. Sci. Comput. 14, 1993):

- a node of at most ``LEAF`` (128) values is a leaf.  A leaf of at least 8
  values is summed in 8 lanes, lane j adding values j, j + 8, ... one after
  another, then ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then its last
  ``n % 8`` values one by one; a shorter leaf adds its values to 0.0 one by
  one;
- a node of n > 128 values is the sum of its two halves, split at n // 2
  rounded down to a multiple of 8.

So every leaf starts at a multiple of 8, and only the last leaf of the
stream has a rest.  The tree depends only on the count (``Layout``).  A
block sums the leaves that lie inside it and keeps the raw margins of the at
most two leaves it shares with its neighbours; the shared leaves are summed
once every block is in, and the tree is then combined level by level.  The
lanes are added one after another, as numpy adds them: ``np.add.reduceat``
sums each segment pairwise and misses the bits.

The minimum is the minimum of the block minima.  That is ``np.min`` of the
whole array, NaN included, because no margin is -0.0: a margin is ``rhs -
lhs``, and a difference is -0.0 only when ``rhs`` is -0.0, which no
distance, bound or constant right side is.  (Between 0.0 and -0.0 ``np.min``
may return either.)

A mean whose sum overflows on finite margins is taken scaled instead: it
divides by the largest magnitude first, so it stays finite; a plain mean is
kept wherever it is finite, so its bits hold.  The scaled mean needs every
margin, so ``Stats.overflows`` tells the caller to make them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

LEAF = 128  # numpy's PW_BLOCKSIZE
LANES = 8


def _split(n):
    """Where numpy splits a node of n > ``LEAF`` values (an int or an array of them).

    n // 2, rounded down to a multiple of 8.
    """
    half = n // 2
    return half - half % LANES


def _leaf_count(n: int, known: dict) -> int:
    """The number of leaves of numpy's pairwise tree over n values, without building it."""
    if n <= LEAF:
        return 1
    if n not in known:  # the nodes of one level take few sizes, so this visits few
        known[n] = _leaf_count(_split(n), known) + _leaf_count(n - _split(n), known)
    return known[n]


def _leaf_plan(starts: np.ndarray, ends: np.ndarray) -> tuple:
    """How ``_sum_leaves`` sums each leaf ``x[starts[i]:ends[i]]``; made once per block, for every row.

    Every leaf starts at a multiple of 8 from ``x[0]``, so its lane groups
    are rows of ``x`` viewed as rows of 8: ``at[k, i]`` is the row of group
    k of the i-th leaf of at least 8 values (``full``), or of its last group
    where it has no group k.  ``every`` groups all those leaves have;
    ``rests`` lists each leaf's values after its groups (only the stream's
    last leaf has any).
    """
    groups = (ends - starts) // LANES
    full = groups > 0
    k = np.arange(groups.max(initial=0))[:, None]
    at = starts[full] // LANES + np.minimum(k, groups[full] - 1)
    rest = np.flatnonzero(ends - starts - groups * LANES)
    rests = [(i, range(starts[i] + groups[i] * LANES, ends[i])) for i in rest]
    return full, at, groups[full], int(groups[full].min(initial=0)), rests


def _sum_leaves(x: np.ndarray, plan: tuple) -> np.ndarray:
    """numpy's pairwise sum of each leaf of ``x`` that ``plan`` (``_leaf_plan``) names.

    Lane group k is added to the lanes of the leaves that have one, for k =
    1, 2, ... in turn, as numpy adds them.
    """
    full, at, groups, every, rests = plan
    s = np.zeros(len(full))  # numpy adds the values of a leaf of fewer than 8 to 0.0
    if len(at):
        lanes = x[: len(x) - len(x) % LANES].reshape(-1, LANES)[at]
        r = lanes[0].copy()
        for k in range(1, len(lanes)):
            if k < every:
                r += lanes[k]
            else:  # a leaf without group k keeps its lanes
                np.add(r, lanes[k], out=r, where=(k < groups)[:, None])
        r01, r23, r45, r67 = r[:, 0] + r[:, 1], r[:, 2] + r[:, 3], r[:, 4] + r[:, 5], r[:, 6] + r[:, 7]
        s[full] = (r01 + r23) + (r45 + r67)
    for i, rest in rests:
        for j in rest:
            s[i] += x[j]
    return s


class Block(NamedTuple):
    """Where the margins of the rows [a, b) go: the leaves inside and the shared rows."""

    a: int
    slot: int  # the block's index
    leaves: slice  # the leaves inside it, in stream order
    plan: tuple  # how to sum them (``_leaf_plan``)
    pieces: tuple  # (lo, hi, at): rows [a + lo, a + hi) of shared leaves go to edge[at:]


class Layout:
    """numpy's pairwise tree over ``count`` values, and the blocks of ``block`` rows over it.

    Blocks start at multiples of ``block``, so a block's leaves start at
    multiples of 8 from its first row when ``block`` is a multiple of 8 (or
    the one block is the whole array).
    """

    def __init__(self, count: int, block: int):
        self.count, self.block_rows = count, block
        self.n_blocks = -(-count // block)
        n = _leaf_count(count, {})
        # the largest arrays first, so a count too large to reduce fails here at once
        self.starts, self.ends = np.empty(n, np.intp), np.empty(n, np.intp)
        self.levels = []  # top down: (which nodes are leaves, their leaf indices)
        offsets, sizes, found = np.zeros(1, np.intp), np.full(1, count, np.intp), 0
        while len(sizes):
            leaf = sizes <= LEAF
            k = np.count_nonzero(leaf)
            self.starts[found : found + k] = offsets[leaf]
            self.ends[found : found + k] = offsets[leaf] + sizes[leaf]
            self.levels.append((leaf, np.arange(found, found + k)))
            found += k
            offsets, sizes = offsets[~leaf], sizes[~leaf]
            half = _split(sizes)
            offsets = np.stack([offsets, offsets + half], axis=1).ravel()
            sizes = np.stack([half, sizes - half], axis=1).ravel()
        order = np.argsort(self.starts, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(n)
        self.levels = [(leaf, rank[ids]) for leaf, ids in self.levels]
        self.starts, self.ends = self.starts[order], self.ends[order]
        # the leaves that span a block bound, and where their rows go in the edge array
        self.shared = np.flatnonzero(self.starts // block != (self.ends - 1) // block)
        lengths = self.ends[self.shared] - self.starts[self.shared]
        self.edge_starts = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intp)
        self.n_edge = int(self.edge_starts[-1])

    def block(self, a: int, b: int) -> Block:
        """The layout of the block of rows [a, b)."""
        i0 = int(np.searchsorted(self.starts, a))
        i1 = max(i0, int(np.searchsorted(self.ends, b, side="right")))
        inner = (self.starts[i0], self.ends[i1 - 1]) if i1 > i0 else (b, b)
        pieces = []
        for lo, hi in ((a, inner[0]), (inner[1], b)):
            if lo < hi:
                j = int(np.searchsorted(self.starts, lo, side="right")) - 1  # the leaf of row lo
                q = int(np.searchsorted(self.shared, j))
                pieces.append((lo - a, hi - a, int(self.edge_starts[q] + lo - self.starts[j])))
        plan = _leaf_plan(self.starts[i0:i1] - a, self.ends[i0:i1] - a)
        return Block(a, a // self.block_rows, slice(i0, i1), plan, tuple(pieces))

    def total(self, sums: np.ndarray) -> float:
        """The pairwise sum from the sums of the leaves, combined level by level, bottom up."""
        below = None
        for leaf, ranks in reversed(self.levels):
            node = np.empty(len(leaf))
            node[leaf] = sums[ranks]
            if below is not None:
                node[~leaf] = below[0::2] + below[1::2]
            below = node
        return 0.0 + float(below[0])


@lru_cache(maxsize=1)
def layout(count: int, block: int) -> Layout:
    """The ``Layout`` of ``count`` values in blocks of ``block``, built once for the rows of a suite.

    Only the last one is kept: a suite's pair rows all have its count.
    """
    return Layout(count, block)


class Stats:
    """One stream's margin statistics, filled block by block in any order, and its margins if kept.

    Its arrays are allocated here, before the pass, so a count whose state
    cannot be allocated raises ``MemoryError`` at once.  Each block writes
    its own slots; the candidates, rows below ``-tol_abs``, are kept per
    block with their margins.  With ``keep``, ``margins`` holds every
    margin, else it is None.
    """

    def __init__(self, layout: Layout, tol_abs: float, keep: bool = False):
        self.layout, self.tol_abs = layout, tol_abs
        self.margins = np.empty(layout.count) if keep else None
        self.sums = np.empty(len(layout.starts))
        self.edge = np.empty(layout.n_edge)
        self.mins = np.empty(layout.n_blocks)
        self.finite = np.empty(layout.n_blocks, bool)
        self.near = {}  # first row of a block -> its candidate rows and their margins

    @property
    def count(self) -> int:
        return self.layout.count

    def add(self, block: Block, rhs: np.ndarray, lhs: np.ndarray) -> None:
        """Reduce the margins ``rhs - lhs`` of the rows of ``block``, written in place if kept."""
        if self.margins is None:
            self._reduce(block, rhs - lhs)
        else:
            self._reduce(block, np.subtract(rhs, lhs, out=self.margins[block.a : block.a + len(rhs)]))

    def _reduce(self, block: Block, m: np.ndarray) -> None:
        low = self.mins[block.slot] = np.min(m)
        self.finite[block.slot] = np.isfinite(m).all()
        if not low >= -self.tol_abs:  # a NaN minimum can hide a candidate
            near = np.nonzero(m < -self.tol_abs)[0]
            if len(near):
                self.near[block.a] = near + block.a, m[near]
        self.sums[block.leaves] = _sum_leaves(m, block.plan)
        for lo, hi, at in block.pieces:
            self.edge[at : at + hi - lo] = m[lo:hi]

    def candidates(self) -> tuple:
        """The rows with a margin below ``-tol_abs``, in order, and their margins."""
        if not self.near:
            return np.empty(0, np.intp), np.empty(0)
        return tuple(np.concatenate(part) for part in zip(*(self.near[a] for a in sorted(self.near))))

    def min(self) -> float:
        return float(np.min(self.mins))

    @cached_property
    def _plain_mean(self) -> float:
        """``np.mean`` of the margins; read once every block is in."""
        lay = self.layout
        shared = _leaf_plan(lay.edge_starts[:-1], lay.edge_starts[1:])
        self.sums[lay.shared] = _sum_leaves(self.edge, shared)
        return lay.total(self.sums) / lay.count

    @property
    def overflows(self) -> bool:
        """Whether the sum overflows on finite margins, so the mean needs every margin."""
        return not np.isfinite(self._plain_mean) and bool(self.finite.all())

    def mean(self) -> float:
        """``np.mean`` of the margins, or their scaled mean if ``overflows`` (which needs them kept)."""
        if not self.overflows:
            return self._plain_mean
        scale = np.max(np.abs(self.margins))
        return float(np.mean(self.margins / scale) * scale)


def of(margins: np.ndarray, tol_abs: float) -> Stats:
    """The statistics of a whole array, reduced as one block; it is kept as their ``margins``."""
    n = len(margins)
    stats = Stats(Layout(n, n), tol_abs)
    stats._reduce(stats.layout.block(0, n), margins)
    stats.margins = margins
    return stats
