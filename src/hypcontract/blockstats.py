"""Margin statistics reduced block by block, with the bits of numpy's full-array ``min`` and ``mean``.

This module owns one decision: how per-block results rebuild ``np.min`` and
``np.mean`` of a stream's margins, so that a pass that never holds the
full-length margins reports the same bits as one that does.  Every sampled
report's statistics come from here, reduced block by block in the one pass
of ``harness._verify_rows``, whatever its stream: the disk- and ball-pair
streams, the polar grid (10,201 points, one block) and the proof chain's
pairs (at most 128, one block).  No report reduces a whole array itself.

``np.mean`` of a contiguous float64 array is numpy's add reduction, ``0.0 +
P(x)``, divided by the count, where ``P`` is its pairwise sum (N. J. Higham,
"The accuracy of floating point summation", SIAM J. Sci. Comput. 14, 1993).
Its tree depends only on the count: a node of at most ``LEAF`` (128) values
is a leaf, and a node of n > 128 values is the sum of its two halves, split
at n // 2 rounded down to a multiple of 8.  Only this split rule and the
leaf size are mirrored here; numpy sums every node itself.  A node's sum
depends only on its values, so ``np.add.reduce`` of a node's slice gives
the bits the full reduction gives it.

So a block sums each largest node that lies wholly inside it with one
``np.add.reduce``, and copies the rows of a leaf that crosses one of its
bounds into a slot kept for that leaf.  Once every block is in, the tree is
combined from the root down: a node's sum where a block made it, the sum of
a crossing leaf's rows where it is one, else the sum of its two halves.

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

from functools import cached_property
from typing import NamedTuple

import numpy as np

LEAF = 128  # numpy's PW_BLOCKSIZE


def _halves(s: int, n: int) -> tuple:
    """The two halves ``(start, length)`` of the node of n > ``LEAF`` values from row s."""
    half = n // 2 - n // 2 % 8
    return (s, half), (s + half, n - half)


class Block(NamedTuple):
    """What the rows [a, b) give: the sums of the nodes inside, and the rows of the leaves across a bound."""

    a: int
    slot: int  # the block's index
    nodes: tuple  # (s, n): the nodes of rows [s, s + n) that lie wholly inside the block
    pieces: tuple  # (lo, hi, at): rows [lo, hi) of a leaf across a bound go to edge[at:]


class Layout:
    """numpy's pairwise tree over ``count`` values, and the blocks of ``block`` rows over it.

    Blocks start at multiples of ``block``.  The nodes wholly inside a block
    that cover it are disjoint, so each is known by its first row.  A leaf
    across a bound keeps its rows in the ``LEAF`` slots of the edge array
    of the block it starts in; no two such leaves start in one block.
    """

    def __init__(self, count: int, block: int):
        self.count, self.block_rows = count, block
        self.n_blocks = -(-count // block)

    def _inside(self, s: int, n: int) -> bool:
        """Whether the node of rows [s, s + n) lies wholly inside one block."""
        return s // self.block_rows == (s + n - 1) // self.block_rows

    def _slot(self, s: int) -> int:
        """Where the rows of the leaf across a bound from row s go in the edge array."""
        return s // self.block_rows * LEAF

    def block(self, a: int, b: int) -> Block:
        """The layout of the block of rows [a, b): its largest nodes, and the leaves across its bounds."""
        nodes, pieces = [], []

        def cover(s, n):
            if s + n <= a or s >= b:
                return
            if self._inside(s, n):
                nodes.append((s, n))
            elif n <= LEAF:
                lo, hi = max(s, a), min(s + n, b)
                pieces.append((lo, hi, self._slot(s) + lo - s))
            else:
                for half in _halves(s, n):
                    cover(*half)

        cover(0, self.count)
        return Block(a, a // self.block_rows, tuple(nodes), tuple(pieces))

    def total(self, sums: dict, edge: np.ndarray) -> float:
        """The pairwise sum from the node sums (by first row) and the leaves' rows in ``edge``, top down."""

        def node(s, n):
            if self._inside(s, n):
                return sums[s]
            if n <= LEAF:
                return float(np.add.reduce(edge[self._slot(s) : self._slot(s) + n]))
            left, right = _halves(s, n)
            return node(*left) + node(*right)

        return 0.0 + node(0, self.count)


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
        # the largest array first, so a count too large to reduce fails here at once
        self.edge = np.empty((layout.n_blocks - 1) * LEAF)
        self.margins = np.empty(layout.count) if keep else None
        self.sums = {}  # s -> numpy's sum of the node from row s that a block holds
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
        a = block.a
        low = self.mins[block.slot] = np.min(m)
        self.finite[block.slot] = np.isfinite(m).all()
        if not low >= -self.tol_abs:  # a NaN minimum can hide a candidate
            near = np.nonzero(m < -self.tol_abs)[0]
            if len(near):
                self.near[a] = near + a, m[near]
        for s, n in block.nodes:
            self.sums[s] = float(np.add.reduce(m[s - a : s - a + n]))
        for lo, hi, at in block.pieces:
            self.edge[at : at + hi - lo] = m[lo - a : hi - a]

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
        return self.layout.total(self.sums, self.edge) / self.layout.count

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

