"""Row-norm tree plus 64-column block sums, for norm-weighted sampling.

A root tree holds partial sums of squared row norms in the implicit heap
layout (node k has children 2k and 2k+1, padded to a power of two), so a
row draw is a single root-to-leaf descent, O(log rows). Each row keeps only
the sums of squares of its 64-column blocks, ``rows x ceil(cols/64)``
floats, about 1/64 of the data. A column draw within a row is the same
inverse CDF in two steps: a running sum over the row's block sums picks a
block, then a running sum over that block's squared entries picks the
column, O(cols/64 + 64). An entry update refreshes one block sum, the row
total and one root path, also O(cols/64 + 64) plus O(log rows). The in-row
law is only ever queried for sampled rows, so no per-entry structure is
kept beside the raw signed entries.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    EmptyMatrix,
    IndexOutOfRange,
    NonFinite,
    ZeroMatrix,
    ZeroRow,
)


BLOCK = 64
_LANES = np.arange(BLOCK)


def _pow2_at_least(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def _descend(nodes: np.ndarray, u: np.ndarray, leaves: int) -> np.ndarray:
    """Vectorized prefix-sum descent of one tree; one entry of ``u`` per draw.

    Ties go right: the left branch is taken only when u < leftSum, except
    that an empty right subtree forces left so rounding can never enter
    zero mass.
    """
    if u.size == 0:
        return np.zeros(0, dtype=np.int64)
    u = u.copy()
    k = np.ones(u.shape, dtype=np.int64)
    while k[0] < leaves:
        left = nodes[2 * k]
        right = nodes[2 * k + 1]
        go_left = (u < left) | (right <= 0.0)
        k = 2 * k + (~go_left)
        u = np.where(go_left, u, u - left)
    return k - leaves


def _pick(csum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse CDF over running sums, one row of ``csum`` per draw.

    The index is the count of running sums <= u, the same tie rule as
    :func:`_descend`. It is clamped to the last entry with positive mass
    (the first whose running sum reaches the row's total), so rounding can
    never select zero mass.
    """
    hit = np.count_nonzero(csum <= u[:, None], axis=1)
    last = np.count_nonzero(csum < csum[:, -1:], axis=1)
    return np.minimum(hit, last)


class SegTreeMatrix:
    """Matrix store supporting norm-weighted sampling and in-place updates.

    Row draws cost O(log rows); an in-row column draw or an entry update
    costs O(cols/64 + 64). The store beside the entries is the row tree
    (2 pow2(rows) floats) and the block sums (rows x ceil(cols/64) floats).
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.size == 0:
            raise EmptyMatrix(f"need a nonempty 2-D matrix, got shape {x.shape}")
        self._init_zero(x.shape[0], x.shape[1])
        self.set_rows(0, x)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SegTreeMatrix":
        """All-zero store to be filled incrementally via set_rows/update."""
        if rows < 1 or cols < 1:
            raise EmptyMatrix(f"need positive dimensions, got {rows}x{cols}")
        t = cls.__new__(cls)
        t._init_zero(rows, cols)
        return t

    def _init_zero(self, rows: int, cols: int) -> None:
        self.rows = rows
        self.cols = cols
        self._rpad = _pow2_at_least(rows)
        self._values = np.zeros((rows, cols))
        self._blocks = np.zeros((rows, -(-cols // BLOCK)))
        self._root_nodes = np.zeros(2 * self._rpad)

    # -- construction ------------------------------------------------------

    def set_rows(self, start: int, block) -> None:
        """Overwrite rows ``start:start+len(block)`` in one vectorized pass."""
        block = np.atleast_2d(np.asarray(block, dtype=np.float64))
        stop = start + block.shape[0]
        if not (0 <= start and stop <= self.rows and block.shape[1] == self.cols):
            raise IndexOutOfRange(
                f"rows [{start}, {stop}) x {block.shape[1]} does not fit "
                f"in {self.rows}x{self.cols}"
            )
        # A NaN or Inf entry makes the plain sum non-finite, so the entrywise
        # scan (and its rows x cols mask) runs only when the sum is; it also
        # tells an overflowing sum of finite entries apart.
        if not np.isfinite(block.sum()) and not np.isfinite(block).all():
            raise NonFinite("block contains NaN or Inf")
        values = self._values[start:stop]
        values[...] = block
        sums = self._blocks[start:stop]
        full = self.cols // BLOCK
        if full:
            body = values[:, : full * BLOCK].reshape(len(values), full, BLOCK)
            np.einsum("rbk,rbk->rb", body, body, out=sums[:, :full])
        if full < sums.shape[1]:
            tail = values[:, full * BLOCK :]
            np.einsum("rk,rk->r", tail, tail, out=sums[:, full])
        root = self._root_nodes
        root[self._rpad + start : self._rpad + stop] = sums.sum(axis=1)
        lo, hi = self._rpad + start, self._rpad + stop - 1
        while lo > 1:
            lo >>= 1
            hi >>= 1
            k = np.arange(lo, hi + 1)
            root[k] = root[2 * k] + root[2 * k + 1]

    def update(self, i: int, j: int, v: float) -> None:
        """Set entry (i, j) to ``v``; refresh its block sum and row total."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexOutOfRange(f"({i}, {j}) outside {self.rows}x{self.cols}")
        v = float(v)
        if not np.isfinite(v):
            raise NonFinite(f"update value {v!r} is not finite")
        self._values[i, j] = v
        # The 1-D einsum over a block equals set_rows' batched one bitwise,
        # so a store kept by updates matches a fresh build exactly.
        b = j // BLOCK
        seg = self._values[i, b * BLOCK : (b + 1) * BLOCK]
        sums = self._blocks[i]
        sums[b] = np.einsum("k,k->", seg, seg)
        root = self._root_nodes
        q = self._rpad + i
        root[q] = sums.sum()
        q >>= 1
        while q >= 1:
            root[q] = root[2 * q] + root[2 * q + 1]
            q >>= 1

    # -- accessors ---------------------------------------------------------

    def get(self, i: int, j: int) -> float:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexOutOfRange(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return float(self._values[i, j])

    def row_norm_sq(self, i):
        """Squared norm of row ``i``; accepts an int or an index array."""
        i = np.asarray(i)
        if i.size and (i.min() < 0 or i.max() >= self.rows):
            raise IndexOutOfRange(f"row index outside [0, {self.rows})")
        out = self._root_nodes[self._rpad + i]
        return float(out) if out.ndim == 0 else out

    def fro_norm_sq(self) -> float:
        return float(self._root_nodes[1])

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def dense(self) -> np.ndarray:
        """The stored signed entries. Treat as read-only; mutate via update."""
        return self._values

    def to_dense(self) -> np.ndarray:
        return self._values.copy()

    # -- sampling ----------------------------------------------------------

    def sample_rows(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. row indices with probability rowNormSq/froSq."""
        total = self._root_nodes[1]
        if total <= 0.0:
            raise ZeroMatrix("cannot sample rows of an all-zero matrix")
        u = rng.random(size) * total
        return _descend(self._root_nodes, u, self._rpad)

    def sample_row(self, rng: np.random.Generator) -> int:
        return int(self.sample_rows(rng, 1)[0])

    def sample_cols_in_rows(
        self, rows, rng: np.random.Generator
    ) -> np.ndarray:
        """For each row index, draw a column with in-row law entrySq/rowNormSq.

        One uniform ``u`` per draw, in [0, rowNormSq): the running sum of the
        row's block sums picks the block, and ``u`` less the mass before that
        block picks the column from the running sum of its squared entries.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.rows):
            raise IndexOutOfRange(f"row index outside [0, {self.rows})")
        totals = self._root_nodes[self._rpad + rows]
        if np.any(totals <= 0.0):
            bad = int(rows[np.argmax(totals <= 0.0)])
            raise ZeroRow(f"row {bad} has zero norm; its column law is undefined")
        u = rng.random(rows.size) * totals
        csum = np.cumsum(self._blocks[rows], axis=1)
        b = _pick(csum, u)
        u -= np.where(b > 0, csum[np.arange(rows.size), b - 1], 0.0)
        cols = b[:, None] * BLOCK + _LANES[: self.cols]
        flat = rows[:, None] * self.cols + np.minimum(cols, self.cols - 1)
        sq = self._values.ravel().take(flat) ** 2
        sq[cols >= self.cols] = 0.0
        return b * BLOCK + _pick(np.cumsum(sq, axis=1), u)

    def sample_col_in_row(self, i: int, rng: np.random.Generator) -> int:
        return int(self.sample_cols_in_rows(np.array([i]), rng)[0])
