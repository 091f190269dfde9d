"""Row-norm tree plus 64-column block sums, for norm-weighted sampling.

A root tree holds partial sums of squared row norms in the implicit heap
layout (node k has children 2k and 2k+1, padded to a power of two), so a
row draw is a single root-to-leaf descent, O(log rows). Each row keeps only
the sums of squares of its 64-column blocks, ``rows x ceil(cols/64)``
floats, about 1/64 of the data. A column draw within a row is the same
inverse CDF in two steps: a running sum over the row's block sums picks a
block, then a running sum over that block's squared entries picks the
column, O(cols/64 + 64). The in-row law is only ever queried for sampled
rows, so no per-entry structure is kept beside the raw signed entries.

An entry update writes the entry and marks its block stale, O(1) work with
no numpy reduction. The next read of the sampling state refreshes all p
pending blocks in one vectorized pass: their block sums, then the touched
row totals, then the root paths level by level, O(64 p + p log rows). To
find them it scans one stale flag per row, then the block flags of the t
touched rows only, O(rows + t cols/64). After any read the store equals a
fresh build of the same entries bitwise. The pending state is one flag per
block and one per row, so it is bounded by the store's shape whatever the
number of updates.
"""

from __future__ import annotations

import math
import operator

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


def _index(idx, size: int, what: str):
    """Check an index into ``range(size)``: an int, or an int64 index array.

    Non-integer indices raise ``TypeError``, as :func:`operator.index` does,
    and are never truncated; out-of-range ones raise IndexOutOfRange.
    """
    try:
        k = operator.index(idx)
    except TypeError:
        pass
    else:
        if 0 <= k < size:
            return k
        raise IndexOutOfRange(f"{what} index {k} outside [0, {size})")
    a = np.asarray(idx)
    if a.ndim == 0 or (a.size and a.dtype.kind not in "iu"):
        raise TypeError(f"{what} indices must be integers, got {idx!r}")
    a = a.astype(np.int64, copy=False)
    if a.size and (a.min() < 0 or a.max() >= size):
        raise IndexOutOfRange(f"{what} index outside [0, {size})")
    return a


def _dedupe_sorted(a: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted array (np.unique without its sort)."""
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


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

    Row draws cost O(log rows) and an in-row column draw O(cols/64 + 64).
    An entry update is O(1) at the call; the next read refreshes the p
    blocks updated since the last one in O(64 p + p log rows) vectorized
    work, after a scan of the row flags and of the touched rows' block
    flags. The store beside the entries is the row tree (2 pow2(rows)
    floats), the block sums (rows x ceil(cols/64) floats) and one stale
    flag per block and per row.

    A read may refresh pending state, so a store with pending updates must
    not be read from two threads at once.
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
        # Blocks written by update() since the last refresh, and their rows,
        # so a refresh scans the row flags and only the touched rows' blocks.
        self._stale = np.zeros(self._blocks.shape, dtype=bool)
        self._stale_rows = np.zeros(rows, dtype=bool)
        self._pending = False

    # -- construction ------------------------------------------------------

    def set_rows(self, start: int, block) -> None:
        """Overwrite rows ``start:start+len(block)`` in one vectorized pass."""
        block = np.atleast_2d(np.asarray(block, dtype=np.float64))
        if block.shape[1] != self.cols:
            raise IndexOutOfRange(
                f"{block.shape[1]} columns do not fit in {self.rows}x{self.cols}"
            )
        start = _index(start, self.rows - block.shape[0] + 1, "start row")
        stop = start + block.shape[0]
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
        self._stale[start:stop] = False
        self._stale_rows[start:stop] = False
        lo, hi = self._rpad + start, self._rpad + stop
        self._root_nodes[lo:hi] = sums.sum(axis=1)
        self._refresh_ancestors(np.arange(lo, hi))

    def update(self, i: int, j: int, v: float) -> None:
        """Set entry (i, j) to ``v`` and mark its block stale.

        O(1) work with no numpy reduction: the index and the value are
        checked here, and the next read refreshes the block sum, the row
        total and the root path.
        """
        i = _index(i, self.rows, "row")
        j = _index(j, self.cols, "column")
        v = float(v)
        if not math.isfinite(v):
            raise NonFinite(f"update value {v!r} is not finite")
        self._values[i, j] = v
        self._stale[i, j // BLOCK] = True
        self._stale_rows[i] = True
        self._pending = True

    def _refresh(self) -> None:
        """Recompute every stale block sum, row total and root path at once.

        The einsums are set_rows' own, the ragged last block at its own
        length, so the result equals a fresh build bitwise.
        """
        if not self._pending:
            return
        touched = np.flatnonzero(self._stale_rows)
        hit, blocks = np.divmod(
            np.flatnonzero(self._stale[touched]), self._blocks.shape[1]
        )
        rows = touched[hit]
        full = self.cols // BLOCK
        is_full = blocks < full
        r, b = rows[is_full], blocks[is_full]
        # A view of the full blocks, so the gather copies whole blocks.
        body = self._values[:, : full * BLOCK].reshape(self.rows, full, BLOCK)
        seg = body[r, b]
        self._blocks[r, b] = np.einsum("pk,pk->p", seg, seg)
        tail = rows[~is_full]
        if tail.size:
            seg = self._values[tail, full * BLOCK :]
            self._blocks[tail, full] = np.einsum("rk,rk->r", seg, seg)
        self._root_nodes[self._rpad + touched] = self._blocks[touched].sum(axis=1)
        self._refresh_ancestors(self._rpad + touched)
        self._stale[touched] = False
        self._stale_rows[touched] = False
        self._pending = False

    def _refresh_ancestors(self, k: np.ndarray) -> None:
        """Recompute the root tree above the leaves at heap positions ``k``
        (sorted, distinct), level by level."""
        root = self._root_nodes
        while k.size and k[0] > 1:
            k = _dedupe_sorted(k >> 1)
            root[k] = root[2 * k] + root[2 * k + 1]

    # -- accessors ---------------------------------------------------------

    def get(self, i: int, j: int) -> float:
        i = _index(i, self.rows, "row")
        j = _index(j, self.cols, "column")
        return float(self._values[i, j])

    def row_norm_sq(self, i):
        """Squared norm of row ``i``; accepts an int or an index array."""
        i = _index(i, self.rows, "row")
        self._refresh()
        out = self._root_nodes[self._rpad + i]
        return float(out) if out.ndim == 0 else out

    def fro_norm_sq(self) -> float:
        self._refresh()
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
        self._refresh()
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
        rows = _index(np.atleast_1d(rows), self.rows, "row")
        self._refresh()
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
