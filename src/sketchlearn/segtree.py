"""Row-norm tree plus 64-column block sums, for norm-weighted sampling.

A root tree holds partial sums of squared row norms in the implicit heap
layout (node k has children 2k and 2k+1, padded to a power of two), so a
row draw is a single root-to-leaf descent, O(log rows). Each row keeps only
the sums of squares of its 64-column blocks, ``rows x ceil(cols/64)``
floats, about 1/64 of the data. A column draw within a row is the same
inverse CDF in two steps: a running sum over the row's block sums picks a
block, then a running sum over that block's squared entries picks the
column, O(cols/64 + 64). The in-row law is only ever queried for sampled
rows, so no per-entry structure is kept beside the raw signed entries. A
batch of draws walks the tree with its indices and uniforms updated in
place, and gathers each drawn block whole and squares it in place.

Every write only marks what it invalidated: an entry update writes the
entry and marks its block and row through flat views of the store's
buffers, O(1) with no numpy call; ``set_rows``
checks its rows, writes their entries and block sums, and marks the rows.
The next read recomputes the p marked blocks, then the t marked rows'
totals from their block sums, then climbs the root tree once, level by
level, O(64 p + t cols/64 + t log rows), after a scan of the row flags and
of the marked rows' block flags. So a store filled row-block by row-block
climbs once, at its first read, and a constructed store is ready to read.
After any read the store equals a fresh build bitwise. The pending state,
one flag per block and one per row, is bounded by the store's shape.

Every sum of squares must be finite. ``set_rows`` raises NonFinite, and
writes nothing, when one of its rows' block sums or totals is not (a NaN
or Inf entry, or squares that overflow); ``update`` does when the square of
its value overflows; and a read raises it when the row totals sum past the
largest float. So no draw ever walks a non-finite sum.
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
    is_number,
)


BLOCK = 64


def _pow2_at_least(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def _descend(nodes: np.ndarray, u: np.ndarray, leaves: int) -> np.ndarray:
    """Vectorized prefix-sum descent of one tree; one entry of ``u`` per draw.

    At each level a draw goes right iff u >= leftSum and the right subtree
    has mass: ties go right, and rounding can never enter zero mass. ``k``
    and ``u`` are updated in place (``u`` is overwritten) and the child sums
    are gathered into reused buffers, so a level allocates nothing.
    """
    k = np.ones(u.shape, dtype=np.int64)
    left = np.empty_like(u)
    right = np.empty_like(u)
    go_right = np.empty(u.shape, dtype=bool)
    has_mass = np.empty(u.shape, dtype=bool)
    width = 1
    while width < leaves:
        k <<= 1
        # Every index is in range, and "clip" lets take write straight to out.
        np.take(nodes, k, out=left, mode="clip")
        np.take(nodes[1:], k, out=right, mode="clip")
        np.greater_equal(u, left, out=go_right)
        np.greater(right, 0.0, out=has_mass)
        go_right &= has_mass
        k += go_right
        np.subtract(u, left, out=u, where=go_right)
        width <<= 1
    k -= leaves
    return k


def _index(idx, size: int, what: str):
    """Check an index into ``range(size)``: an int, or a 1-D int64 index array.

    Non-integer indices, bools and index arrays of any other number of axes
    raise ``TypeError`` and are never truncated or broadcast; out-of-range
    ones raise IndexOutOfRange.
    """
    if idx is True or idx is False:  # bool has no other instances
        raise TypeError(f"{what} index must be an integer, got {idx!r}")
    try:
        k = operator.index(idx)
    except TypeError:
        pass
    else:
        if 0 <= k < size:
            return k
        raise IndexOutOfRange(f"{what} index {k} outside [0, {size})")
    a = np.asarray(idx)
    if a.ndim != 1 or (a.size and a.dtype.kind not in "iu"):
        raise TypeError(
            f"{what} index must be an integer or a 1-D integer array, got {idx!r}"
        )
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
    :func:`_descend`, with u capped just below the row's total (its last
    running sum). So the index is at most that of the last entry with
    positive mass, and rounding can never select zero mass. One compare
    pass over ``csum``.
    """
    cap = np.nextafter(csum[:, -1], -np.inf)
    np.minimum(cap, u, out=cap)
    return np.count_nonzero(csum <= cap[:, None], axis=1)


def _pick_in_block(seg: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Offset of the drawn entry in each gathered block row of ``seg``.

    ``seg`` is a fresh gather; it is squared and summed in place.
    """
    seg *= seg
    np.cumsum(seg, axis=1, out=seg)
    return _pick(seg, u)


class SegTreeMatrix:
    """Matrix store supporting norm-weighted sampling and in-place updates.

    Row draws cost O(log rows) and an in-row column draw O(cols/64 + 64).
    A write costs O(1) (``update``) or O(cols) per row (``set_rows``) at
    the call and only marks what it invalidated; the next read refreshes
    it in O(64 p + t cols/64 + t log rows) vectorized work (see the module
    docstring). A constructed store is ready to read. The store beside the
    entries is the row tree (2 pow2(rows) floats), the block sums
    (rows x ceil(cols/64) floats) and one stale flag per block and per row.

    A read may refresh pending state, so a store with pending writes must
    not be read from two threads at once.
    """

    def __init__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.size == 0:
            raise EmptyMatrix(f"need a nonempty 2-D matrix, got shape {x.shape}")
        self._init_zero(x.shape[0], x.shape[1])
        self.set_rows(0, x)
        # Ready to read; an overflowing total is left for the reads to reject.
        self._refresh_pending()

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SegTreeMatrix":
        """All-zero store to be filled incrementally via set_rows/update.

        A non-integer or boolean dimension is a TypeError and one below 1
        is EmptyMatrix, both raised before anything is allocated.
        """
        if not (is_number(rows) and is_number(cols)):
            raise TypeError(f"dimensions must be integers, got {rows!r}x{cols!r}")
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
        self._nblocks = -(-cols // BLOCK)
        self._blocks = np.zeros((rows, self._nblocks))
        self._root_nodes = np.zeros(2 * self._rpad)
        # Blocks written by update() and rows written by either writer since
        # the last refresh, so it scans the row flags and the marked rows' blocks.
        self._stale = np.zeros(self._blocks.shape, dtype=bool)
        self._stale_rows = np.zeros(rows, dtype=bool)
        self._pending = False
        self._make_views()

    def _make_views(self) -> None:
        # Flat buffer views for update(): a write through one is a plain
        # Python store, no numpy scalar assignment.
        self._values_buf = memoryview(self._values).cast("B").cast("d")
        self._stale_buf = memoryview(self._stale).cast("B").cast("?")
        self._stale_rows_buf = memoryview(self._stale_rows).cast("B").cast("?")

    # A memoryview does not pickle or deep-copy; the copy makes its own.
    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not isinstance(v, memoryview)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._make_views()

    # -- construction ------------------------------------------------------

    def set_rows(self, start: int, block) -> None:
        """Overwrite rows ``start:start+len(block)`` in one vectorized pass.

        The block sums and row totals are computed before anything is
        written. A NaN or Inf entry, or squares whose sum overflows, makes
        one of them non-finite; then NonFinite is raised and the store is
        left unchanged. Otherwise the entries and block sums are written
        and the rows marked: the next read computes their totals and climbs.
        """
        # C order, so the einsums below run as on the store's own rows.
        block = np.atleast_2d(np.ascontiguousarray(block, dtype=np.float64))
        if block.shape[1] != self.cols:
            raise IndexOutOfRange(
                f"{block.shape[1]} columns do not fit in {self.rows}x{self.cols}"
            )
        start = _index(start, self.rows - block.shape[0] + 1, "start row")
        stop = start + block.shape[0]
        sums = np.empty((block.shape[0], self._nblocks))
        full = self.cols // BLOCK
        if full:
            body = block[:, : full * BLOCK].reshape(len(block), full, BLOCK)
            np.einsum("rbk,rbk->rb", body, body, out=sums[:, :full])
        if full < sums.shape[1]:
            tail = block[:, full * BLOCK :]
            np.einsum("rk,rk->r", tail, tail, out=sums[:, full])
        with np.errstate(over="ignore"):
            if not np.isfinite(sums.sum(axis=1)).all():
                raise NonFinite("block has NaN or Inf entries, or its squares overflow")
        self._values[start:stop] = block
        self._blocks[start:stop] = sums
        self._stale[start:stop] = False
        self._stale_rows[start:stop] = True
        self._pending = True

    def update(self, i: int, j: int, v: float) -> None:
        """Set entry (i, j) to ``v`` and mark its block stale.

        One entry per call: an index array raises TypeError. At the call
        the work is Python-level, with no numpy call: the indices and the
        value are checked, and the entry and its block's and row's stale
        flags are written through flat views of the store's buffers. The
        next read refreshes the block sum, the row total and the root path.
        A value that is not finite, or whose square overflows, raises
        NonFinite.
        """
        # Plain in-range ints skip the general check; anything else, and
        # every index to reject, goes through _index.
        if not (type(i) is int and 0 <= i < self.rows):
            i = operator.index(_index(i, self.rows, "row"))
        if not (type(j) is int and 0 <= j < self.cols):
            j = operator.index(_index(j, self.cols, "column"))
        v = float(v)
        if not math.isfinite(v * v):
            raise NonFinite(f"update value {v!r} is not finite or its square overflows")
        self._values_buf[i * self.cols + j] = v
        self._stale_buf[i * self._nblocks + j // BLOCK] = True
        self._stale_rows_buf[i] = True
        self._pending = True

    def _refresh(self) -> None:
        """Bring the sampling state up to date for a read, and check it.

        Pending writes are refreshed first. The row totals are
        nonnegative, so a non-finite one makes the Frobenius total
        non-finite too; a read then raises NonFinite, and never samples.
        """
        if self._pending:
            self._refresh_pending()
        if not math.isfinite(self._root_nodes[1]):
            raise NonFinite("the sum of squared entries overflows")

    def _refresh_pending(self) -> None:
        """Recompute the marked block sums, then the marked rows' totals from
        their block sums, then climb the root tree once, level by level.

        The only writer of the root tree. The einsums are set_rows' own, so
        the result equals a fresh build bitwise.
        """
        touched = np.flatnonzero(self._stale_rows)
        hit, blocks = np.divmod(
            np.flatnonzero(self._stale[touched]), self._nblocks
        )
        rows = touched[hit]
        for at, seg in self._block_entries(rows, blocks):
            self._blocks[rows[at], blocks[at]] = np.einsum("pk,pk->p", seg, seg)
        root = self._root_nodes
        k = self._rpad + touched
        # An overflowing total becomes inf, which every read then rejects.
        with np.errstate(over="ignore"):
            root[k] = self._blocks[touched].sum(axis=1)
            while k.size and k[0] > 1:
                k = _dedupe_sorted(k >> 1)
                root[k] = root[2 * k] + root[2 * k + 1]
        self._stale[touched] = False
        self._stale_rows[touched] = False
        self._pending = False

    def _block_entries(self, rows: np.ndarray, blocks: np.ndarray):
        """Yield ``(at, entries)``: fresh gathers of block ``blocks[at]`` of
        row ``rows[at]``. Full blocks come whole, through a view of the full
        blocks; then the ragged last block, at its ``cols % 64`` entries."""
        full = self.cols // BLOCK
        at = np.flatnonzero(blocks < full)
        if at.size:
            body = self._values[:, : full * BLOCK].reshape(self.rows, full, BLOCK)
            yield at, body[rows[at], blocks[at]]
        at = np.flatnonzero(blocks == full)
        if at.size:
            yield at, self._values[rows[at], full * BLOCK :]

    # -- accessors ---------------------------------------------------------

    def get(self, i: int, j: int) -> float:
        """Entry (i, j); one entry per call, so an index array is a TypeError."""
        i = operator.index(_index(i, self.rows, "row"))
        j = operator.index(_index(j, self.cols, "column"))
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

    # -- sampling ----------------------------------------------------------

    def sample_rows(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. row indices with probability rowNormSq/froSq."""
        self._refresh()
        total = self._root_nodes[1]
        if total <= 0.0:
            raise ZeroMatrix("cannot sample rows of an all-zero matrix")
        u = rng.random(size)
        u *= total
        return _descend(self._root_nodes, u, self._rpad)

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
        csum = self._blocks.take(rows, axis=0)
        np.cumsum(csum, axis=1, out=csum)
        b = _pick(csum, u)
        u -= np.where(b > 0, csum[np.arange(rows.size), b - 1], 0.0)
        cols = b * BLOCK
        for at, seg in self._block_entries(rows, b):
            cols[at] += _pick_in_block(seg, u[at])
        return cols
