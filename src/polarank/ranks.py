"""Exact rank over GF(p) of a whole matrix: `rank <file>` and the cross-check.

It answers `polarank rank <file>`, where the matrix has no known symmetry,
and in the tests it checks the torus-weight oracle (`torus`) that `verify`
uses, on every case it finishes in seconds.

The kernel keeps a Gauss-Jordan-reduced row basis packed one residue per
lane, with reduction mod p delayed until a lane could overflow.  The lane is
the narrowest unsigned integer that holds (p-1) + (p-1)^2: one byte (eight
per 64-bit word through numpy's vector ops) for p <= 15, then 16, 32 or 64
bits.  Because every basis row is zero at all pivot columns except its own,
an incoming row is reduced in a single pass over the pivot columns where it
is nonzero; for sparse 0/1 incidence rows that is at most nnz(row) vector
operations.  Since rank M = rank M^T, the kernel is fed whichever of the
two has fewer columns, so memory is rank x min(rows, cols) lanes.

Back-elimination leaves lanes in [0, (p-1)p].  Byte lanes (p <= 13) reduce
them without integer division: x = min(x, x - k*p) for k = 2^j descending
from the largest 2^j <= p-1, where the unsigned wrap keeps x when x < k*p.
Wider lanes use numpy's %, which is faster there.

`eliminate` is the one entry point: it takes a SparseIncidenceMatrix or a
2-D integer array and feeds the kernel one dense row at a time; an
incidence row is expanded from its CSR slice just before it is inserted, and
an empty one is skipped.  `rank_mod_p` returns its rank.

Pivoting is first-nonzero, so results are deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import RangeError
from .primality import is_prime


def lane_dtype(p: int) -> type:
    """The narrowest unsigned lane that holds a reduced lane plus one
    unreduced add: (p-1) + (p-1)^2."""
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if (p - 1) + (p - 1) ** 2 <= np.iinfo(dt).max:
            return dt
    raise RangeError(f"modulus {p} is too large for a 64-bit lane")


class DenseRowPacked:
    """A growable Gauss-Jordan row basis over GF(p), byte-lane packed."""

    def __init__(self, cols: int, p: int, capacity: int = 64):
        if not is_prime(p):
            raise RangeError(f"modulus {p} is not prime")
        self.p = p
        self.cols = cols
        self.dtype = lane_dtype(p)
        lane_max = np.iinfo(self.dtype).max
        self._adds_budget = max(1, (lane_max - (p - 1)) // max(1, (p - 1) ** 2))
        self._rows = np.zeros((capacity, cols), dtype=self.dtype)
        self._pivot_cols: list[int] = []
        self._pivot_arr = np.zeros(capacity, dtype=np.int64)
        self.rows_seen = 0
        self.transposed = False  # set by `eliminate`

    @property
    def rank(self) -> int:
        return len(self._pivot_cols)

    @property
    def pivot_cols(self) -> tuple:
        return tuple(self._pivot_cols)

    def _grow(self):
        cap = self._rows.shape[0]
        new = np.zeros((cap * 2, self.cols), dtype=self.dtype)
        new[:cap] = self._rows
        self._rows = new
        piv = np.zeros(cap * 2, dtype=np.int64)
        piv[:cap] = self._pivot_arr
        self._pivot_arr = piv

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """Reduce lanes of at most (p-1) + (p-1)^2 = (p-1)p mod p, in place."""
        if self.dtype is not np.uint8:
            x %= self.p
            return x
        tmp = np.empty_like(x)
        k = 1 << (self.p - 1).bit_length() - 1  # the largest 2^j <= p-1
        while k:
            np.minimum(x, np.subtract(x, self.dtype(k * self.p), out=tmp), out=x)
            k >>= 1
        return x

    def coerce_row(self, row) -> np.ndarray:
        a = np.asarray(row)
        if a.ndim != 1 or a.shape[0] != self.cols:
            raise RangeError(f"row must have length {self.cols}")
        if a.dtype == self.dtype and a.max(initial=0) < self.p:
            return a.astype(self.dtype, copy=True)
        return np.mod(a.astype(np.int64), self.p).astype(self.dtype)

    def insert(self, row) -> bool:
        """Reduce a row against the basis; insert if independent.

        Returns True when the rank grew.
        """
        p = self.p
        row = self.coerce_row(row)
        self.rows_seen += 1
        r = self.rank
        if r:
            coeffs = row[self._pivot_arr[:r]]
            nz = np.flatnonzero(coeffs)
            if nz.size:
                budget = self._adds_budget
                for k in nz.tolist():
                    row += self._rows[k] * self.dtype(p - int(coeffs[k]))
                    budget -= 1
                    if budget == 0:
                        row %= p
                        budget = self._adds_budget
                row %= p
        nz_row = np.flatnonzero(row)
        if nz_row.size == 0:
            return False
        c = int(nz_row[0])
        lead = int(row[c])
        if lead != 1:
            row = (row * self.dtype(pow(lead, -1, p))) % p
        if r:
            col = self._rows[:r, c]
            hit = np.flatnonzero(col)
            if hit.size:
                block = self._rows[hit]
                block += np.outer(self.dtype(p) - col[hit], row)
                self._rows[hit] = self.reduce(block)
        if r == self._rows.shape[0]:
            self._grow()
        self._rows[r] = row
        self._pivot_arr[r] = c
        self._pivot_cols.append(c)
        return True


def _dense_row(idx: np.ndarray, cols: int) -> np.ndarray:
    row = np.zeros(cols, dtype=np.uint8)
    row[idx] = 1
    return row


def eliminate(mat, p: int | None = None) -> DenseRowPacked:
    """The row basis over GF(p) of an incidence matrix or any 2-D integer
    matrix, or of its transpose when that has fewer columns.

    A SparseIncidenceMatrix supplies its own modulus (unless p is given) and
    is fed to the kernel one dense row at a time, built from its CSR row, so
    memory stays rank x min(rows, cols) lanes; for a plain array or nested
    list p is required.
    """
    sparse = hasattr(mat, "indptr")
    if sparse:
        p = mat.modulus if p is None else p
    elif p is None:
        raise RangeError("p required for plain arrays")
    else:
        mat = np.asarray(mat)
        if mat.ndim != 2:
            raise RangeError("expected a 2-D matrix")
    n_rows, cols = (mat.rows, mat.cols) if sparse else mat.shape
    transposed = cols > n_rows
    if transposed:
        mat, n_rows, cols = mat.transpose(), cols, n_rows
    if sparse:  # an empty row is zero, so it cannot raise the rank: skip it
        rows = (_dense_row(mat.row(i), cols) for i in np.flatnonzero(np.diff(mat.indptr)))
    else:
        rows = mat
    # start no larger than the rank can grow, so a short matrix allocates little
    acc = DenseRowPacked(int(cols), int(p), capacity=max(1, min(64, n_rows)))
    acc.transposed = transposed
    for row in rows:
        acc.insert(row)
    return acc


def rank_mod_p(mat, p: int | None = None) -> int:
    """Rank over GF(p) of an incidence matrix or any 2-D integer matrix."""
    return eliminate(mat, p).rank
