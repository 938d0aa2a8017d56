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
operations, which is what makes the 20440 x 20440 case tractable.  Memory is
(current rank) x cols lanes.

`rank_mod_p` is the one entry point: it takes a SparseIncidenceMatrix or a
2-D integer array and feeds the kernel one dense row at a time; an
incidence row is expanded from its CSR slice just before it is inserted.

Pivoting is first-nonzero, so results are deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import RangeError
from .gf import is_prime


class DenseRowPacked:
    """A growable Gauss-Jordan row basis over GF(p), byte-lane packed."""

    def __init__(self, cols: int, p: int, capacity: int = 64):
        if not is_prime(p):
            raise RangeError(f"modulus {p} is not prime")
        self.p = p
        self.cols = cols
        # a reduced lane is <= p-1; one unreduced add contributes (p-1)^2
        lane_need = (p - 1) + (p - 1) ** 2
        self.dtype = next(
            (dt for dt in (np.uint8, np.uint16, np.uint32, np.uint64)
             if lane_need <= np.iinfo(dt).max),
            None,
        )
        if self.dtype is None:
            raise RangeError(f"modulus {p} is too large for a 64-bit lane")
        lane_max = np.iinfo(self.dtype).max
        self._adds_budget = max(1, (lane_max - (p - 1)) // max(1, (p - 1) ** 2))
        self._rows = np.zeros((capacity, cols), dtype=self.dtype)
        self._pivot_cols: list[int] = []
        self._pivot_arr = np.zeros(capacity, dtype=np.int64)

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
                upd = np.outer(self.dtype(p) - col[hit], row)
                self._rows[hit] = (self._rows[hit] + upd) % p
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


def rank_mod_p(mat, p: int | None = None) -> int:
    """Rank over GF(p) of an incidence matrix or any 2-D integer matrix.

    A SparseIncidenceMatrix supplies its own modulus (unless p is given) and
    is fed to the kernel one dense row at a time, built from its CSR row, so
    memory stays rank x cols lanes; for a plain array or nested list p is
    required.
    """
    if hasattr(mat, "indptr"):
        n_rows, cols = mat.rows, mat.cols
        p = mat.modulus if p is None else p
        rows = (_dense_row(mat.row(i), cols) for i in range(n_rows))
    else:
        if p is None:
            raise RangeError("p required for plain arrays")
        rows = np.asarray(mat)
        if rows.ndim != 2:
            raise RangeError("expected a 2-D matrix")
        n_rows, cols = rows.shape
    # start no larger than the rank can grow, so a short matrix allocates little
    acc = DenseRowPacked(int(cols), int(p), capacity=max(1, min(64, n_rows)))
    for row in rows:
        acc.insert(row)
    return acc.rank
