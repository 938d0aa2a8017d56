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
2-D integer array and does only the work the rank needs.  It feeds the
kernel one dense row at a time (an incidence row is expanded from its CSR
slice just before it is inserted, and an empty one is skipped) and stops
once the rank equals the column count.  Where SCREEN_AFTER rows in a row
have not raised the rank, it screens the next rows in doubling blocks: one
exact product reduces a whole block against the basis (`screen`), the rows
whose residue is 0 mod p are dropped, and only the survivors are inserted.
The product runs in float32 or float64 only where rank*(p-1)^2 + (p-1) fits
the mantissa, so it is exact; where no float does (p near 2^32), nothing is
screened.  The screen's temporaries stay within SCREEN_BYTES (512 KiB), and
a rank whose basis slice alone would pass that is fed row by row.
`rank_mod_p` returns the rank.

Pivoting is first-nonzero, so results are deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import RangeError
from .primality import is_prime

# bytes the screen's temporaries may take: half for the float basis slice and
# its gathered copy, half for one block
SCREEN_BYTES = 1 << 19
# fed rows in a row that left the rank unchanged before blocks are screened
SCREEN_AFTER = 32
# rows in the first screened block of a run; each block without survivors
# doubles the next
SCREEN_FIRST = 16


def lane_dtype(p: int) -> type:
    """The narrowest unsigned lane that holds a reduced lane plus one
    unreduced add: (p-1) + (p-1)^2."""
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if (p - 1) + (p - 1) ** 2 <= np.iinfo(dt).max:
            return dt
    raise RangeError(f"modulus {p} is too large for a 64-bit lane")


def _exact_float(p: int, rank: int) -> type | None:
    """The narrowest float in which a product of `rank` terms of residues mod p,
    minus a residue, is exact: rank*(p-1)^2 + (p-1) within its mantissa.
    None when no float is."""
    bound = rank * (p - 1) ** 2 + (p - 1)
    for dt in (np.float32, np.float64):
        if bound <= 1 << np.finfo(dt).nmant + 1:
            return dt
    return None


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
        self._screen_basis = None  # (rank, free columns, basis at them as floats)

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

    def insert(self, row, *, owned: bool = False) -> bool:
        """Reduce a row against the basis; insert if independent.

        Returns True when the rank grew.  Any integer row is reduced mod p
        into a fresh copy; with owned=True the caller hands over a writable
        row of the lane dtype already reduced mod p (the kernel's own rows),
        and that validation copy is skipped.
        """
        p = self.p
        if not owned:
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

    def screen_rows(self) -> int:
        """Rows a screened block may have at the current rank: 0 when no
        float product is exact or the basis slice alone passes the budget."""
        r, free = self.rank, self.cols - self.rank
        ftype = _exact_float(self.p, r)
        if ftype is None:
            return 0
        f = np.dtype(ftype).itemsize
        if 2 * r * free * f > SCREEN_BYTES // 2:
            return 0
        lane = np.dtype(self.dtype).itemsize
        # a block read as int64 and as lanes, its pivot lanes, and three
        # float arrays of at most r or `free` columns
        per_row = self.cols * (8 + lane) + r * lane + (r + 3 * free) * f
        return SCREEN_BYTES // 2 // per_row

    def screen(self, block: np.ndarray) -> np.ndarray:
        """The rows of `block` (lanes reduced mod p) outside the span of the
        basis, as residues: rows zero at every pivot column.

        A row x reduces to x - x[pivots] . basis, since the basis is the
        identity at its pivot columns; so the whole block is one product
        over the free columns, restricted to the pivot columns it hits.
        Every entry is a residue, so the product is exact in the float that
        `_exact_float` picks for the rank.  Rows whose residue is 0 mod p are
        dropped and counted as seen; the caller inserts the survivors.
        """
        r = self.rank
        if self._screen_basis is None or self._screen_basis[0] != r:
            ftype = _exact_float(self.p, r)
            if ftype is None:
                raise RangeError(f"no float product is exact at rank {r} mod {self.p}")
            used = np.zeros(self.cols, dtype=bool)
            used[self._pivot_arr[:r]] = True
            free = np.flatnonzero(~used)
            basis = self._rows[:r][:, free].astype(ftype)
            self._screen_basis = (r, free, basis)
        _, free, basis = self._screen_basis
        coeffs = block[:, self._pivot_arr[:r]]
        hit = np.flatnonzero(coeffs.any(axis=0))
        if hit.size < r:
            coeffs, basis = coeffs[:, hit], basis[hit]
        res = block[:, free].astype(basis.dtype)
        res -= coeffs.astype(basis.dtype) @ basis
        np.remainder(res, self.p, out=res)
        alive = np.flatnonzero(res.any(axis=1))
        self.rows_seen += len(block) - alive.size
        out = np.zeros((alive.size, self.cols), dtype=self.dtype)
        out[:, free] = res[alive]
        return out


def eliminate(mat, p: int | None = None) -> DenseRowPacked:
    """The row basis over GF(p) of an incidence matrix or any 2-D integer
    matrix, or of its transpose when that has fewer columns.

    A SparseIncidenceMatrix supplies its own modulus (unless p is given); its
    rows are expanded from their CSR slices as they are fed, so memory stays
    rank x min(rows, cols) lanes plus the screen's SCREEN_BYTES.  For a plain
    array or nested list p is required.

    Feeding stops once the rank equals the column count, since it cannot
    grow further.  After SCREEN_AFTER fed rows in a row have not raised the
    rank, the next rows go to `DenseRowPacked.screen` in blocks that double
    from SCREEN_FIRST rows while none survives, as large as the budget
    admits; a block with survivors inserts them and returns to feeding row
    by row.  `rows_seen` counts the rows examined, at most the matrix's rows.
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
    # start no larger than the rank can grow, so a short matrix allocates little
    acc = DenseRowPacked(int(cols), int(p), capacity=max(1, min(64, n_rows)))
    acc.transposed = transposed
    if sparse:
        # an empty row is zero, so it cannot raise the rank: only the others
        # are fed, row k being indices[starts[k]:starts[k + 1]]
        starts = mat.indptr[np.append(np.flatnonzero(np.diff(mat.indptr)), n_rows)]
        indices, n_rows = mat.indices, len(starts) - 1

        def insert(i):
            row = np.zeros(cols, dtype=acc.dtype)
            row[indices[starts[i]:starts[i + 1]]] = 1
            return acc.insert(row, owned=True)

        def block(lo, hi):
            ptr = starts[lo:hi + 1]
            out = np.zeros((hi - lo, cols), dtype=acc.dtype)
            out[np.repeat(np.arange(hi - lo), np.diff(ptr)), indices[ptr[0]:ptr[-1]]] = 1
            return out
    else:
        def insert(i):
            return acc.insert(mat[i])

        def block(lo, hi):
            lanes = mat[lo:hi].astype(np.int64)
            return np.mod(lanes, p, out=lanes).astype(acc.dtype)

    i, run, step = 0, 0, SCREEN_FIRST
    while i < n_rows and acc.rank < cols:
        size = min(step, n_rows - i, acc.screen_rows()) if run >= SCREEN_AFTER else 0
        if not size:
            run = 0 if insert(i) else run + 1
            i += 1
            continue
        survivors = acc.screen(block(i, i + size))
        i += size
        for row in survivors:
            acc.insert(row, owned=True)
        run, step = (0, SCREEN_FIRST) if len(survivors) else (run, 2 * step)
    return acc


def rank_mod_p(mat, p: int | None = None) -> int:
    """Rank over GF(p) of an incidence matrix or any 2-D integer matrix."""
    return eliminate(mat, p).rank
