"""Dense exact linear algebra over GF(q) via lookup-table gathers.

Matrices are numpy arrays of field codes.  Row operations are table gathers
(add[M, mul[c, row]]), so elimination runs at numpy speed while staying exact.
There is one Gauss-Jordan loop, one matrix product and one keyed sum.
``rref_stack`` reduces a whole stack (B, k, n) of matrices at once, one
column step for all items; the 2-D calls are that loop on a stack of one.
``matmul`` is every GF(q) product in the package, from points c.G of flats
and isotropy tests to products of symplectic matrices and the evaluation of
functions on V.  ``keyed_sum`` adds codes into cells: the torus route's
character sums and the function-space lab's products.  ``DiagonalBlocks``
splits a sparse matrix into the connected components of its nonzero pattern
and ranks and solves them as stacks, one per component shape: the lab's
symplectic basis matrices, whose columns have at most 2^t nonzeros.  Stacks
reach about a million small items (the perps of every isotropic flat); the
large GF(p) rank kernel lives in ranks.py.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvariantError
from .gf import FieldSpec


def as_code_matrix(field: FieldSpec, rows) -> np.ndarray:
    a = np.array(rows, dtype=field.dtype)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def matmul(field: FieldSpec, a, b) -> np.ndarray:
    """a @ b over GF(q) for code arrays (..., i, k) and (..., k, j).

    The leading axes broadcast as in numpy's matmul.  The product is one
    table gather per inner index k, so it costs k passes over the output.
    """
    add_t, mul_t = field.np_tables()[:2]
    a, b = np.asarray(a), np.asarray(b)
    try:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:  # the leading axes do not broadcast
        lead = None
    if lead is None or a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionMismatch(f"cannot multiply shapes {a.shape} and {b.shape}")
    out = np.zeros(lead + (a.shape[-2], b.shape[-1]), dtype=field.dtype)
    for k in range(a.shape[-1]):
        out = add_t[out, mul_t[a[..., :, k, None], b[..., None, k, :]]]
    return out


def keyed_sum(field: FieldSpec, keys, codes, size: int) -> np.ndarray:
    """out[k] = the GF(q) sum of the codes[i] with keys[i] == k, for k < size.

    Codes add digit-wise mod p, so each base-p digit of the sums is one
    integer keyed sum reduced mod p, and the digits recombine by Horner.
    """
    p, codes = field.p, np.asarray(codes)
    # a digit sum stays below len(keys) * p, so the smallest type that holds
    # that is exact and keeps the accumulator and its remainder cheap
    acc = np.min_scalar_type(max(len(codes), 1) * p).type
    sums = np.empty(size, dtype=acc)
    out = np.zeros(size, dtype=field.dtype)
    for i in range(field.t - 1, -1, -1):
        sums[:] = 0
        np.add.at(sums, keys, (codes // p**i % p).astype(acc))
        sums %= acc(p)
        out *= field.dtype(p)
        out += sums.astype(field.dtype)
    return out


def rref_stack(field: FieldSpec, stack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced row echelon form of every item of a (B, k, n) stack.

    Returns (reduced, pivots, ranks): reduced[b, :ranks[b]] is the RREF of
    item b and its other rows are zero; pivots[b, i] is the pivot column of
    row i, or n for i >= ranks[b].
    """
    add_t, mul_t, neg_t, inv_t, _ = field.np_tables()
    a = as_code_matrix(field, stack)
    nitems, nrows, ncols = a.shape
    pivots = np.full((nitems, nrows), ncols, dtype=np.intp)
    ranks = np.zeros(nitems, dtype=np.intp)
    below = np.arange(nrows)
    for c in range(ncols):
        live = np.flatnonzero(ranks < nrows)
        if live.size == 0:
            break
        r = ranks[live]
        cand = (a[live, :, c] != 0) & (below >= r[:, None])
        hit = cand.any(axis=1)
        live, r = live[hit], r[hit]
        if live.size == 0:
            continue
        i = cand[hit].argmax(axis=1)
        prow = a[live, i]
        a[live, i] = a[live, r]
        prow = mul_t[inv_t[prow[:, c]][:, None], prow]
        # clear column c in every other row that has an entry there
        factors = a[live, :, c]
        factors[np.arange(live.size), r] = 0
        item, row = np.nonzero(factors)
        update = mul_t[neg_t[factors[item, row]][:, None], prow[item]]
        a[live[item], row] = add_t[a[live[item], row], update]
        a[live, r] = prow
        pivots[live, r] = c
        ranks[live] += 1
    return a, pivots, ranks


def rref(field: FieldSpec, matrix) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (rref matrix, pivot columns)."""
    red, pivots, ranks = rref_stack(field, as_code_matrix(field, matrix)[None])
    r = int(ranks[0])
    return red[0, :r], tuple(pivots[0, :r].tolist())


def rank(field: FieldSpec, matrix) -> int:
    return rref(field, matrix)[0].shape[0]


def nullspace(field: FieldSpec, matrix) -> np.ndarray:
    """RREF basis of {v : A v = 0} as rows, for A (k, n) or a stack (B, k, n).

    Every item of a stack must have the same rank, so that the bases stack.
    """
    a = as_code_matrix(field, matrix)
    lead, (k, n) = a.shape[:-2], a.shape[-2:]
    red, pivots, ranks = rref_stack(field, a.reshape(int(np.prod(lead)), k, n))
    rk = int(ranks[0]) if ranks.size else 0
    if (ranks != rk).any():
        raise InvariantError(f"stacked nullspace over items of ranks {sorted(set(ranks.tolist()))}")
    # free column f_j of item b gives the basis row e_{f_j} - sum_i red[b, i, f_j] e_{pivot_i}
    neg_t = field.np_tables()[2]
    items, j = np.arange(red.shape[0])[:, None], np.arange(n - rk)
    is_pivot = np.zeros((red.shape[0], n + 1), dtype=bool)
    is_pivot[items, pivots] = True
    free = np.nonzero(~is_pivot[:, :n])[1].reshape(red.shape[0], n - rk)
    basis = np.zeros((red.shape[0], n - rk, n), dtype=a.dtype)
    basis[items, j, free] = 1
    for i in range(rk):
        basis[items, j, pivots[:, i : i + 1]] = neg_t[red[items, i, free]]
    out, _, ranks = rref_stack(field, basis)
    if (ranks != n - rk).any():
        raise InvariantError(f"nullspace basis has rank {int(ranks.min())}, not {n - rk}")
    return out.reshape(lead + (n - rk, n))


class DiagonalBlocks:
    """A sparse code matrix split into the connected components of its
    nonzero pattern, row i and column j being joined where A[i, j] != 0.

    It is given by its shape and its entries A[row[k], col[k]] = values[k]
    (distinct positions, any order; zero values are dropped), and keeps
    them row-major in `entries`.  `groups` holds one (rows, cols, stack)
    triple per component shape: (B, r) and (B, c) index arrays, ascending
    within a component, and the (B, r, c) stack of those components,
    stack[b] = A[rows[b][:, None], cols[b]].  Every nonzero entry lies in a
    component, so the rank is the sum of the component ranks; zero rows and
    columns are in none.  No dense copy of A is made.

    The components are found as the torus route finds orbits: every column
    takes the least label among the columns it shares a row with, then
    points to its label's label, until the labels stop changing.
    """

    def __init__(self, shape, row, col, values):
        self.shape = nrows, ncols = tuple(int(s) for s in shape)
        values = np.asarray(values)
        keep = values != 0
        row, col, values = np.asarray(row)[keep], np.asarray(col)[keep], values[keep]
        order = np.lexsort((col, row))
        self.entries = row, col, values = row[order], col[order], values[order]
        self.groups = []
        if not len(row):
            return
        by_col = np.argsort(col, kind="stable")
        new_row = np.ones(len(row), dtype=bool)
        new_row[1:] = row[1:] != row[:-1]
        row_starts, row_of = np.flatnonzero(new_row), np.cumsum(new_row) - 1
        new_col = np.ones(len(col), dtype=bool)
        new_col[1:] = col[by_col][1:] != col[by_col][:-1]
        col_starts = np.flatnonzero(new_col)
        cols = col[by_col][col_starts]  # the nonzero columns, ascending
        label = np.arange(ncols)
        while True:
            # the least label in each row, then in each column's rows; a
            # column's own label is among them, so labels only decrease
            low = np.minimum.reduceat(label[col], row_starts)[row_of]
            new = label.copy()
            new[cols] = np.minimum.reduceat(low[by_col], col_starts)
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        # a component is named by its least column; number them 0..K-1, a
        # row's component being any of its columns'
        root = np.zeros(ncols, dtype=bool)
        root[cols] = label[cols] == cols
        index = np.cumsum(root) - 1
        size = int(root.sum())
        members = []
        local = []  # the place of each nonzero row (column) within its component
        for comp, idx, bound in ((index[label[col[row_starts]]], row[row_starts], nrows), (index[label[cols]], cols, ncols)):
            count = np.bincount(comp, minlength=size)
            order = np.argsort(comp, kind="stable")
            first = np.cumsum(count) - count
            place = np.empty(bound, dtype=np.intp)
            place[idx[order]] = np.arange(len(idx)) - np.repeat(first, count)
            members.append((idx[order], first, count))
            local.append(place)
        (rmem, rfirst, nr), (cmem, cfirst, nc) = members
        shapes, of_shape = np.unique(nr * (ncols + 1) + nc, return_inverse=True)
        of_shape = of_shape.reshape(-1)
        slot = np.empty(size, dtype=np.intp)  # a component's place in its shape's stack
        comp = index[label[col]]
        for s, key in enumerate(shapes.tolist()):
            r, c = divmod(key, ncols + 1)
            ks = np.flatnonzero(of_shape == s)
            slot[ks] = np.arange(len(ks))
            mine = np.flatnonzero(of_shape[comp] == s)
            stack = np.zeros((len(ks), r, c), dtype=values.dtype)
            stack[slot[comp[mine]], local[0][row[mine]], local[1][col[mine]]] = values[mine]
            self.groups.append((rmem[rfirst[ks, None] + np.arange(r)], cmem[cfirst[ks, None] + np.arange(c)], stack))

    def rank(self, field: FieldSpec) -> int:
        return sum(int(rref_stack(field, stack)[2].sum()) for _, _, stack in self.groups)

    def solve(self, field: FieldSpec, rhs):
        """One solution x of A x = b, or None if inconsistent.

        Free variables are set to zero.  A column is a pivot of the whole
        matrix exactly when it is one of its component, so this is the
        solution a Gauss-Jordan pass over the whole matrix would give.
        Components whose part of b is zero get x = 0 and are not reduced.
        """
        nrows, ncols = self.shape
        b = as_code_matrix(field, rhs).reshape(-1)
        if b.shape != (nrows,):
            raise DimensionMismatch(f"right side of length {b.size} for {nrows} rows")
        x = np.zeros(ncols, dtype=field.dtype)
        unmet = b != 0
        for rows, cols, stack in self.groups:
            part = b[rows]
            unmet[rows] = False
            live = part.any(axis=1)
            if not live.any():
                continue
            cols, part = cols[live], part[live]
            aug = np.concatenate([stack[live], part[:, :, None]], axis=2)
            red, pivots, _ = rref_stack(field, aug)
            n = cols.shape[1]
            if (pivots == n).any():
                return None
            item, i = np.nonzero(pivots < n)
            x[cols[item, pivots[item, i]]] = red[item, i, n]
        # a nonzero entry of b on a zero row of A has no solution
        return None if unmet.any() else x
