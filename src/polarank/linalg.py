"""Dense exact linear algebra over GF(q) via lookup-table gathers.

Matrices are numpy arrays of field codes.  Row operations are table gathers
(add[M, mul[c, row]]), so elimination runs at numpy speed while staying exact.
There is one Gauss-Jordan loop, one matrix product and one keyed sum.
``rref_stack`` reduces a whole stack (B, k, n) of matrices at once, one
column step for all items; the 2-D calls are that loop on a stack of one.
``matmul`` is every GF(q) product in the package, from points c.G of flats
and isotropy tests to products of symplectic matrices and the evaluation of
functions on V.  ``keyed_sum`` adds codes into cells: the torus route's
character sums and the function-space lab's products.  Stacks reach about a
million small items (the perps of every isotropic flat), single matrices a
few hundred rows (the function-space lab); the large GF(p) rank kernel lives
in ranks.py.
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


def solve(field: FieldSpec, matrix, rhs):
    """One solution x of A x = b, or None if inconsistent.

    A is (m x n), b length m; returns a length-n numpy code vector.  When the
    system is underdetermined the free variables are set to zero.
    """
    a = as_code_matrix(field, matrix)
    b = as_code_matrix(field, rhs).reshape(-1, 1)
    aug, pivots = rref(field, np.concatenate([a, b], axis=1))
    n = a.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=aug.dtype)
    x[list(pivots)] = aug[:, n]
    return x


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
