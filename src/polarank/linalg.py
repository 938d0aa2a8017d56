"""Dense exact linear algebra over GF(q) via lookup-table elimination.

Matrices are numpy arrays of field codes.  Row operations are table gathers
(add[M, mul[c, row]]), so elimination runs at numpy speed while staying exact.
Sizes here are the change-of-basis and perp computations, a few hundred rows
at most; the large GF(p) rank kernel lives in ranks.py.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvariantError
from .gf import FieldSpec


def as_code_matrix(field: FieldSpec, rows) -> np.ndarray:
    dtype = np.uint8 if field.q <= 255 else np.uint16
    a = np.array(rows, dtype=dtype)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def rref(field: FieldSpec, matrix) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form; returns (rref matrix, pivot columns)."""
    add_t, mul_t, neg_t, inv_t, _ = field.np_tables()
    a = as_code_matrix(field, matrix).copy()
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        piv = int(a[r, c])
        if piv != 1:
            a[r] = mul_t[int(inv_t[piv]), a[r]]
        # clear the column everywhere else in one shot
        factors = a[:, c].copy()
        factors[r] = 0
        rows_nz = np.flatnonzero(factors)
        if rows_nz.size:
            upd = mul_t[neg_t[factors[rows_nz]][:, None], a[r][None, :]]
            a[rows_nz] = add_t[a[rows_nz], upd]
        pivots.append(c)
        r += 1
    return a[:r], tuple(pivots)


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
    for i, c in enumerate(pivots):
        x[c] = aug[i, n]
    return x


def nullspace(field: FieldSpec, matrix, ncols=None) -> np.ndarray:
    """RREF basis of {v : A v = 0} as rows."""
    a = as_code_matrix(field, matrix)
    if ncols is not None and a.size == 0:
        a = a.reshape(0, ncols)
    n = a.shape[1]
    red, pivots = rref(field, a)
    neg_t = field.np_tables()[2]
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=a.dtype)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = neg_t[red[i, fc]]
    if len(free) == 0:
        return basis
    out, piv2 = rref(field, basis)
    if out.shape[0] != len(free):
        raise InvariantError(f"nullspace basis has rank {out.shape[0]}, not {len(free)}")
    return out


def matmul(field: FieldSpec, a, b) -> np.ndarray:
    add_t, mul_t = field.np_tables()[:2]
    a = as_code_matrix(field, a)
    b = as_code_matrix(field, b)
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise DimensionMismatch(f"cannot multiply {m} x {k} by {k2} x {n}")
    out = np.zeros((m, n), dtype=a.dtype)
    for j in range(k):
        term = mul_t[a[:, j][:, None], b[j][None, :]]
        out = add_t[out, term]
    return out


def mat_vec(field: FieldSpec, a, v) -> np.ndarray:
    return matmul(field, a, np.asarray(v).reshape(-1, 1)).reshape(-1)
